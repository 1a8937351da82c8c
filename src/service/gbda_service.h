/// \file gbda_service.h
/// The serving layer: one concurrent, sharded query engine over an
/// immutable snapshot of the offline artifact (docs/ARCHITECTURE.md,
/// "Serving layer"). A GbdaService owns a fixed-size ThreadPool, lock-free
/// counters and an atomically swapped pointer to the published Snapshot.
/// Every query call pins one snapshot, fans each (query, shard) pair onto
/// the pool and merges shard results deterministically, so the output —
/// match set, ordering, top-k tie-breaking and the candidates/prefilter
/// counters — is bit-identical to the serial GbdaSearch scan. Threshold
/// queries may additionally arm the prefix filter (ArmPrefixFilter), which
/// the serial scan never does: it moves work, not answers.
///
/// A frozen service publishes one generation-0 snapshot over a borrowed
/// database and index and never replaces it. DynamicGbdaService
/// (service/dynamic_service.h) derives from this class and publishes one
/// snapshot per commit; the query path is the same code either way.
///
/// Each snapshot holds one PosteriorEngine, shared by every pool worker: a
/// scan takes the engine's lock once per distinct extended size to look up
/// an immutable Phi row, then reads the row lock-free. The engine reads the
/// index's thread-safe GedPriorTable and the immutable GbdPrior.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ann/navigator.h"
#include "common/result.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/gbda_search.h"
#include "core/prefilter.h"
#include "obs/metrics_registry.h"

namespace gbda {

/// Concurrency knobs of the serving layer.
struct ServiceOptions {
  /// Pool workers; 0 means std::thread::hardware_concurrency (at least 1).
  size_t num_threads = 0;
  /// Contiguous database shards; 0 means one per worker. More shards than
  /// workers improves load balance on skewed databases; the result is
  /// identical for any shard count.
  size_t num_shards = 0;
  /// Proximity-graph construction knobs for approximate mode, used when
  /// the service builds its navigation graph (WarmAnnGraph, or lazily on
  /// the first approximate query) rather than adopting a persisted one.
  AnnBuildParams ann_build;
};

/// Aggregate serving statistics since construction (or ResetStats). A plain
/// value snapshot assembled from the owning service's sharded counters
/// (ServiceCounters) — concurrent client threads may call Query/QueryBatch/
/// stats() freely; no lock is taken anywhere on the query path.
struct ServiceStats {
  size_t queries_served = 0;
  size_t batches_served = 0;  // QueryBatch / QueryTopKBatch calls
  size_t candidates_evaluated = 0;
  size_t prefiltered_out = 0;
  /// Posterior evaluations skipped by bound pruning (subset of
  /// candidates_evaluated; see SearchResult::pruned_by_bound).
  size_t pruned_by_bound = 0;
  /// The part of pruned_by_bound the threshold prefix filter skipped
  /// unread (see SearchResult::skipped_by_prefix).
  size_t skipped_by_prefix = 0;
  /// Nodes the approximate navigator visited (0 for exhaustive queries) and
  /// candidates that paid the full verification tail. Cost observability,
  /// like pruned_by_bound: excluded from determinism comparisons (see
  /// SearchResult::candidates_visited / verified_count).
  size_t candidates_visited = 0;
  size_t verified_count = 0;
  size_t matches_returned = 0;
  /// Sum of per-query latencies (submission to last-shard completion).
  double total_latency_seconds = 0.0;
  /// Sum of top-level call wall times (a batch counts once).
  double total_wall_seconds = 0.0;

  double MeanLatencySeconds() const {
    return queries_served == 0 ? 0.0
                               : total_latency_seconds /
                                     static_cast<double>(queries_served);
  }
  /// Served-query throughput. The denominator is clamped to the timer's
  /// plausible resolution so a fast batch whose wall time rounds to zero
  /// (sub-tick) still reports a finite, nonzero QPS instead of 0 — by
  /// construction nonzero whenever queries_served > 0.
  double QueriesPerSecond() const {
    if (queries_served == 0) return 0.0;
    const double wall = total_wall_seconds > kMinWallSeconds
                            ? total_wall_seconds
                            : kMinWallSeconds;
    return static_cast<double>(queries_served) / wall;
  }

  /// Denominator clamp for QueriesPerSecond: one nanosecond, below any
  /// steady_clock tick a served query could take.
  static constexpr double kMinWallSeconds = 1e-9;
};

/// Lock-free backing store for ServiceStats: one sharded relaxed-atomic
/// counter per field (durations in integer nanoseconds — exact to the
/// steady_clock tick), so accumulation on the query path never contends and
/// never takes a mutex. Snapshot() is exact once writers quiesce and a
/// consistent lower bound while they run; Reset() requires quiesced writers
/// (same caveat as obs::Counter::Reset).
struct ServiceCounters {
  obs::Counter queries_served;
  obs::Counter batches_served;
  obs::Counter candidates_evaluated;
  obs::Counter prefiltered_out;
  obs::Counter pruned_by_bound;
  obs::Counter skipped_by_prefix;
  obs::Counter candidates_visited;
  obs::Counter verified_count;
  obs::Counter matches_returned;
  obs::Counter latency_nanos;  // sum of per-query latencies
  obs::Counter wall_nanos;     // sum of top-level call wall times
  /// Per-query scan-stage latency distribution (microseconds), recorded only
  /// when tracing samples the query (obs::TraceSampled) so the untraced hot
  /// path pays nothing for it.
  obs::ConcurrentHistogram scan_latency_micros;

  ServiceStats Snapshot() const;
  void Reset();
  /// Appends this service's gbda_service_* metric families, every point
  /// tagged with `labels` (may be empty). Feeds MetricsRegistry collectors.
  void Collect(const std::string& labels, std::vector<obs::MetricFamily>* out) const;
};

/// Identity of one published snapshot. A frozen service serves generation
/// 0 for its whole lifetime; a dynamic one publishes 1, 2, ... per commit.
struct SnapshotInfo {
  uint64_t generation = 0;
  size_t num_live = 0;
  /// Mutations absorbed since Lambda2 was last fit (0 means the snapshot is
  /// bit-identical to a from-scratch Build of its corpus).
  size_t gbd_staleness = 0;
};

/// One shard's contiguous id range.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Shard `s` of `num_shards` over `num_graphs` ids: [s*n/S, (s+1)*n/S).
/// The ranges tile [0, n) in ascending order with sizes differing by at
/// most one, so concatenating per-shard results in shard order reproduces
/// the serial scan's id order — the determinism contract of the serving
/// layer.
inline ShardRange ShardOf(size_t s, size_t num_shards, size_t num_graphs) {
  return {s * num_graphs / num_shards, (s + 1) * num_graphs / num_shards};
}

/// Concurrent sharded query engine over a prebuilt index. The index is
/// consumed through the IndexReader contract (core/index_reader.h), so the
/// service serves equally from an owned GbdaIndex and from a zero-copy
/// GbdaIndexView over a mapped v4 artifact (storage/index_view.h) — results
/// are bit-identical either way. Thread-safe: concurrent public calls are
/// allowed (they share the pool and the snapshot's engine; statistics are
/// lock-free sharded counters, see ServiceCounters).
class GbdaService {
 public:
  /// Checked construction: fails when `index` does not agree with `db`
  /// (graph counts and per-graph branch sizes), e.g. a stale persisted
  /// artifact — an undetected mismatch would drive out-of-bounds branch and
  /// prefilter lookups in the shard scans.
  static Result<std::unique_ptr<GbdaService>> Create(
      const GraphDatabase* db, const IndexReader* index,
      const ServiceOptions& options = ServiceOptions());

  /// Frozen serving: publishes one generation-0 snapshot over `db` and
  /// `index`, both borrowed — they must outlive the service, and the index
  /// must have been built over exactly this database. Create enforces
  /// db/index agreement up front; this raw path defers it to query time
  /// (PrepareScan rejects a size mismatch before any out-of-bounds access
  /// can happen).
  GbdaService(const GraphDatabase* db, const IndexReader* index,
              const ServiceOptions& options = ServiceOptions());
  virtual ~GbdaService() = default;
  GbdaService(const GbdaService&) = delete;
  GbdaService& operator=(const GbdaService&) = delete;

  // -- Queries (each against ONE pinned snapshot) ----------------------------
  // Match ids are database ids for a frozen service and stable ids for a
  // dynamic one (the dense-to-stable map is ascending, so ordering and every
  // tie-break survive the translation).

  /// Threshold query, bit-identical to GbdaSearch::Query (matches in
  /// ascending graph id order). result.seconds is the query's wall latency.
  Result<SearchResult> Query(const Graph& query, const SearchOptions& options);

  /// Top-k ranking, bit-identical to GbdaSearch::QueryTopK including the
  /// (phi_score desc, gbd asc, id asc) tie-breaking. Each shard truncates
  /// to its local top-k before the global merge re-ranks. Runs the
  /// early-terminated scan (shards share the running k-th-best bound)
  /// unless options.early_termination is off — results are identical
  /// either way. k == 0 is defined as an empty result (validated here at
  /// the API boundary, no scan runs; see core/gbda_search.h on the
  /// kScanAllMatches sentinel vs k == 0).
  Result<SearchResult> QueryTopK(const Graph& query, size_t k,
                                 const SearchOptions& options);

  /// Batched threshold queries: all (query, shard) pairs are in flight on
  /// the pool at once, so one slow query does not serialise the batch.
  /// results[i].seconds is query i's latency from batch submission to its
  /// last shard completing. Fails as a whole on the first invalid query /
  /// evaluation error (the only failure modes are option validation and
  /// posterior-domain errors, which are query-global).
  Result<std::vector<SearchResult>> QueryBatch(Span<Graph> queries,
                                               const SearchOptions& options);

  /// Batched top-k rankings with the same in-flight fan-out as QueryBatch;
  /// results[i] is bit-identical to QueryTopK(queries[i], k, options)
  /// against the same snapshot. Each query job carries its own
  /// shard-shared pruning bound. `served` (non-null) reports the pinned
  /// snapshot's identity — the hook the network front-end uses to stamp
  /// every co-batched response with the generation it was served against
  /// (filled on success and failure, and for k == 0, where no scan runs).
  Result<std::vector<SearchResult>> QueryTopKBatch(
      Span<Graph> queries, size_t k, const SearchOptions& options,
      SnapshotInfo* served = nullptr);

  size_t num_threads() const { return pool_.size(); }
  /// The published snapshot's shard count (ServiceOptions::num_shards,
  /// clamped so no shard is empty unless the corpus is).
  size_t num_shards() const;

  // -- Approximate navigation ------------------------------------------------
  // Ranking queries with options.approximate walk a proximity graph over
  // GBD over branch ids instead of scanning every shard, then
  // verify the visited candidates exactly (ann/navigator.h): the result is
  // a subset of the exhaustive top-k with bit-exact scores. The context
  // reads the snapshot index's branch-id columns in place, holds no copy of
  // them, and belongs to that one snapshot. It is initialised at most once —
  // lazily on its first approximate query, eagerly via WarmAnnGraph, or
  // adopted from a mapped artifact. A dynamic service's next commit
  // therefore starts cold again.

  /// Ensures the published snapshot's navigation context exists, building
  /// it with ServiceOptions::ann_build when nothing was adopted.
  /// Idempotent; returns the (sticky) build status. Call it at startup to
  /// keep the O(corpus · degree · window) construction off the first
  /// query's latency.
  Status WarmAnnGraph();

  /// Adopts a prebuilt graph — typically GbdaIndexView::ann_graph() from a
  /// v4 artifact written with one — into the published snapshot instead of
  /// building. The referenced storage must outlive the service, and the
  /// graph must cover exactly the index's graphs. Fails
  /// (FailedPrecondition) once the context exists, so adopt before the
  /// first approximate query or WarmAnnGraph call.
  Status AdoptAnnGraph(const ProximityGraphRef& graph);

  /// Snapshot of the aggregate counters (exact once in-flight queries have
  /// returned; a consistent lower bound while they run).
  ServiceStats stats() const;
  /// Zeroes the counters. Quiesce concurrent queries first: an accumulation
  /// racing the reset may survive it partially.
  virtual void ResetStats();

  /// Appends this service's metric families for a registry collector.
  void CollectMetrics(const std::string& labels,
                      std::vector<obs::MetricFamily>* out) const {
    counters_.Collect(labels, out);
  }

 protected:
  /// One published generation: everything a query needs, immutable once
  /// published except for the three lazily built, call_once-guarded members
  /// at the end (prefilter, postings, navigation context). A generation
  /// stays alive until its last in-flight query drops it, and its lazy
  /// members with it: a dynamic commit's next generation starts cold.
  struct Snapshot {
    uint64_t generation = 0;
    /// Dense position -> stable id, ascending; empty means the identity
    /// (frozen serving).
    std::vector<size_t> stable_ids;
    /// A frozen service's borrowed database, read only by the query-time
    /// graph-count check; null for a dynamic generation. Queries read no
    /// Graph of it.
    const GraphDatabase* db = nullptr;
    /// The generation's branch store through the IndexReader scan
    /// contract — all a query reads; non-owning for a borrowed reader.
    std::shared_ptr<const IndexReader> index;
    size_t num_shards = 1;
    /// Shared by every pool worker, and by consecutive dynamic generations
    /// while both priors are unchanged (its Phi rows stay warm).
    std::shared_ptr<PosteriorEngine> engine;

    /// The layered prefilter over this generation's index, profiled from
    /// its branch store on the first batch with SearchOptions::use_prefilter
    /// — its only reader is admission. Profile extraction is O(corpus) and
    /// cold-start sensitive (a mapped v4 artifact opens in microseconds; an
    /// eager prefilter would put a corpus-sized pass right back into
    /// startup).
    const Prefilter* EnsurePrefilter() const;
    /// The inverted index over this generation's branch ids
    /// (core/branch_postings.h), built from its index on the first batch in
    /// which some threshold query arms the prefix filter (PrefixFilterApplies)
    /// — about one u32 per branch, and a pass over the id column that
    /// ranking, approximate and prefiltered reads never pay for.
    const BranchPostings& EnsurePostings() const;
    /// Builds (`graph` null) or adopts this generation's navigation context
    /// at most once; false when it was already initialised. The outcome is
    /// sticky in ann / ann_status: a failed build is reported to every
    /// later approximate query instead of silently degrading to an
    /// exhaustive scan the client did not ask to pay for.
    bool InitAnn(const AnnBuildParams& params,
                 const ProximityGraphRef* graph) const;

    mutable std::once_flag prefilter_once;
    mutable std::unique_ptr<const Prefilter> prefilter;
    mutable std::once_flag postings_once;
    mutable std::unique_ptr<const BranchPostings> postings;
    mutable std::once_flag ann_once;
    mutable std::unique_ptr<const AnnContext> ann;
    mutable Status ann_status;
  };

  /// Pool and counters only; the derived service publishes the first
  /// snapshot.
  explicit GbdaService(const ServiceOptions& options);

  /// A generation over `index` with this service's shard count and
  /// `engine`, or a fresh engine over the index's priors when null. The
  /// caller fills in the frozen db or the stable ids, then publishes it.
  std::shared_ptr<Snapshot> NewSnapshot(
      uint64_t generation, std::shared_ptr<const IndexReader> index,
      std::shared_ptr<PosteriorEngine> engine) const;
  /// The readers-never-block-writers handoff: an atomic store / load of
  /// the published snapshot.
  void Publish(std::shared_ptr<const Snapshot> snapshot);
  std::shared_ptr<const Snapshot> LoadSnapshot() const;
  static SnapshotInfo Describe(const Snapshot& snapshot);

 private:
  /// The one query path: pins a snapshot, applies the k rules, scans and
  /// counts. `k` is ignored by threshold calls (apply_gamma); `batch_call`
  /// counts one served batch on success.
  Result<std::vector<SearchResult>> RunBatch(Span<Graph> queries,
                                             const SearchOptions& options,
                                             bool apply_gamma, size_t k,
                                             bool batch_call,
                                             SnapshotInfo* served);
  /// The fan-out/merge over one snapshot: a pool task per (query, shard),
  /// or per query when `ann` navigates (beam navigation is a global walk,
  /// so sharding it would change which candidates it visits). top_k ==
  /// kScanAllMatches keeps every match (threshold mode); otherwise each
  /// task and the final merge truncate to top_k. Each threshold query the
  /// prefix filter applies to is armed after PrepareScan, over the
  /// snapshot's postings, so every shard scans only its slice of the
  /// query's candidate list.
  Result<std::vector<SearchResult>> FanOut(const Snapshot& snap,
                                           Span<Graph> queries,
                                           const SearchOptions& options,
                                           bool apply_gamma, size_t top_k,
                                           const Prefilter* prefilter,
                                           const AnnContext* ann);

  const AnnBuildParams ann_build_;
  ThreadPool pool_;
  /// Requested shards (one per worker by default); each snapshot clamps it
  /// to its corpus.
  const size_t num_shards_;
  /// Deliberately unguarded: accessed exclusively through the free
  /// std::atomic_load/atomic_store shared_ptr overloads (LoadSnapshot /
  /// Publish).
  std::shared_ptr<const Snapshot> snapshot_;
  ServiceCounters counters_;
};

}  // namespace gbda
