/// \file dynamic_service.h
/// The dynamic-corpus serving layer (docs/ARCHITECTURE.md, "Dynamic
/// corpus"). The paper's offline stage (Algorithm 1, Step 1*) freezes the
/// database; DynamicGbdaService lifts that restriction for production
/// traffic: graphs are added and retired while queries are in flight.
///
/// Concurrency model — immutable snapshots, atomically swapped:
///   - A Snapshot bundles everything one query generation needs: the dense
///     list of live graphs, a dense GbdaIndex view, the Prefilter, the
///     IndexShards partitioning and the PosteriorEngine every pool worker
///     shares. Once published it is never modified.
///   - Writers (AddGraph / AddGraphs / RemoveGraphs) are serialized by a
///     mutex; each commit updates the master index incrementally (O(1)
///     branch-multiset work per touched graph), refits Lambda2 when the
///     staleness policy below fires, derives the next snapshot in O(live)
///     pointer copies and swaps the published shared_ptr atomically.
///   - The engine carries over to the next snapshot while both prior
///     objects are unchanged. A Lambda2 refit gets a fresh engine (its Phi
///     rows depend on Lambda2), but the GedPriorTable — and with it every
///     Lambda1 column and Lambda3 row — carries over until the model label
///     universe grows, so the first reads after a refit recompute only
///     O(tau_hat) Phi sums per row.
///   - Readers load the current shared_ptr and answer the whole query
///     against that one generation — they never block on writers, and a
///     generation stays alive until its last in-flight query drops it.
///
/// Freshness of the GMM prior Lambda2 (Section V-B) is a policy knob:
/// every commit advances a staleness counter, and once drift exceeds
/// gbd_refit_fraction the prior is re-fit from pairs sampled over the live
/// corpus. With the default fraction of 0 every published snapshot is
/// bit-identical — match set, ordering and counters — to a fresh
/// GbdaIndex::Build + GbdaService over a database holding exactly the live
/// graphs (the equivalence asserted by tests/dynamic_service_test.cc).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "core/prefilter.h"
#include "service/gbda_service.h"
#include "service/index_shards.h"

namespace gbda {

/// Knobs of the dynamic serving layer.
struct DynamicServiceOptions {
  /// Pool/shard configuration, as in GbdaService.
  ServiceOptions service;
  /// Lambda2 staleness policy: the prior is re-fit at a commit when
  /// (mutations since last fit) / (live graphs) exceeds this fraction.
  /// <= 0 re-fits on every commit, which keeps every snapshot bit-identical
  /// to a from-scratch Build over the live corpus; larger values trade that
  /// strictness for cheaper commits (the prior drifts within the bound).
  double gbd_refit_fraction = 0.0;
};

/// Mutation-side counters since construction.
struct DynamicServiceStats {
  uint64_t snapshots_published = 0;
  uint64_t graphs_added = 0;
  uint64_t graphs_removed = 0;
  uint64_t gbd_refits = 0;
  /// Commits where the refit policy fired but fitting failed (e.g. the live
  /// corpus degenerated); the previous prior is kept and serving continues.
  uint64_t gbd_refit_failures = 0;
  double total_rebuild_seconds = 0.0;  // snapshot derivation, incl. refits
  double max_rebuild_seconds = 0.0;
  double last_rebuild_seconds = 0.0;
  double total_swap_seconds = 0.0;  // the atomic publish itself
  double max_swap_seconds = 0.0;
  double last_swap_seconds = 0.0;
};

/// One published generation. Identity of the corpus at a point in time.
struct SnapshotInfo {
  uint64_t generation = 0;
  size_t num_live = 0;
  /// Mutations absorbed since Lambda2 was last fit (0 means the snapshot is
  /// bit-identical to a from-scratch Build of its corpus).
  size_t gbd_staleness = 0;
};

/// Concurrent query engine over a mutable graph corpus. Thread-safe:
/// queries may run from any number of threads concurrently with each other
/// and with mutations; mutations are serialized internally. Query results
/// report stable graph ids — the id returned by AddGraph stays valid for
/// the graph's lifetime regardless of later mutations.
class DynamicGbdaService {
 public:
  /// Takes ownership of the initial database (no tombstones; at least the
  /// two graphs GbdaIndex::Build needs) and publishes generation 1.
  static Result<std::unique_ptr<DynamicGbdaService>> Create(
      GraphDatabase db, const GbdaIndexOptions& index_options,
      const DynamicServiceOptions& options = DynamicServiceOptions());

  // -- Mutations (serialized; each returns after the snapshot swap) --------

  /// Adds a graph (label ids must come from this corpus's dictionaries, see
  /// InternVertexLabel/InternEdgeLabel) and returns its stable id.
  /// Mutations optionally report the snapshot generation their commit
  /// published (`published` non-null): captured under the write lock, so it
  /// is exactly this commit's generation even with concurrent mutators —
  /// the handoff token the network front-end (src/net/server.h) returns to
  /// clients so every mutation is attributable to one published snapshot.
  Result<size_t> AddGraph(Graph g, SnapshotInfo* published = nullptr);
  /// Adds a batch under one commit — one snapshot swap for the whole batch.
  Result<std::vector<size_t>> AddGraphs(std::vector<Graph> graphs,
                                        SnapshotInfo* published = nullptr);
  /// Retires graphs by stable id. Fails as a no-op when any id is unknown,
  /// already removed, or duplicated.
  Status RemoveGraphs(const std::vector<size_t>& ids,
                      SnapshotInfo* published = nullptr);
  /// Interns a label for use by later AddGraph calls. The enlarged label
  /// universe |L_V| / |L_E| (Eq. 33) takes effect at the next commit (or
  /// Flush) unless the index options pin explicit model label counts.
  LabelId InternVertexLabel(const std::string& name);
  LabelId InternEdgeLabel(const std::string& name);
  /// Publishes a snapshot without mutating the corpus: absorbs interned
  /// labels and forces any policy-deferred Lambda2 refit (the staleness
  /// threshold is bypassed). Fails — with the snapshot still published —
  /// when the refit could not run (fewer than two live graphs, or the fit
  /// itself failed), so success guarantees a drift-free prior.
  /// `published` reports the published generation even on failure.
  Status Flush(SnapshotInfo* published = nullptr);

  // -- Queries (against one consistent snapshot; ids are stable ids) ------

  Result<SearchResult> Query(const Graph& query, const SearchOptions& options);
  /// Top-k ranking over the pinned snapshot. Runs the early-terminated
  /// scan unless options.early_termination is off; bit-identical either
  /// way.
  /// k == 0 is a defined-empty result (API-boundary decision, no scan; see
  /// core/gbda_search.h on kScanAllMatches vs k == 0).
  Result<SearchResult> QueryTopK(const Graph& query, size_t k,
                                 const SearchOptions& options);
  Result<std::vector<SearchResult>> QueryBatch(Span<Graph> queries,
                                               const SearchOptions& options);
  /// Batched top-k rankings, all against ONE pinned snapshot;
  /// results[i] is bit-identical to QueryTopK(queries[i], k, options)
  /// against that same snapshot. `served` (non-null) reports the pinned
  /// snapshot's identity — the batch handoff hook the network front-end
  /// uses to stamp every co-batched response with the generation it was
  /// served against (filled on success and failure; also for k == 0, where
  /// no scan runs but the result is still attributed to the current
  /// generation).
  Result<std::vector<SearchResult>> QueryTopKBatch(
      Span<Graph> queries, size_t k, const SearchOptions& options,
      SnapshotInfo* served = nullptr);

  // -- Introspection -------------------------------------------------------

  size_t num_threads() const { return pool_.size(); }
  /// The published generation's identity (atomic read, no locking).
  SnapshotInfo snapshot_info() const;
  /// Live graph count of the published generation.
  size_t num_live() const { return snapshot_info().num_live; }
  /// The published generation's index, kept alive by the returned pointer
  /// (atomic read, no locking): which prior objects a generation serves
  /// with, and what its shared GedPriorTable has cached.
  std::shared_ptr<const IndexReader> snapshot_index() const;

  /// Ensures the CURRENT snapshot's approximate-navigation context exists,
  /// building it from the snapshot index's fingerprint column with
  /// ServiceOptions::ann_build (see GbdaService::WarmAnnGraph). Each
  /// published generation owns its own lazily-built context — the corpus it
  /// navigates is exactly that generation's — so a warm is per-generation:
  /// the next commit starts cold again and the first approximate query
  /// against it pays the build unless re-warmed.
  Status WarmAnnGraph();

  /// Query-side counters, as in GbdaService (sharded, lock-free on the
  /// query path; exact once in-flight queries return).
  ServiceStats stats() const;
  /// Mutation-side counters.
  DynamicServiceStats dynamic_stats() const;
  /// Zeroes both counter sets. Quiesce queries first (obs::Counter::Reset).
  void ResetStats();

  /// Appends this service's metric families for a registry collector.
  void CollectMetrics(const std::string& labels,
                      std::vector<obs::MetricFamily>* out) const {
    counters_.Collect(labels, out);
  }

  /// The underlying database (stable-id space, including tombstoned slots).
  /// Reading it concurrently with mutations requires external
  /// synchronization; prefer the query API on the serving path. The
  /// analysis opt-out is that documented contract made visible: this
  /// accessor deliberately hands out write_mutex_-guarded state unlocked.
  const GraphDatabase& db() const GBDA_NO_THREAD_SAFETY_ANALYSIS {
    return db_;
  }

 private:
  /// Lazily-built approximate-navigation context of one snapshot. Shared
  /// mutable state hanging off an otherwise-immutable generation: call_once
  /// makes the build race-free, and a failed build is sticky (status) so
  /// approximate queries report it instead of silently rescanning.
  struct AnnState {
    std::once_flag once;
    std::unique_ptr<const AnnContext> ctx;
    Status status;
  };

  struct Snapshot {
    uint64_t generation = 0;
    std::vector<size_t> stable_ids;       // dense position -> stable id
    std::vector<const Graph*> graphs;     // dense; deque-stable pointers
    /// The generation's branch store, held through the IndexReader scan
    /// contract: today always an owned dense CompactView, but any reader —
    /// e.g. a mapped GbdaIndexView over a v3 artifact — satisfies the
    /// serving path (docs/ARCHITECTURE.md, "Storage engine").
    std::shared_ptr<const IndexReader> index;
    std::shared_ptr<const Prefilter> prefilter;
    std::unique_ptr<IndexShards> shards;
    /// Shared by every pool worker, and with the previous generation when
    /// both priors are unchanged (its Phi rows stay warm). A fresh engine
    /// still shares the index's GedPriorTable.
    std::shared_ptr<PosteriorEngine> engine;
    /// Built on the generation's first approximate query (or WarmAnnGraph);
    /// never shared across generations, since the navigable corpus changed.
    std::shared_ptr<AnnState> ann;
  };

  DynamicGbdaService(GraphDatabase db, GbdaIndex master,
                     const GbdaIndexOptions& index_options,
                     const DynamicServiceOptions& options);

  /// Validates that `g`'s label ids exist in the corpus dictionaries.
  Status ValidateLabels(const Graph& g) const GBDA_REQUIRES(write_mutex_);
  /// Derives and publishes the next snapshot. `force_refit` bypasses the
  /// Lambda2 staleness threshold (any accumulated drift is fit away).
  void Republish(bool force_refit = false) GBDA_REQUIRES(write_mutex_);
  /// Shared query path over one pinned snapshot; remaps dense match ids to
  /// stable ids.
  Result<std::vector<SearchResult>> RunBatchOn(
      const std::shared_ptr<const Snapshot>& snap, Span<Graph> queries,
      const SearchOptions& options, bool apply_gamma, size_t top_k);
  /// Builds (at most once) the snapshot's AnnState; returns its status.
  Status EnsureSnapshotAnn(const Snapshot& snap) const;
  std::shared_ptr<const Snapshot> LoadSnapshot() const;

  const GbdaIndexOptions index_options_;
  const DynamicServiceOptions options_;

  mutable Mutex write_mutex_;  // serializes mutations + publication
  /// Stable-id space; deque storage keeps refs valid. Queries never touch
  /// these — they pin a published Snapshot instead — so write_mutex_ is a
  /// writer-writer lock only.
  GraphDatabase db_ GBDA_GUARDED_BY(write_mutex_);
  GbdaIndex master_ GBDA_GUARDED_BY(write_mutex_);
  /// Per-stable-id filter profiles (built once per graph, shared by every
  /// snapshot that includes the graph).
  std::vector<std::shared_ptr<const FilterProfile>> profiles_
      GBDA_GUARDED_BY(write_mutex_);
  uint64_t generation_ GBDA_GUARDED_BY(write_mutex_) = 0;

  ThreadPool pool_;
  /// Deliberately unguarded: accessed exclusively through the free
  /// std::atomic_load/atomic_store shared_ptr overloads (LoadSnapshot /
  /// Republish), the readers-never-block-writers handoff.
  std::shared_ptr<const Snapshot> snapshot_;

  /// Query-side counters: sharded and lock-free (see ServiceCounters); the
  /// mutex below now guards only the mutation-side aggregates, which are
  /// written under the serialized commit path anyway.
  ServiceCounters counters_;
  mutable Mutex stats_mutex_;
  DynamicServiceStats dynamic_stats_ GBDA_GUARDED_BY(stats_mutex_);
};

}  // namespace gbda
