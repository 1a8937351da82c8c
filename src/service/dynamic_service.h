/// \file dynamic_service.h
/// The dynamic-corpus serving layer (docs/ARCHITECTURE.md, "Dynamic
/// corpus"). The paper's offline stage (Algorithm 1, Step 1*) freezes the
/// database; DynamicGbdaService lifts that restriction for production
/// traffic: graphs are added and retired while queries are in flight.
///
/// It is a GbdaService (service/gbda_service.h) that commits. Queries, the
/// k rules, approximate navigation, the lazy prefilter and the counters are
/// the base class's, run against whichever snapshot is published; this
/// class adds only the mutation side.
///
/// Concurrency model — immutable snapshots, atomically swapped:
///   - A snapshot bundles everything one query generation needs: the dense
///     list of live graphs, a dense GbdaIndex view, the shard count and the
///     PosteriorEngine every pool worker shares. Its prefilter and
///     navigation context are built on first use. Once published it is
///     never modified.
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
#include "core/gbda_index.h"
#include "service/gbda_service.h"

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

/// Concurrent query engine over a mutable graph corpus. Thread-safe:
/// queries may run from any number of threads concurrently with each other
/// and with mutations; mutations are serialized internally. Query results
/// report stable graph ids — the id returned by AddGraph stays valid for
/// the graph's lifetime regardless of later mutations.
class DynamicGbdaService : public GbdaService {
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

  // -- Introspection -------------------------------------------------------

  /// The published generation's identity (atomic read, no locking).
  SnapshotInfo snapshot_info() const;
  /// Live graph count of the published generation.
  size_t num_live() const { return snapshot_info().num_live; }
  /// The published generation's index, kept alive by the returned pointer
  /// (atomic read, no locking): which prior objects a generation serves
  /// with, and what its shared GedPriorTable has cached.
  std::shared_ptr<const IndexReader> snapshot_index() const;

  /// Mutation-side counters.
  DynamicServiceStats dynamic_stats() const;
  /// Zeroes both counter sets. Quiesce queries first (obs::Counter::Reset).
  void ResetStats() override;

  /// The underlying database (stable-id space, including tombstoned slots).
  /// Reading it concurrently with mutations requires external
  /// synchronization; prefer the query API on the serving path. The
  /// analysis opt-out is that documented contract made visible: this
  /// accessor deliberately hands out write_mutex_-guarded state unlocked.
  const GraphDatabase& db() const GBDA_NO_THREAD_SAFETY_ANALYSIS {
    return db_;
  }

 private:
  DynamicGbdaService(GraphDatabase db, GbdaIndex master,
                     const GbdaIndexOptions& index_options,
                     const DynamicServiceOptions& options);

  /// Validates that `g`'s label ids exist in the corpus dictionaries.
  Status ValidateLabels(const Graph& g) const GBDA_REQUIRES(write_mutex_);
  /// Derives and publishes the next snapshot. `force_refit` bypasses the
  /// Lambda2 staleness threshold (any accumulated drift is fit away).
  void Republish(bool force_refit = false) GBDA_REQUIRES(write_mutex_);

  const GbdaIndexOptions index_options_;
  const double gbd_refit_fraction_;

  mutable Mutex write_mutex_;  // serializes mutations + publication
  /// Stable-id space; deque storage keeps refs valid. Queries never touch
  /// these — they pin a published snapshot instead — so write_mutex_ is a
  /// writer-writer lock only.
  GraphDatabase db_ GBDA_GUARDED_BY(write_mutex_);
  GbdaIndex master_ GBDA_GUARDED_BY(write_mutex_);
  uint64_t generation_ GBDA_GUARDED_BY(write_mutex_) = 0;

  /// Mutation-side aggregates, written under the serialized commit path.
  mutable Mutex stats_mutex_;
  DynamicServiceStats dynamic_stats_ GBDA_GUARDED_BY(stats_mutex_);
};

}  // namespace gbda
