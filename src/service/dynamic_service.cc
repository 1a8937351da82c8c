#include "service/dynamic_service.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/timer.h"
#include "service/parallel_scan.h"

namespace gbda {

Result<std::unique_ptr<DynamicGbdaService>> DynamicGbdaService::Create(
    GraphDatabase db, const GbdaIndexOptions& index_options,
    const DynamicServiceOptions& options) {
  if (db.has_tombstones()) {
    return Status::InvalidArgument(
        "dynamic service: the initial database must be tombstone-free");
  }
  Result<GbdaIndex> master = GbdaIndex::Build(db, index_options);
  if (!master.ok()) return master.status();
  // Build copies everything it needs out of `db`, so moving it afterwards
  // is safe; from here on the service owns the only mutable handle.
  return std::unique_ptr<DynamicGbdaService>(new DynamicGbdaService(
      std::move(db), std::move(*master), index_options, options));
}

DynamicGbdaService::DynamicGbdaService(GraphDatabase db, GbdaIndex master,
                                       const GbdaIndexOptions& index_options,
                                       const DynamicServiceOptions& options)
    : index_options_(index_options),
      options_(options),
      db_(std::move(db)),
      master_(std::move(master)),
      pool_(options.service.num_threads) {
  profiles_.reserve(db_.size());
  for (size_t id = 0; id < db_.size(); ++id) {
    profiles_.push_back(
        std::make_shared<const FilterProfile>(BuildFilterProfile(db_.graph(id))));
  }
  MutexLock lock(&write_mutex_);
  Republish();
}

Status DynamicGbdaService::ValidateLabels(const Graph& g) const {
  const size_t num_vertex_ids = db_.vertex_labels().size();
  const size_t num_edge_ids = db_.edge_labels().size();
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (g.VertexLabel(v) >= num_vertex_ids) {
      return Status::InvalidArgument(
          "AddGraph: unknown vertex label id " +
          std::to_string(g.VertexLabel(v)) +
          " (intern labels through the service first)");
    }
    for (const AdjEdge& e : g.Neighbors(v)) {
      if (e.label >= num_edge_ids) {
        return Status::InvalidArgument(
            "AddGraph: unknown edge label id " + std::to_string(e.label) +
            " (intern labels through the service first)");
      }
    }
  }
  return Status::OK();
}

void DynamicGbdaService::Republish(bool force_refit) {
  WallTimer rebuild_timer;

  // The model label universe may have grown (interned labels, new graphs);
  // explicit option overrides stay pinned, as in Build.
  const int64_t lv =
      index_options_.model_vertex_labels > 0
          ? index_options_.model_vertex_labels
          : static_cast<int64_t>(db_.vertex_labels().num_real_labels());
  const int64_t le =
      index_options_.model_edge_labels > 0
          ? index_options_.model_edge_labels
          : static_cast<int64_t>(db_.edge_labels().num_real_labels());
  master_.RefreshModelLabels(lv, le);

  // Lambda2 staleness policy (see DynamicServiceOptions). A refit that
  // cannot run (fit failure, or fewer than the two live graphs a fit
  // needs) keeps the previous prior: availability over freshness,
  // surfaced through dynamic_stats().gbd_refit_failures and the
  // still-nonzero SnapshotInfo::gbd_staleness.
  bool refit_failed = false;
  bool refit_done = false;
  if (master_.gbd_staleness() > 0 &&
      (force_refit || options_.gbd_refit_fraction <= 0.0 ||
       master_.GbdStalenessFraction() > options_.gbd_refit_fraction)) {
    if (master_.num_live() >= 2) {
      Status refit = master_.RefitGbdPrior();
      refit_done = refit.ok();
      refit_failed = !refit.ok();
    } else {
      refit_failed = true;
    }
  }

  auto snap = std::make_shared<Snapshot>();
  snap->generation = ++generation_;
  snap->index =
      std::make_shared<GbdaIndex>(master_.CompactView(&snap->stable_ids));
  snap->graphs.reserve(snap->stable_ids.size());
  std::vector<std::shared_ptr<const FilterProfile>> dense_profiles;
  dense_profiles.reserve(snap->stable_ids.size());
  for (size_t id : snap->stable_ids) {
    snap->graphs.push_back(&db_.graph(id));
    dense_profiles.push_back(profiles_[id]);
  }
  snap->prefilter = std::make_shared<const Prefilter>(std::move(dense_profiles));
  const size_t shard_count = options_.service.num_shards == 0
                                 ? pool_.size()
                                 : options_.service.num_shards;
  snap->shards = std::make_unique<IndexShards>(snap->index.get(),
                                               shard_count);
  snap->ann = std::make_shared<AnnState>();

  // The engine's Phi rows depend only on the two priors, so when neither
  // prior object changed the previous generation's warm engine carries
  // over; otherwise a fresh one is built against the new prior objects
  // (kept alive by the snapshot's index). After a Lambda2 refit alone the
  // table is the old one, so the fresh engine finds every Lambda1 column
  // and Lambda3 row already derived.
  std::shared_ptr<const Snapshot> prev = LoadSnapshot();
  if (prev && &prev->index->gbd_prior() == &snap->index->gbd_prior() &&
      prev->index->mutable_ged_prior() == snap->index->mutable_ged_prior()) {
    snap->engine = prev->engine;
  } else {
    snap->engine = std::make_shared<PosteriorEngine>(
        snap->index->num_vertex_labels(), snap->index->num_edge_labels(),
        snap->index->tau_max(), snap->index->mutable_ged_prior(),
        &snap->index->gbd_prior());
  }

  const double rebuild_seconds = rebuild_timer.Seconds();
  WallTimer swap_timer;
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const Snapshot>(std::move(snap)));
  const double swap_seconds = swap_timer.Seconds();

  MutexLock lock(&stats_mutex_);
  ++dynamic_stats_.snapshots_published;
  if (refit_done) ++dynamic_stats_.gbd_refits;
  if (refit_failed) ++dynamic_stats_.gbd_refit_failures;
  dynamic_stats_.last_rebuild_seconds = rebuild_seconds;
  dynamic_stats_.total_rebuild_seconds += rebuild_seconds;
  dynamic_stats_.max_rebuild_seconds =
      std::max(dynamic_stats_.max_rebuild_seconds, rebuild_seconds);
  dynamic_stats_.last_swap_seconds = swap_seconds;
  dynamic_stats_.total_swap_seconds += swap_seconds;
  dynamic_stats_.max_swap_seconds =
      std::max(dynamic_stats_.max_swap_seconds, swap_seconds);
}

std::shared_ptr<const DynamicGbdaService::Snapshot>
DynamicGbdaService::LoadSnapshot() const {
  return std::atomic_load(&snapshot_);
}

namespace {

/// Fills the caller's generation token from the just-published snapshot.
/// Callers hold write_mutex_, so the loaded snapshot is exactly the one
/// their Republish stored (no later commit can have intervened).
void ReportPublished(const SnapshotInfo& info, SnapshotInfo* published) {
  if (published != nullptr) *published = info;
}

}  // namespace

Result<size_t> DynamicGbdaService::AddGraph(Graph g, SnapshotInfo* published) {
  Result<std::vector<size_t>> ids = AddGraphs({std::move(g)}, published);
  if (!ids.ok()) return ids.status();
  return (*ids)[0];
}

Result<std::vector<size_t>> DynamicGbdaService::AddGraphs(
    std::vector<Graph> graphs, SnapshotInfo* published) {
  if (graphs.empty()) {
    ReportPublished(snapshot_info(), published);  // no commit, current gen
    return std::vector<size_t>{};
  }
  MutexLock lock(&write_mutex_);
  for (const Graph& g : graphs) {
    Status labels = ValidateLabels(g);
    if (!labels.ok()) return labels;
  }
  std::vector<size_t> ids;
  ids.reserve(graphs.size());
  for (Graph& g : graphs) {
    const size_t id = db_.Add(std::move(g));
    const Graph& stored = db_.graph(id);
    master_.AddGraph(stored);
    profiles_.push_back(
        std::make_shared<const FilterProfile>(BuildFilterProfile(stored)));
    ids.push_back(id);
  }
  {
    MutexLock stats_lock(&stats_mutex_);
    dynamic_stats_.graphs_added += ids.size();
  }
  Republish();
  ReportPublished(snapshot_info(), published);
  return ids;
}

Status DynamicGbdaService::RemoveGraphs(const std::vector<size_t>& ids,
                                        SnapshotInfo* published) {
  if (ids.empty()) {
    ReportPublished(snapshot_info(), published);
    return Status::OK();
  }
  MutexLock lock(&write_mutex_);
  Status removed = db_.RemoveGraphs(ids);
  if (!removed.ok()) return removed;  // validated up front: no-op on failure
  Status index_removed = master_.RemoveGraphs(ids);
  if (!index_removed.ok()) return index_removed;  // unreachable: db agreed
  {
    MutexLock stats_lock(&stats_mutex_);
    dynamic_stats_.graphs_removed += ids.size();
  }
  Republish();
  ReportPublished(snapshot_info(), published);
  return Status::OK();
}

LabelId DynamicGbdaService::InternVertexLabel(const std::string& name) {
  MutexLock lock(&write_mutex_);
  return db_.vertex_labels().Intern(name);
}

LabelId DynamicGbdaService::InternEdgeLabel(const std::string& name) {
  MutexLock lock(&write_mutex_);
  return db_.edge_labels().Intern(name);
}

Status DynamicGbdaService::Flush(SnapshotInfo* published) {
  MutexLock lock(&write_mutex_);
  Republish(/*force_refit=*/true);
  ReportPublished(snapshot_info(), published);
  // The snapshot is published either way (availability), but a caller
  // flushing to guarantee a fresh Lambda2 must hear when the refit could
  // not run (degenerate corpus or fit failure).
  if (master_.gbd_staleness() > 0) {
    return Status::FailedPrecondition(
        "Flush: Lambda2 refit could not run (need >= 2 live graphs and a "
        "fit-able corpus); snapshot published with the stale prior");
  }
  return Status::OK();
}

Status DynamicGbdaService::EnsureSnapshotAnn(const Snapshot& snap) const {
  AnnState* state = snap.ann.get();
  std::call_once(state->once, [this, &snap, state] {
    // Built from the snapshot's own index: the dense ids the graph
    // navigates are exactly this generation's corpus positions.
    Result<AnnContext> ctx = AnnContext::Build(
        FingerprintStore::FromIndex(*snap.index), options_.service.ann_build);
    if (ctx.ok()) {
      state->ctx = std::make_unique<const AnnContext>(std::move(*ctx));
    } else {
      state->status = ctx.status();
    }
  });
  return state->status;
}

Status DynamicGbdaService::WarmAnnGraph() {
  return EnsureSnapshotAnn(*LoadSnapshot());
}

Result<std::vector<SearchResult>> DynamicGbdaService::RunBatchOn(
    const std::shared_ptr<const Snapshot>& snap, Span<Graph> queries,
    const SearchOptions& options, bool apply_gamma, size_t top_k) {
  WallTimer timer;
  // Same routing rule as GbdaService::RunBatch: approximate serves
  // concrete-k rankings only, and the context (like everything else in the
  // env) belongs to the pinned generation.
  const bool approximate = options.approximate && !apply_gamma &&
                           top_k != kScanAllMatches && top_k > 0;
  if (approximate) {
    Status ann_ok = EnsureSnapshotAnn(*snap);
    if (!ann_ok.ok()) return ann_ok;
  }
  ParallelScanEnv env{&pool_, snap->shards.get(), snap->index.get(),
                      snap->prefilter.get(), CorpusRef(&snap->graphs),
                      snap->engine.get()};
  Result<std::vector<SearchResult>> results =
      approximate
          ? AnnScanBatch(env, *snap->ann->ctx, queries, options, top_k)
          : ParallelScanBatch(env, queries, options, apply_gamma, top_k);
  if (!results.ok()) return results;

  for (SearchResult& r : *results) {
    // Dense positions -> stable ids. The map is ascending, so the serial id
    // order and every top-k tie-break survive the translation.
    for (SearchMatch& m : r.matches) {
      m.graph_id = snap->stable_ids[m.graph_id];
    }
  }
  AccumulateServiceStats(*results, timer.Seconds(), &counters_);
  return results;
}

Result<SearchResult> DynamicGbdaService::Query(const Graph& query,
                                               const SearchOptions& options) {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  Result<std::vector<SearchResult>> batch =
      RunBatchOn(snap, Span<Graph>(&query, 1), options, /*apply_gamma=*/true,
                 kScanAllMatches);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<SearchResult> DynamicGbdaService::QueryTopK(const Graph& query,
                                                   size_t k,
                                                   const SearchOptions& options) {
  // k == 0: defined-empty ranking, decided at the API boundary — no
  // snapshot scan runs (the query still counts as served).
  if (k == 0) {
    std::vector<SearchResult> empty(1);
    AccumulateServiceStats(empty, 0.0, &counters_);
    return SearchResult{};
  }
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  // Clamp exactly as GbdaService does, against THIS snapshot's corpus, so an
  // oversized k cannot collide with the kScanAllMatches sentinel.
  k = std::min(k, snap->index->num_graphs());
  Result<std::vector<SearchResult>> batch = RunBatchOn(
      snap, Span<Graph>(&query, 1), options, /*apply_gamma=*/false, k);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<std::vector<SearchResult>> DynamicGbdaService::QueryTopKBatch(
    Span<Graph> queries, size_t k, const SearchOptions& options,
    SnapshotInfo* served) {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  if (served != nullptr) {
    served->generation = snap->generation;
    served->num_live = snap->index->num_graphs();
    served->gbd_staleness = snap->index->gbd_staleness();
  }
  if (k == 0) {
    std::vector<SearchResult> empty(queries.size());
    AccumulateServiceStats(empty, 0.0, &counters_);
    counters_.batches_served.Add(1);
    return empty;
  }
  k = std::min(k, snap->index->num_graphs());
  Result<std::vector<SearchResult>> batch =
      RunBatchOn(snap, queries, options, /*apply_gamma=*/false, k);
  if (batch.ok()) counters_.batches_served.Add(1);
  return batch;
}

Result<std::vector<SearchResult>> DynamicGbdaService::QueryBatch(
    Span<Graph> queries, const SearchOptions& options) {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  Result<std::vector<SearchResult>> batch = RunBatchOn(
      snap, queries, options, /*apply_gamma=*/true, kScanAllMatches);
  if (batch.ok()) counters_.batches_served.Add(1);
  return batch;
}

std::shared_ptr<const IndexReader> DynamicGbdaService::snapshot_index() const {
  return LoadSnapshot()->index;
}

SnapshotInfo DynamicGbdaService::snapshot_info() const {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  SnapshotInfo info;
  if (snap) {
    info.generation = snap->generation;
    info.num_live = snap->index->num_graphs();
    info.gbd_staleness = snap->index->gbd_staleness();
  }
  return info;
}

ServiceStats DynamicGbdaService::stats() const { return counters_.Snapshot(); }

DynamicServiceStats DynamicGbdaService::dynamic_stats() const {
  MutexLock lock(&stats_mutex_);
  return dynamic_stats_;
}

void DynamicGbdaService::ResetStats() {
  counters_.Reset();
  MutexLock lock(&stats_mutex_);
  dynamic_stats_ = DynamicServiceStats();
}

}  // namespace gbda
