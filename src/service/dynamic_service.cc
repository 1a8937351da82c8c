#include "service/dynamic_service.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"

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
    : GbdaService(options.service),
      index_options_(index_options),
      gbd_refit_fraction_(options.gbd_refit_fraction),
      db_(std::move(db)),
      master_(std::move(master)) {
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
      (force_refit || gbd_refit_fraction_ <= 0.0 ||
       master_.GbdStalenessFraction() > gbd_refit_fraction_)) {
    if (master_.num_live() >= 2) {
      Status refit = master_.RefitGbdPrior();
      refit_done = refit.ok();
      refit_failed = !refit.ok();
    } else {
      refit_failed = true;
    }
  }

  std::vector<size_t> stable_ids;
  auto index = std::make_shared<GbdaIndex>(master_.CompactView(&stable_ids));
  // The engine's Phi rows depend only on the two priors, so when neither
  // prior object changed the previous generation's warm engine carries
  // over; otherwise NewSnapshot builds a fresh one against the new prior
  // objects (kept alive by the snapshot's index). After a Lambda2 refit
  // alone the table is the old one, so the fresh engine finds every
  // Lambda1 column and Lambda3 row already derived.
  std::shared_ptr<const Snapshot> prev = LoadSnapshot();
  const bool same_priors =
      prev != nullptr && &prev->index->gbd_prior() == &index->gbd_prior() &&
      prev->index->mutable_ged_prior() == index->mutable_ged_prior();
  std::shared_ptr<Snapshot> snap = NewSnapshot(
      ++generation_, std::move(index), same_priors ? prev->engine : nullptr);
  snap->stable_ids = std::move(stable_ids);
  snap->live_graphs.reserve(snap->stable_ids.size());
  for (size_t id : snap->stable_ids) snap->live_graphs.push_back(&db_.graph(id));

  const double rebuild_seconds = rebuild_timer.Seconds();
  WallTimer swap_timer;
  Publish(std::move(snap));
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
    master_.AddGraph(db_.graph(id));
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

std::shared_ptr<const IndexReader> DynamicGbdaService::snapshot_index() const {
  return LoadSnapshot()->index;
}

SnapshotInfo DynamicGbdaService::snapshot_info() const {
  return Describe(*LoadSnapshot());
}

DynamicServiceStats DynamicGbdaService::dynamic_stats() const {
  MutexLock lock(&stats_mutex_);
  return dynamic_stats_;
}

void DynamicGbdaService::ResetStats() {
  GbdaService::ResetStats();
  MutexLock lock(&stats_mutex_);
  dynamic_stats_ = DynamicServiceStats();
}

}  // namespace gbda
