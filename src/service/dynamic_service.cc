#include "service/dynamic_service.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/timer.h"

namespace gbda {

Result<std::unique_ptr<DynamicGbdaService>> DynamicGbdaService::Create(
    GraphDatabase db, const GbdaIndexOptions& index_options,
    const DynamicServiceOptions& options) {
  Result<GbdaIndex> master = GbdaIndex::Build(db, index_options);
  if (!master.ok()) return master.status();
  return std::unique_ptr<DynamicGbdaService>(new DynamicGbdaService(
      std::move(db.vertex_labels()), std::move(db.edge_labels()),
      std::move(*master), index_options, options));
}

DynamicGbdaService::DynamicGbdaService(LabelDict vertex_labels,
                                       LabelDict edge_labels, GbdaIndex master,
                                       const GbdaIndexOptions& index_options,
                                       const DynamicServiceOptions& options)
    : GbdaService(options.service),
      index_options_(index_options),
      gbd_refit_fraction_(options.gbd_refit_fraction),
      vertex_labels_(std::move(vertex_labels)),
      edge_labels_(std::move(edge_labels)),
      master_(std::move(master)) {
  MutexLock lock(&write_mutex_);
  stable_ids_.resize(master_.num_graphs());
  std::iota(stable_ids_.begin(), stable_ids_.end(), size_t{0});
  next_id_ = stable_ids_.size();
  Republish();
}

Status DynamicGbdaService::ValidateLabels(const Graph& g) const {
  const size_t num_vertex_ids = vertex_labels_.size();
  const size_t num_edge_ids = edge_labels_.size();
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
          : static_cast<int64_t>(vertex_labels_.num_real_labels());
  const int64_t le =
      index_options_.model_edge_labels > 0
          ? index_options_.model_edge_labels
          : static_cast<int64_t>(edge_labels_.num_real_labels());
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
    if (master_.num_graphs() >= 2) {
      Status refit = master_.RefitGbdPrior();
      refit_done = refit.ok();
      refit_failed = !refit.ok();
    } else {
      refit_failed = true;
    }
  }

  // A copy shares every artifact with the master, the columns the commit
  // laid out included: a few pointer copies.
  auto index = std::make_shared<GbdaIndex>(master_);
  // The engine's Phi rows depend only on the two priors, so when neither
  // prior object changed the previous generation's warm engine carries
  // over; otherwise NewSnapshot builds a fresh one against the new prior
  // objects (kept alive by the snapshot's index). After a Lambda2 refit
  // alone the table is the old one, so the fresh engine finds every
  // Lambda1 matrix and Lambda3 row already derived.
  std::shared_ptr<const Snapshot> prev = LoadSnapshot();
  const bool same_priors =
      prev != nullptr && &prev->index->gbd_prior() == &index->gbd_prior() &&
      prev->index->mutable_ged_prior() == index->mutable_ged_prior();
  std::shared_ptr<Snapshot> snap = NewSnapshot(
      ++generation_, std::move(index), same_priors ? prev->engine : nullptr);
  snap->stable_ids = stable_ids_;

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
  // One call per commit: the dictionary is copied at most once, at the
  // first branch it has not seen, and the published snapshot keeps its own.
  master_.AddGraphs(graphs);
  std::vector<size_t> ids;
  ids.reserve(graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) {
    stable_ids_.push_back(next_id_);
    ids.push_back(next_id_++);
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
  // Validated in ascending id order before anything mutates, so a failed
  // removal is a no-op and the smallest offending id decides the code.
  std::vector<size_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> positions;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const size_t id = sorted[i];
    if (id >= next_id_) {
      return Status::InvalidArgument("RemoveGraphs: id out of range: " +
                                     std::to_string(id));
    }
    const auto it =
        std::lower_bound(stable_ids_.begin(), stable_ids_.end(), id);
    if (it == stable_ids_.end() || *it != id) {
      return Status::NotFound("RemoveGraphs: graph already removed: " +
                              std::to_string(id));
    }
    if (i > 0 && sorted[i - 1] == id) {
      return Status::InvalidArgument("RemoveGraphs: duplicate id: " +
                                     std::to_string(id));
    }
    positions.push_back(static_cast<size_t>(it - stable_ids_.begin()));
  }
  GBDA_RETURN_IF_ERROR(master_.RemoveGraphs(positions));
  std::vector<size_t> kept;
  kept.reserve(stable_ids_.size() - sorted.size());
  std::set_difference(stable_ids_.begin(), stable_ids_.end(), sorted.begin(),
                      sorted.end(), std::back_inserter(kept));
  stable_ids_ = std::move(kept);
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
  return vertex_labels_.Intern(name);
}

LabelId DynamicGbdaService::InternEdgeLabel(const std::string& name) {
  MutexLock lock(&write_mutex_);
  return edge_labels_.Intern(name);
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

std::vector<size_t> DynamicGbdaService::live_ids() const {
  return LoadSnapshot()->stable_ids;
}

LabelDict DynamicGbdaService::vertex_labels() const {
  MutexLock lock(&write_mutex_);
  return vertex_labels_;
}

LabelDict DynamicGbdaService::edge_labels() const {
  MutexLock lock(&write_mutex_);
  return edge_labels_;
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
