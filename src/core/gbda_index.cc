#include "core/gbda_index.h"

#include <cmath>
#include <numeric>
#include <set>

#include "common/timer.h"

namespace gbda {
namespace {

// Plausibility bounds for on-disk header fields. A hostile file can claim
// any value; these only need to admit every index this library can build.
// (kMaxPlausibleTau is shared with the GED-prior decoder; the arena loader
// cross-checks the two headers for equality.)
constexpr int64_t kMaxPlausibleLabels = int64_t{1} << 32;  // LabelId is u32
// Both feed int fields of GmmFitOptions, so the bounds must stay below
// INT_MAX or the validated value would wrap in the narrowing cast.
constexpr int64_t kMaxPlausibleComponents = 1 << 16;
constexpr int64_t kMaxPlausibleIterations = 1 << 30;

size_t BranchMultisetBytes(const BranchMultiset& ms) {
  size_t bytes = sizeof(BranchMultiset);
  for (const Branch& b : ms) {
    bytes += sizeof(Branch) + b.edge_labels.capacity() * sizeof(LabelId);
  }
  return bytes;
}

}  // namespace

Result<GbdaIndex> GbdaIndex::Build(const GraphDatabase& db,
                                   const GbdaIndexOptions& options) {
  if (db.empty()) return Status::InvalidArgument("index build: empty database");
  if (db.has_tombstones()) {
    return Status::InvalidArgument(
        "index build: database has tombstones; Build covers the frozen "
        "offline stage — serve a mutable corpus through DynamicGbdaService");
  }
  if (options.tau_max < 0) {
    return Status::InvalidArgument("index build: tau_max must be >= 0");
  }
  GbdaIndex index;
  index.options_ = options;
  index.num_vertex_labels_ =
      options.model_vertex_labels > 0
          ? options.model_vertex_labels
          : static_cast<int64_t>(db.vertex_labels().num_real_labels());
  index.num_edge_labels_ =
      options.model_edge_labels > 0
          ? options.model_edge_labels
          : static_cast<int64_t>(db.edge_labels().num_real_labels());

  // Branch multisets (the auxiliary structure of Section III).
  WallTimer timer;
  index.branches_.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    index.branches_.push_back(
        std::make_shared<const BranchMultiset>(ExtractBranches(db.graph(i))));
    index.vertex_sum_ += static_cast<double>(db.graph(i).num_vertices());
  }
  index.num_live_ = db.size();
  index.costs_.branch_seconds = timer.Seconds();
  for (const auto& b : index.branches_) {
    index.costs_.branch_bytes += BranchMultisetBytes(*b);
  }

  // Lambda2: GMM prior over GBDs. RefitGbdPrior runs the identical
  // arithmetic later in the index's life, so incremental maintenance stays
  // bit-compatible with a from-scratch Build.
  timer.Restart();
  Status fit = index.RefitGbdPrior();
  if (!fit.ok()) return fit;
  index.costs_.gbd_prior_seconds = timer.Seconds();

  // Lambda3: Jeffreys prior rows.
  timer.Restart();
  index.ged_prior_ = std::make_shared<GedPriorTable>(
      index.num_vertex_labels_, index.num_edge_labels_, options.tau_max);
  std::vector<int64_t> sizes;
  if (options.eager_all_sizes) {
    const int64_t n = static_cast<int64_t>(db.MaxVertices());
    sizes.resize(static_cast<size_t>(n));
    std::iota(sizes.begin(), sizes.end(), int64_t{1});
  } else {
    std::set<int64_t> distinct;
    for (size_t i = 0; i < db.size(); ++i) {
      distinct.insert(static_cast<int64_t>(db.graph(i).num_vertices()));
    }
    sizes.assign(distinct.begin(), distinct.end());
  }
  index.ged_prior_->EagerBuild(sizes);
  index.costs_.ged_prior_seconds = timer.Seconds();
  index.costs_.ged_prior_bytes = index.ged_prior_->MemoryBytes();
  return index;
}

CandidateColumns GbdaIndex::columns() const {
  ColumnCache* cache = column_cache_.get();
  MutexLock lock(&cache->mu);
  if (!cache->built) {
    cache->columns = BuildCandidateColumns(*this);
    cache->built = true;
  }
  // The returned pointers outlive the lock: once built, the cache object is
  // immutable — mutations swap in a whole new cache instead.
  return cache->columns.View();
}

size_t GbdaIndex::AddGraph(const Graph& g) {
  branches_.push_back(
      std::make_shared<const BranchMultiset>(ExtractBranches(g)));
  costs_.branch_bytes += BranchMultisetBytes(*branches_.back());
  vertex_sum_ += static_cast<double>(g.num_vertices());
  ++num_live_;
  ++gbd_staleness_;
  column_cache_ = std::make_shared<ColumnCache>();
  return branches_.size() - 1;
}

Status GbdaIndex::RemoveGraphs(const std::vector<size_t>& ids) {
  Status valid = ValidateRemovalBatch(
      ids, branches_.size(),
      [this](size_t id) { return branches_[id] != nullptr; },
      "index RemoveGraphs");
  if (!valid.ok()) return valid;
  for (size_t id : ids) {
    vertex_sum_ -= static_cast<double>(branches_[id]->size());
    costs_.branch_bytes -= BranchMultisetBytes(*branches_[id]);
    branches_[id] = nullptr;
    --num_live_;
    ++gbd_staleness_;
  }
  column_cache_ = std::make_shared<ColumnCache>();
  return Status::OK();
}

Status GbdaIndex::RefitGbdPrior() {
  std::vector<const BranchMultiset*> live;
  live.reserve(num_live_);
  for (const auto& b : branches_) {
    if (b) live.push_back(b.get());
  }
  Rng rng(options_.seed);
  Result<GbdPrior> prior = GbdPrior::Fit(live, options_.gbd_prior, &rng);
  if (!prior.ok()) return prior.status();
  gbd_prior_ = std::make_shared<const GbdPrior>(std::move(*prior));
  gbd_staleness_ = 0;
  costs_.gbd_prior_bytes = gbd_prior_->MemoryBytes();
  costs_.pairs_sampled = gbd_prior_->pairs_sampled();
  return Status::OK();
}

void GbdaIndex::RefreshModelLabels(int64_t num_vertex_labels,
                                   int64_t num_edge_labels) {
  if (num_vertex_labels == num_vertex_labels_ &&
      num_edge_labels == num_edge_labels_) {
    return;
  }
  num_vertex_labels_ = num_vertex_labels;
  num_edge_labels_ = num_edge_labels;
  // Lambda3 rows depend on the label universe; swap in a fresh table and let
  // rows rebuild lazily. Published snapshots keep the old table alive.
  ged_prior_ = std::make_shared<GedPriorTable>(num_vertex_labels_,
                                               num_edge_labels_,
                                               options_.tau_max);
}

GbdaIndex GbdaIndex::CompactView(std::vector<size_t>* live_ids_out) const {
  GbdaIndex dense;
  dense.options_ = options_;
  dense.num_vertex_labels_ = num_vertex_labels_;
  dense.num_edge_labels_ = num_edge_labels_;
  dense.vertex_sum_ = vertex_sum_;
  dense.num_live_ = num_live_;
  dense.gbd_staleness_ = gbd_staleness_;
  dense.gbd_prior_ = gbd_prior_;
  dense.ged_prior_ = ged_prior_;
  dense.costs_ = costs_;
  dense.branches_.reserve(num_live_);
  if (live_ids_out) {
    live_ids_out->clear();
    live_ids_out->reserve(num_live_);
  }
  for (size_t id = 0; id < branches_.size(); ++id) {
    if (!branches_[id]) continue;
    dense.branches_.push_back(branches_[id]);
    if (live_ids_out) live_ids_out->push_back(id);
  }
  return dense;
}

Status ValidatePersistedIndexHeader(const GbdaIndexOptions& options,
                                    int64_t num_vertex_labels,
                                    int64_t num_edge_labels,
                                    double avg_vertices) {
  if (options.tau_max < 0 || options.tau_max > kMaxPlausibleTau) {
    return Status::InvalidArgument("implausible tau_max");
  }
  // Bounded like tau_max: the field feeds a later RefitGbdPrior, and an
  // absurd pair budget would make the fit enumerate every corpus pair.
  if (options.gbd_prior.num_sample_pairs > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("implausible sample pairs");
  }
  const GmmFitOptions& gmm = options.gbd_prior.gmm;
  if (!std::isfinite(options.gbd_prior.probability_floor) ||
      options.gbd_prior.probability_floor < 0.0 || gmm.num_components < 1 ||
      gmm.num_components > kMaxPlausibleComponents || gmm.max_iterations < 1 ||
      gmm.max_iterations > kMaxPlausibleIterations ||
      !std::isfinite(gmm.tolerance) || gmm.tolerance < 0.0 ||
      !std::isfinite(gmm.stddev_floor) || gmm.stddev_floor <= 0.0) {
    return Status::InvalidArgument("implausible prior options");
  }
  if (num_vertex_labels < 1 || num_vertex_labels > kMaxPlausibleLabels ||
      num_edge_labels < 1 || num_edge_labels > kMaxPlausibleLabels) {
    return Status::InvalidArgument("implausible label universe");
  }
  if (!std::isfinite(avg_vertices) || avg_vertices < 0.0) {
    return Status::InvalidArgument("implausible avg_vertices");
  }
  return Status::OK();
}

Status ValidateIndexForDatabase(const GraphDatabase& db,
                                const IndexReader& index) {
  if (index.num_graphs() != db.size()) {
    return Status::FailedPrecondition(
        "index/database mismatch: index covers " +
        std::to_string(index.num_graphs()) + " graphs, database holds " +
        std::to_string(db.size()) +
        " (stale index artifact? rebuild or reload the matching generation)");
  }
  // The frozen consumers behind this check (GbdaSearch, GbdaService) scan
  // every slot; a tombstoned pair — even a mutually consistent one — would
  // evaluate retired slots as empty multisets and could return removed
  // graphs as matches. Mutable corpora go through DynamicGbdaService.
  if (db.has_tombstones() || index.num_live() != index.num_graphs()) {
    return Status::FailedPrecondition(
        "index/database pair is tombstoned: frozen-world consumers cannot "
        "serve a mutated corpus — use DynamicGbdaService");
  }
  for (size_t id = 0; id < db.size(); ++id) {
    if (index.branch_set(id).size() != db.graph(id).num_vertices()) {
      return Status::FailedPrecondition(
          "index/database mismatch: branch multiset of graph " +
          std::to_string(id) + " does not match the stored graph");
    }
  }
  return Status::OK();
}

}  // namespace gbda
