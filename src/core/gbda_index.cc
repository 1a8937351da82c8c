#include "core/gbda_index.h"

#include <algorithm>
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

/// The graphs of `columns` but the ascending positions `erased`, in order,
/// with room for `more_graphs` graphs holding `more_ids` ids after them.
OwnedCandidateColumns CopyExcept(const OwnedCandidateColumns& columns,
                                 const std::vector<size_t>& erased,
                                 size_t more_graphs, size_t more_ids) {
  const size_t num_graphs = columns.fp_offsets.size() - 1;
  size_t erased_ids = 0;
  for (size_t p : erased) {
    erased_ids += columns.fp_offsets[p + 1] - columns.fp_offsets[p];
  }
  OwnedCandidateColumns out;
  out.fp_offsets.reserve(num_graphs - erased.size() + more_graphs + 1);
  out.fp_offsets.push_back(0);
  out.fp_keys.reserve(columns.fp_keys.size() - erased_ids + more_ids);
  auto next_erased = erased.begin();
  for (size_t g = 0; g < num_graphs; ++g) {
    if (next_erased != erased.end() && *next_erased == g) {
      ++next_erased;
      continue;
    }
    out.fp_keys.insert(
        out.fp_keys.end(),
        columns.fp_keys.begin() + static_cast<ptrdiff_t>(columns.fp_offsets[g]),
        columns.fp_keys.begin() +
            static_cast<ptrdiff_t>(columns.fp_offsets[g + 1]));
    out.fp_offsets.push_back(out.fp_keys.size());
  }
  return out;
}

}  // namespace

Result<GbdaIndex> GbdaIndex::Build(const GraphDatabase& db,
                                   const GbdaIndexOptions& options) {
  if (db.empty()) return Status::InvalidArgument("index build: empty database");
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

  // Branches (the auxiliary structure of Section III), interned in corpus
  // order straight into the candidate columns, then renumbered in content
  // order. A graph's multiset is sorted by content, so its renumbered ids
  // come out ascending. A graph has one branch per vertex.
  WallTimer timer;
  size_t total_branches = 0;
  for (size_t i = 0; i < db.size(); ++i) {
    total_branches += db.graph(i).num_vertices();
  }
  OwnedCandidateColumns columns;
  columns.fp_offsets.push_back(0);
  columns.fp_keys.reserve(total_branches);
  BranchDictionary first_seen;
  for (size_t i = 0; i < db.size(); ++i) {
    const BranchMultiset branches = ExtractBranches(db.graph(i));
    const BranchSetRef set = branches;
    for (size_t b = 0; b < set.size(); ++b) {
      columns.fp_keys.push_back(
          first_seen.Intern(set.root(b), set.edge_labels(b)));
    }
    columns.fp_offsets.push_back(columns.fp_keys.size());
  }
  index.dictionary_ = std::make_shared<const BranchDictionary>(
      first_seen.Renumbered(columns.fp_offsets, &columns.fp_keys));
  index.columns_ =
      std::make_shared<const OwnedCandidateColumns>(std::move(columns));
  index.costs_.branch_seconds = timer.Seconds();

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

void GbdaIndex::AddGraphs(Span<const Graph> graphs) {
  size_t added_branches = 0;
  for (const Graph& g : graphs) added_branches += g.num_vertices();
  OwnedCandidateColumns next =
      CopyExcept(*columns_, {}, graphs.size(), added_branches);
  // This call's private copy of the dictionary, made at the first unseen
  // branch: copies of the index taken before the call keep theirs.
  std::shared_ptr<BranchDictionary> grown;
  for (const Graph& g : graphs) {
    const BranchMultiset branches = ExtractBranches(g);
    const BranchSetRef set = branches;
    const size_t first = next.fp_keys.size();
    for (size_t b = 0; b < set.size(); ++b) {
      uint64_t id = dictionary_->Find(set.root(b), set.edge_labels(b));
      if (id == dictionary_->size()) {
        if (grown == nullptr) {
          grown = std::make_shared<BranchDictionary>(*dictionary_);
          dictionary_ = grown;
        }
        id = grown->Intern(set.root(b), set.edge_labels(b));
      }
      next.fp_keys.push_back(id);
    }
    // Appended ids are not in content order.
    std::sort(next.fp_keys.begin() + static_cast<ptrdiff_t>(first),
              next.fp_keys.end());
    next.fp_offsets.push_back(next.fp_keys.size());
    ++gbd_staleness_;
  }
  columns_ = std::make_shared<const OwnedCandidateColumns>(std::move(next));
}

Status GbdaIndex::RemoveGraphs(const std::vector<size_t>& positions) {
  std::vector<size_t> sorted = positions;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= num_graphs()) {
      return Status::InvalidArgument(
          "index RemoveGraphs: position out of range: " +
          std::to_string(sorted[i]));
    }
    if (i > 0 && sorted[i - 1] == sorted[i]) {
      return Status::InvalidArgument("index RemoveGraphs: repeated position: " +
                                     std::to_string(sorted[i]));
    }
  }
  OwnedCandidateColumns next = CopyExcept(*columns_, sorted, 0, 0);
  // The erased graphs' branches stay in the dictionary as dead entries.
  // Once fewer than half of its entries are held, the held ones are
  // renumbered into a fresh dictionary, as Build does; copies taken
  // earlier keep the old object.
  std::vector<uint8_t> held(dictionary_->size(), 0);
  for (uint64_t id : next.fp_keys) held[id] = 1;
  if (2 * static_cast<size_t>(std::count(held.begin(), held.end(), 1)) <
      dictionary_->size()) {
    dictionary_ = std::make_shared<const BranchDictionary>(
        dictionary_->Renumbered(next.fp_offsets, &next.fp_keys));
  }
  columns_ = std::make_shared<const OwnedCandidateColumns>(std::move(next));
  gbd_staleness_ += sorted.size();
  return Status::OK();
}

Status GbdaIndex::RefitGbdPrior() {
  const OwnedCandidateColumns& columns = *columns_;
  std::vector<Span<const uint64_t>> graphs;
  graphs.reserve(num_graphs());
  for (size_t g = 0; g < num_graphs(); ++g) {
    graphs.emplace_back(columns.fp_keys.data() + columns.fp_offsets[g],
                        columns.fp_offsets[g + 1] - columns.fp_offsets[g]);
  }
  Rng rng(options_.seed);
  Result<GbdPrior> prior = GbdPrior::Fit(graphs, options_.gbd_prior, &rng);
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
  const uint64_t* offsets = index.columns().fp_offsets;
  for (size_t id = 0; id < db.size(); ++id) {
    if (offsets[id + 1] - offsets[id] != db.graph(id).num_vertices()) {
      return Status::FailedPrecondition(
          "index/database mismatch: branch multiset of graph " +
          std::to_string(id) + " does not match the stored graph");
    }
  }
  return Status::OK();
}

}  // namespace gbda
