/// \file gbda_index.h
/// The offline stage of GBDA (Step 1* of Algorithm 1), run once per
/// database and shared by any number of online searches. GbdaIndex stores
/// the three precomputed artifacts the online stage consumes: every
/// database graph's branches (Section III) as the ascending ids of a branch
/// dictionary (core/branch_dictionary.h), the GMM prior of GBD values
/// Lambda2 (Section V-B), and the Jeffreys prior of GED values Lambda3
/// (Section V-C). It also records the offline time/space costs reported in
/// Tables IV-V. Persistence lives in the storage engine: the v4 arena
/// (storage/index_arena.h) is the one artifact format, written by
/// WriteArenaFile and served in place by GbdaIndexView.
///
/// Beyond the paper's frozen-database stage, the index supports incremental
/// maintenance for a corpus that changes under live traffic
/// (docs/ARCHITECTURE.md, "Dynamic corpus"): AddGraphs appends graphs,
/// giving each branch the dictionary has not seen the next id, RemoveGraphs
/// erases positions and keeps the order of the rest, the GED prior extends
/// lazily to unseen sizes as it always has, and the GMM prior Lambda2
/// tracks a staleness counter so a caller can re-fit it (RefitGbdPrior)
/// once drift exceeds its policy threshold. The index is always dense.
/// Every mutation lays out the next candidate columns itself, and every
/// artifact is held through shared_ptr, so a copy is a few pointer copies —
/// the snapshot primitive of DynamicGbdaService, which alone maps
/// positions to stable ids.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/branch_dictionary.h"
#include "core/candidate_columns.h"
#include "core/gbd_prior.h"
#include "core/ged_prior.h"
#include "core/index_reader.h"
#include "graph/graph_database.h"

namespace gbda {

/// Options for the offline stage (Step 1* of Algorithm 1).
struct GbdaIndexOptions {
  /// Largest similarity threshold the online stage will be asked for. The
  /// GED prior covers tau in [0, tau_max].
  int64_t tau_max = 10;
  GbdPriorOptions gbd_prior;
  /// Optional overrides for the label-universe sizes |L_V| / |L_E| used by
  /// the model (Eq. 33). 0 derives them from the database dictionaries.
  /// Useful when a database file only records the labels that occur but the
  /// universe is known to be larger.
  int64_t model_vertex_labels = 0;
  int64_t model_edge_labels = 0;
  /// When true the GED prior is precomputed for every v in [1, MaxVertices]
  /// as the paper describes; otherwise only sizes present in the database are
  /// warmed and unseen sizes are built lazily at query time.
  bool eager_all_sizes = false;
  uint64_t seed = 1234;
};

/// Wall-clock and memory cost of the offline stage, the measurements reported
/// in Tables IV and V.
struct OfflineCosts {
  double branch_seconds = 0.0;
  double gbd_prior_seconds = 0.0;
  double ged_prior_seconds = 0.0;
  size_t gbd_prior_bytes = 0;
  size_t ged_prior_bytes = 0;
  size_t pairs_sampled = 0;
};

/// The offline artifact of GBDA: every database graph's branch ids
/// (Section III requires the branches stored with the graphs) over one
/// branch dictionary, the GMM prior of GBDs (Lambda2) and the Jeffreys
/// prior of GEDs (Lambda3). Built once per database, then shared by any
/// number of online searches.
///
/// Copying an index is cheap and shallow: the candidate columns, the
/// dictionary and both priors are immutable (or internally synchronized)
/// shared artifacts. A mutation replaces what it changes instead of
/// writing to it, so the index takes no lock of its own.
///
/// GbdaIndex is the owning implementation of the IndexReader scan contract;
/// the zero-copy GbdaIndexView (storage/index_view.h) is the other.
class GbdaIndex : public IndexReader {
 public:
  /// Runs the offline stage over `db`. The index copies what it needs, so
  /// it borrows nothing from `db`. The dictionary numbers the distinct
  /// branches in content order, so each graph's ids follow its multiset
  /// order and the columns equal those of the artifact BuildArena writes.
  static Result<GbdaIndex> Build(const GraphDatabase& db,
                                 const GbdaIndexOptions& options);

  /// One more column offset than graphs, so never 0 - 1.
  size_t num_graphs() const override {
    return columns_->fp_offsets.size() - 1;
  }

  /// The SoA candidate columns, the index's only store of branch ids. A
  /// lock-free view: Build lays the columns out, and AddGraphs /
  /// RemoveGraphs each lay out a fresh object in place of the old one, so
  /// the pointers stay the same until this index next mutates, and copies
  /// taken earlier (snapshots) keep reading their own.
  CandidateColumns columns() const override { return columns_->View(); }

  const BranchDictionary& dictionary() const override { return *dictionary_; }

  const GbdPrior& gbd_prior() const override { return *gbd_prior_; }
  GedPriorTable& ged_prior() { return *ged_prior_; }
  const GedPriorTable& ged_prior() const { return *ged_prior_; }
  GedPriorTable* mutable_ged_prior() const override {
    return ged_prior_.get();
  }

  int64_t tau_max() const override { return options_.tau_max; }
  int64_t num_vertex_labels() const override { return num_vertex_labels_; }
  int64_t num_edge_labels() const override { return num_edge_labels_; }

  /// Mean vertex count over the indexed graphs (used by the GBDA-V1
  /// variant). A graph has one branch per vertex, so the vertex total is
  /// the last column offset, an exact integer.
  double avg_vertices() const override {
    return num_graphs() == 0
               ? 0.0
               : static_cast<double>(columns_->fp_offsets.back()) /
                     static_cast<double>(num_graphs());
  }

  const OfflineCosts& costs() const { return costs_; }
  const GbdaIndexOptions& options() const override { return options_; }

  // -- Incremental maintenance (docs/ARCHITECTURE.md, "Dynamic corpus") ----

  /// Appends the graphs in order (the last lands at num_graphs() - 1).
  /// Branch extraction and lookups touch only the new graphs
  /// (O(|g| log |g|) each); laying out the next columns copies the current
  /// ids once. A branch the dictionary lacks gets the next id; the first
  /// one a call meets copies the dictionary before appending, so copies of
  /// this index taken earlier keep reading theirs unchanged. Lambda2 is NOT
  /// refit; the staleness counter advances once per graph.
  void AddGraphs(Span<const Graph> graphs);

  /// Erases the graphs at the given positions; the remaining graphs keep
  /// their relative order, so later positions shift down. Fails
  /// (InvalidArgument) without modifying anything when a position is out of
  /// range or repeated. The dictionary keeps the erased graphs' branches
  /// until fewer than half of its entries are held by some graph; then it
  /// is replaced by the held entries renumbered (BranchDictionary::
  /// Renumbered), so churn cannot grow it without bound. Lambda2 is NOT
  /// refit; the staleness counter advances by the number of graphs erased.
  Status RemoveGraphs(const std::vector<size_t>& positions);

  /// Mutations (adds + removes) since Lambda2 was last fit.
  size_t gbd_staleness() const override { return gbd_staleness_; }
  /// Staleness relative to the corpus size — the drift measure of the
  /// refit policy (DynamicServiceOptions::gbd_refit_fraction).
  double GbdStalenessFraction() const {
    return num_graphs() == 0 ? 0.0
                             : static_cast<double>(gbd_staleness_) /
                                   static_cast<double>(num_graphs());
  }

  /// Re-fits Lambda2 over the graphs' branch ids with this index's seed and
  /// sampling options — the exact arithmetic Build would run over a fresh
  /// database holding these graphs in this order, so a refit index is
  /// bit-identical to a from-scratch rebuild. Needs >= 2 graphs.
  Status RefitGbdPrior();

  /// Updates the model label-universe sizes |L_V| / |L_E| (Eq. 33), e.g.
  /// after new graphs introduced unseen labels. On change the GED prior
  /// table is replaced (rows rebuild lazily under the new universe).
  void RefreshModelLabels(int64_t num_vertex_labels, int64_t num_edge_labels);

 private:
  GbdaIndex() = default;

  GbdaIndexOptions options_;
  int64_t num_vertex_labels_ = 1;
  int64_t num_edge_labels_ = 1;
  size_t gbd_staleness_ = 0;
  /// Every graph's branch ids, ascending per graph (see columns()).
  /// Immutable once laid out: a mutation swaps in a fresh object.
  std::shared_ptr<const OwnedCandidateColumns> columns_;
  std::shared_ptr<const BranchDictionary> dictionary_;
  std::shared_ptr<const GbdPrior> gbd_prior_;
  std::shared_ptr<GedPriorTable> ged_prior_;
  OfflineCosts costs_;
};

/// The construction-time agreement check of every (database, index) consumer
/// (GbdaSearch, GbdaService, DynamicGbdaService): graph counts, and each
/// graph's branch count (its columns().fp_offsets delta) against its vertex
/// count. An index built over a different database generation — e.g. a
/// stale persisted artifact — would otherwise drive out-of-bounds prefilter
/// lookups during scans. Accepts any IndexReader, so a mapped v4 artifact is
/// checked the same way as an owned index.
Status ValidateIndexForDatabase(const GraphDatabase& db,
                                const IndexReader& index);

/// Plausibility validation of persisted index header fields, run by the v4
/// arena header parser (storage/index_arena.cc, ParseArenaHeader). A hostile
/// artifact can claim any value; these bounds only need to admit every
/// index this library can build.
Status ValidatePersistedIndexHeader(const GbdaIndexOptions& options,
                                    int64_t num_vertex_labels,
                                    int64_t num_edge_labels,
                                    double avg_vertices);

}  // namespace gbda
