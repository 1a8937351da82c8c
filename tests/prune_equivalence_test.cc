// The bound-pruning contract (docs/ARCHITECTURE.md, "Bound pruning"): a
// pruned scan — threshold or top-k; serial GbdaSearch, sharded GbdaService,
// the dynamic snapshot path and a mapped GbdaIndexView — is bit-identical to
// the exhaustive scan (early_termination = false): ids, exact phi doubles,
// GBDs, ordering including every tie at the bound, and the deterministic
// counters (candidates_evaluated, prefiltered_out). pruned_by_bound is not
// part of that comparison: on ranking scans it is timing-dependent under
// sharding. It must still add up with verified_count to
// candidates_evaluated, and on threshold scans, whose gamma floor never
// moves, it must be equal on every path and under both kernel dispatches.
// Ranking axes: variants x prefilter x shards {1, 2, 7} x k in {1, 10,
// corpus, > corpus}. Threshold axes: variants x prefilter x tau_hat
// {0, 2, 5, 10} x gamma {-0.5, 0, denorm_min, 0.9, a Phi the corpus attains
// exactly, 1e300} x scalar/AVX2 dispatch. The serving paths arm the prefix
// filter on the threshold grid (ArmPrefixFilter) and must still match; a
// guard requires skipped candidates wherever a query arms, so the grid
// cannot pass without the prefix. GBDA-V2 weights: a non-finite one is
// rejected, and huge or negative finite ones prune exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/kernels.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "core/posterior.h"
#include "core/prefilter.h"
#include "datagen/dataset_profiles.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

void ExpectSameResult(const SearchResult& exhaustive,
                      const SearchResult& pruned, const std::string& label) {
  ASSERT_EQ(exhaustive.matches.size(), pruned.matches.size()) << label;
  for (size_t i = 0; i < exhaustive.matches.size(); ++i) {
    EXPECT_EQ(exhaustive.matches[i].graph_id, pruned.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(exhaustive.matches[i].phi_score, pruned.matches[i].phi_score)
        << label << " match " << i;
    EXPECT_EQ(exhaustive.matches[i].gbd, pruned.matches[i].gbd)
        << label << " match " << i;
  }
  EXPECT_EQ(exhaustive.candidates_evaluated, pruned.candidates_evaluated)
      << label;
  EXPECT_EQ(exhaustive.prefiltered_out, pruned.prefiltered_out) << label;
  // pruned_by_bound is intentionally NOT compared (see the file comment);
  // the exhaustive reference must report none, and each side's skipped and
  // scored candidates must add up to the admitted ones.
  EXPECT_EQ(exhaustive.pruned_by_bound, 0u) << label;
  EXPECT_EQ(exhaustive.verified_count, exhaustive.candidates_evaluated)
      << label;
  EXPECT_EQ(pruned.verified_count,
            pruned.candidates_evaluated - pruned.pruned_by_bound)
      << label;
}

constexpr GbdaVariant kVariants[] = {GbdaVariant::kStandard,
                                     GbdaVariant::kAverageSize,
                                     GbdaVariant::kWeightedGbd};

class PruneEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The size-laddered AIDS profile exercises both pruning tiers: the
    // O(1) size tier across rungs and the id-intersection tier within a
    // rung.
    DatasetProfile profile = AidsProfile(0.04);
    profile.seed = 77;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 1500;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    const std::string path = ::testing::TempDir() + "/prune_equivalence.v4";
    ASSERT_TRUE(WriteArenaFile(*index_, path).ok());
    Result<GbdaIndexView> view = GbdaIndexView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    view_ = new GbdaIndexView(std::move(*view));
  }
  static void TearDownTestSuite() {
    delete serial_threshold_pruned_;
    delete threshold_refs_;
    delete view_;
    delete index_;
    delete dataset_;
    serial_threshold_pruned_ = nullptr;
    threshold_refs_ = nullptr;
    view_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static std::vector<size_t> TestKs(size_t corpus) {
    return {1, 10, corpus, corpus + 7};
  }

  // -- Threshold axis --------------------------------------------------------

  /// One threshold path under test: answers every dataset query, in order,
  /// under `options`.
  using ThresholdRunner =
      std::function<Result<std::vector<SearchResult>>(const SearchOptions&)>;

  /// The exhaustive serial answers of one (variant, prefilter, tau_hat)
  /// cell: the gammas it sweeps and, per gamma, one answer per query.
  struct ThresholdCell {
    std::vector<double> gammas;
    double tie_gamma = 0.0;  // the attained Phi among `gammas`, 0 if none
    std::vector<std::vector<SearchResult>> answers;  // [gamma][query]
  };
  using CellKey = std::tuple<GbdaVariant, bool, int64_t>;

  static SearchOptions ThresholdOptions(const CellKey& key, double gamma) {
    SearchOptions options;
    options.variant = std::get<0>(key);
    options.use_prefilter = std::get<1>(key);
    options.tau_hat = std::get<2>(key);
    options.gamma = gamma;
    return options;
  }

  static Result<std::vector<SearchResult>> SerialAnswers(
      GbdaSearch* search, const SearchOptions& options) {
    std::vector<SearchResult> out;
    for (const Graph& query : dataset_->queries) {
      Result<SearchResult> r = search->Query(query, options);
      if (!r.ok()) return r.status();
      out.push_back(std::move(*r));
    }
    return out;
  }

  /// Every cell of the threshold grid with its exhaustive serial answers,
  /// computed once. The attained gamma is the median distinct positive Phi
  /// of the cell's gamma = 0 answers (every admitted candidate is a match
  /// there), so candidates score both above and exactly at it.
  static const std::map<CellKey, ThresholdCell>& ThresholdRefs() {
    if (threshold_refs_ != nullptr) return *threshold_refs_;
    threshold_refs_ = new std::map<CellKey, ThresholdCell>();
    GbdaSearch search(&dataset_->db, index_);
    for (GbdaVariant variant : kVariants) {
      for (bool prefilter : {false, true}) {
        for (int64_t tau : {int64_t{0}, int64_t{2}, int64_t{5}, int64_t{10}}) {
          const CellKey key{variant, prefilter, tau};
          SearchOptions exhaustive = ThresholdOptions(key, 0.0);
          exhaustive.early_termination = false;
          Result<std::vector<SearchResult>> all =
              SerialAnswers(&search, exhaustive);
          EXPECT_TRUE(all.ok()) << all.status().ToString();
          if (!all.ok()) continue;
          std::vector<double> attained;
          for (const SearchResult& r : *all) {
            for (const SearchMatch& m : r.matches) {
              if (m.phi_score > 0.0) attained.push_back(m.phi_score);
            }
          }
          std::sort(attained.begin(), attained.end());
          attained.erase(std::unique(attained.begin(), attained.end()),
                         attained.end());
          ThresholdCell cell;
          cell.tie_gamma =
              attained.empty() ? 0.0 : attained[attained.size() / 2];
          cell.gammas = {-0.5,
                         0.0,
                         std::numeric_limits<double>::denorm_min(),
                         0.9,
                         cell.tie_gamma,
                         1e300};
          for (double gamma : cell.gammas) {
            exhaustive.gamma = gamma;
            Result<std::vector<SearchResult>> answers =
                SerialAnswers(&search, exhaustive);
            EXPECT_TRUE(answers.ok()) << answers.status().ToString();
            if (!answers.ok()) break;
            cell.answers.push_back(std::move(*answers));
          }
          threshold_refs_->emplace(key, std::move(cell));
        }
      }
    }
    return *threshold_refs_;
  }

  /// Runs the whole threshold grid, pruned, under both kernel dispatches
  /// through `run` and checks each answer against the exhaustive serial
  /// one. Returns every answer's pruned_by_bound in grid order, for the
  /// cross-path comparison.
  ///
  /// `arms` says whether the path arms the prefix filter (the serving
  /// paths do, the serial GbdaSearch does not). There, every cell in which
  /// some query arms (PrefixFilterApplies) must report skipped candidates,
  /// so the grid cannot pass without exercising the prefix; a query that
  /// does not arm, on any path, skips none.
  static std::vector<size_t> CheckThresholdPath(const std::string& path,
                                                bool arms,
                                                const ThresholdRunner& run) {
    std::vector<size_t> pruned_counts;
    for (const auto& [key, cell] : ThresholdRefs()) {
      for (size_t g = 0; g < cell.answers.size(); ++g) {
        for (KernelDispatch dispatch :
             {KernelDispatch::kForceScalar, KernelDispatch::kForceAvx2}) {
          SearchOptions pruned = ThresholdOptions(key, cell.gammas[g]);
          pruned.kernel_dispatch = dispatch;
          const std::string label =
              path + " variant=" +
              std::to_string(static_cast<int>(std::get<0>(key))) +
              " prefilter=" + std::to_string(std::get<1>(key)) +
              " tau=" + std::to_string(std::get<2>(key)) +
              " gamma=" + std::to_string(cell.gammas[g]) + " dispatch=" +
              std::to_string(static_cast<int>(dispatch));
          Result<std::vector<SearchResult>> got = run(pruned);
          EXPECT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          if (!got.ok()) continue;
          EXPECT_EQ(got->size(), cell.answers[g].size()) << label;
          size_t arming_queries = 0;
          size_t skipped = 0;
          for (size_t q = 0; q < got->size() && q < cell.answers[g].size();
               ++q) {
            const std::string query_label =
                label + " query=" + std::to_string(q);
            const SearchResult& answer = (*got)[q];
            ExpectSameResult(cell.answers[g][q], answer, query_label);
            pruned_counts.push_back(answer.pruned_by_bound);
            Result<ScanContext> ctx =
                PrepareScan(dataset_->queries[q], pruned, true, *index_);
            EXPECT_TRUE(ctx.ok()) << query_label;
            const bool query_arms =
                arms && ctx.ok() && PrefixFilterApplies(*ctx);
            arming_queries += query_arms;
            skipped += answer.skipped_by_prefix;
            EXPECT_LE(answer.skipped_by_prefix, answer.pruned_by_bound)
                << query_label;
            if (!query_arms) {
              EXPECT_EQ(answer.skipped_by_prefix, 0u) << query_label;
            }
          }
          if (arming_queries > 0) {
            EXPECT_GT(skipped, 0u) << label;
          }
        }
      }
    }
    return pruned_counts;
  }

  /// The serial path's pruned_by_bound per grid answer, the reference every
  /// other path must reproduce (computed once).
  static const std::vector<size_t>& SerialThresholdPruned() {
    if (serial_threshold_pruned_ == nullptr) {
      GbdaSearch search(&dataset_->db, index_);
      serial_threshold_pruned_ = new std::vector<size_t>(CheckThresholdPath(
          "serial", /*arms=*/false, [&search](const SearchOptions& options) {
            return SerialAnswers(&search, options);
          }));
    }
    return *serial_threshold_pruned_;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static GbdaIndexView* view_;
  static std::map<CellKey, ThresholdCell>* threshold_refs_;
  static std::vector<size_t>* serial_threshold_pruned_;
};

GeneratedDataset* PruneEquivalenceTest::dataset_ = nullptr;
GbdaIndex* PruneEquivalenceTest::index_ = nullptr;
GbdaIndexView* PruneEquivalenceTest::view_ = nullptr;
std::map<PruneEquivalenceTest::CellKey, PruneEquivalenceTest::ThresholdCell>*
    PruneEquivalenceTest::threshold_refs_ = nullptr;
std::vector<size_t>* PruneEquivalenceTest::serial_threshold_pruned_ = nullptr;

TEST_F(PruneEquivalenceTest, SerialPrunedMatchesSerialExhaustive) {
  GbdaSearch search(&dataset_->db, index_);
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 4);
  for (GbdaVariant variant : kVariants) {
    for (bool prefilter : {false, true}) {
      SearchOptions exhaustive;
      exhaustive.tau_hat = 6;
      exhaustive.variant = variant;
      exhaustive.use_prefilter = prefilter;
      exhaustive.early_termination = false;
      SearchOptions pruned = exhaustive;
      pruned.early_termination = true;
      for (size_t k : TestKs(dataset_->db.size())) {
        for (size_t q = 0; q < num_queries; ++q) {
          const std::string label =
              "variant=" + std::to_string(static_cast<int>(variant)) +
              " prefilter=" + std::to_string(prefilter) +
              " k=" + std::to_string(k) + " query=" + std::to_string(q);
          Result<SearchResult> a =
              search.QueryTopK(dataset_->queries[q], k, exhaustive);
          Result<SearchResult> b =
              search.QueryTopK(dataset_->queries[q], k, pruned);
          ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
          ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
          ExpectSameResult(*a, *b, label);
        }
      }
    }
  }
}

TEST_F(PruneEquivalenceTest, ShardedPrunedMatchesSerialExhaustive) {
  GbdaSearch exhaustive_serial(&dataset_->db, index_);
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 3);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions service_options;
    service_options.num_threads = 3;
    service_options.num_shards = shards;
    GbdaService service(&dataset_->db, index_, service_options);
    for (GbdaVariant variant : kVariants) {
      for (bool prefilter : {false, true}) {
        SearchOptions exhaustive;
        exhaustive.tau_hat = 6;
        exhaustive.variant = variant;
        exhaustive.use_prefilter = prefilter;
        exhaustive.early_termination = false;
        SearchOptions pruned = exhaustive;
        pruned.early_termination = true;
        for (size_t k : TestKs(dataset_->db.size())) {
          for (size_t q = 0; q < num_queries; ++q) {
            const std::string label =
                "shards=" + std::to_string(shards) + " variant=" +
                std::to_string(static_cast<int>(variant)) + " prefilter=" +
                std::to_string(prefilter) + " k=" + std::to_string(k) +
                " query=" + std::to_string(q);
            Result<SearchResult> reference = exhaustive_serial.QueryTopK(
                dataset_->queries[q], k, exhaustive);
            Result<SearchResult> got =
                service.QueryTopK(dataset_->queries[q], k, pruned);
            ASSERT_TRUE(reference.ok()) << label;
            ASSERT_TRUE(got.ok()) << label;
            ExpectSameResult(*reference, *got, label);
          }
        }
      }
    }
  }
}

TEST_F(PruneEquivalenceTest, BatchedTopKMatchesPerQueryResults) {
  ServiceOptions service_options;
  service_options.num_threads = 3;
  service_options.num_shards = 7;
  GbdaService service(&dataset_->db, index_, service_options);
  SearchOptions exhaustive;
  exhaustive.tau_hat = 6;
  exhaustive.early_termination = false;
  SearchOptions pruned = exhaustive;
  pruned.early_termination = true;
  for (size_t k : TestKs(dataset_->db.size())) {
    Result<std::vector<SearchResult>> batch =
        service.QueryTopKBatch(dataset_->queries, k, pruned);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), dataset_->queries.size());
    for (size_t q = 0; q < dataset_->queries.size(); ++q) {
      Result<SearchResult> reference =
          service.QueryTopK(dataset_->queries[q], k, exhaustive);
      ASSERT_TRUE(reference.ok());
      ExpectSameResult(*reference, (*batch)[q],
                       "k=" + std::to_string(k) + " batch query " +
                           std::to_string(q));
    }
  }
}

TEST_F(PruneEquivalenceTest, DynamicSnapshotPrunedMatchesExhaustive) {
  // Snapshot indexes carry candidate columns, so the dynamic path's pruned
  // scans take the id-intersection tier even with use_prefilter off.
  GbdaIndexOptions index_options;
  index_options.tau_max = 10;
  index_options.gbd_prior.num_sample_pairs = 1500;
  DynamicServiceOptions dyn_options;
  dyn_options.service.num_threads = 2;
  dyn_options.service.num_shards = 7;
  GraphDatabase db_copy = dataset_->db;
  Result<std::unique_ptr<DynamicGbdaService>> dyn = DynamicGbdaService::Create(
      std::move(db_copy), index_options, dyn_options);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  SearchOptions exhaustive;
  exhaustive.tau_hat = 6;
  exhaustive.early_termination = false;
  SearchOptions pruned = exhaustive;
  pruned.early_termination = true;
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 4);
  for (size_t k : TestKs(dataset_->db.size())) {
    for (size_t q = 0; q < num_queries; ++q) {
      const std::string label =
          "dynamic k=" + std::to_string(k) + " query=" + std::to_string(q);
      Result<SearchResult> a =
          (*dyn)->QueryTopK(dataset_->queries[q], k, exhaustive);
      Result<SearchResult> b =
          (*dyn)->QueryTopK(dataset_->queries[q], k, pruned);
      ASSERT_TRUE(a.ok()) << label;
      ASSERT_TRUE(b.ok()) << label;
      ExpectSameResult(*a, *b, label);
    }
    Result<std::vector<SearchResult>> batch =
        (*dyn)->QueryTopKBatch(dataset_->queries, k, pruned);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), dataset_->queries.size());
    for (size_t q = 0; q < num_queries; ++q) {
      Result<SearchResult> reference =
          (*dyn)->QueryTopK(dataset_->queries[q], k, exhaustive);
      ASSERT_TRUE(reference.ok());
      ExpectSameResult(*reference, (*batch)[q],
                       "dynamic batch k=" + std::to_string(k) + " query " +
                           std::to_string(q));
    }
  }
}

TEST_F(PruneEquivalenceTest, PrunedScansActuallyPrune) {
  // Guard against the suite silently passing because nothing was ever
  // pruned: at k = 1 the bound must fire on this size-laddered corpus.
  GbdaSearch search(&dataset_->db, index_);
  SearchOptions pruned;
  pruned.tau_hat = 6;
  Result<SearchResult> r = search.QueryTopK(dataset_->queries[0], 1, pruned);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->pruned_by_bound, 0u);
  EXPECT_LE(r->pruned_by_bound, r->candidates_evaluated);
}

TEST_F(PruneEquivalenceTest, RankingBoundsTheCandidateAfterTheHeapFills) {
  // k copies of the query, then graphs more than 2 * tau_hat vertices away
  // from it: once the k copies fill the heap, tier 1 proves every later
  // graph out (its GBD is past the Phi row's cap, so its Phi is +0.0 and
  // its GBD above the witnesses'). Only the copies are scored, however
  // few candidates follow them.
  const Graph& query = dataset_->queries[0];
  constexpr int64_t kTau = 2;
  constexpr size_t kK = 3;
  GraphDatabase db;
  db.vertex_labels() = dataset_->db.vertex_labels();
  db.edge_labels() = dataset_->db.edge_labels();
  for (size_t i = 0; i < kK; ++i) db.Add(query);
  const size_t q_size = query.num_vertices();
  for (size_t g = 0; g < dataset_->db.size() && db.size() < 12; ++g) {
    const size_t g_size = dataset_->db.graph(g).num_vertices();
    if (std::max(g_size, q_size) - std::min(g_size, q_size) >
        static_cast<size_t>(2 * kTau)) {
      db.Add(dataset_->db.graph(g));
    }
  }
  ASSERT_EQ(db.size(), 12u);
  GbdaIndexOptions index_options;
  index_options.tau_max = kTau;
  index_options.gbd_prior.num_sample_pairs = 50;
  Result<GbdaIndex> index = GbdaIndex::Build(db, index_options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  SearchOptions pruned;
  pruned.tau_hat = kTau;
  SearchOptions exhaustive = pruned;
  exhaustive.early_termination = false;
  GbdaSearch search(&db, &*index);
  Result<SearchResult> want = search.QueryTopK(query, kK, exhaustive);
  Result<SearchResult> got = search.QueryTopK(query, kK, pruned);
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameResult(*want, *got, "serial");
  EXPECT_EQ(got->verified_count, kK);
  EXPECT_EQ(got->pruned_by_bound, db.size() - kK);

  Result<ScanContext> ctx =
      PrepareScan(query, pruned, /*apply_gamma=*/false, *index);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  std::vector<uint32_t> ids(db.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  PosteriorEngine engine(index->num_vertex_labels(), index->num_edge_labels(),
                         index->tau_max(), index->mutable_ged_prior(),
                         &index->gbd_prior());
  ScanBounds bounds(kK);
  SearchResult listed;
  ASSERT_TRUE(ScanCandidateList(*ctx, *index, nullptr, ids, &engine, &listed,
                                &bounds)
                  .ok());
  SortTopK(&listed.matches, kK);
  ExpectSameResult(*want, listed, "listed");
  EXPECT_EQ(listed.verified_count, kK);
  EXPECT_EQ(listed.pruned_by_bound, db.size() - kK);
}

TEST_F(PruneEquivalenceTest, SerialThresholdPrunedMatchesExhaustive) {
  EXPECT_FALSE(SerialThresholdPruned().empty());
  // The attained-gamma case only tests the tie if some candidate scores
  // exactly gamma there, and it must then be kept (Step 4 accepts
  // Phi >= gamma; the bound skips only strictly below).
  size_t tie_cells = 0;
  for (const auto& [key, cell] : ThresholdRefs()) {
    if (cell.tie_gamma <= 0.0) continue;
    const auto g = static_cast<size_t>(
        std::find(cell.gammas.begin(), cell.gammas.end(), cell.tie_gamma) -
        cell.gammas.begin());
    ASSERT_LT(g, cell.answers.size());
    bool tie_kept = false;
    for (const SearchResult& r : cell.answers[g]) {
      for (const SearchMatch& m : r.matches) {
        tie_kept = tie_kept || m.phi_score == cell.tie_gamma;
      }
    }
    EXPECT_TRUE(tie_kept) << "tau=" << std::get<2>(key);
    ++tie_cells;
  }
  EXPECT_GT(tie_cells, 0u);
}

TEST_F(PruneEquivalenceTest, ShardedThresholdMatchesSerial) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions service_options;
    service_options.num_threads = 3;
    service_options.num_shards = shards;
    GbdaService service(&dataset_->db, index_, service_options);
    const std::vector<size_t> pruned = CheckThresholdPath(
        "shards=" + std::to_string(shards), /*arms=*/true,
        [&service](const SearchOptions& options) {
          return service.QueryBatch(dataset_->queries, options);
        });
    EXPECT_EQ(pruned, SerialThresholdPruned()) << "shards=" << shards;
  }
}

TEST_F(PruneEquivalenceTest, MappedViewThresholdMatchesSerial) {
  // The benchmark's threshold path: a service over a mapped v4 artifact.
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.num_shards = 2;
  GbdaService service(&dataset_->db, view_, service_options);
  const std::vector<size_t> pruned =
      CheckThresholdPath("mapped", /*arms=*/true,
                         [&service](const SearchOptions& options) {
                           return service.QueryBatch(dataset_->queries,
                                                     options);
                         });
  EXPECT_EQ(pruned, SerialThresholdPruned());
}

TEST_F(PruneEquivalenceTest, DynamicSnapshotThresholdMatchesSerial) {
  // A fresh dynamic service over the same corpus and index options serves
  // stable ids equal to the serial ids, with the same priors.
  GbdaIndexOptions index_options;
  index_options.tau_max = 10;
  index_options.gbd_prior.num_sample_pairs = 1500;
  DynamicServiceOptions dyn_options;
  dyn_options.service.num_threads = 2;
  dyn_options.service.num_shards = 7;
  GraphDatabase db_copy = dataset_->db;
  Result<std::unique_ptr<DynamicGbdaService>> dyn = DynamicGbdaService::Create(
      std::move(db_copy), index_options, dyn_options);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  const std::vector<size_t> pruned =
      CheckThresholdPath("dynamic", /*arms=*/true,
                         [&dyn](const SearchOptions& options) {
                           return (*dyn)->QueryBatch(dataset_->queries,
                                                     options);
                         });
  EXPECT_EQ(pruned, SerialThresholdPruned());
}

TEST_F(PruneEquivalenceTest, ThresholdScansActuallyPrune) {
  // Guard against the threshold grid passing because nothing was ever
  // pruned, and pin the floors that must never arm.
  GbdaSearch search(&dataset_->db, index_);
  SearchOptions options;
  options.tau_hat = 5;
  options.gamma = 0.9;
  size_t pruned = 0;
  for (const Graph& query : dataset_->queries) {
    Result<SearchResult> r = search.Query(query, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verified_count,
              r->candidates_evaluated - r->pruned_by_bound);
    pruned += r->pruned_by_bound;
  }
  EXPECT_GT(pruned, 0u);
  for (double gamma : {-0.5, 0.0, std::nan("")}) {
    options.gamma = gamma;
    Result<SearchResult> r = search.Query(dataset_->queries[0], options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->pruned_by_bound, 0u) << "gamma=" << gamma;
    EXPECT_EQ(r->verified_count, r->candidates_evaluated) << "gamma=" << gamma;
    if (std::isnan(gamma)) {
      EXPECT_TRUE(r->matches.empty());
    }
  }
}

TEST_F(PruneEquivalenceTest, NonFiniteV2WeightIsRejected) {
  // Stage C rounds max - w * common, which is NaN or infinite at a
  // non-finite w, where llround is unspecified: PrepareScan refuses the
  // weight on every path. The other variants never read it.
  GbdaSearch search(&dataset_->db, index_);
  GbdaService service(&dataset_->db, index_, ServiceOptions{2, 3, {}});
  const Graph& query = dataset_->queries[0];
  for (double w : {std::nan(""), std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    SearchOptions options;
    options.variant = GbdaVariant::kWeightedGbd;
    options.vgbd_w = w;
    const std::string label = "w=" + std::to_string(w);
    const auto expect_rejected = [&label](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
    };
    expect_rejected(search.Query(query, options).status());
    expect_rejected(search.QueryTopK(query, 10, options).status());
    expect_rejected(service.Query(query, options).status());
    expect_rejected(service.QueryTopK(query, 10, options).status());
    expect_rejected(service.QueryBatch(dataset_->queries, options).status());
    options.variant = GbdaVariant::kStandard;
    EXPECT_TRUE(search.Query(query, options).ok()) << label;
    EXPECT_TRUE(service.Query(query, options).ok()) << label;
  }
}

TEST_F(PruneEquivalenceTest, ExtremeFiniteV2WeightsPruneLikeExhaustive) {
  // A huge or negative finite weight drives max - w * common past the
  // int64 range. Stage C and the bound share one saturating rounding
  // (0 at or below zero, INT64_MAX from 2^63 up), so the pruned threshold
  // and top-10 answers equal the exhaustive ones, serially and sharded.
  GbdaSearch search(&dataset_->db, index_);
  GbdaService service(&dataset_->db, index_, ServiceOptions{2, 3, {}});
  for (double w : {-1e300, -2.0, 2.0, 1e300}) {
    for (int64_t tau : {int64_t{3}, int64_t{6}}) {
      SearchOptions exhaustive;
      exhaustive.variant = GbdaVariant::kWeightedGbd;
      exhaustive.vgbd_w = w;
      exhaustive.tau_hat = tau;
      exhaustive.gamma = 0.5;
      exhaustive.early_termination = false;
      SearchOptions pruned = exhaustive;
      pruned.early_termination = true;
      for (size_t q = 0; q < dataset_->queries.size(); ++q) {
        const Graph& query = dataset_->queries[q];
        char w_text[32];
        std::snprintf(w_text, sizeof w_text, "%g", w);
        const std::string label = std::string("w=") + w_text +
                                  " tau=" + std::to_string(tau) +
                                  " query=" + std::to_string(q);
        Result<SearchResult> want = search.Query(query, exhaustive);
        Result<SearchResult> serial = search.Query(query, pruned);
        Result<SearchResult> sharded = service.Query(query, pruned);
        ASSERT_TRUE(want.ok() && serial.ok() && sharded.ok()) << label;
        ExpectSameResult(*want, *serial, "threshold serial " + label);
        ExpectSameResult(*want, *sharded, "threshold sharded " + label);
        Result<SearchResult> want_top = search.QueryTopK(query, 10, exhaustive);
        Result<SearchResult> serial_top = search.QueryTopK(query, 10, pruned);
        Result<SearchResult> sharded_top = service.QueryTopK(query, 10, pruned);
        ASSERT_TRUE(want_top.ok() && serial_top.ok() && sharded_top.ok())
            << label;
        ExpectSameResult(*want_top, *serial_top, "top-10 serial " + label);
        ExpectSameResult(*want_top, *sharded_top, "top-10 sharded " + label);
      }
    }
  }
}

TEST_F(PruneEquivalenceTest, PhiRowBoundsPhiAndEndsSupport) {
  // The pruning bound's two analytic facts, checked against the engine's
  // rows: the suffix maximum majorizes Phi(v, phi) for every phi >= p, and
  // Phi is exactly zero past min(v, 2 * tau_hat) because every Lambda1
  // term of its sum is +0.0 there — so a row needs no entry past it.
  GedPriorTable* ged_prior = index_->mutable_ged_prior();
  PosteriorEngine engine(index_->num_vertex_labels(),
                         index_->num_edge_labels(), index_->tau_max(),
                         ged_prior, &index_->gbd_prior());
  for (int64_t v : {int64_t{5}, int64_t{20}, int64_t{33}}) {
    for (int64_t tau_hat : {int64_t{0}, int64_t{2}, int64_t{6}}) {
      Result<const PhiRow*> row = engine.Row(v, tau_hat);
      ASSERT_TRUE(row.ok());
      const std::vector<double>& table = (*row)->suffix_max;
      const int64_t cap = std::min(v, 2 * tau_hat);
      ASSERT_EQ(table.size(), static_cast<size_t>(cap + 1));
      ASSERT_EQ((*row)->phi.size(), table.size());
      for (int64_t phi = 0; phi <= cap + 5; ++phi) {
        Result<double> exact = engine.Phi(v, phi, tau_hat);
        ASSERT_TRUE(exact.ok());
        if (phi > cap) {
          EXPECT_EQ(*exact, 0.0) << "v=" << v << " phi=" << phi;
          const Span<double> lambda1 = ged_prior->Lambda1Column(v, phi);
          for (int64_t tau = 0; tau <= tau_hat; ++tau) {
            const double l1 = lambda1[static_cast<size_t>(tau)];
            EXPECT_TRUE(l1 == 0.0 && !std::signbit(l1))
                << "v=" << v << " phi=" << phi << " tau=" << tau;
          }
        }
        for (int64_t p = 0; p <= std::min(phi, cap); ++p) {
          EXPECT_GE(table[static_cast<size_t>(p)], *exact)
              << "v=" << v << " tau=" << tau_hat << " phi=" << phi
              << " p=" << p;
        }
        EXPECT_GE((*row)->UpperBound(phi), *exact);
      }
      // Non-increasing: the monotonicity the tier-2 cut derivation uses.
      for (size_t p = 1; p < table.size(); ++p) {
        EXPECT_LE(table[p], table[p - 1]);
      }
    }
  }
}

TEST_F(PruneEquivalenceTest, PhiPastTheSupportIsPositiveZeroOnEveryPath) {
  // Two variants score a phi past min(v, 2 * tau_hat), where Phi is +0.0
  // with no evaluation: GBDA-V1 takes v from the sampled average size, which
  // a candidate's GBD can exceed, and kWeightedGbd with a huge negative
  // weight rounds VGBD past 32 bits. Every path, pruned or not, must match
  // the serial exhaustive scan bit for bit, and every such score must be
  // +0.0.
  struct Case {
    GbdaVariant variant;
    double vgbd_w;
  };
  const Case cases[] = {{GbdaVariant::kAverageSize, 0.5},
                        {GbdaVariant::kWeightedGbd, -1e12}};
  GbdaSearch search(&dataset_->db, index_);
  ServiceOptions service_options;
  service_options.num_threads = 3;
  service_options.num_shards = 7;
  GbdaService service(&dataset_->db, index_, service_options);
  GbdaIndexOptions index_options;
  index_options.tau_max = 10;
  index_options.gbd_prior.num_sample_pairs = 1500;
  DynamicServiceOptions dyn_options;
  dyn_options.service.num_threads = 3;
  dyn_options.service.num_shards = 7;
  GraphDatabase db_copy = dataset_->db;
  Result<std::unique_ptr<DynamicGbdaService>> dyn = DynamicGbdaService::Create(
      std::move(db_copy), index_options, dyn_options);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();

  const std::vector<Graph>& queries = dataset_->queries;
  for (const Case& c : cases) {
    for (int64_t tau : {int64_t{2}, int64_t{6}}) {
      SearchOptions exhaustive;
      exhaustive.variant = c.variant;
      exhaustive.vgbd_w = c.vgbd_w;
      exhaustive.tau_hat = tau;
      exhaustive.early_termination = false;
      // The extended size each answer of query q was scored with.
      std::vector<ScanContext> contexts;
      for (const Graph& query : queries) {
        Result<ScanContext> ctx =
            PrepareScan(query, exhaustive, /*apply_gamma=*/true,
                        CorpusRef(&dataset_->db), *index_);
        ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
        contexts.push_back(std::move(*ctx));
      }
      size_t past_support = 0;
      bool past_32_bits = false;
      const uint64_t* offsets = index_->columns().fp_offsets;
      const auto check = [&](const SearchResult& want, const SearchResult& got,
                             size_t q, const std::string& label) {
        ExpectSameResult(want, got, label);
        for (const SearchMatch& m : got.matches) {
          const size_t g_size =
              offsets[m.graph_id + 1] - offsets[m.graph_id];
          const int64_t v =
              c.variant == GbdaVariant::kAverageSize
                  ? contexts[q].v1_size
                  : static_cast<int64_t>(std::max<size_t>(
                        contexts[q].query_fps.size(), g_size));
          if (m.gbd <= std::min(v, 2 * tau)) continue;
          ++past_support;
          past_32_bits = past_32_bits || m.gbd > INT64_C(0xFFFFFFFF);
          EXPECT_TRUE(m.phi_score == 0.0 && !std::signbit(m.phi_score))
              << label << " id=" << m.graph_id << " gbd=" << m.gbd;
        }
      };
      // Threshold queries (k == 0) at a gamma every candidate passes and
      // at one that prunes, then rankings with and without pruning.
      struct Shape {
        double gamma;
        size_t k;
      };
      for (const Shape shape : {Shape{0.0, 0}, Shape{0.9, 0}, Shape{0.0, 10},
                                Shape{0.0, dataset_->db.size()}}) {
        for (bool early : {false, true}) {
          SearchOptions options = exhaustive;
          options.gamma = shape.gamma;
          options.early_termination = early;
          SearchOptions reference = options;
          reference.early_termination = false;
          for (size_t q = 0; q < queries.size(); ++q) {
            const auto run = [&](auto& path, const SearchOptions& o) {
              return shape.k == 0 ? path.Query(queries[q], o)
                                  : path.QueryTopK(queries[q], shape.k, o);
            };
            const std::string label =
                "variant=" + std::to_string(static_cast<int>(c.variant)) +
                " tau=" + std::to_string(tau) +
                " gamma=" + std::to_string(shape.gamma) +
                " k=" + std::to_string(shape.k) +
                " early=" + std::to_string(early) + " query=" +
                std::to_string(q);
            Result<SearchResult> want = run(search, reference);
            Result<SearchResult> serial = run(search, options);
            Result<SearchResult> sharded = run(service, options);
            Result<SearchResult> snapshot = run(**dyn, options);
            ASSERT_TRUE(want.ok() && serial.ok() && sharded.ok() &&
                        snapshot.ok())
                << label;
            check(*want, *serial, q, "serial " + label);
            check(*want, *sharded, q, "service " + label);
            check(*want, *snapshot, q, "dynamic " + label);
          }
        }
      }
      EXPECT_GT(past_support, 0u)
          << "variant=" << static_cast<int>(c.variant) << " tau=" << tau;
      if (c.variant == GbdaVariant::kWeightedGbd) {
        EXPECT_TRUE(past_32_bits) << "tau=" << tau;
      }
    }
  }
}

TEST_F(PruneEquivalenceTest, FingerprintCommonBranchBoundIsAdmissible) {
  // Tier 2's inputs as the scan reads them: the index's fp_keys column
  // (dictionary ids) through the scalar kernel. The id intersection is the
  // true branch intersection — an undercount would overstate the GBD lower
  // bound and break soundness — and the capped decision form must agree
  // with the counting form at every cap.
  const ScanKernels& scalar = GetScanKernels(KernelImpl::kScalar);
  const CandidateColumns columns = index_->columns();
  const auto keys = [&columns](size_t g, size_t* n) {
    const uint64_t lo = columns.fp_offsets[g];
    *n = static_cast<size_t>(columns.fp_offsets[g + 1] - lo);
    return columns.fp_keys + lo;
  };
  const size_t n = std::min<size_t>(dataset_->db.size(), 12);
  std::vector<BranchMultiset> branches;
  for (size_t i = 0; i < n; ++i) {
    branches.push_back(ExtractBranches(dataset_->db.graph(i)));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      size_t ni = 0, nj = 0;
      const uint64_t* ki = keys(i, &ni);
      const uint64_t* kj = keys(j, &nj);
      const int64_t bound = scalar.intersect_count(ki, ni, kj, nj);
      const int64_t truth = static_cast<int64_t>(
          BranchIntersectionSize(branches[i], branches[j]));
      EXPECT_EQ(bound, truth) << "pair " << i << "," << j;
      EXPECT_LE(bound, static_cast<int64_t>(std::min(
                           branches[i].size(), branches[j].size())));
      for (int64_t cap : {int64_t{-1}, int64_t{0}, truth - 1, truth,
                          truth + 1, bound, bound + 3}) {
        EXPECT_EQ(scalar.intersect_at_most(ki, ni, kj, nj, cap), bound <= cap)
            << "pair " << i << "," << j << " cap=" << cap;
      }
    }
  }
}

}  // namespace
}  // namespace gbda
