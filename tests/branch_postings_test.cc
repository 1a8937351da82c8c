// The threshold scan's prefix filter (docs/ARCHITECTURE.md, "Bound
// pruning"). The postings of a branch store (core/branch_postings.h) list
// each graph once per id it holds, ascending, identically on an owned index
// and on its mapped artifact. An armed scan (ArmPrefixFilter) equals the
// exhaustive scan bit for bit, reports the unarmed pruned scan's
// pruned_by_bound and verified_count under any range split, and every
// candidate its list leaves out, scored alone, comes back pruned.
// Adversarial token frequencies ride along: a query whose branches are all
// one id, a query made only of branches the dictionary lacks, |q| at
// 2 tau_hat and 2 tau_hat + 1, the empty query; so do the options that must
// never arm (gamma 0 or NaN, V2 weights 0 and 1.5, the prefilter,
// early_termination off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/branch_postings.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

/// A cycle of `n` vertices labelled `vertex_label` joined by edge label 0:
/// every branch is (vertex_label, {0, 0}), so all n share one id.
Graph Cycle(size_t n, LabelId vertex_label) {
  Graph g = Graph::WithVertices(n, vertex_label);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(static_cast<uint32_t>(i),
                          static_cast<uint32_t>((i + 1) % n), 0)
                    .ok());
  }
  return g;
}

class BranchPostingsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = AidsProfile(0.04);
    profile.seed = 5;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
    // Cycles make one id frequent and let a query be a single repeated id.
    for (size_t n = 3; n <= 24; n += 3) {
      dataset_->db.Add(Cycle(n, 0));
      dataset_->db.Add(Cycle(n, 0));
    }

    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 1500;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    const std::string path = ::testing::TempDir() + "/branch_postings.v4";
    ASSERT_TRUE(WriteArenaFile(*index_, path).ok());
    Result<GbdaIndexView> view = GbdaIndexView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    view_ = new GbdaIndexView(std::move(*view));
    postings_ = new BranchPostings(*index_);
    prefilter_ = new Prefilter(*index_);
  }
  static void TearDownTestSuite() {
    delete prefilter_;
    delete postings_;
    delete view_;
    delete index_;
    delete dataset_;
    prefilter_ = nullptr;
    postings_ = nullptr;
    view_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static SearchResult Scan(const ScanContext& ctx, size_t begin, size_t end,
                           PosteriorEngine* engine) {
    SearchResult r;
    const Status s =
        ScanRange(ctx, *index_, prefilter_, begin, end, engine, &r, nullptr);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return r;
  }

  /// Prepares `query` under `options`, arms it, and checks the armed scan
  /// against the exhaustive and the unarmed pruned scans, whole and split
  /// in three, then scores every candidate the list leaves out alone.
  /// Returns whether it armed; `matches` (optional) gets the answer size.
  static bool CheckQuery(const Graph& query, const SearchOptions& options,
                         const std::string& label, size_t* matches = nullptr) {
    PosteriorEngine engine(index_->num_vertex_labels(),
                           index_->num_edge_labels(), index_->tau_max(),
                           index_->mutable_ged_prior(), &index_->gbd_prior());
    const size_t n = index_->num_graphs();
    Result<ScanContext> ctx = PrepareScan(query, options, true, *index_);
    EXPECT_TRUE(ctx.ok()) << label << ": " << ctx.status().ToString();
    if (!ctx.ok()) return false;
    const SearchResult unarmed = Scan(*ctx, 0, n, &engine);
    SearchOptions exhaustive_options = options;
    exhaustive_options.early_termination = false;
    Result<ScanContext> exhaustive_ctx =
        PrepareScan(query, exhaustive_options, true, *index_);
    EXPECT_TRUE(exhaustive_ctx.ok()) << label;
    if (!exhaustive_ctx.ok()) return false;
    EXPECT_FALSE(ArmPrefixFilter(*postings_, &*exhaustive_ctx)) << label;
    const SearchResult exhaustive = Scan(*exhaustive_ctx, 0, n, &engine);
    if (matches != nullptr) *matches = exhaustive.matches.size();

    const bool armed = ArmPrefixFilter(*postings_, &*ctx);
    EXPECT_EQ(armed, PrefixFilterApplies(*ctx)) << label;
    EXPECT_EQ(armed, ctx->prefix_candidates.has_value()) << label;
    const std::vector<uint32_t> listed =
        armed ? *ctx->prefix_candidates : std::vector<uint32_t>();
    EXPECT_TRUE(std::adjacent_find(listed.begin(), listed.end(),
                                   [](uint32_t a, uint32_t b) {
                                     return a >= b;
                                   }) == listed.end())
        << label << ": the list is not ascending and distinct";

    // Whole range, then three uneven shards summed in order.
    const size_t cuts[] = {0, n / 5, n / 2, n};
    std::vector<SearchResult> runs = {Scan(*ctx, 0, n, &engine)};
    SearchResult split;
    for (size_t s = 0; s + 1 < std::size(cuts); ++s) {
      const SearchResult part = Scan(*ctx, cuts[s], cuts[s + 1], &engine);
      split.matches.insert(split.matches.end(), part.matches.begin(),
                           part.matches.end());
      split.candidates_evaluated += part.candidates_evaluated;
      split.prefiltered_out += part.prefiltered_out;
      split.pruned_by_bound += part.pruned_by_bound;
      split.skipped_by_prefix += part.skipped_by_prefix;
      split.verified_count += part.verified_count;
    }
    runs.push_back(std::move(split));
    for (const SearchResult& got : runs) {
      EXPECT_EQ(got.matches.size(), exhaustive.matches.size()) << label;
      for (size_t i = 0;
           i < got.matches.size() && i < exhaustive.matches.size(); ++i) {
        EXPECT_EQ(got.matches[i].graph_id, exhaustive.matches[i].graph_id)
            << label;
        EXPECT_EQ(got.matches[i].phi_score, exhaustive.matches[i].phi_score)
            << label;
        EXPECT_EQ(got.matches[i].gbd, exhaustive.matches[i].gbd) << label;
      }
      EXPECT_EQ(got.candidates_evaluated, exhaustive.candidates_evaluated)
          << label;
      EXPECT_EQ(got.prefiltered_out, exhaustive.prefiltered_out) << label;
      EXPECT_EQ(got.pruned_by_bound, unarmed.pruned_by_bound) << label;
      EXPECT_EQ(got.verified_count, unarmed.verified_count) << label;
      EXPECT_EQ(got.skipped_by_prefix, armed ? n - listed.size() : 0)
          << label;
      EXPECT_LE(got.skipped_by_prefix, got.pruned_by_bound) << label;
    }
    EXPECT_EQ(unarmed.skipped_by_prefix, 0u) << label;

    // Soundness: each candidate the list leaves out is one stage B prunes.
    if (armed) {
      for (uint32_t g = 0; g < n; ++g) {
        if (std::binary_search(listed.begin(), listed.end(), g)) continue;
        SearchResult alone;
        EXPECT_TRUE(ScanCandidateList(*ctx, *index_, prefilter_, {g},
                                      &engine, &alone)
                        .ok())
            << label;
        EXPECT_EQ(alone.pruned_by_bound, 1u) << label << " unlisted " << g;
        EXPECT_TRUE(alone.matches.empty()) << label << " unlisted " << g;
      }
    }
    return armed;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static GbdaIndexView* view_;
  static BranchPostings* postings_;
  static Prefilter* prefilter_;
};

GeneratedDataset* BranchPostingsTest::dataset_ = nullptr;
GbdaIndex* BranchPostingsTest::index_ = nullptr;
GbdaIndexView* BranchPostingsTest::view_ = nullptr;
BranchPostings* BranchPostingsTest::postings_ = nullptr;
Prefilter* BranchPostingsTest::prefilter_ = nullptr;

TEST_F(BranchPostingsTest, ListEachGraphOncePerIdAscending) {
  const CandidateColumns columns = index_->columns();
  const size_t n = index_->num_graphs();
  ASSERT_EQ(postings_->num_graphs(), n);
  ASSERT_EQ(postings_->num_ids(), index_->dictionary().size());
  size_t distinct_pairs = 0;
  for (size_t g = 0; g < n; ++g) {
    for (uint64_t i = columns.fp_offsets[g]; i < columns.fp_offsets[g + 1];
         ++i) {
      const uint64_t id = columns.fp_keys[i];
      if (i > columns.fp_offsets[g] && id == columns.fp_keys[i - 1]) continue;
      ++distinct_pairs;
      const Span<const uint32_t> posting = postings_->Posting(id);
      EXPECT_TRUE(std::binary_search(posting.begin(), posting.end(),
                                     static_cast<uint32_t>(g)))
          << "graph " << g << " id " << id;
    }
  }
  EXPECT_EQ(postings_->num_entries(), distinct_pairs);
  size_t entries = 0;
  for (uint64_t id = 0; id < postings_->num_ids(); ++id) {
    const Span<const uint32_t> posting = postings_->Posting(id);
    entries += posting.size();
    for (size_t i = 0; i < posting.size(); ++i) {
      ASSERT_LT(posting[i], n);
      if (i > 0) {
        EXPECT_LT(posting[i - 1], posting[i]) << "id " << id;
      }
    }
  }
  EXPECT_EQ(entries, distinct_pairs);
  // Ids the dictionary lacks hold nothing.
  EXPECT_TRUE(postings_->Posting(postings_->num_ids()).empty());
  EXPECT_TRUE(
      postings_->Posting(std::numeric_limits<uint64_t>::max()).empty());
}

TEST_F(BranchPostingsTest, OwnedIndexAndMappedViewAgree) {
  const BranchPostings mapped(*view_);
  ASSERT_EQ(mapped.num_graphs(), postings_->num_graphs());
  ASSERT_EQ(mapped.num_ids(), postings_->num_ids());
  ASSERT_EQ(mapped.num_entries(), postings_->num_entries());
  for (uint64_t id = 0; id < mapped.num_ids(); ++id) {
    const Span<const uint32_t> a = postings_->Posting(id);
    const Span<const uint32_t> b = mapped.Posting(id);
    ASSERT_EQ(a.size(), b.size()) << "id " << id;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "id " << id;
  }
}

TEST_F(BranchPostingsTest, ArmedScansEqualExhaustiveOnEveryVariant) {
  size_t armed = 0;
  for (GbdaVariant variant : {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
                              GbdaVariant::kWeightedGbd}) {
    for (int64_t tau : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{5}}) {
      // denorm_min keeps every candidate whose phi is inside the Phi row's
      // support, the loosest cut the prefix must still cover.
      for (double gamma :
           {std::numeric_limits<double>::denorm_min(), 0.1, 0.5, 0.9}) {
        SearchOptions options;
        options.variant = variant;
        options.tau_hat = tau;
        options.gamma = gamma;
        for (size_t q = 0; q < dataset_->queries.size(); ++q) {
          armed += CheckQuery(
              dataset_->queries[q], options,
              "variant=" + std::to_string(static_cast<int>(variant)) +
                  " tau=" + std::to_string(tau) +
                  " gamma=" + std::to_string(gamma) +
                  " query=" + std::to_string(q));
        }
      }
    }
  }
  EXPECT_GT(armed, 0u);
}

TEST_F(BranchPostingsTest, AdversarialQueriesArmOnlyPastTwiceTau) {
  SearchOptions options;
  options.tau_hat = 5;
  options.gamma = 0.5;
  // Every branch one id, which many graphs hold: the prefix is that id
  // 2 tau_hat + 1 times over, so the list is its one posting.
  EXPECT_TRUE(CheckQuery(Cycle(12, 0), options, "one repeated id"));
  {
    Result<ScanContext> ctx = PrepareScan(Cycle(12, 0), options, true, *index_);
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE(ArmPrefixFilter(*postings_, &*ctx));
    const Span<const uint32_t> posting =
        postings_->Posting(ctx->query_fps.front());
    EXPECT_FALSE(posting.empty());
    EXPECT_TRUE(std::equal(posting.begin(), posting.end(),
                           ctx->prefix_candidates->begin(),
                           ctx->prefix_candidates->end()));
  }
  // Only branches the dictionary lacks: an empty list skips every graph.
  const LabelId unseen = 1000;
  EXPECT_TRUE(CheckQuery(Cycle(12, unseen), options, "unknown branches"));
  {
    Result<ScanContext> ctx =
        PrepareScan(Cycle(12, unseen), options, true, *index_);
    ASSERT_TRUE(ctx.ok());
    ASSERT_TRUE(ArmPrefixFilter(*postings_, &*ctx));
    EXPECT_TRUE(ctx->prefix_candidates->empty());
  }
  // |q| = 2 tau_hat leaves the prefix bound vacuous; one more arms.
  EXPECT_FALSE(CheckQuery(Cycle(10, 0), options, "|q| = 2 tau_hat"));
  EXPECT_TRUE(CheckQuery(Cycle(11, 0), options, "|q| = 2 tau_hat + 1"));
  EXPECT_FALSE(CheckQuery(Graph(), options, "empty query"));
  // The prefix length is tight. The query's ten unknown ids are its rarest;
  // a 12-cycle lacks all ten and holds the other twelve, so its phi is
  // exactly 2 tau_hat, which a gamma of denorm_min keeps. Only the eleventh
  // id of the prefix lists it.
  Graph tight = Cycle(12, 0);
  for (int i = 0; i < 10; ++i) tight.AddVertex(unseen);
  options.gamma = std::numeric_limits<double>::denorm_min();
  size_t tight_matches = 0;
  EXPECT_TRUE(CheckQuery(tight, options, "tight prefix", &tight_matches));
  EXPECT_GT(tight_matches, 0u);
  options.gamma = 0.5;
  // tau_hat = 0: a single rarest id decides.
  options.tau_hat = 0;
  EXPECT_TRUE(CheckQuery(dataset_->db.graph(0), options, "tau 0"));
}

TEST_F(BranchPostingsTest, OnlyEligibleOptionsArm) {
  const Graph& query = dataset_->queries[0];
  ASSERT_GT(query.num_vertices(), 10u);
  struct Case {
    std::string label;
    bool arms;
    void (*set)(SearchOptions*);
  };
  const Case cases[] = {
      {"gamma 0", false, [](SearchOptions* o) { o->gamma = 0.0; }},
      {"gamma NaN", false, [](SearchOptions* o) { o->gamma = std::nan(""); }},
      {"gamma denorm_min", true,
       [](SearchOptions* o) {
         o->gamma = std::numeric_limits<double>::denorm_min();
       }},
      {"V2 w 0", false,
       [](SearchOptions* o) {
         o->variant = GbdaVariant::kWeightedGbd;
         o->vgbd_w = 0.0;
       }},
      {"V2 w 0.5", true,
       [](SearchOptions* o) {
         o->variant = GbdaVariant::kWeightedGbd;
         o->vgbd_w = 0.5;
       }},
      {"V2 w 1", true,
       [](SearchOptions* o) {
         o->variant = GbdaVariant::kWeightedGbd;
         o->vgbd_w = 1.0;
       }},
      {"V2 w 1.5", false,
       [](SearchOptions* o) {
         o->variant = GbdaVariant::kWeightedGbd;
         o->vgbd_w = 1.5;
       }},
      {"prefilter", false, [](SearchOptions* o) { o->use_prefilter = true; }},
      {"exhaustive", false,
       [](SearchOptions* o) { o->early_termination = false; }},
  };
  for (const Case& c : cases) {
    SearchOptions options;
    options.tau_hat = 5;
    options.gamma = 0.5;
    c.set(&options);
    EXPECT_EQ(CheckQuery(query, options, c.label), c.arms) << c.label;
  }
  // Ranking scans never arm.
  SearchOptions options;
  options.tau_hat = 5;
  Result<ScanContext> ranking = PrepareScan(query, options, false, *index_);
  ASSERT_TRUE(ranking.ok());
  EXPECT_FALSE(ArmPrefixFilter(*postings_, &*ranking));
}

}  // namespace
}  // namespace gbda
