#include "core/gbda_search.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/dataset_profiles.h"

namespace gbda {
namespace {

class GbdaSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = FingerprintProfile(0.03);
    profile.seed = 99;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 2000;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));
    search_ = new GbdaSearch(&dataset_->db, index_);
  }
  static void TearDownTestSuite() {
    delete search_;
    delete index_;
    delete dataset_;
    search_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static GbdaSearch* search_;
};

GeneratedDataset* GbdaSearchTest::dataset_ = nullptr;
GbdaIndex* GbdaSearchTest::index_ = nullptr;
GbdaSearch* GbdaSearchTest::search_ = nullptr;

TEST_F(GbdaSearchTest, IndexBuildProducedArtifacts) {
  EXPECT_EQ(index_->num_graphs(), dataset_->db.size());
  EXPECT_GT(index_->gbd_prior().pairs_sampled(), 0u);
  EXPECT_GT(index_->costs().gbd_prior_seconds, 0.0);
  EXPECT_GT(index_->avg_vertices(), 0.0);
}

TEST_F(GbdaSearchTest, QueryReturnsWellFormedResult) {
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.5;
  Result<SearchResult> r = search_->Query(dataset_->queries[0], opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->candidates_evaluated, dataset_->db.size());
  for (const SearchMatch& m : r->matches) {
    EXPECT_LT(m.graph_id, dataset_->db.size());
    EXPECT_GE(m.phi_score, opts.gamma);
    EXPECT_GE(m.gbd, 0);
  }
}

TEST_F(GbdaSearchTest, HigherGammaShrinksResultSet) {
  SearchOptions lo, hi;
  lo.tau_hat = hi.tau_hat = 6;
  lo.gamma = 0.3;
  hi.gamma = 0.9;
  Result<SearchResult> r_lo = search_->Query(dataset_->queries[0], lo);
  Result<SearchResult> r_hi = search_->Query(dataset_->queries[0], hi);
  ASSERT_TRUE(r_lo.ok());
  ASSERT_TRUE(r_hi.ok());
  std::set<size_t> lo_set, hi_set;
  for (const auto& m : r_lo->matches) lo_set.insert(m.graph_id);
  for (const auto& m : r_hi->matches) hi_set.insert(m.graph_id);
  for (size_t id : hi_set) EXPECT_TRUE(lo_set.count(id)) << id;
}

TEST_F(GbdaSearchTest, LargerTauGrowsResultSet) {
  SearchOptions small, big;
  small.tau_hat = 2;
  big.tau_hat = 9;
  small.gamma = big.gamma = 0.6;
  Result<SearchResult> r_small = search_->Query(dataset_->queries[1], small);
  Result<SearchResult> r_big = search_->Query(dataset_->queries[1], big);
  ASSERT_TRUE(r_small.ok());
  ASSERT_TRUE(r_big.ok());
  // Phi is monotone in tau_hat, so every small-tau match stays a match.
  std::set<size_t> big_set;
  for (const auto& m : r_big->matches) big_set.insert(m.graph_id);
  for (const auto& m : r_small->matches) {
    EXPECT_TRUE(big_set.count(m.graph_id)) << m.graph_id;
  }
}

TEST_F(GbdaSearchTest, RejectsTauBeyondIndex) {
  SearchOptions opts;
  opts.tau_hat = index_->tau_max() + 1;
  EXPECT_FALSE(search_->Query(dataset_->queries[0], opts).ok());
}

TEST_F(GbdaSearchTest, VariantsProduceResults) {
  for (GbdaVariant v : {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
                        GbdaVariant::kWeightedGbd}) {
    SearchOptions opts;
    opts.tau_hat = 6;
    opts.gamma = 0.4;
    opts.variant = v;
    opts.vgbd_w = 0.5;
    Result<SearchResult> r = search_->Query(dataset_->queries[0], opts);
    EXPECT_TRUE(r.ok()) << static_cast<int>(v);
  }
}

TEST_F(GbdaSearchTest, DeterministicAcrossRepeats) {
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.7;
  Result<SearchResult> a = search_->Query(dataset_->queries[2], opts);
  Result<SearchResult> b = search_->Query(dataset_->queries[2], opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->matches.size(), b->matches.size());
  for (size_t i = 0; i < a->matches.size(); ++i) {
    EXPECT_EQ(a->matches[i].graph_id, b->matches[i].graph_id);
    EXPECT_DOUBLE_EQ(a->matches[i].phi_score, b->matches[i].phi_score);
  }
}

TEST_F(GbdaSearchTest, TopKReturnsRankedPrefix) {
  SearchOptions opts;
  opts.tau_hat = 6;
  opts.gamma = 0.0;  // ignored by QueryTopK anyway
  const Graph& query = dataset_->queries[0];
  Result<SearchResult> top3 = search_->QueryTopK(query, 3, opts);
  Result<SearchResult> top10 = search_->QueryTopK(query, 10, opts);
  ASSERT_TRUE(top3.ok());
  ASSERT_TRUE(top10.ok());
  EXPECT_LE(top3->matches.size(), 3u);
  EXPECT_LE(top10->matches.size(), 10u);
  // Scores descend and top3 is a prefix of top10.
  for (size_t i = 1; i < top10->matches.size(); ++i) {
    EXPECT_GE(top10->matches[i - 1].phi_score, top10->matches[i].phi_score);
  }
  for (size_t i = 0; i < top3->matches.size(); ++i) {
    EXPECT_EQ(top3->matches[i].graph_id, top10->matches[i].graph_id);
  }
}

TEST_F(GbdaSearchTest, TopKZeroIsEmpty) {
  // k = 0 is the defined-empty ranking (decided at the API boundary, no
  // scan; see kScanAllMatches in gbda_search.h) — not an error, and not
  // the kScanAllMatches sentinel.
  SearchOptions opts;
  opts.tau_hat = 5;
  Result<SearchResult> r = search_->QueryTopK(dataset_->queries[0], 0, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->matches.empty());
  EXPECT_EQ(r->candidates_evaluated, 0u);
  EXPECT_EQ(r->pruned_by_bound, 0u);
}

TEST_F(GbdaSearchTest, TauZeroQueryEndToEnd) {
  // The tau_hat = 0 boundary of the posterior: Lambda1(0, phi) is the
  // indicator [phi == 0], so only GBD-0 candidates carry posterior mass —
  // with and without the prefilter (Passes at tau 0), and identically
  // through the ranking path.
  const Graph query = dataset_->db.graph(0);
  std::vector<SearchResult> results;
  for (bool prefilter : {false, true}) {
    SearchOptions opts;
    opts.tau_hat = 0;
    opts.gamma = 0.5;
    opts.use_prefilter = prefilter;
    Result<SearchResult> r = search_->Query(query, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->matches.empty()) << "prefilter=" << prefilter;
    bool found_self = false;
    for (const SearchMatch& m : r->matches) {
      EXPECT_EQ(m.gbd, 0);
      EXPECT_GT(m.phi_score, 0.0);
      found_self |= m.graph_id == 0;
    }
    EXPECT_TRUE(found_self);
    results.push_back(std::move(*r));
  }
  // The prefilter is sound at tau 0: same accepted set either way.
  ASSERT_EQ(results[0].matches.size(), results[1].matches.size());
  for (size_t i = 0; i < results[0].matches.size(); ++i) {
    EXPECT_EQ(results[0].matches[i].graph_id, results[1].matches[i].graph_id);
    EXPECT_EQ(results[0].matches[i].phi_score,
              results[1].matches[i].phi_score);
  }
  // Ranking at the boundary: pruned top-k equals the exhaustive ranking.
  SearchOptions pruned;
  pruned.tau_hat = 0;
  SearchOptions exhaustive = pruned;
  exhaustive.early_termination = false;
  Result<SearchResult> a = search_->QueryTopK(query, 5, pruned);
  Result<SearchResult> b = search_->QueryTopK(query, 5, exhaustive);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->matches.size(), b->matches.size());
  for (size_t i = 0; i < a->matches.size(); ++i) {
    EXPECT_EQ(a->matches[i].graph_id, b->matches[i].graph_id);
    EXPECT_EQ(a->matches[i].phi_score, b->matches[i].phi_score);
    EXPECT_EQ(a->matches[i].gbd, b->matches[i].gbd);
  }
}

TEST_F(GbdaSearchTest, TopKWithOversizedKReturnsWholeDatabase) {
  SearchOptions opts;
  opts.tau_hat = 5;
  Result<SearchResult> r =
      search_->QueryTopK(dataset_->queries[0], 1u << 20, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->matches.size(), dataset_->db.size());
}

TEST_F(GbdaSearchTest, SelfQueryRanksExactCopyHighly) {
  // Query with an exact copy of a database graph: that graph has GBD 0 and
  // must be accepted at any reasonable gamma.
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.5;
  const Graph& target = dataset_->db.graph(0);
  Result<SearchResult> r = search_->Query(target, opts);
  ASSERT_TRUE(r.ok());
  bool found = false;
  for (const auto& m : r->matches) {
    if (m.graph_id == 0) {
      found = true;
      EXPECT_EQ(m.gbd, 0);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace gbda
