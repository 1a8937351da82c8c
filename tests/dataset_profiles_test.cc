#include "datagen/dataset_profiles.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "eval/ground_truth.h"

namespace gbda {
namespace {

TEST(ProfileTest, TableIIIProfilesAreConsistent) {
  for (const DatasetProfile& p :
       {AidsProfile(), FingerprintProfile(), GrecProfile(), AasdProfile()}) {
    EXPECT_FALSE(p.rung_sizes.empty()) << p.name;
    EXPECT_EQ(p.rung_sizes.size(), p.graphs_per_rung.size()) << p.name;
    EXPECT_EQ(p.rung_sizes.size(), p.queries_per_rung.size()) << p.name;
    // Certified gap covers the paper's real-data thresholds (tau <= 10).
    EXPECT_GE(p.certified_gap(), 10) << p.name;
    // Sizes descend.
    for (size_t i = 1; i < p.rung_sizes.size(); ++i) {
      EXPECT_LT(p.rung_sizes[i], p.rung_sizes[i - 1]) << p.name;
    }
  }
}

TEST(ProfileTest, PaperScaleCountsMatchTableIII) {
  const DatasetProfile aids = AidsProfile(1.0);
  size_t total = 0, queries = 0;
  for (size_t c : aids.graphs_per_rung) total += c;
  for (size_t c : aids.queries_per_rung) queries += c;
  EXPECT_EQ(total, 1896u);
  EXPECT_EQ(queries, 100u);
  EXPECT_EQ(aids.rung_sizes.front(), 95u);  // V_m of Table III
}

size_t TotalGraphs(const DatasetProfile& p) {
  size_t total = 0;
  for (size_t c : p.graphs_per_rung) total += c;
  return total;
}

// A scale whose product is NaN, infinite or below 2 gets the floor of 2
// graphs instead of wrapping through an unsigned cast.
TEST(ProfileTest, BadScalesGetTheFloorOfTwoGraphs) {
  for (double scale : {-1.0, 0.0, std::nan(""),
                       std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(TotalGraphs(AidsProfile(scale)), 2u) << "scale " << scale;
  }
  EXPECT_EQ(TotalGraphs(AasdProfile(-0.5)), 2u);
  Result<GeneratedDataset> ds = GenerateDataset(AidsProfile(-1.0));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->db.size(), 2u);
}

TEST(ProfileTest, SynProfileCoversLargeThresholds) {
  const DatasetProfile syn = SynProfile(true, {1000, 2000, 5000}, 50, 5);
  EXPECT_GE(syn.certified_gap(), 30);  // thresholds up to 30 in Figures 8/31-42
  EXPECT_EQ(syn.name, "Syn-1");
  EXPECT_FALSE(SynProfile(false, {100, 200}, 10, 2).scale_free);
}

class GeneratedDatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = FingerprintProfile(0.03);  // ~65 graphs
    profile.seed = 77;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
};

GeneratedDataset* GeneratedDatasetTest::dataset_ = nullptr;

TEST_F(GeneratedDatasetTest, CountsMatchProfile) {
  const DatasetProfile& p = dataset_->profile;
  size_t expected_graphs = 0, expected_queries = 0;
  for (size_t c : p.graphs_per_rung) expected_graphs += c;
  for (size_t c : p.queries_per_rung) expected_queries += c;
  EXPECT_EQ(dataset_->db.size(), expected_graphs);
  EXPECT_EQ(dataset_->queries.size(), expected_queries);
  EXPECT_EQ(dataset_->graph_rung.size(), expected_graphs);
  EXPECT_EQ(dataset_->query_states.size(), expected_queries);
}

TEST_F(GeneratedDatasetTest, StatsTrackTableIII) {
  const DatabaseStats stats = dataset_->db.Stats();
  EXPECT_EQ(stats.max_vertices, dataset_->profile.rung_sizes.front());
  // Average degree lands near the profile target (center boosting and the
  // marker chains add a little).
  EXPECT_NEAR(stats.avg_degree, dataset_->profile.target_avg_degree, 1.0);
  // The dictionaries hold the core alphabet plus per-family marker labels.
  EXPECT_GE(stats.num_vertex_labels, dataset_->profile.num_vertex_labels);
  EXPECT_EQ(stats.num_vertex_labels,
            dataset_->profile.num_vertex_labels + dataset_->num_families);
  EXPECT_EQ(stats.num_edge_labels,
            dataset_->profile.num_edge_labels + dataset_->num_families);
}

TEST_F(GeneratedDatasetTest, SameFamilyPairsHaveKnownGed) {
  bool found_same_family = false;
  for (size_t q = 0; q < dataset_->queries.size(); ++q) {
    for (size_t g = 0; g < dataset_->db.size(); ++g) {
      const int64_t ged = dataset_->KnownGedOrFar(q, g);
      if (dataset_->query_family[q] == dataset_->graph_family[g]) {
        found_same_family = true;
        EXPECT_GE(ged, 0);
        EXPECT_LE(ged, 2 * static_cast<int64_t>(
                            dataset_->profile.max_modifications));
        // Same family implies same rung and equal sizes.
        EXPECT_EQ(dataset_->query_rung[q], dataset_->graph_rung[g]);
        EXPECT_EQ(dataset_->queries[q].num_vertices(),
                  dataset_->db.graph(g).num_vertices());
      } else {
        EXPECT_EQ(ged, -1);
      }
    }
  }
  EXPECT_TRUE(found_same_family);
}

namespace {

/// Admissible GED lower bound: vertex-label plus edge-label multiset edit
/// distances (each operation fixes at most one mismatch of one kind).
int64_t LabelMultisetLowerBound(const Graph& a, const Graph& b) {
  std::vector<LabelId> va, vb, ea, eb;
  for (uint32_t v = 0; v < a.num_vertices(); ++v) va.push_back(a.VertexLabel(v));
  for (uint32_t v = 0; v < b.num_vertices(); ++v) vb.push_back(b.VertexLabel(v));
  for (const auto& e : a.SortedEdges()) ea.push_back(e.label);
  for (const auto& e : b.SortedEdges()) eb.push_back(e.label);
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  auto diff = [](const std::vector<LabelId>& x, const std::vector<LabelId>& y) {
    size_t i = 0, j = 0, common = 0;
    while (i < x.size() && j < y.size()) {
      if (x[i] < y[j]) {
        ++i;
      } else if (x[i] > y[j]) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    return static_cast<int64_t>(std::max(x.size(), y.size()) - common);
  };
  return diff(va, vb) + diff(ea, eb);
}

}  // namespace

TEST_F(GeneratedDatasetTest, MarkersCertifyCrossFamilyPairs) {
  // Every certified-far pair must have a provable GED above certified_tau.
  size_t checked = 0;
  for (size_t q = 0; q < std::min<size_t>(dataset_->queries.size(), 3); ++q) {
    for (size_t g = 0; g < dataset_->db.size(); ++g) {
      if (dataset_->KnownGedOrFar(q, g) >= 0) continue;
      const int64_t lb =
          LabelMultisetLowerBound(dataset_->queries[q], dataset_->db.graph(g));
      EXPECT_GT(lb, dataset_->profile.certified_tau)
          << "query " << q << " graph " << g;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(GeneratedDatasetTest, TrueMatchesConsistentWithKnownGed) {
  for (size_t q = 0; q < std::min<size_t>(dataset_->queries.size(), 4); ++q) {
    for (int64_t tau : {0, 3, 8}) {
      const std::vector<size_t> matches = dataset_->TrueMatches(q, tau);
      std::set<size_t> match_set(matches.begin(), matches.end());
      for (size_t g = 0; g < dataset_->db.size(); ++g) {
        const int64_t ged = dataset_->KnownGedOrFar(q, g);
        EXPECT_EQ(match_set.count(g) == 1, ged >= 0 && ged <= tau);
      }
    }
  }
}

TEST_F(GeneratedDatasetTest, OracleValidatesArguments) {
  GroundTruthOracle oracle(dataset_);
  EXPECT_FALSE(oracle.TrueMatches(1u << 20, 3).ok());
  EXPECT_FALSE(
      oracle.TrueMatches(0, oracle.max_certified_tau() + 1).ok());
  Result<std::vector<size_t>> ok = oracle.TrueMatches(0, 3);
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(oracle.Distance(0, 1u << 20).ok());
}

TEST(GenerateDatasetTest, DeterministicForSeed) {
  DatasetProfile profile = GrecProfile(0.02);
  profile.seed = 5;
  Result<GeneratedDataset> a = GenerateDataset(profile);
  Result<GeneratedDataset> b = GenerateDataset(profile);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->db.size(), b->db.size());
  for (size_t i = 0; i < a->db.size(); ++i) {
    EXPECT_TRUE(a->db.graph(i).IdenticalTo(b->db.graph(i)));
  }
}

TEST(GenerateDatasetTest, RejectsMalformedProfile) {
  DatasetProfile p;
  p.name = "broken";
  EXPECT_FALSE(GenerateDataset(p).ok());
  p.rung_sizes = {10, 5};
  p.graphs_per_rung = {3};  // length mismatch
  p.queries_per_rung = {1, 1};
  EXPECT_FALSE(GenerateDataset(p).ok());
}

}  // namespace
}  // namespace gbda
