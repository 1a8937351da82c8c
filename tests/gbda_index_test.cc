// The owned offline index (core/gbda_index.h): Build's input validation,
// the atomicity of incremental removal and its equivalence with a Build.
// Persistence lives in the storage engine and is covered by storage_test
// and arena_columns_test.
#include "core/gbda_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/serialize.h"
#include "datagen/dataset_profiles.h"

namespace gbda {
namespace {

class GbdaIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.03);
    profile.seed = 31;
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

GeneratedDataset* GbdaIndexTest::dataset_ = nullptr;

TEST_F(GbdaIndexTest, IndexRemoveGraphsIsAtomicOnInvalidBatch) {
  GbdaIndexOptions options;
  options.tau_max = 4;
  options.gbd_prior.num_sample_pairs = 200;
  Result<GbdaIndex> built = GbdaIndex::Build(dataset_->db, options);
  ASSERT_TRUE(built.ok());
  const size_t graphs_before = built->num_graphs();
  const double avg_before = built->avg_vertices();

  // Repeated position in one batch: the whole call must be a no-op.
  EXPECT_EQ(built->RemoveGraphs({1, 1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(built->num_graphs(), graphs_before);
  EXPECT_EQ(built->avg_vertices(), avg_before);
  EXPECT_EQ(built->gbd_staleness(), 0u);
  // Mixed valid/invalid: position 0 must survive the failed call.
  EXPECT_EQ(built->RemoveGraphs({0, graphs_before + 10}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(built->num_graphs(), graphs_before);
  EXPECT_EQ(built->avg_vertices(), avg_before);
  EXPECT_EQ(built->gbd_staleness(), 0u);
}

// The equivalence every dynamic snapshot rests on: adding graphs, erasing
// positions and refitting yields the index Build makes over the graphs
// that remain, in the order they remain in.
TEST_F(GbdaIndexTest, MaintainedIndexEqualsBuild) {
  ASSERT_GE(dataset_->db.size(), 9u);
  GbdaIndexOptions options;
  options.tau_max = 4;
  // Fewer than the 15 pairs of six graphs, so the seeded sampler runs.
  options.gbd_prior.num_sample_pairs = 10;
  auto database_of = [](const std::vector<size_t>& graph_ids) {
    GraphDatabase db;
    db.vertex_labels() = dataset_->db.vertex_labels();
    db.edge_labels() = dataset_->db.edge_labels();
    for (size_t id : graph_ids) db.Add(dataset_->db.graph(id));
    return db;
  };
  Result<GbdaIndex> maintained =
      GbdaIndex::Build(database_of({0, 1, 2, 3, 4, 5}), options);
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  for (size_t id : {6, 7, 8}) maintained->AddGraph(dataset_->db.graph(id));
  // Positions 1, 4 and 7 hold graphs 1, 4 and 7.
  ASSERT_TRUE(maintained->RemoveGraphs({7, 1, 4}).ok());
  EXPECT_EQ(maintained->gbd_staleness(), 6u);
  ASSERT_TRUE(maintained->RefitGbdPrior().ok());

  const std::vector<size_t> remaining = {0, 2, 3, 5, 6, 8};
  Result<GbdaIndex> built = GbdaIndex::Build(database_of(remaining), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(maintained->num_graphs(), remaining.size());
  for (size_t p = 0; p < remaining.size(); ++p) {
    EXPECT_EQ(maintained->branches(p), built->branches(p)) << "position " << p;
  }
  EXPECT_EQ(maintained->avg_vertices(), built->avg_vertices());
  EXPECT_EQ(maintained->gbd_staleness(), 0u);
  BinaryWriter maintained_prior;
  BinaryWriter built_prior;
  maintained->gbd_prior().Serialize(&maintained_prior);
  built->gbd_prior().Serialize(&built_prior);
  EXPECT_EQ(maintained_prior.buffer(), built_prior.buffer());
}

TEST_F(GbdaIndexTest, BuildRejectsEmptyDatabase) {
  GraphDatabase empty;
  GbdaIndexOptions options;
  EXPECT_FALSE(GbdaIndex::Build(empty, options).ok());
}

TEST_F(GbdaIndexTest, BuildRejectsNegativeTau) {
  GbdaIndexOptions options;
  options.tau_max = -1;
  EXPECT_FALSE(GbdaIndex::Build(dataset_->db, options).ok());
}

}  // namespace
}  // namespace gbda
