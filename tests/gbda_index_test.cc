// The owned offline index (core/gbda_index.h): Build's input validation and
// the atomicity of incremental removal. Persistence lives in the storage
// engine and is covered by storage_test and arena_columns_test.
#include "core/gbda_index.h"

#include <gtest/gtest.h>

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
  const size_t live_before = built->num_live();
  const double avg_before = built->avg_vertices();

  // Duplicate id in one batch: the whole call must be a no-op.
  EXPECT_EQ(built->RemoveGraphs({1, 1}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(built->is_live(1));
  EXPECT_EQ(built->num_live(), live_before);
  EXPECT_EQ(built->avg_vertices(), avg_before);
  EXPECT_EQ(built->gbd_staleness(), 0u);
  // Mixed valid/invalid: graph 0 must survive the failed call.
  EXPECT_FALSE(built->RemoveGraphs({0, live_before + 10}).ok());
  EXPECT_TRUE(built->is_live(0));
  EXPECT_EQ(built->num_live(), live_before);
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
