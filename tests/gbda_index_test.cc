// The owned offline index (core/gbda_index.h): Build's input validation,
// the atomicity of incremental removal and its equivalence with a Build.
// Persistence lives in the storage engine and is covered by storage_test
// and arena_columns_test; the dictionary itself by branch_dictionary_test.
#include "core/gbda_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"

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

// Graph `g`'s branches read through the dictionary, in content order.
std::vector<std::pair<LabelId, std::vector<LabelId>>> BranchesOf(
    const IndexReader& index, size_t g) {
  const CandidateColumns columns = index.columns();
  const BranchSetRef entries = index.dictionary().entries();
  std::vector<std::pair<LabelId, std::vector<LabelId>>> out;
  for (uint64_t k = columns.fp_offsets[g]; k < columns.fp_offsets[g + 1]; ++k) {
    const Span<const LabelId> labels = entries.edge_labels(columns.fp_keys[k]);
    out.emplace_back(entries.root(columns.fp_keys[k]),
                     std::vector<LabelId>(labels.begin(), labels.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The bytes of section `id` of an artifact.
std::string SectionBytes(const std::string& arena, uint32_t id) {
  Result<ArenaInfo> info = ParseArenaHeader(arena, "arena");
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  const ArenaSectionInfo* sec = info.ok() ? info->FindSection(id) : nullptr;
  return sec == nullptr ? std::string("<missing>")
                        : arena.substr(static_cast<size_t>(sec->offset),
                                       static_cast<size_t>(sec->length));
}

// The equivalence every dynamic snapshot rests on: adding graphs, erasing
// positions and refitting yields the index Build makes over the graphs
// that remain, in the order they remain in. The maintained dictionary keeps
// the removed graphs' branches and numbers appended ones last, so the two
// are compared through their contents, and through the artifact BuildArena
// writes, which renumbers both in content order.
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
  // Two commits, so the second copies a dictionary the first grew.
  maintained->AddGraphs(
      std::vector<Graph>{dataset_->db.graph(6), dataset_->db.graph(7)});
  maintained->AddGraphs(std::vector<Graph>{dataset_->db.graph(8)});
  // Positions 1, 4 and 7 hold graphs 1, 4 and 7.
  ASSERT_TRUE(maintained->RemoveGraphs({7, 1, 4}).ok());
  EXPECT_EQ(maintained->gbd_staleness(), 6u);
  ASSERT_TRUE(maintained->RefitGbdPrior().ok());

  const std::vector<size_t> remaining = {0, 2, 3, 5, 6, 8};
  Result<GbdaIndex> built = GbdaIndex::Build(database_of(remaining), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(maintained->num_graphs(), remaining.size());
  for (size_t p = 0; p < remaining.size(); ++p) {
    EXPECT_EQ(BranchesOf(*maintained, p), BranchesOf(*built, p))
        << "position " << p;
  }
  Result<std::string> maintained_arena = BuildArena(*maintained);
  Result<std::string> built_arena = BuildArena(*built);
  ASSERT_TRUE(maintained_arena.ok()) << maintained_arena.status().ToString();
  ASSERT_TRUE(built_arena.ok()) << built_arena.status().ToString();
  // Every table and Lambda2 byte for byte; Lambda3 may also hold rows the
  // maintained index cached for sizes it no longer has.
  for (const uint32_t id :
       {kSecGraphOffsets, kSecDictRoots, kSecDictLabelStart, kSecDictLabels,
        kSecGbdPrior, kSecGraphSizes, kSecFpKeys}) {
    EXPECT_EQ(SectionBytes(*maintained_arena, id),
              SectionBytes(*built_arena, id))
        << ArenaSectionName(id);
  }
  // The dead entries of graphs 1, 4 and 7 stay in the maintained
  // dictionary; the artifact drops them.
  EXPECT_GT(maintained->dictionary().size(), built->dictionary().size());
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
