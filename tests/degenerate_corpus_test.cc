// Degenerate corpora across the serving stack (ISSUE 4 satellite): the
// empty index left when every graph is removed, a GbdaIndexView
// over a zero-graph v4 artifact, and a DynamicGbdaService whose corpus was
// fully retired — all across variants x prefilter x shard counts. Every
// path must answer with clean empty results, never fault or reject.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

const GbdaVariant kAllVariants[] = {GbdaVariant::kStandard,
                                    GbdaVariant::kAverageSize,
                                    GbdaVariant::kWeightedGbd};

SearchOptions MakeOptions(GbdaVariant variant, bool prefilter) {
  SearchOptions options;
  options.tau_hat = 4;
  options.gamma = 0.2;
  options.variant = variant;
  options.use_prefilter = prefilter;
  return options;
}

void ExpectEmptyResult(const Result<SearchResult>& result,
                       const std::string& label) {
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  EXPECT_TRUE(result->matches.empty()) << label;
  EXPECT_EQ(result->candidates_evaluated, 0u) << label;
  EXPECT_EQ(result->prefiltered_out, 0u) << label;
}

class DegenerateCorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = FingerprintProfile(0.02);
    profile.seed = 13;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// An index whose every graph was removed.
  static GbdaIndex EmptyIndex() {
    GbdaIndexOptions options;
    options.tau_max = 6;
    options.gbd_prior.num_sample_pairs = 200;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    EXPECT_TRUE(index.ok());
    std::vector<size_t> all_positions(index->num_graphs());
    for (size_t i = 0; i < all_positions.size(); ++i) all_positions[i] = i;
    EXPECT_TRUE(index->RemoveGraphs(all_positions).ok());
    EXPECT_EQ(index->num_graphs(), 0u);
    return std::move(*index);
  }

  static GeneratedDataset* dataset_;
};

GeneratedDataset* DegenerateCorpusTest::dataset_ = nullptr;

TEST_F(DegenerateCorpusTest, AllRemovedIndexServesEmptyResults) {
  const GbdaIndex empty_index = EmptyIndex();
  GraphDatabase empty_db;
  // Nothing to describe: the column vectors are empty, and no scan reads
  // them.
  EXPECT_FALSE(empty_index.columns().present());

  // Serial scans, every variant x prefilter.
  GbdaSearch search(&empty_db, &empty_index);
  for (GbdaVariant variant : kAllVariants) {
    for (bool prefilter : {false, true}) {
      const std::string label =
          "serial variant=" + std::to_string(static_cast<int>(variant)) +
          " prefilter=" + std::to_string(prefilter);
      ExpectEmptyResult(search.Query(dataset_->queries[0],
                                     MakeOptions(variant, prefilter)),
                        label);
      ExpectEmptyResult(search.QueryTopK(dataset_->queries[0], 5,
                                         MakeOptions(variant, prefilter)),
                        label + " topk");
    }
  }

  // Sharded service, every shard count (clamped to one empty shard).
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.num_shards = shards;
    Result<std::unique_ptr<GbdaService>> service =
        GbdaService::Create(&empty_db, &empty_index, service_options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (GbdaVariant variant : kAllVariants) {
      for (bool prefilter : {false, true}) {
        const std::string label =
            "service shards=" + std::to_string(shards) +
            " variant=" + std::to_string(static_cast<int>(variant)) +
            " prefilter=" + std::to_string(prefilter);
        ExpectEmptyResult((*service)->Query(dataset_->queries[0],
                                            MakeOptions(variant, prefilter)),
                          label);
        ExpectEmptyResult(
            (*service)->QueryTopK(dataset_->queries[0], 3,
                                  MakeOptions(variant, prefilter)),
            label + " topk");
      }
    }
  }
}

TEST_F(DegenerateCorpusTest, ZeroGraphArenaRoundTripsAndServes) {
  const GbdaIndex empty_index = EmptyIndex();
  const std::string path = ::testing::TempDir() + "/degenerate_empty.v4";
  // The empty index is the one stale-prior exception the writer admits: its
  // Lambda2 cannot be refit over zero graphs.
  ASSERT_TRUE(WriteArenaFile(empty_index, path).ok());

  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  Result<GbdaIndexView> view = GbdaIndexView::Open(path, verify);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->num_graphs(), 0u);
  EXPECT_EQ(view->total_branches(), 0u);
  EXPECT_EQ(view->dictionary().size(), 0u);

  GraphDatabase empty_db;
  GbdaSearch search(&empty_db, &*view);
  for (GbdaVariant variant : kAllVariants) {
    for (bool prefilter : {false, true}) {
      const std::string label =
          "view variant=" + std::to_string(static_cast<int>(variant)) +
          " prefilter=" + std::to_string(prefilter);
      ExpectEmptyResult(search.Query(dataset_->queries[0],
                                     MakeOptions(variant, prefilter)),
                        label);
    }
  }
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.num_shards = shards;
    Result<std::unique_ptr<GbdaService>> service =
        GbdaService::Create(&empty_db, &*view, service_options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (GbdaVariant variant : kAllVariants) {
      ExpectEmptyResult(
          (*service)->Query(dataset_->queries[0],
                            MakeOptions(variant, /*prefilter=*/true)),
          "view service shards=" + std::to_string(shards));
    }
  }

  // The mandatory columns are there, with a one-entry fp_offsets.
  EXPECT_EQ(view->columns().fp_offsets[0], 0u);
}

TEST_F(DegenerateCorpusTest, DynamicServiceSurvivesFullRetirement) {
  GraphDatabase db;
  // Rebuild a private corpus so the service can own it.
  Result<GeneratedDataset> ds = [] {
    DatasetProfile profile = FingerprintProfile(0.02);
    profile.seed = 13;
    return GenerateDataset(profile);
  }();
  ASSERT_TRUE(ds.ok());
  GbdaIndexOptions index_options;
  index_options.tau_max = 6;
  index_options.gbd_prior.num_sample_pairs = 200;
  DynamicServiceOptions options;
  options.service.num_threads = 2;
  options.service.num_shards = 3;
  Result<std::unique_ptr<DynamicGbdaService>> service =
      DynamicGbdaService::Create(std::move(ds->db), index_options, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<size_t> all_ids((*service)->num_live());
  for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
  ASSERT_TRUE((*service)->RemoveGraphs(all_ids).ok());
  EXPECT_EQ((*service)->num_live(), 0u);

  for (GbdaVariant variant : kAllVariants) {
    for (bool prefilter : {false, true}) {
      const std::string label =
          "dynamic variant=" + std::to_string(static_cast<int>(variant)) +
          " prefilter=" + std::to_string(prefilter);
      ExpectEmptyResult((*service)->Query(ds->queries[0],
                                          MakeOptions(variant, prefilter)),
                        label);
      ExpectEmptyResult((*service)->QueryTopK(
                            ds->queries[0], 4, MakeOptions(variant, prefilter)),
                        label + " topk");
    }
  }

  // The corpus comes back to life: adds after full retirement serve again.
  Graph g;
  g.AddVertex(0);
  Result<size_t> added = (*service)->AddGraph(std::move(g));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ((*service)->num_live(), 1u);
  Result<SearchResult> after =
      (*service)->Query(ds->queries[0], MakeOptions(GbdaVariant::kStandard,
                                                    /*prefilter=*/false));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->candidates_evaluated, 1u);
}

}  // namespace
}  // namespace gbda
