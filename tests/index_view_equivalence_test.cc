// The storage engine's serving contract (docs/ARCHITECTURE.md, "Storage
// engine"): queries served through a GbdaIndexView over a mapped v4 arena
// are bit-identical — ids, exact phi doubles, GBDs, ordering, and the
// candidates/prefilter counters — to queries served through the in-memory
// GbdaIndex the artifact was written from, across every variant x
// prefilter x shard configuration, serially (GbdaSearch) and sharded
// (GbdaService).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

void ExpectSameResult(const SearchResult& owned, const SearchResult& mapped,
                      const std::string& label) {
  ASSERT_EQ(owned.matches.size(), mapped.matches.size()) << label;
  for (size_t i = 0; i < owned.matches.size(); ++i) {
    EXPECT_EQ(owned.matches[i].graph_id, mapped.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(owned.matches[i].phi_score, mapped.matches[i].phi_score)
        << label << " match " << i;
    EXPECT_EQ(owned.matches[i].gbd, mapped.matches[i].gbd)
        << label << " match " << i;
  }
  EXPECT_EQ(owned.candidates_evaluated, mapped.candidates_evaluated) << label;
  EXPECT_EQ(owned.prefiltered_out, mapped.prefiltered_out) << label;
}

class IndexViewEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = FingerprintProfile(0.03);
    profile.seed = 41;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 1500;
    Result<GbdaIndex> built = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    // Two access paths to the same index: the owned build output (columns
    // concatenated lazily from its per-graph ids) and the v4 arena written
    // from it, mapped in place.
    const std::string arena_path =
        ::testing::TempDir() + "/view_equivalence.v4";
    ASSERT_TRUE(WriteArenaFile(*built, arena_path).ok());
    built_ = new GbdaIndex(std::move(*built));
    Result<GbdaIndexView> view = GbdaIndexView::Open(arena_path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    view_ = new GbdaIndexView(std::move(*view));
  }
  static void TearDownTestSuite() {
    delete view_;
    delete built_;
    delete dataset_;
    view_ = nullptr;
    built_ = nullptr;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* built_;
  static GbdaIndexView* view_;
};

GeneratedDataset* IndexViewEquivalenceTest::dataset_ = nullptr;
GbdaIndex* IndexViewEquivalenceTest::built_ = nullptr;
GbdaIndexView* IndexViewEquivalenceTest::view_ = nullptr;

TEST_F(IndexViewEquivalenceTest, SerialScanAcrossVariantsAndPrefilter) {
  GbdaSearch search_owned(&dataset_->db, built_);
  GbdaSearch search_mapped(&dataset_->db, view_);
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 6);
  for (GbdaVariant variant : {GbdaVariant::kStandard,
                              GbdaVariant::kAverageSize,
                              GbdaVariant::kWeightedGbd}) {
    for (bool prefilter : {false, true}) {
      SearchOptions options;
      options.tau_hat = 6;
      options.gamma = 0.3;
      options.variant = variant;
      options.use_prefilter = prefilter;
      for (size_t q = 0; q < num_queries; ++q) {
        const std::string label =
            "variant=" + std::to_string(static_cast<int>(variant)) +
            " prefilter=" + std::to_string(prefilter) +
            " query=" + std::to_string(q);
        Result<SearchResult> owned =
            search_owned.Query(dataset_->queries[q], options);
        Result<SearchResult> mapped =
            search_mapped.Query(dataset_->queries[q], options);
        ASSERT_TRUE(owned.ok()) << label << ": " << owned.status().ToString();
        ASSERT_TRUE(mapped.ok()) << label << ": "
                                 << mapped.status().ToString();
        ExpectSameResult(*owned, *mapped, label);
      }
    }
  }
}

TEST_F(IndexViewEquivalenceTest, ShardedServiceAcrossShardCounts) {
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 4);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions service_options;
    service_options.num_threads = 3;
    service_options.num_shards = shards;
    Result<std::unique_ptr<GbdaService>> owned =
        GbdaService::Create(&dataset_->db, built_, service_options);
    Result<std::unique_ptr<GbdaService>> mapped =
        GbdaService::Create(&dataset_->db, view_, service_options);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    for (GbdaVariant variant : {GbdaVariant::kStandard,
                                GbdaVariant::kAverageSize,
                                GbdaVariant::kWeightedGbd}) {
      for (bool prefilter : {false, true}) {
        SearchOptions options;
        options.tau_hat = 6;
        options.gamma = 0.3;
        options.variant = variant;
        options.use_prefilter = prefilter;
        for (size_t q = 0; q < num_queries; ++q) {
          const std::string label =
              "shards=" + std::to_string(shards) +
              " variant=" + std::to_string(static_cast<int>(variant)) +
              " prefilter=" + std::to_string(prefilter) +
              " query=" + std::to_string(q);
          Result<SearchResult> a =
              (*owned)->Query(dataset_->queries[q], options);
          Result<SearchResult> b =
              (*mapped)->Query(dataset_->queries[q], options);
          ASSERT_TRUE(a.ok()) << label;
          ASSERT_TRUE(b.ok()) << label;
          ExpectSameResult(*a, *b, label);

          Result<SearchResult> ka =
              (*owned)->QueryTopK(dataset_->queries[q], 9, options);
          Result<SearchResult> kb =
              (*mapped)->QueryTopK(dataset_->queries[q], 9, options);
          ASSERT_TRUE(ka.ok()) << label;
          ASSERT_TRUE(kb.ok()) << label;
          ExpectSameResult(*ka, *kb, label + " topk");
        }
      }
    }
  }
}

TEST_F(IndexViewEquivalenceTest, ViewRejectsMismatchedDatabase) {
  // The same construction-time agreement check owned indexes get: a view
  // over yesterday's artifact must not attach to today's corpus.
  GraphDatabase other;
  other.vertex_labels().Intern("A");
  Graph g;
  g.AddVertex(0);
  other.Add(std::move(g));
  Result<std::unique_ptr<GbdaSearch>> search =
      GbdaSearch::Create(&other, view_);
  ASSERT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kFailedPrecondition);
  Result<std::unique_ptr<GbdaService>> service =
      GbdaService::Create(&other, view_, ServiceOptions());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gbda
