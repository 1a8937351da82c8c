#include "service/gbda_service.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"

namespace gbda {
namespace {

// Bit-identical comparison: ids, exact phi doubles, GBDs, ordering and the
// scan counters must all match the serial engine (the serving layer's
// determinism contract, docs/ARCHITECTURE.md "Serving layer").
void ExpectSameResult(const SearchResult& serial, const SearchResult& sharded,
                      const std::string& label) {
  ASSERT_EQ(serial.matches.size(), sharded.matches.size()) << label;
  for (size_t i = 0; i < serial.matches.size(); ++i) {
    EXPECT_EQ(serial.matches[i].graph_id, sharded.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(serial.matches[i].phi_score, sharded.matches[i].phi_score)
        << label << " match " << i;
    EXPECT_EQ(serial.matches[i].gbd, sharded.matches[i].gbd)
        << label << " match " << i;
  }
  EXPECT_EQ(serial.candidates_evaluated, sharded.candidates_evaluated)
      << label;
  EXPECT_EQ(serial.prefiltered_out, sharded.prefiltered_out) << label;
}

class GbdaServiceTest : public ::testing::Test {
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
    serial_ = new GbdaSearch(&dataset_->db, index_);
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete index_;
    delete dataset_;
    serial_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static GbdaSearch* serial_;
};

GeneratedDataset* GbdaServiceTest::dataset_ = nullptr;
GbdaIndex* GbdaServiceTest::index_ = nullptr;
GbdaSearch* GbdaServiceTest::serial_ = nullptr;

TEST_F(GbdaServiceTest, ShardRangesTileTheDatabase) {
  for (size_t shards : {1u, 2u, 7u}) {
    GbdaService service(&dataset_->db, index_, ServiceOptions{1, shards, {}});
    ASSERT_EQ(service.num_shards(), shards);
    size_t expected_begin = 0;
    for (size_t s = 0; s < service.num_shards(); ++s) {
      const ShardRange range =
          ShardOf(s, service.num_shards(), dataset_->db.size());
      EXPECT_EQ(range.begin, expected_begin);
      EXPECT_GE(range.end - range.begin, dataset_->db.size() / shards);
      expected_begin = range.end;
    }
    EXPECT_EQ(expected_begin, dataset_->db.size());
  }
}

TEST_F(GbdaServiceTest, QueryMatchesSerialAcrossVariantsPrefilterAndShards) {
  for (GbdaVariant variant :
       {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
        GbdaVariant::kWeightedGbd}) {
    for (bool prefilter : {false, true}) {
      SearchOptions opts;
      opts.tau_hat = 6;
      opts.gamma = 0.4;
      opts.variant = variant;
      opts.vgbd_w = 0.5;
      opts.use_prefilter = prefilter;
      for (size_t q = 0; q < 3 && q < dataset_->queries.size(); ++q) {
        Result<SearchResult> serial =
            serial_->Query(dataset_->queries[q], opts);
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        for (size_t shards : {1u, 2u, 7u}) {
          ServiceOptions service_opts;
          service_opts.num_threads = 3;
          service_opts.num_shards = shards;
          GbdaService service(&dataset_->db, index_, service_opts);
          Result<SearchResult> sharded =
              service.Query(dataset_->queries[q], opts);
          ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
          ExpectSameResult(
              *serial, *sharded,
              "variant=" + std::to_string(static_cast<int>(variant)) +
                  " prefilter=" + std::to_string(prefilter) + " shards=" +
                  std::to_string(shards) + " query=" + std::to_string(q));
        }
      }
    }
  }
}

TEST_F(GbdaServiceTest, TopKMatchesSerialIncludingTieBreaks) {
  SearchOptions opts;
  opts.tau_hat = 6;
  const Graph& query = dataset_->queries[0];
  // SIZE_MAX guards the kNoTopK sentinel: an oversized k must still rank.
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}, dataset_->db.size() + 5,
                   std::numeric_limits<size_t>::max()}) {
    Result<SearchResult> serial = serial_->QueryTopK(query, k, opts);
    ASSERT_TRUE(serial.ok());
    for (size_t shards : {1u, 2u, 7u}) {
      ServiceOptions service_opts;
      service_opts.num_threads = 2;
      service_opts.num_shards = shards;
      GbdaService service(&dataset_->db, index_, service_opts);
      Result<SearchResult> sharded = service.QueryTopK(query, k, opts);
      ASSERT_TRUE(sharded.ok());
      ExpectSameResult(*serial, *sharded,
                       "k=" + std::to_string(k) + " shards=" +
                           std::to_string(shards));
    }
  }
}

TEST_F(GbdaServiceTest, BatchMatchesPerQuerySerialResults) {
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.5;
  ServiceOptions service_opts;
  service_opts.num_threads = 3;
  service_opts.num_shards = 7;
  GbdaService service(&dataset_->db, index_, service_opts);
  Result<std::vector<SearchResult>> batch =
      service.QueryBatch(dataset_->queries, opts);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), dataset_->queries.size());
  for (size_t q = 0; q < dataset_->queries.size(); ++q) {
    Result<SearchResult> serial = serial_->Query(dataset_->queries[q], opts);
    ASSERT_TRUE(serial.ok());
    ExpectSameResult(*serial, (*batch)[q], "batch query " + std::to_string(q));
  }
}

TEST_F(GbdaServiceTest, StatsAggregateAcrossCalls) {
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.5;
  GbdaService service(&dataset_->db, index_, ServiceOptions{2, 4, {}});
  ASSERT_TRUE(service.Query(dataset_->queries[0], opts).ok());
  Result<std::vector<SearchResult>> batch =
      service.QueryBatch(dataset_->queries, opts);
  ASSERT_TRUE(batch.ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_served, 1 + dataset_->queries.size());
  EXPECT_EQ(stats.batches_served, 1u);
  // One full-database scan per query (prefilter off).
  EXPECT_EQ(stats.candidates_evaluated,
            (1 + dataset_->queries.size()) * dataset_->db.size());
  EXPECT_EQ(stats.prefiltered_out, 0u);
  EXPECT_GT(stats.total_wall_seconds, 0.0);
  EXPECT_GT(stats.total_latency_seconds, 0.0);
  EXPECT_GT(stats.QueriesPerSecond(), 0.0);
  EXPECT_GT(stats.MeanLatencySeconds(), 0.0);
  service.ResetStats();
  EXPECT_EQ(service.stats().queries_served, 0u);
}

TEST_F(GbdaServiceTest, OversubscribedShardCountIsClamped) {
  // More shards than graphs: clamped so no shard is empty.
  ServiceOptions service_opts;
  service_opts.num_threads = 2;
  service_opts.num_shards = dataset_->db.size() * 10;
  GbdaService service(&dataset_->db, index_, service_opts);
  EXPECT_LE(service.num_shards(), dataset_->db.size());
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.5;
  Result<SearchResult> serial = serial_->Query(dataset_->queries[0], opts);
  Result<SearchResult> sharded = service.Query(dataset_->queries[0], opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(sharded.ok());
  ExpectSameResult(*serial, *sharded, "clamped shards");
}

TEST_F(GbdaServiceTest, RejectsDbIndexMismatchBothDirections) {
  // A database one graph short of the index — the "stale persisted
  // artifact" scenario in both directions.
  GraphDatabase smaller;
  smaller.vertex_labels() = dataset_->db.vertex_labels();
  smaller.edge_labels() = dataset_->db.edge_labels();
  for (size_t i = 0; i + 1 < dataset_->db.size(); ++i) {
    smaller.Add(dataset_->db.graph(i));
  }
  GbdaIndexOptions options;
  options.tau_max = 10;
  options.gbd_prior.num_sample_pairs = 500;
  Result<GbdaIndex> smaller_index = GbdaIndex::Build(smaller, options);
  ASSERT_TRUE(smaller_index.ok());

  SearchOptions opts;
  opts.tau_hat = 5;

  // Index larger than the database.
  {
    auto service = GbdaService::Create(&smaller, index_);
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
    auto search = GbdaSearch::Create(&smaller, index_);
    ASSERT_FALSE(search.ok());
    EXPECT_EQ(search.status().code(), StatusCode::kFailedPrecondition);
    // The unchecked constructor must still fail closed at query time,
    // before any out-of-bounds branch access.
    GbdaSearch raw(&smaller, index_);
    Result<SearchResult> r = raw.Query(dataset_->queries[0], opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  // Index smaller than the database.
  {
    auto service = GbdaService::Create(&dataset_->db, &*smaller_index);
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
    auto search = GbdaSearch::Create(&dataset_->db, &*smaller_index);
    ASSERT_FALSE(search.ok());
    GbdaService raw(&dataset_->db, &*smaller_index, ServiceOptions{2, 2, {}});
    Result<SearchResult> r = raw.Query(dataset_->queries[0], opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  // Matching pairs pass the checked factories.
  {
    auto service = GbdaService::Create(&dataset_->db, index_);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    Result<SearchResult> r = (*service)->Query(dataset_->queries[0], opts);
    EXPECT_TRUE(r.ok());
    auto search = GbdaSearch::Create(&smaller, &*smaller_index);
    EXPECT_TRUE(search.ok()) << search.status().ToString();
  }
  // A consistently tombstoned pair is rejected too: the frozen scan would
  // evaluate retired slots as empty multisets and could return removed
  // graphs as matches — mutable corpora belong to DynamicGbdaService.
  {
    ASSERT_TRUE(smaller.RemoveGraphs({0}).ok());
    ASSERT_TRUE(smaller_index->RemoveGraphs({0}).ok());
    auto search = GbdaSearch::Create(&smaller, &*smaller_index);
    ASSERT_FALSE(search.ok());
    EXPECT_EQ(search.status().code(), StatusCode::kFailedPrecondition);
    auto service = GbdaService::Create(&smaller, &*smaller_index);
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST_F(GbdaServiceTest, StatsExactUnderConcurrentClients) {
  // Regression for the ServiceStats synchronization contract: concurrent
  // client threads mixing Query and QueryBatch must leave exact aggregate
  // counters (a lost update would show up as a short count; under TSan the
  // unsynchronized writes themselves would be flagged).
  GbdaService service(&dataset_->db, index_, ServiceOptions{3, 4, {}});
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.5;
  constexpr size_t kClients = 6;
  constexpr size_t kQueriesPerClient = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &service, &opts, c] {
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        const Graph& q =
            dataset_->queries[(c + i) % dataset_->queries.size()];
        ASSERT_TRUE(service.Query(q, opts).ok());
      }
      ASSERT_TRUE(
          service
              .QueryBatch(Span<Graph>(dataset_->queries.data(), 2), opts)
              .ok());
    });
  }
  for (std::thread& t : clients) t.join();
  const ServiceStats stats = service.stats();
  const size_t expected_queries = kClients * (kQueriesPerClient + 2);
  EXPECT_EQ(stats.queries_served, expected_queries);
  EXPECT_EQ(stats.batches_served, kClients);
  EXPECT_EQ(stats.candidates_evaluated, expected_queries * dataset_->db.size());
  EXPECT_GT(stats.total_latency_seconds, 0.0);
  EXPECT_GT(stats.total_wall_seconds, 0.0);
}

TEST(ServiceStatsTest, QueriesPerSecondClampsSubTickWalls) {
  // A nonzero-query batch whose wall time rounds to a sub-tick 0.0 must
  // still report a nonzero QPS (the denominator is clamped, not the
  // result zeroed).
  ServiceStats stats;
  stats.queries_served = 5;
  stats.total_wall_seconds = 0.0;
  EXPECT_GT(stats.QueriesPerSecond(), 0.0);
  // No queries served stays 0 regardless of wall time.
  ServiceStats idle;
  idle.total_wall_seconds = 1.0;
  EXPECT_EQ(idle.QueriesPerSecond(), 0.0);
  // Normal walls are unaffected by the clamp.
  ServiceStats normal;
  normal.queries_served = 10;
  normal.total_wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(normal.QueriesPerSecond(), 5.0);
}

TEST_F(GbdaServiceTest, TopKZeroIsDefinedEmptyAndCounted) {
  GbdaService service(&dataset_->db, index_, ServiceOptions{2, 2, {}});
  SearchOptions opts;
  opts.tau_hat = 5;
  Result<SearchResult> r = service.QueryTopK(dataset_->queries[0], 0, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->matches.empty());
  EXPECT_EQ(r->candidates_evaluated, 0u);
  EXPECT_EQ(r->pruned_by_bound, 0u);
  // The API-boundary decision short-circuits before option validation, so
  // even an out-of-range tau_hat yields the defined empty ranking.
  SearchOptions bad_tau;
  bad_tau.tau_hat = index_->tau_max() + 1;
  EXPECT_TRUE(service.QueryTopK(dataset_->queries[0], 0, bad_tau).ok());
  Result<std::vector<SearchResult>> batch =
      service.QueryTopKBatch(dataset_->queries, 0, opts);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), dataset_->queries.size());
  for (const SearchResult& b : *batch) EXPECT_TRUE(b.matches.empty());
  // The served queries are still accounted for.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_served, 2 + dataset_->queries.size());
  EXPECT_EQ(stats.batches_served, 1u);
  EXPECT_EQ(stats.candidates_evaluated, 0u);
}

TEST_F(GbdaServiceTest, TauZeroServesExactBranchDuplicatesOnly) {
  // tau_hat = 0 end-to-end: Lambda1(0, phi) = [phi == 0], so only
  // candidates with GBD 0 carry posterior mass and survive the gamma cut —
  // with and without the prefilter (Passes at tau 0 keeps exactly the
  // profiles with lower bound 0), serially and sharded.
  const Graph query = dataset_->db.graph(0);
  for (bool prefilter : {false, true}) {
    SearchOptions opts;
    opts.tau_hat = 0;
    opts.gamma = 0.5;
    opts.use_prefilter = prefilter;
    Result<SearchResult> serial = serial_->Query(query, opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_FALSE(serial->matches.empty());
    bool found_self = false;
    for (const SearchMatch& m : serial->matches) {
      EXPECT_EQ(m.gbd, 0) << "prefilter=" << prefilter;
      EXPECT_GT(m.phi_score, 0.0);
      found_self |= m.graph_id == 0;
    }
    EXPECT_TRUE(found_self);
    for (size_t shards : {1u, 2u, 7u}) {
      GbdaService service(&dataset_->db, index_, ServiceOptions{2, shards, {}});
      Result<SearchResult> sharded = service.Query(query, opts);
      ASSERT_TRUE(sharded.ok());
      ExpectSameResult(*serial, *sharded,
                       "tau0 prefilter=" + std::to_string(prefilter) +
                           " shards=" + std::to_string(shards));
      // The ranking path at the tau boundary: pruned top-k must equal the
      // exhaustive ranking here too.
      SearchOptions exhaustive = opts;
      exhaustive.early_termination = false;
      Result<SearchResult> top_pruned = service.QueryTopK(query, 5, opts);
      Result<SearchResult> top_exhaustive =
          service.QueryTopK(query, 5, exhaustive);
      ASSERT_TRUE(top_pruned.ok());
      ASSERT_TRUE(top_exhaustive.ok());
      ExpectSameResult(*top_exhaustive, *top_pruned,
                       "tau0 topk prefilter=" + std::to_string(prefilter) +
                           " shards=" + std::to_string(shards));
    }
  }
}

TEST_F(GbdaServiceTest, RejectsTauBeyondIndex) {
  GbdaService service(&dataset_->db, index_, ServiceOptions{2, 2, {}});
  SearchOptions opts;
  opts.tau_hat = index_->tau_max() + 1;
  EXPECT_FALSE(service.Query(dataset_->queries[0], opts).ok());
  EXPECT_FALSE(service.QueryBatch(dataset_->queries, opts).ok());
  // A failed batch serves no queries.
  EXPECT_EQ(service.stats().queries_served, 0u);
}

}  // namespace
}  // namespace gbda
