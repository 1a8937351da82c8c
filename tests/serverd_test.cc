// Serving-front-end battery (src/net/server.h) over a frozen backend: the
// server runs in-process on a loopback ephemeral port and the acceptance
// contract is BIT-IDENTITY — every response served over the wire (including
// from N concurrent client connections) must reproduce the in-process
// GbdaService::QueryTopK answer exactly: match set, ordering, phi/gbd bit
// patterns and the deterministic scan counters. Protocol robustness rides
// along: malformed payloads answer kInvalidRequest and keep the connection,
// framing violations close it, mutations on a frozen backend answer
// kUnsupported.

#include "net/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gbda_index.h"
#include "datagen/dataset_profiles.h"
#include "net/client.h"
#include "service/gbda_service.h"

namespace gbda::net {
namespace {

SearchOptions BaseOptions() {
  SearchOptions options;
  options.tau_hat = 5;
  options.gamma = 0.5;
  return options;
}

/// One frozen serving stack shared by every test in this suite (the offline
/// build is the expensive part; the server itself starts in microseconds).
class ServerdTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = AidsProfile(0.02);
    Result<GeneratedDataset> dataset = GenerateDataset(profile);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*dataset));

    GbdaIndexOptions index_options;
    index_options.tau_max = 10;
    index_options.gbd_prior.num_sample_pairs = 500;
    index_options.model_vertex_labels =
        static_cast<int64_t>(profile.num_vertex_labels);
    index_options.model_edge_labels =
        static_cast<int64_t>(profile.num_edge_labels);
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, index_options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    ServiceOptions service_options;
    service_options.num_threads = 2;
    Result<std::unique_ptr<GbdaService>> service =
        GbdaService::Create(&dataset_->db, index_, service_options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = service->release();

    ServerConfig config;
    config.max_batch = 4;
    config.num_workers = 1;
    Result<std::unique_ptr<GbdaServer>> server =
        GbdaServer::Serve(service_, config);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server->release();
  }

  static void TearDownTestSuite() {
    delete server_;
    delete service_;
    delete index_;
    delete dataset_;
    server_ = nullptr;
    service_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static GbdaClient MustConnect() {
    Result<GbdaClient> client =
        GbdaClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : GbdaClient();
  }

  static TopKRequest MakeRequest(size_t query_idx, uint64_t k,
                                 const SearchOptions& options) {
    TopKRequest req;
    req.request_id = query_idx;
    req.k = k;
    req.options = options;
    req.query = dataset_->queries[query_idx % dataset_->queries.size()];
    return req;
  }

  /// The acceptance predicate: a wire response equals the in-process answer
  /// bit for bit on every deterministic field. pruned_by_bound and
  /// verified_count are timing-dependent under sharding (see SearchResult),
  /// so each side is only checked for adding up to candidates_evaluated.
  static void ExpectBitIdentical(const TopKResponse& wire,
                                 const SearchResult& local,
                                 const std::string& label) {
    ASSERT_EQ(wire.status, WireStatus::kOk) << label << ": " << wire.message;
    EXPECT_EQ(wire.candidates_evaluated, local.candidates_evaluated) << label;
    EXPECT_EQ(wire.prefiltered_out, local.prefiltered_out) << label;
    EXPECT_EQ(wire.pruned_by_bound + wire.verified_count,
              wire.candidates_evaluated)
        << label;
    EXPECT_EQ(local.pruned_by_bound + local.verified_count,
              local.candidates_evaluated)
        << label;
    ASSERT_EQ(wire.matches.size(), local.matches.size()) << label;
    for (size_t i = 0; i < local.matches.size(); ++i) {
      EXPECT_EQ(wire.matches[i].graph_id, local.matches[i].graph_id)
          << label << " match " << i;
      EXPECT_EQ(wire.matches[i].phi_score, local.matches[i].phi_score)
          << label << " match " << i;
      EXPECT_EQ(wire.matches[i].gbd, local.matches[i].gbd)
          << label << " match " << i;
    }
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static GbdaService* service_;
  static GbdaServer* server_;
};

GeneratedDataset* ServerdTest::dataset_ = nullptr;
GbdaIndex* ServerdTest::index_ = nullptr;
GbdaService* ServerdTest::service_ = nullptr;
GbdaServer* ServerdTest::server_ = nullptr;

TEST_F(ServerdTest, PingAndStatsRoundTrip) {
  GbdaClient client = MustConnect();
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping(123).ok());
  Result<StatsResponse> stats = client.Stats(124);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->request_id, 124u);
  EXPECT_GE(stats->stats.connections_opened, 1u);
  EXPECT_GE(stats->stats.frames_received, 1u);
  EXPECT_EQ(stats->stats.batch_size_histogram.size(), 4u);  // max_batch
}

TEST_F(ServerdTest, SingleClientServesBitIdenticalResults) {
  GbdaClient client = MustConnect();
  ASSERT_TRUE(client.connected());
  const SearchOptions options = BaseOptions();
  for (size_t qi = 0; qi < dataset_->queries.size(); ++qi) {
    Result<SearchResult> local =
        service_->QueryTopK(dataset_->queries[qi], 5, options);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    Result<TopKResponse> wire = client.QueryTopK(MakeRequest(qi, 5, options));
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire->request_id, qi);
    EXPECT_GE(wire->batch_size, 1u);
    ExpectBitIdentical(*wire, *local, "query " + std::to_string(qi));
  }
}

TEST_F(ServerdTest, ConcurrentClientsAllServeBitIdenticalResults) {
  const SearchOptions options = BaseOptions();
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 12;

  // In-process expectations, computed up front (deterministic).
  std::vector<SearchResult> expected;
  for (size_t qi = 0; qi < kQueriesPerClient; ++qi) {
    Result<SearchResult> local = service_->QueryTopK(
        dataset_->queries[qi % dataset_->queries.size()], 5, options);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    expected.push_back(std::move(*local));
  }

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<GbdaClient> client =
          GbdaClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (size_t qi = 0; qi < kQueriesPerClient; ++qi) {
        Result<TopKResponse> wire =
            client->QueryTopK(MakeRequest(qi, 5, options));
        if (!wire.ok()) {
          failures[c] = wire.status().ToString();
          return;
        }
        const SearchResult& local = expected[qi];
        bool same = wire->status == WireStatus::kOk &&
                    wire->matches.size() == local.matches.size() &&
                    wire->candidates_evaluated == local.candidates_evaluated &&
                    wire->prefiltered_out == local.prefiltered_out &&
                    wire->pruned_by_bound + wire->verified_count ==
                        wire->candidates_evaluated &&
                    local.pruned_by_bound + local.verified_count ==
                        local.candidates_evaluated;
        for (size_t i = 0; same && i < local.matches.size(); ++i) {
          same = wire->matches[i].graph_id == local.matches[i].graph_id &&
                 wire->matches[i].phi_score == local.matches[i].phi_score &&
                 wire->matches[i].gbd == local.matches[i].gbd;
        }
        if (!same) {
          failures[c] = "client " + std::to_string(c) + " query " +
                        std::to_string(qi) + " diverges";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << failures[c];
  }
}

TEST_F(ServerdTest, ShardedStatsReconcileExactlyUnderConcurrentClients) {
  // Regression for the stats path moving from a mutex-guarded struct to
  // sharded lock-free counters: once the burst quiesces, every delta must
  // reconcile exactly with what the clients actually sent — a sharded
  // counter that dropped or double-counted an increment shows up here.
  const WireServerStats before = server_->stats();
  const SearchOptions options = BaseOptions();
  constexpr size_t kClients = 8;
  constexpr size_t kQueriesPerClient = 16;

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<GbdaClient> client =
          GbdaClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (size_t qi = 0; qi < kQueriesPerClient; ++qi) {
        Result<TopKResponse> wire =
            client->QueryTopK(MakeRequest(qi, 5, options));
        if (!wire.ok()) {
          failures[c] = wire.status().ToString();
          return;
        }
        if (wire->status != WireStatus::kOk) {
          failures[c] = "client " + std::to_string(c) + " query " +
                        std::to_string(qi) + ": " + wire->message;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(failures[c].empty()) << failures[c];
  }

  const WireServerStats after = server_->stats();
  const uint64_t sent = kClients * kQueriesPerClient;
  EXPECT_EQ(after.connections_opened - before.connections_opened, kClients);
  EXPECT_EQ(after.frames_received - before.frames_received, sent);
  EXPECT_EQ(after.requests_accepted - before.requests_accepted, sent);
  EXPECT_EQ(after.responses_sent - before.responses_sent, sent);
  EXPECT_EQ(after.rejected_overloaded, before.rejected_overloaded);
  EXPECT_EQ(after.rejected_deadline, before.rejected_deadline);
  EXPECT_EQ(after.rejected_invalid, before.rejected_invalid);
  EXPECT_EQ(after.decode_errors, before.decode_errors);

  // Per-stage latency histograms: admission, queue and scan record once per
  // executed request; the batch (coalesce) stage records once per batch.
  ASSERT_EQ(after.stage_latency.size(), 4u);
  ASSERT_EQ(before.stage_latency.size(), 4u);
  EXPECT_EQ(after.stage_latency[0].count - before.stage_latency[0].count,
            sent);  // admission
  EXPECT_EQ(after.stage_latency[1].count - before.stage_latency[1].count,
            sent);  // queue
  EXPECT_EQ(after.stage_latency[3].count - before.stage_latency[3].count,
            sent);  // scan
  const uint64_t batches = after.batches_executed - before.batches_executed;
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, sent);
  EXPECT_EQ(after.stage_latency[2].count - before.stage_latency[2].count,
            batches);  // one coalesce record per batch

  // The batch-size histogram tiles the executed batches exactly.
  ASSERT_EQ(after.batch_size_histogram.size(),
            before.batch_size_histogram.size());
  uint64_t batches_from_histogram = 0;
  uint64_t requests_from_histogram = 0;
  for (size_t i = 0; i < after.batch_size_histogram.size(); ++i) {
    const uint64_t d =
        after.batch_size_histogram[i] - before.batch_size_histogram[i];
    batches_from_histogram += d;
    requests_from_histogram += d * (i + 1);
  }
  EXPECT_EQ(batches_from_histogram, batches);
  EXPECT_EQ(requests_from_histogram, sent);
}

TEST_F(ServerdTest, EdgeCaseKZeroIsDefinedEmpty) {
  GbdaClient client = MustConnect();
  Result<TopKResponse> wire = client.QueryTopK(MakeRequest(0, 0, BaseOptions()));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->status, WireStatus::kOk);
  EXPECT_TRUE(wire->matches.empty());
  Result<SearchResult> local =
      service_->QueryTopK(dataset_->queries[0], 0, BaseOptions());
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(wire->candidates_evaluated, local->candidates_evaluated);
}

TEST_F(ServerdTest, EdgeCaseKPastCorpusMatchesInProcess) {
  GbdaClient client = MustConnect();
  const uint64_t k = dataset_->db.size() + 100;
  Result<SearchResult> local =
      service_->QueryTopK(dataset_->queries[0], k, BaseOptions());
  ASSERT_TRUE(local.ok());
  Result<TopKResponse> wire = client.QueryTopK(MakeRequest(0, k, BaseOptions()));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ExpectBitIdentical(*wire, *local, "k past corpus");
  EXPECT_LE(wire->matches.size(), dataset_->db.size());
}

TEST_F(ServerdTest, EdgeCaseTauHatZeroMatchesInProcess) {
  SearchOptions options = BaseOptions();
  options.tau_hat = 0;
  GbdaClient client = MustConnect();
  Result<SearchResult> local =
      service_->QueryTopK(dataset_->queries[0], 5, options);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  Result<TopKResponse> wire = client.QueryTopK(MakeRequest(0, 5, options));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ExpectBitIdentical(*wire, *local, "tau_hat 0");
}

TEST_F(ServerdTest, MalformedPayloadAnswersInvalidAndKeepsTheConnection) {
  GbdaClient client = MustConnect();
  // Well-framed (valid header + CRC) but undecodable body.
  const std::string garbage = "\x01\x02\x03not a topk request";
  ASSERT_TRUE(
      client.SendBytes(EncodeFrame(MessageType::kTopKRequest, garbage)).ok());
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kTopKResponse);
  Result<TopKResponse> resp = DecodeTopKResponse(frame->payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, WireStatus::kInvalidRequest);
  // The connection survives: a normal request still succeeds on it.
  EXPECT_TRUE(client.Ping(9).ok());
  Result<TopKResponse> after = client.QueryTopK(MakeRequest(1, 3, BaseOptions()));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status, WireStatus::kOk);
}

TEST_F(ServerdTest, ResponseTypedFrameIsRejectedAsInvalid) {
  GbdaClient client = MustConnect();
  ASSERT_TRUE(client.SendBytes(EncodePingResponse({77})).ok());
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<TopKResponse> resp = DecodeTopKResponse(frame->payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, WireStatus::kInvalidRequest);
}

TEST_F(ServerdTest, FramingViolationClosesTheConnection) {
  const WireServerStats before = server_->stats();
  GbdaClient client = MustConnect();
  std::string bad = EncodePingRequest({1});
  bad[0] ^= 0x01;  // corrupt the magic
  ASSERT_TRUE(client.SendBytes(bad).ok());
  // The server must close this connection (no resync point); the read side
  // observes EOF or a reset.
  Result<Frame> frame = client.ReadFrame();
  EXPECT_FALSE(frame.ok());
  // The server itself is unaffected: fresh connections keep working.
  GbdaClient again = MustConnect();
  EXPECT_TRUE(again.Ping(1).ok());
  Result<StatsResponse> stats = again.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->stats.decode_errors, before.decode_errors);
}

TEST_F(ServerdTest, MutationOnFrozenBackendAnswersUnsupported) {
  GbdaClient client = MustConnect();
  MutateRequest req;
  req.request_id = 31;
  req.op = MutationOp::kFlush;
  Result<MutateResponse> resp = client.Mutate(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 31u);
  EXPECT_EQ(resp->status, WireStatus::kUnsupported);
}

TEST_F(ServerdTest, FrozenBackendReportsGenerationZero) {
  GbdaClient client = MustConnect();
  Result<TopKResponse> wire = client.QueryTopK(MakeRequest(0, 3, BaseOptions()));
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->generation, 0u);
}

}  // namespace
}  // namespace gbda::net
