// Protocol battery for the wire codec (src/net/codec.h): round-trips for
// every message type, the exhaustive truncation sweep (every strict prefix
// of every frame and every strict prefix of every payload must fail or wait
// — never parse, never crash), hostile declared lengths, CRC bit-flip
// rejection, trailing-byte rejection and out-of-domain enum rejection —
// the same hardening contract as the arena loader (storage_test.cc,
// arena_columns_test.cc).

#include "net/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"

namespace gbda::net {
namespace {

Graph SampleGraph() {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(1);
  g.AddVertex(3);
  EXPECT_TRUE(g.AddEdge(0, 1, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 2).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 1).ok());
  return g;
}

SearchOptions SampleOptions() {
  SearchOptions options;
  options.tau_hat = 7;
  options.gamma = 0.25;
  options.variant = GbdaVariant::kAverageSize;
  options.vgbd_w = 1.5;
  options.v1_sample_alpha = 3;
  options.seed = 42;
  options.use_prefilter = true;
  options.early_termination = true;
  options.approximate = true;
  options.search_window_size = 96;
  return options;
}

TopKRequest SampleTopKRequest() {
  TopKRequest msg;
  msg.request_id = 11;
  msg.k = 5;
  msg.deadline_ms = 250;
  msg.options = SampleOptions();
  msg.query = SampleGraph();
  return msg;
}

TopKResponse SampleTopKResponse() {
  TopKResponse msg;
  msg.request_id = 12;
  msg.status = WireStatus::kOk;
  msg.generation = 9;
  msg.candidates_evaluated = 100;
  msg.prefiltered_out = 40;
  msg.pruned_by_bound = 25;
  msg.candidates_visited = 33;
  msg.verified_count = 75;
  msg.queue_micros = 314;
  msg.batch_size = 4;
  msg.admission_micros = 7;
  msg.batch_micros = 42;
  msg.scan_micros = 2718;
  msg.matches.push_back({3, 0.875, 2});
  msg.matches.push_back({17, 0.25, 5});
  return msg;
}

MutateRequest SampleMutateRequest() {
  MutateRequest msg;
  msg.request_id = 13;
  msg.op = MutationOp::kAddGraphs;
  msg.deadline_ms = 500;
  msg.graphs.push_back(SampleGraph());
  msg.graphs.push_back(Graph());
  msg.ids = {4, 9};
  msg.label = "carbon";
  return msg;
}

MutateResponse SampleMutateResponse() {
  MutateResponse msg;
  msg.request_id = 14;
  msg.status = WireStatus::kInvalidRequest;
  msg.message = "unknown id";
  msg.generation = 6;
  msg.assigned_ids = {21, 22};
  msg.label_id = 8;
  return msg;
}

StatsResponse SampleStatsResponse() {
  StatsResponse msg;
  msg.request_id = 15;
  msg.stats.connections_opened = 3;
  msg.stats.frames_received = 120;
  msg.stats.requests_accepted = 100;
  msg.stats.rejected_overloaded = 7;
  msg.stats.batches_executed = 30;
  msg.stats.batch_size_histogram = {20, 8, 2};
  // Four per-stage summaries in obs::QueryStage order (v3).
  for (uint64_t s = 0; s < 4; ++s) {
    WireStageStats stage;
    stage.count = 100 + s;
    stage.sum_micros = 5000 * (s + 1);
    stage.min_micros = s;
    stage.max_micros = 900 + s;
    stage.p50_micros = 40 + s;
    stage.p99_micros = 400 + s;
    stage.p999_micros = 800 + s;
    msg.stats.stage_latency.push_back(stage);
  }
  return msg;
}

/// Every message type, encoded as a complete frame. The protocol battery
/// iterates this list so adding a message type without extending the sweep
/// is impossible (the count assertion below fails).
std::vector<std::pair<std::string, std::string>> AllFrames() {
  std::vector<std::pair<std::string, std::string>> frames;
  frames.emplace_back("ping request", EncodePingRequest({21}));
  frames.emplace_back("ping response", EncodePingResponse({22}));
  frames.emplace_back("topk request", EncodeTopKRequest(SampleTopKRequest()));
  frames.emplace_back("topk response",
                      EncodeTopKResponse(SampleTopKResponse()));
  frames.emplace_back("mutate request",
                      EncodeMutateRequest(SampleMutateRequest()));
  frames.emplace_back("mutate response",
                      EncodeMutateResponse(SampleMutateResponse()));
  frames.emplace_back("stats request", EncodeStatsRequest({23}));
  frames.emplace_back("stats response",
                      EncodeStatsResponse(SampleStatsResponse()));
  return frames;
}

/// Decodes a payload as its message type; returns the decode status.
Status DecodeAs(MessageType type, std::string_view payload) {
  switch (type) {
    case MessageType::kPingRequest:
      return DecodePingRequest(payload).status();
    case MessageType::kPingResponse:
      return DecodePingResponse(payload).status();
    case MessageType::kTopKRequest:
      return DecodeTopKRequest(payload).status();
    case MessageType::kTopKResponse:
      return DecodeTopKResponse(payload).status();
    case MessageType::kMutateRequest:
      return DecodeMutateRequest(payload).status();
    case MessageType::kMutateResponse:
      return DecodeMutateResponse(payload).status();
    case MessageType::kStatsRequest:
      return DecodeStatsRequest(payload).status();
    case MessageType::kStatsResponse:
      return DecodeStatsResponse(payload).status();
  }
  return Status::Internal("unreachable");
}

/// Feeds `bytes` to a fresh decoder and returns the first Next() result.
Result<std::optional<Frame>> FeedOnce(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  return decoder.Next();
}

// ---------------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------------

TEST(NetCodecTest, FrameRoundTripsEveryMessageType) {
  const auto frames = AllFrames();
  ASSERT_EQ(frames.size(), static_cast<size_t>(kMaxMessageType));
  for (const auto& [name, bytes] : frames) {
    Result<std::optional<Frame>> frame = FeedOnce(bytes);
    ASSERT_TRUE(frame.ok()) << name << ": " << frame.status().ToString();
    ASSERT_TRUE(frame->has_value()) << name;
    EXPECT_TRUE(DecodeAs((*frame)->type, (*frame)->payload).ok()) << name;
  }
}

TEST(NetCodecTest, TopKRequestRoundTripPreservesEveryField) {
  const TopKRequest original = SampleTopKRequest();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeTopKRequest(original));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  Result<TopKRequest> decoded = DecodeTopKRequest((*frame)->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, original.request_id);
  EXPECT_EQ(decoded->k, original.k);
  EXPECT_EQ(decoded->deadline_ms, original.deadline_ms);
  EXPECT_EQ(decoded->options.tau_hat, original.options.tau_hat);
  EXPECT_EQ(decoded->options.gamma, original.options.gamma);
  EXPECT_EQ(decoded->options.variant, original.options.variant);
  EXPECT_EQ(decoded->options.vgbd_w, original.options.vgbd_w);
  EXPECT_EQ(decoded->options.v1_sample_alpha, original.options.v1_sample_alpha);
  EXPECT_EQ(decoded->options.seed, original.options.seed);
  EXPECT_EQ(decoded->options.use_prefilter, original.options.use_prefilter);
  EXPECT_EQ(decoded->options.early_termination,
            original.options.early_termination);
  EXPECT_EQ(decoded->options.approximate, original.options.approximate);
  EXPECT_EQ(decoded->options.search_window_size,
            original.options.search_window_size);
  EXPECT_EQ(decoded->query.num_vertices(), original.query.num_vertices());
  EXPECT_EQ(decoded->query.num_edges(), original.query.num_edges());
  EXPECT_EQ(decoded->query.SortedEdges(), original.query.SortedEdges());
}

TEST(NetCodecTest, TopKResponseRoundTripPreservesMatchesBitExactly) {
  const TopKResponse original = SampleTopKResponse();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeTopKResponse(original));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  Result<TopKResponse> decoded = DecodeTopKResponse((*frame)->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->generation, original.generation);
  EXPECT_EQ(decoded->candidates_evaluated, original.candidates_evaluated);
  EXPECT_EQ(decoded->candidates_visited, original.candidates_visited);
  EXPECT_EQ(decoded->verified_count, original.verified_count);
  EXPECT_EQ(decoded->queue_micros, original.queue_micros);
  EXPECT_EQ(decoded->batch_size, original.batch_size);
  EXPECT_EQ(decoded->admission_micros, original.admission_micros);
  EXPECT_EQ(decoded->batch_micros, original.batch_micros);
  EXPECT_EQ(decoded->scan_micros, original.scan_micros);
  ASSERT_EQ(decoded->matches.size(), original.matches.size());
  for (size_t i = 0; i < original.matches.size(); ++i) {
    EXPECT_EQ(decoded->matches[i].graph_id, original.matches[i].graph_id);
    EXPECT_EQ(decoded->matches[i].phi_score, original.matches[i].phi_score);
    EXPECT_EQ(decoded->matches[i].gbd, original.matches[i].gbd);
  }
}

TEST(NetCodecTest, MutateRequestRoundTripPreservesGraphsIdsAndLabel) {
  const MutateRequest original = SampleMutateRequest();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeMutateRequest(original));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  Result<MutateRequest> decoded = DecodeMutateRequest((*frame)->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, original.op);
  ASSERT_EQ(decoded->graphs.size(), original.graphs.size());
  EXPECT_EQ(decoded->graphs[0].SortedEdges(), original.graphs[0].SortedEdges());
  EXPECT_EQ(decoded->graphs[1].num_vertices(), 0u);
  EXPECT_EQ(decoded->ids, original.ids);
  EXPECT_EQ(decoded->label, original.label);
}

// ---------------------------------------------------------------------------
// Stream reassembly
// ---------------------------------------------------------------------------

TEST(NetCodecTest, ByteAtATimeDeliveryYieldsExactlyOneFrame) {
  const std::string bytes = EncodeTopKRequest(SampleTopKRequest());
  FrameDecoder decoder;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(bytes.data() + i, 1);
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok()) << "byte " << i;
    EXPECT_FALSE(next->has_value()) << "frame complete early at byte " << i;
  }
  decoder.Feed(bytes.data() + bytes.size() - 1, 1);
  Result<std::optional<Frame>> next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->type, MessageType::kTopKRequest);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetCodecTest, PipelinedFramesDecodeInOrder) {
  std::string bytes = EncodePingRequest({1});
  bytes += EncodeTopKRequest(SampleTopKRequest());
  bytes += EncodeStatsRequest({2});
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  const MessageType expected[] = {MessageType::kPingRequest,
                                  MessageType::kTopKRequest,
                                  MessageType::kStatsRequest};
  for (MessageType type : expected) {
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok() && next->has_value());
    EXPECT_EQ((*next)->type, type);
  }
  Result<std::optional<Frame>> done = decoder.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
}

// ---------------------------------------------------------------------------
// The truncation sweep
// ---------------------------------------------------------------------------

TEST(NetCodecTest, EveryStrictFramePrefixWaitsOrFailsNeverParses) {
  for (const auto& [name, bytes] : AllFrames()) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      Result<std::optional<Frame>> next = FeedOnce(bytes.substr(0, len));
      // A strict prefix has a complete valid frame only if the cut removed
      // bytes the header still promises — so Next() must either wait for
      // more bytes or (never here: the header itself is valid) fail. It
      // must never produce a frame.
      ASSERT_TRUE(next.ok()) << name << " prefix " << len << ": "
                             << next.status().ToString();
      ASSERT_FALSE(next->has_value()) << name << " prefix " << len;
    }
  }
}

TEST(NetCodecTest, EveryStrictPayloadPrefixFailsToDecode) {
  for (const auto& [name, bytes] : AllFrames()) {
    Result<std::optional<Frame>> whole = FeedOnce(bytes);
    ASSERT_TRUE(whole.ok() && whole->has_value()) << name;
    const Frame& frame = **whole;
    for (size_t len = 0; len < frame.payload.size(); ++len) {
      const Status status =
          DecodeAs(frame.type, std::string_view(frame.payload).substr(0, len));
      EXPECT_FALSE(status.ok()) << name << " payload prefix " << len;
    }
  }
}

TEST(NetCodecTest, TrailingBytesAfterEveryMessageAreRejected) {
  for (const auto& [name, bytes] : AllFrames()) {
    Result<std::optional<Frame>> whole = FeedOnce(bytes);
    ASSERT_TRUE(whole.ok() && whole->has_value()) << name;
    const Frame& frame = **whole;
    const std::string padded = frame.payload + std::string(1, '\0');
    EXPECT_FALSE(DecodeAs(frame.type, padded).ok()) << name;
  }
}

// ---------------------------------------------------------------------------
// Hostile headers
// ---------------------------------------------------------------------------

std::string ValidHeaderWithPayloadLen(uint64_t payload_len) {
  BinaryWriter w;
  w.PutU32(kWireMagic);
  w.PutU32(kWireVersion);
  w.PutU32(static_cast<uint32_t>(MessageType::kPingRequest));
  w.PutU64(payload_len);
  w.PutU32(0);  // CRC never reached: the length check fires first
  return std::move(w).TakeBuffer();
}

TEST(NetCodecTest, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  for (uint64_t hostile :
       {kMaxPayloadBytes + 1, uint64_t{1} << 48, ~uint64_t{0}}) {
    Result<std::optional<Frame>> next =
        FeedOnce(ValidHeaderWithPayloadLen(hostile));
    EXPECT_FALSE(next.ok()) << "declared length " << hostile;
  }
}

TEST(NetCodecTest, BadMagicVersionAndTypeAreRejected) {
  const std::string good = EncodePingRequest({1});

  std::string bad_magic = good;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(FeedOnce(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = 0x7f;
  EXPECT_FALSE(FeedOnce(bad_version).ok());

  std::string type_zero = good;
  std::memset(&type_zero[8], 0, 4);
  EXPECT_FALSE(FeedOnce(type_zero).ok());

  std::string type_past_max = good;
  type_past_max[8] = static_cast<char>(kMaxMessageType + 1);
  EXPECT_FALSE(FeedOnce(type_past_max).ok());
}

TEST(NetCodecTest, PayloadBitFlipFailsTheCrc) {
  const std::string good = EncodeTopKRequest(SampleTopKRequest());
  ASSERT_GT(good.size(), kFrameHeaderBytes);
  // Flip one bit in every payload byte position (each its own stream).
  for (size_t pos = kFrameHeaderBytes; pos < good.size(); ++pos) {
    std::string corrupted = good;
    corrupted[pos] ^= 0x20;
    Result<std::optional<Frame>> next = FeedOnce(corrupted);
    EXPECT_FALSE(next.ok()) << "payload byte " << (pos - kFrameHeaderBytes);
  }
}

TEST(NetCodecTest, HeaderCrcFieldBitFlipFailsTheCrc) {
  std::string corrupted = EncodeTopKRequest(SampleTopKRequest());
  corrupted[20] ^= 0x01;  // the payload_crc field itself
  EXPECT_FALSE(FeedOnce(corrupted).ok());
}

// ---------------------------------------------------------------------------
// Hostile payloads (well-framed, malformed bodies)
// ---------------------------------------------------------------------------

TEST(NetCodecTest, StructurallyInvalidGraphIsRejected) {
  // Vertex count 2, one edge referencing vertex 5: DecodeGraph must push the
  // edge through Graph::AddEdge validation and fail.
  BinaryWriter w;
  w.PutU64(77);   // request_id
  w.PutU64(3);    // k
  w.PutU64(0);    // deadline
  EncodeSearchOptions(SearchOptions(), &w);
  w.PutPodVector(std::vector<LabelId>{1, 2});  // two vertices
  std::vector<Graph::EdgeTriple> edges;
  edges.push_back({0, 5, 1});
  w.PutPodVector(edges);
  EXPECT_FALSE(DecodeTopKRequest(w.buffer()).ok());
}

TEST(NetCodecTest, OutOfDomainSearchVariantAndFlagsAreRejected) {
  const TopKRequest msg = SampleTopKRequest();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeTopKRequest(msg));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  std::string payload = (*frame)->payload;
  // SearchOptions layout after the three leading u64s: tau(i64) gamma(f64)
  // variant(u32) ...
  const size_t variant_at = 24 + 8 + 8;
  payload[variant_at] = 0x7f;
  EXPECT_FALSE(DecodeTopKRequest(payload).ok());

  payload = (*frame)->payload;
  const size_t flags_at = variant_at + 4 + 8 + 8 + 8;
  payload[flags_at] = 0x08;  // bit past the three defined flags
  EXPECT_FALSE(DecodeTopKRequest(payload).ok());

  // 0x04 IS defined (approximate mode, wire v2) and must decode.
  payload = (*frame)->payload;
  payload[flags_at] = 0x04;
  Result<TopKRequest> approximate = DecodeTopKRequest(payload);
  ASSERT_TRUE(approximate.ok()) << approximate.status().ToString();
  EXPECT_TRUE(approximate->options.approximate);
  EXPECT_FALSE(approximate->options.use_prefilter);
}

TEST(NetCodecTest, ZeroSearchWindowIsRejected) {
  // A window of 0 could never hold a result; the decoder rejects it at the
  // wire so the serving layers never see one.
  const TopKRequest msg = SampleTopKRequest();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeTopKRequest(msg));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  std::string payload = (*frame)->payload;
  const size_t window_at = 24 + 8 + 8 + 4 + 8 + 8 + 8 + 4;
  const uint64_t zero = 0;
  std::memcpy(&payload[window_at], &zero, sizeof(zero));
  EXPECT_FALSE(DecodeTopKRequest(payload).ok());
}

TEST(NetCodecTest, HostileMatchCountIsRejectedWithoutAllocation) {
  TopKResponse msg = SampleTopKResponse();
  msg.matches.clear();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeTopKResponse(msg));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  std::string payload = (*frame)->payload;
  // The match count is the final u64 of the payload (empty match list).
  ASSERT_GE(payload.size(), 8u);
  const uint64_t hostile = ~uint64_t{0};
  std::memcpy(&payload[payload.size() - 8], &hostile, 8);
  EXPECT_FALSE(DecodeTopKResponse(payload).ok());
}

TEST(NetCodecTest, HostileMutateGraphCountIsRejectedWithoutAllocation) {
  MutateRequest msg;
  msg.op = MutationOp::kRemoveGraphs;
  Result<std::optional<Frame>> frame = FeedOnce(EncodeMutateRequest(msg));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  std::string payload = (*frame)->payload;
  // Layout: request_id u64, op u32, deadline u64, graph count u64.
  const size_t count_at = 8 + 4 + 8;
  const uint64_t hostile = uint64_t{1} << 60;
  std::memcpy(&payload[count_at], &hostile, 8);
  EXPECT_FALSE(DecodeMutateRequest(payload).ok());
}

TEST(NetCodecTest, StatsResponseRoundTripPreservesStageLatency) {
  const StatsResponse original = SampleStatsResponse();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeStatsResponse(original));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  Result<StatsResponse> decoded = DecodeStatsResponse((*frame)->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.requests_accepted,
            original.stats.requests_accepted);
  EXPECT_EQ(decoded->stats.batch_size_histogram,
            original.stats.batch_size_histogram);
  ASSERT_EQ(decoded->stats.stage_latency.size(),
            original.stats.stage_latency.size());
  for (size_t i = 0; i < original.stats.stage_latency.size(); ++i) {
    const WireStageStats& a = original.stats.stage_latency[i];
    const WireStageStats& b = decoded->stats.stage_latency[i];
    EXPECT_EQ(b.count, a.count);
    EXPECT_EQ(b.sum_micros, a.sum_micros);
    EXPECT_EQ(b.min_micros, a.min_micros);
    EXPECT_EQ(b.max_micros, a.max_micros);
    EXPECT_EQ(b.p50_micros, a.p50_micros);
    EXPECT_EQ(b.p99_micros, a.p99_micros);
    EXPECT_EQ(b.p999_micros, a.p999_micros);
  }
}

TEST(NetCodecTest, HostileStageStatsCountIsRejectedWithoutAllocation) {
  StatsResponse msg = SampleStatsResponse();
  msg.stats.stage_latency.clear();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeStatsResponse(msg));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  std::string payload = (*frame)->payload;
  // The stage count is the final u64 of the payload (empty stage list).
  ASSERT_GE(payload.size(), 8u);
  const uint64_t hostile = ~uint64_t{0};
  std::memcpy(&payload[payload.size() - 8], &hostile, 8);
  EXPECT_FALSE(DecodeStatsResponse(payload).ok());
}

TEST(NetCodecTest, UnknownWireStatusAndMutationOpAreRejected) {
  MutateResponse resp = SampleMutateResponse();
  Result<std::optional<Frame>> frame = FeedOnce(EncodeMutateResponse(resp));
  ASSERT_TRUE(frame.ok() && frame->has_value());
  std::string payload = (*frame)->payload;
  payload[8] = static_cast<char>(kMaxWireStatus + 1);  // status after id
  EXPECT_FALSE(DecodeMutateResponse(payload).ok());

  MutateRequest req = SampleMutateRequest();
  Result<std::optional<Frame>> req_frame =
      FeedOnce(EncodeMutateRequest(req));
  ASSERT_TRUE(req_frame.ok() && req_frame->has_value());
  std::string req_payload = (*req_frame)->payload;
  req_payload[8] = 0;  // op = 0 (reserved)
  EXPECT_FALSE(DecodeMutateRequest(req_payload).ok());
  req_payload[8] = static_cast<char>(kMaxMutationOp + 1);
  EXPECT_FALSE(DecodeMutateRequest(req_payload).ok());
}

TEST(NetCodecTest, DecoderBufferCompactsAcrossManyFrames) {
  // A long-lived connection must not grow the decoder buffer without bound:
  // after many decode cycles the buffered prefix stays bounded by roughly
  // one frame.
  FrameDecoder decoder;
  const std::string bytes = EncodePingRequest({5});
  for (int i = 0; i < 1000; ++i) {
    decoder.Feed(bytes.data(), bytes.size());
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok() && next->has_value());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace gbda::net
