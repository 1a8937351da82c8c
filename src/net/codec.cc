#include "net/codec.h"

#include <cstring>

#include "common/crc32.h"

namespace gbda::net {

namespace {

/// Shared tail check: every message decoder calls this last so a payload
/// with valid fields followed by junk is rejected, exactly like the arena's
/// prior-section decoders (storage/index_view.cc).
Status RejectTrailing(const BinaryReader& reader) {
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        reader.DescribeHere("trailing bytes after message"));
  }
  return Status::OK();
}

Result<WireStatus> GetWireStatus(BinaryReader* reader) {
  Result<uint32_t> raw = reader->GetU32();
  if (!raw.ok()) return raw.status();
  if (*raw > kMaxWireStatus) {
    return Status::InvalidArgument(
        reader->DescribeHere("unknown wire status " + std::to_string(*raw)));
  }
  return static_cast<WireStatus>(*raw);
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "Ok";
    case WireStatus::kInvalidRequest:
      return "InvalidRequest";
    case WireStatus::kOverloaded:
      return "Overloaded";
    case WireStatus::kDeadlineExceeded:
      return "DeadlineExceeded";
    case WireStatus::kUnsupported:
      return "Unsupported";
    case WireStatus::kInternal:
      return "Internal";
    case WireStatus::kShuttingDown:
      return "ShuttingDown";
  }
  return "Unknown";
}

std::string EncodeFrame(MessageType type, std::string_view payload) {
  BinaryWriter header;
  header.PutU32(kWireMagic);
  header.PutU32(kWireVersion);
  header.PutU32(static_cast<uint32_t>(type));
  header.PutU64(payload.size());
  header.PutU32(Crc32(payload.data(), payload.size()));
  std::string frame = std::move(header).TakeBuffer();
  frame.append(payload.data(), payload.size());
  return frame;
}

void FrameDecoder::Feed(const char* data, size_t size) {
  // Compact lazily: once the consumed prefix dominates the buffer, drop it
  // so a long-lived connection does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();

  BinaryReader header(
      std::string_view(buffer_.data() + consumed_, kFrameHeaderBytes),
      "frame header");
  // The four header getters cannot fail (24 bytes are present); decode and
  // validate in order so the first malformed field names the error.
  const uint32_t magic = *header.GetU32();
  const uint32_t version = *header.GetU32();
  const uint32_t type = *header.GetU32();
  const uint64_t payload_len = *header.GetU64();
  const uint32_t payload_crc = *header.GetU32();

  if (magic != kWireMagic) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported protocol version " +
                                   std::to_string(version));
  }
  if (type == 0 || type > kMaxMessageType) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(type));
  }
  // Bound before any arithmetic with payload_len: a hostile length near
  // UINT64_MAX must neither allocate nor wrap the availability check.
  if (payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("wire: declared payload length " +
                                   std::to_string(payload_len) +
                                   " exceeds the protocol bound");
  }
  if (available - kFrameHeaderBytes < payload_len) {
    return std::optional<Frame>();  // wait for the rest of the payload
  }

  const char* payload = buffer_.data() + consumed_ + kFrameHeaderBytes;
  const uint32_t actual_crc = Crc32(payload, static_cast<size_t>(payload_len));
  if (actual_crc != payload_crc) {
    return Status::DataLoss("wire: payload CRC mismatch");
  }

  Frame frame;
  frame.type = static_cast<MessageType>(type);
  frame.payload.assign(payload, static_cast<size_t>(payload_len));
  consumed_ += kFrameHeaderBytes + static_cast<size_t>(payload_len);
  return std::optional<Frame>(std::move(frame));
}

// ---------------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------------

void EncodeGraph(const Graph& g, BinaryWriter* writer) {
  std::vector<LabelId> vertex_labels;
  vertex_labels.reserve(g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    vertex_labels.push_back(g.VertexLabel(v));
  }
  writer->PutPodVector(vertex_labels);
  writer->PutPodVector(g.SortedEdges());
}

Result<Graph> DecodeGraph(BinaryReader* reader) {
  Result<std::vector<LabelId>> vertex_labels =
      reader->GetPodVector<LabelId>();
  if (!vertex_labels.ok()) return vertex_labels.status();
  Result<std::vector<Graph::EdgeTriple>> edges =
      reader->GetPodVector<Graph::EdgeTriple>();
  if (!edges.ok()) return edges.status();

  Graph g;
  for (LabelId label : *vertex_labels) g.AddVertex(label);
  for (const Graph::EdgeTriple& e : *edges) {
    Status added = g.AddEdge(e.u, e.v, e.label);
    if (!added.ok()) {
      return Status::InvalidArgument(
          reader->DescribeHere("invalid graph edge: " + added.message()));
    }
  }
  return g;
}

void EncodeSearchOptions(const SearchOptions& options, BinaryWriter* writer) {
  writer->PutI64(options.tau_hat);
  writer->PutDouble(options.gamma);
  writer->PutU32(static_cast<uint32_t>(options.variant));
  writer->PutDouble(options.vgbd_w);
  writer->PutU64(options.v1_sample_alpha);
  writer->PutU64(options.seed);
  uint32_t flags = 0;
  if (options.use_prefilter) flags |= 1u;
  if (options.early_termination) flags |= 2u;
  if (options.approximate) flags |= 4u;
  writer->PutU32(flags);
  writer->PutU64(options.search_window_size);
}

Result<SearchOptions> DecodeSearchOptions(BinaryReader* reader) {
  SearchOptions options;
  GBDA_ASSIGN_OR_RETURN(options.tau_hat, reader->GetI64());
  GBDA_ASSIGN_OR_RETURN(options.gamma, reader->GetDouble());
  Result<uint32_t> variant = reader->GetU32();
  if (!variant.ok()) return variant.status();
  if (*variant > static_cast<uint32_t>(GbdaVariant::kWeightedGbd)) {
    return Status::InvalidArgument(
        reader->DescribeHere("unknown search variant " +
                             std::to_string(*variant)));
  }
  options.variant = static_cast<GbdaVariant>(*variant);
  GBDA_ASSIGN_OR_RETURN(options.vgbd_w, reader->GetDouble());
  GBDA_ASSIGN_OR_RETURN(options.v1_sample_alpha, reader->GetU64());
  GBDA_ASSIGN_OR_RETURN(options.seed, reader->GetU64());
  Result<uint32_t> flags = reader->GetU32();
  if (!flags.ok()) return flags.status();
  if (*flags > 7u) {
    return Status::InvalidArgument(
        reader->DescribeHere("unknown search option flags"));
  }
  options.use_prefilter = (*flags & 1u) != 0;
  options.early_termination = (*flags & 2u) != 0;
  options.approximate = (*flags & 4u) != 0;
  Result<uint64_t> window = reader->GetU64();
  if (!window.ok()) return window.status();
  if (*window == 0) {
    return Status::InvalidArgument(
        reader->DescribeHere("search window size must be >= 1"));
  }
  options.search_window_size = static_cast<size_t>(*window);
  return options;
}

namespace {

void EncodeMatches(const std::vector<SearchMatch>& matches,
                   BinaryWriter* writer) {
  writer->PutU64(matches.size());
  for (const SearchMatch& m : matches) {
    writer->PutU64(m.graph_id);
    writer->PutDouble(m.phi_score);
    writer->PutI64(m.gbd);
  }
}

Result<std::vector<SearchMatch>> DecodeMatches(BinaryReader* reader) {
  const size_t at = reader->position();
  Result<uint64_t> count = reader->GetU64();
  if (!count.ok()) return count.status();
  constexpr size_t kMatchBytes = 8 + 8 + 8;
  if (*count > reader->remaining() / kMatchBytes) {
    return Status::OutOfRange(reader->Describe("truncated match list", at));
  }
  std::vector<SearchMatch> matches(static_cast<size_t>(*count));
  for (SearchMatch& m : matches) {
    Result<uint64_t> id = reader->GetU64();
    if (!id.ok()) return id.status();
    m.graph_id = static_cast<size_t>(*id);
    GBDA_ASSIGN_OR_RETURN(m.phi_score, reader->GetDouble());
    GBDA_ASSIGN_OR_RETURN(m.gbd, reader->GetI64());
  }
  return matches;
}

Result<std::vector<uint64_t>> DecodeIdVector(BinaryReader* reader) {
  return reader->GetPodVector<uint64_t>();
}

}  // namespace

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

std::string EncodePingRequest(const PingRequest& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  return EncodeFrame(MessageType::kPingRequest, w.buffer());
}

Result<PingRequest> DecodePingRequest(std::string_view payload) {
  BinaryReader r(payload, "ping request");
  PingRequest msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodePingResponse(const PingResponse& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  return EncodeFrame(MessageType::kPingResponse, w.buffer());
}

Result<PingResponse> DecodePingResponse(std::string_view payload) {
  BinaryReader r(payload, "ping response");
  PingResponse msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodeTopKRequest(const TopKRequest& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  w.PutU64(msg.k);
  w.PutU64(msg.deadline_ms);
  EncodeSearchOptions(msg.options, &w);
  EncodeGraph(msg.query, &w);
  return EncodeFrame(MessageType::kTopKRequest, w.buffer());
}

Result<TopKRequest> DecodeTopKRequest(std::string_view payload) {
  BinaryReader r(payload, "top-k request");
  TopKRequest msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.k, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.deadline_ms, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.options, DecodeSearchOptions(&r));
  GBDA_ASSIGN_OR_RETURN(msg.query, DecodeGraph(&r));
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodeTopKResponse(const TopKResponse& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  w.PutU32(static_cast<uint32_t>(msg.status));
  w.PutString(msg.message);
  w.PutU64(msg.generation);
  w.PutU64(msg.candidates_evaluated);
  w.PutU64(msg.prefiltered_out);
  w.PutU64(msg.pruned_by_bound);
  w.PutU64(msg.candidates_visited);
  w.PutU64(msg.verified_count);
  w.PutU64(msg.queue_micros);
  w.PutU64(msg.batch_size);
  w.PutU64(msg.admission_micros);
  w.PutU64(msg.batch_micros);
  w.PutU64(msg.scan_micros);
  EncodeMatches(msg.matches, &w);
  return EncodeFrame(MessageType::kTopKResponse, w.buffer());
}

Result<TopKResponse> DecodeTopKResponse(std::string_view payload) {
  BinaryReader r(payload, "top-k response");
  TopKResponse msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.status, GetWireStatus(&r));
  GBDA_ASSIGN_OR_RETURN(msg.message, r.GetString());
  GBDA_ASSIGN_OR_RETURN(msg.generation, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.candidates_evaluated, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.prefiltered_out, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.pruned_by_bound, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.candidates_visited, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.verified_count, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.queue_micros, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.batch_size, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.admission_micros, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.batch_micros, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.scan_micros, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.matches, DecodeMatches(&r));
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodeMutateRequest(const MutateRequest& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  w.PutU32(static_cast<uint32_t>(msg.op));
  w.PutU64(msg.deadline_ms);
  w.PutU64(msg.graphs.size());
  for (const Graph& g : msg.graphs) EncodeGraph(g, &w);
  w.PutPodVector(msg.ids);
  w.PutString(msg.label);
  return EncodeFrame(MessageType::kMutateRequest, w.buffer());
}

Result<MutateRequest> DecodeMutateRequest(std::string_view payload) {
  BinaryReader r(payload, "mutate request");
  MutateRequest msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  Result<uint32_t> op = r.GetU32();
  if (!op.ok()) return op.status();
  if (*op == 0 || *op > kMaxMutationOp) {
    return Status::InvalidArgument(
        r.DescribeHere("unknown mutation op " + std::to_string(*op)));
  }
  msg.op = static_cast<MutationOp>(*op);
  GBDA_ASSIGN_OR_RETURN(msg.deadline_ms, r.GetU64());
  const size_t count_at = r.position();
  Result<uint64_t> graph_count = r.GetU64();
  if (!graph_count.ok()) return graph_count.status();
  // An empty graph still costs two u64 length prefixes, so the count is
  // bounded by the remaining bytes — a hostile count cannot force a huge
  // reserve.
  if (*graph_count > r.remaining() / 16) {
    return Status::OutOfRange(r.Describe("truncated graph list", count_at));
  }
  msg.graphs.reserve(static_cast<size_t>(*graph_count));
  for (uint64_t i = 0; i < *graph_count; ++i) {
    Result<Graph> g = DecodeGraph(&r);
    if (!g.ok()) return g.status();
    msg.graphs.push_back(std::move(*g));
  }
  GBDA_ASSIGN_OR_RETURN(msg.ids, DecodeIdVector(&r));
  GBDA_ASSIGN_OR_RETURN(msg.label, r.GetString());
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodeMutateResponse(const MutateResponse& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  w.PutU32(static_cast<uint32_t>(msg.status));
  w.PutString(msg.message);
  w.PutU64(msg.generation);
  w.PutPodVector(msg.assigned_ids);
  w.PutU64(msg.label_id);
  return EncodeFrame(MessageType::kMutateResponse, w.buffer());
}

Result<MutateResponse> DecodeMutateResponse(std::string_view payload) {
  BinaryReader r(payload, "mutate response");
  MutateResponse msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.status, GetWireStatus(&r));
  GBDA_ASSIGN_OR_RETURN(msg.message, r.GetString());
  GBDA_ASSIGN_OR_RETURN(msg.generation, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.assigned_ids, DecodeIdVector(&r));
  GBDA_ASSIGN_OR_RETURN(msg.label_id, r.GetU64());
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodeStatsRequest(const StatsRequest& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  return EncodeFrame(MessageType::kStatsRequest, w.buffer());
}

Result<StatsRequest> DecodeStatsRequest(std::string_view payload) {
  BinaryReader r(payload, "stats request");
  StatsRequest msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

std::string EncodeStatsResponse(const StatsResponse& msg) {
  BinaryWriter w;
  w.PutU64(msg.request_id);
  w.PutU32(static_cast<uint32_t>(msg.status));
  const WireServerStats& s = msg.stats;
  w.PutU64(s.connections_opened);
  w.PutU64(s.connections_closed);
  w.PutU64(s.frames_received);
  w.PutU64(s.decode_errors);
  w.PutU64(s.requests_accepted);
  w.PutU64(s.rejected_overloaded);
  w.PutU64(s.rejected_deadline);
  w.PutU64(s.rejected_invalid);
  w.PutU64(s.responses_sent);
  w.PutU64(s.batches_executed);
  w.PutU64(s.queue_depth_peak);
  w.PutPodVector(s.batch_size_histogram);
  w.PutU64(s.stage_latency.size());
  for (const WireStageStats& stage : s.stage_latency) {
    w.PutU64(stage.count);
    w.PutU64(stage.sum_micros);
    w.PutU64(stage.min_micros);
    w.PutU64(stage.max_micros);
    w.PutU64(stage.p50_micros);
    w.PutU64(stage.p99_micros);
    w.PutU64(stage.p999_micros);
  }
  return EncodeFrame(MessageType::kStatsResponse, w.buffer());
}

Result<StatsResponse> DecodeStatsResponse(std::string_view payload) {
  BinaryReader r(payload, "stats response");
  StatsResponse msg;
  GBDA_ASSIGN_OR_RETURN(msg.request_id, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(msg.status, GetWireStatus(&r));
  WireServerStats& s = msg.stats;
  GBDA_ASSIGN_OR_RETURN(s.connections_opened, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.connections_closed, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.frames_received, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.decode_errors, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.requests_accepted, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.rejected_overloaded, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.rejected_deadline, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.rejected_invalid, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.responses_sent, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.batches_executed, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.queue_depth_peak, r.GetU64());
  GBDA_ASSIGN_OR_RETURN(s.batch_size_histogram, DecodeIdVector(&r));
  const size_t stages_at = r.position();
  Result<uint64_t> stage_count = r.GetU64();
  if (!stage_count.ok()) return stage_count.status();
  // Seven u64 fields per entry bound the plausible count, so a hostile
  // length cannot drive a huge reserve (BinaryReader idiom).
  if (*stage_count > r.remaining() / (7 * sizeof(uint64_t))) {
    return Status::OutOfRange(r.Describe("truncated stage stats", stages_at));
  }
  s.stage_latency.resize(static_cast<size_t>(*stage_count));
  for (WireStageStats& stage : s.stage_latency) {
    GBDA_ASSIGN_OR_RETURN(stage.count, r.GetU64());
    GBDA_ASSIGN_OR_RETURN(stage.sum_micros, r.GetU64());
    GBDA_ASSIGN_OR_RETURN(stage.min_micros, r.GetU64());
    GBDA_ASSIGN_OR_RETURN(stage.max_micros, r.GetU64());
    GBDA_ASSIGN_OR_RETURN(stage.p50_micros, r.GetU64());
    GBDA_ASSIGN_OR_RETURN(stage.p99_micros, r.GetU64());
    GBDA_ASSIGN_OR_RETURN(stage.p999_micros, r.GetU64());
  }
  GBDA_RETURN_IF_ERROR(RejectTrailing(r));
  return msg;
}

}  // namespace gbda::net
