#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace gbda::net {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// The micro-batcher's coalescing key: two top-k requests may share one
/// QueryTopKBatch call iff k and every SearchOptions field agree (the
/// service API takes one (k, options) per batch; coalescing across
/// differing options would change results). Encoded options bytes compare
/// exactly — including the double fields, bit for bit.
std::string TopKBatchKey(const TopKRequest& req) {
  BinaryWriter w;
  w.PutU64(req.k);
  EncodeSearchOptions(req.options, &w);
  return std::move(w).TakeBuffer();
}

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AppendCounterFamily(const std::string& name, const std::string& help,
                         const std::string& labels, uint64_t value,
                         std::vector<obs::MetricFamily>* out) {
  obs::MetricFamily family;
  family.name = name;
  family.help = help;
  family.type = obs::MetricType::kCounter;
  obs::MetricPoint point;
  point.labels = labels;
  point.value = static_cast<double>(value);
  family.points.push_back(std::move(point));
  out->push_back(std::move(family));
}

}  // namespace

Result<std::unique_ptr<GbdaServer>> GbdaServer::Serve(
    GbdaService* service, const ServerConfig& config) {
  if (service == nullptr) {
    return Status::InvalidArgument("server: no backend");
  }
  if (config.max_batch == 0) {
    return Status::InvalidArgument("server: max_batch must be >= 1");
  }
  if (config.max_queue == 0) {
    return Status::InvalidArgument("server: max_queue must be >= 1");
  }
  std::unique_ptr<GbdaServer> server(new GbdaServer(service, config));
  GBDA_RETURN_IF_ERROR(server->Listen());
  server->io_thread_ = std::thread([s = server.get()] { s->IoLoop(); });
  const size_t workers = std::max<size_t>(1, config.num_workers);
  server->workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

GbdaServer::GbdaServer(GbdaService* service, const ServerConfig& config)
    : service_(service),
      dynamic_(dynamic_cast<DynamicGbdaService*>(service)),
      config_(config),
      batch_size_histogram_(std::max<size_t>(1, config.max_batch)) {}

GbdaServer::~GbdaServer() { Shutdown(); }

Status GbdaServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("server: bad bind address " +
                                   config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, config_.listen_backlog) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  GBDA_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  if (::pipe(wake_pipe_) < 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  GBDA_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
  GBDA_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[1]));
  return Status::OK();
}

void GbdaServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      MutexLock lock(&queue_mutex_);
      stopping_.store(true, std::memory_order_release);
      draining_paused_ = false;  // shutdown overrides an admin pause
    }
    queue_cv_.NotifyAll();
    WakeIo();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    // Workers have answered everything they will; let the I/O thread flush
    // outboxes (bounded — it exits once all outboxes drain or the grace
    // window ends) and close the sockets.
    workers_done_.store(true, std::memory_order_release);
    WakeIo();
    if (io_thread_.joinable()) io_thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
    listen_fd_ = -1;
    wake_pipe_[0] = wake_pipe_[1] = -1;
  });
}

WireServerStats GbdaServer::stats() const {
  WireServerStats s;
  s.connections_opened = connections_opened_.Value();
  s.connections_closed = connections_closed_.Value();
  s.frames_received = frames_received_.Value();
  s.decode_errors = decode_errors_.Value();
  s.requests_accepted = requests_accepted_.Value();
  s.rejected_overloaded = rejected_overloaded_.Value();
  s.rejected_deadline = rejected_deadline_.Value();
  s.rejected_invalid = rejected_invalid_.Value();
  s.responses_sent = responses_sent_.Value();
  s.batches_executed = batches_executed_.Value();
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.batch_size_histogram.reserve(batch_size_histogram_.size());
  for (const std::atomic<uint64_t>& slot : batch_size_histogram_) {
    s.batch_size_histogram.push_back(slot.load(std::memory_order_relaxed));
  }
  s.stage_latency.resize(obs::kNumQueryStages);
  for (int i = 0; i < obs::kNumQueryStages; ++i) {
    const obs::Histogram h = stage_latency_[i].Snapshot();
    WireStageStats& st = s.stage_latency[i];
    st.count = h.count();
    st.sum_micros = h.sum();
    st.min_micros = h.min();
    st.max_micros = h.max();
    st.p50_micros = h.Quantile(0.5);
    st.p99_micros = h.Quantile(0.99);
    st.p999_micros = h.Quantile(0.999);
  }
  return s;
}

void GbdaServer::CollectMetrics(const std::string& labels,
                                std::vector<obs::MetricFamily>* out) const {
  AppendCounterFamily("gbda_server_connections_opened_total",
                      "TCP connections accepted", labels,
                      connections_opened_.Value(), out);
  AppendCounterFamily("gbda_server_connections_closed_total",
                      "TCP connections closed", labels,
                      connections_closed_.Value(), out);
  AppendCounterFamily("gbda_server_frames_received_total",
                      "Well-framed protocol frames received", labels,
                      frames_received_.Value(), out);
  AppendCounterFamily("gbda_server_decode_errors_total",
                      "Framing violations (connection closed)", labels,
                      decode_errors_.Value(), out);
  AppendCounterFamily("gbda_server_requests_accepted_total",
                      "Requests admitted to the execution queue", labels,
                      requests_accepted_.Value(), out);
  AppendCounterFamily("gbda_server_rejected_overloaded_total",
                      "Requests rejected at the admission bound", labels,
                      rejected_overloaded_.Value(), out);
  AppendCounterFamily("gbda_server_rejected_deadline_total",
                      "Requests expired in queue (kDeadlineExceeded)", labels,
                      rejected_deadline_.Value(), out);
  AppendCounterFamily("gbda_server_rejected_invalid_total",
                      "Malformed request payloads answered kInvalidRequest",
                      labels, rejected_invalid_.Value(), out);
  AppendCounterFamily("gbda_server_responses_sent_total",
                      "Response frames queued for send", labels,
                      responses_sent_.Value(), out);
  AppendCounterFamily("gbda_server_batches_executed_total",
                      "Query micro-batches executed", labels,
                      batches_executed_.Value(), out);
  {
    obs::MetricFamily family;
    family.name = "gbda_server_queue_depth_peak";
    family.help = "High-water mark of the admission queue";
    family.type = obs::MetricType::kGauge;
    obs::MetricPoint point;
    point.labels = labels;
    point.value = static_cast<double>(
        queue_depth_peak_.load(std::memory_order_relaxed));
    family.points.push_back(std::move(point));
    out->push_back(std::move(family));
  }
  {
    obs::MetricFamily sizes;
    sizes.name = "gbda_server_batch_size_total";
    sizes.help = "Executed micro-batches by coalesced size";
    sizes.type = obs::MetricType::kCounter;
    for (size_t i = 0; i < batch_size_histogram_.size(); ++i) {
      const uint64_t n =
          batch_size_histogram_[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      obs::MetricPoint point;
      point.labels = "size=\"" + std::to_string(i + 1) + "\"";
      if (!labels.empty()) point.labels = labels + "," + point.labels;
      point.value = static_cast<double>(n);
      sizes.points.push_back(std::move(point));
    }
    if (!sizes.points.empty()) out->push_back(std::move(sizes));
  }
  obs::MetricFamily stages;
  stages.name = "gbda_stage_latency_micros";
  stages.help =
      "Per-stage serving latency in microseconds (admission/queue/batch/scan)";
  stages.type = obs::MetricType::kHistogram;
  for (int i = 0; i < obs::kNumQueryStages; ++i) {
    obs::MetricPoint point;
    point.labels = std::string("stage=\"") +
                   obs::QueryStageName(static_cast<obs::QueryStage>(i)) + "\"";
    if (!labels.empty()) point.labels = labels + "," + point.labels;
    point.histogram = stage_latency_[i].Snapshot();
    stages.points.push_back(std::move(point));
  }
  out->push_back(std::move(stages));
}

void GbdaServer::PauseDraining() {
  {
    MutexLock lock(&queue_mutex_);
    draining_paused_ = true;
  }
  queue_cv_.NotifyAll();
}

void GbdaServer::ResumeDraining() {
  {
    MutexLock lock(&queue_mutex_);
    draining_paused_ = false;
  }
  queue_cv_.NotifyAll();
}

void GbdaServer::WakeIo() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// I/O thread
// ---------------------------------------------------------------------------

void GbdaServer::IoLoop() {
  bool flushing = false;  // true once stopping: no reads, drain outboxes
  std::chrono::steady_clock::time_point flush_start;
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd slot (0 = not a conn)

  for (;;) {
    // The flush phase starts only once Shutdown() has joined every worker
    // (workers_done_): until then admitted requests are still executing and
    // their responses must reach the outboxes. While merely stopping_, the
    // loop keeps reading — new requests are answered kShuttingDown by
    // admission.
    if (!flushing && workers_done_.load(std::memory_order_acquire)) {
      flushing = true;
      flush_start = std::chrono::steady_clock::now();
    }

    // Drain worker-posted responses into connection outboxes first, so the
    // poll below already watches for writability.
    {
      std::vector<std::pair<uint64_t, std::string>> posted;
      {
        MutexLock lock(&responses_mutex_);
        posted.swap(posted_responses_);
      }
      for (auto& [conn_id, bytes] : posted) {
        QueueResponse(conn_id, std::move(bytes));
      }
    }

    if (flushing) {
      bool all_drained = true;
      for (const auto& [id, conn] : conns_) {
        if (conn.outbox_sent < conn.outbox.size()) all_drained = false;
      }
      const bool grace_over =
          std::chrono::steady_clock::now() - flush_start >
          std::chrono::milliseconds(500);
      if (all_drained || grace_over) break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (!flushing) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [id, conn] : conns_) {
      short events = flushing ? 0 : POLLIN;
      if (conn.outbox_sent < conn.outbox.size()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable poll failure
    if (ready <= 0) continue;

    for (size_t i = 0; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      if (fds[i].fd == wake_pipe_[0]) {
        char buf[256];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fds[i].fd == listen_fd_ && !flushing) {
        AcceptPending();
        continue;
      }
      const uint64_t conn_id = fd_conn[i];
      if (conns_.find(conn_id) == conns_.end()) continue;  // closed earlier
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with readable data still pending is handled by the read
        // path returning 0; closing here is correct for both.
        CloseConnection(conn_id);
        continue;
      }
      if (revents & POLLIN) HandleReadable(conn_id);
      if (conns_.find(conn_id) == conns_.end()) continue;
      if (revents & POLLOUT) HandleWritable(conn_id);
    }
  }

  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
}

void GbdaServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll round
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_, std::move(conn));
    ++next_conn_id_;
    connections_opened_.Increment();
  }
}

void GbdaServer::HandleReadable(uint64_t conn_id) {
  Connection& conn = conns_[conn_id];
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn_id);  // orderly close (0) or hard error
    return;
  }
  for (;;) {
    // The map can rehash while DispatchFrame queues responses, so re-find
    // the connection each iteration instead of holding a reference.
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Result<std::optional<Frame>> next = it->second.decoder.Next();
    if (!next.ok()) {
      // Framing violation: the stream cannot be resynchronized.
      decode_errors_.Increment();
      CloseConnection(conn_id);
      return;
    }
    if (!next->has_value()) return;  // need more bytes
    frames_received_.Increment();
    if (!DispatchFrame(conn_id, std::move(**next))) {
      CloseConnection(conn_id);
      return;
    }
  }
}

bool GbdaServer::DispatchFrame(uint64_t conn_id, Frame frame) {
  Pending pending;
  pending.conn_id = conn_id;
  pending.type = frame.type;
  pending.arrival = std::chrono::steady_clock::now();
  switch (frame.type) {
    case MessageType::kPingRequest: {
      Result<PingRequest> req = DecodePingRequest(frame.payload);
      if (!req.ok()) break;
      PingResponse resp;
      resp.request_id = req->request_id;
      QueueResponse(conn_id, EncodePingResponse(resp));
      return true;
    }
    case MessageType::kStatsRequest: {
      Result<StatsRequest> req = DecodeStatsRequest(frame.payload);
      if (!req.ok()) break;
      StatsResponse resp;
      resp.request_id = req->request_id;
      resp.stats = stats();
      QueueResponse(conn_id, EncodeStatsResponse(resp));
      return true;
    }
    case MessageType::kTopKRequest: {
      Result<TopKRequest> req = DecodeTopKRequest(frame.payload);
      if (!req.ok()) break;
      TopKResponse resp;
      resp.request_id = req->request_id;
      pending.deadline_ms = req->deadline_ms;
      pending.topk = std::move(*req);
      resp.status = Admit(std::move(pending), &resp.message);
      if (resp.status != WireStatus::kOk) {
        QueueResponse(conn_id, EncodeTopKResponse(resp));
      }
      return true;
    }
    case MessageType::kMutateRequest: {
      Result<MutateRequest> req = DecodeMutateRequest(frame.payload);
      if (!req.ok()) break;
      MutateResponse resp;
      resp.request_id = req->request_id;
      pending.deadline_ms = req->deadline_ms;
      pending.mutate = std::move(*req);
      resp.status = Admit(std::move(pending), &resp.message);
      if (resp.status != WireStatus::kOk) {
        QueueResponse(conn_id, EncodeMutateResponse(resp));
      }
      return true;
    }
    default:
      // A response type arriving at the server: well-framed nonsense.
      break;
  }
  // Payload decode failure (or a response-typed frame): the framing is
  // intact, so answer kInvalidRequest and keep the connection. The
  // request_id is unknown — the body did not parse — so 0 is reported.
  rejected_invalid_.Increment();
  TopKResponse resp;
  resp.status = WireStatus::kInvalidRequest;
  resp.message = "malformed request payload";
  QueueResponse(conn_id, EncodeTopKResponse(resp));
  return true;
}

WireStatus GbdaServer::Admit(Pending pending, std::string* message) {
  if (pending.deadline_ms == 0) pending.deadline_ms = config_.default_deadline_ms;
  // Admission span: decode + queueing work on the I/O thread, measured just
  // before the request becomes visible to workers.
  pending.admission_micros = ElapsedMicros(pending.arrival);
  WireStatus admitted = WireStatus::kOk;
  size_t depth = 0;
  {
    MutexLock lock(&queue_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      admitted = WireStatus::kShuttingDown;
    } else if (queue_.size() >= config_.max_queue) {
      admitted = WireStatus::kOverloaded;
    } else {
      queue_.push_back(std::move(pending));
      depth = queue_.size();
    }
  }
  switch (admitted) {
    case WireStatus::kOk:
      requests_accepted_.Increment();
      AtomicMax(&queue_depth_peak_, depth);
      queue_cv_.NotifyOne();
      break;
    case WireStatus::kOverloaded:
      rejected_overloaded_.Increment();
      *message = "request queue at capacity";
      break;
    default:
      *message = "server shutting down";
      break;
  }
  return admitted;
}

void GbdaServer::QueueResponse(uint64_t conn_id, std::string frame_bytes) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client went away; drop the response
  Connection& conn = it->second;
  if (conn.outbox_sent == conn.outbox.size()) {
    conn.outbox.clear();
    conn.outbox_sent = 0;
  }
  conn.outbox.append(frame_bytes);
  responses_sent_.Increment();
  HandleWritable(conn_id);  // opportunistic immediate send
}

void GbdaServer::HandleWritable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  while (conn.outbox_sent < conn.outbox.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response yields EPIPE instead of
    // a process-fatal SIGPIPE (the overload test kills clients mid-write).
    const ssize_t n =
        ::send(conn.fd, conn.outbox.data() + conn.outbox_sent,
               conn.outbox.size() - conn.outbox_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn_id);  // EPIPE / ECONNRESET / hard error
    return;
  }
}

void GbdaServer::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  connections_closed_.Increment();
}

// ---------------------------------------------------------------------------
// Worker threads: the adaptive micro-batcher
// ---------------------------------------------------------------------------

void GbdaServer::TakeCompatible(const std::string& key,
                                std::vector<Pending>* batch) {
  for (auto it = queue_.begin();
       it != queue_.end() && batch->size() < config_.max_batch;) {
    if (it->type == MessageType::kTopKRequest &&
        TopKBatchKey(it->topk) == key) {
      batch->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<GbdaServer::Pending> GbdaServer::NextBatch(
    uint64_t* linger_micros, uint64_t* coalesce_micros) {
  std::vector<Pending> batch;
  *coalesce_micros = 0;
  MutexLock lock(&queue_mutex_);
  // Explicit predicate loop (not a lambda) so the guarded accesses stay
  // visible to the thread-safety analysis.
  while (!stopping_.load(std::memory_order_relaxed) &&
         (queue_.empty() || draining_paused_)) {
    queue_cv_.Wait(queue_mutex_);
  }
  if (queue_.empty()) return batch;  // stopping && drained
  // Shutdown drains without pausing: remaining admitted requests are still
  // answered below.

  // Batch-stage span: starts at the first pop (idle cv-wait above is queue
  // time, not coalescing) and ends when the batch is final.
  const auto coalesce_start = std::chrono::steady_clock::now();
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  if (batch.front().type != MessageType::kTopKRequest) {
    return batch;  // mutations execute alone, in admission order
  }

  const std::string key = TopKBatchKey(batch.front().topk);
  TakeCompatible(key, &batch);

  // Adaptive linger: when the previous batches filled up (high offered
  // load), waiting a bounded moment collects late arrivals into the same
  // QueryTopKBatch call; when traffic is sparse the window decays to zero
  // so singleton queries pay no added latency.
  if (batch.size() < config_.max_batch && *linger_micros > 0 &&
      !stopping_.load(std::memory_order_relaxed)) {
    const auto linger_until = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(*linger_micros);
    while (batch.size() < config_.max_batch) {
      if (queue_cv_.WaitUntil(queue_mutex_, linger_until) ==
          std::cv_status::timeout) {
        TakeCompatible(key, &batch);
        break;
      }
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (!draining_paused_) TakeCompatible(key, &batch);
    }
  }

  // Batch-size feedback: full batch -> double the window (bounded);
  // singleton -> halve it toward zero.
  if (batch.size() >= config_.max_batch) {
    *linger_micros = std::min<uint64_t>(
        config_.max_linger_micros, *linger_micros == 0 ? 8 : *linger_micros * 2);
  } else if (batch.size() == 1) {
    *linger_micros /= 2;
  }
  *coalesce_micros = ElapsedMicros(coalesce_start);
  return batch;
}

void GbdaServer::WorkerLoop() {
  uint64_t linger_micros = 0;
  for (;;) {
    uint64_t coalesce_micros = 0;
    std::vector<Pending> batch = NextBatch(&linger_micros, &coalesce_micros);
    if (batch.empty()) return;  // shutdown, queue drained
    if (batch.front().type == MessageType::kMutateRequest) {
      ExecuteMutation(std::move(batch.front()));
    } else {
      ExecuteTopKBatch(std::move(batch), coalesce_micros);
    }
  }
}

void GbdaServer::ExecuteTopKBatch(std::vector<Pending> batch,
                                  uint64_t coalesce_micros) {
  // Deadline accounting happens at execution time: a request that spent its
  // whole budget queued is answered kDeadlineExceeded, never executed.
  std::vector<Pending> live;
  std::vector<uint64_t> queued_micros;  // parallel to live, arrival -> here
  live.reserve(batch.size());
  queued_micros.reserve(batch.size());
  for (Pending& p : batch) {
    const uint64_t qm = ElapsedMicros(p.arrival);
    const uint64_t queued_ms = qm / 1000;
    if (queued_ms > p.deadline_ms) {
      TopKResponse resp;
      resp.request_id = p.topk.request_id;
      resp.status = WireStatus::kDeadlineExceeded;
      resp.message = "deadline of " + std::to_string(p.deadline_ms) +
                     " ms exceeded after " + std::to_string(queued_ms) +
                     " ms in queue";
      resp.queue_micros = qm;
      resp.admission_micros = p.admission_micros;
      rejected_deadline_.Increment();
      PostResponse(p.conn_id, EncodeTopKResponse(resp));
    } else {
      queued_micros.push_back(qm);
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  std::vector<Graph> queries;
  queries.reserve(live.size());
  for (Pending& p : live) queries.push_back(std::move(p.topk.query));
  const size_t k = static_cast<size_t>(live.front().topk.k);
  const SearchOptions& options = live.front().topk.options;

  SnapshotInfo served;
  Result<std::vector<SearchResult>> results =
      service_->QueryTopKBatch(Span<Graph>(queries), k, options, &served);

  batches_executed_.Increment();
  const size_t slot = std::min(live.size(), batch_size_histogram_.size()) - 1;
  batch_size_histogram_[slot].fetch_add(1, std::memory_order_relaxed);
  stage_latency_[static_cast<int>(obs::QueryStage::kBatch)].Record(
      coalesce_micros);

  for (size_t i = 0; i < live.size(); ++i) {
    TopKResponse resp;
    resp.request_id = live[i].topk.request_id;
    resp.generation = served.generation;
    resp.queue_micros = queued_micros[i];
    resp.batch_size = live.size();
    resp.admission_micros = live[i].admission_micros;
    resp.batch_micros = coalesce_micros;
    if (results.ok()) {
      SearchResult& r = (*results)[i];
      resp.candidates_evaluated = r.candidates_evaluated;
      resp.prefiltered_out = r.prefiltered_out;
      resp.pruned_by_bound = r.pruned_by_bound;
      resp.candidates_visited = r.candidates_visited;
      resp.verified_count = r.verified_count;
      resp.scan_micros =
          r.seconds > 0 ? static_cast<uint64_t>(r.seconds * 1e6 + 0.5) : 0;
      resp.matches = std::move(r.matches);
    } else {
      // The only batch-global failure modes are option validation and
      // posterior-domain errors — attributable to every co-batched request
      // (they share (k, options) by construction of the batch key).
      resp.status = WireStatus::kInvalidRequest;
      resp.message = results.status().ToString();
    }
    stage_latency_[static_cast<int>(obs::QueryStage::kAdmission)].Record(
        resp.admission_micros);
    stage_latency_[static_cast<int>(obs::QueryStage::kQueue)].Record(
        resp.queue_micros);
    stage_latency_[static_cast<int>(obs::QueryStage::kScan)].Record(
        resp.scan_micros);
    if (obs::SlowQueryLogEnabled()) {
      obs::TraceSpans spans;
      spans.Set(obs::QueryStage::kAdmission, resp.admission_micros);
      spans.Set(obs::QueryStage::kQueue, resp.queue_micros);
      spans.Set(obs::QueryStage::kBatch, resp.batch_micros);
      spans.Set(obs::QueryStage::kScan, resp.scan_micros);
      obs::MaybeLogSlowQuery(spans.TotalMicros(), spans, resp.pruned_by_bound,
                             resp.candidates_visited, live.size());
    }
    PostResponse(live[i].conn_id, EncodeTopKResponse(resp));
  }
}

void GbdaServer::ExecuteMutation(Pending request) {
  MutateRequest& req = request.mutate;
  MutateResponse resp;
  resp.request_id = req.request_id;

  const uint64_t queued_ms = ElapsedMicros(request.arrival) / 1000;
  if (queued_ms > request.deadline_ms) {
    resp.status = WireStatus::kDeadlineExceeded;
    resp.message = "deadline of " + std::to_string(request.deadline_ms) +
                   " ms exceeded after " + std::to_string(queued_ms) +
                   " ms in queue";
    rejected_deadline_.Increment();
    PostResponse(request.conn_id, EncodeMutateResponse(resp));
    return;
  }

  DynamicGbdaService* service = dynamic_;
  if (service == nullptr) {
    resp.status = WireStatus::kUnsupported;
    resp.message = "mutation requests require a dynamic-corpus backend";
    PostResponse(request.conn_id, EncodeMutateResponse(resp));
    return;
  }

  SnapshotInfo published;
  switch (req.op) {
    case MutationOp::kAddGraphs: {
      Result<std::vector<size_t>> ids =
          service->AddGraphs(std::move(req.graphs), &published);
      if (!ids.ok()) {
        resp.status = WireStatus::kInvalidRequest;
        resp.message = ids.status().ToString();
      } else {
        resp.generation = published.generation;
        resp.assigned_ids.assign(ids->begin(), ids->end());
      }
      break;
    }
    case MutationOp::kRemoveGraphs: {
      std::vector<size_t> ids(req.ids.begin(), req.ids.end());
      Status removed = service->RemoveGraphs(ids, &published);
      if (!removed.ok()) {
        resp.status = WireStatus::kInvalidRequest;
        resp.message = removed.ToString();
      } else {
        resp.generation = published.generation;
      }
      break;
    }
    case MutationOp::kInternVertexLabel:
      resp.label_id = service->InternVertexLabel(req.label);
      resp.generation = service->snapshot_info().generation;
      break;
    case MutationOp::kInternEdgeLabel:
      resp.label_id = service->InternEdgeLabel(req.label);
      resp.generation = service->snapshot_info().generation;
      break;
    case MutationOp::kFlush: {
      Status flushed = service->Flush(&published);
      // Flush publishes even when the forced refit fails; report the
      // generation either way so the client can pin it.
      resp.generation = published.generation;
      if (!flushed.ok()) {
        resp.status = WireStatus::kInvalidRequest;
        resp.message = flushed.ToString();
      }
      break;
    }
  }
  PostResponse(request.conn_id, EncodeMutateResponse(resp));
}

void GbdaServer::PostResponse(uint64_t conn_id, std::string frame_bytes) {
  {
    MutexLock lock(&responses_mutex_);
    posted_responses_.emplace_back(conn_id, std::move(frame_bytes));
  }
  WakeIo();
}

}  // namespace gbda::net
