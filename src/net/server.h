/// \file server.h
/// The network serving front-end (docs/ARCHITECTURE.md, "Network serving"):
/// a TCP server speaking the length-prefixed binary protocol of
/// net/codec.h in front of one GbdaService — frozen (optionally over a
/// mapped v3 arena) or a DynamicGbdaService, whose mutation requests commit
/// and swap snapshots. tools/gbda_serverd is a thin main around this class;
/// tests drive it in-process on loopback ephemeral ports.
///
/// Threading model:
///   - One I/O thread owns every socket: a poll() loop over the listener, a
///     self-pipe wakeup and all connections (non-blocking fds, per-
///     connection FrameDecoder and outbox). It decodes requests, performs
///     ADMISSION — a bounded request queue; past the bound the request is
///     answered with a typed WireStatus::kOverloaded instead of queueing
///     unboundedly — and writes every response (single writer per socket,
///     send() with MSG_NOSIGNAL so a client that disconnected mid-response
///     costs an EPIPE, never a fatal SIGPIPE).
///   - Worker threads pop the queue and run the ADAPTIVE MICRO-BATCHER:
///     take one request, coalesce up to max_batch queued requests with the
///     same batch key (message type, k, SearchOptions bytes), optionally
///     lingering for late arrivals, then execute the whole group as ONE
///     QueryTopKBatch call — so the cross-shard pruning-bound sharing
///     amortizes across co-batched queries. The linger budget adapts: a
///     full batch doubles it (load is high, waiting buys coalescing), a
///     singleton batch halves it toward zero (idle traffic must not pay
///     added latency). Expired requests are answered kDeadlineExceeded
///     without executing.
///
/// Shutdown is graceful: admission switches to kShuttingDown, workers
/// drain the queue (every admitted request is answered), outboxes get a
/// bounded flush, then all sockets close.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/codec.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"

namespace gbda::net {

/// Knobs of the serving front-end.
struct ServerConfig {
  /// Listen address; the default binds loopback only (tests, single-host
  /// benches). Use "0.0.0.0" to serve externally.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Admission bound: requests queued for execution. At the bound new
  /// requests are rejected with WireStatus::kOverloaded (backpressure)
  /// rather than queued — queue delay past the bound would blow every
  /// deadline anyway.
  size_t max_queue = 256;
  /// Micro-batch coalescing cap (>= 1; 1 disables coalescing).
  size_t max_batch = 16;
  /// Upper bound of the adaptive linger window a worker may wait for
  /// late-arriving batchable requests. The effective linger starts at 0 and
  /// adapts between 0 and this cap (see the class comment).
  uint64_t max_linger_micros = 200;
  /// Deadline applied when a request carries deadline_ms == 0. A request
  /// that exceeds its deadline while queued is answered
  /// WireStatus::kDeadlineExceeded without executing.
  uint64_t default_deadline_ms = 2000;
  /// Batch executor threads. One keeps request execution strictly FIFO
  /// (and mutation ordering deterministic); more overlap independent
  /// batches on the service's thread pool.
  size_t num_workers = 1;
};

/// TCP front-end over one serving backend. Start with Serve(); the server
/// runs on background threads until Shutdown() (the destructor shuts down
/// too). Thread-safe: stats()/port()/Pause/ResumeDraining may be called
/// from any thread.
class GbdaServer {
 public:
  /// Serves `service`, which must outlive the server. Every query response
  /// carries the generation it was served against (0 for a frozen
  /// service). When `service` is a DynamicGbdaService, mutation requests
  /// commit through its serialized mutation API and report the published
  /// generation; otherwise they answer kUnsupported.
  static Result<std::unique_ptr<GbdaServer>> Serve(GbdaService* service,
                                                   const ServerConfig& config);

  ~GbdaServer();
  GbdaServer(const GbdaServer&) = delete;
  GbdaServer& operator=(const GbdaServer&) = delete;

  /// Graceful stop (idempotent): reject new work, drain admitted requests,
  /// flush outboxes, join threads, close sockets.
  void Shutdown();

  /// The bound TCP port (the ephemeral pick when config.port was 0).
  uint16_t port() const { return port_; }

  /// Snapshot of the server counters (see WireServerStats), assembled from
  /// sharded lock-free counters: no mutex is taken anywhere on the request
  /// path, and the snapshot is exact once traffic quiesces (a consistent
  /// lower bound while it runs). stage_latency is filled in obs::QueryStage
  /// order from the server's per-stage histograms.
  WireServerStats stats() const;

  /// Appends the server's gbda_server_* counter families and the
  /// gbda_stage_latency_micros{stage=...} histograms for a registry
  /// collector (tools/gbda_serverd registers this with the global registry
  /// behind --metrics-port).
  void CollectMetrics(const std::string& labels,
                      std::vector<obs::MetricFamily>* out) const;

  /// Admin drain gate: while paused, admission keeps accepting (and keeps
  /// rejecting past the queue bound) but workers do not pop, so queued
  /// requests accumulate. Used by quiesce-style operations and by the
  /// overload/batching tests to open a deterministic coalescing window.
  void PauseDraining();
  void ResumeDraining();

 private:
  /// One admitted request waiting for a worker.
  struct Pending {
    uint64_t conn_id = 0;
    MessageType type = MessageType::kTopKRequest;
    TopKRequest topk;
    MutateRequest mutate;
    std::chrono::steady_clock::time_point arrival;
    uint64_t deadline_ms = 0;
    /// I/O-thread time from frame dispatch to admission (trace span,
    /// stamped into the response).
    uint64_t admission_micros = 0;
  };

  /// Per-connection state; owned and touched exclusively by the I/O
  /// thread.
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::string outbox;
    size_t outbox_sent = 0;
  };

  GbdaServer(GbdaService* service, const ServerConfig& config);
  Status Listen();

  void IoLoop();
  void AcceptPending();
  void HandleReadable(uint64_t conn_id);
  void HandleWritable(uint64_t conn_id);
  void CloseConnection(uint64_t conn_id);
  /// Dispatches one decoded frame on the I/O thread: answers
  /// ping/stats/invalid/overload immediately, queues query and mutation
  /// work for the workers. Returns false when the connection must close
  /// (framing violation).
  bool DispatchFrame(uint64_t conn_id, Frame frame);
  /// Admission, shared by query and mutation requests: queues `pending`
  /// (stamping its admission span and default deadline) unless the server
  /// is stopping or the queue is at its bound. Returns kOk when admitted,
  /// else the typed rejection, with its message in `*message`.
  WireStatus Admit(Pending pending, std::string* message)
      GBDA_EXCLUDES(queue_mutex_);
  /// Appends a response frame to the connection's outbox (no-op when the
  /// connection is gone) and counts it. I/O thread only.
  void QueueResponse(uint64_t conn_id, std::string frame_bytes);
  void WakeIo();

  void WorkerLoop();
  /// Pops one adaptive micro-batch (see the class comment). Empty result
  /// means "shutting down and the queue is drained". `coalesce_micros`
  /// reports the time from the first pop to the batch being finalized — the
  /// batch-stage trace span shared by every request in the batch.
  std::vector<Pending> NextBatch(uint64_t* linger_micros,
                                 uint64_t* coalesce_micros)
      GBDA_EXCLUDES(queue_mutex_);
  /// Moves every queued top-k request whose batch key equals `key` into
  /// `batch` (up to config_.max_batch), preserving queue order.
  void TakeCompatible(const std::string& key, std::vector<Pending>* batch)
      GBDA_REQUIRES(queue_mutex_);
  void ExecuteTopKBatch(std::vector<Pending> batch, uint64_t coalesce_micros);
  void ExecuteMutation(Pending request);
  /// Hands a finished response frame from a worker to the I/O thread.
  void PostResponse(uint64_t conn_id, std::string frame_bytes);

  GbdaService* service_;
  /// The same service when it accepts mutations; null for frozen serving.
  DynamicGbdaService* dynamic_;
  const ServerConfig config_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Request queue + drain gate (workers and the I/O thread's admission).
  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<Pending> queue_ GBDA_GUARDED_BY(queue_mutex_);
  bool draining_paused_ GBDA_GUARDED_BY(queue_mutex_) = false;
  std::atomic<bool> stopping_{false};
  /// Set by Shutdown() once every worker has joined: the signal that no
  /// further responses will be posted, so the I/O thread may switch to its
  /// bounded outbox flush. Gating the flush on this (not on stopping_)
  /// guarantees every admitted request's response is still sent.
  std::atomic<bool> workers_done_{false};

  // Worker -> I/O thread response handoff.
  Mutex responses_mutex_;
  std::vector<std::pair<uint64_t, std::string>> posted_responses_
      GBDA_GUARDED_BY(responses_mutex_);

  // I/O-thread-only connection table.
  std::unordered_map<uint64_t, Connection> conns_;
  uint64_t next_conn_id_ = 1;

  // Server counters: sharded relaxed-atomic (obs::Counter), so neither the
  // I/O thread nor the workers ever take a lock to count — the per-request
  // stats mutex this replaced was the serving path's only remaining
  // cross-thread lock outside the queue itself.
  obs::Counter connections_opened_;
  obs::Counter connections_closed_;
  obs::Counter frames_received_;
  obs::Counter decode_errors_;
  obs::Counter requests_accepted_;
  obs::Counter rejected_overloaded_;
  obs::Counter rejected_deadline_;
  obs::Counter rejected_invalid_;
  obs::Counter responses_sent_;
  obs::Counter batches_executed_;
  std::atomic<uint64_t> queue_depth_peak_{0};  // CAS-max
  /// batch_size_histogram[i] counts executed micro-batches of size i+1
  /// (sized once in the constructor; relaxed adds thereafter).
  std::vector<std::atomic<uint64_t>> batch_size_histogram_;
  /// Per-stage latency histograms (microseconds), indexed by
  /// obs::QueryStage: the scrape surface's admission/queue/batch/scan
  /// families and the source of WireServerStats::stage_latency.
  obs::ConcurrentHistogram stage_latency_[obs::kNumQueryStages];

  std::once_flag shutdown_once_;
};

}  // namespace gbda::net
