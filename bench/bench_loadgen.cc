// Network serving latency-vs-load sweep (docs/BENCHMARKS.md, "Loadgen").
// Starts an in-process GbdaServer on a loopback ephemeral port over a
// dataset_profiles corpus, then drives it with N client connections at a
// sweep of offered QPS rates and reports tail latency percentiles
// (p50/p99/p999) per rate as one machine-readable JSON object on stdout.
//
//   - offered rate 0 = CLOSED loop: each connection issues its next query
//     the moment the previous response lands (peak-throughput mode);
//   - offered rate > 0 = OPEN loop: each connection schedules sends on a
//     fixed timetable (rate/connections per connection) and pipelines —
//     send times do not wait for responses, so queueing delay is charged to
//     latency exactly as a real arrival process would experience it.
//
// Before any rate runs, a BIT-IDENTITY GATE replays every distinct query
// through one connection and compares the wire response — match set,
// ordering, phi/gbd bit patterns and the deterministic counters — against
// the in-process GbdaService::QueryTopK answer. The sweep refuses to run
// (exit 1) on any divergence, so a reported latency can never come from a
// result-changing serving path.
//
// With --target=HOST:PORT the sweep drives an EXTERNAL gbda_serverd instead
// of an in-process server: the corpus/queries are still generated locally
// (use the same --profile/--scale/--seed the daemon was started with), the
// in-process bit-identity gate is skipped (there is no local service to
// compare against — the gate belongs to the daemon's own CI), and the
// before/after server counters come from the wire kStatsRequest message.
//
// Latency aggregation uses the log-bucketed obs::Histogram (p50/p99/p999
// within one bucket — <= 6.25% relative — of the exact nearest-rank sample
// quantiles the old sorted-array math produced; max stays exact).
//
// Typical runs:
//   bench_loadgen                                  # default sweep
//   bench_loadgen --duration=2 --rates=0           # CI smoke (closed loop)
//   bench_loadgen --connections=8 --rates=200,500,1000,2000
//   bench_loadgen --target=127.0.0.1:7070 --rates=0  # drive a live daemon

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/gbda_index.h"
#include "datagen/dataset_profiles.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "service/gbda_service.h"

using namespace gbda;
using bench::DoubleFlagOrExit;
using bench::IntFlagOrExit;
using bench::ListFlagOrExit;
using bench::ParseFlagValue;
using bench::ProfileByName;
using bench::ScaleFlagOrExit;
using bench::UintFlagOrExit;

namespace {

struct Flags {
  std::string profile = "aids";
  double scale = 0.05;
  size_t connections = 4;
  std::vector<double> rates = {0.0, 100.0, 500.0, 2000.0};  // 0 = closed loop
  double duration = 2.0;   // seconds per rate point
  size_t top_k = 10;
  int64_t tau_hat = 5;
  double gamma = 0.5;
  uint64_t deadline_ms = 10000;
  size_t sample_pairs = 2000;
  uint64_t seed = 0;
  // Server knobs under test.
  size_t max_batch = 16;
  uint64_t max_linger_micros = 200;
  size_t workers = 1;
  size_t threads = 0;  // service pool; 0 = hardware concurrency
  std::string target;  // HOST:PORT of an external server; empty = in-process
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlagValue(argv[i], "--profile", &v)) {
      flags.profile = v;
    } else if (ParseFlagValue(argv[i], "--scale", &v)) {
      flags.scale = ScaleFlagOrExit(v);
    } else if (ParseFlagValue(argv[i], "--connections", &v)) {
      flags.connections = UintFlagOrExit("--connections", v);
    } else if (ParseFlagValue(argv[i], "--rates", &v)) {
      flags.rates = ListFlagOrExit<double>("--rates", v);
    } else if (ParseFlagValue(argv[i], "--duration", &v)) {
      flags.duration = DoubleFlagOrExit("--duration", v);
    } else if (ParseFlagValue(argv[i], "--top-k", &v)) {
      flags.top_k = UintFlagOrExit("--top-k", v);
    } else if (ParseFlagValue(argv[i], "--tau", &v)) {
      flags.tau_hat = IntFlagOrExit("--tau", v);
    } else if (ParseFlagValue(argv[i], "--gamma", &v)) {
      flags.gamma = DoubleFlagOrExit("--gamma", v);
    } else if (ParseFlagValue(argv[i], "--deadline-ms", &v)) {
      flags.deadline_ms = UintFlagOrExit("--deadline-ms", v);
    } else if (ParseFlagValue(argv[i], "--pairs", &v)) {
      flags.sample_pairs = UintFlagOrExit("--pairs", v);
    } else if (ParseFlagValue(argv[i], "--seed", &v)) {
      flags.seed = UintFlagOrExit("--seed", v);
    } else if (ParseFlagValue(argv[i], "--max-batch", &v)) {
      flags.max_batch = UintFlagOrExit("--max-batch", v);
    } else if (ParseFlagValue(argv[i], "--max-linger-micros", &v)) {
      flags.max_linger_micros = UintFlagOrExit("--max-linger-micros", v);
    } else if (ParseFlagValue(argv[i], "--workers", &v)) {
      flags.workers = UintFlagOrExit("--workers", v);
    } else if (ParseFlagValue(argv[i], "--threads", &v)) {
      flags.threads = UintFlagOrExit("--threads", v);
    } else if (ParseFlagValue(argv[i], "--target", &v)) {
      flags.target = v;
    } else {
      std::fprintf(
          stderr,
          "unknown flag %s\nflags: --profile=NAME --scale=F --connections=N "
          "--rates=CSV (0 = closed loop) --duration=SECONDS --top-k=N "
          "--tau=N --gamma=F --deadline-ms=N --pairs=N --seed=N "
          "--max-batch=N --max-linger-micros=N --workers=N --threads=N "
          "--target=HOST:PORT\n",
          argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

double ElapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

/// Outcome counters + latency histogram of one connection at one rate point.
/// Latencies are recorded in microseconds into the mergeable log-bucketed
/// histogram; quantiles are therefore within one bucket of the old exact
/// sorted-array math (count/sum/min/max stay exact).
struct ConnResult {
  obs::Histogram latency_micros;  // kOk responses only
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t deadline = 0;
  uint64_t other = 0;
  bool io_failed = false;
};

double QuantileMs(const obs::Histogram& h, double q) {
  return static_cast<double>(h.Quantile(q)) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.connections == 0 || flags.rates.empty() || flags.duration <= 0) {
    std::fprintf(stderr, "empty sweep\n");
    return 2;
  }

  // ---- Corpus + offline index + in-process server ------------------------
  Result<DatasetProfile> profile = ProfileByName(flags.profile, flags.scale);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  if (flags.seed != 0) profile->seed = flags.seed;
  Result<GeneratedDataset> dataset = GenerateDataset(*profile);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // In-process mode builds index + service + server; --target mode drives an
  // external daemon and only needs the generated queries.
  std::unique_ptr<GbdaIndex> index;
  std::unique_ptr<GbdaService> service;
  std::unique_ptr<net::GbdaServer> server;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (flags.target.empty()) {
    GbdaIndexOptions index_options;
    index_options.tau_max = std::max<int64_t>(10, flags.tau_hat);
    index_options.gbd_prior.num_sample_pairs = flags.sample_pairs;
    index_options.model_vertex_labels =
        static_cast<int64_t>(profile->num_vertex_labels);
    index_options.model_edge_labels =
        static_cast<int64_t>(profile->num_edge_labels);
    Result<GbdaIndex> built = GbdaIndex::Build(dataset->db, index_options);
    if (!built.ok()) {
      std::fprintf(stderr, "index: %s\n", built.status().ToString().c_str());
      return 1;
    }
    index = std::make_unique<GbdaIndex>(std::move(*built));

    ServiceOptions service_options;
    service_options.num_threads = flags.threads;
    Result<std::unique_ptr<GbdaService>> created =
        GbdaService::Create(&dataset->db, index.get(), service_options);
    if (!created.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    service = std::move(*created);

    net::ServerConfig server_config;
    server_config.max_batch = flags.max_batch;
    server_config.max_linger_micros = flags.max_linger_micros;
    server_config.num_workers = flags.workers;
    server_config.default_deadline_ms = flags.deadline_ms;
    Result<std::unique_ptr<net::GbdaServer>> started =
        net::GbdaServer::Serve(service.get(), server_config);
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(*started);
    port = server->port();
  } else {
    const size_t colon = flags.target.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= flags.target.size()) {
      std::fprintf(stderr, "--target must be HOST:PORT, got %s\n",
                   flags.target.c_str());
      return 2;
    }
    host = flags.target.substr(0, colon);
    port = static_cast<uint16_t>(
        UintFlagOrExit("--target", flags.target.substr(colon + 1), 65535));
  }

  // Server counters: from the in-process object, or over the wire
  // (kStatsRequest) when driving an external daemon.
  net::GbdaClient stats_client;
  if (server == nullptr) {
    Result<net::GbdaClient> connected = net::GbdaClient::Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "target connect: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    stats_client = std::move(*connected);
  }
  auto server_stats = [&]() -> net::WireServerStats {
    if (server != nullptr) return server->stats();
    Result<net::StatsResponse> resp = stats_client.Stats();
    if (!resp.ok()) {
      std::fprintf(stderr, "wire stats: %s\n",
                   resp.status().ToString().c_str());
      std::exit(1);
    }
    return resp->stats;
  };

  SearchOptions search_options;
  search_options.tau_hat = flags.tau_hat;
  search_options.gamma = flags.gamma;

  // ---- Bit-identity gate: wire answers == in-process answers -------------
  // (Skipped under --target: there is no local service to compare against.)
  if (server != nullptr) {
    Result<net::GbdaClient> client = net::GbdaClient::Connect(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "gate connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    for (size_t qi = 0; qi < dataset->queries.size(); ++qi) {
      Result<SearchResult> local =
          service->QueryTopK(dataset->queries[qi], flags.top_k,
                             search_options);
      if (!local.ok()) {
        std::fprintf(stderr, "gate local query %zu: %s\n", qi,
                     local.status().ToString().c_str());
        return 1;
      }
      net::TopKRequest req;
      req.request_id = qi;
      req.k = flags.top_k;
      req.deadline_ms = flags.deadline_ms;
      req.options = search_options;
      req.query = dataset->queries[qi];
      Result<net::TopKResponse> remote = client->QueryTopK(req);
      if (!remote.ok()) {
        std::fprintf(stderr, "gate wire query %zu: %s\n", qi,
                     remote.status().ToString().c_str());
        return 1;
      }
      // Deterministic fields only: pruned_by_bound / verified_count are
      // timing-dependent under sharding (see SearchResult), so each side is
      // only checked for adding up to candidates_evaluated.
      bool same = remote->status == net::WireStatus::kOk &&
                  remote->matches.size() == local->matches.size() &&
                  remote->candidates_evaluated == local->candidates_evaluated &&
                  remote->prefiltered_out == local->prefiltered_out &&
                  remote->pruned_by_bound + remote->verified_count ==
                      remote->candidates_evaluated &&
                  local->pruned_by_bound + local->verified_count ==
                      local->candidates_evaluated;
      for (size_t m = 0; same && m < local->matches.size(); ++m) {
        same = remote->matches[m].graph_id == local->matches[m].graph_id &&
               remote->matches[m].phi_score == local->matches[m].phi_score &&
               remote->matches[m].gbd == local->matches[m].gbd;
      }
      if (!same) {
        std::fprintf(stderr,
                     "BIT-IDENTITY FAILURE: query %zu served over the wire "
                     "diverges from in-process QueryTopK\n",
                     qi);
        return 1;
      }
    }
  }

  // ---- The sweep ---------------------------------------------------------
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_loadgen\",\n");
  std::printf("  \"profile\": \"%s\",\n", flags.profile.c_str());
  std::printf("  \"scale\": %g,\n", flags.scale);
  std::printf("  \"db_graphs\": %zu,\n", dataset->db.size());
  std::printf("  \"top_k\": %zu,\n", flags.top_k);
  std::printf("  \"tau_hat\": %lld,\n", static_cast<long long>(flags.tau_hat));
  std::printf("  \"connections\": %zu,\n", flags.connections);
  std::printf("  \"duration_seconds\": %g,\n", flags.duration);
  std::printf("  \"max_batch\": %zu,\n", flags.max_batch);
  std::printf("  \"max_linger_micros\": %llu,\n",
              static_cast<unsigned long long>(flags.max_linger_micros));
  std::printf("  \"workers\": %zu,\n", flags.workers);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  if (flags.target.empty()) {
    std::printf("  \"bit_identity_ok\": true,\n");
  } else {
    std::printf("  \"target\": \"%s\",\n", flags.target.c_str());
    std::printf("  \"bit_identity_ok\": null,\n");
  }
  std::printf("  \"sweep\": [\n");

  bool first_rate = true;
  for (double rate : flags.rates) {
    const net::WireServerStats before = server_stats();
    std::vector<ConnResult> results(flags.connections);
    std::vector<std::thread> conn_threads;
    conn_threads.reserve(flags.connections);
    const auto t0 = std::chrono::steady_clock::now();

    for (size_t c = 0; c < flags.connections; ++c) {
      conn_threads.emplace_back([&, c] {
        ConnResult& out = results[c];
        Result<net::GbdaClient> client =
            net::GbdaClient::Connect(host, port);
        if (!client.ok()) {
          out.io_failed = true;
          return;
        }
        auto make_request = [&](uint64_t id) {
          net::TopKRequest req;
          req.request_id = id;
          req.k = flags.top_k;
          req.deadline_ms = flags.deadline_ms;
          req.options = search_options;
          req.query =
              dataset->queries[(c + id) % dataset->queries.size()];
          return req;
        };
        auto count_response = [&](const net::TopKResponse& resp,
                                  double latency_ms) {
          switch (resp.status) {
            case net::WireStatus::kOk:
              ++out.ok;
              out.latency_micros.Record(
                  static_cast<uint64_t>(latency_ms * 1000.0 + 0.5));
              break;
            case net::WireStatus::kOverloaded:
              ++out.overloaded;
              break;
            case net::WireStatus::kDeadlineExceeded:
              ++out.deadline;
              break;
            default:
              ++out.other;
              break;
          }
        };

        if (rate <= 0.0) {
          // Closed loop: next request on response.
          while (ElapsedSeconds(t0) < flags.duration) {
            const auto sent_at = std::chrono::steady_clock::now();
            Result<net::TopKResponse> resp =
                client->QueryTopK(make_request(out.sent));
            ++out.sent;
            if (!resp.ok()) {
              out.io_failed = true;
              return;
            }
            count_response(*resp, ElapsedSeconds(sent_at) * 1e3);
          }
          return;
        }

        // Open loop: fixed timetable, pipelined sends; a dedicated receiver
        // thread matches responses by request id. Latency is measured from
        // the SCHEDULED send time, so server-side queueing under overload is
        // charged to the tail exactly as an external arrival would see it.
        const double interval =
            static_cast<double>(flags.connections) / rate;  // per connection
        // Preallocated send-time slots: the sender writes slot `id` before
        // publishing num_sent = id + 1 (release), the receiver reads only
        // slots below num_sent (acquire) — no resizing, no locking.
        const size_t max_sends = static_cast<size_t>(
            rate * flags.duration / static_cast<double>(flags.connections)) + 2;
        std::vector<std::chrono::steady_clock::time_point> send_times(max_sends);
        std::atomic<uint64_t> num_sent{0};
        std::atomic<bool> sender_done{false};

        std::thread receiver([&] {
          uint64_t received = 0;
          for (;;) {
            const uint64_t sent_now = num_sent.load(std::memory_order_acquire);
            if (sender_done.load(std::memory_order_acquire) &&
                received == sent_now) {
              return;
            }
            if (received == sent_now) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              continue;
            }
            Result<net::Frame> frame = client->ReadFrame();
            if (!frame.ok()) {
              out.io_failed = true;
              return;
            }
            Result<net::TopKResponse> resp =
                net::DecodeTopKResponse(frame->payload);
            if (!resp.ok() || resp->request_id >= sent_now) {
              out.io_failed = true;
              return;
            }
            const double latency_ms =
                ElapsedSeconds(send_times[resp->request_id]) * 1e3;
            count_response(*resp, latency_ms);
            ++received;
          }
        });

        uint64_t id = 0;
        for (;;) {
          const auto scheduled =
              t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(id) *
                                                     interval));
          if (id >= send_times.size() ||
              std::chrono::duration<double>(scheduled - t0).count() >=
                  flags.duration) {
            break;
          }
          std::this_thread::sleep_until(scheduled);
          send_times[id] = scheduled;
          Status sent = client->SendBytes(
              net::EncodeTopKRequest(make_request(id)));
          if (!sent.ok()) {
            out.io_failed = true;
            break;
          }
          num_sent.store(id + 1, std::memory_order_release);
          ++out.sent;
          ++id;
        }
        sender_done.store(true, std::memory_order_release);
        receiver.join();
      });
    }
    for (std::thread& t : conn_threads) t.join();
    const double wall = ElapsedSeconds(t0);
    const net::WireServerStats after = server_stats();

    // Aggregate: histogram merge is associative, so the per-connection
    // histograms combine into exactly the state one global recorder would
    // have produced.
    obs::Histogram latency;
    uint64_t sent = 0, ok = 0, overloaded = 0, deadline = 0, other = 0;
    bool io_failed = false;
    for (const ConnResult& r : results) {
      latency.Merge(r.latency_micros);
      sent += r.sent;
      ok += r.ok;
      overloaded += r.overloaded;
      deadline += r.deadline;
      other += r.other;
      io_failed = io_failed || r.io_failed;
    }
    if (io_failed || other > 0) {
      std::fprintf(stderr,
                   "rate %g: connection I/O failure or unexpected response "
                   "status (other=%llu)\n",
                   rate, static_cast<unsigned long long>(other));
      return 1;
    }
    const uint64_t batches =
        after.batches_executed - before.batches_executed;
    const uint64_t batched_requests =
        after.requests_accepted - before.requests_accepted -
        (after.rejected_deadline - before.rejected_deadline);
    std::printf(
        "%s    {\"offered_qps\": %g, \"achieved_qps\": %.2f, "
        "\"sent\": %llu, \"ok\": %llu, \"overloaded\": %llu, "
        "\"deadline_exceeded\": %llu, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
        "\"max_ms\": %.3f, \"mean_batch_size\": %.2f}",
        first_rate ? "" : ",\n", rate,
        wall > 0 ? static_cast<double>(ok) / wall : 0.0,
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(overloaded),
        static_cast<unsigned long long>(deadline),
        QuantileMs(latency, 0.50), QuantileMs(latency, 0.99),
        QuantileMs(latency, 0.999),
        static_cast<double>(latency.max()) / 1000.0,
        batches > 0 ? static_cast<double>(batched_requests) /
                          static_cast<double>(batches)
                    : 0.0);
    first_rate = false;
  }

  const net::WireServerStats final_stats = server_stats();
  std::printf("\n  ],\n");
  std::printf("  \"batch_size_histogram\": [");
  for (size_t i = 0; i < final_stats.batch_size_histogram.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(
                    final_stats.batch_size_histogram[i]));
  }
  std::printf("]\n}\n");
  if (server != nullptr) server->Shutdown();
  return 0;
}
