// gbda_serverd — the network serving front-end (docs/ARCHITECTURE.md,
// "Network serving"). A thin main around net/server.h: loads or generates a
// corpus, starts a GbdaServer over one GbdaService (frozen over an index
// built at start-up by default, a DynamicGbdaService with --dynamic=1) and
// serves the binary protocol of net/codec.h until SIGINT/SIGTERM or
// --duration elapses.
//
//   gbda_serverd [--profile=aids|fingerprint|grec|aasd] [--scale=F]
//                [--db=<transactions.txt>]       # instead of a profile
//                [--dynamic=0|1] [--port=N] [--port-file=<path>]
//                [--bind=ADDR] [--tau-max=N] [--pairs=N] [--seed=N]
//                [--threads=N] [--shards=N] [--workers=N]
//                [--max-batch=N] [--max-linger-micros=N] [--max-queue=N]
//                [--approximate=0|1] [--ann-degree=N]
//                [--metrics-port=N] [--metrics-port-file=<path>]
//                [--trace=0|1] [--trace-sample=N] [--slow-query-ms=N]
//                [--duration=SECONDS]            # 0 = run until signalled
//
// --approximate=1 warms the backend's proximity graph at startup so the
// first options.approximate query does not pay the build; approximate
// requests are still opt-in per query through the wire SearchOptions.
//
// Every numeric value must parse whole and fit its field (ports <= 65535,
// --metrics-port in [-1, 65535], --tau-max <= 1024), and every boolean must
// be exactly 0, 1, true or false; anything else is a usage error (exit 2).
// A mistyped --dynamic must never start a backend that any wire client can
// mutate.
//
// With --port=0 (the default) the kernel picks an ephemeral port; scripts
// read it from --port-file (written atomically after the listener is bound —
// the handshake the CI smoke uses). On shutdown the server counters are
// printed as one JSON object on stdout, batch-size histogram and per-stage
// latency summaries included.
//
// --metrics-port=N starts the HTTP scrape endpoint of src/obs/exporter.h on
// that port (0 = ephemeral, read back via --metrics-port-file): GET /metrics
// answers Prometheus text exposition, /metrics.json the same snapshot as
// JSON. The server's and backend's counters are published into the global
// registry only here — library users stay unregistered. --trace/--trace-
// sample/--slow-query-ms override the GBDA_TRACE / GBDA_TRACE_SAMPLE /
// GBDA_SLOW_QUERY_MS environment knobs (see src/obs/trace.h).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/gbda_index.h"
#include "datagen/dataset_profiles.h"
#include "graph/graph_io.h"
#include "net/server.h"
#include "obs/exporter.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"

using namespace gbda;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

struct Flags {
  std::string profile = "aids";
  double scale = 0.05;
  std::string db_path;
  bool dynamic = false;
  uint16_t port = 0;
  std::string port_file;
  std::string bind = "127.0.0.1";
  int64_t tau_max = 10;
  size_t sample_pairs = 2000;
  uint64_t seed = 0;
  size_t threads = 0;
  size_t shards = 0;
  bool approximate = false;
  uint32_t ann_degree = 0;  // 0 keeps the AnnBuildParams default
  net::ServerConfig server;
  double duration = 0.0;
  int32_t metrics_port = -1;  // -1 = no scrape endpoint; 0 = ephemeral
  std::string metrics_port_file;
  int32_t trace = -1;         // -1 = keep env/default
  int64_t trace_sample = -1;  // -1 = keep env/default
  int64_t slow_query_ms = -1;  // -1 = keep env/default
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: gbda_serverd [--profile=aids|fingerprint|grec|aasd] "
      "[--scale=F]\n"
      "                    [--db=<transactions.txt>] [--dynamic=0|1]\n"
      "                    [--port=N] [--port-file=<path>] [--bind=ADDR]\n"
      "                    [--tau-max=N] [--pairs=N] [--seed=N]\n"
      "                    [--threads=N] [--shards=N] [--workers=N]\n"
      "                    [--max-batch=N] [--max-linger-micros=N]\n"
      "                    [--max-queue=N] [--approximate=0|1]\n"
      "                    [--ann-degree=N] [--metrics-port=N]\n"
      "                    [--metrics-port-file=<path>] [--trace=0|1]\n"
      "                    [--trace-sample=N] [--slow-query-ms=N]\n"
      "                    [--duration=SECONDS]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "gbda_serverd: %s\n", status.ToString().c_str());
  return 1;
}

// Stores a parsed flag value; a parse error passes through.
template <typename T, typename V>
Status Assign(const Result<V>& parsed, T* out) {
  if (!parsed.ok()) return parsed.status();
  *out = static_cast<T>(*parsed);
  return Status::OK();
}

// A whole signed decimal in [lo, hi].
Result<int64_t> ParseIntIn(const std::string& s, int64_t lo, int64_t hi) {
  Result<int64_t> v = ParseInt(s);
  if (v.ok() && (*v < lo || *v > hi)) {
    return Status::OutOfRange("integer out of range [" + std::to_string(lo) +
                              ", " + std::to_string(hi) + "]: " + s);
  }
  return v;
}

Result<DatasetProfile> ProfileByName(const std::string& name, double scale) {
  if (name == "aids") return AidsProfile(scale);
  if (name == "fingerprint") return FingerprintProfile(scale);
  if (name == "grec") return GrecProfile(scale);
  if (name == "aasd") return AasdProfile(scale);
  return Status::InvalidArgument("unknown profile: " + name);
}

void PrintStats(const net::WireServerStats& s) {
  std::printf("{\n");
  std::printf("  \"tool\": \"gbda_serverd\",\n");
  std::printf("  \"connections_opened\": %llu,\n",
              static_cast<unsigned long long>(s.connections_opened));
  std::printf("  \"connections_closed\": %llu,\n",
              static_cast<unsigned long long>(s.connections_closed));
  std::printf("  \"frames_received\": %llu,\n",
              static_cast<unsigned long long>(s.frames_received));
  std::printf("  \"decode_errors\": %llu,\n",
              static_cast<unsigned long long>(s.decode_errors));
  std::printf("  \"requests_accepted\": %llu,\n",
              static_cast<unsigned long long>(s.requests_accepted));
  std::printf("  \"rejected_overloaded\": %llu,\n",
              static_cast<unsigned long long>(s.rejected_overloaded));
  std::printf("  \"rejected_deadline\": %llu,\n",
              static_cast<unsigned long long>(s.rejected_deadline));
  std::printf("  \"rejected_invalid\": %llu,\n",
              static_cast<unsigned long long>(s.rejected_invalid));
  std::printf("  \"responses_sent\": %llu,\n",
              static_cast<unsigned long long>(s.responses_sent));
  std::printf("  \"batches_executed\": %llu,\n",
              static_cast<unsigned long long>(s.batches_executed));
  std::printf("  \"queue_depth_peak\": %llu,\n",
              static_cast<unsigned long long>(s.queue_depth_peak));
  std::printf("  \"batch_size_histogram\": [");
  for (size_t i = 0; i < s.batch_size_histogram.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(s.batch_size_histogram[i]));
  }
  std::printf("],\n");
  std::printf("  \"stage_latency_micros\": {");
  for (size_t i = 0; i < s.stage_latency.size(); ++i) {
    const net::WireStageStats& st = s.stage_latency[i];
    std::printf(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
        "\"max\": %llu, \"p50\": %llu, \"p99\": %llu, \"p999\": %llu}",
        i == 0 ? "" : ",",
        obs::QueryStageName(static_cast<obs::QueryStage>(i)),
        static_cast<unsigned long long>(st.count),
        static_cast<unsigned long long>(st.sum_micros),
        static_cast<unsigned long long>(st.min_micros),
        static_cast<unsigned long long>(st.max_micros),
        static_cast<unsigned long long>(st.p50_micros),
        static_cast<unsigned long long>(st.p99_micros),
        static_cast<unsigned long long>(st.p999_micros));
  }
  std::printf("\n  }\n}\n");
}

// Atomic (tmp + rename) write of "<port>\n", so a poller never reads a
// partial number. Shared by --port-file and --metrics-port-file.
Status WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write port file: " + tmp);
  }
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename port file into place: " + path);
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    Status parsed;
    if (FlagValue(argv[i], "--profile", &v)) {
      flags.profile = v;
    } else if (FlagValue(argv[i], "--scale", &v)) {
      parsed = Assign(ParseDouble(v), &flags.scale);
      // A profile scaled by nan, zero or less sizes its corpus from a
      // wrapped or empty graph count.
      if (parsed.ok() && !(std::isfinite(flags.scale) && flags.scale > 0.0)) {
        parsed = Status::InvalidArgument("--scale must be finite and > 0");
      }
    } else if (FlagValue(argv[i], "--db", &v)) {
      flags.db_path = v;
    } else if (FlagValue(argv[i], "--dynamic", &v)) {
      parsed = Assign(ParseBool(v), &flags.dynamic);
    } else if (FlagValue(argv[i], "--port", &v)) {
      parsed = Assign(ParseUint(v, UINT16_MAX), &flags.port);
    } else if (FlagValue(argv[i], "--port-file", &v)) {
      flags.port_file = v;
    } else if (FlagValue(argv[i], "--bind", &v)) {
      flags.bind = v;
    } else if (FlagValue(argv[i], "--tau-max", &v)) {
      parsed = Assign(ParseUint(v, kMaxPlausibleTau), &flags.tau_max);
    } else if (FlagValue(argv[i], "--pairs", &v)) {
      parsed = Assign(ParseUint(v), &flags.sample_pairs);
    } else if (FlagValue(argv[i], "--seed", &v)) {
      parsed = Assign(ParseUint(v), &flags.seed);
    } else if (FlagValue(argv[i], "--threads", &v)) {
      parsed = Assign(ParseUint(v), &flags.threads);
    } else if (FlagValue(argv[i], "--shards", &v)) {
      parsed = Assign(ParseUint(v), &flags.shards);
    } else if (FlagValue(argv[i], "--workers", &v)) {
      parsed = Assign(ParseUint(v), &flags.server.num_workers);
    } else if (FlagValue(argv[i], "--max-batch", &v)) {
      parsed = Assign(ParseUint(v), &flags.server.max_batch);
    } else if (FlagValue(argv[i], "--max-linger-micros", &v)) {
      parsed = Assign(ParseUint(v), &flags.server.max_linger_micros);
    } else if (FlagValue(argv[i], "--max-queue", &v)) {
      parsed = Assign(ParseUint(v), &flags.server.max_queue);
    } else if (FlagValue(argv[i], "--approximate", &v)) {
      parsed = Assign(ParseBool(v), &flags.approximate);
    } else if (FlagValue(argv[i], "--ann-degree", &v)) {
      parsed = Assign(ParseUint(v, UINT32_MAX), &flags.ann_degree);
    } else if (FlagValue(argv[i], "--metrics-port", &v)) {
      parsed = Assign(ParseIntIn(v, -1, UINT16_MAX), &flags.metrics_port);
    } else if (FlagValue(argv[i], "--metrics-port-file", &v)) {
      flags.metrics_port_file = v;
    } else if (FlagValue(argv[i], "--trace", &v)) {
      parsed = Assign(ParseBool(v), &flags.trace);
    } else if (FlagValue(argv[i], "--trace-sample", &v)) {
      parsed = Assign(ParseIntIn(v, -1, UINT32_MAX), &flags.trace_sample);
    } else if (FlagValue(argv[i], "--slow-query-ms", &v)) {
      parsed = Assign(ParseIntIn(v, -1, INT64_MAX / 1000),
                      &flags.slow_query_ms);
    } else if (FlagValue(argv[i], "--duration", &v)) {
      parsed = Assign(ParseDouble(v), &flags.duration);
    } else {
      return Usage();
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "gbda_serverd: %s: %s\n", argv[i],
                   parsed.ToString().c_str());
      return Usage();
    }
  }

  // Tracing knobs: flags override the GBDA_TRACE / GBDA_TRACE_SAMPLE /
  // GBDA_SLOW_QUERY_MS environment (read by GetTraceConfig on first use).
  if (flags.trace >= 0 || flags.trace_sample >= 0 || flags.slow_query_ms >= 0) {
    obs::TraceConfig trace_config = obs::GetTraceConfig();
    if (flags.trace >= 0) trace_config.enabled = flags.trace != 0;
    if (flags.trace_sample > 0) {
      trace_config.sample_every = static_cast<uint32_t>(flags.trace_sample);
    }
    if (flags.slow_query_ms >= 0) {
      trace_config.slow_query_micros =
          static_cast<uint64_t>(flags.slow_query_ms) * 1000;
    }
    obs::SetTraceConfig(trace_config);
  }

  // ---- The corpus: a transaction file or a generated Table III profile ----
  GraphDatabase db;
  GbdaIndexOptions index_options;
  index_options.tau_max = flags.tau_max;
  index_options.gbd_prior.num_sample_pairs = flags.sample_pairs;
  if (!flags.db_path.empty()) {
    Result<GraphDatabase> loaded = ReadTransactionFile(flags.db_path);
    if (!loaded.ok()) return Fail(loaded.status());
    db = std::move(*loaded);
  } else {
    Result<DatasetProfile> profile = ProfileByName(flags.profile, flags.scale);
    if (!profile.ok()) return Fail(profile.status());
    if (flags.seed != 0) profile->seed = flags.seed;
    Result<GeneratedDataset> dataset = GenerateDataset(*profile);
    if (!dataset.ok()) return Fail(dataset.status());
    db = std::move(dataset->db);
    index_options.model_vertex_labels =
        static_cast<int64_t>(profile->num_vertex_labels);
    index_options.model_edge_labels =
        static_cast<int64_t>(profile->num_edge_labels);
  }
  std::fprintf(stderr, "gbda_serverd: corpus ready (%zu graphs)\n", db.size());

  flags.server.bind_address = flags.bind;
  flags.server.port = flags.port;

  ServiceOptions service_options;
  service_options.num_threads = flags.threads;
  service_options.num_shards = flags.shards;
  if (flags.ann_degree != 0) {
    service_options.ann_build.graph_degree = flags.ann_degree;
  }

  // ---- Offline stage + backend + server ----------------------------------
  // Frozen serving borrows `db` and the index built over it; a dynamic
  // backend takes the corpus over and builds its own master index.
  std::unique_ptr<GbdaIndex> index;
  std::unique_ptr<GbdaService> service;
  if (flags.dynamic) {
    DynamicServiceOptions dyn_options;
    dyn_options.service = service_options;
    Result<std::unique_ptr<DynamicGbdaService>> created =
        DynamicGbdaService::Create(std::move(db), index_options, dyn_options);
    if (!created.ok()) return Fail(created.status());
    service = std::move(*created);
  } else {
    Result<GbdaIndex> built = GbdaIndex::Build(db, index_options);
    if (!built.ok()) return Fail(built.status());
    index = std::make_unique<GbdaIndex>(std::move(*built));
    Result<std::unique_ptr<GbdaService>> created =
        GbdaService::Create(&db, index.get(), service_options);
    if (!created.ok()) return Fail(created.status());
    service = std::move(*created);
  }
  if (flags.approximate) {
    Status warmed = service->WarmAnnGraph();
    if (!warmed.ok()) return Fail(warmed);
    std::fprintf(stderr, "gbda_serverd: proximity graph warmed\n");
  }
  Result<std::unique_ptr<net::GbdaServer>> started =
      net::GbdaServer::Serve(service.get(), flags.server);
  if (!started.ok()) return Fail(started.status());
  std::unique_ptr<net::GbdaServer> server = std::move(*started);

  const std::string backend = flags.dynamic ? "dynamic" : "frozen";
  std::fprintf(stderr, "gbda_serverd: listening on %s:%u (%s backend)\n",
               flags.bind.c_str(), server->port(), backend.c_str());
  if (!flags.port_file.empty()) {
    Status wrote = WritePortFile(flags.port_file, server->port());
    if (!wrote.ok()) return Fail(wrote);
  }

  // ---- Metrics exposition -------------------------------------------------
  // Collectors publish the server's and backend's own counters into the
  // global registry for exactly this process's lifetime; the exporter then
  // serves /metrics (Prometheus text) and /metrics.json over HTTP.
  obs::CollectorHandle server_collector(
      &obs::MetricsRegistry::Global(),
      [srv = server.get()](std::vector<obs::MetricFamily>* out) {
        srv->CollectMetrics("", out);
      });
  obs::CollectorHandle service_collector(
      &obs::MetricsRegistry::Global(),
      [svc = service.get(), labels = "backend=\"" + backend + "\""](
          std::vector<obs::MetricFamily>* out) {
        svc->CollectMetrics(labels, out);
      });
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (flags.metrics_port >= 0) {
    obs::ExporterOptions exporter_options;
    exporter_options.host = flags.bind;
    exporter_options.port = static_cast<uint16_t>(flags.metrics_port);
    Result<std::unique_ptr<obs::MetricsExporter>> started =
        obs::MetricsExporter::Start(&obs::MetricsRegistry::Global(),
                                    exporter_options);
    if (!started.ok()) return Fail(started.status());
    exporter = std::move(*started);
    std::fprintf(stderr, "gbda_serverd: metrics on http://%s:%u/metrics\n",
                 flags.bind.c_str(), exporter->port());
    if (!flags.metrics_port_file.empty()) {
      Status wrote = WritePortFile(flags.metrics_port_file, exporter->port());
      if (!wrote.ok()) return Fail(wrote);
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const auto start = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (flags.duration > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= flags.duration) break;
    }
  }

  server->Shutdown();
  PrintStats(server->stats());
  return 0;
}
