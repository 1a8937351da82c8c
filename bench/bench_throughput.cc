// Serving-layer throughput sweep (docs/BENCHMARKS.md, "Throughput bench").
// Sweeps thread counts x batch sizes of GbdaService over a dataset_profiles
// database and emits one machine-readable JSON object on stdout: per-config
// wall time, QPS, mean latency, counters, and speedups vs the single-thread
// config and the serial GbdaSearch loop. Before sweeping, the first config's
// results are checked bit-identical against the serial engine's exhaustive
// scan (early_termination off) so the numbers can never come from a
// diverging concurrent path or a result-changing prune.
//
// --top-k=N switches to the pruned-vs-exhaustive ranking sweep
// (docs/BENCHMARKS.md, "Pruned top-k sweep"): every config runs QueryTopKBatch
// twice — top-k early termination armed and disarmed — and reports both walls
// plus the prune speedup. The built-in gate hard-fails unless BOTH runs of
// EVERY config are bit-identical to the exhaustive serial QueryTopK
// (matches, ordering, deterministic counters), so a reported speedup can
// never come from a result-changing prune.
//
// Typical runs:
//   bench_throughput                                   # default sweep
//   bench_throughput --threads=1,4 --batches=8         # acceptance check
//   bench_throughput --threads=2 --batches=4 --queries=8 --scale=0.03  # CI
//   bench_throughput --threads=2 --top-k=10            # CI pruning gate

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/kernels.h"
#include "common/timer.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "obs/trace.h"
#include "service/gbda_service.h"

using namespace gbda;
using bench::BoolFlagOrExit;
using bench::ParseFlagValue;
using bench::ProfileByName;

namespace {

struct Flags {
  std::vector<size_t> threads = {1, 2, 4};
  std::vector<size_t> batch_sizes = {1, 8, 32};
  size_t num_queries = 32;
  std::string profile = "fingerprint";
  double scale = 0.05;
  size_t shards = 0;  // 0 = one per worker
  int64_t tau_hat = 5;
  double gamma = 0.5;
  bool prefilter = false;
  size_t sample_pairs = 2000;
  uint64_t seed = 0;  // 0 = profile default
  size_t top_k = 0;   // 0 = threshold sweep; N > 0 = pruned top-k sweep
  /// --kernels=CSV of auto|scalar|avx2. One entry pins the dispatch for the
  /// whole bench; several run a serial side-by-side sweep first (with a
  /// bit-identity gate across the modes) and then pin the first entry.
  std::vector<KernelDispatch> kernels = {KernelDispatch::kAuto};
  /// --trace=0|1 arms obs tracing (sample_every=1) for the whole run. The
  /// equivalence gates run either way, which is the acceptance check that
  /// tracing cannot change results; comparing walls across --trace=0 and
  /// --trace=1 runs measures the enabled-mode overhead (docs/BENCHMARKS.md).
  bool trace = false;
};

const char* DispatchName(KernelDispatch d) {
  switch (d) {
    case KernelDispatch::kAuto:
      return "auto";
    case KernelDispatch::kForceScalar:
      return "scalar";
    case KernelDispatch::kForceAvx2:
      return "avx2";
  }
  return "?";
}

bool ParseKernelList(const std::string& csv,
                     std::vector<KernelDispatch>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string name = csv.substr(pos, comma - pos);
    if (name == "auto") {
      out->push_back(KernelDispatch::kAuto);
    } else if (name == "scalar") {
      out->push_back(KernelDispatch::kForceScalar);
    } else if (name == "avx2") {
      out->push_back(KernelDispatch::kForceAvx2);
    } else {
      return false;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

std::vector<size_t> ParseSizeList(const std::string& csv) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(static_cast<size_t>(
        std::strtoull(csv.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return out;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlagValue(argv[i], "--threads", &v)) {
      flags.threads = ParseSizeList(v);
    } else if (ParseFlagValue(argv[i], "--batches", &v)) {
      flags.batch_sizes = ParseSizeList(v);
    } else if (ParseFlagValue(argv[i], "--queries", &v)) {
      flags.num_queries = static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (ParseFlagValue(argv[i], "--profile", &v)) {
      flags.profile = v;
    } else if (ParseFlagValue(argv[i], "--scale", &v)) {
      flags.scale = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlagValue(argv[i], "--shards", &v)) {
      flags.shards = static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (ParseFlagValue(argv[i], "--tau", &v)) {
      flags.tau_hat = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--gamma", &v)) {
      flags.gamma = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlagValue(argv[i], "--prefilter", &v)) {
      flags.prefilter = BoolFlagOrExit("--prefilter", v);
    } else if (ParseFlagValue(argv[i], "--pairs", &v)) {
      flags.sample_pairs = static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (ParseFlagValue(argv[i], "--seed", &v)) {
      flags.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--top-k", &v)) {
      flags.top_k = static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (ParseFlagValue(argv[i], "--kernels", &v)) {
      if (!ParseKernelList(v, &flags.kernels)) {
        std::fprintf(stderr, "bad --kernels value %s (CSV of auto|scalar|avx2)\n",
                     v.c_str());
        std::exit(2);
      }
    } else if (ParseFlagValue(argv[i], "--trace", &v)) {
      flags.trace = BoolFlagOrExit("--trace", v);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --threads=CSV --batches=CSV "
                   "--queries=N --profile=fingerprint|aids|grec|aasd "
                   "--scale=F --shards=N --tau=N --gamma=F --prefilter=0|1 "
                   "--pairs=N --seed=N --top-k=N --kernels=CSV --trace=0|1\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

bool SameMatches(const SearchResult& a, const SearchResult& b) {
  if (a.matches.size() != b.matches.size()) return false;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    if (a.matches[i].graph_id != b.matches[i].graph_id ||
        a.matches[i].phi_score != b.matches[i].phi_score ||
        a.matches[i].gbd != b.matches[i].gbd) {
      return false;
    }
  }
  return a.candidates_evaluated == b.candidates_evaluated &&
         a.prefiltered_out == b.prefiltered_out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.threads.empty() || flags.batch_sizes.empty() ||
      flags.num_queries == 0) {
    std::fprintf(stderr, "empty sweep\n");
    return 2;
  }

  {
    obs::TraceConfig trace_config = obs::GetTraceConfig();
    trace_config.enabled = flags.trace;
    trace_config.sample_every = 1;
    obs::SetTraceConfig(trace_config);
  }

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

  GbdaIndexOptions index_options;
  index_options.tau_max = std::max<int64_t>(10, flags.tau_hat);
  index_options.gbd_prior.num_sample_pairs = flags.sample_pairs;
  index_options.model_vertex_labels =
      static_cast<int64_t>(profile->num_vertex_labels);
  index_options.model_edge_labels =
      static_cast<int64_t>(profile->num_edge_labels);
  Result<GbdaIndex> index = GbdaIndex::Build(dataset->db, index_options);
  if (!index.ok()) {
    std::fprintf(stderr, "index: %s\n", index.status().ToString().c_str());
    return 1;
  }

  // The query stream: dataset queries cycled to the requested length.
  std::vector<Graph> queries;
  queries.reserve(flags.num_queries);
  for (size_t i = 0; i < flags.num_queries; ++i) {
    queries.push_back(dataset->queries[i % dataset->queries.size()]);
  }

  SearchOptions search_options;
  search_options.tau_hat = flags.tau_hat;
  search_options.gamma = flags.gamma;
  search_options.use_prefilter = flags.prefilter;
  // Everything downstream — serial references and service sweeps alike —
  // runs under the first requested dispatch.
  search_options.kernel_dispatch = flags.kernels.front();

  // ---- Kernel-dispatch sweep (docs/BENCHMARKS.md, "Kernel sweep") ----
  // With several --kernels entries, run the serial scan once per mode and
  // gate every mode bit-identical against the first before reporting its
  // wall — a reported scalar-vs-AVX2 delta can never come from diverging
  // results. Emitted later as the "kernel_sweep" array of the JSON object.
  std::string kernel_sweep_json;
  if (flags.kernels.size() > 1) {
    std::vector<SearchResult> reference;
    for (size_t m = 0; m < flags.kernels.size(); ++m) {
      SearchOptions opts = search_options;
      opts.kernel_dispatch = flags.kernels[m];
      GbdaSearch serial(&dataset->db, &*index);
      std::vector<SearchResult> results;
      results.reserve(queries.size());
      double wall = 0.0;
      // One untimed warm-up pass (lazy Lambda1/Phi/bound tables), then the
      // timed pass.
      for (int pass = 0; pass < 2; ++pass) {
        results.clear();
        WallTimer timer;
        for (const Graph& query : queries) {
          Result<SearchResult> r =
              flags.top_k > 0 ? serial.QueryTopK(query, flags.top_k, opts)
                              : serial.Query(query, opts);
          if (!r.ok()) {
            std::fprintf(stderr, "kernel sweep (%s): %s\n",
                         DispatchName(flags.kernels[m]),
                         r.status().ToString().c_str());
            return 1;
          }
          results.push_back(std::move(*r));
        }
        wall = timer.Seconds();
      }
      if (m == 0) {
        reference = std::move(results);
      } else {
        for (size_t i = 0; i < queries.size(); ++i) {
          if (!SameMatches(reference[i], results[i])) {
            std::fprintf(stderr,
                         "KERNEL EQUIVALENCE FAILURE: dispatch %s diverges "
                         "from %s on query %zu\n",
                         DispatchName(flags.kernels[m]),
                         DispatchName(flags.kernels[0]), i);
            return 1;
          }
        }
      }
      char entry[256];
      std::snprintf(entry, sizeof(entry),
                    "%s    {\"requested\": \"%s\", \"resolved\": \"%s\", "
                    "\"wall_seconds\": %.6f, \"qps\": %.2f}",
                    m == 0 ? "" : ",\n", DispatchName(flags.kernels[m]),
                    KernelImplName(ResolveKernels(flags.kernels[m])), wall,
                    wall > 0 ? static_cast<double>(queries.size()) / wall
                             : 0.0);
      kernel_sweep_json += entry;
    }
  }

  if (flags.top_k > 0) {
    // ---- Pruned top-k sweep (docs/BENCHMARKS.md, "Pruned top-k sweep") ----
    SearchOptions pruned_options = search_options;
    pruned_options.early_termination = true;
    SearchOptions exhaustive_options = search_options;
    exhaustive_options.early_termination = false;

    // Exhaustive serial reference: the source of truth every config (both
    // pruned and exhaustive runs) must reproduce bit-identically.
    std::vector<SearchResult> serial_results;
    serial_results.reserve(queries.size());
    double serial_wall;
    {
      GbdaSearch serial(&dataset->db, &*index);
      WallTimer timer;
      for (const Graph& query : queries) {
        Result<SearchResult> r =
            serial.QueryTopK(query, flags.top_k, exhaustive_options);
        if (!r.ok()) {
          std::fprintf(stderr, "serial top-k query: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        serial_results.push_back(std::move(*r));
      }
      serial_wall = timer.Seconds();
    }

    std::printf("{\n");
    std::printf("  \"bench\": \"bench_throughput\",\n");
    std::printf("  \"mode\": \"topk_prune_sweep\",\n");
    std::printf("  \"profile\": \"%s\",\n", flags.profile.c_str());
    std::printf("  \"scale\": %g,\n", flags.scale);
    std::printf("  \"db_graphs\": %zu,\n", dataset->db.size());
    std::printf("  \"queries\": %zu,\n", queries.size());
    std::printf("  \"top_k\": %zu,\n", flags.top_k);
    std::printf("  \"tau_hat\": %lld,\n",
                static_cast<long long>(flags.tau_hat));
    std::printf("  \"prefilter\": %s,\n", flags.prefilter ? "true" : "false");
    std::printf("  \"trace\": %s,\n", flags.trace ? "true" : "false");
    std::printf("  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
    std::printf("  \"kernels\": \"%s\",\n",
                KernelImplName(ResolveKernels(flags.kernels.front())));
    if (!kernel_sweep_json.empty()) {
      std::printf("  \"kernel_sweep\": [\n%s\n  ],\n",
                  kernel_sweep_json.c_str());
    }
    std::printf("  \"serial_exhaustive\": {\"wall_seconds\": %.6f},\n",
                serial_wall);
    std::printf("  \"configs\": [\n");

    bool first_config = true;
    for (size_t threads : flags.threads) {
      for (size_t batch_size : flags.batch_sizes) {
        ServiceOptions service_options;
        service_options.num_threads = threads;
        service_options.num_shards = flags.shards;
        GbdaService service(&dataset->db, &*index, service_options);

        // One full pass over the query stream; returns the wall time and
        // keeps every result for the equivalence gate below.
        auto run_pass = [&](const SearchOptions& opts, double* wall,
                            std::vector<SearchResult>* all) -> bool {
          service.ResetStats();
          all->clear();
          all->reserve(queries.size());
          WallTimer timer;
          for (size_t begin = 0; begin < queries.size(); begin += batch_size) {
            const size_t count = std::min(batch_size, queries.size() - begin);
            Result<std::vector<SearchResult>> batch = service.QueryTopKBatch(
                Span<Graph>(queries.data() + begin, count), flags.top_k, opts);
            if (!batch.ok()) {
              std::fprintf(stderr, "config (%zu threads, batch %zu): %s\n",
                           threads, batch_size,
                           batch.status().ToString().c_str());
              return false;
            }
            for (SearchResult& r : *batch) all->push_back(std::move(r));
          }
          *wall = timer.Seconds();
          return true;
        };

        double pruned_wall = 0.0, exhaustive_wall = 0.0, warmup_wall = 0.0;
        std::vector<SearchResult> pruned_results, exhaustive_results;
        // Untimed warm-up, with pruning ARMED: it triggers every lazy
        // one-off both passes depend on — the shared table's Lambda1
        // columns, the service engine's Phi rows (values and suffix
        // maxima) and the service's O(corpus) prefilter-profile build
        // (--prefilter=1 only) — so the timed walls below measure
        // steady-state serving for both modes rather than whichever pass
        // happened to touch a cold cache first.
        if (!run_pass(pruned_options, &warmup_wall, &pruned_results)) {
          return 1;
        }
        if (!run_pass(exhaustive_options, &exhaustive_wall,
                      &exhaustive_results)) {
          return 1;
        }
        if (!run_pass(pruned_options, &pruned_wall, &pruned_results)) return 1;
        const ServiceStats pruned_stats = service.stats();

        // Equivalence gate: BOTH runs must reproduce the exhaustive serial
        // ranking bit-identically before any speedup is reported.
        for (size_t i = 0; i < queries.size(); ++i) {
          if (!SameMatches(serial_results[i], pruned_results[i]) ||
              !SameMatches(serial_results[i], exhaustive_results[i])) {
            std::fprintf(stderr,
                         "EQUIVALENCE FAILURE: config (%zu threads, batch "
                         "%zu) query %zu diverges from the exhaustive serial "
                         "top-k scan\n",
                         threads, batch_size, i);
            return 1;
          }
        }

        std::printf(
            "%s    {\"threads\": %zu, \"shards\": %zu, \"batch_size\": %zu, "
            "\"pruned_wall_seconds\": %.6f, \"exhaustive_wall_seconds\": %.6f, "
            "\"prune_speedup\": %.3f, \"qps\": %.2f, "
            "\"mean_latency_seconds\": %.6f, \"candidates_evaluated\": %zu, "
            "\"pruned_by_bound\": %zu, \"verified_count\": %zu, "
            "\"speedup_vs_serial_exhaustive\": %.3f}",
            first_config ? "" : ",\n", threads, service.num_shards(),
            batch_size, pruned_wall, exhaustive_wall,
            pruned_wall > 0 ? exhaustive_wall / pruned_wall : 0.0,
            pruned_wall > 0
                ? static_cast<double>(queries.size()) / pruned_wall
                : 0.0,
            pruned_stats.MeanLatencySeconds(),
            pruned_stats.candidates_evaluated, pruned_stats.pruned_by_bound,
            pruned_stats.verified_count,
            pruned_wall > 0 ? serial_wall / pruned_wall : 0.0);
        first_config = false;
      }
    }
    std::printf("\n  ],\n");
    std::printf("  \"equivalence_ok\": true\n");
    std::printf("}\n");
    return 0;
  }

  // Serial reference: one engine, one query at a time, every candidate
  // scored — Algorithm 1 as published, also the source of truth for the
  // equivalence check (so the service's pruned scan is gated against it).
  SearchOptions exhaustive_options = search_options;
  exhaustive_options.early_termination = false;
  std::vector<SearchResult> serial_results;
  serial_results.reserve(queries.size());
  double serial_wall;
  {
    GbdaSearch serial(&dataset->db, &*index);
    WallTimer timer;
    for (const Graph& query : queries) {
      Result<SearchResult> r = serial.Query(query, exhaustive_options);
      if (!r.ok()) {
        std::fprintf(stderr, "serial query: %s\n", r.status().ToString().c_str());
        return 1;
      }
      serial_results.push_back(std::move(*r));
    }
    serial_wall = timer.Seconds();
  }

  // Equivalence gate: the first sweep config must reproduce the serial
  // results bit-identically before any throughput number is reported.
  {
    ServiceOptions service_options;
    service_options.num_threads = flags.threads.front();
    service_options.num_shards = flags.shards;
    GbdaService service(&dataset->db, &*index, service_options);
    Result<std::vector<SearchResult>> batch =
        service.QueryBatch(queries, search_options);
    if (!batch.ok()) {
      std::fprintf(stderr, "service batch: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!SameMatches(serial_results[i], (*batch)[i])) {
        std::fprintf(stderr,
                     "EQUIVALENCE FAILURE: query %zu diverges from the "
                     "serial scan\n",
                     i);
        return 1;
      }
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_throughput\",\n");
  std::printf("  \"profile\": \"%s\",\n", flags.profile.c_str());
  std::printf("  \"scale\": %g,\n", flags.scale);
  std::printf("  \"db_graphs\": %zu,\n", dataset->db.size());
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"tau_hat\": %lld,\n",
              static_cast<long long>(flags.tau_hat));
  std::printf("  \"gamma\": %g,\n", flags.gamma);
  std::printf("  \"prefilter\": %s,\n", flags.prefilter ? "true" : "false");
  std::printf("  \"trace\": %s,\n", flags.trace ? "true" : "false");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"kernels\": \"%s\",\n",
              KernelImplName(ResolveKernels(flags.kernels.front())));
  if (!kernel_sweep_json.empty()) {
    std::printf("  \"kernel_sweep\": [\n%s\n  ],\n",
                kernel_sweep_json.c_str());
  }
  std::printf("  \"equivalence_ok\": true,\n");
  std::printf("  \"serial\": {\"wall_seconds\": %.6f, \"qps\": %.2f},\n",
              serial_wall,
              serial_wall > 0 ? static_cast<double>(queries.size()) / serial_wall
                              : 0.0);
  std::printf("  \"configs\": [\n");

  bool first_config = true;
  // wall_seconds of the threads==1 config per batch size, for speedup.
  std::vector<double> one_thread_wall(flags.batch_sizes.size(), 0.0);
  for (size_t ti = 0; ti < flags.threads.size(); ++ti) {
    const size_t threads = flags.threads[ti];
    for (size_t bi = 0; bi < flags.batch_sizes.size(); ++bi) {
      const size_t batch_size = flags.batch_sizes[bi];
      ServiceOptions service_options;
      service_options.num_threads = threads;
      service_options.num_shards = flags.shards;
      GbdaService service(&dataset->db, &*index, service_options);

      WallTimer timer;
      for (size_t begin = 0; begin < queries.size(); begin += batch_size) {
        const size_t count = std::min(batch_size, queries.size() - begin);
        Result<std::vector<SearchResult>> batch = service.QueryBatch(
            Span<Graph>(queries.data() + begin, count), search_options);
        if (!batch.ok()) {
          std::fprintf(stderr, "config (%zu threads, batch %zu): %s\n",
                       threads, batch_size,
                       batch.status().ToString().c_str());
          return 1;
        }
      }
      const double wall = timer.Seconds();
      const ServiceStats stats = service.stats();
      if (threads == 1 && one_thread_wall[bi] == 0.0) {
        one_thread_wall[bi] = wall;
      }
      const double speedup_1t =
          one_thread_wall[bi] > 0.0 ? one_thread_wall[bi] / wall : 0.0;

      std::printf("%s    {\"threads\": %zu, \"shards\": %zu, "
                  "\"batch_size\": %zu, \"wall_seconds\": %.6f, "
                  "\"qps\": %.2f, \"mean_latency_seconds\": %.6f, "
                  "\"candidates_evaluated\": %zu, \"prefiltered_out\": %zu, "
                  "\"pruned_by_bound\": %zu, \"verified_count\": %zu, "
                  "\"matches_returned\": %zu, "
                  "\"speedup_vs_1thread\": %.3f, "
                  "\"speedup_vs_serial\": %.3f}",
                  first_config ? "" : ",\n", threads, service.num_shards(),
                  batch_size, wall,
                  wall > 0 ? static_cast<double>(queries.size()) / wall : 0.0,
                  stats.MeanLatencySeconds(), stats.candidates_evaluated,
                  stats.prefiltered_out, stats.pruned_by_bound,
                  stats.verified_count, stats.matches_returned, speedup_1t,
                  wall > 0 ? serial_wall / wall : 0.0);
      first_config = false;
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
