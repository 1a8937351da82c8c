// gbda_perfbench: runs one workload of the repository benchmark and prints
// its metrics (perfbench/README.md). Normally started by perfbench/run.py:
//
//   gbda_perfbench --workload=wire_topk --seed=1 --seconds=10 --trace=0
//                  --work-dir=.bench_build/work [--tamper]
//
// The last stdout line is the result object; the line before it is the
// environment block. Exit status is 0 only when every answer was correct.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

// Workloads, as bits of MetricSpec::workloads.
enum : unsigned {
  kWire = 1u << 0,
  kScan = 1u << 1,
  kChurn = 1u << 2,
  kApprox = 1u << 3,
  kAll = kWire | kScan | kChurn | kApprox,
};

struct Workload {
  const char* name;
  unsigned bit;
  void (*run)(const RunConfig&, perfbench::Tracer*, Report*);
};

constexpr Workload kWorkloads[] = {
    {"wire_topk", kWire, perfbench::RunWireTopK},
    {"scan_threshold", kScan, perfbench::RunScanThreshold},
    {"dynamic_churn", kChurn, perfbench::RunDynamicChurn},
    {"approx_topk", kApprox, perfbench::RunApproxTopK},
};

struct MetricSpec {
  const char* name;
  const char* unit;
  /// The workloads that must set it: a missing value there is an error.
  /// The other workloads do not run its layer and print 0.
  unsigned workloads;
};

// Printed by every untraced run, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", kAll},
    {"query_p50_ms", "ms", kAll},
    {"cpu_ms_per_query", "ms", kAll},
    {"rss_mb", "MiB", kAll},
    {"recall_at_10", "ratio", kAll},
};

// Printed by every traced run.
constexpr MetricSpec kPerLayer[] = {
    {"net.rtt_p50_us", "us", kWire},
    {"net.encode_us", "us", kWire},
    {"net.decode_us", "us", kWire},
    {"net.admission_p50_us", "us", kWire},
    {"net.queue_p50_us", "us", kWire},
    {"net.batch_p50_us", "us", kWire},
    {"net.scan_p50_us", "us", kWire},
    {"net.outside_spans_p50_us", "us", kWire},
    {"net.mean_batch_size", "count", kWire},
    {"net.queue_depth_peak", "count", kWire},
    {"net.rejected", "count", kWire},
    {"net.generator_lag_p99_us", "us", kWire},
    {"net.max_qps_at_slo", "queries/s", kWire},
    {"service.query_p99_ms", "ms", kAll},
    // Closed-loop workloads only: a paced loop's rate is its schedule's.
    {"service.queries_per_s", "queries/s", kScan | kApprox},
    {"service.call_us", "us", kAll},
    {"service.candidates_per_query", "count", kAll},
    {"service.pruned_fraction", "ratio", kAll},
    {"service.verified_fraction", "ratio", kAll},
    {"service.commit_us", "us", kChurn},
    {"service.commit_p50_ms", "ms", kChurn},
    {"service.commit_p90_ms", "ms", kChurn},
    {"service.rebuild_us", "us", kChurn},
    {"service.swap_us", "us", kChurn},
    {"service.gbd_refits", "count", kChurn},
    {"service.first_query_after_commit_us", "us", kChurn},
    {"core.build_s", "s", kAll},
    {"core.branch_s", "s", kAll},
    {"core.gbd_prior_s", "s", kAll},
    {"core.ged_prior_s", "s", kAll},
    {"core.columns_ms", "ms", kAll},
    {"core.prefilter_ms", "ms", kAll},
    {"core.prepare_scan_us", "us", kAll},
    {"core.scan_us", "us", kAll},
    {"core.scan_ns_per_candidate", "ns", kAll},
    {"core.phi_memo_hit_ratio", "ratio", kAll},
    {"core.f1", "ratio", kAll},
    {"common.intersect_ns_per_key", "ns", kAll},
    {"storage.write_s", "s", kScan},
    {"storage.artifact_mb", "MiB", kScan},
    {"storage.open_ms", "ms", kScan},
    {"storage.first_query_ms", "ms", kScan},
    {"storage.rss_delta_mb", "MiB", kScan},
    {"ann.build_s", "s", kApprox},
    {"ann.navigate_us", "us", kApprox},
    {"ann.visited_fraction", "ratio", kApprox},
    {"ann.verified_per_visited", "ratio", kApprox},
    {"ann.speedup_vs_exhaustive", "ratio", kApprox},
    {"obs.trace_overhead_pct", "%", kAll},
};

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* bad) {
  std::fprintf(stderr,
               "gbda_perfbench: bad argument %s\n"
               "usage: gbda_perfbench --workload=wire_topk|scan_threshold|"
               "dynamic_churn|approx_topk --seed=N --seconds=S --trace=0|1 "
               "--work-dir=DIR [--tamper]\n",
               bad);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--workload", &v)) {
      config.workload = v;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      config.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argv[i], "--seconds", &v)) {
      config.seconds = std::strtod(v.c_str(), nullptr);
    } else if (FlagValue(argv[i], "--trace", &v)) {
      config.trace = v == "1";
    } else if (FlagValue(argv[i], "--work-dir", &v)) {
      config.work_dir = v;
    } else if (std::strcmp(argv[i], "--tamper") == 0) {
      config.tamper = true;
    } else {
      return Usage(argv[i]);
    }
  }
  if (config.seconds <= 0 || config.work_dir.empty()) return Usage("");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage(config.workload.c_str());

  perfbench::Tracer tracer;
  Report report;
  workload->run(config, &tracer, &report);

  // Exactly the metrics of this run's kind, each with its unit. A metric of
  // a layer the workload does not run reads 0, and the workload must not
  // set it; any other metric it must set (an error unless the workload had
  // already failed).
  const bool workload_failed = report.errored();
  std::vector<std::string> names;
  auto collect = [&](const auto& specs) {
    for (const MetricSpec& m : specs) {
      if ((m.workloads & workload->bit) == 0) {
        if (report.Has(m.name)) {
          report.Error(std::string("set ") + m.name + ", not measured here");
        }
        report.Set(m.name, 0.0, m.unit);
      } else if (!report.Has(m.name) && !workload_failed) {
        report.Error(std::string("no value for ") + m.name);
      }
      if (report.Has(m.name)) names.push_back(m.name);
    }
  };
  if (config.trace) {
    collect(kPerLayer);
  } else {
    collect(kEndToEnd);
  }

  const std::string env = perfbench::EnvJson(config, perfbench::CorpusSizes());
  if (config.trace) {
    const std::string path = config.work_dir + "/trace_" + config.workload +
                             "_" + std::to_string(config.seed) + ".json";
    if (!tracer.WriteJson(path, env)) {
      std::fprintf(stderr, "gbda_perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::printf("{\"env\": %s}\n", env.c_str());
  std::printf("%s\n", report.ResultJson(names).c_str());
  std::fflush(stdout);
  return report.correct() && !report.errored() ? 0 : 1;
}
