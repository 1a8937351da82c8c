// Per-layer numbers of the `core` and `common` layers. The serving layers
// fan a query out over shards and threads, so their spans cannot separate
// query preparation from the scan; replaying the workload's queries serially
// through the public PrepareScan / ScanRange pair with one PosteriorEngine
// can.
#include <cstdio>

#include "common/kernels.h"
#include "harness.h"
#include "service/gbda_service.h"

namespace perfbench {

void ReplayCore(const ReplaySpec& spec, const std::vector<gbda::Graph>& queries,
                const std::vector<const gbda::SearchResult*>& want,
                Report* report) {
  const gbda::IndexReader& index = *spec.index;
  gbda::PosteriorEngine engine(index.num_vertex_labels(),
                               index.num_edge_labels(), index.tau_max(),
                               index.mutable_ged_prior(), &index.gbd_prior());
  const gbda::ScanKernels& kernels = gbda::GetScanKernels(
      gbda::ResolveKernels(spec.options.kernel_dispatch));
  const gbda::CandidateColumns columns = index.columns();

  std::vector<double> prepare_us;
  std::vector<double> scan_us;
  double scan_seconds = 0.0;
  uint64_t candidates = 0;
  double intersect_seconds = 0.0;
  uint64_t intersect_keys = 0;
  int64_t sink = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    gbda::Result<gbda::ScanContext> ctx = gbda::PrepareScan(
        queries[i], spec.options, spec.apply_gamma, spec.corpus, index);
    const Clock::time_point t1 = Clock::now();
    if (!ctx.ok()) {
      report->Error("replay PrepareScan: " + ctx.status().ToString());
      return;
    }
    gbda::SearchResult result;
    gbda::ScanBounds bounds(kTopK);
    const gbda::Status scanned = gbda::ScanRange(
        *ctx, index, spec.prefilter, 0, index.num_graphs(), &engine, &result,
        spec.apply_gamma ? nullptr : &bounds);
    if (!spec.apply_gamma) gbda::SortTopK(&result.matches, kTopK);
    const Clock::time_point t2 = Clock::now();
    if (!scanned.ok()) {
      report->Error("replay ScanRange: " + scanned.ToString());
      return;
    }
    const std::string diff =
        DiffAnswers(result.matches, result.candidates_evaluated,
                    result.prefiltered_out, *want[i]);
    if (!diff.empty()) report->Wrong("core replay query " + std::to_string(i) +
                                     ": " + diff);
    prepare_us.push_back(SecondsBetween(t0, t1) * 1e6);
    scan_us.push_back(SecondsBetween(t1, t2) * 1e6);
    scan_seconds += SecondsBetween(t1, t2);
    candidates += result.candidates_evaluated;

    // The intersection kernel over this query's fingerprints and every
    // candidate's fingerprint column.
    if (columns.present()) {
      const std::vector<uint64_t>& q = ctx->query_fps;
      const Clock::time_point k0 = Clock::now();
      for (size_t g = 0; g < index.num_graphs(); ++g) {
        const uint64_t begin = columns.fp_offsets[g];
        const size_t n = static_cast<size_t>(columns.fp_offsets[g + 1] - begin);
        sink += kernels.intersect_count(q.data(), q.size(),
                                        columns.fp_keys + begin, n);
        intersect_keys += q.size() + n;
      }
      intersect_seconds += SecondsSince(k0);
    }
  }
  if (sink == -1) std::fprintf(stderr, "unreachable\n");  // keeps the calls

  const double hits = static_cast<double>(engine.memo_hits());
  const double misses = static_cast<double>(engine.memo_misses());
  report->Set("core.prepare_scan_us", Mean(prepare_us), "us");
  report->Set("core.scan_us", Mean(scan_us), "us");
  report->Set("core.scan_ns_per_candidate",
              candidates == 0 ? 0.0
                              : scan_seconds * 1e9 /
                                    static_cast<double>(candidates),
              "ns");
  report->Set("core.phi_memo_hit_ratio",
              hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
  report->Set("common.intersect_ns_per_key",
              intersect_keys == 0 ? 0.0
                                  : intersect_seconds * 1e9 /
                                        static_cast<double>(intersect_keys),
              "ns");
}

void ReportTraceOverhead(const std::vector<double>& untraced_us,
                         const std::vector<double>& traced_us, Report* report) {
  const double base = Median(untraced_us);
  report->Set("obs.trace_overhead_pct",
              base == 0 ? 0.0 : (Median(traced_us) - base) / base * 100.0, "%");
}

void ReportServiceStats(const gbda::ServiceStats& stats, Report* report) {
  const double cand = static_cast<double>(stats.candidates_evaluated);
  report->Set("service.candidates_per_query",
              stats.queries_served == 0
                  ? 0.0
                  : cand / static_cast<double>(stats.queries_served),
              "count");
  report->Set("service.pruned_fraction",
              cand == 0 ? 0.0 : static_cast<double>(stats.pruned_by_bound) / cand,
              "ratio");
  report->Set("service.verified_fraction",
              cand == 0 ? 0.0 : static_cast<double>(stats.verified_count) / cand,
              "ratio");
}

void ReportOfflineCosts(const gbda::GbdaIndex& index, double build_seconds,
                        Report* report) {
  const gbda::OfflineCosts& costs = index.costs();
  report->Set("core.build_s", build_seconds, "s");
  report->Set("core.branch_s", costs.branch_seconds, "s");
  report->Set("core.gbd_prior_s", costs.gbd_prior_seconds, "s");
  report->Set("core.ged_prior_s", costs.ged_prior_seconds, "s");
  const Clock::time_point t0 = Clock::now();
  (void)index.columns();
  report->Set("core.columns_ms", SecondsSince(t0) * 1e3, "ms");
}

}  // namespace perfbench
