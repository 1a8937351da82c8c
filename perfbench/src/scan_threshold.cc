// scan_threshold: closed-loop threshold queries in batches of 8 through
// GbdaService::QueryBatch over a v3 artifact opened with GbdaIndexView::Open.
// Algorithm 1 as published: tau_hat = 5, gamma = 0.9, prefilter off, so every
// candidate is scored and the scan kernels, the posterior and mapped reads
// do almost all the work, over a working set far larger than the per-core
// L2; `net` and `ann` do none.
#include <sys/stat.h>

#include <memory>

#include "harness.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace perfbench {
namespace {

constexpr size_t kBatch = 8;
constexpr size_t kReplayQueries = 16;

struct Serving {
  std::unique_ptr<gbda::GbdaIndexView> view;
  std::unique_ptr<gbda::GbdaService> service;
};

/// Builds the index, writes and maps the artifact, starts the service and
/// returns the seconds to the first correct answer.
double SetUp(const gbda::GeneratedDataset& data, const std::string& path,
             const gbda::SearchOptions& options,
             const std::vector<size_t>& stream,
             const std::vector<gbda::SearchResult>& refs, Serving* s,
             Tracer* tracer, Report* report) {
  const Clock::time_point t0 = Clock::now();
  {
    gbda::Result<gbda::GbdaIndex> built =
        gbda::GbdaIndex::Build(data.db, IndexOptionsFor(data.profile));
    if (!built.ok()) {
      report->Error("index: " + built.status().ToString());
      return 0.0;
    }
    const Clock::time_point t1 = Clock::now();
    tracer->Record("core.GbdaIndex::Build", t0, t1);
    if (tracer->active()) {
      ReportOfflineCosts(*built, SecondsBetween(t0, t1), report);
    }
    const Clock::time_point w0 = Clock::now();
    const gbda::Status written = gbda::WriteArenaFile(*built, path);
    const Clock::time_point w1 = Clock::now();
    tracer->Record("storage.WriteArenaFile", w0, w1);
    if (!written.ok()) {
      report->Error("write: " + written.ToString());
      return 0.0;
    }
    report->Set("storage.write_s", SecondsBetween(w0, w1), "s");
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      report->Set("storage.artifact_mb",
                  static_cast<double>(st.st_size) / (1024.0 * 1024.0), "MiB");
    }
  }
  const double rss_before = CurrentRssMb();
  const Clock::time_point o0 = Clock::now();
  gbda::Result<gbda::GbdaIndexView> view = gbda::GbdaIndexView::Open(path);
  const Clock::time_point o1 = Clock::now();
  tracer->Record("storage.GbdaIndexView::Open", o0, o1);
  if (!view.ok()) {
    report->Error("open: " + view.status().ToString());
    return 0.0;
  }
  s->view = std::make_unique<gbda::GbdaIndexView>(std::move(*view));
  gbda::ServiceOptions service_options;
  service_options.num_threads = kServiceThreads;
  gbda::Result<std::unique_ptr<gbda::GbdaService>> service =
      gbda::GbdaService::Create(&data.db, s->view.get(), service_options);
  if (!service.ok()) {
    report->Error("service: " + service.status().ToString());
    return 0.0;
  }
  s->service = std::move(*service);
  const Clock::time_point q0 = Clock::now();
  gbda::Result<gbda::SearchResult> first =
      s->service->Query(data.queries[stream[0]], options);
  const Clock::time_point q1 = Clock::now();
  tracer->Record("service.Query", q0, q1);
  if (!first.ok()) {
    report->Error("first query: " + first.status().ToString());
    return 0.0;
  }
  const std::string diff =
      DiffAnswers(first->matches, first->candidates_evaluated,
                  first->prefiltered_out, refs[stream[0]]);
  if (!diff.empty()) report->Wrong("first query: " + diff);
  const double seconds = SecondsSince(t0);
  report->Set("storage.open_ms", SecondsBetween(o0, o1) * 1e3, "ms");
  report->Set("storage.first_query_ms", SecondsBetween(q0, q1) * 1e3, "ms");
  report->Set("storage.rss_delta_mb", CurrentRssMb() - rss_before, "MiB");
  return seconds;
}

struct Phase {
  /// Per query: its QueryBatch call from submission to return, on the
  /// benchmark's clock (each call counts once for each of its queries).
  std::vector<double> latency_us;
  size_t queries = 0;
  double wall_s = 0.0;
};

/// Closed loop: QueryBatch of kBatch consecutive stream queries, checked;
/// at least one batch.
Phase RunPhase(Serving* s, const gbda::GeneratedDataset& data,
               const gbda::SearchOptions& options,
               const std::vector<size_t>& stream,
               const std::vector<gbda::SearchResult>& refs, double seconds,
               size_t* cursor, Tracer* tracer, Report* report) {
  Phase phase;
  const Clock::time_point t0 = Clock::now();
  std::vector<gbda::Graph> batch(kBatch);
  std::vector<size_t> ids(kBatch);
  do {
    for (size_t i = 0; i < kBatch; ++i) {
      ids[i] = stream[(*cursor)++ % stream.size()];
      batch[i] = data.queries[ids[i]];
    }
    const Clock::time_point c0 = Clock::now();
    gbda::Result<std::vector<gbda::SearchResult>> results =
        s->service->QueryBatch(gbda::Span<gbda::Graph>(batch), options);
    const Clock::time_point c1 = Clock::now();
    tracer->Record("service.QueryBatch", c0, c1);
    report->AddAttempted(kBatch);
    if (!results.ok()) {
      report->AddFailed(kBatch);
      report->Error("QueryBatch: " + results.status().ToString());
      break;
    }
    const double call_us = SecondsBetween(c0, c1) * 1e6;
    for (size_t i = 0; i < kBatch; ++i) {
      gbda::SearchResult& r = (*results)[i];
      MaybeTamper(&r.matches);
      const std::string diff = DiffAnswers(
          r.matches, r.candidates_evaluated, r.prefiltered_out, refs[ids[i]]);
      if (!diff.empty()) {
        report->Wrong("query " + std::to_string(ids[i]) + ": " + diff);
      }
      phase.latency_us.push_back(call_us);
    }
    phase.queries += kBatch;
  } while (SecondsSince(t0) < seconds);
  phase.wall_s = SecondsSince(t0);
  return phase;
}

}  // namespace

void RunScanThreshold(const RunConfig& config, Tracer* tracer, Report* report) {
  const gbda::GeneratedDataset data =
      Generate(gbda::AasdProfile(1.0), config.seed, report);
  if (report->errored()) return;
  NoteCorpusSize("graphs", data.db.size());
  NoteCorpusSize("queries", data.queries.size());

  gbda::SearchOptions options;
  options.tau_hat = kTauHat;
  options.gamma = 0.9;
  options.use_prefilter = false;
  const std::vector<size_t> stream =
      SeededOrder(data.queries.size(), config.seed, 2, data.queries.size() * 64);

  const std::vector<gbda::SearchResult> refs =
      SerialAnswers(data, options, std::nullopt, report);
  if (report->errored()) return;

  ResetPeakRss();

  const std::string path = config.work_dir + "/scan_threshold_" +
                           std::to_string(config.seed) + ".gba3";
  std::unique_ptr<Serving> serving;
  if (!RepeatSetUp(config, tracer, report, [&] {
        serving.reset();
        serving = std::make_unique<Serving>();
        return SetUp(data, path, options, stream, refs, serving.get(), tracer,
                     report);
      })) {
    return;
  }
  NoteCorpusSize("artifact_bytes",
                 static_cast<size_t>(report->Has("storage.artifact_mb")
                                         ? report->Get("storage.artifact_mb") *
                                               1024.0 * 1024.0
                                         : 0.0));

  // Untimed warm-up: two batches fault the artifact in and warm the
  // per-worker posterior engines.
  size_t cursor = 1;
  {
    Tracer quiet;
    Report warm;
    RunPhase(serving.get(), data, options, stream, refs, 0.0, &cursor, &quiet,
             &warm);
    RunPhase(serving.get(), data, options, stream, refs, 0.0, &cursor, &quiet,
             &warm);
    if (!warm.correct() || warm.errored()) report->Wrong("warm-up answers");
  }
  ArmTamper(config.tamper);

  if (!config.trace) {
    const double cpu0 = ProcessCpuSeconds();
    const Phase phase = RunPhase(serving.get(), data, options, stream, refs,
                                 config.seconds, &cursor, tracer, report);
    const double cpu = ProcessCpuSeconds() - cpu0;
    report->Set("rss_mb", PeakRssMb(), "MiB");
    report->Set("query_p50_ms", Median(phase.latency_us) / 1e3, "ms");
    report->Set("cpu_ms_per_query",
                cpu * 1e3 / static_cast<double>(phase.queries), "ms");
  } else {
    const Phase plain = RunPhase(serving.get(), data, options, stream, refs,
                                 config.seconds / 2, &cursor, tracer, report);
    serving->service->ResetStats();
    SetTracing(tracer, true);
    const Phase traced = RunPhase(serving.get(), data, options, stream, refs,
                                  config.seconds / 2, &cursor, tracer, report);
    SetTracing(tracer, false);

    report->Set("service.query_p99_ms", Quantile(plain.latency_us, 0.99) / 1e3,
                "ms");
    report->Set("service.queries_per_s",
                static_cast<double>(plain.queries) / plain.wall_s, "queries/s");
    report->Set("service.call_us",
                Mean(tracer->DurationsUs("service.QueryBatch")), "us");
    ReportServiceStats(serving->service->stats(), report);
    ReportTraceOverhead(plain.latency_us, traced.latency_us, report);

    const Clock::time_point p0 = Clock::now();
    const gbda::Prefilter prefilter(&data.db);
    report->Set("core.prefilter_ms", SecondsSince(p0) * 1e3, "ms");
    ReplaySpec spec;
    spec.index = serving->view.get();
    spec.corpus = gbda::CorpusRef(&data.db);
    spec.options = options;
    spec.apply_gamma = true;
    std::vector<gbda::Graph> queries;
    std::vector<const gbda::SearchResult*> want;
    for (size_t i = 0; i < kReplayQueries && i < data.queries.size(); ++i) {
      queries.push_back(data.queries[stream[i]]);
      want.push_back(&refs[stream[i]]);
    }
    ReplayCore(spec, queries, want, report);
    // F1 of the threshold answer sets against the ground truth.
    report->Set("core.f1", ReferenceF1(refs, data), "ratio");
  }
  report->Set("recall_at_10", 1.0, "ratio");  // exact answers, checked above
}

}  // namespace perfbench
