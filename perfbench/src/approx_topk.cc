// approx_topk: one closed-loop caller issues approximate top-k queries
// (k = 10, default window 64) through GbdaService::QueryTopK. Set-up builds
// the proximity graph with WarmAnnGraph. It is the only workload that runs
// `ann`.
//
// Corpus: the AASD profile at scale 0.025 (950 graphs) with the 100 queries
// of scale 0.1. The proximity-graph build grows about quadratically with the
// corpus (about 30 s at 3,800 graphs on the reference machine), and set-up
// runs three times per run, so the corpus is sized to keep a run short.
//
// Check: every returned (phi, gbd) must equal the exhaustive score of that
// graph bit for bit, ids must be distinct and ranked; recall_at_10 is the
// share of the exhaustive top-10 returned.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "ann/navigator.h"
#include "ann/proximity_graph.h"
#include "eval/metrics.h"
#include "harness.h"
#include "service/gbda_service.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.025;

struct Serving {
  std::unique_ptr<gbda::GbdaIndex> index;
  std::unique_ptr<gbda::GbdaService> service;
};

/// The exhaustive ranking of one query: every graph's (phi, gbd) and the
/// exact top-10 ids.
struct Exhaustive {
  std::vector<gbda::SearchMatch> by_id;
  std::set<size_t> top10;
  gbda::SearchResult top10_result;
};

/// Checks one approximate answer; returns its recall@10.
double Check(const std::vector<gbda::SearchMatch>& got, const Exhaustive& ref,
             size_t query, Report* report) {
  std::set<size_t> seen;
  size_t hits = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const gbda::SearchMatch& m = got[i];
    const bool in_range = m.graph_id < ref.by_id.size();
    const gbda::SearchMatch* want = in_range ? &ref.by_id[m.graph_id] : nullptr;
    if (want == nullptr || want->gbd != m.gbd ||
        std::memcmp(&want->phi_score, &m.phi_score, sizeof(double)) != 0 ||
        !seen.insert(m.graph_id).second ||
        (i > 0 && !gbda::SearchMatchRankBefore(got[i - 1], m))) {
      report->Wrong("approximate query " + std::to_string(query) +
                    ": match " + std::to_string(i) + " (graph " +
                    std::to_string(m.graph_id) +
                    ") is not an exhaustive score in rank order");
      return 0.0;
    }
    hits += ref.top10.count(m.graph_id);
  }
  if (got.size() > kTopK) report->Wrong("more than k matches");
  return static_cast<double>(hits) /
         static_cast<double>(std::max<size_t>(1, ref.top10.size()));
}

double SetUp(const gbda::GeneratedDataset& data,
             const gbda::SearchOptions& options, size_t first_query,
             const std::vector<Exhaustive>& refs, Serving* s, Tracer* tracer,
             Report* report) {
  const Clock::time_point t0 = Clock::now();
  gbda::Result<gbda::GbdaIndex> built =
      gbda::GbdaIndex::Build(data.db, IndexOptionsFor(data.profile));
  if (!built.ok()) {
    report->Error("index: " + built.status().ToString());
    return 0.0;
  }
  const Clock::time_point t1 = Clock::now();
  tracer->Record("core.GbdaIndex::Build", t0, t1);
  s->index = std::make_unique<gbda::GbdaIndex>(std::move(*built));
  if (tracer->active()) {
    ReportOfflineCosts(*s->index, SecondsBetween(t0, t1), report);
  }
  gbda::ServiceOptions service_options;
  service_options.num_threads = kServiceThreads;
  gbda::Result<std::unique_ptr<gbda::GbdaService>> service =
      gbda::GbdaService::Create(&data.db, s->index.get(), service_options);
  if (!service.ok()) {
    report->Error("service: " + service.status().ToString());
    return 0.0;
  }
  s->service = std::move(*service);
  const Clock::time_point a0 = Clock::now();
  const gbda::Status warmed = s->service->WarmAnnGraph();
  tracer->Record("service.WarmAnnGraph", a0, Clock::now());
  if (!warmed.ok()) {
    report->Error("WarmAnnGraph: " + warmed.ToString());
    return 0.0;
  }
  gbda::Result<gbda::SearchResult> first =
      s->service->QueryTopK(data.queries[first_query], kTopK, options);
  if (!first.ok()) {
    report->Error("first query: " + first.status().ToString());
    return 0.0;
  }
  Check(first->matches, refs[first_query], first_query, report);
  return SecondsSince(t0);
}

struct Phase {
  std::vector<double> latency_us;
  std::vector<double> recall;
  std::map<size_t, std::vector<size_t>> answer_ids;  // query -> last answer
  double wall_s = 0.0;
};

Phase RunPhase(Serving* s, const gbda::GeneratedDataset& data,
               const gbda::SearchOptions& options,
               const std::vector<size_t>& stream,
               const std::vector<Exhaustive>& refs, double seconds,
               size_t* cursor, Tracer* tracer, Report* report) {
  Phase phase;
  const Clock::time_point t0 = Clock::now();
  do {
    const size_t q = stream[(*cursor)++ % stream.size()];
    const Clock::time_point c0 = Clock::now();
    gbda::Result<gbda::SearchResult> r =
        s->service->QueryTopK(data.queries[q], kTopK, options);
    const Clock::time_point c1 = Clock::now();
    tracer->Record("service.QueryTopK", c0, c1);
    report->AddAttempted(1);
    if (!r.ok()) {
      report->AddFailed(1);
      report->Error("QueryTopK: " + r.status().ToString());
      break;
    }
    MaybeTamper(&r->matches);
    phase.recall.push_back(Check(r->matches, refs[q], q, report));
    std::vector<size_t>& ids = phase.answer_ids[q];
    ids.clear();
    for (const gbda::SearchMatch& m : r->matches) ids.push_back(m.graph_id);
    phase.latency_us.push_back(SecondsBetween(c0, c1) * 1e6);
  } while (SecondsSince(t0) < seconds);
  phase.wall_s = SecondsSince(t0);
  return phase;
}

/// Serial replay of `ann`: a proximity graph built from the index's
/// fingerprints, then navigation + verification per query with one engine.
void ReplayAnn(const gbda::GeneratedDataset& data, const gbda::GbdaIndex& index,
               const gbda::SearchOptions& options,
               const std::vector<size_t>& queries,
               const std::vector<Exhaustive>& refs, Report* report) {
  const Clock::time_point b0 = Clock::now();
  gbda::Result<gbda::AnnContext> ann = gbda::AnnContext::Build(
      gbda::FingerprintStore::FromIndex(index), gbda::AnnBuildParams());
  report->Set("ann.build_s", SecondsSince(b0), "s");
  if (!ann.ok()) {
    report->Error("ann build: " + ann.status().ToString());
    return;
  }
  const gbda::Prefilter prefilter(&data.db);
  gbda::PosteriorEngine engine(index.num_vertex_labels(),
                               index.num_edge_labels(), index.tau_max(),
                               index.mutable_ged_prior(), &index.gbd_prior());
  std::vector<double> navigate_us;
  double visited = 0.0;
  double verified = 0.0;
  for (size_t q : queries) {
    const Clock::time_point t0 = Clock::now();
    gbda::Result<gbda::ScanContext> ctx = gbda::PrepareScan(
        data.queries[q], options, /*apply_gamma=*/false,
        gbda::CorpusRef(&data.db), index);
    if (!ctx.ok()) {
      report->Error("ann replay: " + ctx.status().ToString());
      return;
    }
    gbda::SearchResult result;
    const gbda::Status st = gbda::AnnSearchTopK(*ann, *ctx, index, &prefilter,
                                                kTopK, &engine, &result);
    navigate_us.push_back(SecondsSince(t0) * 1e6);
    if (!st.ok()) {
      report->Error("ann replay: " + st.ToString());
      return;
    }
    Check(result.matches, refs[q], q, report);
    visited += static_cast<double>(result.candidates_visited);
    verified += static_cast<double>(result.verified_count);
  }
  const double n = static_cast<double>(queries.size());
  report->Set("ann.navigate_us", Mean(navigate_us), "us");
  report->Set("ann.visited_fraction",
              visited / n / static_cast<double>(data.db.size()), "ratio");
  report->Set("ann.verified_per_visited",
              visited == 0 ? 0.0 : verified / visited, "ratio");
}

}  // namespace

void RunApproxTopK(const RunConfig& config, Tracer* tracer, Report* report) {
  gbda::DatasetProfile profile = gbda::AasdProfile(kScale);
  profile.queries_per_rung = gbda::AasdProfile(0.1).queries_per_rung;
  const gbda::GeneratedDataset data = Generate(profile, config.seed, report);
  if (report->errored()) return;
  NoteCorpusSize("graphs", data.db.size());
  NoteCorpusSize("queries", data.queries.size());

  gbda::SearchOptions exact;
  exact.tau_hat = kTauHat;
  gbda::SearchOptions options = exact;
  options.approximate = true;
  const std::vector<size_t> stream =
      SeededOrder(data.queries.size(), config.seed, 7, data.queries.size() * 64);

  // Reference: the exhaustive serial ranking of every graph, per query.
  std::vector<Exhaustive> refs(data.queries.size());
  {
    const std::vector<gbda::SearchResult> rankings =
        SerialAnswers(data, exact, data.db.size(), report);
    if (report->errored()) return;
    for (size_t q = 0; q < data.queries.size(); ++q) {
      const gbda::SearchResult& all = rankings[q];
      Exhaustive& e = refs[q];
      e.by_id.assign(data.db.size(), gbda::SearchMatch());
      for (size_t i = 0; i < data.db.size(); ++i) e.by_id[i].graph_id = SIZE_MAX;
      for (const gbda::SearchMatch& m : all.matches) e.by_id[m.graph_id] = m;
      e.top10_result.candidates_evaluated = all.candidates_evaluated;
      e.top10_result.prefiltered_out = all.prefiltered_out;
      for (size_t i = 0; i < all.matches.size() && i < kTopK; ++i) {
        e.top10.insert(all.matches[i].graph_id);
        e.top10_result.matches.push_back(all.matches[i]);
      }
    }
  }
  ResetPeakRss();

  std::unique_ptr<Serving> serving;
  if (!RepeatSetUp(config, tracer, report, [&] {
        serving.reset();
        serving = std::make_unique<Serving>();
        return SetUp(data, options, stream[0], refs, serving.get(), tracer,
                     report);
      })) {
    return;
  }

  // Untimed warm-up: every query twice.
  size_t cursor = 1;
  {
    Tracer quiet;
    Report warm;
    for (size_t i = 0; i < 2 * data.queries.size(); ++i) {
      RunPhase(serving.get(), data, options, stream, refs, 0.0, &cursor, &quiet,
               &warm);
    }
    if (!warm.correct() || warm.errored()) report->Wrong("warm-up answers");
  }
  ArmTamper(config.tamper);

  double recall = 0.0;
  if (config.trace) {
    const Phase plain = RunPhase(serving.get(), data, options, stream, refs,
                                 config.seconds / 2, &cursor, tracer, report);
    serving->service->ResetStats();
    SetTracing(tracer, true);
    const Phase traced = RunPhase(serving.get(), data, options, stream, refs,
                                  config.seconds / 2, &cursor, tracer, report);
    SetTracing(tracer, false);
    recall = Mean(traced.recall);
    // F1 of the approximate answer sets against the ground truth.
    gbda::Confusion confusion;
    for (const auto& [q, ids] : traced.answer_ids) {
      confusion += gbda::CompareSets(ids, data.TrueMatches(q, kTauHat));
    }
    report->Set("core.f1", gbda::F1Score(confusion), "ratio");

    report->Set("service.query_p99_ms", Quantile(plain.latency_us, 0.99) / 1e3,
                "ms");
    report->Set("service.queries_per_s",
                static_cast<double>(plain.latency_us.size()) / plain.wall_s,
                "queries/s");
    report->Set("service.call_us", Mean(tracer->DurationsUs("service.QueryTopK")),
                "us");
    ReportServiceStats(serving->service->stats(), report);
    ReportTraceOverhead(plain.latency_us, traced.latency_us, report);

    // Serial replays: the pruned exhaustive scan (core) and navigation (ann)
    // over the same queries.
    std::vector<size_t> distinct(stream.begin(),
                                 stream.begin() + static_cast<long>(
                                                      data.queries.size()));
    const Clock::time_point p0 = Clock::now();
    const gbda::Prefilter prefilter(&data.db);
    report->Set("core.prefilter_ms", SecondsSince(p0) * 1e3, "ms");
    ReplaySpec spec;
    spec.index = serving->index.get();
    spec.corpus = gbda::CorpusRef(&data.db);
    spec.prefilter = &prefilter;
    spec.options = exact;
    spec.apply_gamma = false;
    std::vector<gbda::Graph> queries;
    std::vector<const gbda::SearchResult*> want;
    for (size_t q : distinct) {
      queries.push_back(data.queries[q]);
      want.push_back(&refs[q].top10_result);
    }
    ReplayCore(spec, queries, want, report);
    ReplayAnn(data, *serving->index, options, distinct, refs, report);
    const double navigate = report->Get("ann.navigate_us");
    report->Set("ann.speedup_vs_exhaustive",
                navigate == 0 ? 0.0
                              : (report->Get("core.prepare_scan_us") +
                                 report->Get("core.scan_us")) /
                                    navigate,
                "ratio");
  } else {
    const double cpu0 = ProcessCpuSeconds();
    const Phase phase = RunPhase(serving.get(), data, options, stream, refs,
                                 config.seconds, &cursor, tracer, report);
    const double cpu = ProcessCpuSeconds() - cpu0;
    recall = Mean(phase.recall);
    report->Set("rss_mb", PeakRssMb(), "MiB");
    report->Set("query_p50_ms", Median(phase.latency_us) / 1e3, "ms");
    report->Set("cpu_ms_per_query",
                cpu * 1e3 / static_cast<double>(phase.latency_us.size()), "ms");
  }
  report->Set("recall_at_10", recall, "ratio");
}

}  // namespace perfbench
