// dynamic_churn: a DynamicGbdaService on the full AIDS profile that starts
// with 60 % of the graphs. One writer commits on a fixed open-loop schedule:
// a seeded mix adds 4 unseen graphs (AddGraphs) or removes 2 live ones
// (RemoveGraphs), keeping the live count within +-10 %. The default refit
// policy refits Lambda2 on every commit, as `gbda_serverd --dynamic` does.
// One reader issues top-k queries at the same time, every query in a seeded
// order, on its own fixed schedule (400/s), so every run holds the same
// number of reads per commit; each read is timed from its call, as a
// closed-loop reader would see it.
// It runs the same `service` and `core` code as wire_topk with writes beside
// reads, so a read-path gain that moves work into commits, or the reverse,
// shows here.
//
// Every read is checked: the first answer to a query in a generation is
// checked after the run against serial GbdaSearch over a fresh index of that
// generation's live graphs (with the default refit policy every snapshot
// equals a from-scratch build over its live graphs), and every repeat of it
// must equal that first answer.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.h"
#include "eval/metrics.h"
#include "harness.h"
#include "service/dynamic_service.h"

namespace perfbench {
namespace {

constexpr double kInitialFraction = 0.6;
constexpr double kCommitsPerSecond = 4.0;
constexpr size_t kAddBatch = 4;
constexpr size_t kRemoveBatch = 2;
constexpr double kReadsPerSecond = 400.0;
constexpr size_t kVerifyThreads = 4;

/// The seeded write schedule and the stable-id bookkeeping it implies.
struct Plan {
  struct Commit {
    bool add = false;
    std::vector<size_t> dataset_ids;  // graphs an add commits
    std::vector<size_t> stable_ids;   // ids an add assigns / a remove retires
  };
  std::vector<size_t> initial;          // dataset ids, stable ids 0..n-1
  std::vector<Commit> commits;
  std::vector<size_t> dataset_of;       // stable id -> dataset id
  /// live[j] = sorted live stable ids after j commits.
  std::vector<std::vector<size_t>> live;
};

Plan MakePlan(const gbda::GeneratedDataset& data, uint64_t seed,
              size_t num_commits) {
  Plan plan;
  const size_t total = data.db.size();
  std::vector<size_t> order = SeededOrder(total, seed, 3, total);
  const size_t n0 = static_cast<size_t>(static_cast<double>(total) *
                                        kInitialFraction);
  plan.initial.assign(order.begin(), order.begin() + static_cast<long>(n0));
  size_t next_unseen = n0;
  plan.dataset_of = plan.initial;
  std::vector<size_t> live(n0);
  for (size_t i = 0; i < n0; ++i) live[i] = i;
  plan.live.push_back(live);
  gbda::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 4);
  for (size_t j = 0; j < num_commits; ++j) {
    const double ratio =
        static_cast<double>(live.size()) / static_cast<double>(n0);
    bool add = rng.NextDouble() < 1.0 / 3.0;  // balances 4 in, 2 out
    if (ratio > 1.05) add = false;
    if (ratio < 0.95) add = true;
    if (next_unseen + kAddBatch > total) add = false;
    Plan::Commit c;
    c.add = add;
    if (add) {
      for (size_t k = 0; k < kAddBatch; ++k) {
        c.dataset_ids.push_back(order[next_unseen++]);
        c.stable_ids.push_back(plan.dataset_of.size());
        plan.dataset_of.push_back(c.dataset_ids.back());
        live.push_back(c.stable_ids.back());
      }
    } else {
      for (size_t k = 0; k < kRemoveBatch; ++k) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        c.stable_ids.push_back(live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    std::sort(live.begin(), live.end());
    plan.commits.push_back(std::move(c));
    plan.live.push_back(live);
  }
  return plan;
}

/// Distinct (generation, query) answers; a repeated read of the same query
/// in the same generation is compared with the stored one when it arrives.
using Answers = std::map<std::pair<uint64_t, size_t>, gbda::SearchResult>;

struct Phase {
  std::vector<double> read_us;  // per read call
  std::vector<double> commit_us;
  double writer_cpu_s = 0.0;  // the commits' CPU, all on the writer thread
  std::vector<double> first_after_commit_us;
  std::vector<uint64_t> commit_generation;  // per commit, in plan order
};

/// Writer and reader on fixed open-loop schedules over `seconds`: the plan's
/// commits from *next_commit at kCommitsPerSecond, top-k reads at
/// kReadsPerSecond. The first answer to each (generation, query) is stored in
/// *answers; a repeat, in this phase or a later one, must equal it.
Phase RunPhase(gbda::DynamicGbdaService* service, const Plan& plan,
               const gbda::GeneratedDataset& data,
               const std::vector<size_t>& reader_stream,
               const gbda::SearchOptions& options, double seconds,
               size_t* next_commit, size_t* cursor, Answers* answers,
               Tracer* tracer, Report* report) {
  Phase phase;
  const size_t first = *next_commit;
  const size_t count = std::min(
      plan.commits.size() - first,
      static_cast<size_t>(seconds * kCommitsPerSecond + 0.5));
  *next_commit += count;
  const Clock::time_point t0 = Clock::now();

  std::thread writer([&] {
    const double cpu0 = ThreadCpuSeconds();
    for (size_t j = 0; j < count; ++j) {
      const Plan::Commit& c = plan.commits[first + j];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(j) /
                                                 kCommitsPerSecond)));
      gbda::SnapshotInfo published;
      const Clock::time_point c0 = Clock::now();
      bool ok = true;
      if (c.add) {
        std::vector<gbda::Graph> graphs;
        for (size_t id : c.dataset_ids) graphs.push_back(data.db.graph(id));
        gbda::Result<std::vector<size_t>> ids =
            service->AddGraphs(std::move(graphs), &published);
        ok = ids.ok() && *ids == c.stable_ids;
      } else {
        ok = service->RemoveGraphs(c.stable_ids, &published).ok();
      }
      const Clock::time_point c1 = Clock::now();
      tracer->Record(c.add ? "service.AddGraphs" : "service.RemoveGraphs", c0,
                     c1);
      report->AddAttempted(1);
      if (!ok) {
        report->AddFailed(1);
        report->Error("commit " + std::to_string(first + j) + " failed");
        break;
      }
      phase.commit_us.push_back(SecondsBetween(c0, c1) * 1e6);
      phase.commit_generation.push_back(published.generation);
    }
    phase.writer_cpu_s = ThreadCpuSeconds() - cpu0;
  });

  uint64_t last_generation = service->snapshot_info().generation;
  std::vector<gbda::Graph> one(1);
  const size_t reads = static_cast<size_t>(seconds * kReadsPerSecond);
  for (size_t i = 0; i < reads; ++i) {
    const size_t q = reader_stream[(*cursor)++ % reader_stream.size()];
    one[0] = data.queries[q];
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) /
                                               kReadsPerSecond));
    std::this_thread::sleep_until(due);
    gbda::SnapshotInfo served;
    const Clock::time_point r0 = Clock::now();
    gbda::Result<std::vector<gbda::SearchResult>> results =
        service->QueryTopKBatch(gbda::Span<gbda::Graph>(one), kTopK, options,
                                &served);
    const Clock::time_point r1 = Clock::now();
    tracer->Record("service.QueryTopKBatch", r0, r1);
    report->AddAttempted(1);
    if (!results.ok()) {
      report->AddFailed(1);
      report->Error("read: " + results.status().ToString());
      break;
    }
    const double us = SecondsBetween(r0, r1) * 1e6;
    phase.read_us.push_back(us);
    if (served.generation != last_generation) {
      phase.first_after_commit_us.push_back(us);
      last_generation = served.generation;
    }
    gbda::SearchResult& r = (*results)[0];
    MaybeTamper(&r.matches);
    auto [it, fresh] =
        answers->try_emplace({served.generation, q}, std::move(r));
    if (!fresh) {
      const std::string diff =
          DiffAnswers(r.matches, r.candidates_evaluated, r.prefiltered_out,
                      it->second);
      if (!diff.empty()) {
        report->Wrong("repeated read of query " + std::to_string(q) +
                      " at generation " + std::to_string(served.generation) +
                      ": " + diff);
      }
    }
  }
  writer.join();
  return phase;
}

/// Checks every distinct (generation, query) answer against serial
/// GbdaSearch over a fresh index of that generation's live graphs, and
/// accumulates their ground-truth confusion at tau_hat.
void Verify(const Answers& answers, const Plan& plan,
            const std::vector<uint64_t>& commit_generation,
            uint64_t first_generation, const gbda::GeneratedDataset& data,
            const gbda::SearchOptions& options, Report* report,
            gbda::Confusion* confusion) {
  // generation -> number of commits applied.
  std::map<uint64_t, size_t> commits_at;
  commits_at[first_generation] = 0;
  for (size_t j = 0; j < commit_generation.size(); ++j) {
    commits_at[commit_generation[j]] = j + 1;
  }
  std::vector<std::pair<uint64_t, std::vector<Answers::const_iterator>>> work;
  for (auto it = answers.begin(); it != answers.end(); ++it) {
    if (work.empty() || work.back().first != it->first.first) {
      work.emplace_back(it->first.first,
                        std::vector<Answers::const_iterator>());
    }
    work.back().second.push_back(it);
  }

  std::atomic<size_t> next{0};
  std::mutex mu;
  auto worker = [&] {
    gbda::Confusion local;
    for (size_t w = next.fetch_add(1); w < work.size(); w = next.fetch_add(1)) {
      const uint64_t generation = work[w].first;
      auto at = commits_at.find(generation);
      if (at == commits_at.end()) {
        report->Wrong("read served from unknown generation " +
                      std::to_string(generation));
        continue;
      }
      const std::vector<size_t>& live = plan.live[at->second];
      std::vector<size_t> dataset_ids;
      for (size_t s : live) dataset_ids.push_back(plan.dataset_of[s]);
      const gbda::GraphDatabase db = SubDatabase(data.db, dataset_ids);
      gbda::Result<gbda::GbdaIndex> index =
          gbda::GbdaIndex::Build(db, IndexOptionsFor(data.profile));
      if (!index.ok()) {
        report->Error("verify index: " + index.status().ToString());
        continue;
      }
      gbda::GbdaSearch search(&db, &*index);
      for (Answers::const_iterator it : work[w].second) {
        const size_t q = it->first.second;
        gbda::Result<gbda::SearchResult> ref =
            search.QueryTopK(data.queries[q], kTopK, options);
        if (!ref.ok()) {
          report->Error("verify query: " + ref.status().ToString());
          break;
        }
        for (gbda::SearchMatch& m : ref->matches) m.graph_id = live[m.graph_id];
        const gbda::SearchResult& got = it->second;
        const std::string diff = DiffAnswers(
            got.matches, got.candidates_evaluated, got.prefiltered_out, *ref);
        if (!diff.empty()) {
          report->Wrong("read of query " + std::to_string(q) +
                        " at generation " + std::to_string(generation) + ": " +
                        diff);
        }
        // Ground truth over this generation's live graphs.
        const std::vector<size_t> truth = data.TrueMatches(q, kTauHat);
        const std::set<size_t> truth_set(truth.begin(), truth.end());
        std::vector<size_t> relevant, retrieved;
        for (size_t s : live) {
          if (truth_set.count(plan.dataset_of[s]) > 0) relevant.push_back(s);
        }
        for (const gbda::SearchMatch& m : ref->matches) {
          retrieved.push_back(m.graph_id);
        }
        local += gbda::CompareSets(retrieved, relevant);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    *confusion += local;
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kVerifyThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

}  // namespace

void RunDynamicChurn(const RunConfig& config, Tracer* tracer, Report* report) {
  const gbda::GeneratedDataset data =
      Generate(gbda::AidsProfile(1.0), config.seed, report);
  if (report->errored()) return;
  // Enough commits for the measured phase, whichever way it is split.
  const Plan plan = MakePlan(
      data, config.seed,
      static_cast<size_t>(config.seconds * kCommitsPerSecond + 0.5) + 2);
  NoteCorpusSize("graphs", data.db.size());
  NoteCorpusSize("initial_live", plan.initial.size());
  NoteCorpusSize("commits", plan.commits.size());
  NoteCorpusSize("queries", data.queries.size());

  gbda::SearchOptions options;
  options.tau_hat = kTauHat;
  const size_t num_queries = data.queries.size();
  const std::vector<size_t> reader_stream =
      SeededOrder(num_queries, config.seed, 6, num_queries * 64);

  const gbda::GraphDatabase initial_db = SubDatabase(data.db, plan.initial);
  gbda::SearchResult first_ref;
  {
    gbda::Result<gbda::GbdaIndex> index =
        gbda::GbdaIndex::Build(initial_db, IndexOptionsFor(data.profile));
    if (!index.ok()) {
      report->Error("reference index: " + index.status().ToString());
      return;
    }
    gbda::GbdaSearch search(&initial_db, &*index);
    gbda::Result<gbda::SearchResult> r =
        search.QueryTopK(data.queries[reader_stream[0]], kTopK, options);
    if (!r.ok()) {
      report->Error("reference query: " + r.status().ToString());
      return;
    }
    first_ref = std::move(*r);
  }
  ResetPeakRss();

  gbda::DynamicServiceOptions service_options;
  service_options.service.num_threads = kServiceThreads;
  std::unique_ptr<gbda::DynamicGbdaService> service;
  if (!RepeatSetUp(config, tracer, report, [&] {
        service.reset();
        gbda::GraphDatabase db = initial_db;
        const Clock::time_point t0 = Clock::now();
        gbda::Result<std::unique_ptr<gbda::DynamicGbdaService>> created =
            gbda::DynamicGbdaService::Create(std::move(db),
                                             IndexOptionsFor(data.profile),
                                             service_options);
        const Clock::time_point t1 = Clock::now();
        tracer->Record("service.DynamicGbdaService::Create", t0, t1);
        if (!created.ok()) {
          report->Error("service: " + created.status().ToString());
          return 0.0;
        }
        service = std::move(*created);
        std::vector<gbda::Graph> one{data.queries[reader_stream[0]]};
        gbda::Result<std::vector<gbda::SearchResult>> first =
            service->QueryTopKBatch(gbda::Span<gbda::Graph>(one), kTopK,
                                    options);
        tracer->Record("setup.first_query", t1, Clock::now());
        if (!first.ok()) {
          report->Error("first query: " + first.status().ToString());
          return 0.0;
        }
        const std::string diff =
            DiffAnswers((*first)[0].matches, (*first)[0].candidates_evaluated,
                        (*first)[0].prefiltered_out, first_ref);
        if (!diff.empty()) report->Wrong("first query: " + diff);
        return SecondsSince(t0);
      })) {
    return;
  }
  const uint64_t first_generation = service->snapshot_info().generation;

  // Untimed warm-up: every query twice.
  size_t cursor = 1;
  {
    std::vector<gbda::Graph> one(1);
    for (size_t i = 0; i < 2 * num_queries; ++i) {
      one[0] = data.queries[reader_stream[cursor++ % reader_stream.size()]];
      if (!service->QueryTopKBatch(gbda::Span<gbda::Graph>(one), kTopK, options)
               .ok()) {
        report->Error("warm-up query failed");
        return;
      }
    }
  }
  ArmTamper(config.tamper);

  size_t next_commit = 0;
  Answers answers;
  std::vector<uint64_t> commit_generation;
  if (config.trace) {
    const Phase plain =
        RunPhase(service.get(), plan, data, reader_stream, options,
                 config.seconds / 2, &next_commit, &cursor, &answers, tracer,
                 report);
    service->ResetStats();
    SetTracing(tracer, true);
    const Phase traced =
        RunPhase(service.get(), plan, data, reader_stream, options,
                 config.seconds / 2, &next_commit, &cursor, &answers, tracer,
                 report);
    SetTracing(tracer, false);

    const gbda::DynamicServiceStats dyn = service->dynamic_stats();
    const double snapshots = static_cast<double>(dyn.snapshots_published);
    report->Set("service.query_p99_ms", Quantile(plain.read_us, 0.99) / 1e3,
                "ms");
    report->Set("service.call_us",
                Mean(tracer->DurationsUs("service.QueryTopKBatch")), "us");
    ReportServiceStats(service->stats(), report);
    report->Set("service.commit_us", Mean(traced.commit_us), "us");
    report->Set("service.commit_p50_ms", Median(traced.commit_us) / 1e3, "ms");
    report->Set("service.commit_p90_ms", Quantile(traced.commit_us, 0.9) / 1e3,
                "ms");
    report->Set("service.rebuild_us",
                snapshots == 0 ? 0.0 : dyn.total_rebuild_seconds * 1e6 / snapshots,
                "us");
    report->Set("service.swap_us",
                snapshots == 0 ? 0.0 : dyn.total_swap_seconds * 1e6 / snapshots,
                "us");
    report->Set("service.gbd_refits", static_cast<double>(dyn.gbd_refits),
                "count");
    report->Set("service.first_query_after_commit_us",
                Mean(traced.first_after_commit_us), "us");
    ReportTraceOverhead(plain.read_us, traced.read_us, report);
    for (const Phase* p : {&plain, &traced}) {
      commit_generation.insert(commit_generation.end(),
                               p->commit_generation.begin(),
                               p->commit_generation.end());
    }

    // Core replay over the final generation's live graphs.
    const std::vector<size_t>& live = plan.live[next_commit];
    std::vector<size_t> dataset_ids;
    for (size_t s : live) dataset_ids.push_back(plan.dataset_of[s]);
    const gbda::GraphDatabase db = SubDatabase(data.db, dataset_ids);
    const Clock::time_point b0 = Clock::now();
    gbda::Result<gbda::GbdaIndex> index =
        gbda::GbdaIndex::Build(db, IndexOptionsFor(data.profile));
    if (!index.ok()) {
      report->Error("replay index: " + index.status().ToString());
      return;
    }
    ReportOfflineCosts(*index, SecondsSince(b0), report);
    const Clock::time_point p0 = Clock::now();
    const gbda::Prefilter prefilter(&db);
    report->Set("core.prefilter_ms", SecondsSince(p0) * 1e3, "ms");
    gbda::GbdaSearch search(&db, &*index);
    std::vector<gbda::Graph> queries;
    std::vector<gbda::SearchResult> refs;
    for (size_t i = 0; i < num_queries; ++i) {
      queries.push_back(data.queries[reader_stream[i]]);
      gbda::Result<gbda::SearchResult> r =
          search.QueryTopK(queries.back(), kTopK, options);
      if (!r.ok()) {
        report->Error("replay reference: " + r.status().ToString());
        return;
      }
      refs.push_back(std::move(*r));
    }
    std::vector<const gbda::SearchResult*> want;
    for (const gbda::SearchResult& r : refs) want.push_back(&r);
    ReplaySpec spec;
    spec.index = &*index;
    spec.corpus = gbda::CorpusRef(&db);
    spec.prefilter = &prefilter;
    spec.options = options;
    spec.apply_gamma = false;
    ReplayCore(spec, queries, want, report);
  } else {
    const double cpu0 = ProcessCpuSeconds();
    Phase phase = RunPhase(service.get(), plan, data, reader_stream, options,
                           config.seconds, &next_commit, &cursor, &answers,
                           tracer, report);
    // Read-path CPU: the writer thread's commits are subtracted.
    const double cpu = ProcessCpuSeconds() - cpu0 - phase.writer_cpu_s;
    report->Set("rss_mb", PeakRssMb(), "MiB");
    report->Set("query_p50_ms", Median(phase.read_us) / 1e3, "ms");
    report->Set("cpu_ms_per_query",
                cpu * 1e3 / static_cast<double>(phase.read_us.size()), "ms");
    commit_generation = std::move(phase.commit_generation);
  }
  service.reset();

  gbda::Confusion confusion;
  Verify(answers, plan, commit_generation, first_generation, data, options,
         report, &confusion);
  report->Set("recall_at_10", 1.0, "ratio");  // exact answers, checked above
  if (config.trace) report->Set("core.f1", gbda::F1Score(confusion), "ratio");
}

}  // namespace perfbench
