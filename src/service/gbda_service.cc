#include "service/gbda_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"

namespace gbda {

namespace {

uint64_t SecondsToNanos(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(seconds * 1e9));
}

void AppendCounterFamily(std::vector<obs::MetricFamily>* out, const std::string& name,
                         const std::string& help, const std::string& labels,
                         double value) {
  obs::MetricPoint point;
  point.labels = labels;
  point.value = value;
  out->push_back(obs::MetricFamily{name, help, obs::MetricType::kCounter, {std::move(point)}});
}

/// Folds one call's results into the sharded counters (safe from any
/// thread, no locking). `wall_seconds` is the top-level call's wall time.
void AccumulateServiceStats(const std::vector<SearchResult>& results,
                            double wall_seconds, ServiceCounters* counters) {
  counters->queries_served.Add(results.size());
  for (const SearchResult& r : results) {
    counters->candidates_evaluated.Add(r.candidates_evaluated);
    counters->prefiltered_out.Add(r.prefiltered_out);
    counters->pruned_by_bound.Add(r.pruned_by_bound);
    counters->candidates_visited.Add(r.candidates_visited);
    counters->verified_count.Add(r.verified_count);
    counters->matches_returned.Add(r.matches.size());
    counters->latency_nanos.Add(SecondsToNanos(r.seconds));
    if (obs::TraceSampled()) {
      counters->scan_latency_micros.Record(SecondsToNanos(r.seconds) / 1000);
    }
  }
  counters->wall_nanos.Add(SecondsToNanos(wall_seconds));
}

}  // namespace

ServiceStats ServiceCounters::Snapshot() const {
  ServiceStats stats;
  stats.queries_served = queries_served.Value();
  stats.batches_served = batches_served.Value();
  stats.candidates_evaluated = candidates_evaluated.Value();
  stats.prefiltered_out = prefiltered_out.Value();
  stats.pruned_by_bound = pruned_by_bound.Value();
  stats.candidates_visited = candidates_visited.Value();
  stats.verified_count = verified_count.Value();
  stats.matches_returned = matches_returned.Value();
  stats.total_latency_seconds = static_cast<double>(latency_nanos.Value()) * 1e-9;
  stats.total_wall_seconds = static_cast<double>(wall_nanos.Value()) * 1e-9;
  return stats;
}

void ServiceCounters::Reset() {
  queries_served.Reset();
  batches_served.Reset();
  candidates_evaluated.Reset();
  prefiltered_out.Reset();
  pruned_by_bound.Reset();
  candidates_visited.Reset();
  verified_count.Reset();
  matches_returned.Reset();
  latency_nanos.Reset();
  wall_nanos.Reset();
  scan_latency_micros.Reset();
}

void ServiceCounters::Collect(const std::string& labels,
                              std::vector<obs::MetricFamily>* out) const {
  AppendCounterFamily(out, "gbda_service_queries_total", "Queries served", labels,
                      static_cast<double>(queries_served.Value()));
  AppendCounterFamily(out, "gbda_service_batches_total", "Batch calls served", labels,
                      static_cast<double>(batches_served.Value()));
  AppendCounterFamily(out, "gbda_service_candidates_evaluated_total",
                      "Candidates scored by the posterior", labels,
                      static_cast<double>(candidates_evaluated.Value()));
  AppendCounterFamily(out, "gbda_service_prefiltered_out_total",
                      "Candidates rejected by the layered prefilter", labels,
                      static_cast<double>(prefiltered_out.Value()));
  AppendCounterFamily(out, "gbda_service_pruned_by_bound_total",
                      "Posterior evaluations skipped by bound pruning",
                      labels, static_cast<double>(pruned_by_bound.Value()));
  AppendCounterFamily(out, "gbda_service_candidates_visited_total",
                      "Nodes visited by the approximate navigator", labels,
                      static_cast<double>(candidates_visited.Value()));
  AppendCounterFamily(out, "gbda_service_verified_total",
                      "Approximate candidates paying full verification", labels,
                      static_cast<double>(verified_count.Value()));
  AppendCounterFamily(out, "gbda_service_matches_returned_total", "Matches returned",
                      labels, static_cast<double>(matches_returned.Value()));
  AppendCounterFamily(out, "gbda_service_latency_seconds_total",
                      "Sum of per-query latencies", labels,
                      static_cast<double>(latency_nanos.Value()) * 1e-9);
  AppendCounterFamily(out, "gbda_service_wall_seconds_total",
                      "Sum of top-level call wall times", labels,
                      static_cast<double>(wall_nanos.Value()) * 1e-9);
  obs::MetricPoint scan_point;
  scan_point.labels = labels;
  scan_point.histogram = scan_latency_micros.Snapshot();
  out->push_back(obs::MetricFamily{
      "gbda_service_scan_latency_micros",
      "Per-query scan latency (microseconds), trace-sampled",
      obs::MetricType::kHistogram,
      {std::move(scan_point)}});
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

const Prefilter* GbdaService::Snapshot::EnsurePrefilter() const {
  std::call_once(prefilter_once, [this] {
    prefilter = std::make_unique<const Prefilter>(corpus());
  });
  return prefilter.get();
}

bool GbdaService::Snapshot::InitAnn(const AnnBuildParams& params,
                                    const ProximityGraphRef* graph) const {
  bool ran = false;
  std::call_once(ann_once, [this, &params, graph, &ran] {
    ran = true;
    // Built from the snapshot's own index: the dense ids the graph
    // navigates are exactly this generation's corpus positions.
    FingerprintStore store = FingerprintStore::FromIndex(*index);
    Result<AnnContext> ctx = graph != nullptr
                                 ? AnnContext::Adopt(std::move(store), *graph)
                                 : AnnContext::Build(std::move(store), params);
    if (ctx.ok()) {
      ann = std::make_unique<const AnnContext>(std::move(*ctx));
    } else {
      ann_status = ctx.status();
    }
  });
  return ran;
}

Result<std::unique_ptr<GbdaService>> GbdaService::Create(
    const GraphDatabase* db, const IndexReader* index,
    const ServiceOptions& options) {
  Status agree = ValidateIndexForDatabase(*db, *index);
  if (!agree.ok()) return agree;
  return std::make_unique<GbdaService>(db, index, options);
}

GbdaService::GbdaService(const ServiceOptions& options)
    : ann_build_(options.ann_build),
      pool_(options.num_threads),
      num_shards_(options.num_shards == 0 ? pool_.size() : options.num_shards) {}

GbdaService::GbdaService(const GraphDatabase* db, const IndexReader* index,
                         const ServiceOptions& options)
    : GbdaService(options) {
  // The aliasing constructor over an empty owner: a non-owning pointer to
  // the borrowed reader.
  std::shared_ptr<Snapshot> snap = NewSnapshot(
      0, std::shared_ptr<const IndexReader>(std::shared_ptr<const IndexReader>(), index),
      nullptr);
  snap->db = db;
  Publish(std::move(snap));
}

std::shared_ptr<GbdaService::Snapshot> GbdaService::NewSnapshot(
    uint64_t generation, std::shared_ptr<const IndexReader> index,
    std::shared_ptr<PosteriorEngine> engine) const {
  auto snap = std::make_shared<Snapshot>();
  snap->generation = generation;
  // No shard is empty unless the corpus itself is.
  snap->num_shards = std::clamp<size_t>(num_shards_, 1,
                                        std::max<size_t>(1, index->num_graphs()));
  snap->engine = engine != nullptr
                     ? std::move(engine)
                     : std::make_shared<PosteriorEngine>(
                           index->num_vertex_labels(), index->num_edge_labels(),
                           index->tau_max(), index->mutable_ged_prior(),
                           &index->gbd_prior());
  snap->index = std::move(index);
  return snap;
}

void GbdaService::Publish(std::shared_ptr<const Snapshot> snapshot) {
  std::atomic_store(&snapshot_, std::move(snapshot));
}

std::shared_ptr<const GbdaService::Snapshot> GbdaService::LoadSnapshot() const {
  return std::atomic_load(&snapshot_);
}

SnapshotInfo GbdaService::Describe(const Snapshot& snapshot) {
  SnapshotInfo info;
  info.generation = snapshot.generation;
  info.num_live = snapshot.index->num_graphs();
  info.gbd_staleness = snapshot.index->gbd_staleness();
  return info;
}

size_t GbdaService::num_shards() const { return LoadSnapshot()->num_shards; }

// ---------------------------------------------------------------------------
// Approximate navigation
// ---------------------------------------------------------------------------

Status GbdaService::WarmAnnGraph() {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  snap->InitAnn(ann_build_, nullptr);
  return snap->ann_status;
}

Status GbdaService::AdoptAnnGraph(const ProximityGraphRef& graph) {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  if (!snap->InitAnn(ann_build_, &graph)) {
    return Status::FailedPrecondition(
        "AdoptAnnGraph: the approximate navigation context is already "
        "initialised — adopt before the first approximate query or "
        "WarmAnnGraph call");
  }
  return snap->ann_status;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Result<SearchResult> GbdaService::Query(const Graph& query,
                                        const SearchOptions& options) {
  Result<std::vector<SearchResult>> batch =
      RunBatch(Span<Graph>(&query, 1), options, /*apply_gamma=*/true, 0,
               /*batch_call=*/false, nullptr);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<SearchResult> GbdaService::QueryTopK(const Graph& query, size_t k,
                                            const SearchOptions& options) {
  Result<std::vector<SearchResult>> batch =
      RunBatch(Span<Graph>(&query, 1), options, /*apply_gamma=*/false, k,
               /*batch_call=*/false, nullptr);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<std::vector<SearchResult>> GbdaService::QueryBatch(
    Span<Graph> queries, const SearchOptions& options) {
  return RunBatch(queries, options, /*apply_gamma=*/true, 0,
                  /*batch_call=*/true, nullptr);
}

Result<std::vector<SearchResult>> GbdaService::QueryTopKBatch(
    Span<Graph> queries, size_t k, const SearchOptions& options,
    SnapshotInfo* served) {
  return RunBatch(queries, options, /*apply_gamma=*/false, k,
                  /*batch_call=*/true, served);
}

Result<std::vector<SearchResult>> GbdaService::RunBatch(
    Span<Graph> queries, const SearchOptions& options, bool apply_gamma,
    size_t k, bool batch_call, SnapshotInfo* served) {
  WallTimer timer;
  const std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  if (served != nullptr) *served = Describe(*snap);
  std::vector<SearchResult> results;
  double wall_seconds = 0.0;
  if (!apply_gamma && k == 0) {
    // k == 0 is a valid request for an empty ranking, decided here at the
    // API boundary: no scan runs, and the queries still count as served.
    // See core/gbda_search.h on the kScanAllMatches sentinel vs k == 0.
    results.resize(queries.size());
  } else {
    // Retired db slots would otherwise still be scanned (their index
    // entries are intact); PrepareScan catches the tombstoned-index
    // direction. Dynamic generations hold only live graphs.
    if (snap->db != nullptr && snap->db->has_tombstones()) {
      return Status::FailedPrecondition(
          "database is tombstoned: the frozen scan cannot serve a mutated "
          "corpus — use DynamicGbdaService");
    }
    // Clamp so an oversized k (notably SIZE_MAX) cannot collide with the
    // kScanAllMatches sentinel and skip the ranking sort; a scan never
    // yields more matches than the snapshot has graphs, so the clamp is
    // behavior-free.
    const size_t top_k =
        apply_gamma ? kScanAllMatches : std::min(k, snap->index->num_graphs());
    // The prefilter only admits candidates; tier 2 and the navigator read
    // the index's fp_keys column.
    const Prefilter* prefilter =
        options.use_prefilter ? snap->EnsurePrefilter() : nullptr;
    // Approximate navigation serves concrete-k rankings only: threshold
    // queries are defined over the whole corpus, and a clamped k of 0
    // (empty corpus) already has a defined-empty exhaustive answer.
    const AnnContext* ann = nullptr;
    if (options.approximate && !apply_gamma && top_k > 0) {
      snap->InitAnn(ann_build_, nullptr);
      if (!snap->ann_status.ok()) return snap->ann_status;
      ann = snap->ann.get();
    }
    Result<std::vector<SearchResult>> scanned =
        FanOut(*snap, queries, options, apply_gamma, top_k, prefilter, ann);
    if (!scanned.ok()) return scanned.status();
    results = std::move(*scanned);
    if (!snap->stable_ids.empty()) {
      // Dense positions -> stable ids. The map is ascending, so the serial
      // id order and every top-k tie-break survive the translation.
      for (SearchResult& r : results) {
        for (SearchMatch& m : r.matches) m.graph_id = snap->stable_ids[m.graph_id];
      }
    }
    wall_seconds = timer.Seconds();
  }
  AccumulateServiceStats(results, wall_seconds, &counters_);
  if (batch_call) counters_.batches_served.Add(1);
  return results;
}

Result<std::vector<SearchResult>> GbdaService::FanOut(
    const Snapshot& snap, Span<Graph> queries, const SearchOptions& options,
    bool apply_gamma, size_t top_k, const Prefilter* prefilter,
    const AnnContext* ann) {
  WallTimer timer;
  const size_t num_queries = queries.size();
  const size_t num_graphs = snap.index->num_graphs();
  const size_t num_tasks = ann != nullptr ? 1 : snap.num_shards;

  // One ScanBounds per query job when early termination is armed: the
  // bound is a per-query property (the k-th best of THIS query's matches),
  // shared across that query's shard tasks, never across queries. k >=
  // corpus can never prune, so it skips the bookkeeping. The navigator
  // arms its own bound over the candidates it visits.
  const bool early_terminate = ann == nullptr && !apply_gamma &&
                               top_k != kScanAllMatches &&
                               top_k < num_graphs && options.early_termination;

  struct QueryJob {
    ScanContext ctx;
    std::vector<SearchResult> partials;
    std::vector<Status> statuses;
    // Brace-initialized: C++17 atomics are only well-defined after
    // constructor initialization (P0883 fixed the default in C++20).
    std::atomic<size_t> tasks_left{0};
    double latency_seconds = 0.0;
    /// Shard-shared pruning state; null when scanning exhaustively.
    std::unique_ptr<ScanBounds> bounds;
  };
  std::vector<std::unique_ptr<QueryJob>> jobs;
  jobs.reserve(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    Result<ScanContext> ctx = PrepareScan(queries[qi], options, apply_gamma,
                                          snap.corpus(), *snap.index);
    if (!ctx.ok()) return ctx.status();
    auto job = std::make_unique<QueryJob>();
    job->ctx = std::move(*ctx);
    job->partials.resize(num_tasks);
    job->statuses.resize(num_tasks);
    job->tasks_left.store(num_tasks, std::memory_order_relaxed);
    if (early_terminate) job->bounds = std::make_unique<ScanBounds>(top_k);
    jobs.push_back(std::move(job));
  }

  // Fan out every (query, task) pair; each task writes only its own slot,
  // so no synchronisation is needed beyond the completion countdown.
  std::vector<std::future<void>> futures;
  futures.reserve(num_queries * num_tasks);
  const auto drain = [&futures] {
    std::exception_ptr first_error;
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    return first_error;
  };
  try {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      QueryJob* job = jobs[qi].get();
      for (size_t s = 0; s < num_tasks; ++s) {
        futures.push_back(pool_.Submit([&snap, prefilter, ann, job, s, num_tasks,
                                        num_graphs, top_k, &timer]() {
          SearchResult partial;
          const ShardRange range = ShardOf(s, num_tasks, num_graphs);
          Status status =
              ann != nullptr
                  ? AnnSearchTopK(*ann, job->ctx, *snap.index, prefilter,
                                  top_k, snap.engine.get(), &partial)
                  : ScanRange(job->ctx, *snap.index, prefilter, range.begin,
                              range.end, snap.engine.get(), &partial,
                              job->bounds.get());
          // Local truncation keeps the merge O(S * k): any global top-k
          // match is also in its own shard's top-k.
          if (status.ok() && top_k != kScanAllMatches) {
            SortTopK(&partial.matches, top_k);
          }
          job->statuses[s] = std::move(status);
          job->partials[s] = std::move(partial);
          // acq_rel countdown: the release half publishes this task's
          // statuses/partials writes above, the acquire half makes every
          // earlier task's writes visible to whichever worker hits zero and
          // stamps the job latency. (The merge itself additionally
          // synchronizes through the futures' get().)
          if (job->tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            job->latency_seconds = timer.Seconds();
          }
        }));
      }
    }
  } catch (...) {
    // Submit itself failed (e.g. allocation): the tasks already enqueued
    // still hold pointers into `jobs` and `timer`, so wait them out before
    // letting the stack unwind.
    drain();
    throw;
  }
  // Drain every future before any rethrow: tasks hold pointers into `jobs`
  // and `timer`, so unwinding while siblings are still running would be a
  // use-after-free.
  if (std::exception_ptr error = drain()) std::rethrow_exception(error);

  // Deterministic merge: shards are contiguous ascending id ranges, so
  // concatenation in shard order equals the serial scan order; top-k re-ranks
  // under the same total order as the serial QueryTopK.
  std::vector<SearchResult> results;
  results.reserve(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    QueryJob* job = jobs[qi].get();
    for (const Status& status : job->statuses) {
      if (!status.ok()) return status;
    }
    SearchResult merged;
    size_t match_count = 0;
    for (const SearchResult& partial : job->partials) {
      match_count += partial.matches.size();
    }
    merged.matches.reserve(match_count);
    for (SearchResult& partial : job->partials) {
      merged.matches.insert(merged.matches.end(), partial.matches.begin(),
                            partial.matches.end());
      merged.candidates_evaluated += partial.candidates_evaluated;
      merged.prefiltered_out += partial.prefiltered_out;
      merged.pruned_by_bound += partial.pruned_by_bound;
      merged.candidates_visited += partial.candidates_visited;
      merged.verified_count += partial.verified_count;
    }
    if (top_k != kScanAllMatches) SortTopK(&merged.matches, top_k);
    merged.seconds = job->latency_seconds;
    results.push_back(std::move(merged));
  }
  return results;
}

ServiceStats GbdaService::stats() const { return counters_.Snapshot(); }

void GbdaService::ResetStats() { counters_.Reset(); }

}  // namespace gbda
