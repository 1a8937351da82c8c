#include "service/gbda_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"
#include "service/parallel_scan.h"

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

}  // namespace

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

Result<std::unique_ptr<GbdaService>> GbdaService::Create(
    const GraphDatabase* db, const IndexReader* index,
    const ServiceOptions& options) {
  Status agree = ValidateIndexForDatabase(*db, *index);
  if (!agree.ok()) return agree;
  return std::make_unique<GbdaService>(db, index, options);
}

GbdaService::GbdaService(const GraphDatabase* db, const IndexReader* index,
                         const ServiceOptions& options)
    : db_(db),
      index_(index),
      ann_build_(options.ann_build),
      pool_(options.num_threads),
      shards_(index,
              options.num_shards == 0 ? pool_.size() : options.num_shards),
      engine_(index->num_vertex_labels(), index->num_edge_labels(),
              index->tau_max(), index->mutable_ged_prior(),
              &index->gbd_prior()) {}

const Prefilter* GbdaService::EnsurePrefilter() {
  std::call_once(prefilter_once_,
                 [this] { prefilter_ = std::make_unique<Prefilter>(db_); });
  return prefilter_.get();
}

Status GbdaService::WarmAnnGraph() {
  std::call_once(ann_once_, [this] {
    Result<AnnContext> ctx =
        AnnContext::Build(FingerprintStore::FromIndex(*index_), ann_build_);
    if (ctx.ok()) {
      ann_ = std::make_unique<const AnnContext>(std::move(*ctx));
    } else {
      ann_status_ = ctx.status();
    }
  });
  return ann_status_;
}

Status GbdaService::AdoptAnnGraph(const ProximityGraphRef& graph) {
  bool ran = false;
  std::call_once(ann_once_, [this, &graph, &ran] {
    ran = true;
    Result<AnnContext> ctx =
        AnnContext::Adopt(FingerprintStore::FromIndex(*index_), graph);
    if (ctx.ok()) {
      ann_ = std::make_unique<const AnnContext>(std::move(*ctx));
    } else {
      ann_status_ = ctx.status();
    }
  });
  if (!ran) {
    return Status::FailedPrecondition(
        "AdoptAnnGraph: the approximate navigation context is already "
        "initialised — adopt before the first approximate query or "
        "WarmAnnGraph call");
  }
  return ann_status_;
}

Result<std::vector<SearchResult>> GbdaService::RunBatch(
    Span<Graph> queries, const SearchOptions& options, bool apply_gamma,
    size_t top_k) {
  WallTimer timer;
  // Retired db slots would otherwise still be scanned (their index entries
  // are intact); PrepareScan catches the tombstoned-index direction.
  if (db_->has_tombstones()) {
    return Status::FailedPrecondition(
        "database is tombstoned: the frozen scan cannot serve a mutated "
        "corpus — use DynamicGbdaService");
  }
  // Approximate navigation serves concrete-k rankings only: threshold
  // queries are defined over the whole corpus, and a clamped k of 0 (empty
  // corpus) already has a defined-empty exhaustive answer.
  const bool approximate = options.approximate && !apply_gamma &&
                           top_k != kScanAllMatches && top_k > 0;
  // The prefilter only admits candidates; tier 2 and the navigator read
  // the index's fp_keys column.
  const Prefilter* prefilter =
      options.use_prefilter ? EnsurePrefilter() : nullptr;
  ParallelScanEnv env{&pool_, &shards_, index_, prefilter, CorpusRef(db_),
                      &engine_};
  if (approximate) {
    Status warm = WarmAnnGraph();
    if (!warm.ok()) return warm;
  }
  Result<std::vector<SearchResult>> results =
      approximate
          ? AnnScanBatch(env, *ann_, queries, options, top_k)
          : ParallelScanBatch(env, queries, options, apply_gamma, top_k);
  if (!results.ok()) return results;

  AccumulateServiceStats(*results, timer.Seconds(), &counters_);
  return results;
}

Result<SearchResult> GbdaService::Query(const Graph& query,
                                        const SearchOptions& options) {
  Result<std::vector<SearchResult>> batch = RunBatch(
      Span<Graph>(&query, 1), options, /*apply_gamma=*/true, kScanAllMatches);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<SearchResult> GbdaService::QueryTopK(const Graph& query, size_t k,
                                            const SearchOptions& options) {
  // k == 0 is a valid request for an empty ranking, decided here at the
  // API boundary: no scan runs (the query still counts as served). See
  // core/gbda_search.h on the kScanAllMatches sentinel vs k == 0.
  if (k == 0) {
    std::vector<SearchResult> empty(1);
    AccumulateServiceStats(empty, 0.0, &counters_);
    return SearchResult{};
  }
  // Clamp so an oversized k (notably SIZE_MAX) cannot collide with the
  // kScanAllMatches sentinel and skip the ranking sort; a scan never yields
  // more matches than the database has graphs, so the clamp is behavior-free.
  k = std::min(k, shards_.num_graphs());
  Result<std::vector<SearchResult>> batch =
      RunBatch(Span<Graph>(&query, 1), options, /*apply_gamma=*/false, k);
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

Result<std::vector<SearchResult>> GbdaService::QueryBatch(
    Span<Graph> queries, const SearchOptions& options) {
  Result<std::vector<SearchResult>> batch =
      RunBatch(queries, options, /*apply_gamma=*/true, kScanAllMatches);
  if (batch.ok()) counters_.batches_served.Add(1);
  return batch;
}

Result<std::vector<SearchResult>> GbdaService::QueryTopKBatch(
    Span<Graph> queries, size_t k, const SearchOptions& options) {
  if (k == 0) {
    // Defined-empty rankings for the whole batch, no scan (see QueryTopK).
    std::vector<SearchResult> empty(queries.size());
    AccumulateServiceStats(empty, 0.0, &counters_);
    counters_.batches_served.Add(1);
    return empty;
  }
  k = std::min(k, shards_.num_graphs());
  Result<std::vector<SearchResult>> batch =
      RunBatch(queries, options, /*apply_gamma=*/false, k);
  if (batch.ok()) counters_.batches_served.Add(1);
  return batch;
}

ServiceStats GbdaService::stats() const { return counters_.Snapshot(); }

void GbdaService::ResetStats() { counters_.Reset(); }

}  // namespace gbda
