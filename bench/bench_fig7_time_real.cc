// Regenerates Figure 7: average query response time on the real-profile
// data sets for LSAP, Greedy-Sort-GED, Graph Seriation, and GBDA at
// tau_hat in {1, 5, 10} (gamma fixed at 0.9; it does not affect timing).
//
// GBDA queries run on a fresh search engine each, so its Phi memo is cold
// per query. Lambda1 is not: the index's Jeffreys prior table, which every
// engine shares, keeps one Lambda1 matrix per extended size, derived when
// the index build computes that size's Lambda3 row (or by the first query
// to meet the size), so a query pays only for its Phi rows. Bound pruning
// is off, so GBDA scores every graph like Algorithm 1 as published and the
// baselines' full scans.

#include <cstdio>

#include "bench_util.h"
#include "common/table_writer.h"
#include "core/gbda_search.h"

using namespace gbda;
using namespace gbda::bench;

namespace {

Status Run(const BenchFlags& flags) {
  TableWriter table({"Data Set", "LSAP", "greedysort", "seriation",
                     "GBDA(t=1)", "GBDA(t=5)", "GBDA(t=10)"});

  for (const DatasetProfile& profile : RealProfiles(flags)) {
    Result<Bundle> bundle = MakeBundle(profile, /*tau_max=*/10, flags);
    if (!bundle.ok()) {
      return Status(bundle.status().code(),
                    profile.name + ": " + bundle.status().message());
    }
    ExperimentRunner& runner = *bundle->runner;
    const GeneratedDataset& ds = *bundle->dataset;
    const size_t num_queries = std::min<size_t>(ds.queries.size(),
                                                flags.full ? 20 : 5);

    std::vector<std::string> row = {profile.name};
    // Baselines: one full scan per query.
    for (Method m :
         {Method::kLsap, Method::kGreedySort, Method::kSeriation}) {
      ExperimentConfig config;
      config.method = m;
      config.tau_hat = 5;
      std::vector<size_t> subset;
      for (size_t q = 0; q < num_queries; ++q) subset.push_back(q);
      Result<MethodMetrics> metrics = runner.Run(config, &subset);
      if (!metrics.ok()) return metrics.status();
      row.push_back(TimeCell(metrics->avg_query_seconds));
    }
    // GBDA at the three thresholds, fresh engine per query (shared Lambda1
    // matrices, see the file comment).
    for (int64_t tau : {1, 5, 10}) {
      double total = 0.0;
      for (size_t q = 0; q < num_queries; ++q) {
        GbdaSearch search(&ds.db, runner.mutable_index());
        SearchOptions opts;
        opts.tau_hat = tau;
        opts.gamma = 0.9;
        opts.early_termination = false;
        Result<SearchResult> result = search.Query(ds.queries[q], opts);
        if (!result.ok()) return result.status();
        total += result->seconds;
      }
      row.push_back(TimeCell(total / static_cast<double>(num_queries)));
    }
    table.AddRow(row);
  }
  table.Print(
      "Figure 7: average query response time on real data sets "
      "(paper shape: GBDA fastest at every threshold, then seriation/"
      "greedysort, LSAP slowest)");
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  PrintHeader("Figure 7: query time on real data sets", flags);
  Status st = Run(flags);
  if (!st.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
