// Approximate-navigation recall/latency sweep (docs/BENCHMARKS.md, "Recall
// bench"). Runs top-k ranking through GbdaService twice over a
// dataset_profiles database — exhaustively, and approximately at each
// --windows size — and emits one JSON object on stdout: the proximity
// graph's build time, per-window recall@k, wall time, speedup vs the
// exhaustive scan, and the navigator's cost counters.
//
// Two built-in gates make the numbers trustworthy:
//   - Exactness: every approximate match must be bit-identical (phi, gbd)
//     to the exhaustive ranking's entry for the same graph id. Approximate
//     mode may MISS candidates; it may never fabricate or perturb a score.
//     Any mismatch is a hard failure.
//   - Recall floor: recall@k at --floor-window (the SearchOptions default
//     window) must reach --recall-floor, or the bench exits non-zero. This
//     is the CI contract for approximate mode — the one mode exempt from
//     bit-identity, gated by explicit recall instead (ROADMAP.md).
//
// Typical runs:
//   bench_recall                                        # AIDS sweep
//   bench_recall --windows=8,16,32,64,128 --k=10
//   bench_recall --queries=16 --scale=0.03 --threads=2  # CI smoke
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/gbda_service.h"

using namespace gbda;
using bench::DoubleFlagOrExit;
using bench::IntFlagOrExit;
using bench::ListFlagOrExit;
using bench::ParseFlagValue;
using bench::ProfileByName;
using bench::ScaleFlagOrExit;
using bench::UintFlagOrExit;

namespace {

struct Flags {
  std::string profile = "aids";
  double scale = 0.05;
  size_t num_queries = 32;
  size_t k = 10;
  std::vector<size_t> windows = {16, 32, 64, 128};
  size_t floor_window = SearchOptions().search_window_size;
  double recall_floor = 0.95;
  int64_t tau_hat = 5;
  size_t threads = 0;
  size_t shards = 0;
  size_t sample_pairs = 2000;
  uint64_t seed = 0;  // 0 = profile default
  uint32_t ann_degree = 0;  // 0 = AnnBuildParams default
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlagValue(argv[i], "--profile", &v)) {
      flags.profile = v;
    } else if (ParseFlagValue(argv[i], "--scale", &v)) {
      flags.scale = ScaleFlagOrExit(v);
    } else if (ParseFlagValue(argv[i], "--queries", &v)) {
      flags.num_queries = UintFlagOrExit("--queries", v);
    } else if (ParseFlagValue(argv[i], "--k", &v)) {
      flags.k = UintFlagOrExit("--k", v);
    } else if (ParseFlagValue(argv[i], "--windows", &v)) {
      flags.windows = ListFlagOrExit<size_t>("--windows", v);
    } else if (ParseFlagValue(argv[i], "--floor-window", &v)) {
      flags.floor_window = UintFlagOrExit("--floor-window", v);
    } else if (ParseFlagValue(argv[i], "--recall-floor", &v)) {
      flags.recall_floor = DoubleFlagOrExit("--recall-floor", v);
    } else if (ParseFlagValue(argv[i], "--tau", &v)) {
      flags.tau_hat = IntFlagOrExit("--tau", v);
    } else if (ParseFlagValue(argv[i], "--threads", &v)) {
      flags.threads = UintFlagOrExit("--threads", v);
    } else if (ParseFlagValue(argv[i], "--shards", &v)) {
      flags.shards = UintFlagOrExit("--shards", v);
    } else if (ParseFlagValue(argv[i], "--pairs", &v)) {
      flags.sample_pairs = UintFlagOrExit("--pairs", v);
    } else if (ParseFlagValue(argv[i], "--seed", &v)) {
      flags.seed = UintFlagOrExit("--seed", v);
    } else if (ParseFlagValue(argv[i], "--ann-degree", &v)) {
      flags.ann_degree = static_cast<uint32_t>(
          UintFlagOrExit("--ann-degree", v, UINT32_MAX));
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --profile=aids|fingerprint|grec|"
                   "aasd --scale=F --queries=N --k=N --windows=CSV "
                   "--floor-window=N --recall-floor=F --tau=N --threads=N "
                   "--shards=N --pairs=N --seed=N --ann-degree=N\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.num_queries == 0 || flags.k == 0 || flags.windows.empty()) {
    std::fprintf(stderr, "empty sweep\n");
    return 2;
  }
  // The floor gate needs a measurement at its window.
  if (std::find(flags.windows.begin(), flags.windows.end(),
                flags.floor_window) == flags.windows.end()) {
    flags.windows.push_back(flags.floor_window);
    std::sort(flags.windows.begin(), flags.windows.end());
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
  const size_t corpus = dataset->db.size();

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

  std::vector<Graph> queries;
  queries.reserve(flags.num_queries);
  for (size_t i = 0; i < flags.num_queries; ++i) {
    queries.push_back(dataset->queries[i % dataset->queries.size()]);
  }

  ServiceOptions service_options;
  service_options.num_threads = flags.threads;
  service_options.num_shards = flags.shards;
  if (flags.ann_degree != 0) {
    service_options.ann_build.graph_degree = flags.ann_degree;
  }
  GbdaService service(&dataset->db, &*index, service_options);

  SearchOptions exhaustive_options;
  exhaustive_options.tau_hat = flags.tau_hat;

  // Ground truth, one pass: the FULL exhaustive ranking of every query.
  // Its first k entries are the recall reference, and the id -> (phi, gbd)
  // map behind it backs the exactness gate for matches an approximate
  // window surfaces from beyond the top-k.
  std::vector<std::vector<SearchMatch>> full_rankings;
  full_rankings.reserve(queries.size());
  {
    Result<std::vector<SearchResult>> full =
        service.QueryTopKBatch(queries, corpus, exhaustive_options);
    if (!full.ok()) {
      std::fprintf(stderr, "exhaustive ranking: %s\n",
                   full.status().ToString().c_str());
      return 1;
    }
    for (SearchResult& r : *full) full_rankings.push_back(std::move(r.matches));
  }
  std::vector<std::unordered_map<size_t, const SearchMatch*>> score_by_id(
      queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    score_by_id[qi].reserve(full_rankings[qi].size());
    for (const SearchMatch& m : full_rankings[qi]) {
      score_by_id[qi].emplace(m.graph_id, &m);
    }
  }
  const size_t k = std::min(flags.k, corpus);

  // Warm everything both timed passes share — engine memos and the
  // proximity graph — so per-window walls measure steady state. The graph
  // build is timed on its own.
  WallTimer build_timer;
  Status warmed = service.WarmAnnGraph();
  const double ann_build_seconds = build_timer.Seconds();
  if (!warmed.ok()) {
    std::fprintf(stderr, "ann graph: %s\n", warmed.ToString().c_str());
    return 1;
  }

  // Timed exhaustive top-k pass: the latency baseline.
  double exhaustive_wall = 0.0;
  {
    WallTimer timer;
    Result<std::vector<SearchResult>> batch =
        service.QueryTopKBatch(queries, k, exhaustive_options);
    if (!batch.ok()) {
      std::fprintf(stderr, "exhaustive top-k: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
    exhaustive_wall = timer.Seconds();
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_recall\",\n");
  std::printf("  \"profile\": \"%s\",\n", flags.profile.c_str());
  std::printf("  \"scale\": %g,\n", flags.scale);
  std::printf("  \"db_graphs\": %zu,\n", corpus);
  std::printf("  \"queries\": %zu,\n", queries.size());
  std::printf("  \"k\": %zu,\n", k);
  std::printf("  \"tau_hat\": %lld,\n", static_cast<long long>(flags.tau_hat));
  std::printf("  \"threads\": %zu,\n", service.num_threads());
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"recall_floor\": %g,\n", flags.recall_floor);
  std::printf("  \"floor_window\": %zu,\n", flags.floor_window);
  std::printf("  \"ann_build_seconds\": %.6f,\n", ann_build_seconds);
  std::printf("  \"exhaustive\": {\"wall_seconds\": %.6f, \"qps\": %.2f},\n",
              exhaustive_wall,
              exhaustive_wall > 0
                  ? static_cast<double>(queries.size()) / exhaustive_wall
                  : 0.0);
  std::printf("  \"windows\": [\n");

  double floor_recall = -1.0;
  bool first = true;
  for (size_t window : flags.windows) {
    SearchOptions approx_options = exhaustive_options;
    approx_options.approximate = true;
    approx_options.search_window_size = window;

    service.ResetStats();
    WallTimer timer;
    Result<std::vector<SearchResult>> batch =
        service.QueryTopKBatch(queries, k, approx_options);
    const double wall = timer.Seconds();
    if (!batch.ok()) {
      std::fprintf(stderr, "approximate window %zu: %s\n", window,
                   batch.status().ToString().c_str());
      return 1;
    }
    const ServiceStats stats = service.stats();

    double recall_sum = 0.0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::vector<SearchMatch>& approx = (*batch)[qi].matches;
      const std::vector<SearchMatch>& full = full_rankings[qi];
      const size_t truth = std::min(k, full.size());
      // Exactness gate: a score the exhaustive scan did not compute for the
      // same graph is fabricated — hard failure, not a recall deduction.
      for (const SearchMatch& m : approx) {
        auto it = score_by_id[qi].find(m.graph_id);
        if (it == score_by_id[qi].end() ||
            it->second->phi_score != m.phi_score || it->second->gbd != m.gbd) {
          std::fprintf(stderr,
                       "EXACTNESS FAILURE: window %zu query %zu graph %zu "
                       "disagrees with the exhaustive ranking\n",
                       window, qi, m.graph_id);
          return 1;
        }
      }
      if (truth == 0) {
        recall_sum += 1.0;
        continue;
      }
      size_t hits = 0;
      for (size_t t = 0; t < truth; ++t) {
        const size_t want = full[t].graph_id;
        for (const SearchMatch& m : approx) {
          if (m.graph_id == want) {
            ++hits;
            break;
          }
        }
      }
      recall_sum += static_cast<double>(hits) / static_cast<double>(truth);
    }
    const double recall = recall_sum / static_cast<double>(queries.size());
    if (window == flags.floor_window) floor_recall = recall;

    std::printf(
        "%s    {\"window\": %zu, \"recall_at_k\": %.4f, "
        "\"wall_seconds\": %.6f, \"qps\": %.2f, "
        "\"speedup_vs_exhaustive\": %.3f, \"candidates_visited\": %zu, "
        "\"verified_count\": %zu, \"visited_fraction\": %.4f}",
        first ? "" : ",\n", window, recall, wall,
        wall > 0 ? static_cast<double>(queries.size()) / wall : 0.0,
        wall > 0 ? exhaustive_wall / wall : 0.0, stats.candidates_visited,
        stats.verified_count,
        corpus > 0 ? static_cast<double>(stats.candidates_visited) /
                         static_cast<double>(corpus * queries.size())
                   : 0.0);
    first = false;
  }
  std::printf("\n  ],\n");

  const bool floor_ok = floor_recall >= flags.recall_floor;
  std::printf("  \"floor_recall\": %.4f,\n", floor_recall);
  std::printf("  \"exactness_ok\": true,\n");
  std::printf("  \"floor_ok\": %s\n}\n", floor_ok ? "true" : "false");
  if (!floor_ok) {
    std::fprintf(stderr,
                 "RECALL FLOOR FAILURE: recall@%zu = %.4f at window %zu, "
                 "floor is %.2f\n",
                 k, floor_recall, flags.floor_window, flags.recall_floor);
    return 1;
  }
  return 0;
}
