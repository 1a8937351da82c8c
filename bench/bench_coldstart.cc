// Cold-start bench: open -> first-query latency and resident memory of a
// mapped v4 artifact (docs/BENCHMARKS.md, "Cold-start bench").
// GbdaIndexView::Open maps the file, validates the header and the tables,
// hashes the branch dictionary and decodes the two prior blobs; the
// dictionary and the candidate columns are served in place.
//
// The artifact is written from a freshly built in-memory index, then opened
// and queried `--iters` times. Before any number is reported, full query
// results through the mapped view are checked bit-identical (ids, phi bits,
// GBD, counters) to GbdaSearch over the in-memory index the artifact was
// written from — the bench aborts non-zero on divergence, so the latency
// figures can never come from a diverging read path.
//
// Emits one JSON object on stdout; schema in docs/BENCHMARKS.md.
//
// Typical runs:
//   bench_coldstart                          # benchmark corpus (38k graphs)
//   bench_coldstart --profile=aids --scale=0.3
//   bench_coldstart --scale=0.05 --iters=2   # CI smoke
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

using namespace gbda;
using bench::DoubleFlagOrExit;
using bench::IntFlagOrExit;
using bench::ParseFlagValue;
using bench::ProfileByName;
using bench::ScaleFlagOrExit;
using bench::UintFlagOrExit;

namespace {

struct Flags {
  // The benchmark corpus: full-scale AASD (38K graphs, ~59 MiB artifact).
  std::string profile = "aasd";
  double scale = 1.0;
  size_t iters = 5;
  size_t num_queries = 3;  // queries folded into the first-query timing gate
  int64_t tau_hat = 5;
  double gamma = 0.5;
  size_t sample_pairs = 2000;
  std::string dir = "/tmp";
  uint64_t seed = 0;  // 0 = profile default
};

Flags Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlagValue(argv[i], "--profile", &v)) {
      flags.profile = v;
    } else if (ParseFlagValue(argv[i], "--scale", &v)) {
      flags.scale = ScaleFlagOrExit(v);
    } else if (ParseFlagValue(argv[i], "--iters", &v)) {
      flags.iters = UintFlagOrExit("--iters", v);
    } else if (ParseFlagValue(argv[i], "--queries", &v)) {
      flags.num_queries = UintFlagOrExit("--queries", v);
    } else if (ParseFlagValue(argv[i], "--tau", &v)) {
      flags.tau_hat = IntFlagOrExit("--tau", v);
    } else if (ParseFlagValue(argv[i], "--gamma", &v)) {
      flags.gamma = DoubleFlagOrExit("--gamma", v);
    } else if (ParseFlagValue(argv[i], "--sample-pairs", &v)) {
      flags.sample_pairs = UintFlagOrExit("--sample-pairs", v);
    } else if (ParseFlagValue(argv[i], "--dir", &v)) {
      flags.dir = v;
    } else if (ParseFlagValue(argv[i], "--seed", &v)) {
      flags.seed = UintFlagOrExit("--seed", v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

/// VmRSS in bytes from /proc/self/status; 0 where unavailable.
size_t CurrentRssBytes() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
#endif
  return 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// The generated artifact, removed on ANY exit (including Die paths) — it
/// is ~59 MiB on the default corpus, and docs/BENCHMARKS.md promises it
/// does not outlive the run.
std::string g_artifact_path;

void RemoveArtifact() {
  if (!g_artifact_path.empty()) std::remove(g_artifact_path.c_str());
}

struct ColdStartSample {
  double open_seconds = 0.0;
  double open_first_query_seconds = 0.0;
  size_t rss_delta_bytes = 0;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_coldstart: %s\n", message.c_str());
  std::exit(1);
}

/// One timed cold start: map the artifact, then run the first query through
/// a fresh GbdaSearch over the shared database.
ColdStartSample TimeColdStart(const GraphDatabase& db,
                              const std::vector<Graph>& queries,
                              const SearchOptions& options,
                              const std::string& path) {
  ColdStartSample sample;
  const size_t rss_before = CurrentRssBytes();
  WallTimer timer;
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  if (!view.ok()) Die(view.status().ToString());
  sample.open_seconds = timer.Seconds();
  GbdaSearch search(&db, &*view);
  Result<SearchResult> first = search.Query(queries[0], options);
  if (!first.ok()) Die(first.status().ToString());
  sample.open_first_query_seconds = timer.Seconds();
  const size_t rss_after = CurrentRssBytes();
  sample.rss_delta_bytes =
      rss_after > rss_before ? rss_after - rss_before : 0;
  return sample;
}

void PrintStats(const char* key, const std::vector<ColdStartSample>& samples) {
  std::vector<double> open, open_first;
  std::vector<double> rss;
  for (const ColdStartSample& s : samples) {
    open.push_back(s.open_seconds);
    open_first.push_back(s.open_first_query_seconds);
    rss.push_back(static_cast<double>(s.rss_delta_bytes));
  }
  std::printf(
      "  \"%s\": {\"open_seconds_median\": %.6f, "
      "\"open_first_query_seconds_median\": %.6f, "
      "\"rss_delta_bytes_median\": %.0f},\n",
      key, Median(open), Median(open_first), Median(rss));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Parse(argc, argv);

  Result<DatasetProfile> profile = ProfileByName(flags.profile, flags.scale);
  if (!profile.ok()) Die(profile.status().ToString());
  if (flags.seed != 0) profile->seed = flags.seed;
  Result<GeneratedDataset> dataset = GenerateDataset(*profile);
  if (!dataset.ok()) Die(dataset.status().ToString());
  const GraphDatabase& db = dataset->db;
  if (dataset->queries.empty()) Die("profile generated no queries");
  const size_t num_queries =
      std::max<size_t>(1, std::min(flags.num_queries,
                                   dataset->queries.size()));

  GbdaIndexOptions index_options;
  index_options.tau_max = std::max<int64_t>(flags.tau_hat, 8);
  index_options.gbd_prior.num_sample_pairs = flags.sample_pairs;
  Result<GbdaIndex> built = GbdaIndex::Build(db, index_options);
  if (!built.ok()) Die(built.status().ToString());

  const std::string path = flags.dir + "/gbda_coldstart_" +
                           std::to_string(static_cast<long long>(getpid())) +
                           ".v4.idx";
  g_artifact_path = path;
  std::atexit(RemoveArtifact);
  Status saved = WriteArenaFile(*built, path);
  if (!saved.ok()) Die(saved.ToString());

  SearchOptions options;
  options.tau_hat = flags.tau_hat;
  options.gamma = flags.gamma;

  // ---- Equivalence gate: results through the mapped view must be
  // bit-identical to the in-memory index the artifact was written from
  // before any latency figure is trusted.
  {
    Result<GbdaIndexView> view = GbdaIndexView::Open(path);
    if (!view.ok()) Die(view.status().ToString());
    GbdaSearch search_built(&db, &*built);
    GbdaSearch search_view(&db, &*view);
    for (size_t q = 0; q < num_queries; ++q) {
      Result<SearchResult> a = search_built.Query(dataset->queries[q], options);
      Result<SearchResult> b = search_view.Query(dataset->queries[q], options);
      if (!a.ok()) Die(a.status().ToString());
      if (!b.ok()) Die(b.status().ToString());
      if (a->matches.size() != b->matches.size() ||
          a->candidates_evaluated != b->candidates_evaluated ||
          a->prefiltered_out != b->prefiltered_out) {
        Die("built/mapped divergence: result shape differs on query " +
            std::to_string(q));
      }
      for (size_t i = 0; i < a->matches.size(); ++i) {
        if (a->matches[i].graph_id != b->matches[i].graph_id ||
            std::memcmp(&a->matches[i].phi_score, &b->matches[i].phi_score,
                        sizeof(double)) != 0 ||
            a->matches[i].gbd != b->matches[i].gbd) {
          Die("built/mapped divergence: match " + std::to_string(i) +
              " of query " + std::to_string(q) + " differs");
        }
      }
    }
  }

  // ---- Timed cold starts.
  std::vector<ColdStartSample> samples;
  for (size_t it = 0; it < flags.iters; ++it) {
    samples.push_back(TimeColdStart(db, dataset->queries, options, path));
  }

  std::ifstream file(path, std::ios::binary | std::ios::ate);
  std::printf("{\n");
  std::printf(
      "  \"profile\": \"%s\", \"scale\": %.4f, \"num_graphs\": %zu, "
      "\"iters\": %zu, \"tau_hat\": %lld,\n",
      flags.profile.c_str(), flags.scale, db.size(), flags.iters,
      static_cast<long long>(flags.tau_hat));
  std::printf("  \"file_bytes\": %lld,\n",
              static_cast<long long>(file.tellg()));
  PrintStats("v4_map", samples);
  std::printf("  \"equivalence\": \"bit-identical\"\n}\n");
  return 0;  // artifact removed by the atexit hook
}
