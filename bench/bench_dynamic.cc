// Dynamic-corpus serving bench (docs/BENCHMARKS.md, "Dynamic bench").
// Runs DynamicGbdaService under mixed traffic: R reader threads stream
// threshold queries while a writer thread commits add/remove mutations,
// each commit publishing a fresh snapshot. Emits one machine-readable JSON
// object on stdout: read throughput and latency, write commit throughput,
// and the snapshot rebuild/swap latency figures. When the Lambda2 refit
// fraction is 0 (the default), the final corpus is checked bit-identical
// against a from-scratch GbdaIndex::Build + GbdaService before any number
// is reported, so the figures can never come from a diverging dynamic path.
//
// Typical runs:
//   bench_dynamic                                        # default mix
//   bench_dynamic --threads=4 --readers=4 --mutations=64
//   bench_dynamic --threads=2 --readers=2 --mutations=12 --queries=16 --scale=0.03  # CI
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"

using namespace gbda;
using bench::BoolFlagOrExit;
using bench::ParseFlagValue;
using bench::ProfileByName;

namespace {

struct Flags {
  size_t threads = 4;        // pool workers of the dynamic service
  size_t shards = 0;         // 0 = one per worker
  size_t readers = 4;        // concurrent query threads
  size_t num_queries = 64;   // queries per reader
  size_t mutations = 32;     // minimum writer commits
  size_t write_batch = 2;    // graphs per add commit
  double initial_fraction = 0.6;
  double refit_fraction = 0.0;
  std::string profile = "fingerprint";
  double scale = 0.05;
  int64_t tau_hat = 5;
  double gamma = 0.5;
  bool prefilter = false;
  size_t sample_pairs = 2000;
  uint64_t seed = 0;  // 0 = profile default
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlagValue(argv[i], "--threads", &v)) {
      flags.threads = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--shards", &v)) {
      flags.shards = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--readers", &v)) {
      flags.readers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--queries", &v)) {
      flags.num_queries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--mutations", &v)) {
      flags.mutations = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--write-batch", &v)) {
      flags.write_batch = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--initial-fraction", &v)) {
      flags.initial_fraction = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlagValue(argv[i], "--refit-fraction", &v)) {
      flags.refit_fraction = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlagValue(argv[i], "--profile", &v)) {
      flags.profile = v;
    } else if (ParseFlagValue(argv[i], "--scale", &v)) {
      flags.scale = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlagValue(argv[i], "--tau", &v)) {
      flags.tau_hat = std::strtoll(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--gamma", &v)) {
      flags.gamma = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlagValue(argv[i], "--prefilter", &v)) {
      flags.prefilter = BoolFlagOrExit("--prefilter", v);
    } else if (ParseFlagValue(argv[i], "--pairs", &v)) {
      flags.sample_pairs = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlagValue(argv[i], "--seed", &v)) {
      flags.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --threads=N --shards=N "
                   "--readers=N --queries=N --mutations=N --write-batch=N "
                   "--initial-fraction=F --refit-fraction=F "
                   "--profile=fingerprint|aids|grec|aasd --scale=F --tau=N "
                   "--gamma=F --prefilter=0|1 --pairs=N --seed=N\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

// Final-state equivalence gate: results of the dynamic service over its
// published snapshot must be bit-identical (match set, ordering, counters)
// to a fresh Build + GbdaService over a database holding exactly the live
// graphs, mapped through stable ids.
bool FinalCorpusMatchesFreshBuild(DynamicGbdaService& dyn,
                                  const GbdaIndexOptions& index_options,
                                  const ServiceOptions& service_options,
                                  const std::vector<Graph>& queries,
                                  const SearchOptions& search_options) {
  const std::vector<size_t> live_ids = dyn.db().LiveIds();
  GraphDatabase ref_db;
  ref_db.vertex_labels() = dyn.db().vertex_labels();
  ref_db.edge_labels() = dyn.db().edge_labels();
  for (size_t id : live_ids) ref_db.Add(dyn.db().graph(id));
  Result<GbdaIndex> index = GbdaIndex::Build(ref_db, index_options);
  if (!index.ok()) {
    std::fprintf(stderr, "gate: %s\n", index.status().ToString().c_str());
    return false;
  }
  Result<std::unique_ptr<GbdaService>> ref =
      GbdaService::Create(&ref_db, &*index, service_options);
  if (!ref.ok()) {
    std::fprintf(stderr, "gate: %s\n", ref.status().ToString().c_str());
    return false;
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<SearchResult> expect = (*ref)->Query(queries[q], search_options);
    Result<SearchResult> got = dyn.Query(queries[q], search_options);
    if (!expect.ok() || !got.ok()) return false;
    if (expect->matches.size() != got->matches.size() ||
        expect->candidates_evaluated != got->candidates_evaluated ||
        expect->prefiltered_out != got->prefiltered_out) {
      return false;
    }
    for (size_t i = 0; i < expect->matches.size(); ++i) {
      if (live_ids[expect->matches[i].graph_id] != got->matches[i].graph_id ||
          expect->matches[i].phi_score != got->matches[i].phi_score ||
          expect->matches[i].gbd != got->matches[i].gbd) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.readers == 0 || flags.num_queries == 0 || flags.mutations == 0) {
    std::fprintf(stderr, "empty workload\n");
    return 2;
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
  const size_t total = dataset->db.size();
  const size_t initial = std::max<size_t>(
      4, static_cast<size_t>(static_cast<double>(total) * flags.initial_fraction));
  if (initial >= total) {
    std::fprintf(stderr, "initial fraction leaves no graphs to stream in\n");
    return 1;
  }

  // Initial corpus: the first `initial` dataset graphs; the rest arrive
  // through AddGraphs during the mixed phase.
  GraphDatabase db;
  db.vertex_labels() = dataset->db.vertex_labels();
  db.edge_labels() = dataset->db.edge_labels();
  for (size_t i = 0; i < initial; ++i) db.Add(dataset->db.graph(i));

  GbdaIndexOptions index_options;
  index_options.tau_max = std::max<int64_t>(10, flags.tau_hat);
  index_options.gbd_prior.num_sample_pairs = flags.sample_pairs;
  index_options.model_vertex_labels =
      static_cast<int64_t>(profile->num_vertex_labels);
  index_options.model_edge_labels =
      static_cast<int64_t>(profile->num_edge_labels);

  DynamicServiceOptions options;
  options.service.num_threads = flags.threads;
  options.service.num_shards = flags.shards;
  options.gbd_refit_fraction = flags.refit_fraction;
  Result<std::unique_ptr<DynamicGbdaService>> created =
      DynamicGbdaService::Create(std::move(db), index_options, options);
  if (!created.ok()) {
    std::fprintf(stderr, "service: %s\n", created.status().ToString().c_str());
    return 1;
  }
  DynamicGbdaService& service = **created;
  service.ResetStats();  // measure only the mixed phase

  SearchOptions search_options;
  search_options.tau_hat = flags.tau_hat;
  search_options.gamma = flags.gamma;
  search_options.use_prefilter = flags.prefilter;

  // ---- Mixed phase: R readers x 1 writer --------------------------------
  std::atomic<bool> readers_done_flag{false};
  std::atomic<size_t> readers_remaining{flags.readers};
  std::atomic<int> read_errors{0};
  WallTimer phase_timer;
  std::vector<std::thread> readers;
  readers.reserve(flags.readers);
  for (size_t r = 0; r < flags.readers; ++r) {
    readers.emplace_back([&service, &dataset, &search_options, &flags,
                          &readers_remaining, &readers_done_flag,
                          &read_errors, r]() {
      for (size_t q = 0; q < flags.num_queries; ++q) {
        const Graph& query =
            dataset->queries[(r + q) % dataset->queries.size()];
        if (!service.Query(query, search_options).ok()) ++read_errors;
      }
      if (readers_remaining.fetch_sub(1) == 1) {
        readers_done_flag.store(true);
      }
    });
  }

  // Writer: alternate add-batch and remove commits. After the arrival pool
  // drains, re-add copies of retired graphs so the mix keeps churning until
  // both the commit quota and the readers are done.
  Rng write_rng(readers.size() + 99);
  size_t next_arrival = initial;
  size_t commits = 0;
  int write_errors = 0;
  while (commits < flags.mutations || !readers_done_flag.load()) {
    const std::vector<size_t> live = service.db().LiveIds();
    const bool remove = live.size() > initial / 2 && commits % 3 == 2;
    if (remove) {
      const size_t pick = live[static_cast<size_t>(write_rng.UniformInt(
          0, static_cast<int64_t>(live.size()) - 1))];
      if (!service.RemoveGraphs({pick}).ok()) ++write_errors;
    } else {
      std::vector<Graph> batch;
      for (size_t i = 0; i < flags.write_batch; ++i) {
        const size_t src = next_arrival < total
                               ? next_arrival++
                               : static_cast<size_t>(write_rng.UniformInt(
                                     0, static_cast<int64_t>(total) - 1));
        batch.push_back(dataset->db.graph(src));
      }
      if (!service.AddGraphs(std::move(batch)).ok()) ++write_errors;
    }
    ++commits;
  }
  for (std::thread& t : readers) t.join();
  const double phase_wall = phase_timer.Seconds();

  if (read_errors.load() != 0 || write_errors != 0) {
    std::fprintf(stderr, "mixed phase errors: %d reads, %d writes\n",
                 read_errors.load(), write_errors);
    return 1;
  }

  // Capture BEFORE the gate: the gate issues extra queries with no write
  // contention, which would dilute the mixed-phase latency figures.
  const ServiceStats read_stats = service.stats();
  const DynamicServiceStats write_stats = service.dynamic_stats();

  // ---- Equivalence gate --------------------------------------------------
  bool equivalence_ok = true;
  bool gate_ran = false;
  if (flags.refit_fraction <= 0.0) {
    gate_ran = true;
    equivalence_ok = FinalCorpusMatchesFreshBuild(
        service, index_options, options.service, dataset->queries,
        search_options);
    if (!equivalence_ok) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE: dynamic corpus diverges from a "
                   "fresh offline build\n");
      return 1;
    }
  }

  const size_t reads = flags.readers * flags.num_queries;

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_dynamic\",\n");
  std::printf("  \"profile\": \"%s\",\n", flags.profile.c_str());
  std::printf("  \"scale\": %g,\n", flags.scale);
  std::printf("  \"db_graphs\": %zu,\n", total);
  std::printf("  \"initial_live\": %zu,\n", initial);
  std::printf("  \"final_live\": %zu,\n", service.num_live());
  std::printf("  \"threads\": %zu,\n", service.num_threads());
  std::printf("  \"shards\": %zu,\n", flags.shards);
  std::printf("  \"readers\": %zu,\n", flags.readers);
  std::printf("  \"queries_per_reader\": %zu,\n", flags.num_queries);
  std::printf("  \"write_batch\": %zu,\n", flags.write_batch);
  std::printf("  \"refit_fraction\": %g,\n", flags.refit_fraction);
  std::printf("  \"tau_hat\": %lld,\n", static_cast<long long>(flags.tau_hat));
  std::printf("  \"gamma\": %g,\n", flags.gamma);
  std::printf("  \"prefilter\": %s,\n", flags.prefilter ? "true" : "false");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"equivalence_gate\": \"%s\",\n",
              gate_ran ? "passed" : "skipped (refit_fraction > 0)");
  std::printf("  \"mixed\": {\"wall_seconds\": %.6f, \"reads\": %zu, "
              "\"read_qps\": %.2f, \"mean_read_latency_seconds\": %.6f, "
              "\"commits\": %zu, \"commits_per_second\": %.2f, "
              "\"graphs_added\": %llu, \"graphs_removed\": %llu, "
              "\"gbd_refits\": %llu},\n",
              phase_wall, reads,
              phase_wall > 0 ? static_cast<double>(reads) / phase_wall : 0.0,
              read_stats.MeanLatencySeconds(), commits,
              phase_wall > 0 ? static_cast<double>(commits) / phase_wall : 0.0,
              static_cast<unsigned long long>(write_stats.graphs_added),
              static_cast<unsigned long long>(write_stats.graphs_removed),
              static_cast<unsigned long long>(write_stats.gbd_refits));
  const double snapshots =
      write_stats.snapshots_published > 0
          ? static_cast<double>(write_stats.snapshots_published)
          : 1.0;
  std::printf("  \"snapshot\": {\"published\": %llu, "
              "\"rebuild_mean_seconds\": %.6f, \"rebuild_max_seconds\": %.6f, "
              "\"swap_mean_seconds\": %.9f, \"swap_max_seconds\": %.9f, "
              "\"last_swap_seconds\": %.9f}\n",
              static_cast<unsigned long long>(write_stats.snapshots_published),
              write_stats.total_rebuild_seconds / snapshots,
              write_stats.max_rebuild_seconds,
              write_stats.total_swap_seconds / snapshots,
              write_stats.max_swap_seconds, write_stats.last_swap_seconds);
  std::printf("}\n");
  return 0;
}
