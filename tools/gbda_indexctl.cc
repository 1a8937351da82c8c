// gbda_indexctl — operator tooling for GBDA index artifacts
// (docs/ARCHITECTURE.md, "Storage engine"; quickstart in README.md).
//
//   gbda_indexctl build   --db=<transactions.txt> --out=<artifact>
//                         [--tau-max=N] [--sample-pairs=N] [--seed=N]
//                         [--eager-all-sizes] [--ann] [--ann-*=...]
//       Runs the offline stage over a transaction-format database file and
//       writes the v4 arena artifact (with an ann_graph section under --ann
//       or any --ann-* knob). Numeric values must parse whole and fit their
//       field (--tau-max <= 1024); anything else is a usage error.
//
//   gbda_indexctl graph   --in=<v4 artifact> --out=<v4 artifact>
//                         [--ann-degree=N] [--ann-window=N]
//                         [--ann-alpha=F] [--ann-seed=N]
//       Builds the proximity graph for approximate candidate navigation
//       over the artifact's branch ids and writes a copy carrying
//       it as the optional ann_graph section (src/ann). The canonical
//       sections are byte-identical to the input's, so exhaustive queries
//       through the output are bit-identical to the input. Each --ann-*
//       value must parse whole and fit its field (degree and window in
//       uint32); anything else is a usage error.
//
//   gbda_indexctl inspect <artifact>
//       Prints a JSON summary (header fields including the distinct-branch
//       count, section table, ann_graph details when present).
//
//   gbda_indexctl verify <artifact>
//       Full integrity check: structural validation plus every section's
//       CRC32, trailing optional sections such as ann_graph included.
//       Exits non-zero on the first failure, printing the offending
//       section and byte offset.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "ann/proximity_graph.h"
#include "common/string_util.h"
#include "core/gbda_index.h"
#include "graph/graph_io.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

using namespace gbda;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  gbda_indexctl build   --db=<transactions.txt> --out=<path>\n"
               "                        [--tau-max=N] [--sample-pairs=N]"
               " [--seed=N] [--eager-all-sizes]\n"
               "                        [--ann] [--ann-degree=N]"
               " [--ann-window=N] [--ann-alpha=F] [--ann-seed=N]\n"
               "  gbda_indexctl graph   --in=<v4 path> --out=<v4 path>"
               " [--ann-degree=N] [--ann-window=N]\n"
               "                        [--ann-alpha=F] [--ann-seed=N]\n"
               "  gbda_indexctl inspect <path>\n"
               "  gbda_indexctl verify  <path>\n");
  return 2;
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "gbda_indexctl: %s\n", status.ToString().c_str());
  return 1;
}

// Stores a parsed flag value; a parse error passes through.
template <typename T, typename V>
Status Assign(const Result<V>& parsed, T* out) {
  if (!parsed.ok()) return parsed.status();
  *out = static_cast<T>(*parsed);
  return Status::OK();
}

// True when `parsed` is OK; otherwise prints why `arg` was refused.
bool ParsedFlag(const char* arg, const Status& parsed) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "gbda_indexctl: %s: %s\n", arg,
                 parsed.ToString().c_str());
  }
  return parsed.ok();
}

/// Parses the shared --ann-* knobs. Returns false on an unrecognized flag
/// and on a value that does not parse whole or does not fit its field
/// (printing why), so either way the caller answers with the usage error.
bool AnnFlagValue(const char* arg, AnnBuildParams* params) {
  std::string v;
  Status parsed;
  if (FlagValue(arg, "--ann-degree", &v)) {
    parsed = Assign(ParseUint(v, UINT32_MAX), &params->graph_degree);
  } else if (FlagValue(arg, "--ann-window", &v)) {
    parsed = Assign(ParseUint(v, UINT32_MAX), &params->build_window);
  } else if (FlagValue(arg, "--ann-alpha", &v)) {
    parsed = Assign(ParseDouble(v), &params->alpha);
  } else if (FlagValue(arg, "--ann-seed", &v)) {
    parsed = Assign(ParseUint(v), &params->seed);
  } else {
    return false;
  }
  return ParsedFlag(arg, parsed);
}

int RunBuild(int argc, char** argv) {
  std::string db_path, out_path, v;
  GbdaIndexOptions options;
  bool with_ann = false;
  AnnBuildParams ann_params;
  for (int i = 2; i < argc; ++i) {
    Status parsed;
    if (FlagValue(argv[i], "--db", &v)) {
      db_path = v;
    } else if (FlagValue(argv[i], "--out", &v)) {
      out_path = v;
    } else if (FlagValue(argv[i], "--tau-max", &v)) {
      parsed = Assign(ParseUint(v, kMaxPlausibleTau), &options.tau_max);
    } else if (FlagValue(argv[i], "--sample-pairs", &v)) {
      parsed = Assign(ParseUint(v), &options.gbd_prior.num_sample_pairs);
    } else if (FlagValue(argv[i], "--seed", &v)) {
      parsed = Assign(ParseUint(v), &options.seed);
    } else if (std::strcmp(argv[i], "--eager-all-sizes") == 0) {
      options.eager_all_sizes = true;
    } else if (std::strcmp(argv[i], "--ann") == 0) {
      with_ann = true;
    } else if (AnnFlagValue(argv[i], &ann_params)) {
      with_ann = true;  // an --ann-* knob implies --ann
    } else {
      return Usage();
    }
    if (!ParsedFlag(argv[i], parsed)) return Usage();
  }
  if (db_path.empty() || out_path.empty()) return Usage();

  Result<GraphDatabase> db = ReadTransactionFile(db_path);
  if (!db.ok()) return Fail(db.status());
  Result<GbdaIndex> index = GbdaIndex::Build(*db, options);
  if (!index.ok()) return Fail(index.status());
  if (with_ann) {
    Result<ProximityGraph> graph =
        BuildProximityGraph(FingerprintStore::FromIndex(*index), ann_params);
    if (!graph.ok()) return Fail(graph.status());
    Status written = WriteArenaFile(*index, out_path, &*graph);
    if (!written.ok()) return Fail(written);
    std::printf(
        "built v4 artifact %s: %zu graphs, tau_max=%lld, ann_graph "
        "(degree<=%u, %llu edges)\n",
        out_path.c_str(), index->num_graphs(),
        static_cast<long long>(index->tau_max()), graph->degree_bound,
        static_cast<unsigned long long>(graph->neighbors.size()));
    return 0;
  }
  Status written = WriteArenaFile(*index, out_path);
  if (!written.ok()) return Fail(written);
  std::printf("built v4 artifact %s: %zu graphs, tau_max=%lld\n",
              out_path.c_str(), index->num_graphs(),
              static_cast<long long>(index->tau_max()));
  return 0;
}

int RunGraph(int argc, char** argv) {
  std::string in_path, out_path, v;
  AnnBuildParams ann_params;
  for (int i = 2; i < argc; ++i) {
    if (FlagValue(argv[i], "--in", &v)) {
      in_path = v;
    } else if (FlagValue(argv[i], "--out", &v)) {
      out_path = v;
    } else if (AnnFlagValue(argv[i], &ann_params)) {
    } else {
      return Usage();
    }
  }
  if (in_path.empty() || out_path.empty()) return Usage();

  Result<GbdaIndexView> view = GbdaIndexView::Open(in_path);
  if (!view.ok()) return Fail(view.status());
  Result<ProximityGraph> graph =
      BuildProximityGraph(FingerprintStore::FromIndex(*view), ann_params);
  if (!graph.ok()) return Fail(graph.status());
  Status written = WriteArenaFile(*view, out_path, &*graph);
  if (!written.ok()) return Fail(written);
  std::printf(
      "wrote %s: %zu graphs with ann_graph (degree<=%u, %llu edges, "
      "entry=%u)\n",
      out_path.c_str(), view->num_graphs(), graph->degree_bound,
      static_cast<unsigned long long>(graph->neighbors.size()),
      graph->entry_point);
  return 0;
}

int RunInspect(const std::string& path) {
  Result<MappedFile> mapped = MappedFile::OpenReadOnly(path, false);
  if (!mapped.ok()) return Fail(mapped.status());
  Result<ArenaInfo> info = ParseArenaHeader(
      std::string_view(mapped->data(), mapped->size()), path);
  if (!info.ok()) return Fail(info.status());
  std::printf(
      "{\n"
      "  \"format\": \"v%u\",\n"
      "  \"file_bytes\": %llu,\n"
      "  \"num_graphs\": %llu,\n"
      "  \"tau_max\": %lld,\n"
      "  \"num_vertex_labels\": %lld,\n"
      "  \"num_edge_labels\": %lld,\n"
      "  \"avg_vertices\": %.6f,\n"
      "  \"sample_pairs\": %llu,\n"
      "  \"seed\": %llu",
      info->version, static_cast<unsigned long long>(info->file_bytes),
      static_cast<unsigned long long>(info->num_graphs),
      static_cast<long long>(info->options.tau_max),
      static_cast<long long>(info->num_vertex_labels),
      static_cast<long long>(info->num_edge_labels), info->avg_vertices,
      static_cast<unsigned long long>(info->options.gbd_prior.num_sample_pairs),
      static_cast<unsigned long long>(info->options.seed));
  std::printf(
      ",\n  \"total_branches\": %llu,\n  \"distinct_branches\": %llu,\n"
      "  \"dictionary_labels\": %llu,\n  \"sections\": [\n",
      static_cast<unsigned long long>(info->total_branches),
      static_cast<unsigned long long>(info->dictionary_size),
      static_cast<unsigned long long>(info->dictionary_labels));
  for (size_t s = 0; s < info->sections.size(); ++s) {
    const ArenaSectionInfo& sec = info->sections[s];
    std::printf(
        "    {\"name\": \"%s\", \"offset\": %llu, \"length\": %llu, "
        "\"align\": %llu, \"crc32\": \"%08x\"}%s\n",
        ArenaSectionName(sec.id), static_cast<unsigned long long>(sec.offset),
        static_cast<unsigned long long>(sec.length),
        static_cast<unsigned long long>(sec.offset % kArenaSectionAlign == 0
                                            ? kArenaSectionAlign
                                            : sec.offset & ~(sec.offset - 1)),
        sec.crc32, s + 1 < info->sections.size() ? "," : "");
  }
  std::printf("  ]");
  if (const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph)) {
    Result<ProximityGraphRef> graph = ParseProximityGraphSection(
        mapped->data() + sec->offset, static_cast<size_t>(sec->length),
        info->num_graphs, path + " [ann_graph]");
    if (graph.ok()) {
      std::printf(
          ",\n  \"ann_graph\": {\"nodes\": %llu, \"edges\": %llu, "
          "\"degree_bound\": %u, \"entry_point\": %u}",
          static_cast<unsigned long long>(graph->num_nodes),
          static_cast<unsigned long long>(graph->num_edges),
          graph->degree_bound, graph->entry_point);
    } else {
      std::printf(",\n  \"ann_graph\": {\"error\": \"%s\"}",
                  graph.status().ToString().c_str());
    }
  }
  std::printf("\n}\n");
  return 0;
}

int RunVerify(const std::string& path) {
  GbdaIndexView::OpenOptions options;
  options.verify_checksums = true;
  options.prefetch = true;
  Result<GbdaIndexView> view = GbdaIndexView::Open(path, options);
  if (!view.ok()) return Fail(view.status());
  std::printf("%s: OK (v%u arena, %zu graphs, %llu branches, %zu distinct)\n",
              path.c_str(), kArenaVersion, view->num_graphs(),
              static_cast<unsigned long long>(view->total_branches()),
              view->dictionary().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "build") return RunBuild(argc, argv);
  if (command == "graph") return RunGraph(argc, argv);
  if (command == "inspect" && argc == 3) return RunInspect(argv[2]);
  if (command == "verify" && argc == 3) return RunVerify(argv[2]);
  return Usage();
}
