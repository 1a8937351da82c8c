// Molecule similarity search: the bio-informatics scenario of the paper's
// introduction. Builds an AIDS-profile molecule database, runs the offline
// stage (branch index + priors), persists the index as a v4 arena, maps it
// back, and answers similarity queries with GBDA over the mapped artifact,
// printing the top matches with their posterior scores.

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

using namespace gbda;

int main() {
  // A scaled-down AIDS-like molecule collection (use scale 1.0 for the
  // paper's 1896 graphs).
  DatasetProfile profile = AidsProfile(0.05);
  Result<GeneratedDataset> dataset = GenerateDataset(profile);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("Molecule database: %zu graphs, max %zu atoms, avg degree %.2f\n",
              dataset->db.size(), dataset->db.MaxVertices(),
              dataset->db.Stats().avg_degree);

  // Offline stage: branch multisets + GBD prior (GMM) + GED prior (Jeffreys).
  GbdaIndexOptions options;
  options.tau_max = 10;
  options.gbd_prior.num_sample_pairs = 5000;
  options.model_vertex_labels = static_cast<int64_t>(profile.num_vertex_labels);
  options.model_edge_labels = static_cast<int64_t>(profile.num_edge_labels);
  Result<GbdaIndex> index = GbdaIndex::Build(dataset->db, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index: %s\n", index.status().ToString().c_str());
    return 1;
  }
  const OfflineCosts& costs = index->costs();
  std::printf("Offline stage: branches %s, GBD prior %s (%zu pairs), GED "
              "prior %s\n",
              HumanSeconds(costs.branch_seconds).c_str(),
              HumanSeconds(costs.gbd_prior_seconds).c_str(),
              costs.pairs_sampled,
              HumanSeconds(costs.ged_prior_seconds).c_str());

  // Persist, then map the artifact back, as a production service would at
  // startup: the branch dictionary and candidate columns are served in place.
  const std::string path = "/tmp/gbda_molecules.v4";
  if (Status st = WriteArenaFile(*index, path); !st.ok()) {
    std::fprintf(stderr, "write: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<GbdaIndexView> mapped = GbdaIndexView::Open(path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "open: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  std::printf("Index written to %s and mapped (%zu bytes).\n\n", path.c_str(),
              mapped->file_bytes());

  // Online stage: Algorithm 1 for a handful of query molecules.
  GbdaSearch search(&dataset->db, &*mapped);
  SearchOptions opts;
  opts.tau_hat = 5;
  opts.gamma = 0.8;
  const size_t num_queries = std::min<size_t>(dataset->queries.size(), 3);
  for (size_t q = 0; q < num_queries; ++q) {
    Result<SearchResult> result = search.Query(dataset->queries[q], opts);
    if (!result.ok()) {
      std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::vector<SearchMatch> matches = result->matches;
    std::sort(matches.begin(), matches.end(),
              [](const SearchMatch& a, const SearchMatch& b) {
                return a.phi_score > b.phi_score;
              });
    std::printf("Query %zu (%zu atoms): %zu candidates in %s, %zu accepted "
                "at tau=%lld, gamma=%.1f\n",
                q, dataset->queries[q].num_vertices(),
                result->candidates_evaluated,
                HumanSeconds(result->seconds).c_str(), matches.size(),
                static_cast<long long>(opts.tau_hat), opts.gamma);
    for (size_t i = 0; i < std::min<size_t>(matches.size(), 5); ++i) {
      const int64_t true_ged = dataset->KnownGedOrFar(q, matches[i].graph_id);
      const std::string truth =
          true_ged < 0 ? "far" : std::to_string(true_ged);
      std::printf("   graph %-5zu GBD=%-3lld Phi=%-8.3f true GED=%s\n",
                  matches[i].graph_id,
                  static_cast<long long>(matches[i].gbd),
                  matches[i].phi_score, truth.c_str());
    }
  }
  return 0;
}
