#include "core/prefilter.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/astar_ged.h"
#include "common/rng.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "graph/generators.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"
#include "test_util.h"

namespace gbda {
namespace {

TEST(FilterProfileTest, ExtractsSortedSummaries) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  const FilterProfile prof = BuildFilterProfile(p.g1);
  EXPECT_EQ(prof.num_vertices, 3);
  EXPECT_EQ(prof.num_edges, 3);
  ASSERT_EQ(prof.vertex_labels.size(), 3u);
  ASSERT_EQ(prof.edge_labels.size(), 3u);
  EXPECT_TRUE(std::is_sorted(prof.vertex_labels.begin(),
                             prof.vertex_labels.end()));
  EXPECT_TRUE(std::is_sorted(prof.edge_labels.begin(), prof.edge_labels.end()));
}

TEST(FilterLowerBoundTest, ZeroForIdenticalProfiles) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  const FilterProfile a = BuildFilterProfile(p.g1);
  EXPECT_EQ(FilterLowerBound(a, a), 0);
}

TEST(FilterLowerBoundTest, PaperPairIsBoundedByExactGed) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  const int64_t lb = FilterLowerBound(BuildFilterProfile(p.g1),
                                      BuildFilterProfile(p.g2));
  EXPECT_GE(lb, 1);
  EXPECT_LE(lb, 3);  // exact GED is 3 (Example 1)
}

class FilterBoundSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterBoundSweep, NeverExceedsExactGed) {
  Rng rng(GetParam());
  GeneratorOptions opts;
  opts.num_vertices = 6;
  opts.extra_edges = 3;
  opts.num_vertex_labels = 3;
  opts.num_edge_labels = 2;
  for (int trial = 0; trial < 8; ++trial) {
    opts.num_vertices = 4 + static_cast<size_t>(rng.UniformInt(0, 3));
    Result<Graph> a = GenerateConnectedGraph(opts, &rng);
    opts.num_vertices = 4 + static_cast<size_t>(rng.UniformInt(0, 3));
    Result<Graph> b = GenerateConnectedGraph(opts, &rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    Result<int64_t> exact = ExactGedValue(*a, *b);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(FilterLowerBound(BuildFilterProfile(*a), BuildFilterProfile(*b)),
              *exact)
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterBoundSweep,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

void ExpectSameProfile(const FilterProfile& a, const FilterProfile& b,
                       const std::string& label) {
  EXPECT_EQ(a.num_vertices, b.num_vertices) << label;
  EXPECT_EQ(a.num_edges, b.num_edges) << label;
  EXPECT_EQ(a.vertex_labels, b.vertex_labels) << label;
  EXPECT_EQ(a.edge_labels, b.edge_labels) << label;
}

FilterProfile BranchProfile(const Graph& g) {
  return BuildFilterProfile(ExtractBranches(g));
}

GbdaIndexOptions SmallIndexOptions() {
  GbdaIndexOptions options;
  options.tau_max = 10;
  options.gbd_prior.num_sample_pairs = 500;
  return options;
}

TEST(BranchFilterProfileTest, EqualsGraphProfileOnEveryDatasetProfile) {
  // The serving path profiles candidates from the branch store alone
  // (Prefilter(const IndexReader&)) and queries from their branches
  // (PrepareScan), and GBDA-V1 reads sizes as branch counts; the serial
  // reference profiles Graphs. The two derivations must agree everywhere:
  // through the owned index, a mapped v4 view of it, and an index whose
  // second half was appended (its new ids are not in content order).
  const std::vector<std::pair<std::string, DatasetProfile>> profiles = {
      {"aids", AidsProfile(0.03)},
      {"fingerprint", FingerprintProfile(0.03)},
      {"grec", GrecProfile(0.04)},
      {"aasd", AasdProfile(0.01)},
      {"syn1", SynProfile(/*scale_free=*/true, {100, 200}, 10, 2)}};
  for (const auto& [name, profile] : profiles) {
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status().ToString();
    Result<GbdaIndex> index = GbdaIndex::Build(ds->db, SmallIndexOptions());
    ASSERT_TRUE(index.ok()) << name << ": " << index.status().ToString();
    const std::string path =
        ::testing::TempDir() + "/branch_profile_" + name + ".v4";
    ASSERT_TRUE(WriteArenaFile(*index, path).ok()) << name;
    Result<GbdaIndexView> view = GbdaIndexView::Open(path);
    ASSERT_TRUE(view.ok()) << name << ": " << view.status().ToString();
    GraphDatabase first_half;
    first_half.vertex_labels() = ds->db.vertex_labels();
    first_half.edge_labels() = ds->db.edge_labels();
    const size_t half = ds->db.size() / 2;
    for (size_t id = 0; id < half; ++id) first_half.Add(ds->db.graph(id));
    Result<GbdaIndex> grown = GbdaIndex::Build(first_half, SmallIndexOptions());
    ASSERT_TRUE(grown.ok()) << name << ": " << grown.status().ToString();
    std::vector<Graph> second_half;
    for (size_t id = half; id < ds->db.size(); ++id) {
      second_half.push_back(ds->db.graph(id));
    }
    grown->AddGraphs(second_half);
    const std::vector<std::pair<std::string, const IndexReader*>> readers = {
        {name + " owned", &*index},
        {name + " mapped", &*view},
        {name + " appended", &*grown}};
    for (const auto& [label, reader] : readers) {
      ASSERT_EQ(reader->num_graphs(), ds->db.size()) << label;
      const CandidateColumns columns = reader->columns();
      for (size_t id = 0; id < ds->db.size(); ++id) {
        const Graph& g = ds->db.graph(id);
        const Span<const uint64_t> ids(
            columns.fp_keys + columns.fp_offsets[id],
            static_cast<size_t>(columns.fp_offsets[id + 1] -
                                columns.fp_offsets[id]));
        ASSERT_EQ(ids.size(), g.num_vertices()) << label << " graph " << id;
        ExpectSameProfile(BuildFilterProfile(ids, reader->dictionary()),
                          BuildFilterProfile(g),
                          label + " graph " + std::to_string(id));
      }
    }
    for (size_t q = 0; q < ds->queries.size(); ++q) {
      ExpectSameProfile(BranchProfile(ds->queries[q]),
                        BuildFilterProfile(ds->queries[q]),
                        name + " query " + std::to_string(q));
    }
  }
}

TEST(BranchFilterProfileTest, EpsilonEdgesAreInvisibleOnEveryPath) {
  // Epsilon edges (kVirtualLabel) do not exist (Definition 2): no branch
  // holds one, so neither profile may count one. A corpus graph equal to a
  // query plus one epsilon edge has GBD 0 to it and must survive the
  // prefilter at tau_hat = 0 on the serial scan and every serving path.
  DatasetProfile profile = AidsProfile(0.03);
  profile.seed = 77;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const Graph& query = ds->queries[0];
  Graph with_epsilon = query;
  bool added = false;
  for (uint32_t u = 0; u < query.num_vertices() && !added; ++u) {
    for (uint32_t v = u + 1; v < query.num_vertices() && !added; ++v) {
      added = !query.HasEdge(u, v) &&
              with_epsilon.AddEdge(u, v, kVirtualLabel).ok();
    }
  }
  ASSERT_TRUE(added) << "query 0 is a complete graph";
  ExpectSameProfile(BranchProfile(with_epsilon),
                    BuildFilterProfile(with_epsilon), "graph derivations");
  ExpectSameProfile(BuildFilterProfile(with_epsilon),
                    BuildFilterProfile(query), "epsilon edge");
  ASSERT_EQ(Gbd(query, with_epsilon), 0u);

  GraphDatabase db = ds->db;
  const size_t target = db.Add(with_epsilon);
  Result<GbdaIndex> index = GbdaIndex::Build(db, SmallIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const std::string path = ::testing::TempDir() + "/epsilon_edge.v4";
  ASSERT_TRUE(WriteArenaFile(*index, path).ok());
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  SearchOptions opts;
  opts.tau_hat = 0;
  opts.gamma = 0.0;  // every admitted candidate is a match
  opts.use_prefilter = true;
  GbdaSearch search(&db, &*index);
  GbdaService owned(&db, &*index, ServiceOptions{2, 2, {}});
  GbdaService mapped(&db, &*view, ServiceOptions{2, 2, {}});
  DynamicServiceOptions dynamic_options;
  dynamic_options.service = ServiceOptions{2, 2, {}};
  Result<std::unique_ptr<DynamicGbdaService>> dynamic =
      DynamicGbdaService::Create(db, SmallIndexOptions(), dynamic_options);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();

  const std::vector<std::pair<std::string, Result<SearchResult>>> results = {
      {"serial", search.Query(query, opts)},
      {"owned service", owned.Query(query, opts)},
      {"mapped service", mapped.Query(query, opts)},
      {"dynamic snapshot", (*dynamic)->Query(query, opts)}};
  for (const auto& [label, result] : results) {
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    std::set<size_t> admitted;
    for (const SearchMatch& m : result->matches) admitted.insert(m.graph_id);
    EXPECT_TRUE(admitted.count(target)) << label;
    EXPECT_EQ(result->prefiltered_out, results[0].second->prefiltered_out)
        << label;
    EXPECT_GT(result->prefiltered_out, 0u) << label;
  }
}

class PrefilterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.04);
    profile.seed = 909;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
    prefilter_ = new Prefilter(&dataset_->db);
  }
  static void TearDownTestSuite() {
    delete prefilter_;
    delete dataset_;
    prefilter_ = nullptr;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
  static Prefilter* prefilter_;
};

GeneratedDataset* PrefilterFixture::dataset_ = nullptr;
Prefilter* PrefilterFixture::prefilter_ = nullptr;

TEST_F(PrefilterFixture, NeverDropsATrueMatch) {
  // Soundness: every graph within true GED tau survives the filter.
  for (size_t q = 0; q < dataset_->queries.size(); ++q) {
    for (int64_t tau : {2, 5, 8}) {
      const std::vector<size_t> candidates =
          prefilter_->Candidates(dataset_->queries[q], tau);
      const std::set<size_t> surviving(candidates.begin(), candidates.end());
      for (size_t g : dataset_->TrueMatches(q, tau)) {
        EXPECT_TRUE(surviving.count(g))
            << "query " << q << " tau " << tau << " graph " << g;
      }
    }
  }
}

TEST_F(PrefilterFixture, RemovesCrossFamilyCandidates) {
  // The marker chains force a label-multiset distance above certified_tau,
  // so cross-family graphs never survive at tau <= certified_tau.
  const std::vector<size_t> candidates =
      prefilter_->Candidates(dataset_->queries[0], 5);
  for (size_t g : candidates) {
    EXPECT_EQ(dataset_->query_family[0], dataset_->graph_family[g]);
  }
  EXPECT_LT(candidates.size(), dataset_->db.size());
}

TEST_F(PrefilterFixture, TauZeroKeepsExactProfileMatchesOnly) {
  // The tau_hat = 0 boundary: Passes keeps exactly the graphs whose
  // admissible lower bound is 0 — a graph is always its own candidate, and
  // any profile difference (size or label multiset) is disqualifying.
  for (size_t id : {size_t{0}, dataset_->db.size() / 2}) {
    const FilterProfile self = BuildFilterProfile(dataset_->db.graph(id));
    EXPECT_TRUE(prefilter_->Passes(self, id, 0));
    const std::vector<size_t> candidates =
        prefilter_->Candidates(dataset_->db.graph(id), 0);
    std::set<size_t> surviving(candidates.begin(), candidates.end());
    EXPECT_TRUE(surviving.count(id));
    for (size_t g : candidates) {
      EXPECT_EQ(FilterLowerBound(self, BuildFilterProfile(dataset_->db.graph(g))),
                0)
          << "graph " << g;
    }
  }
  // Cross-family pairs have marker-forced label distance > 0, so they can
  // never pass at tau 0.
  const FilterProfile query_profile =
      BuildFilterProfile(dataset_->queries[0]);
  for (size_t g = 0; g < dataset_->db.size(); ++g) {
    if (dataset_->graph_family[g] != dataset_->query_family[0]) {
      EXPECT_FALSE(prefilter_->Passes(query_profile, g, 0)) << "graph " << g;
    }
  }
}

TEST_F(PrefilterFixture, MonotoneInTau) {
  const std::vector<size_t> tight =
      prefilter_->Candidates(dataset_->queries[0], 2);
  const std::vector<size_t> loose =
      prefilter_->Candidates(dataset_->queries[0], 9);
  const std::set<size_t> loose_set(loose.begin(), loose.end());
  for (size_t g : tight) EXPECT_TRUE(loose_set.count(g));
}

TEST_F(PrefilterFixture, SearchWithPrefilterKeepsTrueMatches) {
  GbdaIndexOptions options;
  options.tau_max = 10;
  options.gbd_prior.num_sample_pairs = 1000;
  Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
  ASSERT_TRUE(index.ok());
  GbdaSearch search(&dataset_->db, &*index);

  SearchOptions plain;
  plain.tau_hat = 6;
  plain.gamma = 0.5;
  SearchOptions filtered = plain;
  filtered.use_prefilter = true;

  for (size_t q = 0; q < std::min<size_t>(dataset_->queries.size(), 3); ++q) {
    Result<SearchResult> a = search.Query(dataset_->queries[q], plain);
    Result<SearchResult> b = search.Query(dataset_->queries[q], filtered);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // The filtered result is a subset of the plain result...
    std::set<size_t> plain_ids;
    for (const SearchMatch& m : a->matches) plain_ids.insert(m.graph_id);
    for (const SearchMatch& m : b->matches) {
      EXPECT_TRUE(plain_ids.count(m.graph_id));
    }
    // ...that still contains every accepted TRUE match.
    const std::vector<size_t> truth = dataset_->TrueMatches(q, plain.tau_hat);
    std::set<size_t> filtered_ids;
    for (const SearchMatch& m : b->matches) filtered_ids.insert(m.graph_id);
    for (size_t g : truth) {
      if (plain_ids.count(g)) {
        EXPECT_TRUE(filtered_ids.count(g)) << "query " << q << " graph " << g;
      }
    }
    EXPECT_EQ(b->candidates_evaluated + b->prefiltered_out,
              dataset_->db.size());
    EXPECT_GT(b->prefiltered_out, 0u);
  }
}

TEST_F(PrefilterFixture, ReportsMemory) {
  EXPECT_GT(prefilter_->MemoryBytes(), 0u);
  EXPECT_EQ(prefilter_->size(), dataset_->db.size());
}

}  // namespace
}  // namespace gbda
