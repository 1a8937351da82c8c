// Branches as tokens (core/branch_dictionary.h): the dictionary's lookup
// and growth on both backings, content-order renumbering, the ids an index
// Build assigns, GBD over ids against Definition 4's branch merge, and
// queries whose branches the dictionary lacks on every serving path under
// both kernel dispatches.
#include "core/branch_dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

Span<const LabelId> Labels(const std::vector<LabelId>& labels) {
  return Span<const LabelId>(labels.data(), labels.size());
}

// Graph g's ids in `index`.
Span<const uint64_t> IdsOf(const IndexReader& index, size_t g) {
  const CandidateColumns columns = index.columns();
  return Span<const uint64_t>(
      columns.fp_keys + columns.fp_offsets[g],
      static_cast<size_t>(columns.fp_offsets[g + 1] - columns.fp_offsets[g]));
}

GbdaIndexOptions SmallIndexOptions() {
  GbdaIndexOptions options;
  options.tau_max = 6;
  options.gbd_prior.num_sample_pairs = 300;
  return options;
}

// ---------------------------------------------------------------------------
// The dictionary itself
// ---------------------------------------------------------------------------

TEST(BranchDictionaryTest, FindsPresentAndAbsentBranches) {
  BranchDictionary dictionary;
  EXPECT_EQ(dictionary.size(), 0u);
  EXPECT_EQ(dictionary.Find(1, Labels({})), 0u);  // empty: absent is size()

  const std::vector<std::pair<LabelId, std::vector<LabelId>>> branches = {
      {3, {1, 2}}, {0, {}}, {3, {1}}, {3, {1, 2, 2}}, {7, {0}}, {3, {}}};
  for (size_t i = 0; i < branches.size(); ++i) {
    EXPECT_EQ(dictionary.Intern(branches[i].first, Labels(branches[i].second)),
              i);
  }
  ASSERT_EQ(dictionary.size(), branches.size());
  for (size_t i = 0; i < branches.size(); ++i) {
    EXPECT_EQ(dictionary.Find(branches[i].first, Labels(branches[i].second)),
              i);
    // Interning again neither grows nor renumbers.
    EXPECT_EQ(dictionary.Intern(branches[i].first, Labels(branches[i].second)),
              i);
  }
  EXPECT_EQ(dictionary.size(), branches.size());
  // Same root with a prefix, an extension or another label; another root.
  for (const auto& absent : std::vector<std::pair<LabelId, std::vector<LabelId>>>{
           {3, {2}}, {3, {1, 2, 2, 2}}, {3, {1, 3}}, {4, {1, 2}}, {0, {0}}}) {
    EXPECT_EQ(dictionary.Find(absent.first, Labels(absent.second)),
              dictionary.size());
  }
  const BranchSetRef entries = dictionary.entries();
  EXPECT_EQ(entries.root(3), 3u);
  ASSERT_EQ(entries.edge_labels(3).size(), 3u);
  EXPECT_EQ(entries.edge_labels(3)[2], 2u);
}

TEST(BranchDictionaryTest, GrowthAndBorrowingKeepEveryEntryFindable) {
  // Enough entries to rehash several times; a borrowed dictionary over the
  // same arrays builds its own index and must agree entry by entry.
  BranchDictionary owned;
  Rng rng(5);
  std::vector<std::pair<LabelId, std::vector<LabelId>>> seen;
  while (seen.size() < 3000) {
    std::vector<LabelId> labels(static_cast<size_t>(rng.UniformInt(0, 4)));
    for (LabelId& l : labels) l = static_cast<LabelId>(rng.UniformInt(0, 9));
    std::sort(labels.begin(), labels.end());
    const LabelId root = static_cast<LabelId>(rng.UniformInt(0, 30));
    const uint64_t before = owned.size();
    const uint64_t id = owned.Intern(root, Labels(labels));
    if (id == before) seen.emplace_back(root, labels);
    ASSERT_LE(id, before);
  }
  const BranchDictionary borrowed(owned.entries());
  const BranchDictionary copy = owned;  // deep: the copy-on-write step
  ASSERT_EQ(borrowed.size(), seen.size());
  for (size_t id = 0; id < seen.size(); ++id) {
    EXPECT_EQ(owned.Find(seen[id].first, Labels(seen[id].second)), id);
    EXPECT_EQ(borrowed.Find(seen[id].first, Labels(seen[id].second)), id);
    EXPECT_EQ(copy.Find(seen[id].first, Labels(seen[id].second)), id);
  }
  EXPECT_EQ(borrowed.Find(99, Labels({1})), borrowed.size());
}

TEST(BranchDictionaryTest, RenumberedIsContentOrderAndRewritesTheIds) {
  BranchDictionary dictionary;
  const std::vector<std::pair<LabelId, std::vector<LabelId>>> branches = {
      {5, {1}}, {2, {3, 4}}, {2, {3}}, {9, {}}, {2, {}}, {5, {0, 7}}};
  for (const auto& b : branches) dictionary.Intern(b.first, Labels(b.second));

  // Two graphs holding every entry but 1 and 3: {0, 2} and {5, 4, 0}
  // (ascending in the old ids, not in content order).
  const std::vector<uint64_t> offsets = {0, 2, 5};
  std::vector<uint64_t> ids = {0, 2, 0, 4, 5};
  const BranchDictionary kept = dictionary.Renumbered(offsets, &ids);
  ASSERT_EQ(kept.size(), 4u);
  const BranchSetRef e = kept.entries();
  for (size_t d = 1; d < e.size(); ++d) {
    EXPECT_LT(CompareBranches(e.root(d - 1), e.edge_labels(d - 1), e.root(d),
                              e.edge_labels(d)),
              0);
  }
  EXPECT_EQ(kept.Find(2, Labels({3, 4})), kept.size());
  EXPECT_EQ(kept.Find(9, Labels({})), kept.size());
  EXPECT_EQ(kept.Find(2, Labels({})), 0u);
  EXPECT_EQ(kept.Find(2, Labels({3})), 1u);
  EXPECT_EQ(kept.Find(5, Labels({0, 7})), 2u);
  EXPECT_EQ(kept.Find(5, Labels({1})), 3u);
  // Old 0, 2 -> 3, 1 (re-sorted); old 0, 4, 5 -> 3, 0, 2 (re-sorted).
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 3, 0, 2, 3}));

  // Already in content order with every entry held: the identity.
  std::vector<uint64_t> same = {0, 1, 2, 3};
  const BranchDictionary again =
      kept.Renumbered(std::vector<uint64_t>{0, 4}, &same);
  EXPECT_EQ(same, (std::vector<uint64_t>{0, 1, 2, 3}));
  ASSERT_EQ(again.size(), kept.size());
  for (size_t d = 0; d < again.size(); ++d) {
    EXPECT_EQ(again.Find(e.root(d), e.edge_labels(d)), d);
  }
}

// ---------------------------------------------------------------------------
// Ids of a built index
// ---------------------------------------------------------------------------

TEST(BranchDictionaryTest, BuildNumbersInContentOrderAndGraphIdsAscend) {
  DatasetProfile profile = AidsProfile(0.03);
  profile.seed = 9;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Result<GbdaIndex> index = GbdaIndex::Build(ds->db, SmallIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  const BranchDictionary& dictionary = index->dictionary();
  const BranchSetRef e = dictionary.entries();
  for (size_t d = 1; d < e.size(); ++d) {
    ASSERT_LT(CompareBranches(e.root(d - 1), e.edge_labels(d - 1), e.root(d),
                              e.edge_labels(d)),
              0)
        << "entry " << d;
  }
  size_t total = 0;
  for (size_t g = 0; g < ds->db.size(); ++g) {
    const Span<const uint64_t> ids = IdsOf(*index, g);
    total += ids.size();
    const BranchMultiset branches = ExtractBranches(ds->db.graph(g));
    const BranchSetRef b = branches;
    ASSERT_EQ(ids.size(), b.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_LT(ids[i], dictionary.size());
      if (i > 0) {
        EXPECT_LE(ids[i - 1], ids[i]) << "graph " << g;
      }
      // The multiset order is the id order: branch i is id i.
      EXPECT_EQ(dictionary.Find(b.root(i), b.edge_labels(i)), ids[i]);
    }
  }
  // Every entry is some graph's branch, and far fewer than the branches.
  std::vector<char> used(dictionary.size(), 0);
  for (size_t g = 0; g < ds->db.size(); ++g) {
    for (uint64_t id : IdsOf(*index, g)) used[id] = 1;
  }
  EXPECT_EQ(std::count(used.begin(), used.end(), 1),
            static_cast<ptrdiff_t>(dictionary.size()));
  EXPECT_LT(dictionary.size(), total);
}

TEST(BranchDictionaryTest, IdGbdEqualsTheBranchMerge) {
  // Definition 4 on two extracted multisets against max(|a|, |b|) minus the
  // id intersection, under both kernel tables: every pair of a small corpus,
  // then sampled pairs of AIDS(0.1) and AASD(0.01).
  struct Corpus {
    DatasetProfile profile;
    size_t sampled_pairs;  // 0 = every pair
  };
  for (const Corpus& c : {Corpus{GrecProfile(0.03), 0},
                          Corpus{AidsProfile(0.1), 3000},
                          Corpus{AasdProfile(0.01), 3000}}) {
    Result<GeneratedDataset> ds = GenerateDataset(c.profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Result<GbdaIndex> index = GbdaIndex::Build(ds->db, SmallIndexOptions());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    std::vector<BranchMultiset> branches;
    for (size_t g = 0; g < ds->db.size(); ++g) {
      branches.push_back(ExtractBranches(ds->db.graph(g)));
    }
    std::vector<std::pair<size_t, size_t>> pairs;
    const size_t n = ds->db.size();
    if (c.sampled_pairs == 0) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) pairs.emplace_back(i, j);
      }
    } else {
      Rng rng(11);
      for (size_t p = 0; p < c.sampled_pairs; ++p) {
        pairs.emplace_back(
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1)),
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
      }
    }
    for (KernelImpl impl : {KernelImpl::kScalar, ResolveKernels(KernelDispatch::kAuto)}) {
      const ScanKernels& kernels = GetScanKernels(impl);
      for (const auto& [i, j] : pairs) {
        const Span<const uint64_t> a = IdsOf(*index, i);
        const Span<const uint64_t> b = IdsOf(*index, j);
        const size_t gbd =
            std::max(a.size(), b.size()) -
            static_cast<size_t>(
                kernels.intersect_count(a.data(), a.size(), b.data(), b.size()));
        ASSERT_EQ(gbd, GbdFromBranches(branches[i], branches[j]))
            << c.profile.name << " pair " << i << "," << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Queries the dictionary cannot fully map
// ---------------------------------------------------------------------------

class AbsentBranchQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = AidsProfile(0.03);
    profile.seed = 17;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
};

GeneratedDataset* AbsentBranchQueryTest::dataset_ = nullptr;

void ExpectSame(const SearchResult& want, const SearchResult& got,
                const std::string& label) {
  ASSERT_EQ(want.matches.size(), got.matches.size()) << label;
  for (size_t i = 0; i < want.matches.size(); ++i) {
    EXPECT_EQ(want.matches[i].graph_id, got.matches[i].graph_id) << label;
    EXPECT_EQ(want.matches[i].phi_score, got.matches[i].phi_score) << label;
    EXPECT_EQ(want.matches[i].gbd, got.matches[i].gbd) << label;
  }
  EXPECT_EQ(want.candidates_evaluated, got.candidates_evaluated) << label;
}

TEST_F(AbsentBranchQueryTest, EveryPathScoresUnknownBranchesAsMatchingNothing) {
  const GraphDatabase& db = dataset_->db;
  Result<GbdaIndex> built = GbdaIndex::Build(db, SmallIndexOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const GbdaIndex& index = *built;
  const std::string path = ::testing::TempDir() + "/absent_branches.v4";
  ASSERT_TRUE(WriteArenaFile(index, path).ok());
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.num_shards = 3;
  Result<std::unique_ptr<GbdaService>> sharded =
      GbdaService::Create(&db, &index, service_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  DynamicServiceOptions dynamic_options;
  dynamic_options.service = service_options;
  Result<std::unique_ptr<DynamicGbdaService>> dynamic =
      DynamicGbdaService::Create(db, SmallIndexOptions(), dynamic_options);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();

  // An unseen vertex label; an unseen edge label; a query of nothing but
  // unseen branches; the empty query.
  const LabelId unseen_v =
      static_cast<LabelId>(db.vertex_labels().num_real_labels() + 5);
  const LabelId unseen_e =
      static_cast<LabelId>(db.edge_labels().num_real_labels() + 5);
  Graph relabeled = dataset_->queries[0];
  Graph other_edge;
  other_edge.AddVertex(dataset_->db.graph(0).VertexLabel(0));
  other_edge.AddVertex(dataset_->db.graph(0).VertexLabel(0));
  ASSERT_TRUE(other_edge.AddEdge(0, 1, unseen_e).ok());
  Graph all_unseen;
  for (int i = 0; i < 4; ++i) all_unseen.AddVertex(unseen_v);
  ASSERT_TRUE(all_unseen.AddEdge(0, 1, unseen_e).ok());
  ASSERT_TRUE(all_unseen.AddEdge(1, 2, unseen_e).ok());
  const Graph empty;
  {
    // Relabel one vertex of a real query: its branch (and only its) is
    // absent; the neighbours' branches keep their labels.
    Graph g;
    for (uint32_t v = 0; v < relabeled.num_vertices(); ++v) {
      g.AddVertex(v == 0 ? unseen_v : relabeled.VertexLabel(v));
    }
    for (const Graph::EdgeTriple& e : relabeled.SortedEdges()) {
      ASSERT_TRUE(g.AddEdge(e.u, e.v, e.label).ok());
    }
    relabeled = g;
  }
  const std::vector<std::pair<std::string, const Graph*>> queries = {
      {"relabeled", &relabeled},
      {"unseen edge", &other_edge},
      {"all unseen", &all_unseen},
      {"empty", &empty}};

  const size_t n = db.size();
  GbdaSearch owned_search(&db, &index);
  GbdaSearch mapped_search(&db, &*view);
  for (const auto& [name, query] : queries) {
    const BranchMultiset query_branches = ExtractBranches(*query);
    // The query's ids: each absent branch maps to the dictionary's size.
    Result<ScanContext> ctx =
        PrepareScan(*query, SearchOptions(), /*apply_gamma=*/false, index);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ASSERT_EQ(ctx->query_fps.size(), query->num_vertices());
    EXPECT_TRUE(std::is_sorted(ctx->query_fps.begin(), ctx->query_fps.end()));
    if (!ctx->query_fps.empty()) {
      EXPECT_EQ(ctx->query_fps.back(), index.dictionary().size()) << name;
    }
    if (name == "all unseen") {
      EXPECT_EQ(ctx->query_fps.front(), index.dictionary().size());
    }
    for (GbdaVariant variant : {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
                                GbdaVariant::kWeightedGbd}) {
      for (KernelDispatch dispatch :
           {KernelDispatch::kForceScalar, KernelDispatch::kAuto}) {
        SearchOptions options;
        options.tau_hat = 4;
        options.variant = variant;
        options.kernel_dispatch = dispatch;
        const std::string label = name + " variant " +
                                  std::to_string(static_cast<int>(variant)) +
                                  " dispatch " +
                                  std::to_string(static_cast<int>(dispatch));
        Result<SearchResult> want = owned_search.QueryTopK(*query, n, options);
        ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
        ASSERT_EQ(want->matches.size(), n) << label;
        if (variant == GbdaVariant::kStandard) {
          for (const SearchMatch& m : want->matches) {
            const size_t g_size = db.graph(m.graph_id).num_vertices();
            const size_t expected =
                name == "all unseen" || name == "empty"
                    ? std::max(query->num_vertices(), g_size)
                    : GbdFromBranches(query_branches,
                                      ExtractBranches(db.graph(m.graph_id)));
            ASSERT_EQ(static_cast<size_t>(m.gbd), expected)
                << label << " graph " << m.graph_id;
          }
        }
        Result<SearchResult> mapped = mapped_search.QueryTopK(*query, n, options);
        ASSERT_TRUE(mapped.ok()) << label;
        ExpectSame(*want, *mapped, label + " mapped");
        Result<SearchResult> shards = (*sharded)->QueryTopK(*query, n, options);
        ASSERT_TRUE(shards.ok()) << label;
        ExpectSame(*want, *shards, label + " sharded");
        Result<SearchResult> snapshot =
            (*dynamic)->QueryTopK(*query, n, options);
        ASSERT_TRUE(snapshot.ok()) << label;
        ExpectSame(*want, *snapshot, label + " dynamic");
        options.gamma = 0.2;
        Result<SearchResult> threshold = owned_search.Query(*query, options);
        Result<SearchResult> threshold_shards = (*sharded)->Query(*query, options);
        ASSERT_TRUE(threshold.ok()) << label;
        ASSERT_TRUE(threshold_shards.ok()) << label;
        ExpectSame(*threshold, *threshold_shards, label + " threshold");
      }
    }
  }
}

}  // namespace
}  // namespace gbda
