// The offline half of approximate candidate navigation (src/ann):
// FingerprintDistance, the FingerprintStore's keys (the index's fp_keys
// column) against an independent fingerprinting, the Vamana-style
// builder's invariants, the section serialize/parse round trip
// and the beam navigator's determinism/termination properties — including
// the degenerate corpora (identical fingerprints, collision-heavy label
// soups) where a naive nearest-neighbor walk could cycle.
#include "ann/proximity_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ann/navigator.h"
#include "core/branch.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "core/prefilter.h"
#include "datagen/dataset_profiles.h"
#include "graph/graph_database.h"

namespace gbda {
namespace {

Span<const uint64_t> KeySpan(const std::vector<uint64_t>& keys) {
  return Span<const uint64_t>(keys.data(), keys.size());
}

// Parses a serialized payload through an 8-byte-aligned copy
// (SerializeProximityGraph returns a std::string, whose buffer alignment is
// unspecified; the arena guarantees 64-byte-aligned sections).
Result<ProximityGraphRef> ParseAligned(const std::string& payload,
                                       uint64_t expected_nodes,
                                       std::vector<uint64_t>* storage) {
  storage->assign((payload.size() + 7) / 8, 0);
  std::memcpy(storage->data(), payload.data(), payload.size());
  return ParseProximityGraphSection(storage->data(), payload.size(),
                                    expected_nodes, "test");
}

// BFS over the CSR adjacency from the entry point.
size_t CountReachable(const ProximityGraphRef& g) {
  std::vector<char> seen(g.num_nodes, 0);
  std::vector<uint32_t> frontier = {g.entry_point};
  seen[g.entry_point] = 1;
  size_t reached = 1;
  while (!frontier.empty()) {
    const uint32_t node = frontier.back();
    frontier.pop_back();
    for (uint64_t e = g.offsets[node]; e < g.offsets[node + 1]; ++e) {
      const uint32_t next = g.neighbors[e];
      if (!seen[next]) {
        seen[next] = 1;
        ++reached;
        frontier.push_back(next);
      }
    }
  }
  return reached;
}

void ExpectCsrInvariants(const ProximityGraph& g, size_t expected_nodes) {
  ASSERT_EQ(g.num_nodes(), expected_nodes);
  ASSERT_EQ(g.offsets.size(), expected_nodes + 1);
  EXPECT_EQ(g.offsets.front(), 0u);
  for (size_t i = 0; i < expected_nodes; ++i) {
    ASSERT_LE(g.offsets[i], g.offsets[i + 1]) << "node " << i;
    const uint64_t degree = g.offsets[i + 1] - g.offsets[i];
    if (i != g.entry_point) {
      // Only the entry point may exceed the bound (reachability repair).
      EXPECT_LE(degree, g.degree_bound) << "node " << i;
    }
  }
  EXPECT_EQ(g.offsets.back(), g.neighbors.size());
  for (uint32_t neighbor : g.neighbors) {
    EXPECT_LT(neighbor, expected_nodes);
  }
  EXPECT_LT(g.entry_point, expected_nodes);
  EXPECT_EQ(CountReachable(g.ref()), expected_nodes);
}

// Builds the offline index of `db` (small prior budget: only the branch
// data matters here).
std::unique_ptr<GbdaIndex> BuildIndex(const GraphDatabase& db) {
  GbdaIndexOptions options;
  options.tau_max = 6;
  options.gbd_prior.num_sample_pairs = 200;
  Result<GbdaIndex> index = GbdaIndex::Build(db, options);
  if (!index.ok()) {
    ADD_FAILURE() << index.status().ToString();
    return nullptr;
  }
  return std::make_unique<GbdaIndex>(std::move(*index));
}

// The fingerprint store of `db`, copied out of its index's fp_keys column
// (FromIndex copies, so the index need not outlive the store).
FingerprintStore StoreOf(const GraphDatabase& db) {
  const std::unique_ptr<GbdaIndex> index = BuildIndex(db);
  return index ? FingerprintStore::FromIndex(*index) : FingerprintStore();
}

// A corpus of `copies` structurally identical graphs: every node carries the
// SAME fingerprint multiset, so all pairwise distances are 0 — the
// worst case for tie-breaking in both the builder and the navigator.
GraphDatabase IdenticalCorpus(size_t copies) {
  GraphDatabase db;
  const LabelId a = db.vertex_labels().Intern("A");
  const LabelId b = db.vertex_labels().Intern("B");
  const LabelId x = db.edge_labels().Intern("x");
  for (size_t i = 0; i < copies; ++i) {
    Graph g;
    g.AddVertex(a);
    g.AddVertex(b);
    g.AddVertex(a);
    (void)g.AddEdge(0, 1, x);
    (void)g.AddEdge(1, 2, x);
    db.Add(g);
  }
  return db;
}

// ---------------------------------------------------------------------------
// FingerprintDistance
// ---------------------------------------------------------------------------

TEST(FingerprintDistanceTest, EmptyMultisets) {
  const std::vector<uint64_t> empty;
  const std::vector<uint64_t> three = {5, 9, 9};
  // Two empty branch multisets are identical: distance 0, not an error.
  EXPECT_EQ(FingerprintDistance(KeySpan(empty), KeySpan(empty)), 0);
  EXPECT_EQ(FingerprintDistance(KeySpan(empty), KeySpan(three)), 3);
  EXPECT_EQ(FingerprintDistance(KeySpan(three), KeySpan(empty)), 3);
}

TEST(FingerprintDistanceTest, MatchesDefinition) {
  const std::vector<uint64_t> a = {1, 1, 2, 7};
  const std::vector<uint64_t> b = {1, 2, 2, 7, 9};
  // Multiset intersection {1, 2, 7} = 3; max(4, 5) - 3 = 2.
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(b)), 2);
  EXPECT_EQ(FingerprintDistance(KeySpan(b), KeySpan(a)), 2);  // symmetric
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(a)), 0);
  const std::vector<uint64_t> disjoint = {100, 200};
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(disjoint)), 4);
}

TEST(FingerprintDistanceTest, DuplicateKeysCountWithMultiplicity) {
  // Collision-heavy shape: one key repeated many times on both sides.
  const std::vector<uint64_t> a(6, 42);
  const std::vector<uint64_t> b(4, 42);
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(b)), 2);  // 6 - 4
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(a)), 0);
}

// ---------------------------------------------------------------------------
// FingerprintStore
// ---------------------------------------------------------------------------

TEST(FingerprintStoreTest, FromIndexMatchesIndependentFingerprints) {
  DatasetProfile profile = GrecProfile(0.03);
  profile.seed = 23;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const std::unique_ptr<GbdaIndex> index = BuildIndex(ds->db);
  ASSERT_NE(index, nullptr);
  const FingerprintStore store = FingerprintStore::FromIndex(*index);

  // The store copies the index's fp_keys column — the one fingerprint copy
  // the scan's tier 2 and the navigator both read. Check it against an
  // independent computation: fingerprint every branch of a fresh
  // ExtractBranches of the stored graph, then sort.
  ASSERT_EQ(store.size(), ds->db.size());
  for (size_t g = 0; g < ds->db.size(); ++g) {
    std::vector<uint64_t> expected;
    for (const Branch& b : ExtractBranches(ds->db.graph(g))) {
      expected.push_back(BranchFingerprint(b.root, b.edge_labels));
    }
    std::sort(expected.begin(), expected.end());
    const Span<const uint64_t> keys = store.keys(g);
    ASSERT_EQ(keys.size(), expected.size()) << "graph " << g;
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i], expected[i]) << "graph " << g << " key " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// BuildProximityGraph
// ---------------------------------------------------------------------------

TEST(ProximityGraphBuildTest, RejectsInvalidParams) {
  const FingerprintStore store = StoreOf(IdenticalCorpus(4));

  AnnBuildParams params;
  params.graph_degree = 0;
  EXPECT_EQ(BuildProximityGraph(store, params).status().code(),
            StatusCode::kInvalidArgument);
  params = AnnBuildParams();
  params.build_window = 0;
  EXPECT_EQ(BuildProximityGraph(store, params).status().code(),
            StatusCode::kInvalidArgument);
  params = AnnBuildParams();
  params.alpha = 0.5;
  EXPECT_EQ(BuildProximityGraph(store, params).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProximityGraphBuildTest, InvariantsAndDeterminismOnRealCorpus) {
  DatasetProfile profile = AidsProfile(0.03);
  profile.seed = 31;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const FingerprintStore store = StoreOf(ds->db);

  AnnBuildParams params;
  params.graph_degree = 8;
  params.build_window = 16;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectCsrInvariants(*graph, store.size());

  // Bit-identical rebuild: same (store, params) -> same graph.
  Result<ProximityGraph> again = BuildProximityGraph(store, params);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(graph->entry_point, again->entry_point);
  EXPECT_EQ(graph->degree_bound, again->degree_bound);
  EXPECT_EQ(graph->offsets, again->offsets);
  EXPECT_EQ(graph->neighbors, again->neighbors);
}

TEST(ProximityGraphBuildTest, IdenticalFingerprintCorpus) {
  // Every pairwise distance is 0: the builder must still produce a valid,
  // fully reachable, deterministic graph (ties broken by id).
  const FingerprintStore store = StoreOf(IdenticalCorpus(12));
  AnnBuildParams params;
  params.graph_degree = 4;
  params.build_window = 8;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectCsrInvariants(*graph, 12);
  Result<ProximityGraph> again = BuildProximityGraph(store, params);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(graph->neighbors, again->neighbors);
}

TEST(ProximityGraphBuildTest, TinyCorpus) {
  // Fewer nodes than the degree bound: the graph degenerates gracefully.
  const FingerprintStore store = StoreOf(IdenticalCorpus(2));
  Result<ProximityGraph> graph = BuildProximityGraph(store, AnnBuildParams());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectCsrInvariants(*graph, 2);
}

// ---------------------------------------------------------------------------
// Serialize / parse round trip
// ---------------------------------------------------------------------------

TEST(ProximityGraphSerializeTest, RoundTripPreservesEverything) {
  const FingerprintStore store = StoreOf(IdenticalCorpus(9));
  AnnBuildParams params;
  params.graph_degree = 3;
  params.build_window = 6;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok());

  const std::string payload = SerializeProximityGraph(*graph);
  std::vector<uint64_t> storage;
  Result<ProximityGraphRef> parsed = ParseAligned(payload, 9, &storage);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_nodes, graph->num_nodes());
  EXPECT_EQ(parsed->num_edges, graph->neighbors.size());
  EXPECT_EQ(parsed->entry_point, graph->entry_point);
  EXPECT_EQ(parsed->degree_bound, graph->degree_bound);
  for (size_t i = 0; i <= graph->num_nodes(); ++i) {
    EXPECT_EQ(parsed->offsets[i], graph->offsets[i]) << "offset " << i;
  }
  for (size_t e = 0; e < graph->neighbors.size(); ++e) {
    EXPECT_EQ(parsed->neighbors[e], graph->neighbors[e]) << "edge " << e;
  }
}

TEST(ProximityGraphSerializeTest, RejectsHostilePayloads) {
  const FingerprintStore store = StoreOf(IdenticalCorpus(5));
  Result<ProximityGraph> graph = BuildProximityGraph(store, AnnBuildParams());
  ASSERT_TRUE(graph.ok());
  const std::string payload = SerializeProximityGraph(*graph);
  std::vector<uint64_t> storage;

  // A future format version is kNotSupported — the degrade-don't-fail
  // signal GbdaIndexView::Open keys on.
  {
    std::string future = payload;
    const uint32_t version = kAnnGraphFormatVersion + 1;
    std::memcpy(&future[0], &version, sizeof(version));
    EXPECT_EQ(ParseAligned(future, 5, &storage).status().code(),
              StatusCode::kNotSupported);
  }
  // Truncation.
  EXPECT_FALSE(
      ParseAligned(payload.substr(0, payload.size() - 4), 5, &storage).ok());
  // Node-count disagreement with the artifact header.
  EXPECT_FALSE(ParseAligned(payload, 6, &storage).ok());
  // Entry point out of range (u32 at payload offset 8).
  {
    std::string bad = payload;
    const uint32_t hostile = 1000;
    std::memcpy(&bad[8], &hostile, sizeof(hostile));
    EXPECT_FALSE(ParseAligned(bad, 5, &storage).ok());
  }
}

// ---------------------------------------------------------------------------
// NavigateProximityGraph
// ---------------------------------------------------------------------------

class NavigationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetProfile profile = AidsProfile(0.03);
    profile.seed = 47;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    db_ = std::move(ds->db);
    queries_ = std::move(ds->queries);
    index_ = BuildIndex(db_);
    ASSERT_NE(index_, nullptr);
    store_ = FingerprintStore::FromIndex(*index_);
    AnnBuildParams params;
    params.graph_degree = 8;
    params.build_window = 16;
    Result<ProximityGraph> graph = BuildProximityGraph(store_, params);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  // The query's sorted branch fingerprints, exactly as the serving path
  // hands them to the navigator.
  std::vector<uint64_t> QueryKeys(const Graph& q) const {
    Result<ScanContext> ctx = PrepareScan(q, SearchOptions(),
                                          /*apply_gamma=*/false,
                                          CorpusRef(&db_), *index_);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    return ctx.ok() ? ctx->query_fps : std::vector<uint64_t>();
  }

  GraphDatabase db_;
  std::vector<Graph> queries_;
  std::unique_ptr<GbdaIndex> index_;
  FingerprintStore store_;
  ProximityGraph graph_;
};

TEST_F(NavigationTest, FullWindowVisitsTheWholeCorpus) {
  // window >= corpus size must visit every node — the property that makes
  // full-window approximate queries provably bit-identical to exhaustive
  // ones (the reachability repair guarantees it).
  const std::vector<uint64_t> keys = QueryKeys(queries_[0]);
  const std::vector<uint32_t> visited = NavigateProximityGraph(
      graph_.ref(), store_, KeySpan(keys), store_.size());
  EXPECT_EQ(visited.size(), store_.size());
  std::set<uint32_t> unique(visited.begin(), visited.end());
  EXPECT_EQ(unique.size(), store_.size());
}

TEST_F(NavigationTest, SmallWindowIsDeterministicAndBounded) {
  for (size_t window : {size_t{1}, size_t{4}, size_t{16}}) {
    for (size_t q = 0; q < std::min<size_t>(queries_.size(), 4); ++q) {
      const std::vector<uint64_t> keys = QueryKeys(queries_[q]);
      const std::vector<uint32_t> a = NavigateProximityGraph(
          graph_.ref(), store_, KeySpan(keys), window);
      const std::vector<uint32_t> b = NavigateProximityGraph(
          graph_.ref(), store_, KeySpan(keys), window);
      EXPECT_EQ(a, b) << "window " << window << " query " << q;
      ASSERT_FALSE(a.empty()) << "window " << window;
      std::set<uint32_t> unique(a.begin(), a.end());
      EXPECT_EQ(unique.size(), a.size()) << "duplicate candidate ids";
      for (uint32_t id : a) EXPECT_LT(id, store_.size());
    }
  }
}

TEST_F(NavigationTest, EmptyQueryKeysTerminate) {
  // An empty branch multiset makes every distance |candidate keys| — valid,
  // and navigation must terminate deterministically rather than cycle.
  const std::vector<uint64_t> empty;
  const std::vector<uint32_t> a =
      NavigateProximityGraph(graph_.ref(), store_, KeySpan(empty), 8);
  const std::vector<uint32_t> b =
      NavigateProximityGraph(graph_.ref(), store_, KeySpan(empty), 8);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_F(NavigationTest, AllTiedDistancesTerminate) {
  // Identical-fingerprint corpus: every candidate ties at distance 0 from a
  // matching query. Termination rests purely on the id tie-break.
  const FingerprintStore store = StoreOf(IdenticalCorpus(16));
  AnnBuildParams params;
  params.graph_degree = 4;
  params.build_window = 8;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok());
  const std::vector<uint64_t> keys(store.keys(0).begin(),
                                   store.keys(0).end());
  const std::vector<uint32_t> small =
      NavigateProximityGraph(graph->ref(), store, KeySpan(keys), 4);
  EXPECT_FALSE(small.empty());
  const std::vector<uint32_t> full =
      NavigateProximityGraph(graph->ref(), store, KeySpan(keys), 16);
  EXPECT_EQ(full.size(), 16u);
}

// ---------------------------------------------------------------------------
// AnnContext
// ---------------------------------------------------------------------------

TEST(AnnContextTest, BuildOwnsAValidGraph) {
  const GraphDatabase db = IdenticalCorpus(6);
  Result<AnnContext> ctx = AnnContext::Build(StoreOf(db), AnnBuildParams());
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_EQ(ctx->store().size(), 6u);
  EXPECT_EQ(ctx->owned_graph().num_nodes(), 6u);
  EXPECT_EQ(ctx->graph().num_nodes, 6u);
}

TEST(AnnContextTest, AdoptRejectsNodeCountMismatch) {
  const GraphDatabase small = IdenticalCorpus(4);
  const GraphDatabase big = IdenticalCorpus(7);
  Result<ProximityGraph> graph =
      BuildProximityGraph(StoreOf(small), AnnBuildParams());
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(AnnContext::Adopt(StoreOf(big), graph->ref()).ok());
  EXPECT_TRUE(AnnContext::Adopt(StoreOf(small), graph->ref()).ok());
}

}  // namespace
}  // namespace gbda
