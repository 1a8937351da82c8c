// The offline half of approximate candidate navigation (src/ann):
// FingerprintDistance and its threshold form, the RobustPrune alpha cap, the
// FingerprintStore's keys (the index's fp_keys column of dictionary ids)
// against an independent lookup, a graph built over ids against one built
// over FNV branch fingerprints, the Vamana-style builder's invariants, the
// section serialize/parse round trip and the beam navigator's
// determinism/termination properties — including the degenerate corpora
// (identical fingerprints, collision-heavy label soups) where a naive
// nearest-neighbor walk could cycle. A bit-identity gate compares builds
// and navigations with a reference copy of the std::set-based
// implementation the heap-based one replaced.
#include "ann/proximity_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ann/navigator.h"
#include "common/rng.h"
#include "core/branch.h"
#include "core/branch_dictionary.h"
#include "core/candidate_columns.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "graph/graph_database.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

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

// The key store of `db`: a view of its index's fp_keys column, kept beside
// the index it reads.
struct IndexedStore {
  std::unique_ptr<GbdaIndex> index;
  FingerprintStore store;
};

IndexedStore StoreOf(const GraphDatabase& db) {
  IndexedStore out;
  out.index = BuildIndex(db);
  if (out.index != nullptr) out.store = FingerprintStore::FromIndex(*out.index);
  return out;
}

// A corpus of `copies` structurally identical graphs: every node carries the
// SAME branch-id multiset, so all pairwise distances are 0 — the
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

// The ascending dictionary ids of `g`'s branches (each found in `index`).
std::vector<uint64_t> IdsOf(const GbdaIndex& index, const Graph& g) {
  std::vector<uint64_t> ids;
  const BranchMultiset branches = ExtractBranches(g);
  const BranchSetRef b = branches;
  for (size_t i = 0; i < b.size(); ++i) {
    ids.push_back(index.dictionary().Find(b.root(i), b.edge_labels(i)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FingerprintStoreTest, FromIndexViewsEachGraphsDictionaryIds) {
  DatasetProfile profile = GrecProfile(0.03);
  profile.seed = 23;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const std::unique_ptr<GbdaIndex> index = BuildIndex(ds->db);
  ASSERT_NE(index, nullptr);
  const std::string path = ::testing::TempDir() + "/ann_graph_store.v4";
  ASSERT_TRUE(WriteArenaFile(*index, path).ok());
  Result<GbdaIndexView> view = GbdaIndexView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // The store reads the index's fp_keys column in place, holding no id of
  // its own, over an owned index and a mapped artifact alike — the ids the
  // scan and the navigator both read. Check them against an independent
  // lookup of every branch of a fresh ExtractBranches of the stored graph
  // (a fresh Build's ids are the artifact's).
  const std::vector<const IndexReader*> readers = {index.get(), &*view};
  for (const IndexReader* reader : readers) {
    const CandidateColumns columns = reader->columns();
    const FingerprintStore store = FingerprintStore::FromIndex(*reader);
    ASSERT_EQ(store.size(), ds->db.size());
    for (size_t g = 0; g < ds->db.size(); ++g) {
      const std::vector<uint64_t> expected = IdsOf(*index, ds->db.graph(g));
      const Span<const uint64_t> keys = store.keys(g);
      EXPECT_EQ(keys.data(), columns.fp_keys + columns.fp_offsets[g])
          << "graph " << g;
      ASSERT_EQ(keys.size(), expected.size()) << "graph " << g;
      for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_LT(keys[i], reader->dictionary().size());
        EXPECT_EQ(keys[i], expected[i]) << "graph " << g << " key " << i;
      }
    }
  }
}

// An index's graphs keyed by their sorted FNV branch fingerprints — the
// keys the columns held before the dictionary — to feed FromIndex.
class FnvKeyedReader : public IndexReader {
 public:
  FnvKeyedReader(const GbdaIndex& index, const GraphDatabase& db)
      : index_(index) {
    columns_.fp_offsets.push_back(0);
    for (size_t g = 0; g < db.size(); ++g) {
      const BranchMultiset branches = ExtractBranches(db.graph(g));
      const BranchSetRef b = branches;
      for (size_t i = 0; i < b.size(); ++i) {
        const Span<const LabelId> labels = b.edge_labels(i);
        columns_.fp_keys.push_back(
            BranchFingerprint(b.root(i), labels.data(), labels.size()));
      }
      std::sort(columns_.fp_keys.end() - static_cast<ptrdiff_t>(b.size()),
                columns_.fp_keys.end());
      columns_.fp_offsets.push_back(columns_.fp_keys.size());
    }
  }
  size_t num_graphs() const override { return index_.num_graphs(); }
  size_t gbd_staleness() const override { return 0; }
  CandidateColumns columns() const override { return columns_.View(); }
  const BranchDictionary& dictionary() const override {
    return index_.dictionary();
  }
  const GbdaIndexOptions& options() const override { return index_.options(); }
  int64_t tau_max() const override { return index_.tau_max(); }
  int64_t num_vertex_labels() const override {
    return index_.num_vertex_labels();
  }
  int64_t num_edge_labels() const override { return index_.num_edge_labels(); }
  double avg_vertices() const override { return index_.avg_vertices(); }
  const GbdPrior& gbd_prior() const override { return index_.gbd_prior(); }
  GedPriorTable* mutable_ged_prior() const override {
    return index_.mutable_ged_prior();
  }

 private:
  const GbdaIndex& index_;
  OwnedCandidateColumns columns_;
};

TEST(FingerprintStoreTest, GraphOverIdsEqualsGraphOverFnvKeys) {
  // Over dictionary ids the metric is GBD itself; over FNV fingerprints it
  // was GBD whenever no two distinct branches of the corpus collide, as on
  // these fixtures. The builds must then agree byte for byte.
  for (const DatasetProfile& base : {GrecProfile(0.03), AidsProfile(0.03)}) {
    DatasetProfile profile = base;
    profile.seed = 23;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    const std::unique_ptr<GbdaIndex> index = BuildIndex(ds->db);
    ASSERT_NE(index, nullptr);
    AnnBuildParams params;
    params.graph_degree = 8;
    params.build_window = 16;
    const FnvKeyedReader fnv(*index, ds->db);
    Result<ProximityGraph> over_ids =
        BuildProximityGraph(FingerprintStore::FromIndex(*index), params);
    Result<ProximityGraph> over_fnv =
        BuildProximityGraph(FingerprintStore::FromIndex(fnv), params);
    ASSERT_TRUE(over_ids.ok()) << over_ids.status().ToString();
    ASSERT_TRUE(over_fnv.ok()) << over_fnv.status().ToString();
    EXPECT_EQ(SerializeProximityGraph(*over_ids),
              SerializeProximityGraph(*over_fnv))
        << profile.name;
  }
}

// ---------------------------------------------------------------------------
// BuildProximityGraph
// ---------------------------------------------------------------------------

TEST(ProximityGraphBuildTest, RejectsInvalidParams) {
  const IndexedStore indexed = StoreOf(IdenticalCorpus(4));
  const FingerprintStore& store = indexed.store;

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
  const IndexedStore indexed = StoreOf(ds->db);
  const FingerprintStore& store = indexed.store;

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
  const IndexedStore indexed = StoreOf(IdenticalCorpus(12));
  const FingerprintStore& store = indexed.store;
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
  const IndexedStore indexed = StoreOf(IdenticalCorpus(2));
  const FingerprintStore& store = indexed.store;
  Result<ProximityGraph> graph = BuildProximityGraph(store, AnnBuildParams());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectCsrInvariants(*graph, 2);
}

// ---------------------------------------------------------------------------
// Serialize / parse round trip
// ---------------------------------------------------------------------------

TEST(ProximityGraphSerializeTest, RoundTripPreservesEverything) {
  const IndexedStore indexed = StoreOf(IdenticalCorpus(9));
  const FingerprintStore& store = indexed.store;
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
  const IndexedStore indexed = StoreOf(IdenticalCorpus(5));
  const FingerprintStore& store = indexed.store;
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

  // The query's sorted branch ids, exactly as the serving path hands them
  // to the navigator.
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
  const IndexedStore indexed = StoreOf(IdenticalCorpus(16));
  const FingerprintStore& store = indexed.store;
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
// FingerprintDistanceAtMost and the alpha cap
// ---------------------------------------------------------------------------

// Sets GBDA_FORCE_SCALAR_KERNELS for the guard's lifetime and restores the
// prior value after, so a comparison can run under either kernel table.
class ScopedKernelTable {
 public:
  explicit ScopedKernelTable(bool force_scalar) {
    const char* prior = std::getenv("GBDA_FORCE_SCALAR_KERNELS");
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    if (force_scalar) {
      setenv("GBDA_FORCE_SCALAR_KERNELS", "1", 1);
    } else {
      unsetenv("GBDA_FORCE_SCALAR_KERNELS");
    }
  }
  ~ScopedKernelTable() {
    if (had_prior_) {
      setenv("GBDA_FORCE_SCALAR_KERNELS", prior_.c_str(), 1);
    } else {
      unsetenv("GBDA_FORCE_SCALAR_KERNELS");
    }
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

// Seeded ascending multiset: length in [0, max_len], keys from a small
// alphabet so duplicates and overlaps are common.
std::vector<uint64_t> RandomMultiset(Rng* rng, int64_t max_len,
                                     int64_t alphabet) {
  std::vector<uint64_t> keys(static_cast<size_t>(rng->UniformInt(0, max_len)));
  for (uint64_t& k : keys) {
    k = static_cast<uint64_t>(rng->UniformInt(0, alphabet - 1)) * 0x9E3779B9u;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(FingerprintDistanceTest, AtMostAgreesWithTheDistanceUnderBothTables) {
  for (bool force_scalar : {false, true}) {
    const ScopedKernelTable table(force_scalar);
    Rng rng(2024);
    for (int trial = 0; trial < 600; ++trial) {
      // Lengths straddle the 4-wide vector windows; a small alphabet makes
      // long duplicate runs, a large one near-disjoint sets.
      const int64_t alphabet = trial % 3 == 0 ? 3 : (trial % 3 == 1 ? 12 : 500);
      const std::vector<uint64_t> a = RandomMultiset(&rng, 40, alphabet);
      const std::vector<uint64_t> b = RandomMultiset(&rng, 40, alphabet);
      const int64_t d = FingerprintDistance(KeySpan(a), KeySpan(b));
      const int64_t max_t =
          static_cast<int64_t>(std::max(a.size(), b.size())) + 2;
      for (int64_t t = -2; t <= max_t; ++t) {
        ASSERT_EQ(FingerprintDistanceAtMost(KeySpan(a), KeySpan(b), t), d <= t)
            << (force_scalar ? "scalar" : "auto") << " trial " << trial
            << " |a|=" << a.size() << " |b|=" << b.size() << " d=" << d
            << " t=" << t;
      }
    }
  }
}

TEST(AlphaPruneCapTest, DecidesTheDoubleTestExhaustively) {
  const double alphas[] = {1.0,
                           std::nextafter(1.0, 2.0),
                           1.2,
                           1.5,
                           2.0,
                           3.7,
                           1e9,
                           std::numeric_limits<double>::infinity()};
  for (double alpha : alphas) {
    size_t mismatches = 0;
    for (int64_t dist_pj = 0; dist_pj <= 4096; ++dist_pj) {
      const int64_t cap = internal::AlphaPruneCap(dist_pj, alpha);
      for (int64_t d = 0; d <= dist_pj + 1; ++d) {
        const bool drops = static_cast<double>(d) * alpha <=
                           static_cast<double>(dist_pj);
        if ((d <= cap) != drops) {
          if (mismatches++ == 0) {
            ADD_FAILURE() << "alpha " << alpha << " dist_pj " << dist_pj
                          << " d " << d << " cap " << cap;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "alpha " << alpha;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity gate: the builder and the navigator against a test-local copy
// of the std::set-based implementation they replaced (branchy merge, every
// distance computed in full)
// ---------------------------------------------------------------------------

namespace reference {

using Candidate = std::pair<int64_t, uint32_t>;

int64_t Distance(Span<const uint64_t> a, Span<const uint64_t> b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return static_cast<int64_t>(std::max(a.size(), b.size()) - common);
}

template <typename NeighborsFn, typename DistFn>
void BeamSearch(uint32_t entry, size_t window, const NeighborsFn& neighbors_of,
                const DistFn& dist_to, std::vector<Candidate>* expanded,
                std::set<Candidate>* window_set) {
  std::set<Candidate> frontier;
  std::unordered_set<uint32_t> seen;
  const int64_t entry_dist = dist_to(entry);
  frontier.emplace(entry_dist, entry);
  window_set->emplace(entry_dist, entry);
  seen.insert(entry);
  while (!frontier.empty()) {
    const Candidate closest = *frontier.begin();
    if (window_set->size() >= window &&
        closest.first > std::prev(window_set->end())->first) {
      break;
    }
    frontier.erase(frontier.begin());
    expanded->push_back(closest);
    const auto [nbrs, count] = neighbors_of(closest.second);
    for (size_t e = 0; e < count; ++e) {
      const uint32_t nb = nbrs[e];
      if (!seen.insert(nb).second) continue;
      const int64_t d = dist_to(nb);
      if (window_set->size() >= window) {
        const auto worst = std::prev(window_set->end());
        if (Candidate(d, nb) >= *worst) continue;
        window_set->erase(worst);
      }
      window_set->emplace(d, nb);
      frontier.emplace(d, nb);
    }
  }
}

std::vector<uint32_t> RobustPrune(uint32_t p, std::vector<Candidate> pool,
                                  double alpha, uint32_t degree,
                                  const FingerprintStore& store) {
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<uint32_t> kept;
  std::vector<char> dropped(pool.size(), 0);
  for (size_t i = 0; i < pool.size() && kept.size() < degree; ++i) {
    if (dropped[i]) continue;
    const auto [dist_pc, c] = pool[i];
    if (c == p) continue;
    kept.push_back(c);
    for (size_t j = i + 1; j < pool.size(); ++j) {
      if (dropped[j]) continue;
      const auto [dist_pj, cj] = pool[j];
      if (cj == c) {
        dropped[j] = 1;
        continue;
      }
      const int64_t dist_ccj = Distance(store.keys(c), store.keys(cj));
      if (static_cast<double>(dist_ccj) * alpha <=
          static_cast<double>(dist_pj)) {
        dropped[j] = 1;
      }
    }
  }
  return kept;
}

// BuildProximityGraph for a non-empty store and valid params.
ProximityGraph Build(const FingerprintStore& store,
                     const AnnBuildParams& params) {
  const size_t n = store.size();
  ProximityGraph out;
  out.degree_bound = params.graph_degree;
  out.entry_point = 0;
  const uint32_t degree = params.graph_degree;
  Rng rng(params.seed);
  std::vector<std::vector<uint32_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t want = std::min<size_t>(degree, n - 1);
    for (size_t p : rng.SampleWithoutReplacement(n - 1, want)) {
      adj[i].push_back(static_cast<uint32_t>(p >= i ? p + 1 : p));
    }
  }
  {
    const size_t sample_count = std::min<size_t>(n, 64);
    std::vector<size_t> sample = rng.SampleWithoutReplacement(n, sample_count);
    std::sort(sample.begin(), sample.end());
    int64_t best_total = std::numeric_limits<int64_t>::max();
    for (size_t c : sample) {
      int64_t total = 0;
      for (size_t s : sample) total += Distance(store.keys(c), store.keys(s));
      if (total < best_total) {
        best_total = total;
        out.entry_point = static_cast<uint32_t>(c);
      }
    }
  }
  const auto neighbors_of = [&adj](uint32_t id) {
    return std::make_pair(adj[id].data(), adj[id].size());
  };
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&perm);
  for (uint32_t p : perm) {
    const Span<const uint64_t> p_keys = store.keys(p);
    const auto dist_to = [&store, &p_keys](uint32_t id) {
      return Distance(p_keys, store.keys(id));
    };
    std::vector<Candidate> pool;
    std::set<Candidate> window_set;
    BeamSearch(out.entry_point, params.build_window, neighbors_of, dist_to,
               &pool, &window_set);
    for (uint32_t nb : adj[p]) pool.emplace_back(dist_to(nb), nb);
    adj[p] = RobustPrune(p, std::move(pool), params.alpha, degree, store);
    for (uint32_t j : adj[p]) {
      if (std::find(adj[j].begin(), adj[j].end(), p) != adj[j].end()) continue;
      adj[j].push_back(p);
      if (adj[j].size() > degree) {
        std::vector<Candidate> jpool;
        for (uint32_t nb : adj[j]) {
          jpool.emplace_back(Distance(store.keys(j), store.keys(nb)), nb);
        }
        adj[j] = RobustPrune(j, std::move(jpool), params.alpha, degree, store);
      }
    }
  }
  {
    std::vector<char> reached(n, 0);
    std::vector<uint32_t> stack;
    const auto drain = [&] {
      while (!stack.empty()) {
        const uint32_t u = stack.back();
        stack.pop_back();
        for (uint32_t nb : adj[u]) {
          if (!reached[nb]) {
            reached[nb] = 1;
            stack.push_back(nb);
          }
        }
      }
    };
    reached[out.entry_point] = 1;
    stack.push_back(out.entry_point);
    drain();
    for (uint32_t u = 0; u < n; ++u) {
      if (reached[u]) continue;
      adj[out.entry_point].push_back(u);
      reached[u] = 1;
      stack.push_back(u);
      drain();
    }
  }
  out.offsets.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    out.neighbors.insert(out.neighbors.end(), adj[i].begin(), adj[i].end());
    out.offsets[i + 1] = out.neighbors.size();
  }
  return out;
}

std::vector<uint32_t> Navigate(const ProximityGraphRef& graph,
                               const FingerprintStore& store,
                               Span<const uint64_t> query_keys,
                               size_t window) {
  window = std::max<size_t>(1, window);
  const auto neighbors_of = [&graph](uint32_t id) {
    return std::make_pair(graph.neighbors + graph.offsets[id],
                          static_cast<size_t>(graph.offsets[id + 1] -
                                              graph.offsets[id]));
  };
  const auto dist_to = [&store, &query_keys](uint32_t id) {
    return Distance(query_keys, store.keys(id));
  };
  std::vector<Candidate> expanded;
  std::set<Candidate> window_set;
  BeamSearch(graph.entry_point, window, neighbors_of, dist_to, &expanded,
             &window_set);
  std::vector<uint32_t> out;
  std::unordered_set<uint32_t> emitted;
  for (const Candidate& c : expanded) {
    if (emitted.insert(c.second).second) out.push_back(c.second);
  }
  for (const Candidate& c : window_set) {
    if (emitted.insert(c.second).second) out.push_back(c.second);
  }
  return out;
}

}  // namespace reference

// One gate corpus: the store, the index it views, and the query key sets
// navigated over it — dataset queries (when the corpus has any), the empty
// multiset, and a corpus member's own keys.
struct GateCorpus {
  std::string name;
  std::unique_ptr<GbdaIndex> index;
  FingerprintStore store;
  std::vector<std::vector<uint64_t>> queries;
};

GateCorpus MakeGateCorpus(const std::string& name, const GraphDatabase& db,
                          const std::vector<Graph>& dataset_queries) {
  GateCorpus corpus;
  corpus.name = name;
  corpus.index = BuildIndex(db);
  if (corpus.index == nullptr) return corpus;
  corpus.store = FingerprintStore::FromIndex(*corpus.index);
  for (size_t q = 0; q < std::min<size_t>(dataset_queries.size(), 2); ++q) {
    corpus.queries.push_back(IdsOf(*corpus.index, dataset_queries[q]));
  }
  corpus.queries.emplace_back();
  const Span<const uint64_t> member = corpus.store.keys(db.size() / 2);
  corpus.queries.emplace_back(member.begin(), member.end());
  return corpus;
}

GateCorpus ProfileGateCorpus(const std::string& name, DatasetProfile profile,
                             uint64_t seed) {
  profile.seed = seed;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return ds.ok() ? MakeGateCorpus(name, ds->db, ds->queries) : GateCorpus();
}

// Builds `corpus` with `params` through the reference and through
// BuildProximityGraph under both kernel tables, and navigates the graph with
// every query at windows {1, 4, 16, 64, n}: the serialized bytes and every
// candidate list must be identical.
void ExpectMatchesReference(const GateCorpus& corpus,
                            const AnnBuildParams& params, size_t* builds,
                            size_t* navigations) {
  const size_t n = corpus.store.size();
  const std::vector<size_t> windows = {1, 4, 16, 64, n};
  const std::string label =
      corpus.name + " degree " + std::to_string(params.graph_degree) +
      " window " + std::to_string(params.build_window) + " alpha " +
      std::to_string(params.alpha);
  const ProximityGraph want = reference::Build(corpus.store, params);
  const std::string want_bytes = SerializeProximityGraph(want);
  std::vector<std::vector<uint32_t>> want_visits;
  for (const std::vector<uint64_t>& q : corpus.queries) {
    for (size_t w : windows) {
      want_visits.push_back(
          reference::Navigate(want.ref(), corpus.store, KeySpan(q), w));
    }
  }
  for (bool force_scalar : {false, true}) {
    const ScopedKernelTable table(force_scalar);
    const std::string where = label + (force_scalar ? " (scalar)" : " (auto)");
    Result<ProximityGraph> got = BuildProximityGraph(corpus.store, params);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    EXPECT_EQ(SerializeProximityGraph(*got), want_bytes)
        << "graph differs: " << where;
    ++*builds;
    size_t v = 0;
    for (const std::vector<uint64_t>& q : corpus.queries) {
      for (size_t w : windows) {
        EXPECT_EQ(
            NavigateProximityGraph(want.ref(), corpus.store, KeySpan(q), w),
            want_visits[v++])
            << "navigation differs: " << where << " query keys " << q.size()
            << " window " << w;
        ++*navigations;
      }
    }
  }
}

TEST(ProximityGraphGateTest, BuildsAndNavigationsMatchTheReference) {
  std::vector<GateCorpus> corpora;
  corpora.push_back(ProfileGateCorpus("aids31", AidsProfile(0.03), 31));
  corpora.push_back(ProfileGateCorpus("aids47", AidsProfile(0.03), 47));
  corpora.push_back(ProfileGateCorpus("grec", GrecProfile(0.03), 23));
  corpora.push_back(MakeGateCorpus("identical12", IdenticalCorpus(12), {}));
  corpora.push_back(MakeGateCorpus("identical2", IdenticalCorpus(2), {}));
  const GateCorpus aasd = ProfileGateCorpus("aasd", AasdProfile(0.01), 5);

  size_t builds = 0, navigations = 0;
  const auto check = [&](const GateCorpus& corpus, uint32_t degree,
                         uint32_t build_window, double alpha) {
    AnnBuildParams params;
    params.graph_degree = degree;
    params.build_window = build_window;
    params.alpha = alpha;
    ExpectMatchesReference(corpus, params, &builds, &navigations);
  };
  // The full grid on the small corpora.
  for (const GateCorpus& corpus : corpora) {
    ASSERT_GT(corpus.store.size(), 0u) << corpus.name;
    for (uint32_t degree : {1u, 4u, 8u, 32u}) {
      for (uint32_t build_window : {1u, 8u, 64u}) {
        for (double alpha : {1.0, 1.2, 2.0}) {
          check(corpus, degree, build_window, alpha);
        }
      }
    }
  }
  // AASD's 380 graphs cover each degree, window and alpha once, the
  // defaults (32, 64, 1.2) among them: its full grid would take about four
  // times as long as the rest of this test together.
  ASSERT_GT(aasd.store.size(), 0u);
  check(aasd, 1, 64, 1.0);
  check(aasd, 4, 8, 2.0);
  check(aasd, 8, 1, 1.2);
  check(aasd, 32, 64, 1.2);
  EXPECT_EQ(builds, (corpora.size() * 36 + 4) * 2);
  EXPECT_GT(navigations, builds);
}

// ---------------------------------------------------------------------------
// AnnContext
// ---------------------------------------------------------------------------

TEST(AnnContextTest, BuildOwnsAValidGraph) {
  const IndexedStore indexed = StoreOf(IdenticalCorpus(6));
  Result<AnnContext> ctx = AnnContext::Build(indexed.store, AnnBuildParams());
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_EQ(ctx->store().size(), 6u);
  EXPECT_EQ(ctx->owned_graph().num_nodes(), 6u);
  EXPECT_EQ(ctx->graph().num_nodes, 6u);
}

TEST(AnnContextTest, AdoptRejectsNodeCountMismatch) {
  const IndexedStore small = StoreOf(IdenticalCorpus(4));
  const IndexedStore big = StoreOf(IdenticalCorpus(7));
  Result<ProximityGraph> graph =
      BuildProximityGraph(small.store, AnnBuildParams());
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(AnnContext::Adopt(big.store, graph->ref()).ok());
  EXPECT_TRUE(AnnContext::Adopt(small.store, graph->ref()).ok());
}

}  // namespace
}  // namespace gbda
