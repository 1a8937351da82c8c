#include "core/branch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "baselines/astar_ged.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_edit.h"
#include "test_util.h"

namespace gbda {
namespace {

/// One branch as a value: (root label, ascending edge labels). Pairs
/// compare lexicographically, which is the multiset's storage order.
using BranchValue = std::pair<LabelId, std::vector<LabelId>>;

std::vector<BranchValue> Values(const BranchSetRef& b) {
  std::vector<BranchValue> out;
  for (size_t i = 0; i < b.size(); ++i) {
    const Span<const LabelId> labels = b.edge_labels(i);
    out.emplace_back(b.root(i),
                     std::vector<LabelId>(labels.begin(), labels.end()));
  }
  return out;
}

/// The reference extraction: one (root, sorted non-virtual labels) pair per
/// vertex, sorted, then flattened into the multiset's three arrays.
BranchMultiset ReferenceBranches(const Graph& g) {
  std::vector<BranchValue> pairs;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    BranchValue b{g.VertexLabel(v), {}};
    for (const AdjEdge& e : g.Neighbors(v)) {
      if (e.label != kVirtualLabel) b.second.push_back(e.label);
    }
    std::sort(b.second.begin(), b.second.end());
    pairs.push_back(std::move(b));
  }
  std::sort(pairs.begin(), pairs.end());
  BranchMultiset flat;
  for (const BranchValue& b : pairs) {
    flat.roots.push_back(b.first);
    flat.labels.insert(flat.labels.end(), b.second.begin(), b.second.end());
    flat.label_offsets.push_back(flat.labels.size());
  }
  return flat;
}

/// |A ∩ B| counted through std::multiset, independent of the merge.
size_t MultisetIntersection(const std::vector<BranchValue>& a,
                            const std::vector<BranchValue>& b) {
  std::multiset<BranchValue> pool(a.begin(), a.end());
  size_t common = 0;
  for (const BranchValue& x : b) {
    const auto it = pool.find(x);
    if (it == pool.end()) continue;
    pool.erase(it);
    ++common;
  }
  return common;
}

TEST(BranchTest, PaperExample2BranchMultisets) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();

  // Expected branches (Example 2):
  //   G1: B(v1)={A; y,y}, B(v2)={C; y,z}, B(v3)={B; y,z}
  //   G2: B(u1)={B; x,z}, B(u2)={A; y}, B(u3)={A; x}, B(u4)={C; y,z}
  const BranchMultiset b1 = ExtractBranches(p.g1);
  const BranchMultiset b2 = ExtractBranches(p.g2);
  ASSERT_EQ(b1.size(), 3u);
  ASSERT_EQ(b2.size(), 4u);

  const std::vector<BranchValue> g1 = Values(b1);
  const BranchValue v1{p.A, {p.y, p.y}};
  const BranchValue v2{p.C, {p.y, p.z}};
  const BranchValue v3{p.B, {p.y, p.z}};
  EXPECT_NE(std::find(g1.begin(), g1.end(), v1), g1.end());
  EXPECT_NE(std::find(g1.begin(), g1.end(), v2), g1.end());
  EXPECT_NE(std::find(g1.begin(), g1.end(), v3), g1.end());

  const std::vector<BranchValue> g2 = Values(b2);
  const BranchValue u2{p.A, {p.y}};
  const BranchValue u3{p.A, {p.x}};
  const BranchValue u1{p.B, {p.x, p.z}};
  const BranchValue u4{p.C, {p.y, p.z}};
  EXPECT_NE(std::find(g2.begin(), g2.end(), u1), g2.end());
  EXPECT_NE(std::find(g2.begin(), g2.end(), u2), g2.end());
  EXPECT_NE(std::find(g2.begin(), g2.end(), u3), g2.end());
  EXPECT_NE(std::find(g2.begin(), g2.end(), u4), g2.end());

  // The only isomorphic pair is B(v2) ~ B(u4), so |intersection| = 1.
  EXPECT_EQ(BranchIntersectionSize(b1, b2), 1u);
  // GBD = max(3, 4) - 1 = 3 (Example 2).
  EXPECT_EQ(Gbd(p.g1, p.g2), 3u);
}

// The storage order the merge relies on, over the paper graphs and
// generator graphs with virtual edges, isolated and virtual vertices and
// repeated identical branches added: ExtractBranches equals the
// sorted-pairs reference, its offsets are well formed, and the merge
// counts what std::multiset counts.
TEST(BranchTest, MultisetIsSorted) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  const std::vector<BranchValue> paper = Values(ExtractBranches(p.g2));
  for (size_t i = 1; i < paper.size(); ++i) {
    EXPECT_TRUE(paper[i - 1] <= paper[i]);
  }

  Rng rng(23);
  std::vector<Graph> graphs = {Graph(), Graph::WithVertices(3, 2), p.g1,
                               p.g2};
  for (int trial = 0; trial < 40; ++trial) {
    GeneratorOptions opts;
    opts.num_vertices = static_cast<size_t>(rng.UniformInt(1, 24));
    opts.extra_edges = static_cast<size_t>(rng.UniformInt(0, 12));
    opts.num_vertex_labels = static_cast<size_t>(rng.UniformInt(1, 4));
    opts.num_edge_labels = static_cast<size_t>(rng.UniformInt(1, 3));
    opts.scale_free = trial % 2 == 1;
    Result<Graph> g = GenerateConnectedGraph(opts, &rng);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    const uint32_t n = static_cast<uint32_t>(g->num_vertices());
    // Virtual edges between random non-adjacent pairs.
    for (int k = 0; k < 3 && n >= 2; ++k) {
      const uint32_t u = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
      const uint32_t v = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
      if (u != v && !g->HasEdge(u, v)) {
        ASSERT_TRUE(g->AddEdge(u, v, kVirtualLabel).ok());
      }
    }
    // Isolated vertices (repeated identical branches), one virtual.
    for (int k = 0; k < trial % 4; ++k) g->AddVertex(1);
    if (trial % 5 == 0) g->AddVertex(kVirtualLabel);
    // Identical pendant branches: two leaves under one hub, same labels.
    const uint32_t hub = g->AddVertex(2);
    for (int k = 0; k < 2; ++k) {
      ASSERT_TRUE(g->AddEdge(hub, g->AddVertex(3), 1).ok());
    }
    graphs.push_back(std::move(*g));
  }

  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const BranchMultiset b = ExtractBranches(graphs[gi]);
    EXPECT_TRUE(b == ReferenceBranches(graphs[gi])) << "graph " << gi;
    ASSERT_EQ(b.label_offsets.size(), b.size() + 1) << "graph " << gi;
    EXPECT_EQ(b.label_offsets.front(), 0u) << "graph " << gi;
    EXPECT_EQ(b.label_offsets.back(), b.labels.size()) << "graph " << gi;
    EXPECT_TRUE(std::is_sorted(b.label_offsets.begin(), b.label_offsets.end()))
        << "graph " << gi;
    for (const LabelId l : b.labels) EXPECT_NE(l, kVirtualLabel);
  }

  for (int pair = 0; pair < 300; ++pair) {
    const Graph& a = graphs[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(graphs.size()) - 1))];
    const Graph& c = graphs[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(graphs.size()) - 1))];
    const BranchMultiset ba = ExtractBranches(a);
    const BranchMultiset bc = ExtractBranches(c);
    EXPECT_EQ(BranchIntersectionSize(ba, bc),
              MultisetIntersection(Values(ba), Values(bc)))
        << "pair " << pair;
  }
}

TEST(BranchTest, VirtualEdgesExcludedFromBranches) {
  Graph g = Graph::WithVertices(3, 1);
  ASSERT_TRUE(g.AddEdge(0, 1, 5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, kVirtualLabel).ok());  // virtual edge
  const BranchMultiset b = ExtractBranches(g);
  // Vertex 0's branch sees only the real edge.
  bool found = false;
  for (const BranchValue& br : Values(b)) {
    if (br.second == std::vector<LabelId>{5}) found = true;
    for (LabelId l : br.second) EXPECT_NE(l, kVirtualLabel);
  }
  EXPECT_TRUE(found);
}

TEST(BranchTest, GbdIdenticalGraphsIsZero) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  EXPECT_EQ(Gbd(p.g1, p.g1), 0u);
  EXPECT_EQ(Gbd(p.g2, p.g2), 0u);
}

TEST(BranchTest, GbdIsSymmetric) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  EXPECT_EQ(Gbd(p.g1, p.g2), Gbd(p.g2, p.g1));
}

TEST(BranchTest, GbdBoundedByMaxSize) {
  Rng rng(9);
  GeneratorOptions opts;
  opts.num_vertices = 20;
  for (int trial = 0; trial < 20; ++trial) {
    Result<Graph> a = GenerateConnectedGraph(opts, &rng);
    Result<Graph> b = GenerateConnectedGraph(opts, &rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_LE(Gbd(*a, *b), std::max(a->num_vertices(), b->num_vertices()));
  }
}

TEST(BranchTest, OneEditChangesAtMostTwoBranches) {
  // GBD <= 2 * (number of edit operations): each edit touches at most two
  // branches — the bound motivating the phi <= 2 tau range of Section V-C.
  Rng rng(11);
  GeneratorOptions opts;
  opts.num_vertices = 12;
  opts.extra_edges = 8;
  for (int trial = 0; trial < 30; ++trial) {
    Result<Graph> base = GenerateConnectedGraph(opts, &rng);
    ASSERT_TRUE(base.ok());
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 6));
    Result<RandomEditResult> edited =
        RandomEditSequence(*base, len, opts.num_vertex_labels,
                           opts.num_edge_labels, &rng);
    ASSERT_TRUE(edited.ok());
    EXPECT_LE(Gbd(*base, edited->edited), 2 * len) << "trial " << trial;
  }
}

TEST(BranchTest, VgbdMatchesGbdAtWeightOne) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  const BranchMultiset b1 = ExtractBranches(p.g1);
  const BranchMultiset b2 = ExtractBranches(p.g2);
  EXPECT_DOUBLE_EQ(Vgbd(b1, b2, 1.0),
                   static_cast<double>(GbdFromBranches(b1, b2)));
  // Smaller weights keep more of the max term: VGBD(w) >= GBD for w <= 1.
  EXPECT_GE(Vgbd(b1, b2, 0.5), Vgbd(b1, b2, 1.0));
  EXPECT_DOUBLE_EQ(Vgbd(b1, b2, 0.0), 4.0);  // max(|V1|, |V2|)
}

TEST(BranchTest, EmptyGraphs) {
  Graph empty;
  EXPECT_EQ(Gbd(empty, empty), 0u);
  Graph one = Graph::WithVertices(1, 1);
  EXPECT_EQ(Gbd(empty, one), 1u);
}

class BranchLowerBoundSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BranchLowerBoundSweep, NeverExceedsExactGed) {
  Rng rng(GetParam());
  GeneratorOptions opts;
  opts.num_vertices = 6;
  opts.extra_edges = 3;
  opts.num_vertex_labels = 3;
  opts.num_edge_labels = 2;
  for (int trial = 0; trial < 8; ++trial) {
    Result<Graph> a = GenerateConnectedGraph(opts, &rng);
    Result<Graph> b = GenerateConnectedGraph(opts, &rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    Result<int64_t> exact = ExactGedValue(*a, *b);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    const double lb = BranchGedLowerBound(*a, *b);
    EXPECT_LE(lb, static_cast<double>(*exact) + 1e-9)
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchLowerBoundSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gbda
