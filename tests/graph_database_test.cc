#include "graph/graph_database.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "test_util.h"

namespace gbda {
namespace {

TEST(GraphDatabaseTest, EmptyDatabase) {
  GraphDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.MaxVertices(), 0u);
  const DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.num_graphs, 0u);
  EXPECT_EQ(stats.max_vertices, 0u);
}

TEST(GraphDatabaseTest, AddAssignsDenseIds) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  GraphDatabase db = std::move(p.db);
  EXPECT_EQ(db.Add(p.g1), 0u);
  EXPECT_EQ(db.Add(p.g2), 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.graph(0).num_vertices(), 3u);
  EXPECT_EQ(db.graph(1).num_vertices(), 4u);
  EXPECT_EQ(db.MaxVertices(), 4u);
}

TEST(GraphDatabaseTest, StatsAggregateAcrossGraphs) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  GraphDatabase db = std::move(p.db);
  db.Add(p.g1);
  db.Add(p.g2);
  const DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.num_graphs, 2u);
  EXPECT_EQ(stats.max_vertices, 4u);
  EXPECT_EQ(stats.max_edges, 3u);
  // g1: avg degree 2.0; g2: 1.5 -> mean 1.75.
  EXPECT_NEAR(stats.avg_degree, 1.75, 1e-12);
  EXPECT_NEAR(stats.avg_vertices, 3.5, 1e-12);
  EXPECT_EQ(stats.num_vertex_labels, 3u);  // A, B, C
  EXPECT_EQ(stats.num_edge_labels, 3u);    // x, y, z
}

TEST(GraphDatabaseTest, ScaleFreeFlagOnPreferentialAttachment) {
  GraphDatabase db;
  Rng rng(12);
  GeneratorOptions opts;
  opts.num_vertices = 300;
  opts.scale_free = true;
  for (int i = 0; i < 30; ++i) {
    db.Add(*GenerateConnectedGraph(opts, &rng));
  }
  EXPECT_TRUE(db.Stats().scale_free);
}

TEST(GraphDatabaseTest, MemoryGrowsWithContent) {
  GraphDatabase small;
  GraphDatabase big;
  Rng rng(13);
  GeneratorOptions opts;
  opts.num_vertices = 200;
  for (int i = 0; i < 10; ++i) big.Add(*GenerateConnectedGraph(opts, &rng));
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(GraphDatabaseTest, GraphReferencesSurviveAppends) {
  // graph(id) references to live graphs stay valid across Add (deque
  // storage), so a caller may hold one while the corpus keeps growing.
  GraphDatabase db;
  Rng rng(21);
  GeneratorOptions opts;
  opts.num_vertices = 12;
  db.Add(*GenerateConnectedGraph(opts, &rng));
  const Graph* first = &db.graph(0);
  const size_t vertices = first->num_vertices();
  const size_t edges = first->num_edges();
  for (int i = 0; i < 500; ++i) db.Add(*GenerateConnectedGraph(opts, &rng));
  EXPECT_EQ(first, &db.graph(0));
  EXPECT_EQ(first->num_vertices(), vertices);
  EXPECT_EQ(first->num_edges(), edges);
}

TEST(GraphDatabaseTest, SharedDictionariesAcrossGraphs) {
  GraphDatabase db;
  const LabelId c = db.vertex_labels().Intern("C");
  Graph g1;
  g1.AddVertex(c);
  Graph g2;
  g2.AddVertex(c);
  db.Add(g1);
  db.Add(g2);
  // Both graphs reference the same interned id.
  EXPECT_EQ(db.graph(0).VertexLabel(0), db.graph(1).VertexLabel(0));
  EXPECT_EQ(db.Stats().num_vertex_labels, 1u);
}

}  // namespace
}  // namespace gbda
