#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"

namespace gbda {
namespace {

TEST(GraphIoTest, RoundTripPaperGraphs) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  GraphDatabase db = std::move(p.db);
  db.Add(p.g1);
  db.Add(p.g2);

  std::ostringstream out;
  ASSERT_TRUE(WriteTransactionStream(db, out).ok());
  std::istringstream in(out.str());
  Result<GraphDatabase> loaded = ReadTransactionStream(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  // Same structure modulo label-id renumbering; compare re-serialisations.
  std::ostringstream out2;
  ASSERT_TRUE(WriteTransactionStream(*loaded, out2).ok());
  EXPECT_EQ(out.str(), out2.str());
}

TEST(GraphIoTest, ParsesHandWrittenInput) {
  std::istringstream in(
      "# comment line\n"
      "t # 0\n"
      "v 0 C\n"
      "v 1 N\n"
      "\n"
      "e 0 1 single\n"
      "t # 1\n"
      "v 0 O\n");
  Result<GraphDatabase> db = ReadTransactionStream(in);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ(db->graph(0).num_vertices(), 2u);
  EXPECT_EQ(db->graph(0).num_edges(), 1u);
  EXPECT_EQ(db->graph(1).num_vertices(), 1u);
  EXPECT_EQ(db->graph(1).num_edges(), 0u);
  EXPECT_EQ(*db->vertex_labels().Name(db->graph(0).VertexLabel(0)), "C");
}

TEST(GraphIoTest, RejectsVertexBeforeHeader) {
  std::istringstream in("v 0 C\n");
  Result<GraphDatabase> db = ReadTransactionStream(in);
  EXPECT_FALSE(db.ok());
}

TEST(GraphIoTest, RejectsNonDenseVertexIndices) {
  std::istringstream in("t # 0\nv 0 C\nv 2 N\n");
  EXPECT_FALSE(ReadTransactionStream(in).ok());
}

TEST(GraphIoTest, RejectsMalformedEdge) {
  std::istringstream in("t # 0\nv 0 C\nv 1 N\ne 0 single\n");
  EXPECT_FALSE(ReadTransactionStream(in).ok());
}

TEST(GraphIoTest, RejectsDuplicateEdge) {
  std::istringstream in("t # 0\nv 0 C\nv 1 N\ne 0 1 a\ne 1 0 b\n");
  Result<GraphDatabase> db = ReadTransactionStream(in);
  EXPECT_FALSE(db.ok());
  // The error message points at the offending line.
  EXPECT_NE(db.status().message().find("line 5"), std::string::npos);
}

TEST(GraphIoTest, RejectsUnknownRecord) {
  std::istringstream in("t # 0\nq nonsense\n");
  EXPECT_FALSE(ReadTransactionStream(in).ok());
}

TEST(GraphIoTest, FileRoundTrip) {
  testutil::PaperGraphs p = testutil::MakePaperGraphs();
  GraphDatabase db = std::move(p.db);
  db.Add(p.g1);
  const std::string path = ::testing::TempDir() + "/gbda_io_test.txt";
  ASSERT_TRUE(WriteTransactionFile(db, path).ok());
  Result<GraphDatabase> loaded = ReadTransactionFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->graph(0).num_edges(), 3u);
}

TEST(GraphIoTest, MissingFileFails) {
  Result<GraphDatabase> db = ReadTransactionFile("/nonexistent/path/x.txt");
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace gbda
