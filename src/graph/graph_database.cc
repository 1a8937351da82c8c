#include "graph/graph_database.h"

#include <algorithm>

#include "math/stats.h"

namespace gbda {

size_t GraphDatabase::Add(Graph graph) {
  graphs_.push_back(std::move(graph));
  return graphs_.size() - 1;
}

size_t GraphDatabase::MaxVertices() const {
  size_t m = 0;
  for (const Graph& g : graphs_) m = std::max(m, g.num_vertices());
  return m;
}

DatabaseStats GraphDatabase::Stats() const {
  DatabaseStats stats;
  stats.num_graphs = graphs_.size();
  stats.num_vertex_labels = vertex_labels_.num_real_labels();
  stats.num_edge_labels = edge_labels_.num_real_labels();
  if (stats.num_graphs == 0) return stats;

  std::map<int64_t, size_t> degree_counts;
  double degree_sum = 0.0;
  double vertex_sum = 0.0;
  for (const Graph& g : graphs_) {
    stats.max_vertices = std::max(stats.max_vertices, g.num_vertices());
    stats.max_edges = std::max(stats.max_edges, g.num_edges());
    degree_sum += g.AvgDegree();
    vertex_sum += static_cast<double>(g.num_vertices());
    for (const auto& [deg, cnt] : g.DegreeHistogram()) degree_counts[deg] += cnt;
  }
  stats.avg_degree = degree_sum / static_cast<double>(stats.num_graphs);
  stats.avg_vertices = vertex_sum / static_cast<double>(stats.num_graphs);
  stats.scale_free = LooksScaleFree(degree_counts);
  return stats;
}

size_t GraphDatabase::MemoryBytes() const {
  size_t bytes = sizeof(GraphDatabase);
  for (const Graph& g : graphs_) bytes += g.MemoryBytes();
  return bytes;
}

}  // namespace gbda
