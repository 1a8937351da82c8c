#include "graph/graph_database.h"

#include <algorithm>

#include "math/stats.h"

namespace gbda {

Status ValidateRemovalBatch(const std::vector<size_t>& ids, size_t size,
                            const std::function<bool(size_t)>& is_live,
                            const std::string& context) {
  std::vector<size_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const size_t id = sorted[i];
    if (id >= size) {
      return Status::InvalidArgument(context + ": id out of range: " +
                                     std::to_string(id));
    }
    if (!is_live(id)) {
      return Status::NotFound(context + ": graph already removed: " +
                              std::to_string(id));
    }
    if (i > 0 && sorted[i - 1] == id) {
      return Status::InvalidArgument(context + ": duplicate id: " +
                                     std::to_string(id));
    }
  }
  return Status::OK();
}

size_t GraphDatabase::Add(Graph graph) {
  graphs_.push_back(std::move(graph));
  if (!alive_.empty()) {
    alive_.push_back(1);
    ++num_live_;
  }
  return graphs_.size() - 1;
}

Status GraphDatabase::RemoveGraphs(const std::vector<size_t>& ids) {
  Status valid = ValidateRemovalBatch(
      ids, graphs_.size(), [this](size_t id) { return is_live(id); },
      "db RemoveGraphs");
  if (!valid.ok()) return valid;
  if (alive_.empty()) {
    alive_.assign(graphs_.size(), 1);
    num_live_ = graphs_.size();
  }
  for (size_t id : ids) {
    alive_[id] = 0;
    --num_live_;
    graphs_[id] = Graph();
  }
  return Status::OK();
}

std::vector<size_t> GraphDatabase::LiveIds() const {
  std::vector<size_t> out;
  out.reserve(num_live());
  for (size_t id = 0; id < graphs_.size(); ++id) {
    if (is_live(id)) out.push_back(id);
  }
  return out;
}

size_t GraphDatabase::MaxVertices() const {
  size_t m = 0;
  for (size_t id = 0; id < graphs_.size(); ++id) {
    if (is_live(id)) m = std::max(m, graphs_[id].num_vertices());
  }
  return m;
}

DatabaseStats GraphDatabase::Stats() const {
  DatabaseStats stats;
  stats.num_graphs = num_live();
  stats.num_vertex_labels = vertex_labels_.num_real_labels();
  stats.num_edge_labels = edge_labels_.num_real_labels();
  if (stats.num_graphs == 0) return stats;

  std::map<int64_t, size_t> degree_counts;
  double degree_sum = 0.0;
  double vertex_sum = 0.0;
  for (size_t id = 0; id < graphs_.size(); ++id) {
    if (!is_live(id)) continue;
    const Graph& g = graphs_[id];
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
  size_t bytes = sizeof(GraphDatabase) + alive_.capacity();
  for (const Graph& g : graphs_) bytes += g.MemoryBytes();
  return bytes;
}

}  // namespace gbda
