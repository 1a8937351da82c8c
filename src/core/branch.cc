#include "core/branch.h"

#include <algorithm>
#include <numeric>

#include "math/dense_matrix.h"
#include "math/hungarian.h"

namespace gbda {

int CompareBranches(LabelId root_a, Span<const LabelId> labels_a,
                    LabelId root_b, Span<const LabelId> labels_b) {
  if (root_a != root_b) return root_a < root_b ? -1 : 1;
  const size_t n = std::min(labels_a.size(), labels_b.size());
  for (size_t k = 0; k < n; ++k) {
    if (labels_a[k] != labels_b[k]) return labels_a[k] < labels_b[k] ? -1 : 1;
  }
  if (labels_a.size() != labels_b.size()) {
    return labels_a.size() < labels_b.size() ? -1 : 1;
  }
  return 0;
}

BranchMultiset ExtractBranches(const Graph& g) {
  const uint32_t n = static_cast<uint32_t>(g.num_vertices());
  // Each vertex's edge labels, sorted, packed vertex by vertex into one pool.
  std::vector<LabelId> pool;
  pool.reserve(2 * g.num_edges());
  std::vector<uint64_t> start(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    for (const AdjEdge& e : g.Neighbors(v)) {
      if (e.label != kVirtualLabel) pool.push_back(e.label);
    }
    std::sort(pool.begin() + static_cast<ptrdiff_t>(start[v]), pool.end());
    start[v + 1] = pool.size();
  }
  const auto run = [&pool, &start](uint32_t v) {
    return Span<const LabelId>(pool.data() + start[v],
                               static_cast<size_t>(start[v + 1] - start[v]));
  };

  // The storage order: vertices by (root, label run).
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return CompareBranches(g.VertexLabel(x), run(x), g.VertexLabel(y),
                           run(y)) < 0;
  });

  BranchMultiset branches;
  branches.roots.reserve(n);
  branches.label_offsets.reserve(n + 1);
  branches.labels.reserve(pool.size());
  for (uint32_t v : order) {
    branches.roots.push_back(g.VertexLabel(v));
    const Span<const LabelId> labels = run(v);
    branches.labels.insert(branches.labels.end(), labels.begin(),
                           labels.end());
    branches.label_offsets.push_back(branches.labels.size());
  }
  return branches;
}

// The two-pointer merge.
size_t BranchIntersectionSize(const BranchSetRef& a, const BranchSetRef& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = CompareBranches(a.root(i), a.edge_labels(i), b.root(j),
                                    b.edge_labels(j));
    if (cmp == 0) {
      ++common;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return common;
}

size_t Gbd(const Graph& g1, const Graph& g2) {
  return GbdFromBranches(ExtractBranches(g1), ExtractBranches(g2));
}

size_t GbdFromBranches(const BranchSetRef& b1, const BranchSetRef& b2) {
  return std::max(b1.size(), b2.size()) - BranchIntersectionSize(b1, b2);
}

double Vgbd(const BranchSetRef& b1, const BranchSetRef& b2, double w) {
  const double max_size = static_cast<double>(std::max(b1.size(), b2.size()));
  return max_size - w * static_cast<double>(BranchIntersectionSize(b1, b2));
}

namespace {

/// Multiset edit distance between two sorted label multisets:
/// max(|A|,|B|) - |A ∩ B|.
size_t SortedMultisetDiff(Span<const LabelId> a, Span<const LabelId> b) {
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
  return std::max(a.size(), b.size()) - common;
}

}  // namespace

double BranchGedLowerBound(const Graph& g1, const Graph& g2) {
  const BranchMultiset m1 = ExtractBranches(g1);
  const BranchMultiset m2 = ExtractBranches(g2);
  const BranchSetRef b1 = m1;
  const BranchSetRef b2 = m2;
  const size_t n = std::max(b1.size(), b2.size());
  if (n == 0) return 0.0;
  // The shorter side is padded with virtual branches: epsilon root, no
  // edges.
  const auto root = [](const BranchSetRef& b, size_t i) {
    return i < b.size() ? b.root(i) : kVirtualLabel;
  };
  const auto labels = [](const BranchSetRef& b, size_t i) {
    return i < b.size() ? b.edge_labels(i) : Span<const LabelId>();
  };

  DenseMatrix cost(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double root_cost = root(b1, i) == root(b2, j) ? 0.0 : 1.0;
      const double edge_cost = 0.5 * static_cast<double>(SortedMultisetDiff(
                                         labels(b1, i), labels(b2, j)));
      cost.At(i, j) = root_cost + edge_cost;
    }
  }
  Result<AssignmentResult> solved = SolveAssignment(cost);
  if (!solved.ok()) return 0.0;  // n >= 1 and square: cannot happen
  return solved->cost;
}

}  // namespace gbda
