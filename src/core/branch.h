#pragma once

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "graph/graph.h"

namespace gbda {

/// Non-owning view of a run of branches in the flat layout: a root array
/// and a label-offset array, parallel, plus a shared label pool. An owned
/// BranchMultiset and a branch dictionary (core/branch_dictionary.h), owned
/// or read in place from a mapped artifact, all have this layout and differ
/// only in who owns the arrays. The viewed storage must outlive the ref.
class BranchSetRef {
 public:
  /// Empty multiset.
  BranchSetRef() = default;
  /// `label_offsets` holds size + 1 absolute offsets into `label_pool`
  /// (entries i and i+1 bound branch i's edge labels); offsets must be
  /// nondecreasing and in bounds. An owned multiset keeps that by
  /// construction and the artifact loader validates it once at open, so
  /// per-branch access is unchecked.
  BranchSetRef(const uint32_t* roots, const uint64_t* label_offsets,
               const LabelId* label_pool, size_t size)
      : roots_(roots),
        label_offsets_(label_offsets),
        label_pool_(label_pool),
        size_(size) {}

  size_t size() const { return size_; }

  LabelId root(size_t i) const { return roots_[i]; }
  Span<const LabelId> edge_labels(size_t i) const {
    return Span<const LabelId>(
        label_pool_ + label_offsets_[i],
        static_cast<size_t>(label_offsets_[i + 1] - label_offsets_[i]));
  }

  /// The raw arrays: size() roots, size() + 1 label offsets, and the pool.
  const uint32_t* roots() const { return roots_; }
  const uint64_t* label_offsets() const { return label_offsets_; }
  const LabelId* label_pool() const { return label_pool_; }

 private:
  const uint32_t* roots_ = nullptr;
  const uint64_t* label_offsets_ = nullptr;
  const LabelId* label_pool_ = nullptr;
  size_t size_ = 0;
};

/// The sorted multiset B_G of all branches of a graph, precomputed once per
/// graph and reused by every GBD evaluation, as Section III prescribes for
/// fair efficiency comparisons. A branch B(v) = {L(v), N(v)} (Definition 2)
/// is the label of vertex v plus the sorted multiset of labels of its
/// incident edges. Virtual (epsilon) edges do not actually exist and are
/// excluded from N(v); a virtual vertex contributes a branch rooted at the
/// virtual label. Branch isomorphism (Definition 3) is exact equality of
/// root label and edge-label multiset.
///
/// Stored flat, in the layout of the branch dictionary:
/// branch i is roots[i] with the edge labels
/// labels[label_offsets[i] .. label_offsets[i + 1]), and the branches
/// ascend in (root, edge labels) lexicographic order — the paper's
/// std::lexicographical_compare order, which the merge relies on.
///
/// Converts implicitly to a BranchSetRef, the way std::string converts to
/// std::string_view. A temporary multiset is fine as a call argument, but
/// a named BranchSetRef must never be bound to one.
struct BranchMultiset {
  std::vector<LabelId> roots;
  /// size() + 1 entries: starts at 0, ends at labels.size().
  std::vector<uint64_t> label_offsets = {0};
  std::vector<LabelId> labels;

  size_t size() const { return roots.size(); }

  bool operator==(const BranchMultiset& o) const {
    return roots == o.roots && label_offsets == o.label_offsets &&
           labels == o.labels;
  }

  operator BranchSetRef() const {
    return BranchSetRef(roots.data(), label_offsets.data(), labels.data(),
                        roots.size());
  }
};

/// Extracts the sorted branch multiset of `g` in O(sum of degrees + n log n).
BranchMultiset ExtractBranches(const Graph& g);

/// Three-way comparison of two branches in the multiset order: root label
/// first, then the ascending edge-label runs lexicographically (the order
/// of std::vector<LabelId>::operator<). 0 exactly when the branches are
/// isomorphic (Definition 3).
int CompareBranches(LabelId root_a, Span<const LabelId> labels_a,
                    LabelId root_b, Span<const LabelId> labels_b);

/// |A ∩ B| for two sorted branch multisets (two-pointer merge,
/// O(|A| + |B|) branch comparisons). Definition 4's reference: an index
/// counts the same intersection on branch ids (core/branch_dictionary.h).
size_t BranchIntersectionSize(const BranchSetRef& a, const BranchSetRef& b);

/// Graph Branch Distance (Definition 4):
///   GBD(G1,G2) = max(|V1|, |V2|) - |B_G1 ∩ B_G2|.
size_t Gbd(const Graph& g1, const Graph& g2);

/// GBD from precomputed multisets (|B_G| = |V| for ordinary graphs).
size_t GbdFromBranches(const BranchSetRef& b1, const BranchSetRef& b2);

/// Variant GBD of GBDA-V2 (Eq. 26):
///   VGBD(G1,G2) = max(|V1|,|V2|) - w * |B_G1 ∩ B_G2|, w user-defined.
double Vgbd(const BranchSetRef& b1, const BranchSetRef& b2, double w);

/// Branch-based lower bound on GED in the style of Zheng et al. [15]: the
/// optimal assignment between the two branch multisets (padded with empty
/// virtual branches) under the cost
///   cost(b1, b2) = [root1 != root2] + (max(|N1|,|N2|) - |N1 ∩ N2|) / 2,
/// solved exactly with the Hungarian algorithm. Each edge edit touches two
/// branches and each vertex edit one, so the assignment cost never exceeds
/// GED; the returned value is floor-compatible: LB <= GED(G1,G2).
double BranchGedLowerBound(const Graph& g1, const Graph& g2);

}  // namespace gbda
