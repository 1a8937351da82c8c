/// \file branch_dictionary.h
/// Branches are tokens. Definition 3 makes branch isomorphism exact
/// equality, so the index numbers each distinct branch (root label, sorted
/// edge-label multiset) with a dense id and keeps a graph as the ascending
/// multiset of its branches' ids, the way MSQ-Index codes q-grams as
/// integers. Then
///   GBD(G1, G2) = max(|B1|, |B2|) - |ids1 ∩ ids2|
/// exactly (Definition 4), on the integer intersection kernels of
/// common/kernels.h. See docs/ARCHITECTURE.md, "Stage 2".

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "core/branch.h"

namespace gbda {

/// 64-bit FNV-1a of one branch: the root label, then its `count` ascending
/// edge labels. Content-only, so isomorphic branches hash equal. The
/// dictionary's hash; no id or column stores it.
uint64_t BranchFingerprint(LabelId root, const LabelId* edge_labels,
                           size_t count);

/// The distinct branches of a corpus, entry `id` for branch id `id`, in the
/// flat layout of BranchMultiset (roots, label offsets, one label pool),
/// plus an open-addressing hash index over the ids keyed by
/// BranchFingerprint. Two backings share the one lookup path: an owned
/// dictionary grows by Intern; a borrowed one reads a mapped artifact's
/// dictionary sections in place (storage/index_view.h). Copying is deep,
/// which is how a dynamic commit grows the dictionary without touching the
/// one a published snapshot reads (copy-on-write).
class BranchDictionary {
 public:
  /// An empty owned dictionary.
  BranchDictionary() = default;

  /// Borrows `entries` (id order) and builds the hash index in O(size).
  /// The entries must be distinct and their label offsets in bounds, which
  /// the arena loader checks at open; the storage must outlive the
  /// dictionary.
  explicit BranchDictionary(const BranchSetRef& entries);

  size_t size() const { return entries().size(); }

  /// Every entry in id order: branch `id` is entries().root(id) with the
  /// edge labels entries().edge_labels(id).
  BranchSetRef entries() const {
    return borrowed_ ? borrowed_entries_ : BranchSetRef(owned_);
  }

  /// The id of the branch (root, edge_labels), or size() when the
  /// dictionary lacks it. No graph of the index holds an id >= size(), so
  /// an unknown query branch matches nothing.
  uint64_t Find(LabelId root, Span<const LabelId> edge_labels) const;

  /// Find, appending the branch as id size() when it is new. Owned
  /// dictionaries only; ids are never reused.
  uint64_t Intern(LabelId root, Span<const LabelId> edge_labels);

  /// The entries some graph holds, renumbered in content order (the
  /// multiset order of core/branch.h), with `ids` rewritten to match: graph
  /// g's ids are (*ids)[offsets[g] .. offsets[g + 1]) and stay ascending.
  /// The identity on a dictionary already in content order whose every
  /// entry is held.
  BranchDictionary Renumbered(Span<const uint64_t> offsets,
                              std::vector<uint64_t>* ids) const;

 private:
  /// Rebuilds the hash index for `capacity` slots (a power of two).
  void Rehash(size_t capacity);
  /// Places `id` in the first free slot of its probe sequence.
  void Place(uint64_t id);
  size_t SlotOf(LabelId root, Span<const LabelId> edge_labels) const {
    // Fibonacci hashing: FNV-1a's last label only reaches the low bits, so
    // the product spreads them into the top bits the slot is taken from.
    return static_cast<size_t>(
        (BranchFingerprint(root, edge_labels.data(), edge_labels.size()) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
  }

  BranchMultiset owned_;
  BranchSetRef borrowed_entries_;
  bool borrowed_ = false;
  /// id + 1 per occupied slot, 0 when free; load factor <= 1/2.
  std::vector<uint64_t> slots_;
  int shift_ = 64;
};

}  // namespace gbda
