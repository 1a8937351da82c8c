/// \file branch_postings.h
/// The inverted index of a branch store: for each dictionary id, the
/// ascending ids of the graphs that hold it. A branch is a star-shaped
/// q-gram and its id a dense q-gram id (core/branch_dictionary.h), so the
/// posting lists are plain arrays indexed by id, as in the count and prefix
/// filtering of q-gram GED search (MSQ-Index). The threshold scan's prefix
/// filter (ArmPrefixFilter, core/gbda_search.h) reads them; see
/// docs/ARCHITECTURE.md, "Bound pruning".

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "core/index_reader.h"

namespace gbda {

/// Immutable once built; safe for concurrent readers. Graph ids are u32, as
/// ScanCandidateList's are: an index of 2^32 graphs or more gets empty
/// postings (num_ids() == 0), which ArmPrefixFilter never arms with.
class BranchPostings {
 public:
  /// One counting pass and one fill pass over index.columns():
  /// O(total branches + dictionary size).
  explicit BranchPostings(const IndexReader& index);

  /// The ids covered: index.dictionary().size() at build.
  size_t num_ids() const { return offsets_.size() - 1; }
  /// The graph count of the index the postings were built from.
  size_t num_graphs() const { return num_graphs_; }
  /// Total entries: the distinct (graph, id) pairs of the index.
  size_t num_entries() const { return graphs_.size(); }

  /// The graphs holding `id`, ascending, each once however many of its
  /// branches carry the id. Empty for an id >= num_ids(), such as the
  /// dictionary().size() a query branch the dictionary lacks maps to.
  Span<const uint32_t> Posting(uint64_t id) const {
    if (id >= num_ids()) return {};
    const uint64_t lo = offsets_[static_cast<size_t>(id)];
    return {graphs_.data() + lo,
            static_cast<size_t>(offsets_[static_cast<size_t>(id) + 1] - lo)};
  }

 private:
  std::vector<uint64_t> offsets_{0};  // num_ids() + 1 entries
  std::vector<uint32_t> graphs_;
  size_t num_graphs_ = 0;
};

}  // namespace gbda
