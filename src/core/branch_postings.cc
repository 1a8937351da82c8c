#include "core/branch_postings.h"

#include <limits>

namespace gbda {

BranchPostings::BranchPostings(const IndexReader& index)
    : num_graphs_(index.num_graphs()) {
  if (num_graphs_ > std::numeric_limits<uint32_t>::max()) return;
  const CandidateColumns columns = index.columns();
  // Each graph's ids are ascending, so a repeated id is a run: it counts,
  // and is filled, once.
  const auto for_each_distinct = [&columns](size_t g, auto&& visit) {
    const uint64_t begin = columns.fp_offsets[g];
    const uint64_t end = columns.fp_offsets[g + 1];
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t id = columns.fp_keys[i];
      if (i == begin || id != columns.fp_keys[i - 1]) visit(id);
    }
  };
  offsets_.assign(index.dictionary().size() + 1, 0);
  for (size_t g = 0; g < num_graphs_; ++g) {
    for_each_distinct(g, [this](uint64_t id) { ++offsets_[id + 1]; });
  }
  for (size_t id = 1; id < offsets_.size(); ++id) {
    offsets_[id] += offsets_[id - 1];
  }
  graphs_.resize(static_cast<size_t>(offsets_.back()));
  // Filling graphs in ascending order keeps every posting ascending.
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t g = 0; g < num_graphs_; ++g) {
    for_each_distinct(g, [this, &cursor, g](uint64_t id) {
      graphs_[static_cast<size_t>(cursor[id]++)] = static_cast<uint32_t>(g);
    });
  }
}

}  // namespace gbda
