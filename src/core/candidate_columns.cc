#include "core/candidate_columns.h"

namespace gbda {

OwnedCandidateColumns BuildCandidateColumns(
    const std::vector<Span<const uint64_t>>& graph_ids) {
  OwnedCandidateColumns cols;
  cols.sizes.reserve(graph_ids.size());
  cols.fp_offsets.reserve(graph_ids.size() + 1);
  cols.fp_offsets.push_back(0);
  uint64_t total = 0;
  for (const Span<const uint64_t>& ids : graph_ids) total += ids.size();
  cols.fp_keys.reserve(static_cast<size_t>(total));
  for (const Span<const uint64_t>& ids : graph_ids) {
    cols.sizes.push_back(static_cast<uint32_t>(ids.size()));
    cols.fp_keys.insert(cols.fp_keys.end(), ids.begin(), ids.end());
    cols.fp_offsets.push_back(cols.fp_keys.size());
  }
  return cols;
}

}  // namespace gbda
