#include "core/branch_dictionary.h"

#include <algorithm>

namespace gbda {
namespace {

constexpr size_t kMinSlots = 16;

/// The power-of-two slot count that keeps `size` entries at load <= 1/2.
size_t SlotsFor(size_t size) {
  size_t slots = kMinSlots;
  while (slots < 2 * size) slots *= 2;
  return slots;
}

}  // namespace

// FNV-1a over the root and the ascending edge labels, one 64-bit word each.
uint64_t BranchFingerprint(LabelId root, const LabelId* edge_labels,
                           size_t count) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  // +1 keeps label id 0 from hashing like "no label".
  mix(static_cast<uint64_t>(root) + 1);
  for (size_t i = 0; i < count; ++i) {
    mix(static_cast<uint64_t>(edge_labels[i]) + 1);
  }
  return h;
}

BranchDictionary::BranchDictionary(const BranchSetRef& entries)
    : borrowed_entries_(entries), borrowed_(true) {
  Rehash(SlotsFor(entries.size()));
}

uint64_t BranchDictionary::Find(LabelId root,
                                Span<const LabelId> edge_labels) const {
  const BranchSetRef all = entries();
  if (slots_.empty()) return all.size();
  const size_t mask = slots_.size() - 1;
  for (size_t s = SlotOf(root, edge_labels);; s = (s + 1) & mask) {
    const uint64_t slot = slots_[s];
    if (slot == 0) return all.size();
    if (CompareBranches(all.root(slot - 1), all.edge_labels(slot - 1), root,
                        edge_labels) == 0) {
      return slot - 1;
    }
  }
}

uint64_t BranchDictionary::Intern(LabelId root,
                                  Span<const LabelId> edge_labels) {
  const uint64_t found = Find(root, edge_labels);
  if (found < size()) return found;
  owned_.roots.push_back(root);
  owned_.labels.insert(owned_.labels.end(), edge_labels.begin(),
                       edge_labels.end());
  owned_.label_offsets.push_back(owned_.labels.size());
  if (2 * size() > slots_.size()) {
    Rehash(SlotsFor(size()));
  } else {
    Place(found);
  }
  return found;
}

BranchDictionary BranchDictionary::Renumbered(
    Span<const uint64_t> offsets, std::vector<uint64_t>* ids) const {
  const BranchSetRef all = entries();
  std::vector<uint64_t> to_new(all.size(), 0);
  for (uint64_t id : *ids) to_new[id] = 1;
  std::vector<uint64_t> order;  // the held ids, then sorted by content
  for (uint64_t id = 0; id < all.size(); ++id) {
    if (to_new[id]) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&all](uint64_t a, uint64_t b) {
    return CompareBranches(all.root(a), all.edge_labels(a), all.root(b),
                           all.edge_labels(b)) < 0;
  });
  BranchDictionary out;
  for (uint64_t id : order) {
    to_new[id] = out.owned_.roots.size();
    out.owned_.roots.push_back(all.root(id));
    const Span<const LabelId> labels = all.edge_labels(id);
    out.owned_.labels.insert(out.owned_.labels.end(), labels.begin(),
                             labels.end());
    out.owned_.label_offsets.push_back(out.owned_.labels.size());
  }
  out.Rehash(SlotsFor(order.size()));
  for (uint64_t& id : *ids) id = to_new[id];
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    const auto first = ids->begin() + static_cast<ptrdiff_t>(offsets[g]);
    const auto last = ids->begin() + static_cast<ptrdiff_t>(offsets[g + 1]);
    if (!std::is_sorted(first, last)) std::sort(first, last);
  }
  return out;
}

void BranchDictionary::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (uint64_t id = 0; id < size(); ++id) Place(id);
}

void BranchDictionary::Place(uint64_t id) {
  const BranchSetRef all = entries();
  const size_t mask = slots_.size() - 1;
  size_t s = SlotOf(all.root(id), all.edge_labels(id));
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = id + 1;
}

}  // namespace gbda
