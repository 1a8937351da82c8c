#pragma once

// Byte-level edits of a v4 arena (storage/index_arena.h) for the storage
// tests. Each keeps the header's checksums consistent, so the test reaches
// the check it means to exercise instead of tripping the meta CRC.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "storage/index_arena.h"

namespace gbda::testutil {

template <typename T>
T ReadAt(const std::string& data, uint64_t offset) {
  T value;
  std::memcpy(&value, data.data() + offset, sizeof(value));
  return value;
}

template <typename T>
void PatchAt(std::string* data, uint64_t offset, T value) {
  std::memcpy(&(*data)[static_cast<size_t>(offset)], &value, sizeof(value));
}

/// Byte offset of section-table entry `s` (0-based): id u32 at +0, offset
/// u64 at +8, length u64 at +16, crc u32 at +24.
inline uint64_t SectionEntryAt(size_t s) {
  return kArenaPreambleBytes + kArenaMetaScalarBytes +
         s * kArenaSectionEntryBytes;
}

/// Recomputes the meta CRC after a deliberate header edit. Mirrors the
/// writer: the CRC at preamble offset 24 covers [kArenaPreambleBytes,
/// ArenaHeaderBytes(section_count)).
inline void FixMetaCrc(std::string* data) {
  const uint32_t section_count = ReadAt<uint32_t>(*data, 12);
  PatchAt<uint32_t>(data, 24,
                    Crc32(data->data() + kArenaPreambleBytes,
                          ArenaHeaderBytes(section_count) -
                              kArenaPreambleBytes));
}

/// `data` with a section `id` carrying `payload`, its table entry placed
/// in id order, laid out as a writer that emits it would: every payload
/// 64-byte aligned behind the grown table, in table order, with the count,
/// file_bytes, the section CRCs and the meta CRC to match.
inline std::string InsertSection(const std::string& data, uint32_t id,
                                 const std::string& payload) {
  const uint32_t count = ReadAt<uint32_t>(data, 12);
  std::vector<std::pair<uint32_t, std::string>> sections;
  bool inserted = false;
  for (uint32_t s = 0; s < count; ++s) {
    const uint32_t sec_id = ReadAt<uint32_t>(data, SectionEntryAt(s));
    if (!inserted && sec_id > id) {
      sections.emplace_back(id, payload);
      inserted = true;
    }
    sections.emplace_back(
        sec_id,
        data.substr(
            static_cast<size_t>(ReadAt<uint64_t>(data, SectionEntryAt(s) + 8)),
            static_cast<size_t>(
                ReadAt<uint64_t>(data, SectionEntryAt(s) + 16))));
  }
  if (!inserted) sections.emplace_back(id, payload);

  const auto align = [](uint64_t offset) {
    return (offset + kArenaSectionAlign - 1) / kArenaSectionAlign *
           kArenaSectionAlign;
  };
  std::string out = data.substr(0, static_cast<size_t>(SectionEntryAt(0)));
  out.resize(ArenaHeaderBytes(count + 1), '\0');
  for (size_t s = 0; s < sections.size(); ++s) {
    const std::string& bytes = sections[s].second;
    const uint64_t offset = align(out.size());
    PatchAt<uint32_t>(&out, SectionEntryAt(s), sections[s].first);
    PatchAt<uint64_t>(&out, SectionEntryAt(s) + 8, offset);
    PatchAt<uint64_t>(&out, SectionEntryAt(s) + 16, bytes.size());
    PatchAt<uint32_t>(&out, SectionEntryAt(s) + 24,
                      Crc32(bytes.data(), bytes.size()));
    out.resize(static_cast<size_t>(offset), '\0');
    out += bytes;
  }
  out.resize(static_cast<size_t>(align(out.size())), '\0');
  PatchAt<uint32_t>(&out, 12, count + 1);
  PatchAt<uint64_t>(&out, 16, out.size());
  FixMetaCrc(&out);
  return out;
}

/// The retired section id of each graph's branch count (graph_sizes).
inline constexpr uint32_t kRetiredGraphSizes = 8;

/// `data` as the writers that still emitted graph_sizes laid it out: the
/// graph_offsets deltas as u32s in section 8, right before fp_keys.
inline std::string WithRetiredGraphSizes(const std::string& data) {
  const uint64_t offsets = ReadAt<uint64_t>(data, SectionEntryAt(0) + 8);
  const uint64_t num_graphs =
      ReadAt<uint64_t>(data, SectionEntryAt(0) + 16) / sizeof(uint64_t) - 1;
  std::string sizes;
  for (uint64_t g = 0; g < num_graphs; ++g) {
    const uint32_t n =
        static_cast<uint32_t>(ReadAt<uint64_t>(data, offsets + (g + 1) * 8) -
                              ReadAt<uint64_t>(data, offsets + g * 8));
    sizes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  return InsertSection(data, kRetiredGraphSizes, sizes);
}

}  // namespace gbda::testutil
