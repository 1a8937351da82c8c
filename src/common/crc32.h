/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used for artifact
/// integrity: the v2 index footer (core/gbda_index.cc) and the per-section
/// checksums of the v4 arena format (storage/index_arena.h). Table-driven,
/// no external dependencies; matches zlib's crc32() bit for bit so artifacts
/// can be cross-checked with standard tooling.

#pragma once

#include <cstddef>
#include <cstdint>

namespace gbda {

/// CRC-32 of `data[0, size)`, seeded with `seed` (pass the previous return
/// value to checksum a logical stream in chunks; 0 starts a fresh sum).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace gbda
