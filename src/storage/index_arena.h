/// \file index_arena.h
/// The v4 index artifact, the one persisted form of a GBDA index: a single
/// relocatable arena of offset-based tables designed to be mmap'ed and
/// queried in place (docs/ARCHITECTURE.md, "Storage engine"). It lays the
/// offline state out as the branch dictionary, two small prior blobs and
/// the SoA candidate columns, so opening it never decodes per branch:
///
///   offset 0                                    (all integers little-endian)
///   +--------------------------------------------------------------+
///   | magic 'GBA3' | version 4 | endian tag | section count N >= 7 |
///   | file_bytes u64 | meta_crc u32 | reserved u32                 |
///   +-- meta block (covered by meta_crc) --------------------------+
///   | tau_max, GbdPriorOptions fields, seed, |L_V|, |L_E|,         |
///   | avg_vertices, num_graphs, total_branches, dictionary_size,   |
///   | dictionary_labels                                            |
///   | section table: N x {id, reserved, offset u64, length u64,    |
///   |                     crc32, reserved}                         |
///   +-- sections, each offset 64-byte aligned, zero-padded --------+
///   | 1 graph_offsets u64[num_graphs + 1]   graph -> id range      |
///   | 2 dict_roots    u32[dictionary_size]  branch root labels     |
///   | 3 dict_label_start u64[dictionary_size + 1] -> label range   |
///   | 4 dict_labels   u32[dictionary_labels] ascending edge labels |
///   | 5 gbd_prior     serialized GbdPrior blob (Lambda2)           |
///   | 6 ged_prior     serialized GedPriorTable blob (Lambda3)      |
///   | 7 ann_graph     optional proximity graph (ann/proximity_-    |
///   |                 graph.h payload), mmap'd by approximate mode |
///   | 10 fp_keys      u64[total_branches]   per-graph ascending    |
///   |                 branch ids — MANDATORY                       |
///   +--------------------------------------------------------------+
///
/// The first six sections are canonical (ids 1..6 in order); trailing
/// sections follow with strictly increasing ids. Of those, fp_keys is
/// mandatory: an artifact without it fails at open with a request to
/// rebuild. Everything else trailing is OPTIONAL. A reader structurally
/// validates (and CRC-covers) every trailing section but SKIPS ids it does
/// not know — forward compatibility: an artifact written by a newer build
/// with an extra section still opens here, minus that section's feature,
/// and one written by an older build with the retired graph_sizes section
/// (id 8) opens as if it were absent. A known-id optional section with an
/// unreadable payload (e.g. an ann_graph from a future format revision)
/// degrades the same way on the serving path instead of failing the open.
///
/// Graph g's branches are the ids fp_keys[graph_offsets[g] ..
/// graph_offsets[g + 1]), ascending; id d is the branch dict_roots[d] with
/// the edge labels dict_labels[dict_label_start[d] .. dict_label_start[d +
/// 1]). The dictionary is strictly ascending in content order (the branch
/// multiset order of core/branch.h), so each distinct branch is stored
/// once and an artifact is a deterministic function of branch content.
/// graph_offsets also serves as columns().fp_offsets, and its deltas are
/// the graphs' branch counts. Opening costs header validation, one pass
/// over the tables, a hash index over the dictionary and the (small) prior
/// decodes. Offsets are file-absolute and the arena is position-independent:
/// any base address works. Version 3 (per-branch content and FNV
/// fingerprint keys) is not read: rebuild it.
///
/// Contract (also documented in docs/ARCHITECTURE.md):
///   - little-endian only; the endian tag makes a foreign-order artifact
///     fail loudly at open instead of decoding garbage;
///   - section offsets are 64-byte aligned, so casting the mapped bytes to
///     u32/u64 arrays is valid on every supported platform and rows start
///     cache-line aligned;
///   - every section carries a CRC32 (common/crc32.h); structural
///     validation (ValidateArenaTables) always runs at open, checksum
///     verification is opt-in (it touches every page, which defeats lazy
///     faulting on the serving path — tooling and `gbda_indexctl verify`
///     turn it on).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ann/proximity_graph.h"
#include "common/result.h"
#include "core/gbda_index.h"  // GbdaIndexOptions, IndexReader, header checks

namespace gbda {

// -- Format constants --------------------------------------------------------

/// "GBA3", kept across versions so an older artifact reaches the version
/// check and its rebuild message.
inline constexpr uint32_t kArenaMagic = 0x33414247;
inline constexpr uint32_t kArenaVersion = 4;
/// Written as 0x01020304; a big-endian writer would produce 0x04030201.
inline constexpr uint32_t kArenaEndianTag = 0x01020304;
/// The canonical sections every artifact leads with (ids 1..6, in order;
/// the mandatory fp_keys follows among the trailing sections).
inline constexpr uint32_t kArenaSectionCount = 6;
/// Sanity cap on the declared section count: far above anything this
/// format family will ever need, low enough that a corrupt count cannot
/// drive a huge header allocation.
inline constexpr uint32_t kMaxArenaSectionCount = 64;
inline constexpr size_t kArenaSectionAlign = 64;

/// Section ids. Ids 1..6 appear first in exactly this order; higher ids are
/// trailing sections in strictly increasing order. 10 is mandatory; the
/// rest are optional (unknown ones are skipped by readers — see the file
/// comment). Ids 8 (graph_sizes: each graph's branch count, which the
/// graph_offsets deltas already give) and 9 (v3's copy of the graph
/// offsets) are retired: an artifact that still carries 8 opens, and
/// readers skip it like any unknown section.
enum ArenaSectionId : uint32_t {
  kSecGraphOffsets = 1,
  kSecDictRoots = 2,
  kSecDictLabelStart = 3,
  kSecDictLabels = 4,
  kSecGbdPrior = 5,
  kSecGedPrior = 6,
  /// Serialized proximity graph (SerializeProximityGraph payload) for
  /// approximate candidate navigation; present only when the artifact was
  /// built with one (gbda_indexctl build --ann / graph).
  kSecAnnGraph = 7,
  /// The ids of the SoA candidate columns (core/index_reader.h,
  /// CandidateColumns), delimited by graph_offsets; the scan kernels read
  /// them in place.
  kSecFpKeys = 10,
};

/// Human-readable section name ("graph_offsets", ...), for diagnostics.
const char* ArenaSectionName(uint32_t id);

/// Fixed byte ranges of the header (kept explicit so tooling in other
/// languages can parse the preamble without this library).
inline constexpr size_t kArenaPreambleBytes = 32;  // magic..reserved
inline constexpr size_t kArenaMetaScalarBytes = 16 * 8;
inline constexpr size_t kArenaSectionEntryBytes = 32;
/// Header size of an artifact declaring `section_count` sections: the
/// preamble, the meta scalars, then one table entry per section.
constexpr size_t ArenaHeaderBytes(uint32_t section_count) {
  return kArenaPreambleBytes + kArenaMetaScalarBytes +
         section_count * kArenaSectionEntryBytes;
}
/// Header size of the six canonical entries alone: a lower bound on every
/// artifact's header (each also lists the mandatory fp_keys).
inline constexpr size_t kArenaHeaderBytes = ArenaHeaderBytes(kArenaSectionCount);

// -- Parsed header -----------------------------------------------------------

struct ArenaSectionInfo {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc32 = 0;
};

/// Everything the fixed header states about an artifact; the `inspect`
/// payload of gbda_indexctl and the first validation stage of
/// GbdaIndexView::Open.
struct ArenaInfo {
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  GbdaIndexOptions options;
  int64_t num_vertex_labels = 0;
  int64_t num_edge_labels = 0;
  double avg_vertices = 0.0;
  uint64_t num_graphs = 0;
  uint64_t total_branches = 0;
  /// Distinct branches, and the edge labels they hold together.
  uint64_t dictionary_size = 0;
  uint64_t dictionary_labels = 0;
  /// Every table entry, canonical then trailing — including trailing
  /// sections this build does not understand (so checksum verification
  /// still covers them).
  std::vector<ArenaSectionInfo> sections;

  /// The table entry with the given id, or nullptr when absent (optional
  /// trailing sections; the canonical six are always sections[id - 1], and
  /// a parsed header always holds 10).
  const ArenaSectionInfo* FindSection(uint32_t id) const {
    for (const ArenaSectionInfo& sec : sections) {
      if (sec.id == id) return &sec;
    }
    return nullptr;
  }
};

// -- Building / inspecting ---------------------------------------------------

/// Serializes `index` (any IndexReader — an owned GbdaIndex or a mapped
/// view) into a v4 arena: the six canonical sections, the optional
/// ann_graph and the mandatory fp_keys. The dictionary keeps only the
/// branches some graph holds, renumbered in content order, and each
/// graph's ids are rewritten to match — the identity after a fresh Build,
/// the removal of dead entries after dynamic commits. Fails on a stale
/// Lambda2 (the format carries no staleness) — except for the empty index,
/// whose prior is vacuously unfittable and is persisted as-is.
/// A non-null `ann_graph` (which must cover exactly index.num_graphs()
/// nodes) is written as section 7; null omits it.
Result<std::string> BuildArena(const IndexReader& index,
                               const ProximityGraph* ann_graph = nullptr);

/// BuildArena, then a crash-safe publish over `path`: the bytes go to
/// `<path>.tmp.<pid>` in the same directory, which is fsynced and renamed
/// over `path`, and then the directory is fsynced. A reader never sees a
/// torn file under `path`, and a view still mapping the old file keeps
/// its inode. The temp file is removed on any failure.
Status WriteArenaFile(const IndexReader& index, const std::string& path,
                      const ProximityGraph* ann_graph = nullptr);

/// Parses and validates the fixed header of `data` (a whole mapped
/// artifact): magic/version/endianness, meta CRC, header plausibility
/// (core ValidatePersistedIndexHeader), and the section table's structural
/// invariants (canonical order for the leading six, strictly increasing
/// ids / 64-byte alignment / in-bounds for trailing sections, lengths
/// consistent with the header counts, fp_keys present — InvalidArgument
/// naming it otherwise). Another version fails with NotSupported and a
/// request to rebuild. Unknown trailing sections, the retired id 8
/// included, pass — they are recorded in the table and otherwise skipped
/// (forward compatibility). Does NOT touch section payloads.
Result<ArenaInfo> ParseArenaHeader(std::string_view data,
                                   const std::string& source);

/// The serving-safety check behind every unchecked read of a view, run at
/// every open (and by `gbda_indexctl verify`) in one pass over the tables:
/// graph_offsets and dict_label_start start at 0, are nondecreasing and end
/// at total_branches / dictionary_labels; the dictionary is strictly
/// ascending in content order (so its entries are distinct); and every id
/// is below dictionary_size and ascends within its graph. `info` must come
/// from ParseArenaHeader.
Status ValidateArenaTables(std::string_view data, const ArenaInfo& info,
                           const std::string& source);

/// Verifies every section's CRC32 against the table. Reads every byte —
/// tooling-grade (gbda_indexctl verify), opt-in on the serving path where
/// it would defeat lazy page faulting.
Status VerifyArenaChecksums(std::string_view data, const ArenaInfo& info,
                            const std::string& source);

}  // namespace gbda
