/// \file index_arena.h
/// The v3 index artifact, the one persisted form of a GBDA index: a single
/// relocatable arena of offset-based tables designed to be mmap'ed and
/// queried in place (docs/ARCHITECTURE.md, "Storage engine"). It lays the
/// offline state out as four flat branch arrays, two small prior blobs and
/// the SoA candidate columns, so opening it never decodes per branch:
///
///   offset 0                                    (all integers little-endian)
///   +--------------------------------------------------------------+
///   | magic 'GBA3' | version 3 | endian tag | section count N >= 9 |
///   | file_bytes u64 | meta_crc u32 | reserved u32                 |
///   +-- meta block (covered by meta_crc) --------------------------+
///   | tau_max, GbdPriorOptions fields, seed, |L_V|, |L_E|,         |
///   | avg_vertices, num_graphs, total_branches, total_labels       |
///   | section table: N x {id, reserved, offset u64, length u64,    |
///   |                     crc32, reserved}                         |
///   +-- sections, each offset 64-byte aligned, zero-padded --------+
///   | 1 branch_start  u64[num_graphs + 1]   graph -> branch range  |
///   | 2 roots         u32[total_branches]   branch root labels     |
///   | 3 label_start   u64[total_branches+1] branch -> label range  |
///   | 4 labels        u32[total_labels]     ascending edge labels  |
///   | 5 gbd_prior     serialized GbdPrior blob (Lambda2)           |
///   | 6 ged_prior     serialized GedPriorTable blob (Lambda3)      |
///   | 7 ann_graph     optional proximity graph (ann/proximity_-    |
///   |                 graph.h payload), mmap'd by approximate mode |
///   | 8..10 candidate columns (SoA, read in place by the batched   |
///   |                 scan kernels): graph_sizes / fp_offsets /    |
///   |                 fp_keys — MANDATORY                          |
///   | 11..12          optional fp_unique+fp_rep exactness          |
///   |                 directory (see ArenaSectionId)               |
///   +--------------------------------------------------------------+
///
/// The first six sections are canonical (ids 1..6 in order); trailing
/// sections follow with strictly increasing ids. Of those, the
/// candidate-column group 8..10 is mandatory: an artifact without it fails
/// at open with a request to rebuild (fp_keys is the index's only copy of
/// the branch fingerprints). Everything else trailing is OPTIONAL. A reader
/// structurally validates (and CRC-covers) every trailing section but SKIPS
/// ids it does not know — forward compatibility: an artifact written by a
/// newer build with an extra section still opens here, minus that
/// section's feature. A known-id optional section with an unreadable
/// payload (e.g. an ann_graph from a future format revision) degrades the
/// same way on the serving path instead of failing the open.
///
/// Graph g's branch multiset is branches [branch_start[g], branch_start[g+1])
/// and branch b's edge labels are labels [label_start[b], label_start[b+1]) —
/// exactly the flat backing BranchSetRef (core/branch.h) reads in place, so
/// opening an artifact costs header validation plus the (small) prior
/// decodes, never a per-branch allocation. Offsets are file-absolute and the
/// arena is position-independent: any base address works.
///
/// Contract (also documented in docs/ARCHITECTURE.md):
///   - little-endian only; the endian tag makes a foreign-order artifact
///     fail loudly at open instead of decoding garbage;
///   - section offsets are 64-byte aligned, so casting the mapped bytes to
///     u32/u64 arrays is valid on every supported platform and rows start
///     cache-line aligned;
///   - every section carries a CRC32 (common/crc32.h); structural offset
///     validation always runs at open, checksum verification is opt-in
///     (it touches every page, which defeats lazy faulting on the serving
///     path — tooling and `gbda_indexctl verify` turn it on).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ann/proximity_graph.h"
#include "common/result.h"
#include "core/gbda_index.h"  // GbdaIndexOptions, IndexReader, header checks

namespace gbda {

// -- Format constants --------------------------------------------------------

inline constexpr uint32_t kArenaMagic = 0x33414247;  // "GBA3"
inline constexpr uint32_t kArenaVersion = 3;
/// Written as 0x01020304; a big-endian writer would produce 0x04030201.
inline constexpr uint32_t kArenaEndianTag = 0x01020304;
/// The canonical sections every artifact leads with (ids 1..6, in order;
/// the mandatory column group 8..10 follows among the trailing sections).
inline constexpr uint32_t kArenaSectionCount = 6;
/// Sanity cap on the declared section count: far above anything this
/// format family will ever need, low enough that a corrupt count cannot
/// drive a huge header allocation.
inline constexpr uint32_t kMaxArenaSectionCount = 64;
inline constexpr size_t kArenaSectionAlign = 64;

/// Section ids. Ids 1..6 appear first in exactly this order; higher ids are
/// trailing sections in strictly increasing order. 8..10 are mandatory;
/// the rest are optional (unknown ones are skipped by readers — see the
/// file comment).
enum ArenaSectionId : uint32_t {
  kSecBranchStart = 1,
  kSecRoots = 2,
  kSecLabelStart = 3,
  kSecLabels = 4,
  kSecGbdPrior = 5,
  kSecGedPrior = 6,
  /// Serialized proximity graph (SerializeProximityGraph payload) for
  /// approximate candidate navigation; present only when the artifact was
  /// built with one (gbda_indexctl build --ann / graph).
  kSecAnnGraph = 7,
  /// SoA candidate columns (core/index_reader.h, CandidateColumns): the
  /// batched scan kernels read these in place. MANDATORY as a group — the
  /// writer always emits all three and ParseArenaHeader rejects an artifact
  /// missing any of them (a zero-graph artifact lists them with empty
  /// graph_sizes / fp_keys payloads):
  ///   8  graph_sizes  u32[num_graphs]        per-graph branch counts
  ///   9  fp_offsets   u64[num_graphs + 1]    == branch_start (one
  ///                                          fingerprint per branch)
  ///   10 fp_keys      u64[total_branches]    per-graph ASCENDING FNV
  ///                                          branch-fingerprint keys
  kSecGraphSizes = 8,
  kSecFpOffsets = 9,
  kSecFpKeys = 10,
  /// The optional exactness directory (a both-or-neither pair): ascending
  /// distinct fingerprints over the whole corpus plus one
  /// representative branch each, packed (graph_id << 32 | branch_index).
  /// Emitted only when the fingerprint -> branch-content mapping is
  /// injective corpus-wide, which lets audited queries score candidates on
  /// fingerprints alone (core/candidate_columns.h).
  kSecFpUnique = 11,
  kSecFpRep = 12,
};

/// Human-readable section name ("branch_start", ...), for diagnostics.
const char* ArenaSectionName(uint32_t id);

/// Fixed byte ranges of the header (kept explicit so tooling in other
/// languages can parse the preamble without this library).
inline constexpr size_t kArenaPreambleBytes = 32;  // magic..reserved
inline constexpr size_t kArenaMetaScalarBytes = 15 * 8;
inline constexpr size_t kArenaSectionEntryBytes = 32;
/// Header size of an artifact declaring `section_count` sections: the
/// preamble, the meta scalars, then one table entry per section.
constexpr size_t ArenaHeaderBytes(uint32_t section_count) {
  return kArenaPreambleBytes + kArenaMetaScalarBytes +
         section_count * kArenaSectionEntryBytes;
}
/// Header size of the six canonical entries alone: a lower bound on every
/// artifact's header (each also lists the mandatory column group).
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
  uint64_t total_labels = 0;
  /// Every table entry, canonical then trailing — including trailing
  /// sections this build does not understand (so checksum verification
  /// still covers them).
  std::vector<ArenaSectionInfo> sections;

  /// The table entry with the given id, or nullptr when absent (optional
  /// trailing sections; the canonical six are always sections[id - 1], and
  /// a parsed header always holds 8..10).
  const ArenaSectionInfo* FindSection(uint32_t id) const {
    for (const ArenaSectionInfo& sec : sections) {
      if (sec.id == id) return &sec;
    }
    return nullptr;
  }
};

// -- Building / inspecting ---------------------------------------------------

/// Serializes `index` (any IndexReader — an owned GbdaIndex or a mapped
/// view) into a v3 arena: the six canonical sections, the optional
/// ann_graph, the mandatory candidate columns and, when the corpus
/// certifies it, the exactness directory. Fails on a stale Lambda2 (the
/// format carries no staleness) — except for the empty index, whose prior
/// is vacuously unfittable and is persisted as-is.
/// A non-null `ann_graph` (which must cover exactly index.num_graphs()
/// nodes) is written as section 7; null omits it.
Result<std::string> BuildArena(const IndexReader& index,
                               const ProximityGraph* ann_graph = nullptr);

/// BuildArena, then one write of the whole buffer over `path` (truncating).
/// Neither atomic nor fsynced: a crash mid-write can leave a torn file under
/// `path`, which the header's file_bytes check and the CRCs reject at open.
Status WriteArenaFile(const IndexReader& index, const std::string& path,
                      const ProximityGraph* ann_graph = nullptr);

/// Parses and validates the fixed header of `data` (a whole mapped
/// artifact): magic/version/endianness, meta CRC, header plausibility
/// (core ValidatePersistedIndexHeader), and the section table's structural
/// invariants (canonical order for the leading six, strictly increasing
/// ids / 64-byte alignment / in-bounds for trailing sections, lengths
/// consistent with the graph/branch/label counts, the mandatory column
/// group 8..10 present — InvalidArgument naming the missing sections
/// otherwise). Unknown trailing sections pass — they are recorded in the
/// table and otherwise skipped (forward compatibility). Does NOT touch
/// section payloads.
Result<ArenaInfo> ParseArenaHeader(std::string_view data,
                                   const std::string& source);

/// Validates the two offset tables: branch_start and label_start must start
/// at 0, be nondecreasing, and end at total_branches / total_labels. This is
/// the serving-safety check — it is what makes unchecked per-branch access
/// through BranchSetRef in-bounds — so GbdaIndexView runs it at every open.
/// O(total_branches) sequential reads of the two (small) offset sections.
Status ValidateArenaOffsets(std::string_view data, const ArenaInfo& info,
                            const std::string& source);

/// Validates the candidate-column sections (8..10, and 11..12 when
/// present) — the serving-safety companion to ValidateArenaOffsets for the
/// column scan path: graph_sizes must equal the branch_start deltas (and
/// hence fit u32), fp_offsets must equal branch_start elementwise,
/// fp_unique must be strictly ascending, and every fp_rep entry must name
/// an in-bounds branch (graph_id < num_graphs, branch_index < that graph's
/// size) — the check that makes the query-side collision audit's
/// branch_set() dereferences in-bounds. `info` must come from
/// ParseArenaHeader. Runs at every view open and under
/// `gbda_indexctl verify`.
Status ValidateArenaColumns(std::string_view data, const ArenaInfo& info,
                            const std::string& source);

/// Verifies every section's CRC32 against the table. Reads every byte —
/// tooling-grade (gbda_indexctl verify), opt-in on the serving path where
/// it would defeat lazy page faulting.
Status VerifyArenaChecksums(std::string_view data, const ArenaInfo& info,
                            const std::string& source);

}  // namespace gbda
