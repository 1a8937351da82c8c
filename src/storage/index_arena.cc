#include "storage/index_arena.h"

#include <cstring>
#include <fstream>
#include <limits>

#include "common/crc32.h"
#include "common/serialize.h"

namespace gbda {
namespace {

uint64_t AlignUp(uint64_t offset) {
  return (offset + kArenaSectionAlign - 1) & ~uint64_t{kArenaSectionAlign - 1};
}

/// Reads a u64 at an arbitrary (already bounds-checked) byte offset.
uint64_t ReadU64At(std::string_view data, size_t offset) {
  uint64_t v;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

Status ArenaError(const std::string& source, const std::string& what) {
  return Status::InvalidArgument("index arena: " + what + " in " + source);
}

}  // namespace

const char* ArenaSectionName(uint32_t id) {
  switch (id) {
    case kSecBranchStart:
      return "branch_start";
    case kSecRoots:
      return "roots";
    case kSecLabelStart:
      return "label_start";
    case kSecLabels:
      return "labels";
    case kSecGbdPrior:
      return "gbd_prior";
    case kSecGedPrior:
      return "ged_prior";
    case kSecAnnGraph:
      return "ann_graph";
    case kSecGraphSizes:
      return "graph_sizes";
    case kSecFpOffsets:
      return "fp_offsets";
    case kSecFpKeys:
      return "fp_keys";
    case kSecFpUnique:
      return "fp_unique";
    case kSecFpRep:
      return "fp_rep";
  }
  return "unknown";
}

Result<std::string> BuildArena(const IndexReader& index,
                               const ProximityGraph* ann_graph) {
  const size_t num_graphs = index.num_graphs();
  // The format has no staleness field, so a drifted Lambda2 must be refit
  // first. The empty index is the one exception — its prior cannot be refit
  // (a fit needs >= 2 graphs) and is vacuously consistent with the (empty)
  // corpus.
  if (index.gbd_staleness() != 0 && num_graphs != 0) {
    return Status::FailedPrecondition(
        "arena build: Lambda2 is stale (mutations since last fit); refit "
        "before persisting");
  }

  // Flatten the branch store. Works from any IndexReader backing: an owned
  // index walks its multisets, a mapped view copies its own arena slices.
  std::vector<uint64_t> branch_start(num_graphs + 1, 0);
  std::vector<uint32_t> roots;
  std::vector<uint64_t> label_start;
  std::vector<LabelId> labels;
  uint64_t total_branches = 0;
  for (size_t g = 0; g < num_graphs; ++g) {
    total_branches += index.branch_set(g).size();
    branch_start[g + 1] = total_branches;
  }
  roots.reserve(static_cast<size_t>(total_branches));
  label_start.reserve(static_cast<size_t>(total_branches) + 1);
  label_start.push_back(0);
  for (size_t g = 0; g < num_graphs; ++g) {
    const BranchSetRef set = index.branch_set(g);
    for (size_t b = 0; b < set.size(); ++b) {
      roots.push_back(set.root(b));
      const Span<const LabelId> edge_labels = set.edge_labels(b);
      labels.insert(labels.end(), edge_labels.begin(), edge_labels.end());
      label_start.push_back(labels.size());
    }
  }

  BinaryWriter gbd_blob;
  index.gbd_prior().Serialize(&gbd_blob);
  BinaryWriter ged_blob;
  index.mutable_ged_prior()->Serialize(&ged_blob);
  std::string ann_blob;
  if (ann_graph != nullptr) {
    if (ann_graph->num_nodes() != num_graphs) {
      return Status::FailedPrecondition(
          "arena build: proximity graph covers " +
          std::to_string(ann_graph->num_nodes()) +
          " nodes but the index holds " + std::to_string(num_graphs) +
          " graphs");
    }
    ann_blob = SerializeProximityGraph(*ann_graph);
  }

  // Candidate columns come from the backing: a mapped view re-persists its
  // own sections byte-identically, an owned index hands over its lazy
  // cache. Both hold what BuildCandidateColumns computes — a deterministic
  // function of the branch data.
  const CandidateColumns columns = index.columns();

  struct SectionBytes {
    uint32_t id;
    const char* data;
    uint64_t length;
  };
  std::vector<SectionBytes> sections = {
      {kSecBranchStart, reinterpret_cast<const char*>(branch_start.data()),
       branch_start.size() * sizeof(uint64_t)},
      {kSecRoots, reinterpret_cast<const char*>(roots.data()),
       roots.size() * sizeof(uint32_t)},
      {kSecLabelStart, reinterpret_cast<const char*>(label_start.data()),
       label_start.size() * sizeof(uint64_t)},
      {kSecLabels, reinterpret_cast<const char*>(labels.data()),
       labels.size() * sizeof(LabelId)},
      {kSecGbdPrior, gbd_blob.buffer().data(), gbd_blob.buffer().size()},
      {kSecGedPrior, ged_blob.buffer().data(), ged_blob.buffer().size()},
  };
  if (ann_graph != nullptr) {
    sections.push_back({kSecAnnGraph, ann_blob.data(), ann_blob.size()});
  }
  sections.push_back({kSecGraphSizes,
                      reinterpret_cast<const char*>(columns.sizes),
                      num_graphs * sizeof(uint32_t)});
  sections.push_back({kSecFpOffsets,
                      reinterpret_cast<const char*>(columns.fp_offsets),
                      (num_graphs + 1) * sizeof(uint64_t)});
  sections.push_back({kSecFpKeys,
                      reinterpret_cast<const char*>(columns.fp_keys),
                      total_branches * sizeof(uint64_t)});
  if (columns.exactness_certified()) {
    sections.push_back({kSecFpUnique,
                        reinterpret_cast<const char*>(columns.fp_unique),
                        columns.num_distinct * sizeof(uint64_t)});
    sections.push_back({kSecFpRep,
                        reinterpret_cast<const char*>(columns.fp_rep),
                        columns.num_distinct * sizeof(uint64_t)});
  }
  const uint32_t section_count = static_cast<uint32_t>(sections.size());
  const size_t header_bytes = ArenaHeaderBytes(section_count);

  // Lay out the sections: each starts 64-byte aligned after the header.
  std::vector<uint64_t> offsets(section_count);
  uint64_t cursor = AlignUp(header_bytes);
  for (size_t s = 0; s < section_count; ++s) {
    offsets[s] = cursor;
    cursor = AlignUp(cursor + sections[s].length);
  }
  const uint64_t file_bytes = cursor;

  // Meta block (covered by meta_crc): scalars + section table.
  BinaryWriter meta;
  const GbdaIndexOptions& options = index.options();
  meta.PutI64(options.tau_max);
  meta.PutU64(options.gbd_prior.num_sample_pairs);
  meta.PutU64(options.seed);
  meta.PutDouble(options.gbd_prior.probability_floor);
  meta.PutI64(options.gbd_prior.gmm.num_components);
  meta.PutI64(options.gbd_prior.gmm.max_iterations);
  meta.PutDouble(options.gbd_prior.gmm.tolerance);
  meta.PutDouble(options.gbd_prior.gmm.stddev_floor);
  meta.PutU64(options.gbd_prior.gmm.seed);
  meta.PutI64(index.num_vertex_labels());
  meta.PutI64(index.num_edge_labels());
  meta.PutDouble(index.avg_vertices());
  meta.PutU64(num_graphs);
  meta.PutU64(total_branches);
  meta.PutU64(labels.size());
  for (size_t s = 0; s < section_count; ++s) {
    meta.PutU32(sections[s].id);
    meta.PutU32(0);  // reserved
    meta.PutU64(offsets[s]);
    meta.PutU64(sections[s].length);
    meta.PutU32(Crc32(sections[s].data, sections[s].length));
    meta.PutU32(0);  // reserved
  }

  BinaryWriter header;
  header.PutU32(kArenaMagic);
  header.PutU32(kArenaVersion);
  header.PutU32(kArenaEndianTag);
  header.PutU32(section_count);
  header.PutU64(file_bytes);
  header.PutU32(Crc32(meta.buffer().data(), meta.buffer().size()));
  header.PutU32(0);  // reserved

  std::string arena;
  arena.reserve(static_cast<size_t>(file_bytes));
  arena.append(header.buffer());
  arena.append(meta.buffer());
  for (size_t s = 0; s < section_count; ++s) {
    arena.resize(static_cast<size_t>(offsets[s]), '\0');  // alignment pad
    if (sections[s].length > 0) {
      arena.append(sections[s].data, static_cast<size_t>(sections[s].length));
    }
  }
  arena.resize(static_cast<size_t>(file_bytes), '\0');
  return arena;
}

Status WriteArenaFile(const IndexReader& index, const std::string& path,
                      const ProximityGraph* ann_graph) {
  Result<std::string> arena = BuildArena(index, ann_graph);
  if (!arena.ok()) return arena.status();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(arena->data(), static_cast<std::streamsize>(arena->size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ArenaInfo> ParseArenaHeader(std::string_view data,
                                   const std::string& source) {
  if (data.size() < kArenaPreambleBytes) {
    return ArenaError(source, "file smaller than the fixed preamble");
  }
  BinaryReader reader(data, source);
  ArenaInfo info;
  const uint32_t magic = *reader.GetU32();
  if (magic != kArenaMagic) {
    return Status::InvalidArgument("not a GBDA v3 arena artifact: " + source);
  }
  info.version = *reader.GetU32();
  if (info.version != kArenaVersion) {
    return Status::NotSupported("unsupported arena version " +
                                std::to_string(info.version) + " in " +
                                source);
  }
  const uint32_t endian = *reader.GetU32();
  if (endian != kArenaEndianTag) {
    return ArenaError(source,
                      "endianness tag mismatch (artifact written on a "
                      "foreign-endian host)");
  }
  // The canonical six plus the trailing sections (capped so a corrupt
  // count cannot drive a huge table read). The floor is six rather than
  // nine so a pre-column artifact reaches the missing-section check below
  // and its error names what to do.
  const uint32_t section_count = *reader.GetU32();
  if (section_count < kArenaSectionCount ||
      section_count > kMaxArenaSectionCount) {
    return ArenaError(source, "unexpected section count");
  }
  const size_t header_bytes = ArenaHeaderBytes(section_count);
  if (data.size() < header_bytes) {
    return ArenaError(source, "file smaller than its declared header");
  }
  info.file_bytes = *reader.GetU64();
  if (info.file_bytes != data.size()) {
    return ArenaError(source, "header file size disagrees with actual size");
  }
  const uint32_t meta_crc = *reader.GetU32();
  (void)*reader.GetU32();  // reserved
  const uint32_t actual_meta_crc =
      Crc32(data.data() + kArenaPreambleBytes,
            header_bytes - kArenaPreambleBytes);
  if (meta_crc != actual_meta_crc) {
    return Status::DataLoss("index arena: header CRC32 mismatch in " + source);
  }

  info.options.tau_max = *reader.GetI64();
  info.options.gbd_prior.num_sample_pairs = *reader.GetU64();
  info.options.seed = *reader.GetU64();
  info.options.gbd_prior.probability_floor = *reader.GetDouble();
  const int64_t ncomp = *reader.GetI64();
  const int64_t iters = *reader.GetI64();
  info.options.gbd_prior.gmm.tolerance = *reader.GetDouble();
  info.options.gbd_prior.gmm.stddev_floor = *reader.GetDouble();
  info.options.gbd_prior.gmm.seed = *reader.GetU64();
  info.num_vertex_labels = *reader.GetI64();
  info.num_edge_labels = *reader.GetI64();
  info.avg_vertices = *reader.GetDouble();
  info.num_graphs = *reader.GetU64();
  info.total_branches = *reader.GetU64();
  info.total_labels = *reader.GetU64();
  // Validated before the narrowing casts; the rest funnels through the
  // shared header plausibility check.
  if (ncomp < 1 || ncomp > std::numeric_limits<int>::max() || iters < 1 ||
      iters > std::numeric_limits<int>::max()) {
    return ArenaError(source, "implausible prior options");
  }
  info.options.gbd_prior.gmm.num_components = static_cast<int>(ncomp);
  info.options.gbd_prior.gmm.max_iterations = static_cast<int>(iters);
  Status header_ok = ValidatePersistedIndexHeader(
      info.options, info.num_vertex_labels, info.num_edge_labels,
      info.avg_vertices);
  if (!header_ok.ok()) return ArenaError(source, header_ok.message());

  // Count plausibility before any (num + 1) * width arithmetic can wrap.
  if (info.num_graphs > data.size() / sizeof(uint64_t) ||
      info.total_branches > data.size() / sizeof(uint32_t) ||
      info.total_labels > data.size() / sizeof(LabelId)) {
    return ArenaError(source, "element counts exceed file size");
  }
  const uint64_t expected_lengths[kArenaSectionCount] = {
      (info.num_graphs + 1) * sizeof(uint64_t),
      info.total_branches * sizeof(uint32_t),
      (info.total_branches + 1) * sizeof(uint64_t),
      info.total_labels * sizeof(LabelId),
      0,  // prior blobs: any length, bounds-checked below
      0,
  };

  info.sections.reserve(section_count);
  uint64_t previous_end = header_bytes;
  uint32_t previous_id = 0;
  for (uint32_t s = 0; s < section_count; ++s) {
    ArenaSectionInfo sec;
    sec.id = *reader.GetU32();
    (void)*reader.GetU32();  // reserved
    sec.offset = *reader.GetU64();
    sec.length = *reader.GetU64();
    sec.crc32 = *reader.GetU32();
    (void)*reader.GetU32();  // reserved
    if (s < kArenaSectionCount) {
      // Canonical six: exactly ids 1..6 in order.
      if (sec.id != s + 1) {
        return ArenaError(source, "section table not in canonical order");
      }
    } else if (sec.id <= previous_id) {
      // Trailing optional sections: strictly increasing ids (hence > 6).
      // The id itself may be unknown to this build — it is structurally
      // validated and recorded, then skipped by consumers.
      return ArenaError(source,
                        "trailing section ids not strictly increasing");
    }
    previous_id = sec.id;
    if (sec.offset % kArenaSectionAlign != 0) {
      return ArenaError(source, std::string("section '") +
                                    ArenaSectionName(sec.id) +
                                    "' is misaligned");
    }
    if (sec.offset < previous_end || sec.offset > data.size() ||
        sec.length > data.size() - sec.offset) {
      return ArenaError(source, std::string("section '") +
                                    ArenaSectionName(sec.id) +
                                    "' lies outside the file");
    }
    if (s < 4 && sec.length != expected_lengths[s]) {
      return ArenaError(source, std::string("section '") +
                                    ArenaSectionName(sec.id) +
                                    "' length disagrees with header counts");
    }
    // Known trailing sections with count-determined lengths get the same
    // exact check as the canonical arrays; unknown ids stay length-free.
    uint64_t expected_trailing = 0;
    bool check_trailing = true;
    switch (sec.id) {
      case kSecGraphSizes:
        expected_trailing = info.num_graphs * sizeof(uint32_t);
        break;
      case kSecFpOffsets:
        expected_trailing = (info.num_graphs + 1) * sizeof(uint64_t);
        break;
      case kSecFpKeys:
        expected_trailing = info.total_branches * sizeof(uint64_t);
        break;
      default:
        check_trailing = false;
        break;
    }
    if (check_trailing && sec.length != expected_trailing) {
      return ArenaError(source, std::string("section '") +
                                    ArenaSectionName(sec.id) +
                                    "' length disagrees with header counts");
    }
    // The directory holds whole u64 entries for (at most) one distinct
    // fingerprint per branch.
    if ((sec.id == kSecFpUnique || sec.id == kSecFpRep) &&
        (sec.length % sizeof(uint64_t) != 0 ||
         sec.length / sizeof(uint64_t) > info.total_branches)) {
      return ArenaError(source, std::string("section '") +
                                    ArenaSectionName(sec.id) +
                                    "' length is not a plausible directory");
    }
    previous_end = sec.offset + sec.length;
    info.sections.push_back(sec);
  }

  // The candidate columns 8..10 are mandatory: fp_keys is the only copy of
  // the branch fingerprints the scan and the navigator read.
  std::string missing;
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys}) {
    if (info.FindSection(id) == nullptr) {
      missing += std::string(missing.empty() ? "" : ", ") +
                 ArenaSectionName(id) + " (" + std::to_string(id) + ")";
    }
  }
  if (!missing.empty()) {
    return Status::InvalidArgument(
        "index arena: " + source +
        " lacks the mandatory candidate-column section(s) " + missing +
        "; rebuild the artifact from its database (gbda_indexctl build)");
  }
  // The optional exactness directory is a parallel pair.
  const ArenaSectionInfo* fp_unique = info.FindSection(kSecFpUnique);
  const ArenaSectionInfo* fp_rep = info.FindSection(kSecFpRep);
  if ((fp_unique != nullptr) != (fp_rep != nullptr)) {
    return ArenaError(source, "partial exactness-directory section pair");
  }
  if (fp_unique != nullptr) {
    if (fp_unique->length != fp_rep->length) {
      return ArenaError(source,
                        "fp_unique and fp_rep lengths disagree (the "
                        "directory arrays are parallel)");
    }
  }
  return info;
}

Status ValidateArenaOffsets(std::string_view data, const ArenaInfo& info,
                            const std::string& source) {
  // branch_start: [0 .. total_branches], nondecreasing.
  const ArenaSectionInfo& bs = info.sections[0];
  uint64_t prev = ReadU64At(data, static_cast<size_t>(bs.offset));
  if (prev != 0) {
    return ArenaError(source, "branch_start[0] != 0");
  }
  for (uint64_t g = 1; g <= info.num_graphs; ++g) {
    const uint64_t cur = ReadU64At(
        data, static_cast<size_t>(bs.offset + g * sizeof(uint64_t)));
    if (cur < prev) {
      return ArenaError(source, "branch_start is not nondecreasing");
    }
    prev = cur;
  }
  if (prev != info.total_branches) {
    return ArenaError(source,
                      "branch_start does not end at total_branches");
  }
  // label_start: [0 .. total_labels], nondecreasing.
  const ArenaSectionInfo& ls = info.sections[2];
  prev = ReadU64At(data, static_cast<size_t>(ls.offset));
  if (prev != 0) {
    return ArenaError(source, "label_start[0] != 0");
  }
  for (uint64_t b = 1; b <= info.total_branches; ++b) {
    const uint64_t cur = ReadU64At(
        data, static_cast<size_t>(ls.offset + b * sizeof(uint64_t)));
    if (cur < prev) {
      return ArenaError(source, "label_start is not nondecreasing");
    }
    prev = cur;
  }
  if (prev != info.total_labels) {
    return ArenaError(source, "label_start does not end at total_labels");
  }
  return Status::OK();
}

Status ValidateArenaColumns(std::string_view data, const ArenaInfo& info,
                            const std::string& source) {
  const ArenaSectionInfo* sizes = info.FindSection(kSecGraphSizes);
  const ArenaSectionInfo* fp_offsets = info.FindSection(kSecFpOffsets);
  const ArenaSectionInfo* branch_start = &info.sections[0];
  // graph_sizes must be the branch_start deltas (which also proves each
  // fits u32), and fp_offsets must BE branch_start: one fingerprint per
  // branch is what lets the scan address fp_keys with the same ranges it
  // uses for branches.
  for (uint64_t g = 0; g < info.num_graphs; ++g) {
    const uint64_t lo = ReadU64At(
        data, static_cast<size_t>(branch_start->offset + g * sizeof(uint64_t)));
    const uint64_t hi =
        ReadU64At(data, static_cast<size_t>(branch_start->offset +
                                            (g + 1) * sizeof(uint64_t)));
    uint32_t size;
    std::memcpy(&size,
                data.data() + sizes->offset + g * sizeof(uint32_t),
                sizeof(size));
    if (static_cast<uint64_t>(size) != hi - lo) {
      return ArenaError(source,
                        "graph_sizes disagrees with branch_start deltas");
    }
  }
  for (uint64_t g = 0; g <= info.num_graphs; ++g) {
    const uint64_t off = ReadU64At(
        data, static_cast<size_t>(fp_offsets->offset + g * sizeof(uint64_t)));
    const uint64_t bs = ReadU64At(
        data, static_cast<size_t>(branch_start->offset + g * sizeof(uint64_t)));
    if (off != bs) {
      return ArenaError(source, "fp_offsets disagrees with branch_start");
    }
  }

  const ArenaSectionInfo* fp_unique = info.FindSection(kSecFpUnique);
  if (fp_unique == nullptr) return Status::OK();
  const ArenaSectionInfo* fp_rep = info.FindSection(kSecFpRep);
  const uint64_t num_distinct = fp_unique->length / sizeof(uint64_t);
  // fp_unique strictly ascending (a set, and binary-searchable); every
  // fp_rep entry in-bounds — the check that makes the query-side audit's
  // branch_set() dereferences safe on an untrusted artifact.
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < num_distinct; ++i) {
    const uint64_t key = ReadU64At(
        data, static_cast<size_t>(fp_unique->offset + i * sizeof(uint64_t)));
    if (i > 0 && key <= prev_key) {
      return ArenaError(source, "fp_unique is not strictly ascending");
    }
    prev_key = key;
    const uint64_t rep = ReadU64At(
        data, static_cast<size_t>(fp_rep->offset + i * sizeof(uint64_t)));
    const uint64_t graph = rep >> 32;
    const uint64_t branch = rep & 0xFFFFFFFFull;
    if (graph >= info.num_graphs) {
      return ArenaError(source, "fp_rep names an out-of-range graph");
    }
    const uint64_t lo = ReadU64At(
        data,
        static_cast<size_t>(branch_start->offset + graph * sizeof(uint64_t)));
    const uint64_t hi =
        ReadU64At(data, static_cast<size_t>(branch_start->offset +
                                            (graph + 1) * sizeof(uint64_t)));
    if (branch >= hi - lo) {
      return ArenaError(source, "fp_rep names an out-of-range branch");
    }
  }
  return Status::OK();
}

Status VerifyArenaChecksums(std::string_view data, const ArenaInfo& info,
                            const std::string& source) {
  for (const ArenaSectionInfo& sec : info.sections) {
    const uint32_t actual =
        Crc32(data.data() + sec.offset, static_cast<size_t>(sec.length));
    if (actual != sec.crc32) {
      return Status::DataLoss(
          std::string("index arena: CRC32 mismatch in section '") +
          ArenaSectionName(sec.id) + "' (bytes " + std::to_string(sec.offset) +
          ".." + std::to_string(sec.offset + sec.length) + ") of " + source);
    }
  }
  return Status::OK();
}

}  // namespace gbda
