#include "storage/index_arena.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/serialize.h"

namespace gbda {
namespace {

uint64_t AlignUp(uint64_t offset) {
  return (offset + kArenaSectionAlign - 1) & ~uint64_t{kArenaSectionAlign - 1};
}

/// A section's payload as a typed array. Section offsets are 64-byte
/// aligned (checked by ParseArenaHeader), and so is any mapping.
template <typename T>
const T* SectionArray(std::string_view data, const ArenaSectionInfo& sec) {
  return reinterpret_cast<const T*>(data.data() + sec.offset);
}

Status ArenaError(const std::string& source, const std::string& what) {
  return Status::InvalidArgument("index arena: " + what + " in " + source);
}

Status IoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + ": " + path + " (" + std::strerror(errno) +
                         ")");
}

/// Writes `bytes` to `<path>.tmp.<pid>`, fsyncs it, renames it over `path`
/// and fsyncs the directory. The temp file is removed on any failure.
Status PublishFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot open for writing", tmp);
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno != EINTR) break;
    if (n > 0) done += static_cast<size_t>(n);
  }
  Status status = done < bytes.size() ? IoError("write failed", tmp)
                  : ::fsync(fd) != 0  ? IoError("fsync failed", tmp)
                                      : Status::OK();
  if (::close(fd) != 0 && status.ok()) status = IoError("close failed", tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = IoError("cannot rename into place", path);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  // The rename is durable once the directory entry is.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, std::max<size_t>(slash, 1));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || ::fsync(dir_fd) != 0) {
    status = IoError("cannot sync the directory of", path);
  }
  if (dir_fd >= 0) ::close(dir_fd);
  return status;
}

}  // namespace

const char* ArenaSectionName(uint32_t id) {
  static const char* const kNames[] = {
      "unknown",     "graph_offsets", "dict_roots", "dict_label_start",
      "dict_labels", "gbd_prior",     "ged_prior",  "ann_graph",
      "unknown",     "unknown",       "fp_keys"};
  return id < sizeof(kNames) / sizeof(kNames[0]) ? kNames[id] : "unknown";
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

  // The dictionary keeps the branches some graph holds, renumbered in
  // content order, and every graph's ids follow. After a fresh Build this
  // is the identity; after dynamic commits it drops dead entries and
  // re-sorts the graphs that hold appended ids.
  const CandidateColumns columns = index.columns();
  const uint64_t total_branches = columns.fp_offsets[num_graphs];
  std::vector<uint64_t> ids(columns.fp_keys, columns.fp_keys + total_branches);
  const BranchDictionary dictionary = index.dictionary().Renumbered(
      Span<const uint64_t>(columns.fp_offsets, num_graphs + 1), &ids);
  const BranchSetRef entries = dictionary.entries();
  const uint64_t dictionary_labels = entries.label_offsets()[entries.size()];

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

  struct SectionBytes {
    uint32_t id;
    const void* data;
    uint64_t length;
  };
  std::vector<SectionBytes> sections = {
      {kSecGraphOffsets, columns.fp_offsets,
       (num_graphs + 1) * sizeof(uint64_t)},
      {kSecDictRoots, entries.roots(), entries.size() * sizeof(uint32_t)},
      {kSecDictLabelStart, entries.label_offsets(),
       (entries.size() + 1) * sizeof(uint64_t)},
      {kSecDictLabels, entries.label_pool(),
       dictionary_labels * sizeof(LabelId)},
      {kSecGbdPrior, gbd_blob.buffer().data(), gbd_blob.buffer().size()},
      {kSecGedPrior, ged_blob.buffer().data(), ged_blob.buffer().size()},
  };
  if (ann_graph != nullptr) {
    sections.push_back({kSecAnnGraph, ann_blob.data(), ann_blob.size()});
  }
  sections.push_back({kSecFpKeys, ids.data(), ids.size() * sizeof(uint64_t)});
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
  meta.PutU64(entries.size());
  meta.PutU64(dictionary_labels);
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
      arena.append(static_cast<const char*>(sections[s].data),
                   static_cast<size_t>(sections[s].length));
    }
  }
  arena.resize(static_cast<size_t>(file_bytes), '\0');
  return arena;
}

Status WriteArenaFile(const IndexReader& index, const std::string& path,
                      const ProximityGraph* ann_graph) {
  Result<std::string> arena = BuildArena(index, ann_graph);
  if (!arena.ok()) return arena.status();
  return PublishFile(path, *arena);
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
    return Status::InvalidArgument("not a GBDA arena artifact: " + source);
  }
  info.version = *reader.GetU32();
  if (info.version != kArenaVersion) {
    return Status::NotSupported(
        "index arena: " + source + " has format version " +
        std::to_string(info.version) + ", this build reads version " +
        std::to_string(kArenaVersion) +
        "; rebuild the artifact from its database (gbda_indexctl build)");
  }
  const uint32_t endian = *reader.GetU32();
  if (endian != kArenaEndianTag) {
    return ArenaError(source,
                      "endianness tag mismatch (artifact written on a "
                      "foreign-endian host)");
  }
  // The canonical six plus the trailing sections (capped so a corrupt
  // count cannot drive a huge table read). The floor is six rather than
  // seven so an artifact without its ids reaches the missing-section check
  // below and its error names what to do.
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
  info.dictionary_size = *reader.GetU64();
  info.dictionary_labels = *reader.GetU64();
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
      info.total_branches > data.size() / sizeof(uint64_t) ||
      info.dictionary_size > data.size() / sizeof(uint32_t) ||
      info.dictionary_labels > data.size() / sizeof(LabelId)) {
    return ArenaError(source, "element counts exceed file size");
  }
  // The array sections' lengths follow from the header counts; the prior
  // blobs and the optional or unknown sections may have any length.
  constexpr uint64_t kAnyLength = ~uint64_t{0};
  const auto expected_length = [&info](uint32_t id) {
    switch (id) {
      case kSecGraphOffsets:
        return (info.num_graphs + 1) * sizeof(uint64_t);
      case kSecDictRoots:
        return info.dictionary_size * sizeof(uint32_t);
      case kSecDictLabelStart:
        return (info.dictionary_size + 1) * sizeof(uint64_t);
      case kSecDictLabels:
        return info.dictionary_labels * sizeof(LabelId);
      case kSecFpKeys:
        return info.total_branches * sizeof(uint64_t);
    }
    return kAnyLength;
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
    const uint64_t expected = expected_length(sec.id);
    if (expected != kAnyLength && sec.length != expected) {
      return ArenaError(source, std::string("section '") +
                                    ArenaSectionName(sec.id) +
                                    "' length disagrees with header counts");
    }
    previous_end = sec.offset + sec.length;
    info.sections.push_back(sec);
  }

  // fp_keys is mandatory: it is the only copy of the graphs' branches.
  if (info.FindSection(kSecFpKeys) == nullptr) {
    return Status::InvalidArgument(
        "index arena: " + source +
        " lacks the mandatory candidate-column section fp_keys (10); "
        "rebuild the artifact from its database (gbda_indexctl build)");
  }
  return info;
}

Status ValidateArenaTables(std::string_view data, const ArenaInfo& info,
                           const std::string& source) {
  // Graphs: offsets from 0 to total_branches, and each graph's ids
  // ascending and inside the dictionary.
  const uint64_t* offsets = SectionArray<uint64_t>(data, info.sections[0]);
  const uint64_t* ids =
      SectionArray<uint64_t>(data, *info.FindSection(kSecFpKeys));
  if (offsets[0] != 0) return ArenaError(source, "graph_offsets[0] != 0");
  for (uint64_t g = 0; g < info.num_graphs; ++g) {
    const uint64_t lo = offsets[g];
    const uint64_t hi = offsets[g + 1];
    if (hi < lo || hi > info.total_branches) {
      return ArenaError(source,
                        "graph_offsets is not nondecreasing within "
                        "total_branches");
    }
    // Ascending ids put the graph's largest id last.
    bool descends = false;
    for (uint64_t k = lo + 1; k < hi; ++k) descends |= ids[k] < ids[k - 1];
    if (descends) {
      return ArenaError(source, "fp_keys ids descend within a graph");
    }
    if (hi > lo && ids[hi - 1] >= info.dictionary_size) {
      return ArenaError(source, "fp_keys holds an id outside the dictionary");
    }
  }
  if (offsets[info.num_graphs] != info.total_branches) {
    return ArenaError(source, "graph_offsets does not end at total_branches");
  }

  // Dictionary: label offsets from 0 to dictionary_labels, entries strictly
  // ascending in content order (so distinct, and Find is unambiguous).
  const uint64_t* label_start =
      SectionArray<uint64_t>(data, info.sections[kSecDictLabelStart - 1]);
  if (label_start[0] != 0) {
    return ArenaError(source, "dict_label_start[0] != 0");
  }
  for (uint64_t d = 0; d < info.dictionary_size; ++d) {
    if (label_start[d + 1] < label_start[d]) {
      return ArenaError(source, "dict_label_start is not nondecreasing");
    }
  }
  if (label_start[info.dictionary_size] != info.dictionary_labels) {
    return ArenaError(source,
                      "dict_label_start does not end at dictionary_labels");
  }
  const BranchSetRef entries(
      SectionArray<uint32_t>(data, info.sections[kSecDictRoots - 1]),
      label_start,
      SectionArray<LabelId>(data, info.sections[kSecDictLabels - 1]),
      static_cast<size_t>(info.dictionary_size));
  for (size_t d = 1; d < entries.size(); ++d) {
    if (CompareBranches(entries.root(d - 1), entries.edge_labels(d - 1),
                        entries.root(d), entries.edge_labels(d)) >= 0) {
      return ArenaError(source,
                        "dictionary entries are not strictly ascending");
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
