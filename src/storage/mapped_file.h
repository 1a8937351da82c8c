/// \file mapped_file.h
/// RAII read-only memory mapping, the substrate of the zero-copy storage
/// engine (docs/ARCHITECTURE.md, "Storage engine"). A MappedFile maps a
/// whole artifact PROT_READ / MAP_PRIVATE, optionally advising the kernel
/// to fault pages in ahead of the first scan (MADV_WILLNEED), and unmaps on
/// destruction. Mappings of the same artifact share physical pages through
/// the OS page cache, so N serving replicas pay for the artifact once.

#pragma once

#include <cstddef>
#include <string>

#include "common/result.h"

namespace gbda {

class MappedFile {
 public:
  /// Maps `path` read-only. `prefetch` issues MADV_WILLNEED over the whole
  /// range — right for a serving replica that will scan the arena soon;
  /// pass false for tooling that only touches the header. Fails on missing
  /// or empty files (no valid artifact is empty) and on platforms without
  /// mmap support.
  static Result<MappedFile> OpenReadOnly(const std::string& path,
                                         bool prefetch = true);

  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Base of the mapping (page-aligned); nullptr when default-constructed.
  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  /// Unmaps (when mapped) and returns to the default-constructed state.
  void Reset();

  void* addr_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace gbda
