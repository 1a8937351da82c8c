#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"

namespace gbda {

/// Tiny append-only binary encoder used for index persistence. Fixed-width
/// little-endian integers and IEEE doubles; strings and vectors are
/// length-prefixed. Matching decoder below returns Status on truncation.
class BinaryWriter {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU64(s.size());
    buffer_.append(s);
  }
  template <typename T>
  void PutPodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(v.size());
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }

 private:
  void PutRaw(const void* p, size_t n) {
    buffer_.append(static_cast<const char*>(p), n);
  }
  std::string buffer_;
};

/// Sequential decoder over a byte buffer; every getter checks bounds.
///
/// Pass a `source` (file path, section name) so every failure message names
/// the artifact and the byte offset of the bad record — corrupt-file triage
/// is actionable without a hex dump ("truncated vector at byte 18244 of
/// /data/aids.idx" instead of "truncated vector").
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data, std::string source = {})
      : data_(data), source_(std::move(source)) {}

  Result<uint32_t> GetU32() { return GetPod<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetPod<uint64_t>(); }
  Result<int64_t> GetI64() { return GetPod<int64_t>(); }
  Result<double> GetDouble() { return GetPod<double>(); }

  Result<std::string> GetString() {
    const size_t at = pos_;
    Result<uint64_t> len = GetU64();
    if (!len.ok()) return len.status();
    // Compare against the bytes left, never against pos_ + *len: a hostile
    // length prefix near UINT64_MAX would wrap that sum past data_.size().
    if (*len > remaining()) {
      return Status::OutOfRange(Describe("truncated string", at));
    }
    std::string out(data_.substr(pos_, static_cast<size_t>(*len)));
    pos_ += static_cast<size_t>(*len);
    return out;
  }

  template <typename T>
  Result<std::vector<T>> GetPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t at = pos_;
    Result<uint64_t> len = GetU64();
    if (!len.ok()) return len.status();
    // *len * sizeof(T) can wrap in uint64 (e.g. len = 2^61 + 1 with an
    // 8-byte T), so bound the element count, not the byte count.
    if (*len > remaining() / sizeof(T)) {
      return Status::OutOfRange(Describe("truncated vector", at));
    }
    const size_t bytes = static_cast<size_t>(*len) * sizeof(T);
    std::vector<T> out(static_cast<size_t>(*len));
    if (bytes > 0) std::memcpy(out.data(), data_.data() + pos_, bytes);
    pos_ += bytes;
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }
  /// Bytes left to decode. Decoders validate on-disk element counts against
  /// this before allocating (a corrupt count must never drive a huge
  /// allocation; see the wire decoders in net/codec.cc).
  size_t remaining() const { return data_.size() - pos_; }

  /// The artifact name failures are attributed to ("" when unnamed).
  const std::string& source() const { return source_; }
  /// "<what> at byte <offset> of <source>" — the error wording used by this
  /// reader's own failures, reusable by decoders layered on top of it (e.g.
  /// the wire codec, net/codec.cc) so the whole decode path reports
  /// uniformly.
  std::string Describe(const std::string& what, size_t offset) const {
    std::string msg = "binary decode: " + what + " at byte " +
                      std::to_string(offset);
    if (!source_.empty()) msg += " of " + source_;
    return msg;
  }
  std::string DescribeHere(const std::string& what) const {
    return Describe(what, pos_);
  }

 private:
  template <typename T>
  Result<T> GetPod() {
    if (sizeof(T) > remaining()) {
      return Status::OutOfRange(Describe("truncated value", pos_));
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::string source_;
  size_t pos_ = 0;
};

}  // namespace gbda
