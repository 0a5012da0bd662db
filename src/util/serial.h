#ifndef KUCNET_UTIL_SERIAL_H_
#define KUCNET_UTIL_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// Byte-level serialization for checkpoint files.
///
/// `ByteWriter` appends fixed-width host-endian scalars, length-prefixed
/// strings, and raw blobs into a growable buffer; `ByteReader` is the
/// bounds-checked inverse that reports truncation as a recoverable error
/// instead of reading past the end. Checkpoints are host-local artifacts
/// (written and read by the same machine), so no cross-endian translation is
/// attempted.
///
/// `Fnv1a64` is the integrity hash used by the checkpoint footer: cheap,
/// dependency-free, and plenty to detect torn or bit-flipped files (this is
/// corruption detection, not cryptography).

namespace kucnet {

/// FNV-1a 64-bit hash of `n` bytes, chainable via `seed`.
uint64_t Fnv1a64(const void* data, size_t n,
                 uint64_t seed = 14695981039346656037ULL);

/// Appends binary fields to an in-memory buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { Bytes(&v, 1); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }

  /// Length-prefixed string.
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  /// Raw bytes, no length prefix.
  void Bytes(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte buffer. All reads fail (returning a
/// descriptive Status) instead of running past the end; after the first
/// failure every subsequent read also fails, so call sites may batch reads
/// and check once.
class ByteReader {
 public:
  ByteReader(const void* data, size_t n)
      : p_(static_cast<const char*>(data)), end_(p_ + n) {}
  explicit ByteReader(const std::string& buf) : ByteReader(buf.data(), buf.size()) {}

  Status U8(uint8_t* v) { return Raw(v, 1, "u8"); }
  Status U64(uint64_t* v) { return Raw(v, sizeof(*v), "u64"); }
  Status I64(int64_t* v) { return Raw(v, sizeof(*v), "i64"); }
  Status F64(double* v) { return Raw(v, sizeof(*v), "f64"); }

  Status Str(std::string* s);

  /// Reads exactly `n` raw bytes into `p`; a null `p` skips them.
  Status Raw(void* p, size_t n, const char* what = "bytes");

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool failed() const { return failed_; }

 private:
  const char* p_;
  const char* end_;
  bool failed_ = false;
};

}  // namespace kucnet

#endif  // KUCNET_UTIL_SERIAL_H_
