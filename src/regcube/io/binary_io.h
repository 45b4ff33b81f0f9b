#ifndef REGCUBE_IO_BINARY_IO_H_
#define REGCUBE_IO_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "regcube/common/status.h"

namespace regcube {

/// Appends fixed-width little-endian primitives to an in-memory buffer.
/// All regcube on-disk formats are built from these primitives, then
/// written atomically with WriteFile (checkpoints must never be torn).
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(std::uint8_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteDouble(double v);
  /// Length-prefixed (u32) byte string.
  void WriteString(std::string_view s);
  /// Raw bytes, no length prefix — for concatenating pre-encoded blocks
  /// whose sizes live in a table elsewhere (the frame-store format).
  void WriteRaw(std::string_view s);

  /// Pre-sizes the buffer for `n` bytes in total, so a caller that knows
  /// its output size appends without reallocating.
  void Reserve(std::size_t n) { buffer_.reserve(n); }

  /// Bytes written so far — the offset the next WriteRaw lands at.
  std::size_t size() const { return buffer_.size(); }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Reads the primitives back; every read is bounds-checked and returns
/// OutOfRange on truncation rather than reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// Raw view of the next `n` bytes (no length prefix); the view borrows
  /// the reader's underlying buffer.
  Result<std::string_view> ReadRaw(std::size_t n);

  /// Jumps to an absolute offset (the footer-directed seeks of the
  /// frame-store format). OutOfRange past the end.
  Status SeekTo(std::size_t offset);

  /// Bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  Status Need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Writes `data` to `path` via a temporary file + rename (atomic on POSIX).
Status WriteFile(const std::string& path, std::string_view data);

/// Reads the whole file.
Result<std::string> ReadFile(const std::string& path);

}  // namespace regcube

#endif  // REGCUBE_IO_BINARY_IO_H_
