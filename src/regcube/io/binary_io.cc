#include "regcube/io/binary_io.h"

#include <cstdio>
#include <cstring>

#include "regcube/common/str.h"

namespace regcube {
namespace {

template <typename T>
void AppendLe(std::string* out, T v) {
  // Serialized byte by byte, so the format is little-endian on any host;
  // the bytes go out in one append.
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(bytes, sizeof(T));
}

template <typename T>
T ParseLe(const char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void ByteWriter::WriteU8(std::uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void ByteWriter::WriteU32(std::uint32_t v) { AppendLe(&buffer_, v); }

void ByteWriter::WriteU64(std::uint64_t v) { AppendLe(&buffer_, v); }

void ByteWriter::WriteI64(std::int64_t v) {
  AppendLe(&buffer_, static_cast<std::uint64_t>(v));
}

void ByteWriter::WriteDouble(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendLe(&buffer_, bits);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<std::uint32_t>(s.size()));
  buffer_.append(s.data(), s.size());
}

void ByteWriter::WriteRaw(std::string_view s) {
  buffer_.append(s.data(), s.size());
}

Status ByteReader::Need(std::size_t n) const {
  if (remaining() < n) {
    return Status::OutOfRange(
        StrPrintf("truncated input: need %zu bytes, have %zu", n,
                  remaining()));
  }
  return Status::OK();
}

Result<std::uint8_t> ByteReader::ReadU8() {
  RC_RETURN_IF_ERROR(Need(1));
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::uint32_t> ByteReader::ReadU32() {
  RC_RETURN_IF_ERROR(Need(4));
  std::uint32_t v = ParseLe<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  RC_RETURN_IF_ERROR(Need(8));
  std::uint64_t v = ParseLe<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<std::int64_t> ByteReader::ReadI64() {
  auto v = ReadU64();
  if (!v.ok()) return v.status();
  return static_cast<std::int64_t>(*v);
}

Result<double> ByteReader::ReadDouble() {
  auto bits = ReadU64();
  if (!bits.ok()) return bits.status();
  double v;
  std::uint64_t raw = *bits;
  std::memcpy(&v, &raw, sizeof(v));
  return v;
}

Result<std::string> ByteReader::ReadString() {
  auto len = ReadU32();
  if (!len.ok()) return len.status();
  RC_RETURN_IF_ERROR(Need(*len));
  std::string out(data_.substr(pos_, *len));
  pos_ += *len;
  return out;
}

Result<std::string_view> ByteReader::ReadRaw(std::size_t n) {
  RC_RETURN_IF_ERROR(Need(n));
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

Status ByteReader::SeekTo(std::size_t offset) {
  if (offset > data_.size()) {
    return Status::OutOfRange(StrPrintf(
        "seek to %zu past end of %zu-byte input", offset, data_.size()));
  }
  pos_ = offset;
  return Status::OK();
}

Status WriteFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrPrintf("cannot open %s for writing",
                                      tmp.c_str()));
  }
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != data.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal(StrPrintf("short write to %s", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrPrintf("cannot rename %s -> %s", tmp.c_str(),
                                      path.c_str()));
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrPrintf("cannot open %s", path.c_str()));
  }
  std::string out;
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.append(chunk, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal(StrPrintf("read error on %s", path.c_str()));
  }
  return out;
}

}  // namespace regcube
