#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace depminer {
namespace binio {

/// The little-endian byte-buffer codec shared by the storage formats
/// (DMC1 column files, DMK1 job checkpoints).
///
/// Writing: a format has one encode function, templated on its sink.
/// `Encode` runs it over a `Sizer` to learn the exact byte count, then
/// over a `Writer` that fills one buffer of exactly that size — no
/// stream, no regrowth, one layout definition.
///
/// Reading: the whole file image is taken in one read (`ReadWholeFile`)
/// and decoded by a bounds-checked `Reader`. Every accessor returns
/// false on truncation so callers can surface a precise IoError, and a
/// count read from the file must pass `Fits` before it sizes anything.

inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

/// Longest string (value or name) a reader accepts: a longer one means a
/// corrupt file, not data.
inline constexpr uint32_t kMaxStringBytes = 256u << 20;

/// Counts the bytes an encode function would write.
class Sizer {
 public:
  void Bytes(const void*, size_t len) { size_ += len; }
  void U32(uint32_t) { size_ += 4; }
  void U64(uint64_t) { size_ += 8; }
  void String(const std::string& s) { size_ += 4 + s.size(); }
  void U32Array(const uint32_t*, size_t count) { size_ += 4 * count; }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Fills a buffer whose size a `Sizer` pass over the same fields fixed.
class Writer {
 public:
  explicit Writer(size_t size) : buf_(size, '\0'), out_(buf_.data()) {}

  void Bytes(const void* data, size_t len) {
    assert(len <= Left());
    if (len > 0) std::memcpy(out_, data, len);
    out_ += len;
  }
  void U32(uint32_t v) {
    char le[4];
    for (int i = 0; i < 4; ++i) le[i] = static_cast<char>(v >> (8 * i));
    Bytes(le, 4);
  }
  void U64(uint64_t v) {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (8 * i));
    Bytes(le, 8);
  }
  /// uint32 length, then the bytes.
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  /// `count` uint32 values as one block.
  void U32Array(const uint32_t* data, size_t count) {
    if constexpr (kLittleEndianHost) {
      Bytes(data, 4 * count);
    } else {
      for (size_t i = 0; i < count; ++i) U32(data[i]);
    }
  }

  size_t Left() const {
    return static_cast<size_t>(buf_.data() + buf_.size() - out_);
  }
  std::string Finish() && { return std::move(buf_); }

 private:
  std::string buf_;
  char* out_;
};

/// Serializes with `encode(sink)`, called once per pass with a `Sizer`
/// and then a `Writer` (so it must write the same fields both times).
template <typename EncodeFn>
std::string Encode(EncodeFn&& encode) {
  Sizer sizer;
  encode(sizer);
  Writer writer(sizer.size());
  encode(writer);
  assert(writer.Left() == 0);
  return std::move(writer).Finish();
}

/// Bounds-checked little-endian decoding over a whole file image.
class Reader {
 public:
  explicit Reader(std::string_view image)
      : in_(image.data()), end_(image.data() + image.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - in_); }

  /// True when `count` elements, each encoded in at least `min_bytes`,
  /// can still be in the image. A count read from a file is checked with
  /// this before it sizes a container, so a doctored count is a clean
  /// error instead of an allocation the file cannot back.
  bool Fits(uint64_t count, size_t min_bytes) const {
    return count <= remaining() / min_bytes;
  }

  bool Bytes(void* out, size_t len) {
    if (len > remaining()) return false;
    if (len > 0) std::memcpy(out, in_, len);
    in_ += len;
    return true;
  }
  /// Consumes `expected.size()` bytes; false unless they equal `expected`.
  bool Expect(std::string_view expected) {
    if (expected.size() > remaining() ||
        std::memcmp(in_, expected.data(), expected.size()) != 0) {
      return false;
    }
    in_ += expected.size();
    return true;
  }
  bool U32(uint32_t* v) {
    unsigned char le[4];
    if (!Bytes(le, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(le[i]) << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    unsigned char le[8];
    if (!Bytes(le, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(le[i]) << (8 * i);
    return true;
  }
  /// uint32 length (at most kMaxStringBytes), then the bytes.
  bool String(std::string* s) {
    uint32_t length = 0;
    if (!U32(&length) || length > kMaxStringBytes || length > remaining()) {
      return false;
    }
    s->assign(in_, length);
    in_ += length;
    return true;
  }
  /// `count` uint32 values as one block into `out`.
  bool U32Array(uint32_t* out, size_t count) {
    if (!Fits(count, 4)) return false;
    if constexpr (kLittleEndianHost) {
      return Bytes(out, 4 * count);
    } else {
      for (size_t i = 0; i < count; ++i) U32(&out[i]);
      return true;
    }
  }

 private:
  const char* in_;
  const char* end_;
};

}  // namespace binio
}  // namespace depminer
