#include "catalog/fingerprint.h"

#include <bit>
#include <cstdio>
#include <vector>

#include "common/file_reader.h"
#include "relation/relation.h"

namespace depminer {

namespace {

// 128-bit FNV-1a constants (offset basis and prime per the FNV spec).
constexpr unsigned __int128 Fnv128Basis() {
  return (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
         0x62b821756295c58dULL;
}
constexpr unsigned __int128 Fnv128Prime() {
  return (static_cast<unsigned __int128>(0x0000000001000000ULL) << 64) |
         0x000000000000013bULL;
}

/// kPrimePowers[k] = prime^k (mod 2^128), for k = 0..8.
struct PrimePowers {
  unsigned __int128 pow[9];
  constexpr PrimePowers() : pow() {
    pow[0] = 1;
    for (int k = 1; k <= 8; ++k) pow[k] = pow[k - 1] * Fnv128Prime();
  }
};
constexpr PrimePowers kPrimePowers;

}  // namespace

std::string Fingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

bool Fingerprint::FromHex(const std::string& hex, Fingerprint* out) {
  if (hex.size() != 32) return false;
  uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<size_t>(w * 16 + i)];
      uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A') + 10;
      } else {
        return false;
      }
      words[w] = (words[w] << 4) | digit;
    }
  }
  out->hi = words[0];
  out->lo = words[1];
  return true;
}

Fingerprinter::Fingerprinter() : state_(Fnv128Basis()) {}

void Fingerprinter::UpdateBytes(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  unsigned __int128 h = state_;
  const unsigned __int128 prime = Fnv128Prime();
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= prime;
  }
  state_ = h;
}

void Fingerprinter::UpdateString(const std::string& s) {
  UpdateU64(s.size());
  UpdateBytes(s.data(), s.size());
}

void Fingerprinter::UpdateU64(uint64_t v) {
  // FNV-1a over the 8 little-endian bytes of `v`. A zero byte only
  // multiplies by the prime (h ^ 0 == h), so the zero bytes above the
  // highest set byte fold into one multiply by a power of it: the same
  // state, in one multiply instead of up to eight.
  const int used = (std::bit_width(v) + 7) / 8;
  unsigned __int128 h = state_;
  for (int i = 0; i < used; ++i) {
    h ^= static_cast<unsigned char>(v >> (8 * i));
    h *= Fnv128Prime();
  }
  state_ = h * kPrimePowers.pow[8 - used];
}

Fingerprint Fingerprinter::Finish() const {
  Fingerprint fp;
  fp.hi = static_cast<uint64_t>(state_ >> 64);
  fp.lo = static_cast<uint64_t>(state_);
  return fp;
}

Result<Fingerprint> FingerprintFile(const std::string& path) {
  RetryingFileStream in(path);
  if (!in.is_open()) return in.status();
  Fingerprinter hasher;
  char buf[64 * 1024];
  while (const size_t got = in.ReadBlock(buf, sizeof(buf))) {
    hasher.UpdateBytes(buf, got);
  }
  if (!in.status().ok()) return in.status();
  return hasher.Finish();
}

Fingerprint FingerprintRelation(const Relation& relation) {
  Fingerprinter hasher;
  const size_t n = relation.num_attributes();
  hasher.UpdateU64(n);
  std::vector<const ValueCode*> codes(n);
  std::vector<const std::string*> dictionaries(n);
  for (size_t a = 0; a < n; ++a) {
    const AttributeId id = static_cast<AttributeId>(a);
    hasher.UpdateString(relation.schema().name(id));
    codes[a] = relation.Column(id).data();
    dictionaries[a] = relation.Dictionary(id).data();
  }
  const size_t p = relation.num_tuples();
  hasher.UpdateU64(p);
  // Row-major over column-major storage: every cell is a dependent load
  // of a dictionary entry scattered over megabytes of strings, so the
  // walk is latency-bound. Prefetching the entries a few rows ahead
  // overlaps those misses with the hashing of the current row.
  constexpr size_t kRowsAhead = 4;
  for (size_t t = 0; t < p; ++t) {
    if (t + kRowsAhead < p) {
      for (size_t a = 0; a < n; ++a) {
        __builtin_prefetch(&dictionaries[a][codes[a][t + kRowsAhead]]);
      }
    }
    for (size_t a = 0; a < n; ++a) {
      hasher.UpdateString(dictionaries[a][codes[a][t]]);
    }
  }
  return hasher.Finish();
}

}  // namespace depminer
