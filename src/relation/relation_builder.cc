#include "relation/relation_builder.h"

#include <algorithm>
#include <cstring>

namespace depminer {

namespace {

/// Multiply-xor hash of a value over 8-byte words (a short tail is read
/// as two overlapping 4-byte words, or three bytes), finished with the
/// splitmix64 avalanche so both the slot index and the tag are mixed.
uint64_t HashValue(std::string_view value) {
  const char* p = value.data();
  size_t n = value.size();
  uint64_t h = 0x9E3779B97F4A7C15ull ^ n;
  for (; n > 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  if (n >= 4) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    tail = (static_cast<uint64_t>(hi) << 32) | lo;
  } else if (n > 0) {
    tail = static_cast<uint64_t>(static_cast<unsigned char>(p[0])) |
           static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8 |
           static_cast<uint64_t>(static_cast<unsigned char>(p[n - 1])) << 16;
  }
  h = (h ^ tail) * 0xBF58476D1CE4E5B9ull;
  h ^= h >> 30;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

/// Doubles `slots` (64 when empty) and re-inserts every code; a slot's
/// tag, the hash's high half, also picks its position.
void Grow(std::vector<uint64_t>* slots) {
  std::vector<uint64_t> grown(std::max<size_t>(64, slots->size() * 2), 0);
  const size_t mask = grown.size() - 1;
  for (const uint64_t slot : *slots) {
    if (slot == 0) continue;
    size_t i = static_cast<size_t>(slot >> 32) & mask;
    while (grown[i] != 0) i = (i + 1) & mask;
    grown[i] = slot;
  }
  *slots = std::move(grown);
}

}  // namespace

RelationBuilder::RelationBuilder(Schema schema) : schema_(std::move(schema)) {
  const size_t n = schema_.num_attributes();
  columns_.resize(n);
  dictionaries_.resize(n);
  index_.resize(n);
  tags_.resize(n);
}

Status RelationBuilder::CheckArity(size_t count) const {
  if (count != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(count) + " values, schema has " +
        std::to_string(schema_.num_attributes()) + " attributes");
  }
  return Status::OK();
}

ValueCode RelationBuilder::Encode(size_t a, std::string_view value,
                                  uint64_t tag) {
  std::vector<std::string>& dictionary = dictionaries_[a];
  if (has_null_token_ && value == null_token_) {
    // NULLs agree with nothing: each occurrence is its own value.
    value_bytes_ += value.size();
    dictionary.emplace_back(value);
    return static_cast<ValueCode>(dictionary.size() - 1);
  }
  ValueIndex& index = index_[a];
  const size_t mask = index.slots.size() - 1;
  for (size_t i = static_cast<size_t>(tag) & mask;; i = (i + 1) & mask) {
    const uint64_t slot = index.slots[i];
    if (slot == 0) {
      const ValueCode code = static_cast<ValueCode>(dictionary.size());
      value_bytes_ += value.size();
      dictionary.emplace_back(value);
      index.slots[i] = (tag << 32) | (static_cast<uint64_t>(code) + 1);
      ++index.used;
      return code;
    }
    if ((slot >> 32) == tag) {
      const ValueCode code = static_cast<ValueCode>((slot & 0xFFFFFFFFu) - 1);
      if (dictionary[code] == value) return code;
    }
  }
}

Status RelationBuilder::AddRow(const std::vector<std::string>& values) {
  row_.assign(values.begin(), values.end());
  return AddRow(row_.data(), row_.size());
}

Status RelationBuilder::AddRow(const std::string_view* values, size_t count) {
  DEPMINER_RETURN_NOT_OK(CheckArity(count));
  // A row's lookups hit independent tables, so they are staged: hash every
  // value and prefetch its home slot, then prefetch the dictionary entry a
  // matching tag points at, then probe. The row's cache misses overlap
  // instead of queueing one after another.
  for (size_t a = 0; a < count; ++a) {
    ValueIndex& index = index_[a];
    if (2 * (index.used + 1) > index.slots.size()) Grow(&index.slots);
    tags_[a] = HashValue(values[a]) >> 32;
    __builtin_prefetch(
        &index.slots[static_cast<size_t>(tags_[a]) & (index.slots.size() - 1)]);
  }
  for (size_t a = 0; a < count; ++a) {
    const std::vector<uint64_t>& slots = index_[a].slots;
    const uint64_t slot =
        slots[static_cast<size_t>(tags_[a]) & (slots.size() - 1)];
    if (slot != 0 && (slot >> 32) == tags_[a]) {
      __builtin_prefetch(&dictionaries_[a][(slot & 0xFFFFFFFFu) - 1]);
    }
  }
  for (size_t a = 0; a < count; ++a) {
    columns_[a].push_back(Encode(a, values[a], tags_[a]));
  }
  ++num_rows_;
  return Status::OK();
}

Status RelationBuilder::AddCodedRow(const std::vector<ValueCode>& codes) {
  if (codes.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("coded row arity mismatch");
  }
  coded_rows_ = true;
  for (size_t a = 0; a < codes.size(); ++a) {
    // Grow the dictionary with synthetic values so that rendering works.
    while (dictionaries_[a].size() <= codes[a]) {
      std::string value = std::to_string(dictionaries_[a].size());
      value.insert(value.begin(), 'v');
      value_bytes_ += value.size();
      dictionaries_[a].push_back(std::move(value));
    }
    columns_[a].push_back(codes[a]);
  }
  ++num_rows_;
  return Status::OK();
}

Result<Relation> RelationBuilder::Finish() && {
  if (schema_.num_attributes() == 0) {
    return Status::InvalidArgument("relation must have at least one attribute");
  }
  if (schema_.num_attributes() > AttributeSet::kMaxAttributes) {
    return Status::CapacityExceeded(
        "schema has " + std::to_string(schema_.num_attributes()) +
        " attributes; maximum supported is " +
        std::to_string(AttributeSet::kMaxAttributes));
  }
  // Re-encode each column so codes are dense and first-occurrence ordered:
  // AddCodedRow may have skipped codes or left dictionary entries that no
  // tuple uses, which would corrupt DistinctCount (= |π_A(r)|, the paper's
  // Proposition 1 quantity) and real-world Armstrong values. AddRow
  // assigns codes in first-occurrence order already.
  constexpr ValueCode kUnmapped = static_cast<ValueCode>(-1);
  for (size_t a = 0; coded_rows_ && a < columns_.size(); ++a) {
    std::vector<ValueCode> remap(dictionaries_[a].size(), kUnmapped);
    std::vector<std::string> dense_dict;
    for (ValueCode& code : columns_[a]) {
      if (remap[code] == kUnmapped) {
        remap[code] = static_cast<ValueCode>(dense_dict.size());
        dense_dict.push_back(std::move(dictionaries_[a][code]));
      }
      code = remap[code];
    }
    dictionaries_[a] = std::move(dense_dict);
  }
  return Relation(std::move(schema_), std::move(columns_),
                  std::move(dictionaries_));
}

Result<Relation> MakeRelation(
    Schema schema, const std::vector<std::vector<std::string>>& rows) {
  RelationBuilder b(std::move(schema));
  for (const auto& row : rows) {
    DEPMINER_RETURN_NOT_OK(b.AddRow(row));
  }
  return std::move(b).Finish();
}

Result<Relation> MakeRelation(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot infer schema from zero rows");
  }
  return MakeRelation(Schema::Default(rows[0].size()), rows);
}

}  // namespace depminer
