#include "storage/column_file.h"

#include <algorithm>

#include "storage/atomic_file.h"
#include "storage/binary_io.h"

namespace depminer {

namespace {

constexpr std::string_view kMagic("DMC1", 4);

template <typename Sink>
void EncodeColumnFile(const Relation& relation, Sink& out) {
  out.Bytes(kMagic.data(), kMagic.size());
  out.U32(static_cast<uint32_t>(relation.num_attributes()));
  out.U64(relation.num_tuples());
  for (AttributeId a = 0; a < relation.num_attributes(); ++a) {
    out.String(relation.schema().name(a));
    const std::vector<std::string>& dict = relation.Dictionary(a);
    out.U32(static_cast<uint32_t>(dict.size()));
    for (const std::string& value : dict) out.String(value);
    out.U32Array(relation.Column(a).data(), relation.Column(a).size());
  }
}

}  // namespace

Status WriteColumnFile(const Relation& relation, const std::string& path) {
  // Serialized in memory and published through the durable-write helper,
  // so a `.dmc` file either exists completely or not at all — the same
  // crash contract as the checkpoint writer and the catalog manifest.
  return AtomicWriteFile(path, binio::Encode([&](auto& out) {
                           EncodeColumnFile(relation, out);
                         }));
}

Result<Relation> ReadColumnFile(const std::string& path) {
  Result<std::string> image = ReadWholeFile(path);
  if (!image.ok()) {
    if (image.status().code() == StatusCode::kNotFound) {
      return Status::IoError("cannot open '" + path + "' for reading");
    }
    return image.status();
  }
  binio::Reader in(image.value());
  if (!in.Expect(kMagic)) {
    return Status::IoError("'" + path + "' is not a DMC1 column file");
  }
  uint32_t n = 0;
  uint64_t p = 0;
  if (!in.U32(&n) || !in.U64(&p)) {
    return Status::IoError("'" + path + "': truncated header");
  }
  if (n == 0 || n > AttributeSet::kMaxAttributes) {
    return Status::IoError("'" + path + "': implausible attribute count");
  }

  std::vector<std::string> names(n);
  std::vector<std::vector<std::string>> dictionaries(n);
  std::vector<std::vector<ValueCode>> columns(n);
  for (uint32_t a = 0; a < n; ++a) {
    if (!in.String(&names[a])) {
      return Status::IoError("'" + path + "': truncated attribute name");
    }
    // Each value takes at least its 4-byte length; each code 4 bytes.
    uint32_t dict_size = 0;
    if (!in.U32(&dict_size) || !in.Fits(dict_size, 4)) {
      return Status::IoError("'" + path + "': truncated dictionary");
    }
    std::vector<std::string>& dict = dictionaries[a];
    dict.reserve(dict_size);
    for (uint32_t i = 0; i < dict_size; ++i) {
      if (!in.String(&dict.emplace_back())) {
        return Status::IoError("'" + path + "': truncated dictionary value");
      }
    }
    if (!in.Fits(p, sizeof(ValueCode))) {
      return Status::IoError("'" + path + "': truncated column data");
    }
    std::vector<ValueCode>& column = columns[a];
    column.resize(p);
    in.U32Array(column.data(), column.size());
    ValueCode max_code = 0;
    for (ValueCode code : column) max_code = std::max(max_code, code);
    if (p > 0 && max_code >= dict_size) {
      return Status::IoError("'" + path + "': code out of dictionary range");
    }
  }
  return Relation(Schema(std::move(names)), std::move(columns),
                  std::move(dictionaries));
}

}  // namespace depminer
