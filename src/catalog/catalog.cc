#include "catalog/catalog.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <dirent.h>

#include "common/attribute_set.h"
#include "common/log.h"
#include "common/strings.h"
#include "fault/fault.h"
#include "storage/atomic_file.h"
#include "storage/column_file.h"

namespace depminer {

namespace {

constexpr char kManifestName[] = "catalog.manifest";
constexpr char kManifestHeaderV1[] = "# depminer-catalog v1";
constexpr char kManifestHeaderV2[] = "# depminer-catalog v2";
constexpr char kManifestEndPrefix[] = "# end ";

bool NameIsSafe(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  // Reject names that are only dots (".", "..") — path traversal.
  return name.find_first_not_of('.') != std::string::npos;
}

/// Parses the generation counter out of a "<stem>.g<N>.dmc" file name.
/// Legacy v1 files are plain "<name>.dmc": generation 0, so the first
/// replacement starts the versioned scheme at g1.
uint64_t GenerationOf(const std::string& file) {
  constexpr char kExt[] = ".dmc";
  constexpr size_t kExtLen = sizeof(kExt) - 1;
  if (file.size() <= kExtLen ||
      file.compare(file.size() - kExtLen, kExtLen, kExt) != 0) {
    return 0;
  }
  const std::string stem = file.substr(0, file.size() - kExtLen);
  const size_t dot = stem.find_last_of('.');
  if (dot == std::string::npos || dot + 2 >= stem.size() ||
      stem[dot + 1] != 'g') {
    return 0;
  }
  uint64_t gen = 0;
  if (!ParseUint64(std::string_view(stem).substr(dot + 2), &gen)) return 0;
  return gen;
}

Status ManifestError(const std::string& path, size_t line_no,
                     const std::string& what, const std::string& line) {
  return Status::IoError(path + ": line " + std::to_string(line_no) + ": " +
                         what + " in '" + line + "'");
}

}  // namespace

std::string Catalog::ManifestPath() const {
  return directory_ + "/" + kManifestName;
}

std::string Catalog::FilePath(const Entry& entry) const {
  return directory_ + "/" + entry.file;
}

const Catalog::Entry* Catalog::Find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Result<Catalog> Catalog::Open(const std::string& directory) {
  Catalog catalog(directory);
  std::ifstream in(catalog.ManifestPath());
  if (!in) {
    // New catalog: verify the directory is writable by creating the
    // manifest immediately.
    DEPMINER_RETURN_NOT_OK(catalog.SaveManifest());
    return catalog;
  }
  const std::string path = catalog.ManifestPath();
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError(path + ": empty manifest (missing header)");
  }
  const std::string_view header = StripAsciiWhitespace(line);
  const bool v2 = header == kManifestHeaderV2;
  if (!v2 && header != kManifestHeaderV1) {
    return Status::IoError(path + ": not a depminer catalog manifest");
  }
  // v2 manifests close with a "# end <count>" footer; its absence means
  // the file was truncated after the last complete line — a loss the
  // per-line checks below cannot see. v1 manifests (written before the
  // footer existed) are read without this protection and upgraded on
  // the next save.
  bool saw_end = false;
  const size_t expected_fields = v2 ? 5 : 4;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripAsciiWhitespace(line);
    if (stripped.empty()) {
      if (v2) {
        return ManifestError(path, line_no, "unexpected blank line", line);
      }
      continue;
    }
    if (v2 && stripped.substr(0, sizeof(kManifestEndPrefix) - 1) ==
                  kManifestEndPrefix) {
      uint64_t count = 0;
      if (!ParseUint64(stripped.substr(sizeof(kManifestEndPrefix) - 1),
                       &count)) {
        return ManifestError(path, line_no, "malformed end marker", line);
      }
      if (count != catalog.entries_.size()) {
        return Status::IoError(
            path + ": line " + std::to_string(line_no) + ": end marker says " +
            std::to_string(count) + " entries but " +
            std::to_string(catalog.entries_.size()) + " were read");
      }
      saw_end = true;
      continue;
    }
    if (saw_end) {
      return ManifestError(path, line_no, "data after end marker", line);
    }
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != expected_fields) {
      return ManifestError(path, line_no,
                           "expected " + std::to_string(expected_fields) +
                               " fields, got " +
                               std::to_string(fields.size()),
                           line);
    }
    Entry entry;
    entry.name = fields[0];
    entry.file = fields[1];
    if (!NameIsSafe(entry.name)) {
      return ManifestError(path, line_no, "unsafe relation name", line);
    }
    if (!NameIsSafe(entry.file)) {
      return ManifestError(path, line_no, "unsafe file name", line);
    }
    uint64_t attrs = 0, tuples = 0;
    if (!ParseUint64(fields[2], &attrs)) {
      return ManifestError(path, line_no, "malformed attribute count", line);
    }
    if (!ParseUint64(fields[3], &tuples)) {
      return ManifestError(path, line_no, "malformed tuple count", line);
    }
    if (attrs == 0 || attrs > AttributeSet::kMaxAttributes) {
      return ManifestError(path, line_no, "implausible attribute count",
                           line);
    }
    if (v2 && !Fingerprint::FromHex(fields[4], &entry.fingerprint)) {
      return ManifestError(path, line_no, "malformed fingerprint", line);
    }
    if (catalog.Find(entry.name) != nullptr) {
      return ManifestError(path, line_no,
                           "duplicate relation '" + entry.name + "'", line);
    }
    entry.attributes = attrs;
    entry.tuples = tuples;
    entry.generation = GenerationOf(entry.file);
    catalog.entries_.push_back(std::move(entry));
  }
  if (v2 && !saw_end) {
    return Status::IoError(path + ": truncated manifest (missing '# end' " +
                           "marker after " + std::to_string(line_no) +
                           " lines)");
  }
  catalog.SweepOrphans();
  return catalog;
}

Status Catalog::SaveManifest() const {
  DEPMINER_RETURN_NOT_OK(DEPMINER_FAULT_POLL("io/manifest-write"));
  std::ostringstream out;
  out << kManifestHeaderV2 << "\n";
  for (const Entry& e : entries_) {
    out << e.name << '\t' << e.file << '\t' << e.attributes << '\t'
        << e.tuples << '\t' << e.fingerprint.ToHex() << '\n';
  }
  out << kManifestEndPrefix << entries_.size() << "\n";
  return AtomicWriteFile(ManifestPath(), out.str());
}

void Catalog::SweepOrphans() const {
  // A crash between "write <name>.g<N>.dmc" and "save the manifest that
  // references it" leaves exactly one artifact: a generation file no
  // manifest entry points at. Only files matching the ".g<N>.dmc"
  // pattern are swept — legacy plain "<name>.dmc" files and foreign
  // files are never touched.
  DIR* dir = ::opendir(directory_.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> orphans;
  while (struct dirent* de = ::readdir(dir)) {
    const std::string file = de->d_name;
    if (GenerationOf(file) == 0) continue;
    const bool referenced =
        std::any_of(entries_.begin(), entries_.end(),
                    [&](const Entry& e) { return e.file == file; });
    if (!referenced) orphans.push_back(file);
  }
  ::closedir(dir);
  for (const std::string& file : orphans) {
    std::remove((directory_ + "/" + file).c_str());
    Log(LogLevel::kWarn, "catalog", "swept orphaned column file",
        {LogStr("file", file)});
  }
}

std::vector<std::string> Catalog::List() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

bool Catalog::Contains(const std::string& name) const {
  return Find(name) != nullptr;
}

Result<Catalog::DatasetInfo> Catalog::Info(const std::string& name) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  DatasetInfo info;
  info.name = entry->name;
  info.attributes = entry->attributes;
  info.tuples = entry->tuples;
  info.fingerprint = entry->fingerprint;
  return info;
}

Status Catalog::Put(const std::string& name, const Relation& relation) {
  if (!NameIsSafe(name)) {
    return Status::InvalidArgument("unsafe relation name '" + name + "'");
  }
  DEPMINER_RETURN_NOT_OK(DEPMINER_FAULT_POLL("alloc/catalog"));

  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.name == name; });

  Entry entry;
  entry.name = name;
  entry.generation = (it != entries_.end() ? it->generation : 0) + 1;
  entry.file = name + ".g" + std::to_string(entry.generation) + ".dmc";
  entry.attributes = relation.num_attributes();
  entry.tuples = relation.num_tuples();
  entry.fingerprint = FingerprintRelation(relation);

  // Ordering is the whole durability story: the new column file lands
  // under a fresh generation name (never overwriting the bytes the
  // current manifest references), and only then does the manifest flip
  // to it. A crash before the manifest save leaves an orphan that Open
  // sweeps; a crash after it leaves the old generation file, unlinked
  // lazily below and equally sweepable.
  DEPMINER_RETURN_NOT_OK(WriteColumnFile(relation, FilePath(entry)));

  const bool replacing = it != entries_.end();
  const Entry previous = replacing ? *it : Entry{};
  if (replacing) {
    *it = entry;
  } else {
    entries_.push_back(entry);
  }
  const Status save = SaveManifest();
  if (!save.ok()) {
    // Roll back so memory matches the manifest still on disk, and remove
    // the file the abandoned entry pointed at.
    if (replacing) {
      *std::find_if(entries_.begin(), entries_.end(),
                    [&](const Entry& e) { return e.name == name; }) =
          previous;
    } else {
      entries_.pop_back();
    }
    std::remove(FilePath(entry).c_str());
    return save;
  }
  if (replacing && previous.file != entry.file) {
    std::remove(FilePath(previous).c_str());
  }
  return Status::OK();
}

Result<Relation> Catalog::Get(const std::string& name,
                              Fingerprint* verified) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  Result<Relation> loaded = ReadColumnFile(FilePath(*entry));
  if (!loaded.ok()) return loaded.status();
  const Relation& relation = loaded.value();
  if (relation.num_attributes() != entry->attributes ||
      relation.num_tuples() != entry->tuples) {
    return Status::DataLoss(
        "catalog entry '" + name + "': manifest records " +
        std::to_string(entry->attributes) + " attributes / " +
        std::to_string(entry->tuples) + " tuples but '" + entry->file +
        "' holds " + std::to_string(relation.num_attributes()) +
        " attributes / " + std::to_string(relation.num_tuples()) +
        " tuples");
  }
  // v1 entries carry no fingerprint (zero) — counts are the only
  // cross-check available until the next Put upgrades them.
  if (!entry->fingerprint.IsZero() &&
      FingerprintRelation(relation) != entry->fingerprint) {
    return Status::DataLoss("catalog entry '" + name + "': content of '" +
                            entry->file +
                            "' does not match its recorded fingerprint " +
                            entry->fingerprint.ToHex());
  }
  if (verified != nullptr) *verified = entry->fingerprint;
  return loaded;
}

Status Catalog::Drop(const std::string& name) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.name == name; });
  if (it == entries_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  // Remove the entry from the manifest first; only once the manifest no
  // longer references the file is it safe to unlink. On save failure
  // the entry is restored and nothing was deleted.
  const Entry dropped = *it;
  const size_t index = static_cast<size_t>(it - entries_.begin());
  entries_.erase(it);
  const Status save = SaveManifest();
  if (!save.ok()) {
    entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(index),
                    dropped);
    return save;
  }
  std::remove(FilePath(dropped).c_str());
  return Status::OK();
}

Result<std::vector<Relation>> Catalog::GetAll() const {
  std::vector<Relation> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    Result<Relation> r = Get(entry.name);
    if (!r.ok()) return r.status();
    out.push_back(std::move(r).value());
  }
  return out;
}

}  // namespace depminer
