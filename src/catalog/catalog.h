#pragma once

#include <string>
#include <vector>

#include "catalog/fingerprint.h"
#include "common/status.h"
#include "relation/relation.h"

namespace depminer {

/// A directory-backed workspace of named relations — the library's
/// stand-in for the DBMS the paper profiled through ODBC. Relations are
/// stored as ".dmc" column files next to a "catalog.manifest" index; the
/// catalog gives stable names to the tables of an analysis session so
/// repeated profiling skips CSV parsing, and records each relation's
/// content fingerprint so serve-mode result caching can key on *what the
/// data is* without re-reading it.
///
/// Layout:
///   <dir>/catalog.manifest    "# depminer-catalog v2" header, then one
///                             tab-separated line per relation:
///                             name \t file \t attributes \t tuples \t fp
///                             (fp = 32-hex content fingerprint), closed
///                             by a "# end <count>" footer. v1 manifests
///                             (4 fields, no footer, no fingerprint) are
///                             still read; the first save upgrades them.
///   <dir>/<name>.g<N>.dmc     one column file per relation; N is a
///                             generation counter bumped on every
///                             replacement so a Put never overwrites the
///                             bytes the manifest currently points at.
///
/// Durability contract (see docs/SERVING.md): the manifest and every
/// column file are published via `AtomicWriteFile` (write → fsync →
/// rename → directory fsync), and `Put` orders "write the new column
/// file under a fresh generation name" strictly before "save the
/// manifest that references it". A crash — even `kill -9` — at any point
/// therefore leaves a catalog whose manifest references only complete
/// files: either the old state or the new one, never a torn mix. A
/// failed `Put` rolls the in-memory state back to match the on-disk
/// manifest and removes the file it wrote. Orphaned generation files
/// (the artifact of a crash inside that window) are swept on `Open`.
///
/// Concurrent writers are not supported; the serve-mode daemon guards a
/// catalog with a readers-writer lock (src/server/server.cc).
class Catalog {
 public:
  /// Read-only description of one stored relation (what the serve-mode
  /// result cache keys on, without loading the column file).
  struct DatasetInfo {
    std::string name;
    size_t attributes = 0;
    size_t tuples = 0;
    /// Content fingerprint recorded at Put time. Zero for entries read
    /// from a legacy v1 manifest (unknown until the next Put).
    Fingerprint fingerprint;
  };

  /// Opens an existing catalog directory, or initializes an empty one
  /// (the directory itself must exist). Rejects malformed or truncated
  /// manifests with an error naming the offending line; sweeps
  /// generation files orphaned by a crashed Put.
  static Result<Catalog> Open(const std::string& directory);

  const std::string& directory() const { return directory_; }

  /// Names in insertion order.
  std::vector<std::string> List() const;
  bool Contains(const std::string& name) const;
  size_t size() const { return entries_.size(); }

  /// Manifest-recorded metadata for `name` (no file I/O).
  Result<DatasetInfo> Info(const std::string& name) const;

  /// Stores (or replaces) a relation under `name` and updates the
  /// manifest. Names must be non-empty and filesystem-safe
  /// ([A-Za-z0-9_.-]). On any failure the catalog — in memory and on
  /// disk — is left exactly as it was before the call.
  Status Put(const std::string& name, const Relation& relation);

  /// Loads a relation by name, cross-checking the loaded data against
  /// the manifest-recorded attribute/tuple counts and content
  /// fingerprint; a mismatch (stale, orphaned, or swapped file) is
  /// reported as DataLoss, never served silently. `verified`, when given,
  /// receives the fingerprint the loaded content was checked against
  /// (zero for a v1 entry, which has none): the key of exactly the
  /// returned relation, whatever a later Put does to the name.
  Result<Relation> Get(const std::string& name,
                       Fingerprint* verified = nullptr) const;

  /// Removes a relation and its file.
  Status Drop(const std::string& name);

  /// Loads every relation, in insertion order (for whole-catalog
  /// profiling). Applies the same integrity cross-checks as `Get`.
  Result<std::vector<Relation>> GetAll() const;

 private:
  struct Entry {
    std::string name;
    std::string file;  // relative to the directory
    size_t attributes = 0;
    size_t tuples = 0;
    Fingerprint fingerprint;  // zero when read from a v1 manifest
    uint64_t generation = 0;  // parsed from the ".g<N>.dmc" file name
  };

  explicit Catalog(std::string directory) : directory_(std::move(directory)) {}

  Status SaveManifest() const;
  std::string ManifestPath() const;
  std::string FilePath(const Entry& entry) const;
  const Entry* Find(const std::string& name) const;
  void SweepOrphans() const;

  std::string directory_;
  std::vector<Entry> entries_;
};

}  // namespace depminer
