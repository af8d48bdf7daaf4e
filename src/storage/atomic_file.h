#pragma once

#include <string>

#include "common/status.h"

namespace depminer {

/// Crash-durable file replacement, shared by every writer whose output
/// must survive `kill -9` (the DMK1 checkpoint writer, the catalog
/// manifest, the `.dmc` column files). The sequence is the standard
/// one: write the whole blob to a temporary sibling, `fsync` the file,
/// `rename` it over the final path, then `fsync` the containing
/// directory so the rename itself is persistent. A crash at any point
/// leaves either the complete old file or the complete new one at
/// `path`, never a torn mix and never a file whose directory entry
/// could vanish on power loss.
///
/// `tmp_suffix` names the temporary sibling (`path + tmp_suffix`);
/// callers sharing a directory pick distinct suffixes only if they may
/// write the same path concurrently (the catalog serializes writers, so
/// the default is fine).
Status AtomicWriteFile(const std::string& path, const std::string& blob,
                       const std::string& tmp_suffix = ".tmp");

/// The reading counterpart for the binary formats: the whole file in
/// one buffer, sized from `fstat` and filled by one read loop. NotFound
/// when the file cannot be opened, IoError when a read fails.
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace depminer
