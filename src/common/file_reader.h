#pragma once

#include <cstddef>
#include <string>

#include "common/status.h"

namespace depminer {

/// A reader over a POSIX file descriptor that survives the read failures
/// `std::ifstream` silently conflates with end-of-file: EINTR, short
/// reads, and transient I/O errors.
///
/// EINTR is retried at once, up to 100 times per read (a bound that only
/// guards against a pathological signal storm). A transient I/O error
/// (EIO, EAGAIN) gets up to 4 tries per read, with a backoff that doubles
/// from 200 µs. A read that still fails ends the file *and* records a
/// sticky `status()` — callers must check it once `ReadBlock` returns 0,
/// because a dead file is otherwise indistinguishable from EOF and the
/// result would be a silently truncated parse.
///
/// The `io/csv-read`, `io/csv-short-read` and `io/csv-eintr` fault sites
/// live at this class's syscall boundary, which is what makes the retry
/// behavior deterministically testable.
class RetryingFileStream {
 public:
  explicit RetryingFileStream(const std::string& path);
  ~RetryingFileStream();
  RetryingFileStream(const RetryingFileStream&) = delete;
  RetryingFileStream& operator=(const RetryingFileStream&) = delete;

  /// False when the file could not be opened (then `status()` says why).
  bool is_open() const { return fd_ >= 0; }

  /// OK, or the first unrecoverable read/open error. EOF is not an error.
  const Status& status() const { return status_; }

  /// Reads at most `n` bytes into `dst` with one `read(2)`, retried as
  /// above. Returns 0 at end of file or after an unrecoverable error
  /// (`status()` tells them apart). A short count is not end of file, so
  /// the `io/csv-short-read` fault reaches the caller as 1-byte blocks.
  size_t ReadBlock(char* dst, size_t n);

 private:
  std::string path_;
  int fd_;
  Status status_;
};

}  // namespace depminer
