#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <string>

#include "common/status.h"

namespace depminer {

/// Retry schedule for transient read errors. EINTR is retried immediately
/// (bounded only to guard against a pathological signal storm); transient
/// I/O errors (EIO, EAGAIN) are retried with doubling backoff up to
/// `max_attempts` total tries per read call.
struct ReadRetryPolicy {
  int max_attempts = 4;
  int max_eintr_retries = 100;
  uint32_t initial_backoff_us = 200;
};

/// An input stream over a POSIX file descriptor that survives the read
/// failures `std::ifstream` silently conflates with end-of-file: EINTR,
/// short reads, and transient I/O errors.
///
/// Short reads are absorbed by the buffering loop (a `read(2)` returning
/// fewer bytes than asked is not an error; the next fill continues where
/// it left off). EINTR and transient errors are retried per
/// `ReadRetryPolicy`. A read that still fails after retries ends the
/// stream *and* records a sticky `status()` — callers must check it after
/// parsing, because to `std::istream` consumers a dead stream is
/// indistinguishable from EOF and the result would otherwise be a
/// silently truncated parse.
///
/// The `io/csv-read`, `io/csv-short-read` and `io/csv-eintr` fault sites
/// live at this class's syscall boundary, which is what makes the retry
/// behavior deterministically testable.
class RetryingFileStream : public std::istream {
 public:
  explicit RetryingFileStream(const std::string& path,
                              ReadRetryPolicy policy = {});
  ~RetryingFileStream() override;
  RetryingFileStream(const RetryingFileStream&) = delete;
  RetryingFileStream& operator=(const RetryingFileStream&) = delete;

  /// False when the file could not be opened (then `status()` says why).
  bool is_open() const;

  /// OK, or the first unrecoverable read/open error. EOF is not an error.
  const Status& status() const;

  /// Read syscalls retried so far (EINTR and backoff retries); test hook.
  size_t retries() const;

  /// Reads at most `n` bytes for a block parser, bypassing the stream
  /// buffer: bytes an `istream` read left buffered come first, otherwise
  /// one `read(2)` (retried per policy) fills `dst` directly. Returns 0
  /// at end of file or after an unrecoverable error (`status()` tells
  /// them apart). A short count is not end of file, so the
  /// `io/csv-short-read` fault reaches the parser as 1-byte blocks.
  size_t ReadBlock(char* dst, size_t n);

 private:
  class Buf;
  std::unique_ptr<Buf> buf_;
};

}  // namespace depminer
