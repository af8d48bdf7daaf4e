#include "common/file_reader.h"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "fault/fault.h"

namespace depminer {

namespace {

constexpr int kMaxEintrRetries = 100;
constexpr int kMaxAttempts = 4;
constexpr uint32_t kInitialBackoffUs = 200;

bool IsTransientErrno(int err) {
  return err == EIO || err == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
         || err == EWOULDBLOCK
#endif
      ;
}

/// One raw read(2), with the fault layer's syscall-boundary injections:
/// a simulated EINTR or EIO before the real call, or a forced 1-byte
/// short read (which the caller must absorb without data loss).
ssize_t ReadRaw(int fd, char* dst, size_t n) {
  if (DEPMINER_FAULT_FIRES("io/csv-eintr")) {
    errno = EINTR;
    return -1;
  }
  if (DEPMINER_FAULT_FIRES("io/csv-read")) {
    errno = EIO;
    return -1;
  }
  if (DEPMINER_FAULT_FIRES("io/csv-short-read") && n > 1) n = 1;
  return ::read(fd, dst, n);
}

}  // namespace

RetryingFileStream::RetryingFileStream(const std::string& path)
    : path_(path), fd_(::open(path.c_str(), O_RDONLY)) {
  if (fd_ < 0) {
    status_ = Status::IoError("cannot open '" + path +
                              "' for reading: " + std::strerror(errno));
  }
}

RetryingFileStream::~RetryingFileStream() {
  if (fd_ >= 0) ::close(fd_);
}

size_t RetryingFileStream::ReadBlock(char* dst, size_t n) {
  if (fd_ < 0 || !status_.ok()) return 0;
  int eintr_left = kMaxEintrRetries;
  int attempts_left = kMaxAttempts;
  uint32_t backoff_us = kInitialBackoffUs;
  for (;;) {
    const ssize_t got = ReadRaw(fd_, dst, n);
    if (got >= 0) return static_cast<size_t>(got);
    const int err = errno;
    if (err == EINTR) {
      if (eintr_left-- > 0) continue;
      status_ =
          Status::IoError("'" + path_ + "': EINTR retry budget exhausted");
      return 0;
    }
    if (IsTransientErrno(err) && --attempts_left > 0) {
      ::usleep(backoff_us);
      backoff_us *= 2;
      continue;
    }
    status_ = Status::IoError("'" + path_ +
                              "': read failed: " + std::strerror(err));
    return 0;
  }
}

}  // namespace depminer
