#include "common/file_reader.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <streambuf>

#include <fcntl.h>
#include <unistd.h>

#include "fault/fault.h"

namespace depminer {

namespace {

bool IsTransientErrno(int err) {
  return err == EIO || err == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
         || err == EWOULDBLOCK
#endif
      ;
}

}  // namespace

class RetryingFileStream::Buf : public std::streambuf {
 public:
  Buf(const std::string& path, ReadRetryPolicy policy)
      : path_(path), policy_(policy) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
      status_ = Status::IoError("cannot open '" + path +
                                "' for reading: " + std::strerror(errno));
    }
  }

  ~Buf() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool is_open() const { return fd_ >= 0; }
  const Status& status() const { return status_; }
  size_t retries() const { return retries_; }

  size_t ReadBlock(char* dst, size_t n) {
    const size_t buffered = static_cast<size_t>(egptr() - gptr());
    if (buffered > 0) {
      const size_t take = std::min(buffered, n);
      std::memcpy(dst, gptr(), take);
      gbump(static_cast<int>(take));
      return take;
    }
    if (fd_ < 0 || !status_.ok()) return 0;
    const ssize_t got = ReadWithRetry(dst, n);
    return got > 0 ? static_cast<size_t>(got) : 0;
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (fd_ < 0 || !status_.ok()) return traits_type::eof();
    const ssize_t got = ReadWithRetry(buffer_, kBufSize);
    if (got <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + got);
    return traits_type::to_int_type(*gptr());
  }

 private:
  static constexpr size_t kBufSize = 64 * 1024;

  /// One raw read(2), with the fault layer's syscall-boundary injections:
  /// a simulated EINTR or EIO before the real call, or a forced 1-byte
  /// short read (which the buffering loop must absorb without data loss).
  ssize_t ReadRaw(char* dst, size_t n) {
    if (DEPMINER_FAULT_FIRES("io/csv-eintr")) {
      errno = EINTR;
      return -1;
    }
    if (DEPMINER_FAULT_FIRES("io/csv-read")) {
      errno = EIO;
      return -1;
    }
    if (DEPMINER_FAULT_FIRES("io/csv-short-read") && n > 1) n = 1;
    return ::read(fd_, dst, n);
  }

  ssize_t ReadWithRetry(char* dst, size_t n) {
    int eintr_left = policy_.max_eintr_retries;
    int attempts_left = policy_.max_attempts;
    uint32_t backoff_us = policy_.initial_backoff_us;
    for (;;) {
      const ssize_t got = ReadRaw(dst, n);
      if (got >= 0) return got;
      const int err = errno;
      if (err == EINTR) {
        if (eintr_left-- > 0) {
          ++retries_;
          continue;
        }
        status_ = Status::IoError("'" + path_ +
                                  "': EINTR retry budget exhausted");
        return -1;
      }
      if (IsTransientErrno(err) && --attempts_left > 0) {
        ++retries_;
        ::usleep(backoff_us);
        if (backoff_us < 1u << 20) backoff_us *= 2;
        continue;
      }
      status_ = Status::IoError("'" + path_ +
                                "': read failed: " + std::strerror(err));
      return -1;
    }
  }

  std::string path_;
  ReadRetryPolicy policy_;
  int fd_ = -1;
  Status status_;
  size_t retries_ = 0;
  char buffer_[kBufSize];
};

RetryingFileStream::RetryingFileStream(const std::string& path,
                                       ReadRetryPolicy policy)
    : std::istream(nullptr), buf_(new Buf(path, policy)) {
  rdbuf(buf_.get());
  if (!buf_->is_open()) setstate(std::ios::failbit);
}

RetryingFileStream::~RetryingFileStream() = default;

bool RetryingFileStream::is_open() const { return buf_->is_open(); }

const Status& RetryingFileStream::status() const { return buf_->status(); }

size_t RetryingFileStream::retries() const { return buf_->retries(); }

size_t RetryingFileStream::ReadBlock(char* dst, size_t n) {
  return buf_->ReadBlock(dst, n);
}

}  // namespace depminer
