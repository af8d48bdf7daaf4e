#include "storage/atomic_file.h"

#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace depminer {

Status AtomicWriteFile(const std::string& path, const std::string& blob,
                       const std::string& tmp_suffix) {
  const std::string tmp = path + tmp_suffix;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing");
  }
  size_t written = 0;
  while (written < blob.size()) {
    const ssize_t n =
        ::write(fd, blob.data() + written, blob.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("failed writing '" + tmp + "'");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync failed for '" + tmp + "'");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // Persist the rename itself.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  int dirfd = ::open(dir.c_str(), O_RDONLY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open '" + path + "'");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat '" + path + "'");
  }
  std::string image(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < image.size()) {
    const ssize_t n = ::read(fd, image.data() + done, image.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("failed reading '" + path + "'");
    }
    if (n == 0) break;  // shrank since the fstat
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  image.resize(done);
  return image;
}

}  // namespace depminer
