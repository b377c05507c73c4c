#include "common/file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace p10ee::common {

namespace {

FileStamp
stampOf(const struct stat& st)
{
    FileStamp s;
    s.dev = static_cast<uint64_t>(st.st_dev);
    s.ino = static_cast<uint64_t>(st.st_ino);
    s.size = static_cast<uint64_t>(st.st_size);
    s.mtimeNs = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec;
    s.ctimeNs = static_cast<int64_t>(st.st_ctim.tv_sec) * 1000000000 +
                st.st_ctim.tv_nsec;
    return s;
}

Error
openError(const std::string& what, const std::string& path)
{
    const int err = errno;
    const std::string msg = what + " " + path + ": " + std::strerror(err);
    if (err == ENOENT || err == ENOTDIR)
        return Error::notFound(msg);
    return Error::transient(msg);
}

/** Closes the descriptor on every return path. */
class FdGuard
{
  public:
    explicit FdGuard(int fd) : fd_(fd) {}
    ~FdGuard() { ::close(fd_); }
    FdGuard(const FdGuard&) = delete;
    FdGuard& operator=(const FdGuard&) = delete;

  private:
    int fd_;
};

} // namespace

Expected<FileStamp>
statFile(const std::string& path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return openError("cannot stat", path);
    return stampOf(st);
}

Expected<std::vector<uint8_t>>
readFile(const std::string& path, FileStamp* stamp)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return openError("cannot open", path);
    FdGuard guard(fd);
    struct stat st;
    if (::fstat(fd, &st) != 0)
        return openError("cannot stat", path);
    if (!S_ISREG(st.st_mode))
        return Error::invalidArgument("not a regular file: " + path);
    if (stamp != nullptr)
        *stamp = stampOf(st);
    std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return Error::transient("cannot read " + path + ": " +
                                    std::strerror(errno));
        if (n == 0)
            break; // shrank since fstat: the validator sees the cut
        got += static_cast<size_t>(n);
    }
    bytes.resize(got);
    return bytes;
}

} // namespace p10ee::common
