#include "service/stream.h"

#include <cerrno>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/protocol.h"

namespace p10ee::service {

void
configureStream(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int
dialStream(const std::string& host, uint16_t port, int timeoutMs)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                      &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        if (rc != 0 && errno == EINPROGRESS) {
            pollfd pfd{fd, POLLOUT, 0};
            int err = -1;
            socklen_t len = sizeof(err);
            if (::poll(&pfd, 1, timeoutMs) == 1 &&
                (pfd.revents & POLLOUT) != 0)
                ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
            rc = err == 0 ? 0 : -1;
        }
        if (rc == 0) {
            ::fcntl(fd, F_SETFL, flags); // back to blocking
            configureStream(fd);
            break;
        }
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    return fd;
}

bool
sendLine(int fd, std::string_view line)
{
    char nl = '\n';
    // off counts bytes of line + '\n' already sent; a partial write
    // resumes inside the line or at the terminator.
    for (size_t off = 0; off <= line.size();) {
        iovec iov[2] = {
            {const_cast<char*>(line.data() + off), line.size() - off},
            {&nl, 1}};
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = 2;
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0 && errno != EINTR)
            return false;
        if (n > 0)
            off += static_cast<size_t>(n);
    }
    return true;
}

LineReader::Result
LineReader::next(std::string* line, int waitMs)
{
    bool waited = false;
    for (;;) {
        const size_t nl = buf_.find('\n', scan_);
        scan_ = nl == std::string::npos ? buf_.size() : nl;
        // The bound runs before the line is handed out: waiting for a
        // terminator would hand a hostile peer unbounded memory, and a
        // terminator arriving in the same chunk must not let the
        // oversize line through to the parser.
        if (scan_ - head_ > kMaxRequestBytes)
            return Result::Oversize;
        if (nl != std::string::npos) {
            line->assign(buf_, head_, nl - head_);
            head_ = scan_ = nl + 1;
            return Result::Line;
        }
        buf_.erase(0, head_);
        scan_ -= head_;
        head_ = 0;
        if (waitMs >= 0) {
            // One wait per call, so a peer trickling bytes without a
            // terminator cannot hold the caller past its own deadlines.
            if (waited)
                return Result::Timeout;
            waited = true;
            pollfd pfd{fd_, POLLIN, 0};
            const int rc = ::poll(&pfd, 1, waitMs);
            if (rc == 0 || (rc < 0 && errno == EINTR))
                return Result::Timeout;
        }
        char chunk[65536];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return buf_.empty() ? Result::Eof : Result::Truncated;
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

} // namespace p10ee::service
