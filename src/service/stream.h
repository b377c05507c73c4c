/**
 * @file
 * The NDJSON stream transport shared by `p10d` and the fleet
 * coordinator: stream setup, framed line writes, bounded line reads.
 */

#ifndef P10EE_SERVICE_STREAM_H
#define P10EE_SERVICE_STREAM_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace p10ee::service {

/** Set TCP_NODELAY on a connected TCP stream. Replies are many small
    lines; with Nagle on, the last one waits ~40 ms for the peer's
    delayed ACK. */
void configureStream(int fd);

/** Dial host:port with a connect timeout and configure the stream;
    -1 on any failure. */
int dialStream(const std::string& host, uint16_t port, int timeoutMs);

/** Write @p line + '\n' in one sendmsg (no framed copy), resuming
    partial writes; a peer that hung up returns false, never SIGPIPE. */
bool sendLine(int fd, std::string_view line);

/** Bounded NDJSON line reader over a socket or pipe. A line holds at
    most kMaxRequestBytes; the bound is checked on the buffered prefix
    before the line is handed out, so neither a terminator that never
    comes nor one in the same chunk lets an oversize line through. */
class LineReader
{
  public:
    enum class Result
    {
        Line,      ///< *line holds the next line, terminator stripped
        Timeout,   ///< no complete line after one wait
        Eof,       ///< peer closed (or the socket failed) on a boundary
        Truncated, ///< closed mid-line: buffered() bytes, never a Line
        Oversize   ///< the current line exceeds kMaxRequestBytes
    };

    explicit LineReader(int fd = -1) : fd_(fd) {}

    /** Next line; with @p waitMs >= 0, at most one wait of waitMs for
        bytes (-1 = block until a line or the end). */
    Result next(std::string* line, int waitMs = -1);

    /** Bytes buffered past the last returned line. */
    size_t buffered() const { return buf_.size() - head_; }

  private:
    int fd_;
    std::string buf_;
    size_t head_ = 0; ///< start of the current line in buf_
    size_t scan_ = 0; ///< [head_, scan_) holds no '\n'
};

} // namespace p10ee::service

#endif // P10EE_SERVICE_STREAM_H
