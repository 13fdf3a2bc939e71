/// \file socket_io.hpp
/// \brief Minimal POSIX socket plumbing for the JSONL protocol.
///
/// Everything byte-level lives here so server.cpp and client.cpp deal
/// only in lines: RAII fds, TCP/Unix-domain endpoints, a bounded
/// LineReader that enforces the per-request byte limit *before* any
/// parsing (an oversized line is discarded up to its newline and
/// reported, so one hostile client cannot balloon server memory), and a
/// short-write-safe, SIGPIPE-free line writer.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mcps::serve {

/// A place to listen/connect: a Unix-domain path when `path` is
/// non-empty, else TCP on host:port. TCP port 0 asks the kernel for an
/// ephemeral port (read back via Listener::endpoint()).
struct Endpoint {
    std::string path;  ///< Unix-domain socket path ("" → TCP)
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    [[nodiscard]] static Endpoint tcp(std::string host, std::uint16_t port);
    [[nodiscard]] static Endpoint unix_path(std::string path);
    [[nodiscard]] bool is_unix() const noexcept { return !path.empty(); }
    [[nodiscard]] std::string to_string() const;
};

/// Move-only owning file descriptor.
class Fd {
public:
    Fd() = default;
    explicit Fd(int fd) noexcept : fd_{fd} {}
    Fd(Fd&& o) noexcept : fd_{o.fd_} { o.fd_ = -1; }
    Fd& operator=(Fd&& o) noexcept;
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    ~Fd();

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    int release() noexcept;
    void reset() noexcept;

private:
    int fd_ = -1;
};

/// A bound, listening socket. \throws std::runtime_error on failure.
class Listener {
public:
    explicit Listener(const Endpoint& ep);
    ~Listener();
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// The actual endpoint (resolves TCP port 0 to the bound port).
    [[nodiscard]] const Endpoint& endpoint() const noexcept { return ep_; }
    [[nodiscard]] int fd() const noexcept { return fd_.get(); }

    /// Accept one connection; invalid Fd on transient failure. TCP
    /// connections get TCP_NODELAY (responses are never held back for
    /// coalescing).
    [[nodiscard]] Fd accept_one();

private:
    Fd fd_;
    Endpoint ep_;
    bool unlink_on_close_ = false;
};

/// Connect to \p ep. \throws std::runtime_error on failure.
[[nodiscard]] Fd connect_to(const Endpoint& ep);

/// Buffered LF-delimited reader with a hard per-line byte bound.
class LineReader {
public:
    enum class Status : std::uint8_t {
        kLine,       ///< `line` holds one complete line (no newline)
        kEof,        ///< orderly close (any unterminated tail discarded)
        kError,      ///< read error; connection is unusable
        kOversized,  ///< line exceeded the bound; its bytes were
                     ///< discarded up to the newline, reader still usable
    };

    LineReader(int fd, std::size_t max_line_bytes);

    Status next(std::string& line);

private:
    int fd_;
    std::size_t max_line_bytes_;
    std::string buf_;
    std::size_t pos_ = 0;          ///< consumed prefix of buf_
    bool discarding_ = false;      ///< mid-oversized-line
    bool eof_ = false;
};

/// Write \p line plus a trailing newline, retrying short writes,
/// without ever raising SIGPIPE. Returns false once the peer is gone.
[[nodiscard]] bool write_line(int fd, std::string_view line);

}  // namespace mcps::serve
