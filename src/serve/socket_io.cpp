#include "socket_io.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mcps::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in tcp_addr(const Endpoint& ep) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &sa.sin_addr) != 1) {
        throw std::runtime_error("invalid IPv4 address: " + ep.host);
    }
    return sa;
}

sockaddr_un unix_addr(const Endpoint& ep) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(sa.sun_path)) {
        throw std::runtime_error("unix socket path too long: " + ep.path);
    }
    std::memcpy(sa.sun_path, ep.path.c_str(), ep.path.size() + 1);
    return sa;
}

}  // namespace

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
    Endpoint ep;
    ep.host = std::move(host);
    ep.port = port;
    return ep;
}

Endpoint Endpoint::unix_path(std::string path) {
    Endpoint ep;
    ep.path = std::move(path);
    return ep;
}

std::string Endpoint::to_string() const {
    if (is_unix()) return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

Fd& Fd::operator=(Fd&& o) noexcept {
    if (this != &o) {
        reset();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

Fd::~Fd() { reset(); }

int Fd::release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

void Fd::reset() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Listener::Listener(const Endpoint& ep) : ep_{ep} {
    if (ep.is_unix()) {
        ::unlink(ep.path.c_str());  // stale socket from a previous run
        fd_ = Fd{::socket(AF_UNIX, SOCK_STREAM, 0)};
        if (!fd_.valid()) fail("socket(unix)");
        const sockaddr_un sa = unix_addr(ep);
        if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&sa),
                   static_cast<socklen_t>(sizeof sa)) != 0) {
            fail("bind(" + ep.to_string() + ")");
        }
        unlink_on_close_ = true;
    } else {
        fd_ = Fd{::socket(AF_INET, SOCK_STREAM, 0)};
        if (!fd_.valid()) fail("socket(tcp)");
        const int one = 1;
        ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        const sockaddr_in sa = tcp_addr(ep);
        if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&sa),
                   static_cast<socklen_t>(sizeof sa)) != 0) {
            fail("bind(" + ep.to_string() + ")");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0) {
            ep_.port = ntohs(bound.sin_port);
        }
    }
    if (::listen(fd_.get(), 64) != 0) fail("listen(" + ep.to_string() + ")");
}

Listener::~Listener() {
    if (unlink_on_close_) ::unlink(ep_.path.c_str());
}

Fd Listener::accept_one() {
    while (true) {
        const int fd = ::accept(fd_.get(), nullptr, nullptr);
        if (fd >= 0) {
            // Responses are whole lines written in one send; without
            // NODELAY, Nagle holds a pipelined response back until the
            // client ACKs the previous one, which a client that delays
            // its ACKs sends late.
            if (!ep_.is_unix()) {
                const int on = 1;
                (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on,
                                   sizeof on);
            }
            return Fd{fd};
        }
        if (errno == EINTR) continue;
        return Fd{};
    }
}

Fd connect_to(const Endpoint& ep) {
    if (ep.is_unix()) {
        Fd fd{::socket(AF_UNIX, SOCK_STREAM, 0)};
        if (!fd.valid()) fail("socket(unix)");
        const sockaddr_un sa = unix_addr(ep);
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa),
                      static_cast<socklen_t>(sizeof sa)) != 0) {
            fail("connect(" + ep.to_string() + ")");
        }
        return fd;
    }
    Fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
    if (!fd.valid()) fail("socket(tcp)");
    const sockaddr_in sa = tcp_addr(ep);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa),
                  static_cast<socklen_t>(sizeof sa)) != 0) {
        fail("connect(" + ep.to_string() + ")");
    }
    return fd;
}

LineReader::LineReader(int fd, std::size_t max_line_bytes)
    : fd_{fd}, max_line_bytes_{max_line_bytes} {}

LineReader::Status LineReader::next(std::string& line) {
    while (true) {
        const std::size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            const bool was_discarding = discarding_;
            const std::size_t len = nl - pos_;
            if (!was_discarding && len <= max_line_bytes_) {
                line.assign(buf_, pos_, len);
            }
            pos_ = nl + 1;
            if (pos_ == buf_.size() || pos_ > 16384) {
                buf_.erase(0, pos_);
                pos_ = 0;
            }
            if (was_discarding) {
                discarding_ = false;
                return Status::kOversized;
            }
            if (len > max_line_bytes_) return Status::kOversized;
            return Status::kLine;
        }
        // No newline buffered: bound memory before reading more.
        const std::size_t pending = buf_.size() - pos_;
        if (discarding_ || pending > max_line_bytes_) {
            discarding_ = true;
            buf_.clear();
            pos_ = 0;
        }
        if (eof_) return Status::kEof;  // unterminated tail discarded
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0) {
            eof_ = true;
        } else if (errno != EINTR) {
            return Status::kError;
        }
    }
}

bool write_line(int fd, std::string_view line) {
    std::string out;
    out.reserve(line.size() + 1);
    out.append(line);
    out.push_back('\n');
    const char* p = out.data();
    std::size_t left = out.size();
    while (left > 0) {
        const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
        if (n > 0) {
            p += n;
            left -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

}  // namespace mcps::serve
