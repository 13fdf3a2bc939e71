/// \file client.hpp
/// \brief Synchronous `mcps serve` client: one connection, one request in
/// flight. Covers the CLI, the load generator and the e2e tests; the
/// 1:1 request/response line discipline of the protocol means a
/// synchronous caller can always pair the next response line with the
/// request it just wrote.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "protocol.hpp"
#include "socket_io.hpp"

namespace mcps::serve {

class Client {
public:
    /// Connects immediately. \throws std::runtime_error on failure.
    explicit Client(const Endpoint& ep);

    /// Send one request, block for its response.
    /// \throws std::runtime_error when the connection drops;
    /// \throws ProtocolError when the response line is malformed.
    Response call(const Request& req);

    /// Send a raw line verbatim (malformed-input tests) and block for
    /// the server's structured reply.
    Response call_raw(std::string_view line);

    /// Convenience wrappers (ids are generated: "c1", "c2", ...).
    Response run(const scenario::ScenarioSpec& spec,
                 QosClass qos = QosClass::kInteractive,
                 bool no_cache = false);
    Response ping();
    Response stats();
    Response drain();

private:
    [[nodiscard]] std::string make_id();

    Fd fd_;
    LineReader reader_;
    std::uint64_t next_id_ = 0;
};

}  // namespace mcps::serve
