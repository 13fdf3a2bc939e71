#include "protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/json.hpp"

namespace mcps::serve {

namespace {

[[noreturn]] void bad(std::string message) {
    throw ProtocolError{"bad-request", std::move(message)};
}

bool id_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' ||
           c == '-';
}

void validate_id(std::string_view id) {
    if (id.size() > kMaxIdBytes) bad("id longer than 64 bytes");
    for (const char c : id) {
        if (!id_char(c)) bad("id contains characters outside [A-Za-z0-9._:-]");
    }
}

}  // namespace

std::string_view to_string(QosClass c) noexcept {
    switch (c) {
        case QosClass::kClinical: return "clinical";
        case QosClass::kInteractive: return "interactive";
        case QosClass::kBatch: return "batch";
    }
    return "?";
}

QosClass parse_qos_class(std::string_view s) {
    if (s == "clinical") return QosClass::kClinical;
    if (s == "interactive") return QosClass::kInteractive;
    if (s == "batch") return QosClass::kBatch;
    throw ProtocolError{"bad-request",
                        "class: expected clinical|interactive|batch, got '" +
                            std::string{s} + "'"};
}

bool utf8_valid(std::string_view s) noexcept {
    std::size_t i = 0;
    while (i < s.size()) {
        const auto b0 = static_cast<unsigned char>(s[i]);
        std::size_t len;
        std::uint32_t cp;
        if (b0 < 0x80) {
            ++i;
            continue;
        } else if ((b0 & 0xE0) == 0xC0) {
            len = 2;
            cp = b0 & 0x1Fu;
        } else if ((b0 & 0xF0) == 0xE0) {
            len = 3;
            cp = b0 & 0x0Fu;
        } else if ((b0 & 0xF8) == 0xF0) {
            len = 4;
            cp = b0 & 0x07u;
        } else {
            return false;
        }
        if (i + len > s.size()) return false;
        for (std::size_t k = 1; k < len; ++k) {
            const auto b = static_cast<unsigned char>(s[i + k]);
            if ((b & 0xC0) != 0x80) return false;
            cp = (cp << 6) | (b & 0x3Fu);
        }
        // Overlong encodings, UTF-16 surrogates, out of range.
        if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
            (len == 4 && cp < 0x10000) || (cp >= 0xD800 && cp <= 0xDFFF) ||
            cp > 0x10FFFF) {
            return false;
        }
        i += len;
    }
    return true;
}

Request parse_request(std::string_view line) {
    if (!utf8_valid(line)) bad("request line is not valid UTF-8");
    obs::JsonReader s{line};
    Request r;
    bool seen_spec = false, seen_cmd = false, seen_id = false;
    bool seen_class = false, seen_no_cache = false;
    std::string cmd;
    std::string_view key;
    const auto once = [&](bool& seen) {
        if (seen) bad("duplicate field '" + std::string{key} + "'");
        seen = true;
    };
    try {
        s.begin_object();
        while (s.next_member(key)) {
            if (key == "id") {
                once(seen_id);
                r.id = s.string();
                validate_id(r.id);
            } else if (key == "spec") {
                once(seen_spec);
                if (s.peek() != obs::JsonKind::kObject) {
                    bad("spec: expected a JSON object");
                }
                try {
                    r.spec = scenario::read_spec_json(s);
                } catch (const scenario::SpecError& e) {
                    throw ProtocolError{"bad-spec", e.what()};
                }
            } else if (key == "class") {
                once(seen_class);
                r.qos = parse_qos_class(s.string());
            } else if (key == "no_cache") {
                once(seen_no_cache);
                r.no_cache = s.boolean();
            } else if (key == "cmd") {
                once(seen_cmd);
                cmd = s.string();
            } else {
                bad("unknown field '" + std::string{key} + "'");
            }
        }
        s.finish();
    } catch (const obs::JsonError& e) {
        bad(e.what());
    }

    if (seen_spec == seen_cmd) {
        bad("exactly one of 'spec' or 'cmd' is required");
    }
    if (seen_cmd) {
        if (cmd == "ping") {
            r.kind = Request::Kind::kPing;
        } else if (cmd == "stats") {
            r.kind = Request::Kind::kStats;
        } else if (cmd == "drain") {
            r.kind = Request::Kind::kDrain;
        } else {
            bad("cmd: expected ping|stats|drain, got '" + cmd + "'");
        }
        if (seen_class || seen_no_cache) {
            bad("'class'/'no_cache' are only valid on run requests");
        }
    } else {
        r.kind = Request::Kind::kRun;
    }
    return r;
}

std::string Request::to_line() const {
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\"";
    switch (kind) {
        case Kind::kRun:
            os << ",\"spec\":" << spec.to_json();
            if (qos != QosClass::kInteractive) {
                os << ",\"class\":\"" << serve::to_string(qos) << "\"";
            }
            if (no_cache) os << ",\"no_cache\":true";
            break;
        case Kind::kPing: os << ",\"cmd\":\"ping\""; break;
        case Kind::kStats: os << ",\"cmd\":\"stats\""; break;
        case Kind::kDrain: os << ",\"cmd\":\"drain\""; break;
    }
    os << "}";
    return os.str();
}

std::string artifacts_json_line(const scenario::RunArtifacts& a) {
    std::ostringstream os;
    os << "{\"spec\":" << a.spec.to_json() << ",\"fingerprint\":\""
       << a.fingerprint_hex() << "\",\"outcome\":{";
    for (std::size_t i = 0; i < a.outcome.size(); ++i) {
        os << (i ? "," : "") << "\"" << a.outcome[i].first << "\":";
        if (std::isfinite(a.outcome[i].second)) {
            os << a.outcome[i].second;
        } else {
            os << "null";
        }
    }
    os << "}}";
    return os.str();
}

namespace {

/// `{"id":"<id>","status":"` — the head every response line shares.
std::string response_head(std::string_view id) {
    std::string out = "{\"id\":\"";
    obs::append_json_escaped(out, id);
    out += "\",\"status\":\"";
    return out;
}

}  // namespace

std::string ok_run_response(std::string_view id, bool cached,
                            std::uint64_t queue_us, std::uint64_t run_us,
                            std::string_view artifacts_json) {
    std::string out = response_head(id);
    out += cached ? "ok\",\"cached\":true" : "ok\",\"cached\":false";
    out += ",\"queue_us\":";
    out += std::to_string(queue_us);
    out += ",\"run_us\":";
    out += std::to_string(run_us);
    out += ",\"artifacts\":";
    out += artifacts_json;
    out += '}';
    return out;
}

std::string pong_response(std::string_view id) {
    return response_head(id) + "ok\",\"pong\":true}";
}

std::string stats_response(std::string_view id, std::string_view stats_json) {
    std::string out = response_head(id);
    out += "ok\",\"stats\":";
    out += stats_json;
    out += '}';
    return out;
}

std::string drain_response(std::string_view id) {
    return response_head(id) + "ok\",\"draining\":true}";
}

std::string error_response(std::string_view id, std::string_view status,
                           std::string_view code, std::string_view message) {
    std::string out = response_head(id);
    out += status;
    out += "\",\"error\":{\"code\":\"";
    obs::append_json_escaped(out, code);
    out += "\",\"message\":\"";
    obs::append_json_escaped(out, message);
    out += "\"}}";
    return out;
}

Response parse_response(std::string_view line) {
    if (!utf8_valid(line)) bad("response line is not valid UTF-8");
    obs::JsonReader s{line};
    Response r;
    try {
        s.begin_object();
        std::string_view key;
        while (s.next_member(key)) {
            if (key == "id") {
                r.id = s.string();
            } else if (key == "status") {
                r.status = s.string();
            } else if (key == "cached") {
                r.cached = s.boolean();
            } else if (key == "pong") {
                r.pong = s.boolean();
            } else if (key == "draining") {
                r.draining = s.boolean();
            } else if (key == "queue_us") {
                r.queue_us = s.uint64();
            } else if (key == "run_us") {
                r.run_us = s.uint64();
            } else if (key == "artifacts") {
                r.artifacts = s.raw_value();
            } else if (key == "stats") {
                r.stats = s.raw_value();
            } else if (key == "error") {
                s.begin_object();
                while (s.next_member(key)) {
                    if (key == "code") {
                        r.error_code = s.string();
                    } else if (key == "message") {
                        r.error_message = s.string();
                    } else {
                        bad("unknown error field '" + std::string{key} + "'");
                    }
                }
            } else {
                bad("unknown field '" + std::string{key} + "'");
            }
        }
        s.finish();
    } catch (const obs::JsonError& e) {
        bad(e.what());
    }
    if (r.status.empty()) bad("response missing 'status'");
    return r;
}

std::string artifacts_fingerprint(std::string_view artifacts) {
    // The artifacts writer is ours, so the field appears literally as
    // "fingerprint":"0x...". A scan is enough; absence yields "".
    const std::string_view needle = "\"fingerprint\":\"";
    const std::size_t at = artifacts.find(needle);
    if (at == std::string_view::npos) return "";
    const std::size_t start = at + needle.size();
    const std::size_t end = artifacts.find('"', start);
    if (end == std::string_view::npos) return "";
    return std::string{artifacts.substr(start, end - start)};
}

}  // namespace mcps::serve
