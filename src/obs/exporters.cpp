#include "exporters.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "format.hpp"
#include "json.hpp"

namespace mcps::obs {

// ---- JSONL and Chrome trace_event -----------------------------------

namespace {

/// Each symbol's JSON-escaped text, indexed by id: the writers escape
/// once per symbol, not once per event.
std::vector<std::string> escaped_symbols(const EventLog& log) {
    std::vector<std::string> out(log.symbol_count());
    for (std::size_t id = 0; id < out.size(); ++id) {
        append_json_escaped(out[id], log.symbol(static_cast<SymbolId>(id)));
    }
    return out;
}

/// Longest decimal int64 ("-9223372036854775808").
constexpr std::size_t kMaxIntChars = 20;

char* put(char* p, std::string_view s) {
    return std::copy(s.begin(), s.end(), p);
}

char* put_int(char* p, std::int64_t v) {
    return std::to_chars(p, p + kMaxIntChars, v).ptr;
}

/// One write_jsonl line per event. read_canonical reads a line back
/// from the same literals, so the line's shape is stated only here.
struct JsonlRecords {
    static constexpr std::string_view kTime = "{\"t_us\":",
                                      kKind = ",\"kind\":\"",
                                      kSrc = "\",\"src\":\"",
                                      kDetail = "\",\"detail\":\"",
                                      kValue = "\",\"value\":", kEnd = "}\n";
    static constexpr std::size_t kFixed =
        kTime.size() + kMaxIntChars + kKind.size() + kSrc.size() +
        kDetail.size() + kValue.size() + kMaxNumberChars + kEnd.size();

    std::vector<std::string> sym;

    [[nodiscard]] std::size_t bound(const Event& e) const {
        return kFixed + to_string(e.kind).size() + sym[e.source].size() +
               sym[e.detail].size();
    }
    char* write(char* p, const Event& e) const {
        p = put_int(put(p, kTime), e.time.ticks());
        p = put(put(put(p, kKind), to_string(e.kind)), kSrc);
        p = put(put(put(p, sym[e.source]), kDetail), sym[e.detail]);
        p = write_number(put(p, kValue), e.value);
        return put(p, kEnd);
    }
};

/// One Chrome instant event per event, each after a ",\n": the lane
/// records always come first, since every event has a source.
struct ChromeRecords {
    static constexpr std::string_view kName = ",\n{\"name\":\"",
                                      kCat = "\",\"cat\":\"",
                                      kTime = "\",\"ph\":\"i\",\"s\":\"t\","
                                              "\"ts\":",
                                      kLane = ",\"pid\":1,\"tid\":",
                                      kValue = ",\"args\":{\"value\":",
                                      kEnd = "}}";
    static constexpr std::size_t kFixed =
        kName.size() + 1 + kCat.size() + kTime.size() + kMaxIntChars +
        kLane.size() + kMaxIntChars + kValue.size() + kMaxNumberChars +
        kEnd.size();

    std::vector<std::string> sym;
    std::vector<std::int64_t> lane;  ///< by source symbol id

    [[nodiscard]] std::size_t bound(const Event& e) const {
        return kFixed + 2 * to_string(e.kind).size() + sym[e.detail].size();
    }
    // Kind names need no escaping, so escape(kind + ":" + detail) is
    // kind + ":" + escape(detail).
    char* write(char* p, const Event& e) const {
        p = put(put(p, kName), to_string(e.kind));
        *p++ = ':';
        p = put(put(put(p, sym[e.detail]), kCat), to_string(e.kind));
        p = put_int(put(p, kTime), e.time.ticks());
        p = put_int(put(p, kLane), lane[e.source]);
        p = write_number(put(p, kValue), e.value);
        return put(p, kEnd);
    }
};

/// Appends the Chrome header to \p out: the trace array's opening and
/// one thread-name record per lane, lanes numbered by the first
/// appearance of their source (the emission order is deterministic, so
/// lane numbering is too). Fills \p rec's lane table.
void append_chrome_header(const EventLog& log, ChromeRecords& rec,
                          std::string& out) {
    rec.lane.assign(log.symbol_count(), 0);
    out += "{\"traceEvents\":[";
    std::int64_t lanes = 0;
    for (const Event& e : log.events()) {
        if (rec.lane[e.source] != 0) continue;
        rec.lane[e.source] = ++lanes;
        out += lanes == 1 ? "\n" : ",\n";
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
        out += std::to_string(lanes);
        out += ",\"args\":{\"name\":\"";
        out += rec.sym[e.source];
        out += "\"}}";
    }
}

/// The bytes a streamed export holds before handing them on.
constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

void flush(std::string& buf, std::ostream& os) {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

/// Appends every event's record to \p out, each through a raw cursor:
/// two resizes per record instead of one append per field. Without a
/// \p sink the summed bounds are reserved first, so the buffer is never
/// copied on growth; with one, \p out is flushed to it whenever it
/// passes kFlushBytes, so a large log is never held in memory twice.
template <class Records>
void append_records(const EventLog& log, const Records& rec,
                    std::string& out, std::ostream* sink) {
    std::size_t total = out.size();
    if (sink) {
        total = 2 * kFlushBytes;
    } else {
        for (const Event& e : log.events()) total += rec.bound(e);
    }
    out.reserve(total);
    for (const Event& e : log.events()) {
        const std::size_t at = out.size();
        out.resize(at + rec.bound(e));
        out.resize(static_cast<std::size_t>(rec.write(out.data() + at, e) -
                                            out.data()));
        if (sink && out.size() >= kFlushBytes) flush(out, *sink);
    }
}

void append_jsonl(const EventLog& log, std::string& out, std::ostream* sink) {
    append_records(log, JsonlRecords{escaped_symbols(log)}, out, sink);
}

void append_chrome_trace(const EventLog& log, std::string& out,
                         std::ostream* sink) {
    ChromeRecords rec{escaped_symbols(log), {}};
    append_chrome_header(log, rec, out);
    append_records(log, rec, out, sink);
    out += "\n]}\n";
}

}  // namespace

void write_jsonl(const EventLog& log, std::string& out) {
    append_jsonl(log, out, nullptr);
}

void write_jsonl(const EventLog& log, std::ostream& os) {
    std::string buf;
    append_jsonl(log, buf, &os);
    flush(buf, os);
}

void write_chrome_trace(const EventLog& log, std::string& out) {
    append_chrome_trace(log, out, nullptr);
}

void write_chrome_trace(const EventLog& log, std::ostream& os) {
    std::string buf;
    append_chrome_trace(log, buf, &os);
    flush(buf, os);
}

namespace {

[[noreturn]] void fail_wrong_type(const JsonReader& r, std::string_view key) {
    std::string reason{"'"};
    reason += key;
    reason += "' has the wrong type";
    r.fail(reason);
}

/// Reads one write_jsonl line into \p log: t_us an int64, value a
/// number or null (NaN), kind/src/detail strings. Unknown keys are
/// skipped. src and detail are interned as they are read, straight from
/// the reader's views.
void read_event(std::string_view line, EventLog& log) {
    JsonReader r{line};
    if (r.peek() != JsonKind::kObject) {
        r.skip();  // a malformed non-object reports the reader's error
        r.fail("not an object");
    }
    std::optional<std::int64_t> t_us;
    std::optional<EventKind> kind;
    std::optional<SymbolId> src, detail;
    std::optional<double> value;
    std::string_view key;
    r.begin_object();
    while (r.next_member(key)) {
        const JsonKind k = r.peek();
        const bool str = k == JsonKind::kString;
        if (key == "t_us" && k == JsonKind::kNumber) {
            t_us = r.int64();
        } else if (key == "kind" && str) {
            const std::string_view name = r.string();
            kind = event_kind_from(name);
            if (!kind) {
                std::string reason{"unknown event kind '"};
                reason += name;
                reason += '\'';
                r.fail(reason);
            }
        } else if (key == "src" && str) {
            src = log.intern(r.string());
        } else if (key == "detail" && str) {
            detail = log.intern(r.string());
        } else if (key == "value" && k == JsonKind::kNumber) {
            value = r.number();
        } else if (key == "value" && k == JsonKind::kNull) {
            r.null();
            value = std::numeric_limits<double>::quiet_NaN();
        } else if (key == "t_us" || key == "kind" || key == "src" ||
                   key == "detail" || key == "value") {
            fail_wrong_type(r, key);
        } else {
            r.skip();
        }
    }
    r.finish();
    if (!t_us || !kind || !src || !detail || !value) {
        r.fail("missing event field");
    }
    log.emit(Event{*kind,
                   mcps::sim::SimTime::origin() +
                       mcps::sim::SimDuration::micros(*t_us),
                   *src, *detail, *value});
}

/// Drops \p lit from the front of \p s; false if \p s does not start
/// with it.
bool skip_literal(std::string_view& s, std::string_view lit) noexcept {
    if (!s.starts_with(lit)) return false;
    s.remove_prefix(lit.size());
    return true;
}

/// Reads a string body up to its closing quote, which is left in \p s
/// (every literal after a string starts with it); false unless every
/// byte before it is one JsonReader passes through unescaped.
bool read_plain(std::string_view& s, std::string_view& out) noexcept {
    const std::size_t end = skip_plain(s, 0);
    if (end == s.size() || s[end] != '"') return false;
    out = s.substr(0, end);
    s.remove_prefix(end);
    return true;
}

/// Reads the number token at the front of \p s with JsonReader's token
/// rule and its from_chars call, so the value is the one the reader
/// yields, bit for bit; false wherever the reader would fail.
template <class T>
bool read_number(std::string_view& s, T& v) noexcept {
    // JsonReader::peek's rule: a number starts with '-' or a digit.
    if (s.empty() || (s[0] != '-' && (s[0] < '0' || s[0] > '9'))) {
        return false;
    }
    // JsonReader::read_number's token: every byte a number may hold.
    std::size_t end = 0;
    while (end < s.size() &&
           ((s[end] >= '0' && s[end] <= '9') || s[end] == '-' ||
            s[end] == '+' || s[end] == '.' || s[end] == 'e' ||
            s[end] == 'E')) {
        ++end;
    }
    const auto [p, ec] = std::from_chars(s.data(), s.data() + end, v);
    if (ec != std::errc{} || p != s.data() + end) return false;
    s.remove_prefix(end);
    return true;
}

/// Reads \p line into \p log if it is spelled exactly as
/// JsonlRecords::write spells an event: its literals in its order, plain
/// strings, a known kind, a number or null, and nothing after the '}'.
/// Any other spelling returns false with \p log untouched, and the line
/// goes to read_event, which reads it or names what is wrong.
bool read_canonical(std::string_view line, EventLog& log) {
    using R = JsonlRecords;
    std::int64_t t_us = 0;
    std::string_view name, src, detail;
    double value = std::numeric_limits<double>::quiet_NaN();
    if (!skip_literal(line, R::kTime) || !read_number(line, t_us) ||
        !skip_literal(line, R::kKind) || !read_plain(line, name) ||
        !skip_literal(line, R::kSrc) || !read_plain(line, src) ||
        !skip_literal(line, R::kDetail) || !read_plain(line, detail) ||
        !skip_literal(line, R::kValue) ||
        !(skip_literal(line, kJsonNull) || read_number(line, value)) ||
        line != R::kEnd.substr(0, R::kEnd.size() - 1)) {  // less the '\n'
        return false;
    }
    const std::optional<EventKind> kind = event_kind_from(name);
    if (!kind) return false;
    const SymbolId s = log.intern(src);
    log.emit(Event{*kind,
                   mcps::sim::SimTime::origin() +
                       mcps::sim::SimDuration::micros(t_us),
                   s, log.intern(detail), value});
    return true;
}

/// Reads line \p lineno (1-based) of a JSONL stream into \p log: the
/// canonical shape directly, any other through JsonReader.
void read_line(std::string_view line, std::size_t lineno, EventLog& log) {
    if (line.empty() || read_canonical(line, log)) return;
    try {
        read_event(line, log);
    } catch (const JsonError& e) {
        std::string msg{"jsonl line "};
        msg += std::to_string(lineno);
        msg += ": ";
        msg += e.what();
        throw std::runtime_error{msg};
    }
}

}  // namespace

EventLog read_jsonl(std::string_view text) {
    EventLog log;
    // Event lines run about 100 bytes; an event takes 32, so this stays
    // under half the text's size whatever the text holds.
    log.reserve(text.size() / 64);
    for (std::size_t lineno = 1; !text.empty(); ++lineno) {
        const std::size_t nl = text.find('\n');
        read_line(text.substr(0, nl), lineno, log);
        text.remove_prefix(nl == std::string_view::npos ? text.size()
                                                        : nl + 1);
    }
    return log;
}

EventLog read_jsonl(std::istream& is) {
    constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
    EventLog log;
    // buf[0, carried) is the line the last chunk ended inside, and the
    // next chunk is read after it, so a large stream is never held
    // whole; buf outgrows one chunk only for a line longer than one.
    std::vector<char> buf(kChunkBytes);
    std::size_t carried = 0, lineno = 1;
    while (true) {
        if (buf.size() < carried + kChunkBytes) {
            buf.resize(carried + kChunkBytes);
        }
        is.read(buf.data() + carried,
                static_cast<std::streamsize>(kChunkBytes));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got == 0) break;  // end of stream
        std::string_view rest{buf.data(), carried + got};
        for (std::size_t nl; (nl = rest.find('\n')) != std::string_view::npos;
             ++lineno) {
            read_line(rest.substr(0, nl), lineno, log);
            rest.remove_prefix(nl + 1);
        }
        carried = rest.size();
        std::memmove(buf.data(), rest.data(), carried);
    }
    // A last line without a newline.
    read_line(std::string_view{buf.data(), carried}, lineno, log);
    return log;
}

// ---- bench --json schema ---------------------------------------------

namespace {

struct Invalid {
    std::string what;
};

/// \p obj's member \p key, which must exist with kind \p kind.
const JsonValue& member(const JsonValue& obj, std::string_view key,
                        JsonKind kind, const std::string& at = "") {
    const JsonValue* v = obj.get(key);
    if (!v) throw Invalid{at + "missing key '" + std::string{key} + "'"};
    if (v->kind != kind) {
        throw Invalid{at + "key '" + std::string{key} +
                      "' has the wrong type"};
    }
    return *v;
}

void check_bench(const JsonValue& root) {
    if (root.kind != JsonKind::kObject) {
        throw Invalid{"top level is not an object"};
    }
    (void)member(root, "bench", JsonKind::kString);
    const double seed = member(root, "seed", JsonKind::kNumber).number;
    if (seed != std::floor(seed)) throw Invalid{"'seed' is not an integer"};
    const JsonValue& metrics = member(root, "metrics", JsonKind::kArray);
    for (std::size_t i = 0; i < metrics.array.size(); ++i) {
        const JsonValue& m = metrics.array[i];
        const std::string at = "metrics[" + std::to_string(i) + "]: ";
        if (m.kind != JsonKind::kObject) throw Invalid{at + "not an object"};
        (void)member(m, "name", JsonKind::kString, at);
        (void)member(m, "unit", JsonKind::kString, at);
        // The reader yields only finite numbers, so number-or-null is
        // the whole "finite or null" rule.
        const JsonValue* value = m.get("value");
        if (!value || (value->kind != JsonKind::kNumber &&
                       value->kind != JsonKind::kNull)) {
            throw Invalid{at + "'value' must be a number or null"};
        }
    }
}

}  // namespace

bool validate_bench_json(std::istream& is, std::string& error) {
    const std::string text{std::istreambuf_iterator<char>{is},
                           std::istreambuf_iterator<char>{}};
    try {
        check_bench(parse_json(text));
    } catch (const JsonError& e) {
        error = e.what();
        return false;
    } catch (const Invalid& e) {
        error = e.what;
        return false;
    }
    return true;
}

}  // namespace mcps::obs
