#include "exporters.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
#include "sim/hash.hpp"

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

/// The (kind, src, detail) triples the writers' fragment table and the
/// reader's segment table each hold, and the bytes of text they may
/// hold in all: fixed, so neither grows with the number of triples.
constexpr std::size_t kTableTriples = 128;
constexpr std::size_t kTableTextBytes = std::size_t{1} << 14;
/// Open-addressed slots, at most half full.
constexpr std::size_t kTableSlots = 2 * kTableTriples;

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
    /// Appends the bytes \p e's line holds before its time, then those
    /// between its time and its value; returns the first part's length.
    std::size_t render(std::string& out, const Event& e) const {
        out += kTime;
        out += kKind;
        out += to_string(e.kind);
        out += kSrc;
        out += sym[e.source];
        out += kDetail;
        out += sym[e.detail];
        out += kValue;
        return kTime.size();
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
    /// As JsonlRecords::render: the name/cat/ts head from the kind and
    /// detail, then the pid/tid/args middle from the source's lane.
    // Kind names need no escaping, so escape(kind + ":" + detail) is
    // kind + ":" + escape(detail).
    std::size_t render(std::string& out, const Event& e) const {
        const std::size_t begin = out.size();
        out += kName;
        out += to_string(e.kind);
        out += ':';
        out += sym[e.detail];
        out += kCat;
        out += to_string(e.kind);
        out += kTime;
        const std::size_t head = out.size() - begin;
        out += kLane;
        out += std::to_string(lane[e.source]);
        out += kValue;
        return head;
    }
};

/// A record's constant bytes: those before its time, and those between
/// its time and its value.
struct Fragment {
    std::string_view head, mid;
};

/// The fragments of one export, each rendered once per distinct
/// (kind, source, detail) triple into an open-addressed table keyed by
/// the packed triple. A triple that finds the table full is rendered
/// again for each of its events, into one reused scratch buffer.
template <class Records>
class FragmentTable {
public:
    explicit FragmentTable(const Records& rec) : rec_{rec} {}

    /// \p e's fragment; valid until the next call.
    Fragment get(const Event& e) {
        const std::uint64_t ids = std::uint64_t{e.source} << 32 | e.detail;
        std::size_t i = sim::mix(static_cast<std::uint64_t>(e.kind), ids) &
                        (kTableSlots - 1);
        for (; slots_[i].end != 0; i = (i + 1) & (kTableSlots - 1)) {
            const Slot& s = slots_[i];
            if (s.ids == ids && s.kind == e.kind) {
                return split(text_, s.begin, s.split, s.end);
            }
        }
        if (count_ == kTableTriples ||
            text_.size() + rec_.bound(e) > kTableTextBytes) {
            scratch_.clear();
            const std::size_t head = rec_.render(scratch_, e);
            return split(scratch_, 0, head, scratch_.size());
        }
        const std::size_t begin = text_.size();
        const std::size_t head = rec_.render(text_, e);
        slots_[i] = Slot{ids, static_cast<std::uint32_t>(begin),
                         static_cast<std::uint32_t>(begin + head),
                         static_cast<std::uint32_t>(text_.size()), e.kind};
        ++count_;
        return split(text_, begin, begin + head, text_.size());
    }

private:
    /// Empty while its end is 0: every fragment has bytes.
    struct Slot {
        std::uint64_t ids = 0;  ///< source << 32 | detail
        std::uint32_t begin = 0, split = 0, end = 0;  ///< in text_
        EventKind kind{};
    };

    static Fragment split(std::string_view text, std::size_t begin,
                          std::size_t mid, std::size_t end) {
        return {text.substr(begin, mid - begin), text.substr(mid, end - mid)};
    }

    const Records& rec_;
    std::array<Slot, kTableSlots> slots_{};
    std::string text_;  ///< the held fragments, back to back
    std::size_t count_ = 0;
    std::string scratch_;
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

/// Appends every event's record to \p out through a raw cursor: its
/// triple's fragment, with the time and the value written between and
/// after its parts. \p out grows by at most one record's bound at a
/// time. Without a \p sink the summed bounds are reserved first, so the
/// buffer is never copied on growth; with one, \p out is flushed to it
/// whenever it passes kFlushBytes, so a large log is never held in
/// memory twice.
template <class Records>
void append_records(const EventLog& log, const Records& rec,
                    std::string& out, std::ostream* sink) {
    constexpr std::size_t kVarying =
        kMaxIntChars + kMaxNumberChars + Records::kEnd.size();
    std::size_t total = out.size();
    if (sink) {
        total = 2 * kFlushBytes;
    } else {
        for (const Event& e : log.events()) total += rec.bound(e);
    }
    out.reserve(total);
    FragmentTable<Records> fragments{rec};
    for (const Event& e : log.events()) {
        const Fragment f = fragments.get(e);
        const std::size_t at = out.size();
        out.resize(at + f.head.size() + f.mid.size() + kVarying);
        char* p = put_int(put(out.data() + at, f.head), e.time.ticks());
        p = put(write_number(put(p, f.mid), e.value), Records::kEnd);
        out.resize(static_cast<std::size_t>(p - out.data()));
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

/// A byte JsonReader's number token may hold.
bool is_number_byte(char c) noexcept {
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
           c == 'e' || c == 'E';
}

/// Reads the number token at the front of \p s with JsonReader's token
/// rule and its from_chars call, so the value is the one the reader
/// yields, bit for bit; false wherever the reader would fail.
template <class T>
bool read_number(std::string_view& s, T& v) noexcept {
    const auto digit = [](char c) { return c >= '0' && c <= '9'; };
    // JsonReader::peek's rule: a number starts with '-' or a digit.
    if (s.empty() || (s[0] != '-' && !digit(s[0]))) return false;
    // A token of an optional '-' and 1 to 15 digits is an integer exact
    // in an int64 and a double, so it is read here, as from_chars reads
    // it: leading zeros included, and "-0" as 0 or -0.0.
    const std::size_t sign = s[0] == '-' ? 1 : 0;
    std::size_t end = sign;
    std::uint64_t u = 0;
    for (; end < s.size() && digit(s[end]); ++end) {
        u = 10 * u + static_cast<std::uint64_t>(s[end] - '0');
    }
    if (end > sign && end - sign <= 15 &&
        (end == s.size() || !is_number_byte(s[end]))) {
        v = sign ? -static_cast<T>(u) : static_cast<T>(u);
        s.remove_prefix(end);
        return true;
    }
    // JsonReader::read_number's token: every byte a number may hold.
    while (end < s.size() && is_number_byte(s[end])) ++end;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + end, v);
    if (ec != std::errc{} || p != s.data() + end) return false;
    s.remove_prefix(end);
    return true;
}

/// A hash of \p s for the segment table: each 8-byte word times the
/// FNV prime, summed with a rotation between words so their order
/// counts, then the fingerprint fold. The products do not wait on each
/// other, so each word adds only a rotate and an add to the chain. A
/// text of 8 bytes or more ends on its last 8 bytes, overlapping the
/// word before; a shorter one is one zero-padded word.
std::uint64_t hash_words(std::string_view s) noexcept {
    const auto fold = [](std::uint64_t h, const char* p) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        return std::rotl(h, 21) + w * sim::kFnvPrime;
    };
    std::uint64_t h = s.size();
    if (s.size() < 8) {
        char w[8] = {};
        std::copy(s.begin(), s.end(), w);
        h = fold(h, w);
    } else {
        for (std::size_t i = 0; i + 8 < s.size(); i += 8) {
            h = fold(h, s.data() + i);
        }
        h = fold(h, s.data() + s.size() - 8);
    }
    return sim::mix(sim::kFnvOffset, h);
}

/// Reads the lines of one JSONL stream into one log. A line spelled
/// exactly as write_jsonl writes an event is split into its t_us token,
/// its (kind, src, detail) segment and its value token; each distinct
/// segment is decoded once and looked up after that. Any other line
/// goes through JsonReader, which reads it or names what is wrong.
class LineDecoder {
public:
    explicit LineDecoder(EventLog& log) : log_{log} {}

    /// Reads line \p lineno (1-based) into the log.
    void read(std::string_view line, std::size_t lineno) {
        if (line.empty() || read_canonical(line)) return;
        try {
            read_event(line, log_);
        } catch (const JsonError& e) {
            std::string msg{"jsonl line "};
            msg += std::to_string(lineno);
            msg += ": ";
            msg += e.what();
            throw std::runtime_error{msg};
        }
    }

private:
    /// Empty while its end is 0: every segment has bytes.
    struct Slot {
        std::uint64_t hash = 0;
        std::uint32_t begin = 0, end = 0;  ///< the segment, in text_
        EventKind kind{};
        SymbolId src = 0, detail = 0;
    };

    /// Reads \p line if it is spelled exactly as write_jsonl writes an
    /// event: JsonlRecords' literals in their order, plain strings, a
    /// known kind, a number or null, and nothing after the '}'. Any
    /// other spelling returns false with the log untouched. Only a
    /// segment the table does not hold is decoded, src interned before
    /// detail, so symbol ids keep first-appearance order.
    bool read_canonical(std::string_view line) {
        using R = JsonlRecords;
        std::int64_t t_us = 0;
        double value = std::numeric_limits<double>::quiet_NaN();
        if (!skip_literal(line, R::kTime) || !read_number(line, t_us) ||
            !line.ends_with('}')) {
            return false;
        }
        line.remove_suffix(1);
        // The value token runs back from the '}' over number bytes; the
        // segment ends in kValue's ':', which is not one.
        std::size_t at = line.size();
        while (at > 0 && is_number_byte(line[at - 1])) --at;
        std::string_view token = line.substr(at);
        if (token.empty() && line.ends_with(kJsonNull)) {
            at -= kJsonNull.size();
        } else if (!read_number(token, value)) {
            return false;
        }
        const std::string_view segment = line.substr(0, at);

        const std::uint64_t hash = hash_words(segment);
        std::size_t i = hash & (kTableSlots - 1);
        for (; slots_[i].end != 0; i = (i + 1) & (kTableSlots - 1)) {
            const Slot& s = slots_[i];
            if (s.hash == hash &&
                std::string_view{text_}.substr(s.begin, s.end - s.begin) ==
                    segment) {
                emit(s.kind, t_us, s.src, s.detail, value);
                return true;
            }
        }
        std::string_view rest = segment, name, src, detail;
        if (!skip_literal(rest, R::kKind) || !read_plain(rest, name) ||
            !skip_literal(rest, R::kSrc) || !read_plain(rest, src) ||
            !skip_literal(rest, R::kDetail) || !read_plain(rest, detail) ||
            rest != R::kValue) {
            return false;
        }
        const std::optional<EventKind> kind = event_kind_from(name);
        if (!kind) return false;
        const SymbolId s = log_.intern(src);
        const SymbolId d = log_.intern(detail);
        if (count_ < kTableTriples &&
            text_.size() + segment.size() <= kTableTextBytes) {
            slots_[i] = Slot{hash, static_cast<std::uint32_t>(text_.size()),
                             static_cast<std::uint32_t>(text_.size() +
                                                        segment.size()),
                             *kind, s, d};
            text_ += segment;
            ++count_;
        }
        emit(*kind, t_us, s, d, value);
        return true;
    }

    void emit(EventKind kind, std::int64_t t_us, SymbolId src,
              SymbolId detail, double value) {
        log_.emit(Event{kind,
                        mcps::sim::SimTime::origin() +
                            mcps::sim::SimDuration::micros(t_us),
                        src, detail, value});
    }

    EventLog& log_;
    std::array<Slot, kTableSlots> slots_{};
    std::string text_;  ///< the held segments, back to back
    std::size_t count_ = 0;
};

}  // namespace

EventLog read_jsonl(std::string_view text) {
    EventLog log;
    // Event lines run about 100 bytes; an event takes 32, so this stays
    // under half the text's size whatever the text holds.
    log.reserve(text.size() / 64);
    LineDecoder decoder{log};
    for (std::size_t lineno = 1; !text.empty(); ++lineno) {
        const std::size_t nl = text.find('\n');
        decoder.read(text.substr(0, nl), lineno);
        text.remove_prefix(nl == std::string_view::npos ? text.size()
                                                        : nl + 1);
    }
    return log;
}

EventLog read_jsonl(std::istream& is) {
    constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
    EventLog log;
    LineDecoder decoder{log};
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
            decoder.read(rest.substr(0, nl), lineno);
            rest.remove_prefix(nl + 1);
        }
        carried = rest.size();
        std::memmove(buf.data(), rest.data(), carried);
    }
    // A last line without a newline.
    decoder.read(std::string_view{buf.data(), carried}, lineno);
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
