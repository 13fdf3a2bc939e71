#include "json.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <utility>

namespace mcps::obs {

void append_json_escaped(std::string& out, std::string_view s) {
    std::size_t run = 0;  // first byte not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.substr(run, i - run));
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                out += "\\u00";
                out += "0123456789abcdef"[c >> 4];
                out += "0123456789abcdef"[c & 0xF];
        }
    }
    out.append(s.substr(run));
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    append_json_escaped(out, s);
    return out;
}

JsonError::JsonError(const std::string& reason, std::size_t offset)
    : std::runtime_error{reason + " at offset " + std::to_string(offset)},
      offset_{offset} {}

namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// A string byte the scan can step over: not '"', not '\\', not a
/// control byte.
bool is_plain(char c) noexcept {
    return static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\';
}

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;

/// 0x80 in exactly the bytes of \p v that are zero. Adding 0x7F to a
/// byte's low seven bits never carries into the next byte, so no byte's
/// result depends on its neighbours.
std::uint64_t zero_bytes(std::uint64_t v) noexcept {
    return ~(((v & kLow7) + kLow7) | v | kLow7);
}

}  // namespace

std::size_t skip_plain(std::string_view s, std::size_t pos) noexcept {
    for (; pos + 8 <= s.size(); pos += 8) {
        std::uint64_t w;
        std::memcpy(&w, s.data() + pos, 8);
        const std::uint64_t hit = zero_bytes(w ^ (std::uint64_t{'"'} * kOnes)) |
                                  zero_bytes(w ^ (std::uint64_t{'\\'} * kOnes)) |
                                  zero_bytes(w & (std::uint64_t{0xE0} * kOnes));
        if (hit == 0) continue;
        // The mask is exact, so its lowest-addressed set byte is the
        // first non-plain byte in either byte order.
        const int bit = std::endian::native == std::endian::little
                            ? std::countr_zero(hit)
                            : std::countl_zero(hit);
        return pos + static_cast<std::size_t>(bit / 8);
    }
    while (pos < s.size() && is_plain(s[pos])) ++pos;
    return pos;
}

void JsonReader::fail(const std::string& reason) const {
    throw JsonError{reason, pos_};
}

void JsonReader::fail_expected(char c) const {
    fail(pos_ >= text_.size() ? std::string{"unexpected end of input"}
                              : std::string{"expected '"} + c + "'");
}

JsonKind JsonReader::peek() {
    ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
        case '{': return JsonKind::kObject;
        case '[': return JsonKind::kArray;
        case '"': return JsonKind::kString;
        case 't':
        case 'f': return JsonKind::kBool;
        case 'n': return JsonKind::kNull;
        default:
            if (c == '-' || is_digit(c)) return JsonKind::kNumber;
            fail("expected a value");
    }
}

void JsonReader::open(char c) {
    ws();
    if (depth_ == kJsonMaxDepth && pos_ < text_.size() && text_[pos_] == c) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
             " levels");
    }
    expect(c);
    ++depth_;
    first_ = true;
}

bool JsonReader::next(char close) {
    const bool first = std::exchange(first_, false);
    if (accept(close)) {
        --depth_;
        return false;
    }
    if (!first) expect(',');
    return true;
}

bool JsonReader::next_member(std::string_view& key) {
    if (!next('}')) return false;
    key = scan_string(key_buf_);
    expect(':');
    return true;
}

std::string_view JsonReader::scan_string(std::string& out) {
    expect('"');
    const std::size_t start = pos_;
    std::size_t run = pos_;  // first byte not yet copied to \p out
    out.clear();
    while (true) {
        pos_ = skip_plain(text_, pos_);
        if (pos_ >= text_.size()) fail("unterminated string");
        const char c = text_[pos_];
        if (c == '"') break;
        if (c != '\\') fail("raw control byte in string");
        out.append(text_.substr(run, pos_ - run));
        if (++pos_ >= text_.size()) fail("unterminated escape");
        switch (text_[pos_]) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned v = 0;
                const std::string_view hex = text_.substr(pos_ + 1, 4);
                const auto [p, ec] = std::from_chars(
                    hex.data(), hex.data() + hex.size(), v, 16);
                if (ec != std::errc{} || p != hex.data() + 4) {
                    fail("bad \\u escape");
                }
                if (v > 0x7F) fail("\\u escape above U+007F");
                out.push_back(static_cast<char>(v));
                pos_ += 4;
                break;
            }
            default: fail("unknown escape");
        }
        run = ++pos_;
    }
    ++pos_;  // the closing quote
    const std::string_view tail = text_.substr(run, pos_ - 1 - run);
    if (run == start) return tail;  // no escapes: a view into the text
    out.append(tail);
    return out;
}

std::string_view JsonReader::string() { return scan_string(str_buf_); }

template <class T>
T JsonReader::read_number(const char* want) {
    ws();
    std::size_t end = pos_;
    while (end < text_.size() &&
           (is_digit(text_[end]) || text_[end] == '-' || text_[end] == '+' ||
            text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E')) {
        ++end;
    }
    // The whole token must convert: "1-2" is one malformed number.
    T v{};
    const auto [p, ec] = std::from_chars(text_.data() + pos_,
                                         text_.data() + end, v);
    if (ec == std::errc::result_out_of_range) fail("number out of range");
    if (ec != std::errc{} || p != text_.data() + end) fail(want);
    pos_ = end;
    return v;
}

double JsonReader::number() {
    return read_number<double>("expected a number");
}
std::int64_t JsonReader::int64() {
    return read_number<std::int64_t>("expected an integer");
}
std::uint64_t JsonReader::uint64() {
    return read_number<std::uint64_t>("expected an unsigned integer");
}

bool JsonReader::boolean() {
    ws();
    if (text_.substr(pos_, 4) == "true") {
        pos_ += 4;
        return true;
    }
    if (text_.substr(pos_, 5) == "false") {
        pos_ += 5;
        return false;
    }
    fail("expected true or false");
}

void JsonReader::null() {
    ws();
    if (text_.substr(pos_, 4) != "null") fail("expected null");
    pos_ += 4;
}

void JsonReader::skip() {
    switch (peek()) {
        case JsonKind::kObject: {
            begin_object();
            std::string_view key;
            while (next_member(key)) skip();
            return;
        }
        case JsonKind::kArray:
            begin_array();
            while (next_element()) skip();
            return;
        case JsonKind::kString: (void)string(); return;
        case JsonKind::kNumber: (void)number(); return;
        case JsonKind::kBool: (void)boolean(); return;
        case JsonKind::kNull: null(); return;
    }
}

std::string_view JsonReader::raw_value() {
    ws();
    const std::size_t start = pos_;
    skip();
    return text_.substr(start, pos_ - start);
}

bool JsonReader::at_end() {
    ws();
    return pos_ == text_.size();
}

void JsonReader::finish() {
    if (!at_end()) fail("trailing content");
}

// ---- DOM ------------------------------------------------------------

const JsonValue* JsonValue::get(std::string_view key) const {
    for (const auto& [k, v] : object) {
        if (k == key) return &v;
    }
    return nullptr;
}

namespace {

JsonValue read_json_value(JsonReader& r) {
    JsonValue v;
    v.kind = r.peek();
    switch (v.kind) {
        case JsonKind::kNull: r.null(); break;
        case JsonKind::kBool: (void)r.boolean(); break;
        case JsonKind::kNumber: v.number = r.number(); break;
        case JsonKind::kString: v.string = r.string(); break;
        case JsonKind::kArray:
            r.begin_array();
            while (r.next_element()) v.array.push_back(read_json_value(r));
            break;
        case JsonKind::kObject: {
            r.begin_object();
            std::string_view key;
            while (r.next_member(key)) {
                // The key view does not survive the nested read.
                std::string k{key};
                v.object.emplace_back(std::move(k), read_json_value(r));
            }
            break;
        }
    }
    return v;
}

}  // namespace

JsonValue parse_json(std::string_view text) {
    JsonReader r{text};
    JsonValue v = read_json_value(r);
    r.finish();
    return v;
}

}  // namespace mcps::obs
