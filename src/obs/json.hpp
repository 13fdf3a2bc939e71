/// \file json.hpp
/// \brief The one JSON reader and string escaper: event logs, bench
/// reports, SARIF, scenario specs and the serve protocol all use it.
///
/// JsonReader is a pull cursor over one in-memory document: callers with
/// a fixed shape (a JSONL event, a spec, a serve request) read it field
/// by field, and the validators that walk open-ended documents (bench
/// reports, SARIF) use the small JsonValue tree built on it. The rules
/// are strict and total, so any input ends in a value or a JsonError,
/// never a crash, a hang or an unbounded allocation:
///
///  * objects and arrays nest at most kJsonMaxDepth (16) levels;
///  * raw control bytes (< 0x20) inside strings are rejected;
///  * escapes are the JSON short set plus `\u` limited to U+0000-U+007F,
///    which is everything json_escape ever writes;
///  * a number must be one whole JSON number token (`1-2` is an error)
///    and is converted with std::from_chars;
///  * every error carries the byte offset where reading stopped.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcps::obs {

/// JSON string escaping: quotes, backslashes, and control bytes as \n,
/// \r, \t or \u00XX; every other byte passes through unchanged.
/// Appends the escaped \p s to \p out.
void append_json_escaped(std::string& out, std::string_view s);
/// The escaped \p s as a new string.
[[nodiscard]] std::string json_escape(std::string_view s);

/// The first byte of \p s at or after \p pos that a JSON string cannot
/// hold unescaped ('"', '\\' or a control byte), or s.size(); eight
/// bytes per step. JsonReader scans string bodies with it.
[[nodiscard]] std::size_t skip_plain(std::string_view s,
                                     std::size_t pos) noexcept;

inline constexpr int kJsonMaxDepth = 16;

/// The reader's one error type; what() is "<reason> at offset <n>".
class JsonError : public std::runtime_error {
public:
    JsonError(const std::string& reason, std::size_t offset);
    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    std::size_t offset_;
};

enum class JsonKind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
};

/// Pull cursor over one JSON text. The views string() and next_member()
/// return stay valid until the next call of the same function.
class JsonReader {
public:
    explicit JsonReader(std::string_view text) noexcept : text_{text} {}

    /// Kind of the next value, without consuming it.
    [[nodiscard]] JsonKind peek();

    void begin_object() { open('{'); }
    /// Reads the next member's key and ':'; false once the innermost
    /// object's '}' is consumed.
    [[nodiscard]] bool next_member(std::string_view& key);
    void begin_array() { open('['); }
    /// True when another element follows; false once the innermost
    /// array's ']' is consumed.
    [[nodiscard]] bool next_element() { return next(']'); }

    [[nodiscard]] std::string_view string();
    [[nodiscard]] double number();
    [[nodiscard]] std::int64_t int64();
    [[nodiscard]] std::uint64_t uint64();
    [[nodiscard]] bool boolean();
    void null();
    /// Consumes one value of any kind.
    void skip();
    /// Consumes one value and returns its exact source text.
    [[nodiscard]] std::string_view raw_value();

    /// True when only whitespace remains.
    [[nodiscard]] bool at_end();
    /// Throws unless only whitespace remains.
    void finish();

    [[noreturn]] void fail(const std::string& reason) const;

private:
    // ws, accept and expect run around every token, so they are inline
    // (expect's error path is not): a JSONL event line takes a dozen.
    void ws() noexcept {
        while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    }
    bool accept(char c) noexcept {
        ws();
        if (pos_ >= text_.size() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }
    void expect(char c) {
        if (!accept(c)) fail_expected(c);
    }
    /// Every byte above ' ' is settled by the first comparison.
    static bool is_space(char c) noexcept {
        return static_cast<unsigned char>(c) <= ' ' &&
               (c == ' ' || c == '\n' || c == '\r' || c == '\t');
    }
    [[noreturn]] void fail_expected(char c) const;
    void open(char c);
    bool next(char close);
    std::string_view scan_string(std::string& out);
    template <class T>
    T read_number(const char* want);

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    /// Set by begin_*, cleared by the first next_*: every item but the
    /// first of a container must follow a ','.
    bool first_ = false;
    std::string key_buf_, str_buf_;
};

/// Depth-bounded document tree for validators that walk nested input.
struct JsonValue {
    JsonKind kind = JsonKind::kNull;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// First member named \p key; nullptr if absent or not an object.
    [[nodiscard]] const JsonValue* get(std::string_view key) const;
};

/// Parses a whole document. \throws JsonError.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace mcps::obs
