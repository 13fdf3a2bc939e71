/// \file cli.hpp
/// \brief The option tables and the one parse loop of the `mcps <cmd>`
/// drivers.
///
/// Each command declares its flags as a table of `Option` rows. A row
/// holds the flag, the domain of its value (switch, bounded integer,
/// jobs, number, string, output path or unsigned list), the modes that
/// read it and its help line. A mode is either a subcommand (the first
/// argument: `mcps run list`) or a selecting flag (`--replay`,
/// `--unix`, ...). `parse` walks the command line against the table
/// and refuses a flag that an active mode does not read, so no flag is
/// parsed and then ignored; `usage` prints the table. Header-only, and
/// included by the scenario test suite so the error messages are
/// unit-tested.
///
/// Error contract (exact strings, asserted by tests):
///   "<flag>: expected an integer, got '<v>'"
///   "<flag>: expected a number, got '<v>'"
///   "<flag>: <v> is above the maximum <max>"
///   "<flag>: <v> is below the minimum <min>"
///   "<flag>: <v> is outside [<lo>, <hi>]"
///   "<flag>: empty entry in '<v>'"
///   "<flag>: need at least <n> entries in '<v>'"
///   "<flag>: missing value"
///   "<flag>: not supported with <mode>"
///   "unknown option '<arg>'"
///   "unknown subcommand '<arg>'"
///   "missing subcommand"
///   "<flag>: cannot open '<path>'"
///   "<flag>: cannot write '<path>'"

#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/parallel.hpp"

namespace mcps::cli {

/// A user-facing usage error; tool_main prints the message and the
/// usage text to stderr and exits 2.
struct CliError {
    std::string message;
};

/// The one way a driver writes an output file: opens \p path, hands the
/// stream to \p write, then closes it and checks the stream, so a full
/// disk fails the command (exit 2) instead of exiting 0 with a short
/// file. \p flag names the option the path came from.
/// \throws CliError "<flag>: cannot open '<path>'" or
/// "<flag>: cannot write '<path>'".
template <typename Write>
void write_file(std::string_view flag, const std::string& path,
                Write&& write) {
    std::ofstream out{path, std::ios::binary};
    if (!out) {
        throw CliError{std::string{flag} + ": cannot open '" + path + "'"};
    }
    write(static_cast<std::ostream&>(out));
    out.close();
    if (!out) {
        throw CliError{std::string{flag} + ": cannot write '" + path + "'"};
    }
}

/// Strict base-10 unsigned parse of a flag value.
inline std::uint64_t parse_u64(std::string_view flag, std::string_view v) {
    std::uint64_t out = 0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || p != v.data() + v.size()) {
        throw CliError{std::string{flag} + ": expected an integer, got '" +
                       std::string{v} + "'"};
    }
    return out;
}

/// parse_u64, refusing values outside [\p min, \p max].
inline std::uint64_t parse_u64(std::string_view flag, std::string_view v,
                               std::uint64_t min, std::uint64_t max) {
    const std::uint64_t out = parse_u64(flag, v);
    if (out < min) {
        throw CliError{std::string{flag} + ": " + std::string{v} +
                       " is below the minimum " + std::to_string(min)};
    }
    if (out > max) {
        throw CliError{std::string{flag} + ": " + std::string{v} +
                       " is above the maximum " + std::to_string(max)};
    }
    return out;
}

/// A worker-thread count (`--jobs`): at most sim::kMaxJobs; 0 = serial.
inline unsigned parse_jobs(std::string_view flag, std::string_view v) {
    return static_cast<unsigned>(parse_u64(flag, v, 0, sim::kMaxJobs));
}

/// Strict decimal parse of a flag value (whole token must be consumed).
inline double parse_double(std::string_view flag, std::string_view v) {
    try {
        std::size_t used = 0;
        const double out = std::stod(std::string{v}, &used);
        if (used != v.size()) throw std::invalid_argument{""};
        return out;
    } catch (const std::exception&) {
        throw CliError{std::string{flag} + ": expected a number, got '" +
                       std::string{v} + "'"};
    }
}

/// Comma-separated unsigned list ("1,4,8"). Rejects empty entries and
/// values outside [\p min, \p max] (default: the range of unsigned).
inline std::vector<unsigned> parse_unsigned_list(
    std::string_view flag, std::string_view v,
    std::uint64_t max = std::numeric_limits<unsigned>::max(),
    std::uint64_t min = 0) {
    std::vector<unsigned> out;
    std::size_t start = 0;
    while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string_view item = v.substr(
            start, comma == std::string_view::npos ? std::string_view::npos
                                                   : comma - start);
        if (item.empty()) {
            throw CliError{std::string{flag} + ": empty entry in '" +
                           std::string{v} + "'"};
        }
        out.push_back(static_cast<unsigned>(parse_u64(flag, item, min, max)));
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    return out;
}

/// Forward cursor over a token list: the parse loop's reader.
class Args {
public:
    explicit Args(std::vector<std::string_view> items)
        : items_{std::move(items)} {}

    [[nodiscard]] bool done() const { return i_ >= items_.size(); }

    /// Current token; advances. Precondition: !done().
    std::string_view next() { return items_[i_++]; }

    /// Consume the next token as \p flag's value.
    /// \throws CliError "<flag>: missing value" at end of argv.
    ///
    /// GCC 12 -O2 speculates the subscript past the bounds guard when
    /// the caller's token vector has a compile-time-constant size (the
    /// unit tests), yielding a false -Warray-bounds.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
    std::string_view value(std::string_view flag) {
        if (i_ < items_.size()) return items_[i_++];
        throw CliError{std::string{flag} + ": missing value"};
    }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

private:
    std::vector<std::string_view> items_;
    std::size_t i_ = 0;
};

/// The value a flag takes. Every value is checked against its domain
/// while parsing, before the driver does any work.
struct Domain {
    enum class Kind : std::uint8_t {
        kSwitch,  ///< no value
        kCount,   ///< integer in [min, max]
        kNumber,  ///< finite decimal number in [lo, hi]
        kText,    ///< any string: a name, spec, input file or directory
        kPath,    ///< output file, written through write_file
        kList,    ///< comma list of at least min_items integers in [min, max]
    };
    Kind kind = Kind::kSwitch;
    std::string_view meta;  ///< the value's name in the usage text
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::size_t min_items = 1;
    double lo = 0.0, hi = 0.0;
};

inline constexpr Domain kSwitch{};
constexpr Domain count(std::string_view meta, std::uint64_t min = 0,
                       std::uint64_t max =
                           std::numeric_limits<std::uint64_t>::max()) {
    return {Domain::Kind::kCount, meta, min, max};
}
/// Worker threads: 0 (serial) up to sim::kMaxJobs.
inline constexpr Domain kJobs = count("N", 0, sim::kMaxJobs);
constexpr Domain number(std::string_view meta, double lo, double hi) {
    return {Domain::Kind::kNumber, meta, 0, 0, 0, lo, hi};
}
constexpr Domain text(std::string_view meta) {
    return {Domain::Kind::kText, meta};
}
inline constexpr Domain kOutPath{Domain::Kind::kPath, "PATH"};
constexpr Domain list(std::uint64_t min, std::uint64_t max,
                      std::size_t min_items = 1) {
    return {Domain::Kind::kList, "LIST", min, max, min_items};
}

/// One flag of a command: a row of its option table.
struct Option {
    std::string_view flag;
    Domain domain;
    /// The modes that read the flag, space-separated; "*" = every mode,
    /// "" = none (a command with selecting flags then reads it only
    /// when none of them is given).
    std::string_view modes;
    std::string_view help;
};

/// A mode of a command: a subcommand, or a selecting flag of its table.
/// Selecting flags may combine; a subcommand is the first argument.
struct Mode {
    std::string_view name;    ///< "list", or a flag such as "--replay"
    std::string_view args{};  ///< positionals it takes ("FILE"; "" = none)
    std::string_view help{};  ///< subcommands: what it does
};

/// A command's whole command-line surface.
struct Command {
    std::string_view name;     ///< "fuzz": `mcps fuzz`
    std::string_view summary;  ///< its line in `mcps --help`
    /// In priority order: when two selecting flags are given, each
    /// flag is checked against the earlier one first.
    std::span<const Mode> modes;
    std::span<const Option> options;

    /// Modes are subcommands unless they are named like flags.
    [[nodiscard]] bool has_subcommands() const {
        return !modes.empty() && !modes.front().name.starts_with('-');
    }
    [[nodiscard]] const Option* find(std::string_view flag) const {
        for (const Option& o : options) {
            if (o.flag == flag) return &o;
        }
        return nullptr;
    }
};

/// Whether mode \p mode reads \p o.
inline bool reads(const Option& o, std::string_view mode) {
    if (o.modes == "*") return true;
    for (std::string_view rest = o.modes; !rest.empty();) {
        const std::string_view word = rest.substr(0, rest.find(' '));
        if (word == mode) return true;
        rest.remove_prefix(std::min(rest.size(), word.size() + 1));
    }
    return false;
}

inline std::vector<unsigned> parse_list(const Option& o, std::string_view v) {
    std::vector<unsigned> out =
        parse_unsigned_list(o.flag, v, o.domain.max, o.domain.min);
    if (out.size() < o.domain.min_items) {
        throw CliError{std::string{o.flag} + ": need at least " +
                       std::to_string(o.domain.min_items) + " entries in '" +
                       std::string{v} + "'"};
    }
    return out;
}

inline double parse_number(const Option& o, std::string_view v) {
    const double x = parse_double(o.flag, v);
    if (!(x >= o.domain.lo && x <= o.domain.hi)) {  // NaN fails both
        char buf[96];
        std::snprintf(buf, sizeof buf, ": %g is outside [%g, %g]", x,
                      o.domain.lo, o.domain.hi);
        throw CliError{std::string{o.flag} + buf};
    }
    return x;
}

/// A command line read against its table. The getters take a flag of
/// the table and return its last value (or \p fallback if it was not
/// given); a flag outside the table is a programming error.
class Parsed {
public:
    std::string_view mode;  ///< the subcommand ("" without subcommands)
    std::vector<std::string_view> positionals;
    bool help = false;  ///< --help/-h: print usage, do nothing else

    [[nodiscard]] bool has(std::string_view flag) const {
        return last(flag) != nullptr;
    }
    [[nodiscard]] std::string text(std::string_view flag,
                                   std::string fallback = {}) const {
        const auto* g = last(flag);
        return g ? std::string{g->second} : fallback;
    }
    /// Every value of a repeatable flag, in command-line order.
    [[nodiscard]] std::vector<std::string> all(std::string_view flag) const {
        (void)last(flag);
        std::vector<std::string> out;
        for (const auto& [o, v] : given_) {
            if (o->flag == flag) out.emplace_back(v);
        }
        return out;
    }
    template <typename T>
    [[nodiscard]] T count(std::string_view flag, T fallback) const {
        const auto* g = last(flag);
        if (g == nullptr) return fallback;
        const Domain& d = g->first->domain;
        return static_cast<T>(parse_u64(flag, g->second, d.min, d.max));
    }
    [[nodiscard]] double number(std::string_view flag, double fallback) const {
        const auto* g = last(flag);
        return g ? parse_number(*g->first, g->second) : fallback;
    }
    [[nodiscard]] std::vector<unsigned> list(std::string_view flag) const {
        const auto* g = last(flag);
        return g ? parse_list(*g->first, g->second) : std::vector<unsigned>{};
    }

private:
    friend Parsed parse(const Command& cmd,
                        const std::vector<std::string_view>& args);
    using Given = std::pair<const Option*, std::string_view>;

    const Given* last(std::string_view flag) const {
        if (cmd_->find(flag) == nullptr) {
            throw std::logic_error{std::string{cmd_->name} +
                                   ": no option row for " + std::string{flag}};
        }
        for (auto it = given_.rbegin(); it != given_.rend(); ++it) {
            if (it->first->flag == flag) return &*it;
        }
        return nullptr;
    }

    const Command* cmd_ = nullptr;
    std::vector<Given> given_;
};

/// The one parse loop. `--help` or `-h` anywhere asks for the usage
/// and nothing else. Otherwise reads the subcommand (if the command has
/// them), then every flag and its value; then applies the mode rule
/// (every flag given must be read by every active mode: the
/// subcommand, or each selecting flag given, checked in the modes'
/// order); then checks every value against its domain.
/// \throws CliError per the contract above.
inline Parsed parse(const Command& cmd,
                    const std::vector<std::string_view>& args) {
    Parsed p;
    p.cmd_ = &cmd;
    for (const std::string_view a : args) p.help |= a == "--help" || a == "-h";
    if (p.help) return p;
    Args cursor{args};
    const Mode* sub = nullptr;
    if (cmd.has_subcommands()) {
        if (cursor.done()) throw CliError{"missing subcommand"};
        const std::string_view name = cursor.next();
        for (const Mode& m : cmd.modes) {
            if (m.name == name) sub = &m;
        }
        if (sub == nullptr) {
            throw CliError{"unknown subcommand '" + std::string{name} + "'"};
        }
        p.mode = sub->name;
    }
    while (!cursor.done()) {
        const std::string_view arg = cursor.next();
        const Option* o = cmd.find(arg);
        if (o == nullptr) {
            if (sub != nullptr && !sub->args.empty() &&
                !arg.starts_with('-')) {
                p.positionals.push_back(arg);
                continue;
            }
            throw CliError{"unknown option '" + std::string{arg} + "'"};
        }
        p.given_.emplace_back(o, o->domain.kind == Domain::Kind::kSwitch
                                     ? std::string_view{}
                                     : cursor.value(arg));
    }
    for (const Mode& m : cmd.modes) {
        if (sub != nullptr ? &m != sub : !p.has(m.name)) continue;
        for (const auto& [o, v] : p.given_) {
            if (!reads(*o, m.name)) {
                throw CliError{std::string{o->flag} + ": not supported with " +
                               std::string{m.name}};
            }
        }
    }
    for (const auto& [o, v] : p.given_) {
        if (o->domain.kind == Domain::Kind::kCount) {
            (void)parse_u64(o->flag, v, o->domain.min, o->domain.max);
        } else if (o->domain.kind == Domain::Kind::kNumber) {
            (void)parse_number(*o, v);
        } else if (o->domain.kind == Domain::Kind::kList) {
            (void)parse_list(*o, v);
        }
    }
    return p;
}

namespace detail {

/// Prints \p text from column \p col on, padded to \p indent first (on
/// a new line if less than two columns are left) and word-wrapped to
/// 79 columns with every line starting at \p indent.
inline void print_wrapped(std::ostream& os, std::size_t indent,
                          std::size_t col, std::string_view text) {
    if (col + 2 > indent && col > 0) os << '\n';
    os << std::string(col + 2 > indent ? indent : indent - col, ' ');
    for (col = indent; !text.empty();) {
        const std::string_view word = text.substr(0, text.find(' '));
        text.remove_prefix(std::min(text.size(), word.size() + 1));
        if (col > indent && col + 1 + word.size() > 79) {
            os << '\n' << std::string(indent, ' ');
            col = indent;
        } else if (col > indent) {
            os << ' ';
            ++col;
        }
        os << word;
        col += word.size();
    }
    os << '\n';
}

/// One row: the flag and its value, then the help, which names the
/// selecting flags that refuse the row.
inline void print_option(std::ostream& os, const Command& cmd,
                         const Option& o, std::size_t indent,
                         std::size_t column) {
    std::string head(indent, ' ');
    head.append(o.flag).append(o.domain.meta.empty() ? "" : " ");
    head.append(o.domain.meta);
    std::string help{o.help};
    const char* sep = " (not with ";
    for (const Mode& m : cmd.modes) {
        if (!cmd.has_subcommands() && m.name != o.flag && !reads(o, m.name)) {
            help.append(sep).append(m.name);
            sep = ", ";
        }
    }
    if (help.size() > o.help.size()) help += ')';
    os << head;
    print_wrapped(os, column, head.size(), help);
}

}  // namespace detail

/// The usage text, generated from the table: one line per row, under
/// the subcommand that reads it when the command has subcommands.
inline void usage(std::ostream& os, std::string_view prog,
                  const Command& cmd) {
    const bool subs = cmd.has_subcommands();
    const std::size_t indent = subs ? 6 : 2;
    std::size_t width = 0;
    for (const Option& o : cmd.options) {
        width = std::max(width, o.flag.size() + o.domain.meta.size() + 1);
    }
    const std::size_t column = indent + std::min<std::size_t>(width, 22) + 2;
    os << "usage: " << prog << (subs ? " <subcommand>" : "") << " [options]\n";
    if (subs) {
        for (const Mode& m : cmd.modes) {
            os << "  " << m.name << (m.args.empty() ? "" : " ") << m.args
               << '\n';
            detail::print_wrapped(os, 8, 0, m.help);
            for (const Option& o : cmd.options) {
                if (reads(o, m.name)) {
                    detail::print_option(os, cmd, o, indent, column);
                }
            }
        }
    } else {
        for (const Option& o : cmd.options) {
            detail::print_option(os, cmd, o, indent, column);
        }
    }
    constexpr Option kHelp{"--help, -h", kSwitch, "*", "this text"};
    detail::print_option(os, cmd, kHelp, 2, column);
}

/// The shared driver contract: parse \p args against \p cmd, then run
/// \p body on the result. Exact behavior (the cli_* ctests pin it):
///
///   --help / -h     -> usage on stdout,                         0
///   CliError        -> "<prog>: <message>" on stderr, usage(stderr), 2
///   std::exception  -> "<prog>: <what()>"  on stderr,               2
///   otherwise       -> body's return value
///
/// \p prog is the invocation name ("mcps run").
template <typename Body>
int tool_main(std::string_view prog, const Command& cmd,
              const std::vector<std::string_view>& args, Body&& body) {
    try {
        const Parsed p = parse(cmd, args);
        if (p.help) {
            usage(std::cout, prog, cmd);
            return 0;
        }
        return body(p);
    } catch (const CliError& e) {
        std::cerr << prog << ": " << e.message << "\n";
        usage(std::cerr, prog, cmd);
        return 2;
    } catch (const std::exception& e) {
        std::cerr << prog << ": " << e.what() << "\n";
        return 2;
    }
}

}  // namespace mcps::cli
