/// \file cli.hpp
/// \brief Shared argv parsing for the `mcps <cmd>` drivers.
///
/// One copy of the flag-value plumbing for every driver. Header-only,
/// and included by the scenario test suite so the error messages are
/// unit-tested.
///
/// Error contract (exact strings, asserted by tests/scenario):
///   "<flag>: expected an integer, got '<v>'"
///   "<flag>: expected a number, got '<v>'"
///   "<flag>: empty entry in '<v>'"
///   "<flag>: missing value"
///   "<flag>: cannot open '<path>'"
///   "<flag>: cannot write '<path>'"

#pragma once

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcps::cli {

/// A user-facing usage error; main() catches it, prints the message to
/// stderr and exits 2.
struct CliError {
    std::string message;
};

/// The shared driver error contract, factored out of the tools' main()
/// functions (each carried its own copy of the same catch ladder).
/// Exact behavior (the cli_*_exit2 ctests pin the exit code):
///
///   CliError        -> "<prog>: <message>" on stderr, usage(stderr), 2
///   std::exception  -> "<prog>: <what()>"  on stderr,               2
///   otherwise       -> body's return value
///
/// \p prog is the invocation name ("mcps run"), \p usage
/// any callable taking the stream to print usage to.
template <typename Usage, typename Body>
int tool_main(std::string_view prog, Usage&& usage, Body&& body) {
    try {
        return body();
    } catch (const CliError& e) {
        std::cerr << prog << ": " << e.message << "\n";
        usage(std::cerr);
        return 2;
    } catch (const std::exception& e) {
        std::cerr << prog << ": " << e.what() << "\n";
        return 2;
    }
}

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

/// Comma-separated unsigned list ("1,4,8"). Rejects empty entries;
/// callers enforce their own minimum-length policy.
inline std::vector<unsigned> parse_unsigned_list(std::string_view flag,
                                                 std::string_view v) {
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
        out.push_back(static_cast<unsigned>(parse_u64(flag, item)));
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    return out;
}

/// Forward cursor over argv (or any token list, for tests). The usual
/// tool loop is:
///
///   mcps::cli::Args args{argc, argv};
///   while (!args.done()) {
///       const auto arg = args.next();
///       if (arg == "--seed") seed = parse_u64(arg, args.value(arg));
///       else throw CliError{"unknown option '" + std::string{arg} + "'"};
///   }
class Args {
public:
    Args(int argc, char** argv) : items_{argv + 1, argv + argc} {}
    explicit Args(std::vector<std::string_view> items)
        : items_{std::move(items)} {}

    [[nodiscard]] bool done() const { return i_ >= items_.size(); }
    [[nodiscard]] std::size_t remaining() const { return items_.size() - i_; }

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

    /// Everything not yet consumed (for subcommand dispatch).
    [[nodiscard]] std::vector<std::string_view> rest() const {
        return {items_.begin() + static_cast<std::ptrdiff_t>(i_),
                items_.end()};
    }

private:
    std::vector<std::string_view> items_;
    std::size_t i_ = 0;
};

}  // namespace mcps::cli
