/// \file test_cli_tables.cpp
/// \brief Every `mcps` command × mode × flag, walked from the option
/// tables themselves (tools/drivers.hpp): a flag inside its modes
/// parses, a flag outside them is refused by the driver with exit 2 and
/// the pinned `<flag>: not supported with <mode>` message before any
/// work starts, and `--help` is usage on stdout with exit 0.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tools/drivers.hpp"

namespace {

namespace cli = mcps::cli;
using mcps::drivers::kTools;
using mcps::drivers::Tool;
using Kind = cli::Domain::Kind;

/// A value inside \p o's domain.
std::string sample(const cli::Option& o) {
    switch (o.domain.kind) {
        case Kind::kCount:
            return std::to_string(o.domain.min);
        case Kind::kNumber:
            return std::to_string(o.domain.lo);
        case Kind::kList: {
            std::string out = std::to_string(o.domain.min);
            for (std::size_t i = 1; i < o.domain.min_items; ++i) {
                out += "," + std::to_string(o.domain.min);
            }
            return out;
        }
        default:
            return "x";
    }
}

/// Appends \p o with a sample value.
void give(std::vector<std::string>& line, const cli::Option& o) {
    line.emplace_back(o.flag);
    if (o.domain.kind != Kind::kSwitch) line.push_back(sample(o));
}

/// The command line that selects mode \p m (if any) and gives \p o.
std::vector<std::string> line_of(const cli::Command& c, const cli::Mode* m,
                                 const cli::Option& o) {
    std::vector<std::string> line;
    if (m != nullptr && c.has_subcommands()) {
        line.emplace_back(m->name);
    } else if (m != nullptr && m->name != o.flag) {
        give(line, *c.find(m->name));
    }
    give(line, o);
    return line;
}

std::vector<std::string_view> views(const std::vector<std::string>& line) {
    return {line.begin(), line.end()};
}

std::string joined(const std::vector<std::string>& line) {
    std::string out;
    for (const auto& a : line) out += (out.empty() ? "" : " ") + a;
    return out;
}

struct Outcome {
    int code = -1;
    std::string out, err;
};

/// Runs the real driver with std::cout and std::cerr captured.
Outcome run(const Tool& t, const std::vector<std::string>& line) {
    std::ostringstream out, err;
    auto* old_out = std::cout.rdbuf(out.rdbuf());
    auto* old_err = std::cerr.rdbuf(err.rdbuf());
    Outcome r;
    r.code = t.main("mcps " + std::string{t.cli->name}, views(line));
    std::cout.rdbuf(old_out);
    std::cerr.rdbuf(old_err);
    r.out = out.str();
    r.err = err.str();
    return r;
}

std::string first_line(const std::string& text) {
    return text.substr(0, text.find('\n'));
}

TEST(CliTables, EveryModeIsAFlagOrSubcommandAndEveryRowNamesModes) {
    for (const Tool& t : kTools) {
        const cli::Command& c = *t.cli;
        for (const cli::Mode& m : c.modes) {
            EXPECT_EQ(c.has_subcommands(), c.find(m.name) == nullptr)
                << c.name << ": " << m.name;
        }
        for (const cli::Option& o : c.options) {
            EXPECT_EQ(c.find(o.flag), &o) << c.name << ": duplicate " << o.flag;
            EXPECT_FALSE(o.help.empty()) << c.name << ": " << o.flag;
            if (o.modes == "*") continue;
            for (std::string_view rest = o.modes; !rest.empty();) {
                const std::string_view word = rest.substr(0, rest.find(' '));
                rest.remove_prefix(std::min(rest.size(), word.size() + 1));
                bool known = false;
                for (const cli::Mode& m : c.modes) known |= m.name == word;
                EXPECT_TRUE(known) << c.name << ": " << o.flag << " names "
                                   << word;
            }
        }
    }
}

TEST(CliTables, EveryFlagParsesInEveryModeThatReadsIt) {
    for (const Tool& t : kTools) {
        const cli::Command& c = *t.cli;
        for (const cli::Option& o : c.options) {
            if (!c.has_subcommands()) {
                const auto line = line_of(c, nullptr, o);
                EXPECT_NO_THROW((void)cli::parse(c, views(line)))
                    << c.name << " " << joined(line);
            }
            for (const cli::Mode& m : c.modes) {
                if (!cli::reads(o, m.name)) continue;
                const auto line = line_of(c, &m, o);
                EXPECT_NO_THROW((void)cli::parse(c, views(line)))
                    << c.name << " " << joined(line);
            }
        }
    }
}

TEST(CliTables, EveryFlagOutsideItsModesIsRefusedWithExit2) {
    std::size_t refused = 0;
    for (const Tool& t : kTools) {
        const cli::Command& c = *t.cli;
        const std::string prog = "mcps " + std::string{c.name} + ": ";
        for (const cli::Mode& m : c.modes) {
            for (const cli::Option& o : c.options) {
                if (cli::reads(o, m.name)) continue;
                const auto line = line_of(c, &m, o);
                // Refused while parsing, so the driver below does no work.
                ASSERT_THROW((void)cli::parse(c, views(line)), cli::CliError)
                    << c.name << " " << joined(line);
                const Outcome r = run(t, line);
                EXPECT_EQ(r.code, 2) << c.name << " " << joined(line);
                EXPECT_TRUE(r.out.empty()) << c.name << " " << joined(line);
                // Two selecting flags that refuse each other are named in
                // the modes' priority order.
                const std::string msg = first_line(r.err);
                EXPECT_TRUE(msg == prog + std::string{o.flag} +
                                       ": not supported with " +
                                       std::string{m.name} ||
                            msg == prog + std::string{m.name} +
                                       ": not supported with " +
                                       std::string{o.flag})
                    << c.name << " " << joined(line) << " -> " << msg;
                ++refused;
            }
        }
    }
    EXPECT_GT(refused, 0u);
}

TEST(CliTables, HelpIsUsageOnStdoutWithExit0AndListsEveryFlag) {
    for (const Tool& t : kTools) {
        const cli::Command& c = *t.cli;
        std::vector<std::vector<std::string>> lines = {{"--help"}, {"-h"}};
        for (const cli::Mode& m : c.modes) {
            if (c.has_subcommands()) {
                lines.push_back({std::string{m.name}, "-h"});
            }
        }
        for (const auto& line : lines) {
            const Outcome r = run(t, line);
            EXPECT_EQ(r.code, 0) << c.name << " " << joined(line);
            EXPECT_EQ(first_line(r.out).rfind("usage: mcps " +
                                                  std::string{c.name},
                                              0),
                      0u)
                << c.name << " " << joined(line);
            EXPECT_TRUE(r.err.empty()) << c.name << " " << joined(line);
            for (const cli::Option& o : c.options) {
                EXPECT_NE(r.out.find(o.flag), std::string::npos)
                    << c.name << " usage lacks " << o.flag;
            }
        }
    }
}

TEST(CliTables, UnknownFlagIsNamedBeforeTheUsage) {
    for (const Tool& t : kTools) {
        const cli::Command& c = *t.cli;
        std::vector<std::string> line;
        if (c.has_subcommands()) line.emplace_back(c.modes.front().name);
        line.emplace_back("--definitely-not-a-flag");
        const Outcome r = run(t, line);
        EXPECT_EQ(r.code, 2) << c.name;
        EXPECT_EQ(first_line(r.err),
                  "mcps " + std::string{c.name} +
                      ": unknown option '--definitely-not-a-flag'");
        EXPECT_EQ(r.err.find("\nusage: mcps "), first_line(r.err).size())
            << c.name;
    }
}

}  // namespace
