/// \file mcps.cpp
/// \brief The mcps entry point: one binary, every driver.
///
/// `mcps <cmd> ...` runs the driver of drivers::kTools named <cmd>,
/// invoked with the program name "mcps <cmd>"; `mcps --help` lists the
/// commands and `mcps <cmd> --help` a command's options. Exit code 2 =
/// unknown command.

#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "drivers.hpp"

namespace {

void usage(std::ostream& os) {
    os << "usage: mcps <command> [options]\n";
    for (const auto& tool : mcps::drivers::kTools) {
        os << "  " << std::left << std::setw(10) << tool.cli->name << " "
           << tool.cli->summary << "\n";
    }
    os << "\n`mcps <command> --help` shows the command's options.\n";
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string_view> args{argv + 1, argv + argc};
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
        usage(std::cout);
        return args.empty() ? 2 : 0;
    }
    const std::string_view cmd = args[0];
    const std::vector<std::string_view> rest{args.begin() + 1, args.end()};
    for (const auto& tool : mcps::drivers::kTools) {
        if (tool.cli->name == cmd) {
            return tool.main("mcps " + std::string{cmd}, rest);
        }
    }
    std::cerr << "mcps: unknown command '" << cmd << "'\n";
    usage(std::cerr);
    return 2;
}
