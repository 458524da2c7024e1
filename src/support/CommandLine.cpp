//===- support/CommandLine.cpp - Minimal flag parsing ---------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <cstdio>
#include <cstdlib>

using namespace poce;

void CommandLine::addFlag(const std::string &Name, bool *Storage,
                          const std::string &Help) {
  Options.push_back({Name, OptionKind::Flag, Storage, Help});
}

void CommandLine::addString(const std::string &Name, std::string *Storage,
                            const std::string &Help) {
  Options.push_back({Name, OptionKind::String, Storage, Help});
}

void CommandLine::addInt(const std::string &Name, int64_t *Storage,
                         const std::string &Help) {
  Options.push_back({Name, OptionKind::Int, Storage, Help});
}

void CommandLine::addUInt(const std::string &Name, uint64_t *Storage,
                          const std::string &Help) {
  Options.push_back({Name, OptionKind::UInt, Storage, Help});
}

void CommandLine::addDouble(const std::string &Name, double *Storage,
                            const std::string &Help) {
  Options.push_back({Name, OptionKind::Double, Storage, Help});
}

const CommandLine::Option *
CommandLine::findOption(const std::string &Name) const {
  for (const Option &Opt : Options)
    if (Opt.Name == Name)
      return &Opt;
  return nullptr;
}

bool CommandLine::applyValue(const Option &Opt, const std::string &Value) {
  char *End = nullptr;
  switch (Opt.Kind) {
  case OptionKind::Flag:
    *static_cast<bool *>(Opt.Storage) =
        Value != "false" && Value != "0" && Value != "no";
    return true;
  case OptionKind::String:
    *static_cast<std::string *>(Opt.Storage) = Value;
    return true;
  case OptionKind::Int: {
    long long Parsed = std::strtoll(Value.c_str(), &End, 0);
    if (!End || *End != '\0') {
      std::fprintf(stderr, "%s: invalid integer '%s' for --%s\n",
                   ToolName.c_str(), Value.c_str(), Opt.Name.c_str());
      return false;
    }
    *static_cast<int64_t *>(Opt.Storage) = Parsed;
    return true;
  }
  case OptionKind::UInt: {
    // strtoull would accept "-1" and wrap it to 2^64 - 1.
    size_t First = Value.find_first_not_of(" \t\n\v\f\r");
    if (First != std::string::npos && Value[First] == '-') {
      std::fprintf(stderr, "%s: --%s must not be negative (got '%s')\n",
                   ToolName.c_str(), Opt.Name.c_str(), Value.c_str());
      return false;
    }
    unsigned long long Parsed = std::strtoull(Value.c_str(), &End, 0);
    if (!End || *End != '\0') {
      std::fprintf(stderr, "%s: invalid integer '%s' for --%s\n",
                   ToolName.c_str(), Value.c_str(), Opt.Name.c_str());
      return false;
    }
    *static_cast<uint64_t *>(Opt.Storage) = Parsed;
    return true;
  }
  case OptionKind::Double: {
    double Parsed = std::strtod(Value.c_str(), &End);
    if (!End || *End != '\0') {
      std::fprintf(stderr, "%s: invalid number '%s' for --%s\n",
                   ToolName.c_str(), Value.c_str(), Opt.Name.c_str());
      return false;
    }
    *static_cast<double *>(Opt.Storage) = Parsed;
    return true;
  }
  }
  return false;
}

bool CommandLine::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positionals.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }
    const Option *Opt = findOption(Name);
    if (!Opt) {
      std::fprintf(stderr, "%s: unknown option '--%s' (try --help)\n",
                   ToolName.c_str(), Name.c_str());
      return false;
    }
    if (!HasValue) {
      if (Opt->Kind == OptionKind::Flag) {
        Value = "true";
      } else if (I + 1 < Argc) {
        Value = Argv[++I];
      } else {
        std::fprintf(stderr, "%s: option '--%s' requires a value\n",
                     ToolName.c_str(), Name.c_str());
        return false;
      }
    }
    if (!applyValue(*Opt, Value))
      return false;
  }
  return true;
}

void CommandLine::printHelp() const {
  std::printf("%s - %s\n\nOptions:\n", ToolName.c_str(), Overview.c_str());
  for (const Option &Opt : Options) {
    const char *Placeholder = "";
    switch (Opt.Kind) {
    case OptionKind::Flag:
      break;
    case OptionKind::String:
      Placeholder = "=<string>";
      break;
    case OptionKind::Int:
    case OptionKind::UInt:
      Placeholder = "=<int>";
      break;
    case OptionKind::Double:
      Placeholder = "=<float>";
      break;
    }
    std::printf("  --%s%-12s %s\n", Opt.Name.c_str(), Placeholder,
                Opt.Help.c_str());
  }
}
