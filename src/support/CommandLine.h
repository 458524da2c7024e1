//===- support/CommandLine.h - Minimal flag parsing -------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small command-line parser for the tools, examples, and bench
/// harnesses. Supports --flag, --flag=value, --flag value, and positional
/// arguments, with generated --help text.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_COMMANDLINE_H
#define POCE_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace poce {

/// Declarative command-line parser. Register options, then call parse().
class CommandLine {
public:
  CommandLine(std::string ToolName, std::string Overview)
      : ToolName(std::move(ToolName)), Overview(std::move(Overview)) {}

  /// Registers a boolean flag (--name enables it).
  void addFlag(const std::string &Name, bool *Storage,
               const std::string &Help);

  /// Registers a string option (--name=value or --name value).
  void addString(const std::string &Name, std::string *Storage,
                 const std::string &Help);

  /// Registers a signed integer option.
  void addInt(const std::string &Name, int64_t *Storage,
              const std::string &Help);

  /// Registers a non-negative integer option (counts, sizes, durations):
  /// parse() refuses a negative value with a usage error instead of
  /// letting it wrap to a huge unsigned one.
  void addUInt(const std::string &Name, uint64_t *Storage,
               const std::string &Help);

  /// Registers a double option.
  void addDouble(const std::string &Name, double *Storage,
                 const std::string &Help);

  /// Parses argv. Returns false (after printing a message) on malformed
  /// input; prints help and returns false if --help is present. Positional
  /// arguments are collected into positionals().
  bool parse(int Argc, const char *const *Argv);

  const std::vector<std::string> &positionals() const { return Positionals; }

  void printHelp() const;

private:
  enum class OptionKind { Flag, String, Int, UInt, Double };

  struct Option {
    std::string Name;
    OptionKind Kind;
    void *Storage;
    std::string Help;
  };

  const Option *findOption(const std::string &Name) const;
  bool applyValue(const Option &Opt, const std::string &Value);

  std::string ToolName;
  std::string Overview;
  std::vector<Option> Options;
  std::vector<std::string> Positionals;
};

} // namespace poce

#endif // POCE_SUPPORT_COMMANDLINE_H
