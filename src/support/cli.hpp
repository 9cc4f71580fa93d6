/// \file cli.hpp
/// \brief Minimal command-line option parsing for examples and benches.
///
/// All executables in this repository share the same option conventions
/// (--epsilon, -k, --model, --dataset, --scale, --threads, --ranks, ...), so
/// a small shared parser keeps them consistent.  Options take the forms
/// `--name value`, `--name=value`, and `--flag`.  Because `--name value` is
/// supported, a bare flag absorbs a following non-option token as its value;
/// place positional arguments before the options (or write `--flag=true`).
#ifndef RIPPLES_SUPPORT_CLI_HPP
#define RIPPLES_SUPPORT_CLI_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ripples {

/// Parses argv once and answers typed lookups.  Every name a lookup asks
/// for is recorded, so a program that has read all the options it accepts
/// can reject the rest (typos, retired options) with reject_unknown().
class CommandLine {
public:
  CommandLine(int argc, const char *const *argv);

  /// Declares an option (for unknown-option detection) and returns its value
  /// if present.
  [[nodiscard]] std::optional<std::string>
  value_of(const std::string &name) const;

  /// Declares an option and reports whether `--name` appears (with or
  /// without a value).
  [[nodiscard]] bool has_flag(const std::string &name) const;

  /// Typed getters with defaults.  Malformed numbers terminate with a
  /// diagnostic; silently misparsing an experiment parameter would corrupt a
  /// whole benchmark run.
  [[nodiscard]] std::string get(const std::string &name,
                                const std::string &fallback) const;
  [[nodiscard]] double get(const std::string &name, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string &name,
                                 std::int64_t fallback) const;
  [[nodiscard]] bool get(const std::string &name, bool fallback) const;

  /// Integer getter with an inclusive range screen: a parsed value outside
  /// [lo, hi] terminates with a named-flag diagnostic and exit code 2, the
  /// same way a malformed number does.  Options destined for unsigned or
  /// narrower storage pass their real bounds here so `--checkpoint-every -1`
  /// or an oversized `--watchdog-ms` is rejected at the parser instead of
  /// wrapping through a later narrowing cast.
  [[nodiscard]] std::int64_t get_bounded(const std::string &name,
                                         std::int64_t fallback,
                                         std::int64_t lo,
                                         std::int64_t hi) const;

  /// Terminates with exit code 2 and one diagnostic line per option given
  /// on the command line that no lookup has declared.  Call it once every
  /// option the program accepts — conditional ones included — has been
  /// looked up, and before any expensive work starts.
  void reject_unknown() const;

  /// Positional (non-option) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string> &positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string &program_name() const { return program_; }

private:
  struct Option {
    std::string name;
    std::string value;
    bool has_value = false;
  };

  std::string program_;
  std::vector<Option> options_;
  /// Names declared by lookups so far (lookups are logically const).
  mutable std::vector<std::string> declared_;
  std::vector<std::string> positional_;
};

} // namespace ripples

#endif // RIPPLES_SUPPORT_CLI_HPP
