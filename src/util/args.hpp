// args.hpp - Minimal command-line argument parsing for bench and example
// binaries.
//
// Supports `--key=value`, `--key value` and boolean `--flag` forms. Every
// accessor records the flag it read, so a binary that has read all of its
// flags can reject the rest (reject_unread): a mistyped `--rep=1000` fails
// instead of silently running the default. Since a read is recorded, one
// Args must not be read from two threads at once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ecs {

class Args {
 public:
  Args() = default;

  /// Parses argv. Arguments after a literal `--` are left in positional().
  static Args parse(int argc, const char* const* argv);

  /// True when --key was supplied (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;

  // Numeric accessors are strict: an absent flag (or a bare `--flag` with no
  // value) yields the fallback, but a malformed or partially-numeric value
  // ("abc", "10x", "1e999") throws std::invalid_argument naming the flag —
  // a typo must never be silently read as 0 or truncated.

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Boolean flags: present without value => true; "0"/"false"/"no" => false.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list of doubles, e.g. --ccr=0.1,1,10. Empty segments
  /// are skipped; malformed segments throw std::invalid_argument.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& key, const std::vector<double>& fallback) const;
  /// Comma-separated list of integers, same strictness as get_double_list.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& fallback) const;

  /// Throws std::invalid_argument naming every flag on the command line
  /// that no accessor above has read. Call it after reading every flag and
  /// before any work.
  void reject_unread() const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Name of the executable (argv[0]) if parsing saw one.
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  struct Flag {
    std::string value;
    mutable bool read = false;  ///< set by the accessors
  };

  [[nodiscard]] const Flag* find(const std::string& key) const;

  std::string program_;
  std::map<std::string, Flag> values_;
  std::vector<std::string> positional_;
};

}  // namespace ecs
