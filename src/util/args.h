// Minimal command-line argument parser for the metadock CLI tool.
// Supports `--key value`, `--key=value`, bare `--flag`, and positionals.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace metadock::util {

class ArgParser {
 public:
  /// Parses argv[1..).  Throws std::invalid_argument on a dangling
  /// `--key` that expects a value (i.e. `--key` as the last token is
  /// treated as a flag, never an error).
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return options_.contains(key); }

  /// Value of --key, or fallback when absent.  A bare flag yields "".  The
  /// numeric forms throw std::invalid_argument unless the whole value
  /// parses ("3x" is not an integer).
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& key, std::int64_t fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }

  /// Keys that were passed but are not in `known` (for usage errors).
  [[nodiscard]] std::vector<std::string> unknown_keys(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

}  // namespace metadock::util
