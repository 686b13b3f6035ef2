#include "util/args.h"

#include <algorithm>
#include <stdexcept>

namespace metadock::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positionals_.push_back(tok);
      continue;
    }
    const std::string body = tok.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";  // bare flag
    }
  }
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it != options_.end() ? it->second : fallback;
}

double ArgParser::get(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return fallback;
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(it->second, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != it->second.size()) {
    throw std::invalid_argument("argument --" + key + " expects a number, got '" +
                                it->second + "'");
  }
  return value;
}

std::int64_t ArgParser::get(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return fallback;
  std::size_t used = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(it->second, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != it->second.size()) {
    throw std::invalid_argument("argument --" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  return value;
}

std::vector<std::string> ArgParser::unknown_keys(const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) out.push_back(key);
  }
  return out;
}

}  // namespace metadock::util
