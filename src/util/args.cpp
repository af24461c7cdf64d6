#include "util/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace ecs {
namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void bad_number(const std::string& key, const std::string& value,
                             const char* expected) {
  throw std::invalid_argument("--" + key + ": expected " + expected +
                              ", got \"" + value + "\"");
}

/// Strict integer conversion: the whole token must parse (no trailing
/// garbage, no partial reads like "10x" -> 10) and fit in int64.
std::int64_t parse_int(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const std::int64_t out = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0') bad_number(key, value, "an integer");
  if (errno == ERANGE) bad_number(key, value, "an integer in int64 range");
  return out;
}

/// Strict floating-point conversion, same whole-token rule.
double parse_double(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(begin, &end);
  if (end == begin || *end != '\0') bad_number(key, value, "a number");
  if (errno == ERANGE && (out == 0.0 || out == HUGE_VAL || out == -HUGE_VAL)) {
    bad_number(key, value, "a number in double range");
  }
  return out;
}

}  // namespace

Args Args::parse(int argc, const char* const* argv) {
  Args args;
  if (argc > 0) args.program_ = argv[0];
  bool rest_positional = false;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (rest_positional) {
      args.positional_.push_back(std::move(tok));
      continue;
    }
    if (tok == "--") {
      rest_positional = true;
      continue;
    }
    if (!looks_like_flag(tok)) {
      args.positional_.push_back(std::move(tok));
      continue;
    }
    std::string key = tok.substr(2);
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      value = argv[++i];
    }
    args.values_[key].value = value;
  }
  return args;
}

const Args::Flag* Args::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

bool Args::has(const std::string& key) const { return find(key) != nullptr; }

std::optional<std::string> Args::get(const std::string& key) const {
  const Flag* flag = find(key);
  if (flag == nullptr) return std::nullopt;
  return flag->value;
}

void Args::reject_unread() const {
  std::string unread;
  int count = 0;
  for (const auto& [key, flag] : values_) {
    if (flag.read) continue;
    unread += (count++ == 0 ? "--" : ", --") + key;
  }
  if (count == 0) return;
  throw std::invalid_argument(
      (count == 1 ? "unknown or unused flag " : "unknown or unused flags ") +
      unread);
}

std::string Args::get_or(const std::string& key,
                         const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;  // absent or bare --flag
  return parse_int(key, *v);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;  // absent or bare --flag
  return parse_double(key, *v);
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (v->empty()) return true;  // bare --flag
  const std::string lower = to_lower(*v);
  return !(lower == "0" || lower == "false" || lower == "no" ||
           lower == "off");
}

std::vector<double> Args::get_double_list(
    const std::string& key, const std::vector<double>& fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  std::vector<double> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_double(key, item));
  }
  return out.empty() ? fallback : out;
}

std::vector<std::int64_t> Args::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_int(key, item));
  }
  return out.empty() ? fallback : out;
}

}  // namespace ecs
