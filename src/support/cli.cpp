#include "support/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "support/assert.hpp"

namespace ripples {

CommandLine::CommandLine(int argc, const char *const *argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() >= 2 && arg[0] == '-') {
      std::size_t name_begin = (arg.size() >= 2 && arg[1] == '-') ? 2 : 1;
      std::string body = arg.substr(name_begin);
      Option opt;
      if (std::size_t eq = body.find('='); eq != std::string::npos) {
        opt.name = body.substr(0, eq);
        opt.value = body.substr(eq + 1);
        opt.has_value = true;
      } else {
        opt.name = body;
        // `--name value` form: consume the next token unless it looks like
        // another option.  Negative numbers ("-0.5") are values, not options.
        if (i + 1 < argc) {
          std::string next = argv[i + 1];
          bool next_is_option =
              next.size() >= 2 && next[0] == '-' &&
              !(next[1] == '.' || (next[1] >= '0' && next[1] <= '9'));
          if (!next_is_option) {
            opt.value = next;
            opt.has_value = true;
            ++i;
          }
        }
      }
      options_.push_back(std::move(opt));
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::optional<std::string> CommandLine::value_of(const std::string &name) const {
  declared_.push_back(name);
  for (const Option &opt : options_)
    if (opt.name == name && opt.has_value) return opt.value;
  return std::nullopt;
}

bool CommandLine::has_flag(const std::string &name) const {
  declared_.push_back(name);
  for (const Option &opt : options_)
    if (opt.name == name) return true;
  return false;
}

void CommandLine::reject_unknown() const {
  bool unknown = false;
  for (const Option &opt : options_) {
    if (std::find(declared_.begin(), declared_.end(), opt.name) !=
        declared_.end())
      continue;
    std::fprintf(stderr, "%s: unknown option --%s\n", program_.c_str(),
                 opt.name.c_str());
    unknown = true;
  }
  if (unknown) std::exit(2);
}

std::string CommandLine::get(const std::string &name,
                             const std::string &fallback) const {
  if (auto v = value_of(name)) return *v;
  return fallback;
}

double CommandLine::get(const std::string &name, double fallback) const {
  auto v = value_of(name);
  if (!v) return fallback;
  char *end = nullptr;
  errno = 0;
  double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: option --%s expects a number, got '%s'\n",
                 program_.c_str(), name.c_str(), v->c_str());
    std::exit(2);
  }
  if (errno == ERANGE) {
    std::fprintf(stderr, "%s: option --%s value '%s' is out of range\n",
                 program_.c_str(), name.c_str(), v->c_str());
    std::exit(2);
  }
  return parsed;
}

std::int64_t CommandLine::get(const std::string &name,
                              std::int64_t fallback) const {
  auto v = value_of(name);
  if (!v) return fallback;
  char *end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: option --%s expects an integer, got '%s'\n",
                 program_.c_str(), name.c_str(), v->c_str());
    std::exit(2);
  }
  // strtoll saturates on overflow (returning LLONG_MIN/MAX with ERANGE);
  // saturation silently substituted for the requested value once, corrupting
  // a benchmark sweep, so it is a hard parse error.
  if (errno == ERANGE) {
    std::fprintf(stderr, "%s: option --%s value '%s' is out of range\n",
                 program_.c_str(), name.c_str(), v->c_str());
    std::exit(2);
  }
  return parsed;
}

std::int64_t CommandLine::get_bounded(const std::string &name,
                                      std::int64_t fallback, std::int64_t lo,
                                      std::int64_t hi) const {
  RIPPLES_DEBUG_ASSERT(lo <= hi && fallback >= lo && fallback <= hi);
  std::int64_t parsed = get(name, fallback);
  if (parsed < lo || parsed > hi) {
    std::fprintf(stderr,
                 "%s: option --%s expects a value in [%lld, %lld], got %lld\n",
                 program_.c_str(), name.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi), static_cast<long long>(parsed));
    std::exit(2);
  }
  return parsed;
}

bool CommandLine::get(const std::string &name, bool fallback) const {
  auto v = value_of(name);
  if (!v) return has_flag(name) ? true : fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  std::fprintf(stderr, "%s: option --%s expects a boolean, got '%s'\n",
               program_.c_str(), name.c_str(), v->c_str());
  std::exit(2);
}

} // namespace ripples
