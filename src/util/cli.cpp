#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "util/parallel.hpp"

namespace hpccsim {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_flag("help", "print this help and exit");
}

void ArgParser::add_flag(std::string name, std::string help) {
  opts_[std::move(name)] = Opt{std::move(help), "false", /*is_flag=*/true,
                               /*set=*/false};
}

void ArgParser::add_option(std::string name, std::string help,
                           std::string default_value) {
  opts_[std::move(name)] =
      Opt{std::move(help), std::move(default_value), /*is_flag=*/false,
          /*set=*/false};
}

void ArgParser::add_jobs_option() {
  add_option("jobs",
             "worker threads for the sweep (0 = HPCCSIM_JOBS env var, "
             "else all hardware threads)",
             "0");
}

int ArgParser::jobs() const { return resolve_jobs(integer("jobs")); }

void ArgParser::add_json_option() {
  add_option("json", "write bench metrics JSON to this path (see "
                     "docs/METRICS.md for the schema)",
             "");
}

void ArgParser::add_trace_option() {
  add_option("trace", "write a Chrome trace-event JSON file to this path "
                      "(open in chrome://tracing or ui.perfetto.dev)",
             "");
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected positional argument: " + arg);
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto it = opts_.find(arg);
    if (it == opts_.end())
      throw std::invalid_argument("unknown option --" + arg + "\n" + usage());
    Opt& opt = it->second;
    if (opt.is_flag) {
      if (has_value)
        throw std::invalid_argument("flag --" + arg + " takes no value");
      opt.value = "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc)
          throw std::invalid_argument("option --" + arg + " needs a value");
        value = argv[++i];
      }
      opt.value = value;
    }
    opt.set = true;
  }
}

const ArgParser::Opt& ArgParser::get(const std::string& name) const {
  auto it = opts_.find(name);
  if (it == opts_.end())
    throw std::invalid_argument("option not declared: --" + name);
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  return get(name).value == "true";
}

std::string ArgParser::str(const std::string& name) const {
  return get(name).value;
}

namespace {

// Prints "<program>: --<name>: expected <what>, got '<tok>'" and exits
// with status 2.
[[noreturn]] void reject(const std::string& program, const std::string& name,
                         const std::string& tok, const char* what) {
  std::fprintf(stderr, "%s: --%s: expected %s, got '%s'\n", program.c_str(),
               name.c_str(), what, tok.c_str());
  std::exit(2);
}

// Parses the whole of `tok` as a T ("12x" fails); rejects on failure.
template <class T>
T parse_or_exit(const std::string& program, const std::string& name,
                const std::string& tok, const char* what) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec == std::errc() && ptr == end) return v;
  reject(program, name, tok, what);
}

// Rejects `v` (parsed from `tok`) unless it lies in [lo, hi].
void check_range(const std::string& program, const std::string& name,
                 const std::string& tok, std::int64_t v, std::int64_t lo,
                 std::int64_t hi) {
  if (v >= lo && v <= hi) return;
  const std::string what = "an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]";
  reject(program, name, tok, what.c_str());
}

}  // namespace

std::int64_t ArgParser::integer(const std::string& name) const {
  return parse_or_exit<std::int64_t>(program_, name, get(name).value,
                                     "an integer");
}

double ArgParser::real(const std::string& name) const {
  return parse_or_exit<double>(program_, name, get(name).value, "a number");
}

std::int64_t ArgParser::integer(const std::string& name, std::int64_t lo,
                               std::int64_t hi) const {
  const std::int64_t v = integer(name);
  check_range(program_, name, get(name).value, v, lo, hi);
  return v;
}

// The negated comparisons also reject NaN.
double ArgParser::real_at_least(const std::string& name, double lo) const {
  const double v = real(name);
  if (!(v >= lo)) {
    char what[64];
    std::snprintf(what, sizeof what, "a number >= %g", lo);
    reject(program_, name, get(name).value, what);
  }
  return v;
}

double ArgParser::real_above(const std::string& name, double lo) const {
  const double v = real(name);
  if (!(v > lo)) {
    char what[64];
    std::snprintf(what, sizeof what, "a number > %g", lo);
    reject(program_, name, get(name).value, what);
  }
  return v;
}

std::vector<std::int64_t> ArgParser::int_list(const std::string& name) const {
  return int_list(name, std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
}

std::vector<std::int64_t> ArgParser::int_list(const std::string& name,
                                              std::int64_t lo,
                                              std::int64_t hi) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(get(name).value);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    out.push_back(
        parse_or_exit<std::int64_t>(program_, name, tok, "an integer"));
    check_range(program_, name, tok, out.back(), lo, hi);
  }
  return out;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : opts_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value> (default: " << opt.value << ")";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace hpccsim
