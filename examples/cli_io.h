// File IO and strict flag parsing shared by the `sweep` and `sweep_report`
// CLIs, so both report a bad flag the same way (path-style, exit 2) and
// neither can exit 0 over a truncated output file.
#pragma once

#include <climits>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sprout::cli {

// A bad flag or flag value: reported path-style ("--workers: must be ...")
// and exited 2, distinct from runtime failures (exit 1).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

inline void require(bool ok, const std::string& context,
                    const std::string& what) {
  if (!ok) throw std::runtime_error(context + ": " + what);
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

template <typename WriteFn>
void write_file(const std::string& path, WriteFn&& write) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  write(out);
  // Flush before checking: a full disk surfacing in the destructor's
  // implicit flush would otherwise exit 0 with a truncated file, and a
  // caller gating on exit codes would feed it onward.
  out.flush();
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

// Strict integer parse: the whole token must be the number.  std::atoi
// would read "4x" as 4 and overflow silently.
inline long long parse_integer(const std::string& flag,
                               const std::string& text) {
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != text.size()) {
    throw UsageError(flag + ": must be an integer, got \"" + text + "\"");
  }
  return v;
}

// An integer in [min, INT_MAX].
inline int parse_int_at_least(const std::string& flag,
                              const std::string& text, int min) {
  const long long v = parse_integer(flag, text);
  if (v < min || v > INT_MAX) {
    throw UsageError(flag + ": must be an integer >= " + std::to_string(min) +
                     ", got \"" + text + "\"");
  }
  return static_cast<int>(v);
}

inline double parse_nonneg_double(const std::string& flag,
                                  const std::string& text) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != text.size() || !(v >= 0.0)) {
    throw UsageError(flag + ": must be a number >= 0, got \"" + text + "\"");
  }
  return v;
}

}  // namespace sprout::cli
