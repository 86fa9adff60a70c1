// The deterministic JSON object writer the spec subsystem's emitters
// share (scenario_io.cc, synth_io.cc).
//
// One discipline everywhere: stable member order (insertion order), exact
// 17-significant-digit doubles (strtod reads them back bit-identically, so
// write -> parse -> write is a fixed point), members one per line at
// indent + 2.  Equal values serialize to equal bytes — the property every
// roundtrip lock and byte-identity diff in this repo rests on.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "util/table.h"
#include "util/units.h"

namespace sprout::spec {

// The spec emitters' name for write_json_double (util/table.h).
inline void write_double(std::ostream& os, double v) {
  write_json_double(os, v);
}

class ObjectWriter {
 public:
  ObjectWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {
    os_ << "{";
  }

  std::ostream& key(const std::string& k) {
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    for (int i = 0; i < indent_ + 2; ++i) os_ << ' ';
    write_json_string(os_, k);
    os_ << ": ";
    return os_;
  }

  void number(const std::string& k, double v) { write_double(key(k), v); }
  void integer(const std::string& k, std::int64_t v) { key(k) << v; }
  void str(const std::string& k, const std::string& v) {
    write_json_string(key(k), v);
  }
  void boolean(const std::string& k, bool v) {
    key(k) << (v ? "true" : "false");
  }
  void seconds(const std::string& k, Duration d) { number(k, to_seconds(d)); }

  void close() {
    if (!first_) {
      os_ << "\n";
      for (int i = 0; i < indent_; ++i) os_ << ' ';
    }
    os_ << "}";
  }

 private:
  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

}  // namespace sprout::spec
