#include "util/table.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sprout {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

TableWriter& TableWriter::row() {
  rows_.emplace_back();
  return *this;
}

TableWriter& TableWriter::cell(const std::string& value) {
  rows_.back().push_back(value);
  return *this;
}

TableWriter& TableWriter::cell(const char* value) {
  return cell(std::string{value});
}

TableWriter& TableWriter::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

TableWriter& TableWriter::cell(std::int64_t value) {
  return cell(std::to_string(value));
}

void TableWriter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << v;
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t rule = 0;
  for (std::size_t w : widths) rule += w + 2;
  os << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        // RFC 8259 forbids raw control characters inside strings.
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << std::hex << std::setw(2) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c)) << std::dec
             << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_double(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

void TableWriter::write_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    const auto& row = rows_[r];
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) os << ", ";
      write_json_string(os, headers_[c]);
      os << ": ";
      write_json_string(os, c < row.size() ? row[c] : std::string{});
    }
    os << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

void TableWriter::write_tsv(std::ostream& os) const {
  auto tsv_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << '\t';
      os << row[c];
    }
    os << '\n';
  };
  tsv_row(headers_);
  for (const auto& row : rows_) tsv_row(row);
}

// --- JsonValue ----------------------------------------------------------

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  throw std::runtime_error(std::string("JSON: expected ") + wanted +
                           ", found " + names[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return v;
  }
  throw std::runtime_error("JSON: missing key \"" + key + "\"");
}

bool JsonValue::has(const std::string& key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return true;
  }
  return false;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("JSON numbers must be finite");
  }
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

// Strict recursive-descent parser.  Shard files are machine-written, so
// anything unexpected — truncation, a stray byte, a half-written object —
// is corruption and must be reported, never papered over.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // Containers recurse, so corrupt input full of '[' or '{' must hit this
  // bound (and throw like any other corruption) long before the call stack
  // does; real shard files nest half a dozen levels.
  static constexpr int kMaxDepth = 128;

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': {
        if (++depth_ > kMaxDepth) fail("nesting deeper than 128 levels");
        JsonValue v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting deeper than 128 levels");
        JsonValue v = parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key.string_), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        v.string_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string_.push_back('"'); break;
        case '\\': v.string_.push_back('\\'); break;
        case '/': v.string_.push_back('/'); break;
        case 'b': v.string_.push_back('\b'); break;
        case 'f': v.string_.push_back('\f'); break;
        case 'n': v.string_.push_back('\n'); break;
        case 'r': v.string_.push_back('\r'); break;
        case 't': v.string_.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the basic-plane code point (the writer only emits
          // \u00XX; surrogate pairs are out of scope for shard files).
          if (code < 0x80) {
            v.string_.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            v.string_.push_back(static_cast<char>(0xC0 | (code >> 6)));
            v.string_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            v.string_.push_back(static_cast<char>(0xE0 | (code >> 12)));
            v.string_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            v.string_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  // Exactly the RFC 8259 number grammar — stricter than strtod, which
  // would also accept '+5', '.5', '5.', '0123', 'inf' and hex.  A corrupt
  // byte that bends a number out of the grammar must be REPORTED, not
  // reinterpreted (e.g. '-0.5' with its sign byte damaged to '+' parses
  // under strtod as +0.5).
  JsonValue parse_number() {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > before;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // int part: '0' alone or a nonzero-led digit run (no leading zeros).
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      pos_ = start;
      fail("expected a value");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) {
        pos_ = start;
        fail("malformed number");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) {
        pos_ = start;
        fail("malformed number");
      }
    }
    // NUL-terminated copy for strtod: exact round-trip of the 17-significant
    // -digit doubles the shard writer emits.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace sprout
