#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace metadock::util {

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (!stack_.empty() && stack_.back() == 'o') {
    throw std::logic_error("JsonWriter: value emitted where a key is required");
  }
  if (need_comma_) out_ += ',';
  if (!stack_.empty() && stack_.back() == 'v') {
    stack_.back() = 'o';  // the pending key now has its value
    need_comma_ = true;
    return;
  }
  need_comma_ = true;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back('o');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || (stack_.back() != 'o')) {
    throw std::logic_error("JsonWriter: end_object without open object");
  }
  stack_.pop_back();
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back('a');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != 'a') {
    throw std::logic_error("JsonWriter: end_array without open array");
  }
  stack_.pop_back();
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back() != 'o') {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  if (need_comma_) out_ += ',';
  out_ += '"' + escape(name) + "\":";
  stack_.back() = 'v';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  out_ += '"' + escape(v) + '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value_exact(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // Shortest decimal that survives a strtod roundtrip: most values need 15
  // or 16 significant digits; 17 always suffices for IEEE-754 double.
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out_ += buf;
  return *this;
}

std::string JsonWriter::str() const {
  if (!stack_.empty()) {
    throw std::logic_error("JsonWriter: document has unclosed containers");
  }
  return out_;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent parser over a string_view; depth-capped so adversarial
/// nesting cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) + ": " + what,
                         pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(members));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue::Array items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(items));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // The writer only emits \u00XX for control bytes; decode the BMP
          // as UTF-8 so foreign documents survive too (no surrogate pairs).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    // strtod needs a NUL-terminated buffer; numbers are short.
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).parse_document(); }

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::logic_error("JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) throw std::logic_error("JsonValue: not a number");
  return number_;
}

std::int64_t JsonValue::as_int64() const {
  const double v = as_double();
  // The range is checked on the double: converting one outside
  // [-2^63, 2^63) to int64_t is undefined behaviour.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(v >= -kTwo63 && v < kTwo63)) throw std::logic_error("JsonValue: integer out of range");
  const auto i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) != v) throw std::logic_error("JsonValue: not an integer");
  return i;
}

std::uint64_t JsonValue::as_uint64() const {
  const std::int64_t i = as_int64();
  if (i < 0) throw std::logic_error("JsonValue: negative where unsigned expected");
  return static_cast<std::uint64_t>(i);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::logic_error("JsonValue: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) throw std::logic_error("JsonValue: not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) throw std::logic_error("JsonValue: not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::out_of_range("JsonValue: missing key '" + std::string(key) + "'");
  return *v;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

std::string JsonValue::string_or(std::string_view key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

}  // namespace metadock::util
