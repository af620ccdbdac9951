#include "core/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/error.hpp"

namespace otis::core {

namespace {

std::string type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return "bool";
    case Json::Type::kNumber:
      return "number";
    case Json::Type::kString:
      return "string";
    case Json::Type::kArray:
      return "array";
    case Json::Type::kObject:
      return "object";
  }
  return "?";
}

}  // namespace

/// Recursive-descent parser; tracks line/column for error messages.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << ", column " << column
       << ": " << message;
    throw Error(os.str());
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char take() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_++];
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Json parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        // Each level recurses once: bound it before the stack does.
        if (++depth_ > Json::kMaxDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
               " levels");
        }
        Json value = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        return parse_null();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    Json value;
    value.type_ = Json::Type::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string_text();
      skip_whitespace();
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = take();
      if (c == '}') {
        return value;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    Json value;
    value.type_ = Json::Type::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') {
        return value;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  Json parse_string_value() {
    Json value;
    value.type_ = Json::Type::kString;
    value.string_ = parse_string_text();
    return value;
  }

  std::string parse_string_text() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          std::uint32_t code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: RFC 8259 requires the low half right
            // after; emitting either half alone would put invalid
            // UTF-8 into every downstream sink.
            if (take() != '\\' || take() != 'u') {
              --pos_;
              fail("high surrogate not followed by \\u escape");
            }
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate not followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_bool() {
    Json value;
    value.type_ = Json::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      value.bool_ = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      value.bool_ = false;
    } else {
      fail("expected 'true' or 'false'");
    }
    return value;
  }

  Json parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) {
      fail("expected 'null'");
    }
    pos_ += 4;
    return Json{};
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("expected a value");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    const std::size_t integer_end = pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    Json value;
    value.type_ = Json::Type::kNumber;
    value.number_ = std::strtod(text_.c_str() + start, nullptr);
    // An integer literal keeps its exact value when it fits in int64 (a
    // double rounds integers above 2^53).
    value.integral_ = pos_ == integer_end &&
                      std::from_chars(text_.data() + start,
                                      text_.data() + pos_, value.integer_)
                              .ec == std::errc{};
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OTIS_REQUIRE(in.good(), "Json::parse_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const Error& error) {
    throw Error(path + ": " + error.what());
  }
}

bool Json::as_bool() const {
  OTIS_REQUIRE(type_ == Type::kBool,
               "Json: expected bool, got " + type_name(type_));
  return bool_;
}

double Json::as_number() const {
  OTIS_REQUIRE(type_ == Type::kNumber,
               "Json: expected number, got " + type_name(type_));
  return number_;
}

std::int64_t Json::as_int() const {
  const double value = as_number();
  if (integral_) {
    return integer_;
  }
  OTIS_REQUIRE(value == std::nearbyint(value), "Json: expected an integer");
  // Past int64, or written with a fraction or exponent: the double is
  // exact only below 2^53 (2^53 itself may be a rounded 2^53 + 1).
  OTIS_REQUIRE(std::fabs(value) < 0x1p53,
               "Json: integer out of range (a fraction or exponent "
               "form must stay below 2^53 in magnitude; integer literals "
               "must fit in int64)");
  return static_cast<std::int64_t>(value);
}

const std::string& Json::as_string() const {
  OTIS_REQUIRE(type_ == Type::kString,
               "Json: expected string, got " + type_name(type_));
  return string_;
}

const std::vector<Json>& Json::items() const {
  OTIS_REQUIRE(type_ == Type::kArray,
               "Json: expected array, got " + type_name(type_));
  return items_;
}

const std::vector<Json::Member>& Json::members() const {
  OTIS_REQUIRE(type_ == Type::kObject,
               "Json: expected object, got " + type_name(type_));
  return members_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const Member& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = find(key);
  OTIS_REQUIRE(value != nullptr, "Json: missing key \"" + key + "\"");
  return *value;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_number() : fallback;
}

std::int64_t Json::int_or(const std::string& key,
                          std::int64_t fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_int() : fallback;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_bool() : fallback;
}

}  // namespace otis::core
