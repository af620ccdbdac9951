#pragma once
/// \file json.hpp
/// Minimal JSON reader for declarative configuration files.
///
/// The campaign subsystem takes experiment grids as JSON spec files; the
/// container images this library targets ship no JSON dependency, so this
/// is a small recursive-descent parser over an immutable value tree.
/// Writing JSON stays with the emitters (sinks format their own lines so
/// byte-level output is under their control).
///
/// Supported: objects, arrays, strings (with the standard escapes and
/// \uXXXX for the Basic Multilingual Plane), numbers (parsed as double;
/// an integer literal that fits in int64 also keeps its exact value),
/// booleans, null, and arbitrary whitespace. Malformed input, and
/// arrays and objects nested deeper than Json::kMaxDepth, throw
/// core::Error with a line/column position.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace otis::core {

/// An immutable parsed JSON value.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Object members in source order (JSON allows duplicate keys; lookups
  /// below return the first occurrence).
  using Member = std::pair<std::string, Json>;

  /// Deepest nesting of arrays and objects a document may have.
  static constexpr int kMaxDepth = 512;

  Json() = default;

  /// Parses a complete JSON document; trailing garbage is an error.
  [[nodiscard]] static Json parse(const std::string& text);

  /// Reads and parses `path`; missing/unreadable files throw core::Error,
  /// and so does malformed JSON, with `path` in the message.
  [[nodiscard]] static Json parse_file(const std::string& path);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }

  /// Typed accessors; wrong-type access throws core::Error.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The exact value of an integer literal that fits in int64; any
  /// other number only when it is integral and below 2^53 in magnitude
  /// (where every integer is an exact double). Throws otherwise.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Object lookup; nullptr when absent (or when this is not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Object lookup; throws core::Error naming the missing key.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Convenience lookups with defaults for optional spec fields.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::int64_t int_or(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  /// An integer literal's exact value, valid when integral_ is set.
  std::int64_t integer_ = 0;
  bool integral_ = false;
  std::string string_;
  std::vector<Json> items_;
  std::vector<Member> members_;
};

}  // namespace otis::core
