#ifndef TORNADO_COMMON_JSON_H_
#define TORNADO_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tornado {

/// The repo's one JSON codec: scenario files, bench results and trace
/// summaries all go through it. Hand-rolled (the repo takes no third-party
/// dependencies), strict (no comments, no trailing commas, no NaN/Inf),
/// and order-preserving so a parsed scenario round-trips through
/// ScenarioToJson in a stable field order. Numbers are held as doubles —
/// the integers it carries (tuple counts, seeds, counters, trace ids) stay
/// well inside the 2^53 exact range.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* Find(const std::string& key) const;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_bool() const { return type == Type::kBool; }

  static JsonValue MakeObject() {
    JsonValue v;
    v.type = Type::kObject;
    return v;
  }
  static JsonValue MakeArray() {
    JsonValue v;
    v.type = Type::kArray;
    return v;
  }
  static JsonValue Of(double number) {
    JsonValue v;
    v.type = Type::kNumber;
    v.number = number;
    return v;
  }
  static JsonValue Of(bool b) {
    JsonValue v;
    v.type = Type::kBool;
    v.bool_value = b;
    return v;
  }
  static JsonValue Of(std::string s) {
    JsonValue v;
    v.type = Type::kString;
    v.string_value = std::move(s);
    return v;
  }

  /// Appends a member (objects only). Returns the stored value.
  JsonValue& Add(const std::string& key, JsonValue value);
};

/// Parses `text` into `*out`. On failure returns false and sets `*error`
/// to a one-line message with the 1-based line:column of the offending
/// byte (e.g. "3:17: expected ':' after object key").
bool JsonParse(const std::string& text, JsonValue* out, std::string* error);

/// Serializes `value` as pretty-printed JSON (two-space indent, "\n"
/// line ends, no trailing newline).
std::string JsonWrite(const JsonValue& value);

/// `s` as a quoted JSON string literal: `"` and `\` backslash-escaped,
/// control characters as \n, \t, \r or \u00XX. JsonWrite and the
/// streaming trace writer (trace/trace_recorder.cc) both quote with it.
std::string JsonQuote(const std::string& s);

}  // namespace tornado

#endif  // TORNADO_COMMON_JSON_H_
