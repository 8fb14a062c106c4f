#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tornado {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue& JsonValue::Add(const std::string& key, JsonValue value) {
  object.emplace_back(key, std::move(value));
  return object.back().second;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWhitespace();
    if (!ParseValue(out)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing content after document");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << line << ":" << col << ": " << message;
    *error_ = os.str();
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c, const char* what) {
    if (AtEnd() || Peek() != c) {
      return Fail(std::string("expected ") + what);
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key string");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':', "':' after object key")) return false;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      for (const auto& [existing, unused] : out->object) {
        (void)unused;
        if (existing == key) {
          return Fail("duplicate object key \"" + key + "\"");
        }
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (AtEnd()) return Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            // Scenario text is ASCII in practice; decode BMP escapes to
            // UTF-8 without surrogate-pair handling.
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("invalid \\u escape digit");
              }
            }
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("unknown escape sequence");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      out->push_back(c);
    }
  }

  bool ParseLiteral(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      pos_ += 5;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNull(JsonValue* out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      out->type = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      return Fail("invalid number \"" + token + "\"");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

void AppendNumber(double v, std::string* out) {
  // Integers (the common case: counts, seeds, node indexes) print without
  // an exponent or decimal point so scenario files stay diff-friendly.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    *out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, v);
    if (std::strtod(probe, nullptr) == v) {
      *out += probe;
      return;
    }
  }
  *out += buf;
}

void WriteValue(const JsonValue& v, int depth, std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const std::string inner(static_cast<size_t>(depth + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.bool_value ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      AppendNumber(v.number, out);
      return;
    case JsonValue::Type::kString:
      *out += JsonQuote(v.string_value);
      return;
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < v.array.size(); ++i) {
        *out += inner;
        WriteValue(v.array[i], depth + 1, out);
        if (i + 1 < v.array.size()) *out += ",";
        *out += "\n";
      }
      *out += indent + "]";
      return;
    }
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < v.object.size(); ++i) {
        *out += inner;
        *out += JsonQuote(v.object[i].first);
        *out += ": ";
        WriteValue(v.object[i].second, depth + 1, out);
        if (i + 1 < v.object.size()) *out += ",";
        *out += "\n";
      }
      *out += indent + "}";
      return;
    }
  }
}

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  Parser parser(text, error != nullptr ? error : &scratch);
  *out = JsonValue();
  return parser.Parse(out);
}

std::string JsonWrite(const JsonValue& value) {
  std::string out;
  WriteValue(value, 0, &out);
  return out;
}

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xFF);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace tornado
