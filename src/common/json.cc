#include "src/common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace element {
namespace json {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::Int(int64_t i) { return Number(static_cast<double>(i)); }

Value Value::Str(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::Object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

const Value* Value::Find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void Value::Append(Value v) {
  type_ = Type::kArray;
  array_.push_back(std::move(v));
}

void Value::Set(const std::string& key, Value v) {
  type_ = Type::kObject;
  object_[key] = std::move(v);
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Run(Value* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    if (error_ != nullptr) {
      *error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " + why;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        // Line comments so suite files can be annotated.
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  bool Peek(char* c) {
    if (pos_ >= text_.size()) {
      return false;
    }
    *c = text_[pos_];
    return true;
  }

  bool Literal(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return Fail(std::string("expected '") + lit + "'");
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(Value* out) {
    char c;
    if (!Peek(&c)) {
      return Fail("unexpected end of input");
    }
    switch (c) {
      case '{':
      case '[': {
        // Each level recurses, so a bound on depth bounds the stack.
        if (depth_ == Value::kMaxDepth) {
          return Fail("nesting deeper than " + std::to_string(Value::kMaxDepth) + " levels");
        }
        ++depth_;
        const bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = Value::Str(std::move(s));
        return true;
      }
      case 't':
        if (!Literal("true")) {
          return false;
        }
        *out = Value::Bool(true);
        return true;
      case 'f':
        if (!Literal("false")) {
          return false;
        }
        *out = Value::Bool(false);
        return true;
      case 'n':
        if (!Literal("null")) {
          return false;
        }
        *out = Value::Null();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out) {
    ++pos_;  // '{'
    *out = Value::Object();
    SkipWs();
    char c;
    if (Peek(&c) && c == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Peek(&c) || c != '"') {
        return Fail("expected object key string");
      }
      const size_t key_at = pos_;
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      // Keeping the last of two values would hide a typo in a suite file.
      if (out->Find(key) != nullptr) {
        pos_ = key_at;
        return Fail("duplicate key '" + key + "'");
      }
      SkipWs();
      if (!Peek(&c) || c != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      Value v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->Set(key, std::move(v));
      SkipWs();
      if (!Peek(&c)) {
        return Fail("unterminated object");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(Value* out) {
    ++pos_;  // '['
    *out = Value::Array();
    SkipWs();
    char c;
    if (Peek(&c) && c == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      Value v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->Append(std::move(v));
      SkipWs();
      if (!Peek(&c)) {
        return Fail("unterminated array");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // Suite files are ASCII in practice; encode BMP code points as UTF-8.
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
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Value* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      digits = digits || std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0;
      ++pos_;
    }
    if (!digits) {
      return Fail("invalid number");
    }
    std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      return Fail("invalid number");
    }
    *out = Value::Number(v);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_
};

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Value& v, int indent, int depth, std::string* out) {
  const std::string pad =
      indent < 0 ? "" : std::string(static_cast<size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad =
      indent < 0 ? "" : std::string(static_cast<size_t>(indent) * depth, ' ');
  const char* nl = indent < 0 ? "" : "\n";
  switch (v.type()) {
    case Value::Type::kNull:
      out->append("null");
      break;
    case Value::Type::kBool:
      out->append(v.AsBool() ? "true" : "false");
      break;
    case Value::Type::kNumber:
      out->append(FormatNumber(v.AsDouble()));
      break;
    case Value::Type::kString:
      EscapeTo(v.AsString(), out);
      break;
    case Value::Type::kArray: {
      if (v.items().empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      out->append(nl);
      for (size_t i = 0; i < v.items().size(); ++i) {
        out->append(pad);
        DumpTo(v.items()[i], indent, depth + 1, out);
        if (i + 1 < v.items().size()) {
          out->push_back(',');
        }
        out->append(nl);
      }
      out->append(close_pad);
      out->push_back(']');
      break;
    }
    case Value::Type::kObject: {
      if (v.fields().empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      out->append(nl);
      size_t i = 0;
      for (const auto& [key, field] : v.fields()) {
        out->append(pad);
        EscapeTo(key, out);
        out->append(indent < 0 ? ":" : ": ");
        DumpTo(field, indent, depth + 1, out);
        if (++i < v.fields().size()) {
          out->push_back(',');
        }
        out->append(nl);
      }
      out->append(close_pad);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

bool Value::Parse(const std::string& text, Value* out, std::string* error) {
  Parser p(text, error);
  return p.Run(out);
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(*this, indent, 0, &out);
  return out;
}

std::string FormatNumber(double v) {
  if (std::isnan(v)) {
    return "null";  // JSON has no NaN
  }
  if (std::isinf(v)) {
    return v > 0 ? "1e308" : "-1e308";
  }
  char buf[32];
  double rounded = std::nearbyint(v);
  if (rounded == v && std::fabs(v) < 1e15) {
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v)).ptr);
  }
  // The shortest "%.{p}g" with p >= 9 that reads back as v; to_chars with a
  // precision prints what printf's "%.*g" prints. No p below the digit count
  // of to_chars's shortest form can read back as v, so the search starts
  // there.
  char* end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    digits += *c >= '0' && *c <= '9';
  }
  for (int prec = std::max(9, digits); prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) {
      break;
    }
  }
  return std::string(buf, end);
}

}  // namespace json
}  // namespace element
