// Minimal JSON support shared by the whole simulator (scenario suites, fleet
// reports, trace export, telemetry snapshots): a recursive-descent parser
// into a tagged Value tree (objects, arrays, strings, numbers, booleans,
// null) and a deterministic writer. No external dependency. Object keys are
// kept in sorted order, so serializing the same data always yields the same
// bytes — the property the fleet's "byte-identical aggregate across --jobs"
// contract rests on.

#ifndef ELEMENT_SRC_COMMON_JSON_H_
#define ELEMENT_SRC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace element {
namespace json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double v);
  static Value Int(int64_t v);
  static Value Str(std::string s);
  static Value Array();
  static Value Object();

  // Deepest nesting of arrays and objects that Parse accepts.
  static constexpr int kMaxDepth = 256;

  // Parses `text`; on failure returns false and describes the problem
  // (with offset) in *error. Nesting past kMaxDepth is such a problem, and
  // so is a key repeated within one object.
  static bool Parse(const std::string& text, Value* out, std::string* error);

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool def = false) const { return is_bool() ? bool_ : def; }
  double AsDouble(double def = 0.0) const { return is_number() ? number_ : def; }
  const std::string& AsString(const std::string& def = "") const {
    return is_string() ? string_ : def;
  }

  const std::vector<Value>& items() const { return array_; }
  const std::map<std::string, Value>& fields() const { return object_; }

  // Object lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  // Mutation helpers for building documents.
  void Append(Value v);                       // array
  void Set(const std::string& key, Value v);  // object

  // Serializes with stable formatting: sorted keys, numbers via
  // FormatNumber. `indent` < 0 emits compact one-line JSON.
  std::string Dump(int indent = 2) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

// Formats a double deterministically (used by Dump and by sweep labels).
// Integral values below 1e15 in magnitude print as integers ("42", "-0" as
// "0"); other finite values print as printf's "%.{p}g" with the smallest
// p >= 9 whose output reads back as exactly v. NaN prints as null and
// +-inf as +-1e308, since JSON has neither.
std::string FormatNumber(double v);

}  // namespace json
}  // namespace element

#endif  // ELEMENT_SRC_COMMON_JSON_H_
