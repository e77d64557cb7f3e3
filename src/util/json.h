// The one JSON text module: a recursive-descent parser plus the string
// escaping and number spelling every JSON emitter in the tree uses (serving
// responses, the metrics dump, the Chrome trace, the observability
// endpoints, the access log and the train event log).
//
// The parser accepts the full JSON grammar (nested objects/arrays, escapes,
// exponents) with a depth cap, so a hostile body is answered with a clean
// InvalidArgument instead of a stack overflow. Numbers are doubles (JSON's
// own number model); object keys keep last-wins semantics on duplicates.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace emba {
namespace json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return *array_; }
  const Object& AsObject() const { return *object_; }

  /// Object member lookup; nullptr when this is not an object or the key
  /// is absent.
  const Value* Find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses `text` as one JSON value (trailing garbage is an error).
/// InvalidArgument with a byte offset on malformed input.
Result<Value> Parse(const std::string& text);

/// `s` with JSON string escaping applied (quotes not included): `"`, `\`
/// and every control byte below 0x20 are escaped; other bytes (UTF-8
/// included) pass through.
std::string Escape(const std::string& s);

/// Shortest decimal spelling that parses back bit-identical (the serving
/// layer's score-fidelity contract), independent of the C locale.
/// Non-finite values have no JSON spelling and render as `null`.
std::string NumberToString(double d);

}  // namespace json
}  // namespace emba
