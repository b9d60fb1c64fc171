// Minimal JSON document model: writer + strict parser.
//
// Supports exactly what the perf-report pipeline needs — the BENCH_*.json
// emitter (stable, ordered serialization) and the schema test that parses
// the emitted files and the checked-in docs/perf_schema.json. Objects keep
// insertion order so reports serialize reproducibly; numbers render as
// integers when integral (timestamps survive round-trips bit-exact).
// No external dependencies by design.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prord::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;                      // null
  JsonValue(std::nullptr_t) {}                // NOLINT(runtime/explicit)
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  JsonValue(double n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  JsonValue(std::int64_t n)  // NOLINT(runtime/explicit)
      : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  JsonValue(std::uint64_t n)  // NOLINT(runtime/explicit)
      : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  JsonValue(int n) : JsonValue(static_cast<std::int64_t>(n)) {}  // NOLINT
  JsonValue(std::string s)  // NOLINT(runtime/explicit)
      : type_(Type::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}  // NOLINT

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Array append.
  void push_back(JsonValue v) { items_.push_back(std::move(v)); }
  /// Object append (keys are kept in insertion order, duplicates allowed
  /// by the writer but never produced by the report emitter).
  void set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }
  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [k, v] : members_)
      if (k == key) return &v;
    return nullptr;
  }

  /// Serializes with ordered members and a trailing newline: indented by
  /// two spaces per level, or on one line without spaces when !pretty.
  std::string dump(bool pretty = true) const;

 private:
  /// `indent` < 0 renders compact.
  void dump_to(std::string& out, int indent) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict parse (single document, whole input). Throws std::runtime_error
/// with an offset-tagged message on malformed input.
JsonValue json_parse(std::string_view text);

}  // namespace prord::util
