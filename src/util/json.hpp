// Minimal JSON value, parser and writer, used for scenario configuration and
// result files. Supports the full JSON grammar except for \u escapes beyond
// the BMP surrogate handling (inputs here are machine-generated ASCII).
//
// One grammar and one formatter, each in two forms: JsonReader is a pull
// reader and JsonWriter a streaming writer, so a document too large for a
// DOM (the instance file's channel gains) can be read and written
// element by element; Json::parse and Json::dump are the DOM forms built
// on the same two classes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace idde::util {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps key order deterministic for golden-file tests.
using JsonObject = std::map<std::string, Json, std::less<>>;

class JsonError : public std::runtime_error {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  using std::runtime_error::runtime_error;
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}

  /// Byte offset into the parsed document where the error was detected;
  /// npos when the error did not come from the parser (type mismatch,
  /// missing key, semantic validation).
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_ = npos;
};

class Json {
 public:
  using Value = std::variant<std::nullptr_t, bool, double, std::string,
                             JsonArray, JsonObject>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_number() const { return holds<double>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<JsonArray>(); }
  [[nodiscard]] bool is_object() const { return holds<JsonObject>(); }

  /// Typed accessors throw JsonError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] JsonObject& as_object();

  /// Object member lookup; throws if not an object or key missing.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Returns nullptr when missing (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Member access with default.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;

  /// Serialises; indent < 0 emits compact one-line JSON. Walks the DOM
  /// through JsonWriter; object keys come out in sorted (std::map) order.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a complete JSON document. Throws JsonError carrying the byte
  /// offset of the first error (JsonError::offset()). Rejects duplicate
  /// object keys and nesting deeper than kMaxParseDepth — hostile inputs
  /// fail with a structured error instead of silently dropping data or
  /// exhausting the stack. JsonReader::value() plus the trailing-
  /// characters check.
  static Json parse(std::string_view text);

  /// Maximum container nesting accepted by parse() and JsonReader.
  static constexpr std::size_t kMaxParseDepth = 96;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }

  Value value_;
};

/// Pull reader over one JSON document, with Json::parse's grammar, depth
/// cap, duplicate-key rejection and byte-offset errors. A loader walks the
/// containers it wants to stream and reads everything else with value():
///
///   reader.begin_object();
///   while (reader.next_key(key)) { /* consume the member's value */ }
///   reader.begin_array();
///   while (reader.next_element()) { /* consume one element */ }
///   reader.finish();
///
/// Each next_key() or next_element() that returns true leaves the reader
/// in front of a value, which the caller consumes (value() or a nested
/// walk) before the next call. A duplicate key throws as soon as it is
/// read, before its value.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Reads the next complete value into a DOM.
  [[nodiscard]] Json value();

  /// Consumes '{' and opens an object walk.
  void begin_object();
  /// Reads the next member's key and its ':'. Returns false, closing the
  /// walk, once the object's '}' is consumed.
  [[nodiscard]] bool next_key(std::string& key);

  /// Consumes '[' and opens an array walk.
  void begin_array();
  /// Returns true when another element follows; false, closing the walk,
  /// once the array's ']' is consumed.
  [[nodiscard]] bool next_element();

  /// The next non-whitespace character, not consumed. Throws at the end
  /// of the input.
  [[nodiscard]] char peek();

  /// Throws unless only whitespace remains.
  void finish();

 private:
  // One open container of the streaming walk.
  struct Frame {
    bool first = true;
    std::set<std::string, std::less<>> keys;  // objects only
  };

  void skip_whitespace();
  char take();
  void expect(char c);
  bool consume_literal(std::string_view literal);
  void open(char bracket);
  bool more(bool& first, char close);
  bool member(bool& first, std::string& key, std::size_t& key_pos);
  Json object_value();
  Json array_value();
  std::string string_value();
  double number_value();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::vector<Frame> frames_;
};

/// Streaming writer with Json::dump's layout: compact when indent < 0,
/// else one member or element per line, indented `indent` spaces per
/// level, with "key": value separated by one space. Empty containers are
/// written "[]" and "{}". Keys come out in the order the caller writes
/// them. Numbers that are integral with magnitude below 1e15 print as
/// integers, all others with 17 significant digits (the bytes of
/// printf("%.17g")).
class JsonWriter {
 public:
  JsonWriter(std::string& out, int indent) : out_(out), indent_(indent) {}

  void begin_object();
  /// Writes a member key; the next value written is its value.
  void key(std::string_view key);
  void end_object();
  void begin_array();
  void end_array();

  void null();
  void boolean(bool b);
  void number(double d);
  void string(std::string_view s);
  /// Writes a DOM value.
  void value(const Json& json);

 private:
  void before_value();
  void separate();
  void newline_indent(std::size_t depth);
  void close(char bracket);
  void write_string(std::string_view s);

  std::string& out_;
  int indent_;
  std::vector<bool> first_;  // per open container: nothing written yet
  bool after_key_ = false;
};

/// Where a real value read from outside the program may lie.
enum class Domain { kAny, kFinite, kNonNegative, kPositive, kProbability };

/// Returns `v`; throws JsonError naming `what` when v is outside `domain`.
double check_domain(double v, Domain domain, std::string_view what);

/// Validated accessors for untrusted documents. Unlike raw as_int() +
/// static_cast (which truncates a fraction and wraps a negative or huge
/// number into a wild index) these throw JsonError with a descriptive
/// message, so loaders fail structurally instead of tripping internal
/// asserts or UB downstream. `what` names the field in the error message.
[[nodiscard]] std::size_t as_index(const Json& value, std::size_t bound,
                                   std::string_view what);
/// A finite number >= min_inclusive (rejects NaN / infinities).
[[nodiscard]] double as_finite(const Json& value, double min_inclusive,
                               std::string_view what);
/// A finite number > 0.
[[nodiscard]] double as_positive(const Json& value, std::string_view what);

/// The index of `name` in `names`; throws JsonError naming `what` if absent.
[[nodiscard]] std::size_t name_index(std::span<const char* const> names,
                                     std::string_view name,
                                     std::string_view what);

/// Config documents (DESIGN.md §3): a struct T names each key once, with
/// its encoding and Domain, in `void config_fields(ConfigIo&, T&)`. A
/// ConfigIo runs that walk as a writer (every field) or as a strict reader
/// (present keys over the defaults, unknown keys ignored; a bad value
/// throws JsonError naming the dotted key). check_config reads back what
/// the writer writes, so a value set in code meets the reader's rules.
class ConfigIo {
 public:
  /// The writer, into `out`.
  explicit ConfigIo(JsonObject& out) : out_(&out) {}
  /// The reader of `in`, which must be an object.
  ConfigIo(const Json& in, std::string path);

  /// A count inside `domain` (kNonNegative or kPositive) and below 2^32,
  /// far above any config's count and far below size_t overflow.
  void count(std::string_view key, std::size_t& value,
             Domain domain = Domain::kNonNegative);
  void real(std::string_view key, double& value, Domain domain);
  /// A non-empty array of reals.
  void reals(std::string_view key, std::vector<double>& values,
             Domain domain);
  void flag(std::string_view key, bool& value);
  /// An enum stored as its name; `names[i]` names the enumerator i.
  template <class Enum>
  void name(std::string_view key, Enum& value,
            std::span<const char* const> names) {
    const auto index = static_cast<std::size_t>(value);
    if (const Json* found = field(key, Json(names[index]))) {
      value = static_cast<Enum>(name_index(
          names, found->is_string() ? found->as_string() : found->dump(),
          path(key)));
    }
  }
  /// A nested object whose fields `walk(ConfigIo&)` names.
  template <class Walk>
  void object(std::string_view key, Walk walk) {
    if (out_ != nullptr) {
      JsonObject child;
      ConfigIo io(child);
      walk(io);
      out_->insert_or_assign(std::string(key), Json(std::move(child)));
    } else if (const Json* found = in_->find(key)) {
      ConfigIo io(*found, path(key));
      walk(io);
    }
  }

 private:
  /// The writer puts `written`; the reader returns the member, if present.
  const Json* field(std::string_view key, Json written);
  [[nodiscard]] std::string path(std::string_view key) const;

  JsonObject* out_ = nullptr;
  const Json* in_ = nullptr;
  std::string path_;
};

template <class T>
[[nodiscard]] Json config_to_json(T value) {
  JsonObject out;
  ConfigIo io(out);
  config_fields(io, value);
  return Json(std::move(out));
}

template <class T>
[[nodiscard]] T config_from_json(const Json& json) {
  T value{};
  ConfigIo io(json, {});
  config_fields(io, value);
  return value;
}

template <class T>
void check_config(const T& value) {
  (void)config_from_json<T>(config_to_json(value));
}

}  // namespace idde::util
