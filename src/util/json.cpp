#include "util/json.hpp"

#include "util/format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace idde::util {

namespace {

[[noreturn]] void fail(std::string_view what, std::size_t pos) {
  throw JsonError(util::format("JSON error at offset {}: {}", pos, what), pos);
}

[[noreturn]] void duplicate_key(std::string_view key, std::size_t key_pos) {
  // Silently keeping either copy hides data from the producer.
  fail(util::format("duplicate key '{}'", key), key_pos);
}

}  // namespace

// --- JsonReader ------------------------------------------------------------

void JsonReader::skip_whitespace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek() {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  return text_[pos_];
}

char JsonReader::take() {
  if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
  return text_[pos_++];
}

void JsonReader::expect(char c) {
  if (take() != c) fail(util::format("expected '{}'", c), pos_ - 1);
}

bool JsonReader::consume_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

void JsonReader::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing characters", pos_);
}

Json JsonReader::value() {
  switch (peek()) {
    case '{': return object_value();
    case '[': return array_value();
    case '"': return Json(string_value());
    case 't':
      if (!consume_literal("true")) fail("bad literal", pos_);
      return Json(true);
    case 'f':
      if (!consume_literal("false")) fail("bad literal", pos_);
      return Json(false);
    case 'n':
      if (!consume_literal("null")) fail("bad literal", pos_);
      return Json(nullptr);
    default: return Json(number_value());
  }
}

// Bounds the nesting of containers, streamed or not: untrusted input like
// "[[[[..." must fail with a JsonError, not exhaust the stack.
void JsonReader::open(char bracket) {
  skip_whitespace();
  if (++depth_ > Json::kMaxParseDepth) fail("nesting too deep", pos_);
  expect(bracket);
}

// Steps past one separator of an open container: true when an element or
// member follows, false once `close` is consumed.
bool JsonReader::more(bool& first, char close) {
  skip_whitespace();
  if (first) {
    first = false;
    if (peek() != close) return true;
    ++pos_;
  } else {
    const char c = take();
    if (c == ',') return true;
    if (c != close) fail(util::format("expected ',' or '{}'", close), pos_ - 1);
  }
  --depth_;
  return false;
}

bool JsonReader::member(bool& first, std::string& key, std::size_t& key_pos) {
  if (!more(first, '}')) return false;
  skip_whitespace();
  key_pos = pos_;
  key = string_value();
  skip_whitespace();
  expect(':');
  return true;
}

Json JsonReader::object_value() {
  open('{');
  JsonObject object;
  bool first = true;
  std::string key;
  std::size_t key_pos = 0;
  while (member(first, key, key_pos)) {
    const auto hint = object.lower_bound(key);
    if (hint != object.end() && hint->first == key) {
      duplicate_key(key, key_pos);
    }
    object.emplace_hint(hint, std::move(key), value());
  }
  return Json(std::move(object));
}

Json JsonReader::array_value() {
  open('[');
  JsonArray array;
  bool first = true;
  while (more(first, ']')) array.push_back(value());
  return Json(std::move(array));
}

void JsonReader::begin_object() {
  open('{');
  frames_.emplace_back();
}

bool JsonReader::next_key(std::string& key) {
  Frame& frame = frames_.back();
  std::size_t key_pos = 0;
  if (!member(frame.first, key, key_pos)) {
    frames_.pop_back();
    return false;
  }
  if (!frame.keys.insert(key).second) duplicate_key(key, key_pos);
  return true;
}

void JsonReader::begin_array() {
  open('[');
  frames_.emplace_back();
}

bool JsonReader::next_element() {
  if (more(frames_.back().first, ']')) return true;
  frames_.pop_back();
  return false;
}

std::string JsonReader::string_value() {
  expect('"');
  std::string out;
  for (;;) {
    const char c = take();
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    const char esc = take();
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = take();
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("bad \\u escape", pos_ - 1);
          }
        }
        // UTF-8 encode (BMP only; surrogate pairs rejected).
        if (code >= 0xD800 && code <= 0xDFFF) {
          fail("surrogates unsupported", pos_);
        }
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: fail("bad escape", pos_ - 1);
    }
  }
}

double JsonReader::number_value() {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size() &&
         ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
          text_[pos_] == '-')) {
    ++pos_;
  }
  double value = 0.0;
  const auto result =
      std::from_chars(text_.data() + start, text_.data() + pos_, value);
  if (result.ec != std::errc{} || result.ptr != text_.data() + pos_) {
    fail("bad number", start);
  }
  return value;
}

// --- JsonWriter ------------------------------------------------------------

void JsonWriter::newline_indent(std::size_t depth) {
  if (indent_ < 0) return;
  out_.push_back('\n');
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

// The separator in front of an array element or an object member.
void JsonWriter::separate() {
  if (!first_.back()) out_.push_back(',');
  first_.back() = false;
  newline_indent(first_.size());
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (!first_.empty()) {
    separate();
  }
}

void JsonWriter::close(char bracket) {
  const bool empty = first_.back();
  first_.pop_back();
  if (!empty) newline_indent(first_.size());
  out_.push_back(bracket);
}

void JsonWriter::begin_object() {
  before_value();
  out_.push_back('{');
  first_.push_back(true);
}

void JsonWriter::key(std::string_view key) {
  separate();
  write_string(key);
  out_.push_back(':');
  if (indent_ >= 0) out_.push_back(' ');
  after_key_ = true;
}

void JsonWriter::end_object() { close('}'); }

void JsonWriter::begin_array() {
  before_value();
  out_.push_back('[');
  first_.push_back(true);
}

void JsonWriter::end_array() { close(']'); }

void JsonWriter::null() {
  before_value();
  out_ += "null";
}

void JsonWriter::boolean(bool b) {
  before_value();
  out_ += b ? "true" : "false";
}

void JsonWriter::number(double d) {
  before_value();
  // 17 significant digits round-trip every double; to_chars with an
  // explicit precision prints the same bytes as "%.17g".
  char buf[32];
  const std::to_chars_result result =
      std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof buf, d,
                          std::chars_format::general, 17);
  out_.append(buf, result.ptr);
}

void JsonWriter::string(std::string_view s) {
  before_value();
  write_string(s);
}

void JsonWriter::write_string(std::string_view s) {
  out_.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

void JsonWriter::value(const Json& json) {
  if (json.is_null()) {
    null();
  } else if (json.is_bool()) {
    boolean(json.as_bool());
  } else if (json.is_number()) {
    number(json.as_number());
  } else if (json.is_string()) {
    string(json.as_string());
  } else if (json.is_array()) {
    begin_array();
    for (const Json& element : json.as_array()) value(element);
    end_array();
  } else {
    begin_object();
    for (const auto& [name, member] : json.as_object()) {
      key(name);
      value(member);
    }
    end_object();
  }
}

// --- Json --------------------------------------------------------------------

bool Json::as_bool() const {
  if (!is_bool()) throw JsonError("not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) throw JsonError("not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  // Guard the cast: NaN or a value outside [-2^63, 2^63) is UB under
  // static_cast (float-cast-overflow). 2^63 is exactly representable as a
  // double, so these bounds are exact; NaN fails both comparisons.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    throw JsonError(util::format("number {} out of int64 range", d));
  }
  return static_cast<std::int64_t>(d);
}

const std::string& Json::as_string() const {
  if (!is_string()) throw JsonError("not a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) throw JsonError("not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) throw JsonError("not an object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  if (!is_array()) throw JsonError("not an array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) throw JsonError("not an object");
  return std::get<JsonObject>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) throw JsonError(util::format("missing key '{}'", key));
  return *found;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& object = std::get<JsonObject>(value_);
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* found = find(key);
  return (found != nullptr && found->is_number()) ? found->as_number()
                                                  : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* found = find(key);
  return (found != nullptr && found->is_string()) ? found->as_string()
                                                  : fallback;
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter(out, indent).value(*this);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json value = reader.value();
  reader.finish();
  return value;
}

namespace {

/// Throws "<what> must be <want> (got <value>)".
[[noreturn]] void reject(std::string_view what, std::string_view want,
                         const Json& value) {
  throw JsonError(
      util::format("{} must be {} (got {})", what, want, value.dump()));
}

/// A number inside `domain`.
double as_real(const Json& value, Domain domain, std::string_view what) {
  if (!value.is_number()) reject(what, "a number", value);
  return check_domain(value.as_number(), domain, what);
}

}  // namespace

double check_domain(double v, Domain domain, std::string_view what) {
  static constexpr const char* kWant[] = {
      "a number", "a finite number", "a finite number >= 0",
      "a finite number > 0", "a probability in [0, 1]"};
  const bool finite = std::isfinite(v);
  if (!(domain == Domain::kAny || (finite && domain == Domain::kFinite) ||
        (finite && domain == Domain::kNonNegative && v >= 0.0) ||
        (finite && domain == Domain::kPositive && v > 0.0) ||
        (domain == Domain::kProbability && v >= 0.0 && v <= 1.0))) {
    reject(what, kWant[static_cast<std::size_t>(domain)], Json(v));
  }
  return v;
}

std::size_t as_index(const Json& value, std::size_t bound,
                     std::string_view what) {
  // The comparisons run in double, so no cast sees a value out of range.
  const double v = value.is_number() ? value.as_number() : -1.0;
  if (!(v >= 0.0 && v < static_cast<double>(bound) && v == std::floor(v))) {
    reject(what, util::format("an integer in [0, {})", bound), value);
  }
  return static_cast<std::size_t>(v);
}

double as_finite(const Json& value, double min_inclusive,
                 std::string_view what) {
  const double v = as_real(value, Domain::kFinite, what);
  if (v < min_inclusive) {
    reject(what, util::format("a finite number >= {}", min_inclusive), value);
  }
  return v;
}

double as_positive(const Json& value, std::string_view what) {
  return as_real(value, Domain::kPositive, what);
}

std::size_t name_index(std::span<const char* const> names,
                       std::string_view name, std::string_view what) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) reject(what, "a known name", Json(std::string(name)));
  return static_cast<std::size_t>(it - names.begin());
}

ConfigIo::ConfigIo(const Json& in, std::string path)
    : in_(&in), path_(std::move(path)) {
  if (!in.is_object()) {
    reject(path_.empty() ? "a config" : path_, "an object", in);
  }
}

void ConfigIo::count(std::string_view key, std::size_t& value,
                     Domain domain) {
  if (const Json* found = field(key, Json(value))) {
    value = as_index(*found, std::size_t{1} << 32, path(key));
    check_domain(static_cast<double>(value), domain, path(key));
  }
}

void ConfigIo::real(std::string_view key, double& value, Domain domain) {
  if (const Json* found = field(key, Json(value))) {
    value = as_real(*found, domain, path(key));
  }
}

void ConfigIo::reals(std::string_view key, std::vector<double>& values,
                     Domain domain) {
  const Json* found = field(key, Json(JsonArray(values.begin(), values.end())));
  if (found == nullptr) return;
  if (!found->is_array() || found->as_array().empty()) {
    reject(path(key), "a non-empty array", *found);
  }
  values.clear();
  for (const Json& item : found->as_array()) {
    values.push_back(as_real(item, domain, path(key)));
  }
}

void ConfigIo::flag(std::string_view key, bool& value) {
  if (const Json* found = field(key, Json(value))) {
    if (!found->is_bool()) reject(path(key), "true or false", *found);
    value = found->as_bool();
  }
}

const Json* ConfigIo::field(std::string_view key, Json written) {
  if (in_ != nullptr) return in_->find(key);
  out_->insert_or_assign(std::string(key), std::move(written));
  return nullptr;
}

std::string ConfigIo::path(std::string_view key) const {
  return path_.empty() ? std::string(key) : util::format("{}.{}", path_, key);
}

}  // namespace idde::util
