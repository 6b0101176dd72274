// Fixture: init-list-move fires on a std::move inside a braced JsonObject
// or JsonArray initializer — a temporary, a declaration, and a move nested
// two initializers deep (reported once). emplace, operator[], a braced
// initializer without a move, and a move named in a string or comment stay
// clean; one site is inline-suppressed.
#include <string>
#include <utility>

#include "util/json.hpp"

namespace fixture {

using util::Json;
using util::JsonArray;
using util::JsonObject;

Json temporary(JsonArray rows) {
  return Json(JsonObject{
      {"format", Json("fixture-v1")},
      {"rows", Json(std::move(rows))},  // finding
  });
}

Json declared(JsonObject inner, JsonArray cells) {
  JsonArray list{Json(std::move(cells))};  // finding
  JsonObject outer{
      {"inner", Json(JsonObject{{"deep", Json(std::move(inner))}})},  // one
      {"list", Json(list)},
  };
  return Json(outer);
}

Json suppressed(JsonArray rows) {
  return Json(JsonObject{
      {"rows", Json(std::move(rows))},  // lint: allow(init-list-move)
  });
}

Json clean(JsonArray rows, JsonObject meta, std::string name) {
  JsonObject document{
      {"name", Json(name)},
      {"note", Json("std::move(x) in a string is not code")},
  };
  // A comment naming JsonObject{std::move(x)} is not code either.
  document.emplace("rows", std::move(rows));
  document["meta"] = std::move(meta);
  return Json(std::move(document));
}

}  // namespace fixture
