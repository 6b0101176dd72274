// Serialisation round-trips: instances and strategies survive JSON exactly
// (metrics identical), malformed input is rejected.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/strategy_io.hpp"
#include "core/validation.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "model/validation.hpp"
#include "sim/paper.hpp"
#include "util/json.hpp"

namespace {

using namespace idde;

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 8;
  p.user_count = 30;
  p.data_count = 3;
  return p;
}

TEST(InstanceIo, RoundTripPreservesShapes) {
  const auto original = model::make_instance(small_params(), 1);
  const auto copy =
      model::instance_from_string(model::instance_to_string(original));
  EXPECT_EQ(copy.server_count(), original.server_count());
  EXPECT_EQ(copy.user_count(), original.user_count());
  EXPECT_EQ(copy.data_count(), original.data_count());
  EXPECT_EQ(copy.requests().total_requests(),
            original.requests().total_requests());
  EXPECT_EQ(copy.graph().edge_count(), original.graph().edge_count());
  EXPECT_DOUBLE_EQ(copy.total_storage_mb(), original.total_storage_mb());
}

TEST(InstanceIo, RoundTripPreservesRadioAndCoverage) {
  const auto original = model::make_instance(small_params(), 2);
  const auto copy =
      model::instance_from_string(model::instance_to_string(original));
  EXPECT_EQ(copy.radio_env().gain, original.radio_env().gain);
  EXPECT_EQ(copy.radio_env().bandwidth, original.radio_env().bandwidth);
  EXPECT_DOUBLE_EQ(copy.radio_env().noise_watts,
                   original.radio_env().noise_watts);
  for (std::size_t j = 0; j < original.user_count(); ++j) {
    EXPECT_EQ(copy.covering_servers(j), original.covering_servers(j));
  }
  EXPECT_TRUE(model::validate_instance(copy).empty());
}

TEST(InstanceIo, RoundTripPreservesLatencyModel) {
  const auto original = model::make_instance(small_params(), 3);
  const auto copy =
      model::instance_from_string(model::instance_to_string(original));
  for (std::size_t a = 0; a < original.server_count(); ++a) {
    for (std::size_t b = 0; b < original.server_count(); ++b) {
      EXPECT_NEAR(copy.latency().edge_transfer_seconds(a, b, 60.0),
                  original.latency().edge_transfer_seconds(a, b, 60.0),
                  1e-12);
    }
  }
  EXPECT_DOUBLE_EQ(copy.latency().cloud_speed_mbps(),
                   original.latency().cloud_speed_mbps());
}

TEST(InstanceIo, SolverMetricsIdenticalAfterRoundTrip) {
  const auto original = model::make_instance(small_params(), 4);
  const auto copy =
      model::instance_from_string(model::instance_to_string(original));
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  const auto sa = core::IddeG().solve(original, rng_a);
  const auto sb = core::IddeG().solve(copy, rng_b);
  const auto ma = core::evaluate(original, sa);
  const auto mb = core::evaluate(copy, sb);
  EXPECT_DOUBLE_EQ(ma.avg_rate_mbps, mb.avg_rate_mbps);
  EXPECT_DOUBLE_EQ(ma.avg_latency_ms, mb.avg_latency_ms);
}

TEST(InstanceIo, RejectsWrongFormatTag) {
  EXPECT_THROW(
      (void)model::instance_from_string(R"({"format":"something-else"})"),
      util::JsonError);
}

TEST(InstanceIo, MalformedJsonThrows) {
  EXPECT_THROW((void)model::instance_from_string("{not json"),
               util::JsonError);
}

/// The same document with its members in another order: radio first with
/// its own members reversed, the rest reversed, format last.
std::string reordered(const std::string& text) {
  const util::Json doc = util::Json::parse(text);
  std::string out;
  util::JsonWriter writer(out, 2);
  writer.begin_object();
  writer.key("radio");
  writer.begin_object();
  const util::JsonObject& radio = doc.at("radio").as_object();
  for (auto it = radio.rbegin(); it != radio.rend(); ++it) {
    writer.key(it->first);
    writer.value(it->second);
  }
  writer.end_object();
  const util::JsonObject& top = doc.as_object();
  for (auto it = top.rbegin(); it != top.rend(); ++it) {
    if (it->first == "radio" || it->first == "format") continue;
    writer.key(it->first);
    writer.value(it->second);
  }
  writer.key("format");
  writer.value(doc.at("format"));
  writer.end_object();
  return out;
}

TEST(InstanceIo, KeyOrderDoesNotMatter) {
  const auto original = model::make_instance(small_params(), 10);
  const std::string canonical = model::instance_to_string(original);
  const std::string shuffled = reordered(canonical);
  ASSERT_LT(shuffled.find("\"radio\""), shuffled.find("\"cloud_speed_mbps\""));
  ASSERT_GT(shuffled.find("\"format\""), shuffled.find("\"users\""));
  const auto copy = model::instance_from_string(shuffled);
  EXPECT_EQ(model::instance_to_string(copy), canonical);
  EXPECT_EQ(copy.radio_env().gain, original.radio_env().gain);
}

TEST(InstanceIo, DuplicateKeysThrow) {
  const std::string text =
      model::instance_to_string(model::make_instance(small_params(), 11));
  const auto expect_duplicate = [](const std::string& doc,
                                   const std::string& key) {
    try {
      (void)model::instance_from_string(doc);
      ADD_FAILURE() << "duplicate '" << key << "' loaded";
    } catch (const util::JsonError& error) {
      EXPECT_NE(std::string(error.what()).find("duplicate key '" + key + "'"),
                std::string::npos)
          << error.what();
    }
  };
  std::string gain = text;
  gain.insert(gain.find("\"gain\":["), "\"gain\":[],");
  expect_duplicate(gain, "gain");
  std::string top = text;
  top.insert(1, "\"users\":[],");
  expect_duplicate(top, "users");
  std::string radio = text;
  radio.insert(1, "\"radio\":{},");
  expect_duplicate(radio, "radio");
}

TEST(InstanceIo, TrailingCharactersThrow) {
  const std::string text =
      model::instance_to_string(model::make_instance(small_params(), 13));
  EXPECT_NO_THROW((void)model::instance_from_string(text + " \n"));
  EXPECT_THROW((void)model::instance_from_string(text + " x"),
               util::JsonError);
  EXPECT_THROW((void)model::instance_from_string(text + "{}"),
               util::JsonError);
}

// A grammar error inside the streamed gain array is reported at the byte
// Json::parse reports, so a user can find it in the file.
TEST(InstanceIo, BadTokenInGainArrayReportsParseOffset) {
  const std::string text =
      model::instance_to_string(model::make_instance(small_params(), 12), 1);
  const std::size_t open = text.find("\"gain\": [");
  const std::size_t close = text.find(']', open);
  ASSERT_NE(open, std::string::npos);
  const std::size_t first = text.find_first_of("0123456789", open + 9);
  const std::size_t comma = text.find(',', open + (close - open) / 2);
  const std::vector<std::pair<std::size_t, char>> damage = {
      {first + 2, 'x'}, {comma, ';'}, {close, '}'}, {first, '@'}};
  for (const auto& [pos, byte] : damage) {
    std::string corrupt = text;
    corrupt[pos] = byte;
    std::size_t parse_offset = util::JsonError::npos;
    std::size_t load_offset = util::JsonError::npos;
    try {
      (void)util::Json::parse(corrupt);
    } catch (const util::JsonError& error) {
      parse_offset = error.offset();
    }
    try {
      (void)model::instance_from_string(corrupt);
    } catch (const util::JsonError& error) {
      load_offset = error.offset();
    }
    EXPECT_EQ(parse_offset, pos) << "byte '" << byte << "'";
    EXPECT_EQ(load_offset, parse_offset) << "byte '" << byte << "'";
  }
}

/// An idde-instance-v1 file (dense N x M gains) written by the last v1
/// writer: make_instance(tiny, 7) at indent 1.
std::string v1_fixture() {
  std::ifstream in(IDDE_TEST_DATA_DIR "/tiny-instance-v1.json");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The v1 file still loads, keeps only the gains the model can read, and
// solves exactly like its v2 rewrite.
TEST(InstanceIo, V1FixtureLoadsSparsifiedAndSolvesLikeItsV2Rewrite) {
  const std::string v1_text = v1_fixture();
  ASSERT_NE(v1_text.find("\"idde-instance-v1\""), std::string::npos)
      << "missing tests/data/tiny-instance-v1.json";

  const auto from_v1 = model::instance_from_string(v1_text);
  model::InstanceParams tiny = sim::paper_default_params();
  tiny.server_count = 5;
  tiny.user_count = 12;
  tiny.data_count = 3;
  const auto built = model::make_instance(tiny, 7);
  // The same neighbour lists, reach rows and gains the builder stores.
  EXPECT_EQ(from_v1.radio_env().neighbours, built.radio_env().neighbours);
  EXPECT_EQ(from_v1.radio_env().reach_server, built.radio_env().reach_server);
  EXPECT_EQ(from_v1.radio_env().gain, built.radio_env().gain);
  const std::string v2_text = model::instance_to_string(from_v1, 1);
  EXPECT_EQ(v2_text, model::instance_to_string(built, 1));
  EXPECT_LT(v2_text.size(), v1_text.size());

  const auto from_v2 = model::instance_from_string(v2_text);
  util::Rng rng_a(3);
  util::Rng rng_b(3);
  const auto sa = core::IddeG().solve(from_v1, rng_a);
  const auto sb = core::IddeG().solve(from_v2, rng_b);
  EXPECT_EQ(core::strategy_to_string(sa), core::strategy_to_string(sb));
  const auto ma = core::evaluate(from_v1, sa);
  const auto mb = core::evaluate(from_v2, sb);
  EXPECT_EQ(ma.avg_rate_mbps, mb.avg_rate_mbps);
  EXPECT_EQ(ma.avg_latency_ms, mb.avg_latency_ms);
}

TEST(InstanceIo, V1GainMatrixOfTheWrongShapeThrows) {
  util::Json doc = util::Json::parse(v1_fixture());
  util::JsonArray& gain = doc.as_object().at("radio").as_object().at("gain")
                              .as_array();
  gain.pop_back();
  EXPECT_THROW((void)model::instance_from_string(doc.dump()),
               util::JsonError);
  gain.push_back(util::Json(util::JsonArray{}));  // a v2 row in a v1 matrix
  EXPECT_THROW((void)model::instance_from_string(doc.dump()),
               util::JsonError);
}

TEST(StrategyIo, RoundTripPreservesEverything) {
  const auto inst = model::make_instance(small_params(), 5);
  util::Rng rng(5);
  const auto original = core::IddeG().solve(inst, rng);
  const auto copy =
      core::strategy_from_string(inst, core::strategy_to_string(original));
  EXPECT_EQ(copy.allocation, original.allocation);
  EXPECT_EQ(copy.approach_name, original.approach_name);
  EXPECT_EQ(copy.collaborative_delivery, original.collaborative_delivery);
  EXPECT_EQ(copy.placements, original.placements);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    ASSERT_EQ(copy.delivery.hosts(k).size(),
              original.delivery.hosts(k).size());
    for (std::size_t h = 0; h < copy.delivery.hosts(k).size(); ++h) {
      EXPECT_EQ(copy.delivery.hosts(k)[h], original.delivery.hosts(k)[h]);
    }
  }
  const auto ma = core::evaluate(inst, original);
  const auto mb = core::evaluate(inst, copy);
  EXPECT_DOUBLE_EQ(ma.avg_rate_mbps, mb.avg_rate_mbps);
  EXPECT_DOUBLE_EQ(ma.avg_latency_ms, mb.avg_latency_ms);
}

TEST(StrategyIo, NonCollaborativeFlagSurvives) {
  const auto inst = model::make_instance(small_params(), 6);
  util::Rng rng(6);
  core::Strategy s = core::IddeG().solve(inst, rng);
  s.collaborative_delivery = false;
  const auto copy =
      core::strategy_from_string(inst, core::strategy_to_string(s));
  EXPECT_FALSE(copy.collaborative_delivery);
}

// The optional members keep their defaults when absent and are read
// strictly when present: "no" is not silently `true`.
TEST(StrategyIo, MistypedOptionalFieldsThrow) {
  const auto inst = model::make_instance(small_params(), 6);
  util::Rng rng(6);
  const util::Json valid = util::Json::parse(
      core::strategy_to_string(core::IddeG().solve(inst, rng)));
  const auto with = [&](const char* key, util::Json value) {
    util::Json doc = valid;
    doc.as_object().insert_or_assign(key, std::move(value));
    return doc.dump();
  };
  for (const std::string& text :
       {with("collaborative_delivery", util::Json("no")),
        with("approach", util::Json(7))}) {
    EXPECT_THROW((void)core::strategy_from_string(inst, text),
                 util::JsonError);
  }
  util::Json bare = valid;
  bare.as_object().erase("collaborative_delivery");
  bare.as_object().erase("approach");
  const auto copy = core::strategy_from_string(inst, bare.dump());
  EXPECT_TRUE(copy.collaborative_delivery);
  EXPECT_EQ(copy.approach_name, "");
}

TEST(StrategyIo, UnallocatedUsersSerialiseAsNull) {
  const auto inst = model::make_instance(small_params(), 7);
  core::Strategy s{core::AllocationProfile(inst.user_count(),
                                           core::kUnallocated),
                   core::DeliveryProfile(inst)};
  const std::string text = core::strategy_to_string(s);
  const auto copy = core::strategy_from_string(inst, text);
  for (const auto& slot : copy.allocation) {
    EXPECT_FALSE(slot.allocated());
  }
}

TEST(StrategyIo, OverCapacityPlacementThrows) {
  const auto inst = model::make_instance(small_params(), 8);
  // Hand-craft a strategy that stores item 0 on server 0 twice.
  const std::string bogus = R"({
    "format": "idde-strategy-v1",
    "approach": "hand",
    "collaborative_delivery": true,
    "allocation": [)" +
      [&] {
        std::string nulls;
        for (std::size_t j = 0; j < inst.user_count(); ++j) {
          if (j != 0) nulls += ",";
          nulls += "null";
        }
        return nulls;
      }() +
      R"(],
    "placements": [{"server":0,"item":0},{"server":0,"item":0}]
  })";
  EXPECT_THROW((void)core::strategy_from_string(inst, bogus),
               util::JsonError);
}

}  // namespace
