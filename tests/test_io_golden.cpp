// Golden digests of every document the repo writes.
//
// Each case folds the exact bytes of one serialised document into an
// FNV-1a digest: instance files at indent -1, 1 and 2 for a tiny
// instance, a Set #1 point, the 125/816 city instance and the 60/960
// metro-short scenario; strategy, coded-strategy and serve-checkpoint
// documents; the scenario, fault-profile and QoS config builders; and
// Json::dump over edge doubles (signed zero, subnormals, DBL_MAX, the
// 1e15 integer cut-over, non-finite values) plus a seeded sample of
// random bit patterns. The pinned values are exact, so a rewrite of the
// JSON formatter or of any document writer must reproduce them byte for
// byte. Every instance file must also load back to an instance that
// re-serialises to the same bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <ios>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/strategy_io.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "qos/config.hpp"
#include "serve/controller.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace idde;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

model::InstanceParams tiny_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 5;
  p.user_count = 12;
  p.data_count = 3;
  return p;
}

model::InstanceParams set1_params() { return sim::paper_set1()[2].params; }

model::InstanceParams city_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 125;
  p.user_count = 816;
  p.data_count = 12;
  return p;
}

model::InstanceParams metro_short_params() {
  return sim::params_from_string(
      R"({"server_count":60,"user_count":960,)"
      R"("eua":{"area_side_m":1386,"server_count":60,"user_count":960}})");
}

struct Digests {
  std::uint64_t compact;
  std::uint64_t indent1;
  std::uint64_t indent2;
};

/// Digests of the instance file at the three indents; each file must load
/// back to an instance that writes the same bytes.
void expect_instance(const model::ProblemInstance& instance,
                     const Digests& want) {
  const int indents[] = {-1, 1, 2};
  const std::uint64_t wanted[] = {want.compact, want.indent1, want.indent2};
  for (int n = 0; n < 3; ++n) {
    const std::string text = model::instance_to_string(instance, indents[n]);
    EXPECT_EQ(hex(fnv1a(text)), hex(wanted[n])) << "indent " << indents[n];
    const model::ProblemInstance back = model::instance_from_string(text);
    EXPECT_EQ(model::instance_to_string(back, indents[n]), text)
        << "indent " << indents[n];
  }
}

TEST(IoGolden, TinyInstance) {
  expect_instance(model::make_instance(tiny_params(), 7),
                  {0x9bf3edb31549c416, 0xac04f1688b13ee46, 0x4279f9e17320d794});
}

TEST(IoGolden, Set1Instance) {
  expect_instance(model::make_instance(set1_params(), 5),
                  {0x7d34247728f95e47, 0xbe857e2f4582b2fb, 0x8226f44a5213fabb});
}

TEST(IoGolden, CityInstance) {
  expect_instance(model::make_instance(city_params(), 1),
                  {0xca62508c674fbf32, 0x18ed8c9248450e4, 0xa92c8b8582990aa0});
}

TEST(IoGolden, MetroShortInstance) {
  expect_instance(model::make_instance(metro_short_params(), 1),
                  {0xa7a573232f065f16, 0x6e773d19fde44db0, 0x4841532a668f1a4a});
}

TEST(IoGolden, Strategy) {
  const auto instance = model::make_instance(set1_params(), 5);
  util::Rng rng(5);
  const core::Strategy strategy = core::IddeG().solve(instance, rng);
  EXPECT_EQ(hex(fnv1a(core::strategy_to_string(strategy, -1))),
            hex(0x7fe8a53566325e66));
  EXPECT_EQ(hex(fnv1a(core::strategy_to_string(strategy, 2))),
            hex(0x251b7cc579597ae4));
}

TEST(IoGolden, CodedStrategy) {
  const auto instance = model::make_instance(tiny_params(), 11);
  util::Rng rng(11);
  const core::Strategy strategy = core::IddeG().solve(instance, rng);
  core::GreedyDeliveryPlanner planner(instance);
  auto plan = planner.plan(strategy.allocation, {4, 2});
  core::Strategy coded(strategy.allocation, std::move(plan.delivery));
  coded.approach_name = "golden";
  coded.placements = plan.placements;
  EXPECT_EQ(hex(fnv1a(core::strategy_to_string(coded, -1))),
            hex(0x8d8dedbfd1a01b5));
  EXPECT_EQ(hex(fnv1a(core::strategy_to_string(coded, 2))),
            hex(0xf83e720801384a95));
}

TEST(IoGolden, ServeCheckpoint) {
  serve::ServeConfig config;
  config.base = tiny_params();
  config.base.user_count = 14;
  config.churn.arrival_rate_hz = 1.0 / 25.0;
  config.churn.mean_session_s = 40.0;
  config.churn.initial_online_fraction = 0.9;
  config.faults.horizon_s = 100.0;
  config.faults.server_mtbf_s = 60.0;
  config.faults.server_mttr_s = 6.0;
  config.sigma_refresh_period_ticks = 5;
  serve::ServeController controller(config, 5);
  for (int step = 0; step < 9; ++step) (void)controller.tick();
  EXPECT_EQ(hex(fnv1a(controller.checkpoint(-1))), hex(0xcd8886eee4494f78));
  EXPECT_EQ(hex(fnv1a(controller.checkpoint(2))), hex(0xc733f04248e0c334));
}

TEST(IoGolden, ConfigDocuments) {
  const model::InstanceParams params = city_params();
  EXPECT_EQ(hex(fnv1a(sim::params_to_string(params, -1))),
            hex(0xf62368275101345));
  EXPECT_EQ(hex(fnv1a(sim::params_to_string(params, 2))),
            hex(0xd485cc82b16857a5));

  fault::FaultProfile faults;
  faults.horizon_s = 120.0;
  faults.server_mtbf_s = 45.5;
  faults.replica_corruption_prob = 0.125;
  EXPECT_EQ(hex(fnv1a(sim::fault_profile_to_json(faults).dump(1))),
            hex(0xbc286510db9f7633));
  EXPECT_EQ(hex(fnv1a(sim::fragment_config_to_json({5, 3}).dump(-1))),
            hex(0xe0db18e1bb36d4d0));

  qos::QosConfig qos;
  qos.arrivals.load_multiplier = 4.0;
  qos.admission.deadline_s = 2.5;
  qos.breaker.enabled = true;
  EXPECT_EQ(hex(fnv1a(qos::qos_to_json(qos).dump(-1))),
            hex(0x86a8ec6ee63f6db6));
  EXPECT_EQ(hex(fnv1a(qos::qos_to_json(qos).dump(2))), hex(0x16c4023e607cdfb2));
}

TEST(IoGolden, DumpEdgeDoubles) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, -2.5e-7,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 3.0, DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
      1e15 - 1.0, 1e15 - 0.5, 1e15, 1e15 + 0.5, 1e15 + 1.0, -1e15,
      -1e15 + 0.5, 9007199254740992.0, 9007199254740993.0, 1e16, 1e17,
      1e21, 1e22, 1.8446744073709552e19, 123456789012345.67, 1e-300,
      1e300, kInf, -kInf, std::numeric_limits<double>::quiet_NaN()};
  util::JsonArray array;
  for (const double d : edges) array.emplace_back(d);
  const util::Json edge_doc(array);
  EXPECT_EQ(hex(fnv1a(edge_doc.dump(-1))), hex(0x4214684abd90288a));
  EXPECT_EQ(hex(fnv1a(edge_doc.dump(2))), hex(0xb412902c44aca1c4));

  // Random bit patterns cover every exponent; non-finite draws included.
  util::Xoshiro256 bits(0x90d);
  util::JsonArray random;
  for (int i = 0; i < 20000; ++i) {
    random.emplace_back(std::bit_cast<double>(bits()));
  }
  EXPECT_EQ(hex(fnv1a(util::Json(random).dump(-1))), hex(0xf93aa35c1fd84ac5));

  // Layout: nested containers, empty containers, escapes, key order.
  util::JsonObject layout;
  layout["z"] = util::Json(util::JsonArray{});
  layout["a"] = util::Json(util::JsonObject{});
  layout["m"] = util::Json("quote\" slash\\ tab\t nl\n ctl\x01");
  layout["b"] = util::Json(array);
  layout["n"] = util::Json(nullptr);
  layout["t"] = util::Json(true);
  const util::Json layout_doc(layout);
  EXPECT_EQ(hex(fnv1a(layout_doc.dump(-1))), hex(0x352a92a2751270ba));
  EXPECT_EQ(hex(fnv1a(layout_doc.dump(1))), hex(0x67c6600c5b6e4844));
  EXPECT_EQ(hex(fnv1a(layout_doc.dump(4))), hex(0x1025d4f81e5b9320));
}

}  // namespace
