// Seeded mutation fuzzing of the IO layer (ISSUE PR 5, satellite a).
//
// A valid instance / strategy document is serialised, then thousands of
// seed-deterministic mutants (byte flips, splices, truncations, token and
// number rewrites) are fed back through the full load path. The contract
// under test: every mutant either round-trips or throws util::JsonError —
// no aborts (the IDDE_ASSERT paths were converted to structured errors),
// no out-of-bounds indexing, no float-cast UB, no leaks (the test runs
// under ASan/UBSan in the chaos-soak CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/strategy_io.hpp"
#include "fault/degradation.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "qos/config.hpp"
#include "serve/controller.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace idde;

model::InstanceParams tiny_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 5;
  p.user_count = 12;
  p.data_count = 3;
  return p;
}

/// One seed-deterministic mutation of `text`. Mixes byte-level damage with
/// grammar-aware rewrites (numbers, brackets, quotes) so both the parser
/// and the semantic validation layer get exercised.
std::string mutate(const std::string& text, util::Rng& rng) {
  std::string out = text;
  const std::size_t edits = 1 + rng.index(4);
  for (std::size_t e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng.index(out.size());
    switch (rng.index(8)) {
      case 0:  // flip one byte to a random printable char
        out[pos] = static_cast<char>(' ' + rng.index(95));
        break;
      case 1:  // delete a short span
        out.erase(pos, 1 + rng.index(8));
        break;
      case 2:  // duplicate a short span
        out.insert(pos, out.substr(pos, 1 + rng.index(8)));
        break;
      case 3:  // truncate
        out.resize(pos);
        break;
      case 4:  // insert a structural char
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   "[]{},:\"-"[rng.index(8)]);
        break;
      case 5: {  // splice in a hostile number
        static const char* kNumbers[] = {"-1",      "1e999", "999999999999",
                                         "-0.0",    "1e309", "NaN",
                                         "3.5e300", "0"};
        out.insert(pos, kNumbers[rng.index(8)]);
        break;
      }
      case 6: {  // nesting bomb fragment
        out.insert(pos, std::string(1 + rng.index(200), '['));
        break;
      }
      default:  // digit tweak: turn a digit into another digit
        out[pos] = static_cast<char>('0' + rng.index(10));
        break;
    }
  }
  return out;
}

/// Runs one mutant through `load`; anything other than success or a
/// JsonError is a contract violation.
template <typename LoadFn>
void expect_structured(const std::string& mutant, LoadFn&& load) {
  try {
    load(mutant);
  } catch (const util::JsonError&) {
    // expected: structured, typed, recoverable
  }
  // Any other exception type escapes and fails the test; an abort or
  // sanitizer report kills the process.
}

TEST(IoFuzz, InstanceRoundTripSurvivesIntact) {
  const auto instance = model::make_instance(tiny_params(), 7);
  const std::string text = model::instance_to_string(instance, 2);
  const auto back = model::instance_from_string(text);
  EXPECT_EQ(model::instance_to_string(back, 2), text);
}

TEST(IoFuzz, MutatedInstanceNeverCrashes) {
  const auto instance = model::make_instance(tiny_params(), 7);
  const std::string text = model::instance_to_string(instance, -1);
  util::Rng rng(0xf022ULL);
  for (int i = 0; i < 3000; ++i) {
    const std::string mutant = mutate(text, rng);
    bool parses = true;
    try {
      (void)util::Json::parse(mutant);
    } catch (const util::JsonError&) {
      parses = false;
    }
    bool loaded = false;
    expect_structured(mutant, [&loaded](const std::string& s) {
      (void)model::instance_from_string(s);
      loaded = true;
    });
    // The streaming loader enforces the grammar Json::parse does.
    EXPECT_FALSE(loaded && !parses) << "mutant " << i;
  }
}

TEST(IoFuzz, MutatedStrategyNeverCrashes) {
  const auto instance = model::make_instance(tiny_params(), 8);
  util::Rng solve_rng(8);
  const auto strategy = core::IddeG().solve(instance, solve_rng);
  const std::string text = core::strategy_to_string(strategy, -1);
  // Intact round trip first.
  const auto back = core::strategy_from_string(instance, text);
  EXPECT_EQ(core::strategy_to_string(back, -1), text);

  util::Rng rng(0xf023ULL);
  for (int i = 0; i < 3000; ++i) {
    expect_structured(mutate(text, rng), [&](const std::string& s) {
      (void)core::strategy_from_string(instance, s);
    });
  }
}

TEST(IoFuzz, CrossDocumentConfusionIsStructured) {
  // Feeding a strategy document to the instance loader (and vice versa)
  // must fail on the format tag, not on a downstream assert.
  const auto instance = model::make_instance(tiny_params(), 9);
  util::Rng solve_rng(9);
  const auto strategy = core::IddeG().solve(instance, solve_rng);
  const std::string instance_text = model::instance_to_string(instance, -1);
  const std::string strategy_text = core::strategy_to_string(strategy, -1);
  EXPECT_THROW((void)model::instance_from_string(strategy_text),
               util::JsonError);
  EXPECT_THROW((void)core::strategy_from_string(instance, instance_text),
               util::JsonError);
  EXPECT_THROW((void)model::instance_from_string("{}"), util::JsonError);
  EXPECT_THROW((void)model::instance_from_string(""), util::JsonError);
  EXPECT_THROW((void)core::strategy_from_string(instance, "[1,2,3]"),
               util::JsonError);
}

TEST(IoFuzz, HostileDocumentsAreRejectedStructurally) {
  const auto instance = model::make_instance(tiny_params(), 10);
  const std::vector<std::string> hostile = {
      // out-of-range and negative indices
      R"({"format":"idde-strategy-v1","allocation":[],"placements":[{"server":-1,"item":0}]})",
      R"({"format":"idde-strategy-v1","allocation":[],"placements":[{"server":1e300,"item":0}]})",
      // wrong shapes
      R"({"format":"idde-instance-v1","servers":[],"users":[],"data":[],"requests":[[0]],"edges":[],"cloud_speed_mbps":1,"radio":{"channels_per_server":1,"noise_watts":0,"bandwidth_mbps":[],"gain":[]}})",
      R"({"format":"idde-instance-v2","servers":[],"users":[],"data":[],"requests":[[0]],"edges":[],"cloud_speed_mbps":1,"radio":{"channels_per_server":1,"noise_watts":0,"bandwidth_mbps":[],"gain":[],"neighbours":[]}})",
      // duplicate keys
      R"({"format":"idde-instance-v1","format":"idde-instance-v1"})",
      // nesting bomb
      std::string(50000, '[') + std::string(50000, ']'),
  };
  for (const auto& text : hostile) {
    EXPECT_THROW((void)model::instance_from_string(text), util::JsonError);
    EXPECT_THROW((void)core::strategy_from_string(instance, text),
                 util::JsonError);
  }
  // A fractional id is not truncated to its integer part: server s + 0.5
  // or channel c + 0.9 on an otherwise valid allocated slot.
  util::Rng rng(10);
  const util::Json valid = util::Json::parse(
      core::strategy_to_string(core::IddeG().solve(instance, rng)));
  const auto& slots = valid.at("allocation").as_array();
  const auto slot =
      std::find_if(slots.begin(), slots.end(),
                   [](const util::Json& s) { return !s.is_null(); });
  ASSERT_NE(slot, slots.end());
  const auto j = static_cast<std::size_t>(slot - slots.begin());
  for (const auto& [key, fraction] :
       {std::pair{"server", 0.5}, std::pair{"channel", 0.9}}) {
    util::Json doc = valid;
    util::Json& id =
        doc.as_object().at("allocation").as_array()[j].as_object().at(key);
    id = util::Json(id.as_number() + fraction);
    EXPECT_THROW((void)core::strategy_from_string(instance, doc.dump()),
                 util::JsonError)
        << key;
  }
}

// Coverage is recomputed from positions and radii on load, so those must
// be finite, radii non-negative and coordinates within the reader's
// bound; anything else is rejected before the coverage grid sees it.
TEST(IoFuzz, OutOfRangeGeometryIsRejectedStructurally) {
  const auto instance = model::make_instance(tiny_params(), 10);
  const util::Json valid =
      util::Json::parse(model::instance_to_string(instance));
  const auto with = [&](const char* list, const char* key, double value) {
    util::Json doc = valid;
    doc.as_object().at(list).as_array()[0].as_object().at(key) =
        util::Json(value);
    return doc.dump();
  };
  EXPECT_NO_THROW((void)model::instance_from_string(valid.dump()));
  for (const std::string& text :
       {with("servers", "x", 1e300), with("servers", "y", -1e13),
        with("users", "x", -1e300), with("users", "y", 2e12),
        with("servers", "radius_m", -1.0)}) {
    EXPECT_THROW((void)model::instance_from_string(text), util::JsonError);
  }
}

core::Strategy tiny_coded_strategy(const model::ProblemInstance& instance,
                                   std::uint64_t seed) {
  util::Rng solve_rng(seed);
  const auto strategy = core::IddeG().solve(instance, solve_rng);
  core::GreedyDeliveryPlanner planner(instance);
  auto plan = planner.plan(strategy.allocation, {4, 2});
  core::Strategy coded(strategy.allocation, std::move(plan.delivery));
  coded.approach_name = "fuzz";
  coded.placements = plan.placements;
  return coded;
}

// Coded checkpoints carry the (n, k) shape plus fragment placements whose
// feasibility depends on both — a mutant that silently loads with a wrong
// k would corrupt every latency downstream. Same contract as the other
// loaders: round-trip or util::JsonError.
/// Hand-broken idde-instance-v2 documents: every defect of the sparse gain
/// store — rows that do not match reach(t), bad neighbour lists, non-finite
/// gains, a closure violation — must surface as a JsonError.
TEST(IoFuzz, HostileV2GainStoreIsRejectedStructurally) {
  // A tiny instance with a user covered by two servers, so the closure
  // can be broken.
  const auto doubly_covered = [](const model::ProblemInstance& inst) {
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      if (inst.covering_servers(j).size() >= 2) return j;
    }
    return inst.user_count();
  };
  std::uint64_t seed = 10;
  auto instance = model::make_instance(tiny_params(), seed);
  while (doubly_covered(instance) == instance.user_count()) {
    ASSERT_LT(seed, 60u) << "no tiny instance with a doubly covered user";
    instance = model::make_instance(tiny_params(), ++seed);
  }
  const std::size_t shared = doubly_covered(instance);
  const util::Json valid =
      util::Json::parse(model::instance_to_string(instance));
  const auto radio = [](util::Json& doc) -> util::JsonObject& {
    return doc.as_object().at("radio").as_object();
  };
  const auto rows = [&](util::Json& doc) -> util::JsonArray& {
    return radio(doc).at("gain").as_array();
  };
  const auto lists = [&](util::Json& doc) -> util::JsonArray& {
    return radio(doc).at("neighbours").as_array();
  };
  std::vector<std::pair<std::string, std::string>> hostile;
  {
    util::Json doc = valid;
    rows(doc)[shared].as_array().pop_back();
    hostile.emplace_back("short row", doc.dump());
  }
  {
    util::Json doc = valid;
    rows(doc)[0].as_array().emplace_back(1e-9);
    hostile.emplace_back("long row", doc.dump());
  }
  {
    util::Json doc = valid;
    rows(doc).pop_back();
    hostile.emplace_back("missing row", doc.dump());
  }
  {
    util::Json doc = valid;
    lists(doc)[0].as_array().emplace_back(instance.server_count());
    hostile.emplace_back("out-of-range neighbour", doc.dump());
  }
  const std::size_t o = instance.covering_servers(shared)[0];
  const std::size_t i = instance.covering_servers(shared)[1];
  {
    util::Json doc = valid;
    util::JsonArray& nbr = lists(doc)[o].as_array();
    std::reverse(nbr.begin(), nbr.end());
    hostile.emplace_back("unsorted neighbours", doc.dump());
  }
  {
    util::Json doc = valid;
    util::JsonArray& nbr = lists(doc)[o].as_array();
    nbr.push_back(nbr.back());
    hostile.emplace_back("duplicate neighbour", doc.dump());
  }
  {
    util::Json doc = valid;
    rows(doc)[shared].as_array()[0] = util::Json(12345.5);
    std::string text = doc.dump();
    text.replace(text.find("12345.5"), 7, "1e999");
    hostile.emplace_back("non-finite gain", text);
  }
  {
    // Drop i from nbr(o) and rewrite every row to the shrunken reach, so
    // the rows match and only the closure is broken: o and i both cover
    // user `shared` but no longer neighbour each other.
    util::Json doc = valid;
    const radio::RadioEnvironment& env = instance.radio_env();
    std::vector<std::vector<std::size_t>> nbr = env.neighbours;
    nbr[o].erase(std::find(nbr[o].begin(), nbr[o].end(), i));
    util::JsonArray& nbr_json = lists(doc)[o].as_array();
    nbr_json.clear();
    for (const std::size_t s : nbr[o]) nbr_json.emplace_back(s);
    for (std::size_t t = 0; t < instance.user_count(); ++t) {
      std::vector<std::size_t> reach;
      radio::append_reach(nbr, instance.covering_servers(t), reach);
      util::JsonArray row;
      for (const std::size_t s : reach) row.emplace_back(env.gain_at(s, t));
      rows(doc)[t] = util::Json(std::move(row));
    }
    hostile.emplace_back("closure violation", doc.dump());
  }
  for (const auto& [name, text] : hostile) {
    try {
      (void)model::instance_from_string(text);
      ADD_FAILURE() << name << " loaded";
    } catch (const util::JsonError& error) {
      if (name == "closure violation") {
        EXPECT_NE(std::string(error.what()).find("neighbour each other"),
                  std::string::npos)
            << error.what();
      }
    }
  }
  // The untouched document still loads.
  EXPECT_NO_THROW((void)model::instance_from_string(valid.dump()));
}

/// A slot on a server outside its user's coverage breaks Eq. 1. The
/// interference model asserts Eq. 1, so both strategy loaders must reject
/// such a document as a JsonError before any evaluation reads it.
TEST(IoFuzz, OutOfCoverageAllocationIsRejected) {
  const auto instance = model::make_instance(tiny_params(), 13);
  std::size_t user = instance.user_count();
  std::size_t server = 0;
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    const auto& covering = instance.covering_servers(j);
    if (covering.size() < instance.server_count()) {
      while (std::binary_search(covering.begin(), covering.end(), server)) {
        ++server;
      }
      user = j;
      break;
    }
  }
  ASSERT_LT(user, instance.user_count()) << "every server covers every user";
  const auto move_out = [&](const std::string& text) {
    util::Json doc = util::Json::parse(text);
    doc.as_object().at("allocation").as_array()[user] =
        util::Json(util::JsonObject{{"server", util::Json(server)},
                                    {"channel", util::Json(std::size_t{0})}});
    return doc.dump();
  };
  const auto expect_rejected = [](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "an out-of-coverage allocation loaded";
    } catch (const util::JsonError& error) {
      EXPECT_NE(std::string(error.what()).find("does not cover"),
                std::string::npos)
          << error.what();
    }
  };
  util::Rng solve_rng(13);
  const std::string plain = move_out(
      core::strategy_to_string(core::IddeG().solve(instance, solve_rng)));
  expect_rejected([&] { (void)core::strategy_from_string(instance, plain); });
  const std::string coded = move_out(
      core::strategy_to_string(tiny_coded_strategy(instance, 13)));
  expect_rejected([&] { (void)core::strategy_from_string(instance, coded); });
}

TEST(IoFuzz, MutatedCodedStrategyNeverCrashes) {
  const auto instance = model::make_instance(tiny_params(), 11);
  const auto coded = tiny_coded_strategy(instance, 11);
  const std::string text = core::strategy_to_string(coded, -1);
  // Intact round trip first.
  const auto back = core::strategy_from_string(instance, text);
  EXPECT_EQ(core::strategy_to_string(back, -1), text);

  util::Rng rng(0xf025ULL);
  for (int i = 0; i < 3000; ++i) {
    expect_structured(mutate(text, rng), [&](const std::string& s) {
      (void)core::strategy_from_string(instance, s);
    });
  }
}

TEST(IoFuzz, TruncatedCodedStrategyIsRejectedAtEveryLength) {
  const auto instance = model::make_instance(tiny_params(), 12);
  const auto coded = tiny_coded_strategy(instance, 12);
  const std::string text = core::strategy_to_string(coded, -1);
  // Every strict prefix breaks the JSON grammar or loses a required
  // field; all must throw the structured error.
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(
        (void)core::strategy_from_string(instance, text.substr(0, len)),
        util::JsonError)
        << "prefix length " << len;
  }
}

fault::DegradationPlan tiny_degradation_plan(
    const model::ProblemInstance& instance, std::uint64_t seed) {
  fault::DegradationProfile profile;
  profile.gray_fraction = 0.8;
  profile.loss_prob_max = 0.2;
  auto plan = fault::DegradationPlan::generate(instance, profile, seed);
  // The fuzz corpus must exercise the segment validation paths, so the
  // draw may not come up empty.
  IDDE_EXPECTS(!plan.inert());
  return plan;
}

TEST(IoFuzz, MutatedDegradationPlanNeverCrashes) {
  const auto instance = model::make_instance(tiny_params(), 13);
  const auto plan = tiny_degradation_plan(instance, 13);
  const std::string text = fault::degradation_to_string(plan, -1);
  // Intact round trip first.
  const auto back = fault::degradation_from_string(instance, text);
  EXPECT_EQ(back, plan);
  EXPECT_EQ(fault::degradation_to_string(back, -1), text);

  util::Rng rng(0xf026ULL);
  for (int i = 0; i < 3000; ++i) {
    expect_structured(mutate(text, rng), [&](const std::string& s) {
      (void)fault::degradation_from_string(instance, s);
    });
  }
}

TEST(IoFuzz, TruncatedDegradationPlanIsRejectedAtEveryLength) {
  const auto instance = model::make_instance(tiny_params(), 14);
  const auto plan = tiny_degradation_plan(instance, 14);
  const std::string text = fault::degradation_to_string(plan, -1);
  // Every strict prefix breaks the JSON grammar or loses a required
  // field; all must throw the structured error.
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(
        (void)fault::degradation_from_string(instance, text.substr(0, len)),
        util::JsonError)
        << "prefix length " << len;
  }
}

serve::ServeConfig tiny_serve_config() {
  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = 5;
  config.base.user_count = 14;
  config.base.data_count = 3;
  config.churn.arrival_rate_hz = 1.0 / 25.0;
  config.churn.mean_session_s = 40.0;
  config.churn.initial_online_fraction = 0.9;
  config.faults.horizon_s = 100.0;
  config.faults.server_mtbf_s = 60.0;
  config.faults.server_mttr_s = 6.0;
  config.sigma_refresh_period_ticks = 5;
  return config;
}

// The serve checkpoint is the highest-stakes document in the repo: a
// restored controller resumes a live trajectory, so a mutant that slips
// past validation corrupts serving state instead of a report. Contract:
// every mutant either restores (benign edit — e.g. whitespace) or throws
// util::JsonError; never an abort, OOB index, or sanitizer report. Each
// mutant gets a fresh controller because a failed restore leaves the
// victim documented-unusable.
TEST(IoFuzz, MutatedServeCheckpointNeverCrashes) {
  serve::ServeController source(tiny_serve_config(), 5);
  for (int step = 0; step < 9; ++step) (void)source.tick();
  const std::string text = source.checkpoint();

  // Intact round trip first.
  {
    serve::ServeController back(tiny_serve_config(), 5);
    back.restore(text);
    EXPECT_EQ(back.checkpoint(), text);
  }

  util::Rng rng(0xf024ULL);
  for (int i = 0; i < 600; ++i) {
    serve::ServeController victim(tiny_serve_config(), 5);
    expect_structured(mutate(text, rng), [&](const std::string& s) {
      victim.restore(s);
    });
  }
}

TEST(IoFuzz, TruncatedServeCheckpointIsRejectedAtEveryLength) {
  serve::ServeController source(tiny_serve_config(), 6);
  for (int step = 0; step < 7; ++step) (void)source.tick();
  const std::string text = source.checkpoint();

  // Every strict prefix breaks either the JSON grammar or the checksum
  // envelope; all must throw the structured error.
  for (std::size_t len = 0; len < text.size();
       len += 1 + len / 16) {  // dense near 0, sparse later
    serve::ServeController victim(tiny_serve_config(), 6);
    EXPECT_THROW(victim.restore(text.substr(0, len)), util::JsonError)
        << "prefix length " << len;
  }
}

/// One seed-deterministic field-level mutation of a config document: one
/// to three members, each dropped, or its value (an array's: one element)
/// swapped to another JSON type, sign-flipped, made fractional or made
/// huge.
util::Json mutate_fields(util::Json doc, util::Rng& rng) {
  for (std::size_t edits = 1 + rng.index(3); edits > 0; --edits) {
    util::JsonObject* object = &doc.as_object();
    if (object->empty()) break;
    auto member = std::next(object->begin(), rng.index(object->size()));
    while (member->second.is_object() &&
           !member->second.as_object().empty() && rng.bernoulli(0.8)) {
      object = &member->second.as_object();
      member = std::next(object->begin(), rng.index(object->size()));
    }
    util::Json* leaf = &member->second;
    if (leaf->is_array() && !leaf->as_array().empty()) {
      leaf = &leaf->as_array()[rng.index(leaf->as_array().size())];
    }
    const double x = leaf->is_number() ? leaf->as_number() : 1.0;
    switch (rng.index(7)) {
      case 0: object->erase(member); break;
      case 1: *leaf = util::Json(std::to_string(x)); break;
      case 2: *leaf = util::Json(nullptr); break;
      case 3:  // a bool becomes a number, anything else a bool
        *leaf = leaf->is_bool() ? util::Json(1.0) : util::Json(x == 0.0);
        break;
      case 4: *leaf = util::Json(-x); break;
      case 5: *leaf = util::Json(x + 0.37); break;
      default: *leaf = util::Json(x * 1e12); break;
    }
  }
  return doc;
}

// Scenario and QoS documents mutated field by field: every mutant passes
// the reader and the checker (model::InstanceBuilder, qos::check_qos) or
// throws a typed error. Nothing is built from a mutant.
TEST(IoFuzz, MutatedConfigDocumentsNeverCrash) {
  qos::QosConfig qos = sim::chaos_qos_config(
      4.0, qos::SheddingPolicy::kDeadlineAware, 0.1);
  qos.arrivals.process = qos::ArrivalProcess::kFlashCrowd;
  const util::Json params_doc =
      sim::params_to_json(sim::paper_default_params());
  const util::Json qos_doc = qos::qos_to_json(qos);

  util::Rng rng(0xf030ULL);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const bool params = i % 2 == 0;
    const std::string text =
        mutate_fields(params ? params_doc : qos_doc, rng).dump();
    try {
      if (params) {
        const model::InstanceBuilder builder(sim::params_from_string(text));
      } else {
        qos::check_qos(qos::qos_from_json(util::Json::parse(text)));
      }
      ++accepted;
    } catch (const util::JsonError&) {
      ++rejected;
    } catch (const util::ValidationError&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
