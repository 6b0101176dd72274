#include "model/instance_io.hpp"

#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "net/graph_gen.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace idde::model {

using util::Json;
using util::JsonObject;
using util::JsonReader;
using util::JsonWriter;

namespace {

void number_member(JsonWriter& out, std::string_view key, double value) {
  out.key(key);
  out.number(value);
}

void numbers_member(JsonWriter& out, std::string_view key,
                    const std::vector<double>& values) {
  out.key(key);
  out.begin_array();
  for (const double v : values) out.number(v);
  out.end_array();
}

constexpr const char* kFormatV1 = "idde-instance-v1";
constexpr const char* kFormatV2 = "idde-instance-v2";
constexpr const char* kFormatError =
    "unknown instance format (want idde-instance-v2 or idde-instance-v1)";

/// Positions are metres in a local frame; anything farther out than this
/// is a hostile document, and bounding it keeps coverage-grid extents
/// finite.
constexpr double kMaxCoordinateM = 1e12;

/// A position coordinate: finite and within kMaxCoordinateM of the origin.
double coordinate(const Json& value, std::string_view what) {
  const double metres = util::as_finite(value, -kMaxCoordinateM, what);
  if (metres > kMaxCoordinateM) {
    throw util::JsonError(
        util::format("{} {} is beyond {} m", what, metres, kMaxCoordinateM));
  }
  return metres;
}

/// Throws `error` unless the next value is the container `bracket` opens.
/// The value is read first, so malformed text still fails with its byte
/// offset ("this is not json" must name byte 0).
void expect_container(JsonReader& reader, char bracket, const char* error) {
  if (reader.peek() == bracket) return;
  (void)reader.value();
  throw util::JsonError(error);
}

/// nbr(o) per server from a v2 document, each entry a server index. Order,
/// duplicates and the closure invariant are left to
/// RadioEnvironment::check(), which the ProblemInstance constructor runs.
std::vector<std::vector<std::size_t>> read_neighbours(const Json& radio,
                                                      std::size_t servers) {
  const auto& lists = radio.at("neighbours").as_array();
  if (lists.size() != servers) {
    throw util::JsonError(util::format(
        "neighbours has {} lists, want one per server = {}", lists.size(),
        servers));
  }
  std::vector<std::vector<std::size_t>> neighbours(servers);
  for (std::size_t o = 0; o < servers; ++o) {
    for (const Json& entry : lists[o].as_array()) {
      neighbours[o].push_back(util::as_index(entry, servers, "neighbour"));
    }
  }
  return neighbours;
}

}  // namespace

std::string instance_to_string(const ProblemInstance& instance, int indent) {
  IDDE_OBS_SPAN("instance.write");
  std::string text;
  JsonWriter out(text, indent);
  // Keys in sorted order, the layout of a JsonObject dump.
  out.begin_object();
  number_member(out, "cloud_speed_mbps", instance.latency().cloud_speed_mbps());

  out.key("data");
  out.begin_array();
  for (const DataItem& d : instance.data_items()) {
    out.begin_object();
    number_member(out, "size_mb", d.size_mb);
    out.end_object();
  }
  out.end_array();

  // Undirected edge list reconstructed from the adjacency (from < to keeps
  // each edge once; parallel edges are preserved pairwise).
  out.key("edges");
  out.begin_array();
  for (std::size_t i = 0; i < instance.server_count(); ++i) {
    for (const net::Neighbor& nb : instance.graph().neighbors(i)) {
      if (i < nb.node) {
        out.begin_object();
        number_member(out, "from", static_cast<double>(i));
        number_member(out, "seconds_per_mb", nb.weight);
        number_member(out, "to", static_cast<double>(nb.node));
        out.end_object();
      }
    }
  }
  out.end_array();

  out.key("format");
  out.string(kFormatV2);

  const auto& env = instance.radio_env();
  out.key("radio");
  out.begin_object();
  numbers_member(out, "bandwidth_mbps", env.bandwidth);
  number_member(out, "channels_per_server",
                static_cast<double>(env.channels_per_server));
  out.key("gain");  // per user t, g_{i,t} for i in reach(t), in order
  out.begin_array();
  for (std::size_t t = 0; t < env.user_count; ++t) {
    out.begin_array();
    for (const double g : env.gains(t)) out.number(g);
    out.end_array();
  }
  out.end_array();
  out.key("neighbours");  // nbr(o) per server
  out.begin_array();
  for (const auto& nbr : env.neighbours) {
    out.begin_array();
    for (const std::size_t i : nbr) out.number(static_cast<double>(i));
    out.end_array();
  }
  out.end_array();
  number_member(out, "noise_watts", env.noise_watts);
  out.end_object();

  out.key("requests");  // per user, the list of requested item ids
  out.begin_array();
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    out.begin_array();
    for (const std::size_t k : instance.requests().items_of(j)) {
      out.number(static_cast<double>(k));
    }
    out.end_array();
  }
  out.end_array();

  out.key("servers");
  out.begin_array();
  for (const EdgeServer& s : instance.servers()) {
    out.begin_object();
    number_member(out, "radius_m", s.coverage_radius_m);
    number_member(out, "storage_mb", s.storage_mb);
    number_member(out, "x", s.position.x);
    number_member(out, "y", s.position.y);
    out.end_object();
  }
  out.end_array();

  out.key("users");
  out.begin_array();
  for (const User& u : instance.users()) {
    out.begin_object();
    number_member(out, "max_rate_mbps", u.max_rate_mbps);
    number_member(out, "power_w", u.power_watts);
    number_member(out, "x", u.position.x);
    number_member(out, "y", u.position.y);
    out.end_object();
  }
  out.end_array();
  out.end_object();

  IDDE_OBS_COUNT("instance.bytes_written_total", text.size());
  return text;
}

ProblemInstance instance_from_string(const std::string& text) {
  IDDE_OBS_SPAN("instance.read");
  IDDE_OBS_COUNT("instance.bytes_read_total", text.size());
  // The walk streams radio.bandwidth_mbps and radio.gain, checking each
  // entry as it is read. Every other member is small and is read as a DOM
  // for the checks below. A v2 gain array holds one row per user; a v1
  // one is the flat row-major N x M matrix.
  JsonReader reader(text);
  JsonObject members;        // the top level, radio aside
  JsonObject radio_members;  // radio, the streamed arrays aside
  radio::RadioEnvironment env;
  std::vector<double> gains;          // every gain value, in file order
  std::vector<std::size_t> row_ends;  // v2: end of each user's row
  std::size_t flat_gains = 0;         // v1: values outside any row
  bool has_radio = false;
  bool has_bandwidth = false;
  bool has_gain = false;
  std::string key;
  expect_container(reader, '{', kFormatError);
  reader.begin_object();
  while (reader.next_key(key)) {
    if (key != "radio") {
      members.emplace(std::move(key), reader.value());
      continue;
    }
    has_radio = true;
    expect_container(reader, '{', "radio is not an object");
    reader.begin_object();
    while (reader.next_key(key)) {
      if (key == "bandwidth_mbps") {
        has_bandwidth = true;
        expect_container(reader, '[', "bandwidth_mbps is not an array");
        reader.begin_array();
        while (reader.next_element()) {
          env.bandwidth.push_back(
              util::as_positive(reader.value(), "bandwidth_mbps entry"));
        }
      } else if (key == "gain") {
        has_gain = true;
        expect_container(reader, '[', "gain is not an array");
        reader.begin_array();
        while (reader.next_element()) {
          if (reader.peek() != '[') {
            gains.push_back(util::as_finite(reader.value(), 0.0, "gain entry"));
            ++flat_gains;
            continue;
          }
          reader.begin_array();
          while (reader.next_element()) {
            gains.push_back(util::as_finite(reader.value(), 0.0, "gain entry"));
          }
          row_ends.push_back(gains.size());
        }
      } else {
        radio_members.emplace(std::move(key), reader.value());
      }
    }
  }
  reader.finish();
  const Json json(std::move(members));

  // Every shape and range constraint the downstream constructors assert
  // (RequestMatrix, net::Graph, ProblemInstance, the interference model)
  // is checked here first, so a hostile document fails with a JsonError
  // instead of aborting the process or indexing out of bounds.
  const std::string format = json.string_or("format", "");
  if (format != kFormatV1 && format != kFormatV2) {
    throw util::JsonError(kFormatError);
  }
  const bool v1 = format == kFormatV1;

  std::vector<EdgeServer> servers;
  for (const Json& s : json.at("servers").as_array()) {
    servers.push_back(EdgeServer{
        .position = {coordinate(s.at("x"), "server x"),
                     coordinate(s.at("y"), "server y")},
        .coverage_radius_m =
            util::as_finite(s.at("radius_m"), 0.0, "server radius_m"),
        .storage_mb = util::as_finite(s.at("storage_mb"), 0.0,
                                      "server storage_mb"),
    });
  }

  std::vector<User> users;
  for (const Json& u : json.at("users").as_array()) {
    users.push_back(User{
        .position = {coordinate(u.at("x"), "user x"),
                     coordinate(u.at("y"), "user y")},
        .power_watts = util::as_positive(u.at("power_w"), "user power_w"),
        .max_rate_mbps = u.at("max_rate_mbps").as_number(),
    });
  }

  std::vector<DataItem> data;
  for (const Json& d : json.at("data").as_array()) {
    data.push_back(DataItem{
        .size_mb = util::as_positive(d.at("size_mb"), "data size_mb")});
  }

  RequestMatrix requests(users.size(), data.size());
  const auto& request_rows = json.at("requests").as_array();
  if (request_rows.size() != users.size()) {
    throw util::JsonError(util::format(
        "request rows {} != user count {}", request_rows.size(), users.size()));
  }
  for (std::size_t j = 0; j < request_rows.size(); ++j) {
    for (const Json& item : request_rows[j].as_array()) {
      requests.add_request(j,
                           util::as_index(item, data.size(), "requested item"));
    }
  }

  std::vector<net::Edge> edges;
  for (const Json& e : json.at("edges").as_array()) {
    net::Edge edge{
        util::as_index(e.at("from"), servers.size(), "edge endpoint"),
        util::as_index(e.at("to"), servers.size(), "edge endpoint"),
        util::as_finite(e.at("seconds_per_mb"), 0.0, "edge seconds_per_mb"),
    };
    if (edge.from == edge.to) {
      throw util::JsonError(
          util::format("self-loop edge at server {}", edge.from));
    }
    edges.push_back(edge);
  }
  net::Graph graph(servers.size(), edges);
  net::DeliveryLatencyModel latency(
      net::CostMatrix(graph),
      util::as_positive(json.at("cloud_speed_mbps"), "cloud_speed_mbps"));

  if (!has_radio) throw util::JsonError("missing key 'radio'");
  const Json radio_json(std::move(radio_members));
  env.server_count = servers.size();
  env.user_count = users.size();
  // 0 channels fails RadioEnvironment::check() in the constructor below.
  env.channels_per_server = util::as_index(
      radio_json.at("channels_per_server"), 1025, "channels_per_server");
  env.noise_watts =
      util::as_finite(radio_json.at("noise_watts"), 0.0, "noise_watts");
  if (!has_bandwidth) {
    throw util::JsonError("missing key 'bandwidth_mbps'");
  }
  if (env.bandwidth.size() != servers.size() * env.channels_per_server) {
    throw util::JsonError(util::format(
        "bandwidth_mbps has {} entries, want servers x channels = {}",
        env.bandwidth.size(), servers.size() * env.channels_per_server));
  }
  if (!has_gain) throw util::JsonError("missing key 'gain'");
  env.power.reserve(users.size());
  for (const User& u : users) env.power.push_back(u.power_watts);

  // Coverage is geometric; recompute rather than store.
  coverage_sets(servers, users, env.covering_servers);

  if (v1) {
    if (!row_ends.empty() || flat_gains != servers.size() * users.size()) {
      throw util::JsonError(util::format(
          "{} gain has {} entries, want servers x users = {}", kFormatV1,
          gains.size(), servers.size() * users.size()));
    }
    // Sparsify to the gains the model can read.
    env.neighbours = coverage_neighbours(servers);
    env.index_reach();
    for (std::size_t t = 0; t < users.size(); ++t) {
      const std::span<const std::size_t> reach = env.reach(t);
      const std::span<double> row = env.gains(t);
      for (std::size_t e = 0; e < reach.size(); ++e) {
        row[e] = gains[reach[e] * users.size() + t];
      }
    }
  } else {
    env.neighbours = read_neighbours(radio_json, servers.size());
    env.index_reach();
    if (flat_gains != 0) {
      throw util::JsonError(util::format("{} gain must hold one array per user",
                                         kFormatV2));
    }
    if (row_ends.size() != users.size()) {
      throw util::JsonError(
          util::format("gain has {} rows, want one per user = {}",
                       row_ends.size(), users.size()));
    }
    for (std::size_t t = 0; t < users.size(); ++t) {
      if (row_ends[t] != env.reach_offset[t + 1]) {
        throw util::JsonError(util::format(
            "gain row {} has {} entries, want |reach| = {}", t,
            row_ends[t] - (t == 0 ? 0 : row_ends[t - 1]),
            env.reach(t).size()));
      }
    }
    env.gain = std::move(gains);
  }
  IDDE_OBS_COUNT("instance.gain_entries_total", env.gain.size());

  // The constructor's checks (the neighbour lists and the closure
  // invariant among them) surface as a JsonError: a hostile neighbour list
  // must not reach the field.
  try {
    return ProblemInstance(std::move(servers), std::move(users),
                           std::move(data), std::move(requests),
                           std::move(graph), std::move(latency),
                           std::move(env));
  } catch (const util::ValidationError& error) {
    throw util::JsonError(error.what());
  }
}

}  // namespace idde::model
