#include "model/instance_io.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "net/graph_gen.hpp"
#include "obs/obs.hpp"
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

constexpr const char* kFormatError =
    "unknown instance format (want idde-instance-v1)";

/// Throws `error` unless the next value is the container `bracket` opens.
/// The value is read first, so malformed text still fails with its byte
/// offset ("this is not json" must name byte 0).
void expect_container(JsonReader& reader, char bracket, const char* error) {
  if (reader.peek() == bracket) return;
  (void)reader.value();
  throw util::JsonError(error);
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
  out.string("idde-instance-v1");

  const auto& env = instance.radio_env();
  out.key("radio");
  out.begin_object();
  numbers_member(out, "bandwidth_mbps", env.bandwidth);
  number_member(out, "channels_per_server",
                static_cast<double>(env.channels_per_server));
  numbers_member(out, "gain", env.gain);  // row-major N x M
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
  // The walk streams radio.bandwidth_mbps and radio.gain into `env`,
  // checking each entry as it is read. Every other member is small and is
  // read as a DOM for the checks below.
  JsonReader reader(text);
  JsonObject members;        // the top level, radio aside
  JsonObject radio_members;  // radio, the streamed arrays aside
  radio::RadioEnvironment env;
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
          env.gain.push_back(
              util::as_finite(reader.value(), 0.0, "gain entry"));
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
  if (json.string_or("format", "") != "idde-instance-v1") {
    throw util::JsonError(kFormatError);
  }

  std::vector<EdgeServer> servers;
  for (const Json& s : json.at("servers").as_array()) {
    servers.push_back(EdgeServer{
        .position = {s.at("x").as_number(), s.at("y").as_number()},
        .coverage_radius_m = s.at("radius_m").as_number(),
        .storage_mb = util::as_finite(s.at("storage_mb"), 0.0,
                                      "server storage_mb"),
    });
  }

  std::vector<User> users;
  for (const Json& u : json.at("users").as_array()) {
    users.push_back(User{
        .position = {u.at("x").as_number(), u.at("y").as_number()},
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
  const std::int64_t channels = radio_json.at("channels_per_server").as_int();
  if (channels < 1 || channels > 1024) {
    throw util::JsonError(
        util::format("channels_per_server {} out of range [1, 1024]",
                     channels));
  }
  env.channels_per_server = static_cast<std::size_t>(channels);
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
  if (env.gain.size() != servers.size() * users.size()) {
    throw util::JsonError(
        util::format("gain has {} entries, want servers x users = {}",
                     env.gain.size(), servers.size() * users.size()));
  }
  env.power.reserve(users.size());
  for (const User& u : users) env.power.push_back(u.power_watts);

  // Coverage is geometric; recompute rather than store.
  env.covering_servers.resize(users.size());
  for (std::size_t j = 0; j < users.size(); ++j) {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (geo::distance_m(servers[i].position, users[j].position) <=
          servers[i].coverage_radius_m) {
        env.covering_servers[j].push_back(i);
      }
    }
  }

  return ProblemInstance(std::move(servers), std::move(users), std::move(data),
                         std::move(requests), std::move(graph),
                         std::move(latency), std::move(env));
}

}  // namespace idde::model
