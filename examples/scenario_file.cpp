// Declarative scenarios: read an InstanceParams JSON file (or write a
// template), build the instance, and compare IDDE-G against the strongest
// baseline. Shows the sim::params_{to,from}_json API that external tooling
// uses to drive the simulator.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "baselines/cdp.hpp"
#include "model/instance_builder.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace idde;

  std::string file;
  bool emit_template = false;
  std::size_t seed = 1;
  util::CliParser cli(
      "scenario_file: build an instance from a JSON scenario and solve it");
  cli.add_string("file", &file, "scenario JSON path (empty = defaults)");
  cli.add_flag("emit-template", &emit_template,
               "print the default scenario JSON and exit");
  cli.add_size("seed", &seed, "instance seed");
  if (!cli.parse(argc, argv)) return 0;

  if (emit_template) {
    std::puts(sim::params_to_string(sim::paper_default_params()).c_str());
    return 0;
  }

  model::InstanceParams params = sim::paper_default_params();
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      params = sim::params_from_string(buffer.str());
      (void)model::InstanceBuilder(params);  // the cross-field checks
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bad scenario file: %s\n", error.what());
      return 1;
    }
    std::printf("loaded scenario from %s\n", file.c_str());
  } else {
    std::puts("no --file given; using the paper's Section 4.2 defaults");
  }

  const model::ProblemInstance instance =
      model::make_instance(params, static_cast<std::uint64_t>(seed));
  std::printf("instance: N=%zu M=%zu K=%zu density=%.1f\n\n",
              instance.server_count(), instance.user_count(),
              instance.data_count(), params.density);

  util::Rng rng(static_cast<std::uint64_t>(seed));
  const core::Strategy ours = core::IddeG().solve(instance, rng);
  const core::Strategy theirs = baselines::Cdp().solve(instance, rng);
  const auto mo = core::evaluate(instance, ours);
  const auto mt = core::evaluate(instance, theirs);
  std::printf("IDDE-G: R_avg %.2f MB/s, L_avg %.2f ms\n", mo.avg_rate_mbps,
              mo.avg_latency_ms);
  std::printf("CDP   : R_avg %.2f MB/s, L_avg %.2f ms\n", mt.avg_rate_mbps,
              mt.avg_latency_ms);
  return 0;
}
