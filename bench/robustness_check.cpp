/// \file robustness_check.cpp
/// \brief Modeling-assumption robustness: the qualitative results must not
///        hinge on our calibration constants. Re-runs the Fig. 6 scenario
///        orderings (the paper's central crossover) under ±30 % perturbations
///        of the most uncertain model parameters: TIM1 conductance (via
///        thickness), evaporator channel pitch, loop friction, and condenser
///        size.

#include <iostream>
#include <string>

#include "tpcool/core/server.hpp"
#include "tpcool/util/table.hpp"


namespace {

using namespace tpcool;

struct Perturbation {
  std::string name;
  core::ServerConfig config;
};

/// Die θmax of one Fig. 6 scenario under a given server configuration.
double scenario_theta(core::ServerModel& server, int scenario,
                      power::CState idle) {
  static const std::vector<std::vector<int>> cores{
      {5, 4, 7, 2}, {5, 4, 1, 8}, {5, 1, 6, 2}};
  const auto& bench = workload::find_benchmark("x264");
  return server
      .simulate(bench, {4, 2, 3.2}, cores[static_cast<std::size_t>(scenario - 1)],
                idle)
      .die.max_c;
}

}  // namespace

int main(int argc, char** argv) {
  double cell = 1.25e-3;
  if (argc > 1 && std::string(argv[1]) == "--fast") cell = 1.75e-3;

  std::cout << "== Robustness: Fig. 6 orderings under +/-30 % model "
               "perturbations ==\n\n";

  const auto base_config = [&] {
    core::ServerConfig config;
    config.stack.cell_size_m = cell;
    config.design.evaporator = core::default_evaporator_geometry(
        thermosyphon::Orientation::kEastWest);
    return config;
  };

  std::vector<Perturbation> perturbations;
  perturbations.push_back({"baseline", base_config()});
  {
    Perturbation p{"TIM1 -30%", base_config()};
    p.config.stack.tim1_thickness_m *= 0.7;
    perturbations.push_back(std::move(p));
  }
  {
    Perturbation p{"TIM1 +30%", base_config()};
    p.config.stack.tim1_thickness_m *= 1.3;
    perturbations.push_back(std::move(p));
  }
  {
    Perturbation p{"channel pitch -30%", base_config()};
    p.config.design.evaporator.channel_width_m *= 0.7;
    p.config.design.evaporator.fin_width_m *= 0.7;
    perturbations.push_back(std::move(p));
  }
  {
    Perturbation p{"channel pitch +30%", base_config()};
    p.config.design.evaporator.channel_width_m *= 1.3;
    p.config.design.evaporator.fin_width_m *= 1.3;
    perturbations.push_back(std::move(p));
  }
  {
    Perturbation p{"loop friction -30%", base_config()};
    p.config.design.loop.friction_coeff *= 0.7;
    perturbations.push_back(std::move(p));
  }
  {
    Perturbation p{"loop friction +30%", base_config()};
    p.config.design.loop.friction_coeff *= 1.3;
    perturbations.push_back(std::move(p));
  }
  {
    Perturbation p{"condenser UA -30%", base_config()};
    p.config.design.condenser.ua_w_k *= 0.7;
    perturbations.push_back(std::move(p));
  }

  util::TablePrinter table({"perturbation", "POLL s1/s2/s3",
                            "POLL order ok?", "C1 s1/s2/s3", "C1 order ok?"});
  int violations = 0;
  for (Perturbation& p : perturbations) {
    core::ServerModel server(std::move(p.config));
    const double p1 = scenario_theta(server, 1, power::CState::kPoll);
    const double p2 = scenario_theta(server, 2, power::CState::kPoll);
    const double p3 = scenario_theta(server, 3, power::CState::kPoll);
    const double c1 = scenario_theta(server, 1, power::CState::kC1);
    const double c2 = scenario_theta(server, 2, power::CState::kC1);
    const double c3 = scenario_theta(server, 3, power::CState::kC1);
    // Paper orderings: POLL -> s2 best, s3 worst; C1 -> s1 best, s3 worst.
    const bool poll_ok = p2 <= p1 + 0.05 && p1 < p3;
    const bool c1_ok = c1 <= c2 + 0.05 && c2 < c3;
    violations += !poll_ok + !c1_ok;
    const auto triple = [](double a, double b, double c) {
      return util::TablePrinter::fmt(a, 1) + "/" +
             util::TablePrinter::fmt(b, 1) + "/" +
             util::TablePrinter::fmt(c, 1);
    };
    table.add_row({p.name, triple(p1, p2, p3), poll_ok ? "yes" : "NO",
                   triple(c1, c2, c3), c1_ok ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "\nordering violations: " << violations
            << " (0 expected — the paper's crossover is a property of the\n"
               "physics, not of our calibration constants)\n";
  return violations == 0 ? 0 : 1;
}
