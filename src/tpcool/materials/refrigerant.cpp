#include "tpcool/materials/refrigerant.hpp"

#include <cmath>

#include "tpcool/util/error.hpp"
#include "tpcool/util/rootfind.hpp"

namespace tpcool::materials {

namespace {
constexpr double kGasConstant = 8.314462618;  // J/(mol·K)

double celsius_to_kelvin(double t_c) { return t_c + 273.15; }
}  // namespace

Refrigerant::Refrigerant(const RefrigerantSpec& spec) : spec_(spec) {
  TPCOOL_REQUIRE(spec.molar_mass_g_mol > 0.0, "molar mass must be positive");
  TPCOOL_REQUIRE(spec.critical_pressure_pa > 0.0,
                 "critical pressure must be positive");
  // Fit Antoine log10(p) = a - b/(t + c) through the three anchors by
  // bisecting on c; a and b then follow linearly from the first two anchors.
  const double t1 = spec.anchor_t_c[0], t2 = spec.anchor_t_c[1],
               t3 = spec.anchor_t_c[2];
  const double y1 = std::log10(spec.anchor_p_pa[0]),
               y2 = std::log10(spec.anchor_p_pa[1]),
               y3 = std::log10(spec.anchor_p_pa[2]);
  TPCOOL_REQUIRE(t1 < t2 && t2 < t3, "anchors must have increasing T");
  TPCOOL_REQUIRE(y1 < y2 && y2 < y3, "anchors must have increasing p");
  const auto residual = [&](double c) {
    // With c fixed: y = a - b/(t+c). Two-point solve for a, b.
    const double b = (y2 - y1) / (1.0 / (t1 + c) - 1.0 / (t2 + c));
    const double a = y1 + b / (t1 + c);
    return (a - b / (t3 + c)) - y3;
  };
  c_ = tpcool::util::bisect(residual, 30.0, 2000.0,
                            {.tolerance = 1e-8, .max_iterations = 300});
  b_ = (y2 - y1) / (1.0 / (t1 + c_) - 1.0 / (t2 + c_));
  a_ = y1 + b_ / (t1 + c_);
  TPCOOL_ENSURE(b_ > 0.0, "Antoine fit produced non-physical coefficients");
}

double Refrigerant::saturation_pressure_pa(double t_c) const {
  TPCOOL_REQUIRE(t_c > -40.0 && t_c < spec_.critical_temp_c,
                 "temperature outside saturation-curve validity");
  return std::pow(10.0, a_ - b_ / (t_c + c_));
}

double Refrigerant::saturation_temperature_c(double p_pa) const {
  TPCOOL_REQUIRE(p_pa > 0.0, "pressure must be positive");
  // Invert the Antoine fit in closed form.
  const double y = std::log10(p_pa);
  TPCOOL_REQUIRE(y < a_, "pressure above Antoine-fit validity");
  return b_ / (a_ - y) - c_;
}

double Refrigerant::reduced_pressure(double t_c) const {
  return saturation_pressure_pa(t_c) / spec_.critical_pressure_pa;
}

double Refrigerant::latent_heat_j_kg(double t_c) const {
  const double tr = celsius_to_kelvin(t_c) /
                    celsius_to_kelvin(spec_.critical_temp_c);
  const double tr25 = celsius_to_kelvin(25.0) /
                      celsius_to_kelvin(spec_.critical_temp_c);
  TPCOOL_REQUIRE(tr < 1.0, "temperature at/above critical point");
  // Watson relation: h_fg ∝ (1 - T_r)^0.38.
  return spec_.latent_heat_25c_j_kg *
         std::pow((1.0 - tr) / (1.0 - tr25), 0.38);
}

double Refrigerant::liquid_density_kg_m3(double t_c) const {
  const double rho = spec_.liquid_density_25c_kg_m3 +
                     spec_.liquid_density_slope * (t_c - 25.0);
  TPCOOL_ENSURE(rho > 0.0, "liquid density fit left validity range");
  return rho;
}

double Refrigerant::vapor_density_kg_m3(double t_c) const {
  const double p = saturation_pressure_pa(t_c);
  const double t_k = celsius_to_kelvin(t_c);
  const double m_kg_mol = spec_.molar_mass_g_mol * 1e-3;
  // Ideal gas with a first-order compressibility correction; Z ≈ 1 - 0.4·p_r
  // reproduces tabulated saturated-vapor densities of HFCs within ~8 %.
  const double pr = p / spec_.critical_pressure_pa;
  const double z = 1.0 - 0.4 * pr;
  TPCOOL_ENSURE(z > 0.2, "vapor compressibility correction out of range");
  return p * m_kg_mol / (z * kGasConstant * t_k);
}

double Refrigerant::liquid_conductivity_w_mk(double t_c) const {
  // HFC liquid conductivity decreases slowly with temperature.
  return spec_.liquid_conductivity_w_mk * (1.0 - 2.4e-3 * (t_c - 25.0));
}

double Refrigerant::liquid_cp_j_kgk(double t_c) const {
  // Weak increase toward the critical point.
  return spec_.liquid_cp_j_kgk * (1.0 + 2.0e-3 * (t_c - 25.0));
}

const Refrigerant& r236fa() {
  static const Refrigerant fluid(RefrigerantSpec{
      .name = "R236fa",
      .molar_mass_g_mol = 152.04,
      .critical_temp_c = 124.9,
      .critical_pressure_pa = 3.20e6,
      .anchor_t_c = {0.0, 25.0, 60.0},
      .anchor_p_pa = {1.07e5, 2.72e5, 6.87e5},
      .latent_heat_25c_j_kg = 145.0e3,
      .liquid_density_25c_kg_m3 = 1360.0,
      .liquid_density_slope = -3.0,
      .liquid_conductivity_w_mk = 0.075,
      .liquid_cp_j_kgk = 1260.0,
  });
  return fluid;
}

const Refrigerant& r134a() {
  static const Refrigerant fluid(RefrigerantSpec{
      .name = "R134a",
      .molar_mass_g_mol = 102.03,
      .critical_temp_c = 101.1,
      .critical_pressure_pa = 4.059e6,
      .anchor_t_c = {0.0, 25.0, 60.0},
      .anchor_p_pa = {2.93e5, 6.65e5, 1.682e6},
      .latent_heat_25c_j_kg = 177.0e3,
      .liquid_density_25c_kg_m3 = 1207.0,
      .liquid_density_slope = -3.4,
      .liquid_conductivity_w_mk = 0.081,
      .liquid_cp_j_kgk = 1425.0,
  });
  return fluid;
}

const Refrigerant& r245fa() {
  static const Refrigerant fluid(RefrigerantSpec{
      .name = "R245fa",
      .molar_mass_g_mol = 134.05,
      .critical_temp_c = 154.0,
      .critical_pressure_pa = 3.65e6,
      .anchor_t_c = {0.0, 25.0, 60.0},
      .anchor_p_pa = {5.4e4, 1.49e5, 4.64e5},
      .latent_heat_25c_j_kg = 190.0e3,
      .liquid_density_25c_kg_m3 = 1338.0,
      .liquid_density_slope = -2.6,
      .liquid_conductivity_w_mk = 0.087,
      .liquid_cp_j_kgk = 1322.0,
  });
  return fluid;
}

}  // namespace tpcool::materials
