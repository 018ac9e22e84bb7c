#pragma once
/// \file refrigerant.hpp
/// \brief Refrigerant property package for the two-phase thermosyphon model.
///
/// The paper charges the thermosyphon with R236fa (filling ratio 55 %); the
/// design-space ablation also evaluates R134a and R245fa.  Properties are
/// smooth engineering correlations fitted to tabulated saturation data over
/// 0–90 °C:
///   - saturation pressure: Antoine equation fitted through three anchors,
///   - latent heat: Watson-type critical scaling,
///   - liquid density: linear fit,
///   - vapor density: real-gas-corrected ideal gas.
/// Accuracy is a few percent across the operating range, which is well below
/// the sensitivity of the system-level results (see DESIGN.md §1).

#include <string>

namespace tpcool::materials {

/// Anchor data defining a refrigerant; see `r236fa()` for an example.
struct RefrigerantSpec {
  std::string name;
  double molar_mass_g_mol;    ///< M [g/mol], used by the Cooper correlation.
  double critical_temp_c;     ///< T_crit [°C].
  double critical_pressure_pa;///< p_crit [Pa].
  /// Saturation-pressure anchors (T [°C], p [Pa]) for the Antoine fit.
  double anchor_t_c[3];
  double anchor_p_pa[3];
  double latent_heat_25c_j_kg;     ///< h_fg at 25 °C [J/kg].
  double liquid_density_25c_kg_m3; ///< ρ_l at 25 °C [kg/m³].
  double liquid_density_slope;     ///< dρ_l/dT [kg/(m³·K)] (negative).
  double liquid_conductivity_w_mk; ///< k_l [W/(m·K)].
  double liquid_cp_j_kgk;          ///< c_p,l [J/(kg·K)].
};

/// Saturated-fluid property evaluator.  Thread-safe after construction.
class Refrigerant {
 public:
  explicit Refrigerant(const RefrigerantSpec& spec);

  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] double molar_mass_g_mol() const noexcept {
    return spec_.molar_mass_g_mol;
  }
  [[nodiscard]] double critical_temp_c() const noexcept {
    return spec_.critical_temp_c;
  }
  [[nodiscard]] double critical_pressure_pa() const noexcept {
    return spec_.critical_pressure_pa;
  }

  /// Saturation pressure [Pa] at temperature [°C]; valid 0 °C .. T_crit−10.
  [[nodiscard]] double saturation_pressure_pa(double t_c) const;

  /// Saturation temperature [°C] at pressure [Pa] (inverse of the above).
  [[nodiscard]] double saturation_temperature_c(double p_pa) const;

  /// Reduced pressure p_sat/p_crit at temperature [°C].
  [[nodiscard]] double reduced_pressure(double t_c) const;

  /// Latent heat of vaporization [J/kg] at saturation temperature [°C]
  /// (Watson scaling anchored at 25 °C).
  [[nodiscard]] double latent_heat_j_kg(double t_c) const;

  /// Saturated liquid density [kg/m³].
  [[nodiscard]] double liquid_density_kg_m3(double t_c) const;

  /// Saturated vapor density [kg/m³] (real-gas-corrected ideal gas).
  [[nodiscard]] double vapor_density_kg_m3(double t_c) const;

  /// Saturated liquid thermal conductivity [W/(m·K)].
  [[nodiscard]] double liquid_conductivity_w_mk(double t_c) const;

  /// Saturated liquid specific heat [J/(kg·K)].
  [[nodiscard]] double liquid_cp_j_kgk(double t_c) const;

 private:
  RefrigerantSpec spec_;
  // Antoine coefficients: log10(p[Pa]) = a_ - b_ / (T[°C] + c_).
  double a_ = 0.0, b_ = 0.0, c_ = 0.0;
};

/// R236fa (hexafluoropropane) — the refrigerant selected by the paper.
[[nodiscard]] const Refrigerant& r236fa();

/// R134a — higher-pressure alternative evaluated in the design ablation.
[[nodiscard]] const Refrigerant& r134a();

/// R245fa — lower-pressure alternative evaluated in the design ablation.
[[nodiscard]] const Refrigerant& r245fa();

}  // namespace tpcool::materials
