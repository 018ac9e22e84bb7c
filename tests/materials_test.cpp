// Tests for tpcool::materials — solids, water, and the refrigerant property
// package (monotonicity, thermodynamic consistency, inverse consistency).

#include <gtest/gtest.h>

#include <cmath>

#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/materials/solid.hpp"
#include "tpcool/materials/water.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::materials {
namespace {

// ----------------------------------------------------------------- solids --

TEST(Solids, OrderingOfConductivities) {
  // Copper > silicon > TIM1 > grease > substrate > filler.
  EXPECT_GT(copper().conductivity_w_mk, silicon().conductivity_w_mk);
  EXPECT_GT(silicon().conductivity_w_mk,
            tim_high_performance().conductivity_w_mk);
  EXPECT_GT(tim_grease().conductivity_w_mk, gap_filler().conductivity_w_mk);
  EXPECT_GT(package_substrate().conductivity_w_mk,
            gap_filler().conductivity_w_mk);
}

TEST(Solids, VolumetricHeatCapacityPositive) {
  for (const SolidMaterial* m :
       {&silicon(), &copper(), &tim_high_performance(), &tim_grease(),
        &package_substrate(), &gap_filler()}) {
    EXPECT_GT(m->volumetric_heat_capacity(), 0.0) << m->name;
  }
}

// ------------------------------------------------------------------ water --

TEST(Water, PropertiesNearTabulatedValues) {
  const WaterProperties p = water_at(25.0);
  EXPECT_NEAR(p.density_kg_l, 0.997, 0.005);
  EXPECT_NEAR(p.specific_heat_j_kgk, 4186.0, 40.0);
  EXPECT_NEAR(p.conductivity_w_mk, 0.607, 0.02);
  EXPECT_NEAR(p.viscosity_pa_s, 0.89e-3, 0.3e-3);
}

TEST(Water, DensityDecreasesWithTemperature) {
  EXPECT_GT(water_at(10.0).density_kg_l, water_at(50.0).density_kg_l);
}

TEST(Water, CapacityRateMatchesPaperOperatingPoint) {
  // 7 kg/h of ~30 °C water: ṁ·c_p ≈ 8.1 W/K.
  EXPECT_NEAR(water_capacity_rate_w_k(7.0, 30.0), 8.13, 0.15);
}

TEST(Water, FlowConversion) {
  EXPECT_DOUBLE_EQ(kg_per_hour_to_kg_per_s(3600.0), 1.0);
}

// ------------------------------------------------------------ refrigerant --

class RefrigerantSuite : public ::testing::TestWithParam<const Refrigerant*> {};

INSTANTIATE_TEST_SUITE_P(AllFluids, RefrigerantSuite,
                         ::testing::Values(&r236fa(), &r134a(), &r245fa()),
                         [](const auto& info) { return info.param->name(); });

TEST_P(RefrigerantSuite, SaturationPressureMonotone) {
  const Refrigerant& f = *GetParam();
  double prev = f.saturation_pressure_pa(0.0);
  for (double t = 5.0; t <= 90.0; t += 5.0) {
    const double p = f.saturation_pressure_pa(t);
    EXPECT_GT(p, prev) << f.name() << " at " << t;
    prev = p;
  }
}

TEST_P(RefrigerantSuite, SaturationInverseConsistent) {
  const Refrigerant& f = *GetParam();
  for (double t = 5.0; t <= 85.0; t += 10.0) {
    const double p = f.saturation_pressure_pa(t);
    EXPECT_NEAR(f.saturation_temperature_c(p), t, 1e-6);
  }
}

TEST_P(RefrigerantSuite, LatentHeatDecreasesTowardCritical) {
  const Refrigerant& f = *GetParam();
  EXPECT_GT(f.latent_heat_j_kg(20.0), f.latent_heat_j_kg(60.0));
  EXPECT_GT(f.latent_heat_j_kg(60.0), f.latent_heat_j_kg(90.0));
  EXPECT_GT(f.latent_heat_j_kg(90.0), 0.0);
}

TEST_P(RefrigerantSuite, VaporDensityGrowsWithTemperature) {
  const Refrigerant& f = *GetParam();
  EXPECT_GT(f.vapor_density_kg_m3(60.0), f.vapor_density_kg_m3(20.0));
}

TEST_P(RefrigerantSuite, LiquidMuchDenserThanVapor) {
  const Refrigerant& f = *GetParam();
  for (double t = 10.0; t <= 80.0; t += 10.0) {
    EXPECT_GT(f.liquid_density_kg_m3(t), 5.0 * f.vapor_density_kg_m3(t));
  }
}

TEST_P(RefrigerantSuite, ReducedPressureInPhysicalRange) {
  const Refrigerant& f = *GetParam();
  for (double t = 10.0; t <= 80.0; t += 10.0) {
    const double pr = f.reduced_pressure(t);
    EXPECT_GT(pr, 0.005) << f.name();
    EXPECT_LT(pr, 0.9) << f.name();
  }
}

TEST_P(RefrigerantSuite, ClausiusClapeyronRoughlyHolds) {
  // dp/dT ≈ h_fg·ρ_v / T (exact when ρ_v << ρ_l and vapor is ideal); the
  // fitted correlations should agree within ~20 %.
  const Refrigerant& f = *GetParam();
  for (double t = 20.0; t <= 60.0; t += 20.0) {
    const double dp_dt = (f.saturation_pressure_pa(t + 0.5) -
                          f.saturation_pressure_pa(t - 0.5)) /
                         1.0;
    const double rho_v = f.vapor_density_kg_m3(t);
    const double rho_l = f.liquid_density_kg_m3(t);
    const double rho_eff = rho_v / (1.0 - rho_v / rho_l);
    const double predicted =
        f.latent_heat_j_kg(t) * rho_eff / (t + 273.15);
    EXPECT_NEAR(dp_dt / predicted, 1.0, 0.25) << f.name() << " at " << t;
  }
}

TEST(Refrigerant, R236faAnchorsReproduced) {
  // The Antoine fit must pass through its anchor points.
  EXPECT_NEAR(r236fa().saturation_pressure_pa(0.0), 1.07e5, 1e3);
  EXPECT_NEAR(r236fa().saturation_pressure_pa(25.0), 2.72e5, 1e3);
  EXPECT_NEAR(r236fa().saturation_pressure_pa(60.0), 6.87e5, 1e3);
}

TEST(Refrigerant, PressureOrderingAcrossFluids) {
  // R134a is the high-pressure fluid, R245fa the low-pressure one.
  for (double t = 10.0; t <= 70.0; t += 15.0) {
    EXPECT_GT(r134a().saturation_pressure_pa(t),
              r236fa().saturation_pressure_pa(t));
    EXPECT_GT(r236fa().saturation_pressure_pa(t),
              r245fa().saturation_pressure_pa(t));
  }
}

TEST(Refrigerant, OutOfRangeThrows) {
  EXPECT_THROW((void)r236fa().saturation_pressure_pa(200.0),
               util::PreconditionError);
  EXPECT_THROW((void)r236fa().latent_heat_j_kg(130.0), util::PreconditionError);
  EXPECT_THROW((void)r236fa().saturation_temperature_c(-1.0),
               util::PreconditionError);
}

}  // namespace
}  // namespace tpcool::materials
