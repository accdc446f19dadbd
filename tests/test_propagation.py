"""Transfer-function tests against independently evaluated oracles.

Fresnel coefficients are cross-checked against the refractive-index form
(the implementation uses the impedance form); composite responses are
checked against explicit factor-by-factor recomputation.
"""

import cmath
import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from debrisense.channel import subband_grid
from debrisense.constants import FREE_SPACE_IMPEDANCE, SPEED_OF_LIGHT
from debrisense.errors import (ConvergenceWarning, GrazingGeometryError,
                               MaterialError)
from debrisense.materials import MaterialProperties, default_materials
from debrisense.propagation import (Polarization, ScatterGeometry, _sinc,
                                    diffracted_response, diffraction_loss,
                                    doppler_factor, fresnel_coefficients,
                                    fresnel_kirchhoff_parameter, fspl_amplitude,
                                    los_response, medium,
                                    reflected_response,
                                    reflection_coefficient,
                                    roughness_coefficient,
                                    scattered_response, scattering_coefficient,
                                    scattering_series_sum, wave_impedance,
                                    wrapped_phase_factor)
from debrisense.scene import incidence_angle, path_lengths, perpendicular_clearance

GLASS = default_materials()["smooth_glass"]
METAL = default_materials()["rough_metal"]
MIXED = MaterialProperties(
    name="mixed", n_table=((100e9, 1.9), (1e12, 2.1)),
    alpha_table=((100e9, 100.0), (550e9, 900.0), (1e12, 300.0)),
    roughness_sigma_m=5e-6, correlation_length_m=500e-6,
    facet_lx_m=0.1, facet_ly_m=0.1)


def direct_log_series(g, vxy2l2):
    """Log of the diffuse-lobe series summed term by term at 40 digits, over
    every m <= g + 40 sqrt(g) + 100."""
    with mpmath.workdps(40):
        g_mp, a_mp = mpmath.mpf(g), mpmath.mpf(vxy2l2)
        top = int(g + 40.0 * math.sqrt(g)) + 100
        return float(mpmath.log(mpmath.fsum(
            g_mp ** m / (mpmath.factorial(m) * m) * mpmath.exp(-a_mp / (4 * m))
            for m in range(1, top + 1))))


def direct_series_sum(g, vxy2l2):
    return math.exp(direct_log_series(g, vxy2l2))


def lossless(n, sigma=0.0):
    """Dielectric with zero absorption for analytic comparisons."""
    return MaterialProperties(
        name=f"lossless_n{n}", n_table=((1e9, n), (1e13, n)),
        alpha_table=((1e9, 0.0), (1e13, 0.0)),
        roughness_sigma_m=sigma, correlation_length_m=500e-6,
        facet_lx_m=0.5, facet_ly_m=0.5)


def fresnel_index_form(n_c, theta_i):
    """Textbook refractive-index form of the Fresnel coefficients.

    Independent of the impedance form used by the implementation.  TM uses
    the reference direction under which TE and TM coincide at normal
    incidence (both equal (1-n)/(1+n) there).
    """
    ci = math.cos(theta_i)
    st_ = math.sin(theta_i)
    ct = cmath.sqrt(1.0 - (st_ / n_c) ** 2)
    gamma_te = (ci - n_c * ct) / (ci + n_c * ct)
    gamma_tm = (ct - n_c * ci) / (ct + n_c * ci)
    return gamma_te, gamma_tm


class TestFspl:
    def test_golden_300ghz_500km(self):
        oracle = SPEED_OF_LIGHT / (4 * math.pi * 3e11 * 5e5)
        assert fspl_amplitude(3e11, 5e5) == pytest.approx(oracle, rel=1e-14)
        # 5-significant-figure citation of the same number
        assert fspl_amplitude(3e11, 5e5) == pytest.approx(1.5915e-10, abs=1e-14)

    def test_doubling_range_halves_amplitude(self):
        assert fspl_amplitude(1e11, 2e5) == pytest.approx(
            fspl_amplitude(1e11, 1e5) / 2, rel=1e-15)

    def test_frequency_ratio_law(self):
        assert fspl_amplitude(30e9, 5e5) / fspl_amplitude(3e12, 5e5) == \
            pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("f,r", [(0.0, 1.0), (-1e9, 1.0), (1e9, 0.0),
                                     (1e9, -5.0)])
    def test_nonpositive_inputs_rejected(self, f, r):
        with pytest.raises(ValueError):
            fspl_amplitude(f, r)


class TestDoppler:
    def test_zero_velocity_is_unity(self):
        assert doppler_factor(1e12, 0.0) == 1.0 + 0.0j

    @given(st.floats(1e9, 5e12), st.floats(0.0, 1e4))
    @settings(max_examples=100)
    def test_unit_modulus(self, f, v):
        assert abs(doppler_factor(f, v)) == pytest.approx(1.0, abs=1e-12)

    def test_integer_cycle_count_wraps_to_unity(self):
        # 3 THz * 7 km/s / c is exactly 7e7 cycles
        assert doppler_factor(3e12, 7e3) == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_wrap_matches_high_precision_evaluation(self):
        f, v = 2.7e12, 6543.0
        cycles = f * v / SPEED_OF_LIGHT
        with mpmath.workdps(60):
            expected = mpmath.exp(-2j * mpmath.pi * mpmath.mpf(repr(cycles)))
        got = doppler_factor(f, v)
        assert got.real == pytest.approx(float(expected.real), abs=1e-9)
        assert got.imag == pytest.approx(float(expected.imag), abs=1e-9)


class TestLosResponse:
    @pytest.mark.parametrize("f,d", [(30e9, 5e5), (3e12, 5e5), (5e12, 7.7e5)])
    def test_magnitude_is_fspl(self, f, d):
        assert abs(los_response(f, d)) == pytest.approx(fspl_amplitude(f, d),
                                                        rel=1e-12)

    def test_phase_matches_wrapped_delay(self):
        f, d = 12345.0, 5e5
        cycles = f * d / SPEED_OF_LIGHT
        with mpmath.workdps(50):
            expected = mpmath.exp(-2j * mpmath.pi * mpmath.mpf(repr(cycles)))
        got = los_response(f, d) / fspl_amplitude(f, d)
        assert got.real == pytest.approx(float(expected.real), abs=1e-12)
        assert got.imag == pytest.approx(float(expected.imag), abs=1e-12)

    def test_phase_slope_for_small_displacement(self):
        f = 1e10
        d = 3e4  # f*d/c = 1000 cycles exactly; phase 0
        eps = 1e-6
        base = los_response(f, d)
        moved = los_response(f, d + eps)
        expected_shift = -2 * math.pi * f * eps / SPEED_OF_LIGHT
        assert cmath.phase(moved / base) == pytest.approx(expected_shift, rel=1e-3)


class TestWaveImpedance:
    def test_vacuum_limit(self):
        z = wave_impedance(1e12, lossless(1.0))
        assert z.real == pytest.approx(376.73, abs=0.01)
        assert z.imag == pytest.approx(0.0, abs=1e-9)

    def test_half_impedance_for_n2(self):
        z = wave_impedance(1e12, lossless(2.0))
        assert z.real == pytest.approx(FREE_SPACE_IMPEDANCE / 2, rel=1e-12)

    def test_loss_gives_complex_impedance(self):
        z = wave_impedance(1e12, GLASS)
        assert z.imag != 0.0
        assert z.real > 0.0


class TestFresnel:
    def test_normal_incidence_symmetry(self):
        te, tm = fresnel_coefficients(1e12, 0.0, GLASS)
        assert abs(te) == pytest.approx(abs(tm), rel=1e-12)

    def test_normal_incidence_n2_third(self):
        te, tm = fresnel_coefficients(1e12, 0.0, lossless(2.0))
        assert abs(te) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert abs(tm) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_grazing_limit_dielectric(self):
        te, _ = fresnel_coefficients(1e12, math.radians(89.99), lossless(1.95))
        assert abs(te) > 1 - 1e-3

    def test_grazing_conductor_within_1e3_at_89p9(self):
        te, _ = fresnel_coefficients(3e12, math.radians(89.9), METAL)
        assert abs(te) > 1 - 1e-3

    @pytest.mark.parametrize("theta_deg", [0, 15, 30, 45, 60, 75, 85])
    @pytest.mark.parametrize("material", [lossless(1.95), lossless(3.0),
                                          GLASS, METAL])
    def test_matches_index_form_oracle(self, theta_deg, material):
        f = 2e12
        theta = math.radians(theta_deg)
        te, tm = fresnel_coefficients(f, theta, material)
        n_c = medium(material, f).n_c
        te_o, tm_o = fresnel_index_form(n_c, theta)
        assert te == pytest.approx(te_o, rel=1e-9)
        assert tm == pytest.approx(tm_o, rel=1e-9)

    def test_brewster_ordering_lossless(self):
        mat = lossless(1.95)
        for theta_deg in range(1, 90, 4):
            te, tm = fresnel_coefficients(1e12, math.radians(theta_deg), mat)
            assert abs(te) >= abs(tm) - 1e-12

    def test_magnitudes_bounded_by_one(self):
        for mat in (GLASS, METAL, lossless(4.0)):
            for theta_deg in (0, 20, 40, 60, 80, 89):
                te, tm = fresnel_coefficients(1e12, math.radians(theta_deg), mat)
                assert abs(te) <= 1 + 1e-12
                assert abs(tm) <= 1 + 1e-12

    @pytest.mark.parametrize("n", [1.3, 1.95, 3.0])
    @pytest.mark.parametrize("theta_deg", [0, 25, 50, 75, 88])
    def test_lossless_energy_conservation(self, n, theta_deg):
        # reflectance plus transmittance must sum to one at a lossless
        # interface; the transmittance is computed from first principles,
        # independent of the reflection formulation under test
        theta = math.radians(theta_deg)
        te, _ = fresnel_coefficients(1e12, theta, lossless(n))
        ci = math.cos(theta)
        ct = math.sqrt(1.0 - (math.sin(theta) / n) ** 2)
        t_field = 2 * ci / (ci + n * ct)  # s-pol field transmission
        transmittance = (n * ct / ci) * t_field ** 2
        assert abs(te) ** 2 + transmittance == pytest.approx(1.0, abs=1e-10)


class TestRoughness:
    def test_smooth_surface_unity(self):
        assert roughness_coefficient(3e11, 0.0, 0.3) == 1.0

    def test_grazing_unity(self):
        assert roughness_coefficient(3e11, 5e-5, math.pi / 2) == pytest.approx(1.0)

    def test_golden_300ghz_50um_30deg(self):
        lam = SPEED_OF_LIGHT / 3e11
        g = (4 * math.pi * 5e-5 * math.cos(math.radians(30)) / lam) ** 2
        oracle = math.exp(-g / 2)
        got = roughness_coefficient(3e11, 5e-5, math.radians(30))
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(0.8624, abs=1e-3)

    def test_monotonicities_by_finite_differences(self):
        fs = np.linspace(1e11, 5e12, 7)
        sigmas = np.linspace(0.0, 2e-4, 6)
        thetas = np.linspace(0.0, math.pi / 2 - 0.01, 6)
        for sigma in sigmas:
            for theta in thetas:
                vals = [roughness_coefficient(f, sigma, theta) for f in fs]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        for f in fs:
            for theta in thetas:
                vals = [roughness_coefficient(f, s, theta) for s in sigmas]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        for f in fs:
            for sigma in sigmas:
                vals = [roughness_coefficient(f, sigma, t) for t in thetas]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestReflection:
    def test_smooth_surface_reduces_to_fresnel(self):
        mat = lossless(1.95, sigma=0.0)
        theta = math.radians(40)
        r = reflection_coefficient(1e12, theta, mat, Polarization.TE)
        te, _ = fresnel_coefficients(1e12, theta, mat)
        assert r == pytest.approx(te, rel=1e-12)

    def test_magnitude_below_one(self):
        for mat in (GLASS, METAL):
            for theta_deg in (5, 30, 60, 85):
                r = reflection_coefficient(3e12, math.radians(theta_deg), mat,
                                           Polarization.TE)
                assert abs(r) <= 1.0

    def test_material_contrast_golden_3thz_30deg(self):
        # regression goldens via independent composition from the index form
        theta = math.radians(30)
        for mat in (GLASS, METAL):
            n_c = medium(mat, 3e12).n_c
            te_o, _ = fresnel_index_form(n_c, theta)
            rho = roughness_coefficient(3e12, mat.roughness_sigma_m, theta)
            got = reflection_coefficient(3e12, theta, mat, Polarization.TE)
            assert got == pytest.approx(rho * te_o, rel=1e-9)
        # at this operating point the roughness penalty on metal dwarfs its
        # conductivity advantage over glass
        r_metal = abs(reflection_coefficient(3e12, theta, METAL, Polarization.TE))
        rho_glass = roughness_coefficient(3e12, GLASS.roughness_sigma_m, theta)
        gamma_glass = abs(fresnel_coefficients(3e12, theta, GLASS)[0])
        assert r_metal < rho_glass * gamma_glass

    def test_reflected_response_composition(self):
        f = 3e12
        s1 = s2 = 250.2e3
        d = 500e3
        theta = incidence_angle(s1, s2, d)
        got = reflected_response(f, s1 + s2, theta, GLASS, Polarization.TE)
        r = reflection_coefficient(f, theta, GLASS, Polarization.TE)
        amp = fspl_amplitude(f, s1 + s2)
        phase = wrapped_phase_factor(f * (s1 + s2) / SPEED_OF_LIGHT)
        assert got == pytest.approx(amp * r * phase, rel=1e-12)

    def test_weaker_than_los_for_longer_path(self):
        f = 3e12
        los = abs(los_response(f, 500e3))
        theta = incidence_angle(255e3, 255e3, 500e3)
        refl = abs(reflected_response(f, 510e3, theta, GLASS, Polarization.TE))
        assert refl < los

    def test_phase_slope_across_frequency_equals_path_delay(self):
        # the frequency selectivity the sensing features rely on: the
        # response phase advances by -2*pi*tau per hertz of carrier offset
        s1 = s2 = 255e3
        tau = (s1 + s2) / SPEED_OF_LIGHT
        f0, df = 3e12, 25e3  # small offset so the phase step stays unwrapped
        theta = incidence_angle(s1, s2, 500e3)
        a = reflected_response(f0, s1 + s2, theta, GLASS, Polarization.TE)
        b = reflected_response(f0 + df, s1 + s2, theta, GLASS, Polarization.TE)
        step = cmath.phase(b / a)
        expected = -2 * math.pi * df * tau
        expected = math.remainder(expected, 2 * math.pi)
        assert step == pytest.approx(expected, abs=1e-6)


class TestScatteringSeries:
    def test_brute_force_partial_sums_g1(self):
        oracle = sum(1.0 / (math.factorial(m) * m) for m in range(1, 40))
        got = scattering_series_sum(1.0, 0.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(1.3179, abs=1e-3)

    def test_zero_roughness_gives_zero(self):
        assert scattering_series_sum(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("g,vxy2l2", [(0.5, 0.0), (1.0, 2.0), (10.0, 1.0),
                                          (80.0, 5.0), (120.0, 0.5)])
    def test_doubling_cap_changes_nothing(self, g, vxy2l2):
        # points where the series converges under the default cap
        a = scattering_series_sum(g, vxy2l2, max_terms=200)
        b = scattering_series_sum(g, vxy2l2, max_terms=400)
        assert abs(a - b) <= 1e-9 * abs(b)

    @pytest.mark.parametrize("g,vxy2l2,max_terms", [
        (120.0, 0.5, 100), (250.0, 40.0, 100), (400.0, 0.0, 100),
        (439.0, 0.0, 200), (439.0, 2600.0, 200), (439.0, 1e5, 400),
        (700.0, 10.0, 200), (20.0, 4e4, 60), (0.5, 1e4, 20),
        (130.0, 2606.0, 200)])
    def test_capped_series_matches_direct_sum(self, g, vxy2l2, max_terms):
        # the forward sum stops at its cap short of convergence here (at
        # g = 439, v = 0, rough metal at 5 THz, its log is 348.98 against
        # the series' 432.92; the last two peak far above m = g; at g = 130
        # its last term still adds between 1e-10 and 1e-6 of the sum); the
        # sum over the window about its largest term is the full series
        got = scattering_series_sum(g, vxy2l2, max_terms)
        assert got == pytest.approx(direct_series_sum(g, vxy2l2), rel=1e-10)

    def test_invalid_roughness_factor_rejected(self):
        for g in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                scattering_series_sum(g, 0.0)


class TestKernelsMatchReference:
    """The memoized medium, the scalar sinc and the tabulated series
    constants reproduce the per-call formulas bit for bit."""

    @pytest.mark.parametrize("name", sorted(default_materials()))
    def test_medium_matches_per_call_formulas(self, name):
        material = default_materials()[name]
        table_f = [f for f, _ in material.n_table + material.alpha_table]
        freqs = sorted(set(table_f) | set(np.geomspace(min(table_f),
                                                       max(table_f), 25)))
        for f in freqs:
            f = float(f)
            med = medium(material, f)
            assert medium(material, f) is med  # resolved once, then reused
            assert med.n_c.real == material.refractive_index(f)
            assert med.n_c == ref.complex_refractive_index(f, material)
            assert med.z == ref.wave_impedance(f, material)
            assert wave_impedance(f, material) == med.z
            for theta in (0.0, 0.3, 1.2, math.radians(89.9)):
                assert fresnel_coefficients(f, theta, material) == \
                    ref.fresnel_coefficients(f, theta, material)

    def test_medium_on_interpolated_tables(self):
        for f in (100e9, 317e9, 550e9, 999e9, 1e12):
            assert medium(MIXED, f).n_c == ref.complex_refractive_index(f, MIXED)
            assert medium(MIXED, f).z == ref.wave_impedance(f, MIXED)

    def test_medium_outside_tables_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(MaterialError):
                medium(MIXED, 2e12)
            with pytest.raises(MaterialError):
                fresnel_coefficients(2e12, 0.3, MIXED)

    @pytest.mark.parametrize("t", [0.0, -0.0, 1e-300, 0.25, -3.7, 1.0, 123.456,
                                   -1e6])
    def test_sinc_matches_numpy(self, t):
        got = _sinc(t)
        assert type(got) is float
        assert got == np.sinc(t)

    def test_sinc_matches_numpy_on_random_arguments(self):
        for t in np.random.default_rng(3).normal(scale=50.0, size=2000):
            assert _sinc(float(t)) == np.sinc(float(t))

    @pytest.mark.parametrize("max_terms", [100, 200, 400])
    @pytest.mark.parametrize("g,vxy2l2", [(1e-4, 0.0), (0.5, 3.0), (10.0, 1.0),
                                          (120.0, 0.5), (250.0, 40.0),
                                          (400.0, 0.0), (439.0, 0.0)])
    def test_series_matches_per_term_constants(self, g, vxy2l2, max_terms):
        # where the per-term loop converged it gives the same float; where
        # it warned at its cap, the sum is taken again and is the series
        with warnings.catch_warnings(record=True) as old_warnings:
            warnings.simplefilter("always")
            expected = ref.scattering_series_sum(g, vxy2l2, max_terms)
        got = scattering_series_sum(g, vxy2l2, max_terms)
        if g >= 400.0:  # these hit the cap at every max_terms here
            assert [w.category for w in old_warnings] == [ConvergenceWarning]
        if old_warnings:
            assert got == pytest.approx(direct_series_sum(g, vxy2l2), rel=1e-10)
        else:
            assert got == expected


class TestScatteringCoefficient:
    def test_specular_direction_unit_sinc(self):
        geom = ScatterGeometry(theta1=0.3, theta2=0.3, theta3=0.0)
        # vx = vy = 0 at the specular direction: bracket term rho0 = 1
        s_smooth = scattering_coefficient(1e12, geom, lossless(1.95, sigma=0.0),
                                          Polarization.TE)
        te, _ = fresnel_coefficients(1e12, 0.3, lossless(1.95, sigma=0.0))
        assert s_smooth == pytest.approx(te, rel=1e-12)

    def test_smooth_surface_specular_only(self):
        geom = ScatterGeometry(theta1=0.4, theta2=0.2, theta3=1.0)
        mat = lossless(1.95, sigma=0.0)
        s = scattering_coefficient(1e12, geom, mat, Polarization.TE)
        te, _ = fresnel_coefficients(1e12, 0.4, mat)
        k = 2 * math.pi * 1e12 / SPEED_OF_LIGHT
        vx = k * (math.sin(0.4) - math.sin(0.2) * math.cos(1.0))
        vy = k * (-math.sin(0.2) * math.sin(1.0))
        rho0 = (math.sin(vx * mat.facet_lx_m) / (vx * mat.facet_lx_m) *
                math.sin(vy * mat.facet_ly_m) / (vy * mat.facet_ly_m))
        assert s == pytest.approx(te * abs(rho0), rel=1e-9)

    def test_consistent_with_rayleigh_damped_reflection(self):
        # at the specular point the bracket reduces to (1 + diffuse) e^{-g}
        theta = 0.5
        geom = ScatterGeometry(theta1=theta, theta2=theta, theta3=0.0)
        s = scattering_coefficient(3e12, geom, METAL, Polarization.TE)
        te, _ = fresnel_coefficients(3e12, theta, METAL)
        rho = roughness_coefficient(3e12, METAL.roughness_sigma_m, theta)
        # specular term alone would be |te|*rho; the diffuse series adds energy
        assert abs(s) >= abs(te) * rho - 1e-15

    def test_grazing_geometry_rejected(self):
        geom = ScatterGeometry(theta1=math.pi / 2 - 1e-7,
                               theta2=math.pi / 2 - 1e-7, theta3=0.0)
        with pytest.raises(GrazingGeometryError):
            scattering_coefficient(1e12, geom, METAL, Polarization.TE)

    def test_facet_must_exceed_ten_wavelengths(self):
        geom = ScatterGeometry(theta1=0.3, theta2=0.3, theta3=0.0)
        with pytest.raises(MaterialError, match="10 wavelengths"):
            scattering_coefficient(1e9, geom, GLASS, Polarization.TE)

    def test_series_beyond_float_range(self):
        # at normal incidence rho0 = 1, the geometric factor is 1 and both
        # exponents are g = (2 k sigma)^2; at sigma = 250 um and 3 THz the
        # series (g ~ 990) overflows a float, its attenuated bracket does not
        mat = dataclasses.replace(METAL, roughness_sigma_m=250e-6)
        f = 3e12
        g = (2.0 * (2.0 * math.pi * f / SPEED_OF_LIGHT) * mat.roughness_sigma_m) ** 2
        log_series = direct_log_series(g, 0.0)
        assert log_series > math.log(sys.float_info.max)
        weight = math.pi * mat.correlation_length_m ** 2 / mat.facet_area_m2
        with mpmath.workdps(40):
            bracket = float((1 + weight * mpmath.exp(log_series)) * mpmath.exp(-g))
        got = scattering_coefficient(f, ScatterGeometry(0.0, 0.0, 0.0), mat,
                                     Polarization.TE)
        te, _ = fresnel_coefficients(f, 0.0, mat)
        assert got == pytest.approx(te * math.sqrt(bracket), rel=1e-9)

    def test_scattered_response_composition(self):
        f = 3e12
        s1 = s2 = 255e3
        geom = ScatterGeometry(theta1=0.6, theta2=0.6, theta3=0.4)
        got = scattered_response(f, s1 + s2, geom, METAL, Polarization.TE)
        coeff = scattering_coefficient(f, geom, METAL, Polarization.TE)
        amp = fspl_amplitude(f, s1 + s2)
        phase = wrapped_phase_factor(f * (s1 + s2) / SPEED_OF_LIGHT)
        assert got == pytest.approx(amp * coeff * phase, rel=1e-12)


class TestDiffraction:
    def test_fk_parameter_zero_clearance(self):
        assert fresnel_kirchhoff_parameter(0.0, 3e11, 2.5e5, 2.5e5) == 0.0

    def test_fk_parameter_hand_value(self):
        lam = SPEED_OF_LIGHT / 3e11
        oracle = math.sqrt(2 * 5e5 / (lam * 2.5e5 * 2.5e5))
        got = fresnel_kirchhoff_parameter(1.0, 3e11, 2.5e5, 2.5e5)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(0.12649, abs=1e-4)

    def test_fk_parameter_sqrt_frequency_scaling(self):
        v1 = fresnel_kirchhoff_parameter(1.0, 1e11, 2.5e5, 2.5e5)
        v4 = fresnel_kirchhoff_parameter(1.0, 4e11, 2.5e5, 2.5e5)
        assert v4 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_branch_values(self):
        assert diffraction_loss(1.0) == pytest.approx(0.5 * math.exp(-0.95),
                                                      rel=1e-12)
        assert diffraction_loss(2.4) == pytest.approx(
            0.4 - math.sqrt(0.12 - (0.38 - 0.24) ** 2), rel=1e-12)
        assert diffraction_loss(10.0) == 0.0225

    def test_branch_boundary_jump_is_model_property(self):
        below = diffraction_loss(2.4)
        above = diffraction_loss(2.4 + 1e-12)
        jump_oracle = 0.225 / 2.4 - (0.4 - math.sqrt(0.12 - 0.0196))
        assert above - below == pytest.approx(jump_oracle, abs=1e-9)
        assert jump_oracle == pytest.approx(0.0106, abs=1e-4)

    def test_monotone_decreasing_beyond_2p4(self):
        vs = np.linspace(2.41, 50.0, 100)
        losses = [diffraction_loss(v) for v in vs]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_continuity_inside_branches(self):
        for v in (0.5, 1.0 - 1e-9, 1.5, 2.0):
            assert diffraction_loss(v + 1e-9) == pytest.approx(
                diffraction_loss(v), rel=1e-6)

    def test_nonpositive_v_rejected(self):
        with pytest.raises(ValueError):
            diffraction_loss(0.0)
        with pytest.raises(ValueError):
            diffraction_loss(-1.0)

    def test_diffracted_response_composition(self):
        f, h = 3e12, 0.5
        s1 = s2 = 2.5e5
        got = diffracted_response(f, s1, s2, h)
        v = fresnel_kirchhoff_parameter(h, f, s1, s2)
        loss = diffraction_loss(v)
        delta = h * h * (s1 + s2) / (2 * s1 * s2)
        tau = (s1 + s2 + delta) / SPEED_OF_LIGHT
        oracle = fspl_amplitude(f, s1 + s2) * loss * wrapped_phase_factor(f * tau)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_large_clearance_vanishes(self):
        small = abs(diffracted_response(3e12, 2.5e5, 2.5e5, 100.0))
        tiny = abs(diffracted_response(3e12, 2.5e5, 2.5e5, 1e4))
        assert tiny < small < abs(los_response(3e12, 5e5))


class TestResponsesMatchReference:
    """Each response, written over the one transfer formula, returns the float
    of its own former FSPL x coefficient x delay-phase product."""

    # debris positions (km) on a 500 km link, down to near-grazing relays;
    # none takes the scattering series to its cap
    POSITIONS = ((250.0, 50.0, 0.0), (100.0, 10.0, 3.0), (400.0, 1.0, 0.0),
                 (30.0, 20.0, 5.0), (250.0, 0.01, 0.0), (250.0, 1e-5, 0.0))
    CENTRES = [float(f) for carrier in (30e9, 300e9, 3e12, 5e12)
               for f in subband_grid(carrier, 8, 10e9)]

    @pytest.mark.parametrize("pol", list(Polarization), ids=lambda p: p.value)
    @pytest.mark.parametrize("material", [GLASS, METAL], ids=lambda m: m.name)
    def test_responses_match_reference(self, material, pol):
        grazing = 0
        for f in self.CENTRES:
            assert los_response(f, 5e5) == ref.los_response(f, 5e5)
            for pos in self.POSITIONS:
                s1, s2, d = path_lengths((0, 0, 0), (500, 0, 0), pos)
                legs = (s1 * 1e3, s2 * 1e3, d * 1e3)
                length_m = legs[0] + legs[1]
                assert reflected_response(
                    f, length_m, incidence_angle(*legs), material, pol) == \
                    ref.reflected_response(f, *legs, material, pol)
                theta = min(incidence_angle(s1, s2, d), math.pi / 2 - 1e-9)
                c = math.cos(theta)
                for azimuth in (0.0, 2.0, 5.5):
                    geom = ScatterGeometry(theta, theta, azimuth)
                    if abs(c * (c + c)) < 1e-12:
                        grazing += 1
                        with pytest.raises(GrazingGeometryError):
                            scattered_response(f, length_m, geom, material, pol)
                        continue
                    assert scattered_response(f, length_m, geom, material, pol) == \
                        ref.scattered_response(f, *legs, geom, material, pol)
                h_m, a1, a2 = perpendicular_clearance((0, 0, 0), (500, 0, 0), pos)
                assert diffracted_response(f, a1 * 1e3, a2 * 1e3, h_m) == \
                    ref.diffracted_response(f, a1 * 1e3, a2 * 1e3, h_m)
        assert grazing == 3 * len(self.CENTRES)  # the last position only


class TestOperatingPointBounds:
    """Magnitudes stay physical over the campaign operating grid."""

    @pytest.mark.parametrize("f", [25e9, 30e9, 300e9, 3e12, 5e12])
    def test_all_mechanisms_bounded_by_unity(self, f):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = rng.uniform(1.0, 499.0)
            r = rng.uniform(0.1, 50.0)
            debris = (x, r, 0.0)
            from debrisense.scene import incidence_angle, path_lengths
            s1, s2, d = path_lengths((0, 0, 0), (500, 0, 0), debris)
            for mat in (GLASS, METAL):
                theta = min(incidence_angle(s1, s2, d), math.pi / 2 - 1e-9)
                length_m = s1 * 1e3 + s2 * 1e3
                refl = reflected_response(f, length_m, theta, mat, Polarization.TE)
                assert abs(refl) <= 1.0
                geom = ScatterGeometry(theta1=theta, theta2=theta, theta3=0.7)
                sca = scattered_response(f, length_m, geom, mat, Polarization.TE)
                assert abs(sca) <= 1.0
                assert np.isfinite(abs(sca))
            diff = diffracted_response(f, x * 1e3, (500 - x) * 1e3, r * 1e3)
            assert abs(diff) <= 1.0
            assert abs(los_response(f, 5e5)) <= 1.0
