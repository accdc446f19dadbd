"""Scene generation and path-geometry tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debrisense.constants import SPEED_OF_LIGHT
from debrisense.errors import ConfigError, GeometryError
from debrisense.scene import (DebrisClass, LinkGeometry, SceneConfig,
                              diffraction_excess_path, ellipsoid_volume_km3,
                              excess_delay, generate_scene, incidence_angle,
                              path_lengths, perpendicular_clearance,
                              scene_to_text)


def make_config(density, debris_class=DebrisClass.SMOOTH_GLASS,
                semi=(250.0, 50.0, 50.0)):
    geom = LinkGeometry(distance_km=500.0, velocity_km_s=7.0)
    return SceneConfig(geometry=geom, density_per_km3=density,
                       debris_class=debris_class if density > 0 else None,
                       semi_axes_km=semi)


class TestGenerateScene:
    def test_zero_density_gives_empty_field(self):
        scene = generate_scene(make_config(0.0), seed=3)
        assert scene.objects == ()

    def test_expected_count_matches_poisson_mean(self):
        # lambda = density * (4/3)*pi*250*50*50 ~= 2.618
        cfg = make_config(1e-6, semi=(250.0, 50.0, 50.0))
        lam = 1e-6 * ellipsoid_volume_km3((250.0, 50.0, 50.0))
        assert lam == pytest.approx(2.617993877991494, rel=1e-12)
        n_seeds = 3000
        counts = [len(generate_scene(cfg, seed=s).objects) for s in range(n_seeds)]
        mc_sigma = math.sqrt(lam / n_seeds)
        assert abs(np.mean(counts) - lam) < 3 * mc_sigma

    def test_same_seed_reproduces_object_list(self):
        cfg = make_config(1e-6)
        a = generate_scene(cfg, seed=11)
        b = generate_scene(cfg, seed=11)
        assert a.objects == b.objects
        assert scene_to_text(a) == scene_to_text(b)

    def test_objects_inside_ellipsoid(self):
        cfg = make_config(1e-5, semi=(250.0, 50.0, 50.0))
        scene = generate_scene(cfg, seed=5)
        assert len(scene.objects) > 0
        centre = np.array([250.0, 0.0, 0.0])
        axes = np.array([250.0, 50.0, 50.0])
        for obj in scene.objects:
            u = (np.array(obj.position_km) - centre) / axes
            assert float(np.sum(u * u)) <= 1.0 + 1e-12

    def test_negative_density_rejected(self):
        with pytest.raises(ConfigError):
            make_config(-1.0)

    def test_nan_density_rejected(self):
        with pytest.raises(ConfigError):
            make_config(float("nan"))


class TestPathLengths:
    def test_midpoint_is_collinear_case(self):
        s1, s2, d = path_lengths((0, 0, 0), (500, 0, 0), (250, 0, 0))
        assert (s1, s2, d) == (250.0, 250.0, 500.0)

    def test_offset_debris_hand_value(self):
        s1, s2, d = path_lengths((0, 0, 0), (500, 0, 0), (250, 10, 0))
        expected = math.sqrt(250.0 ** 2 + 10.0 ** 2)
        assert s1 == pytest.approx(expected, rel=1e-15)
        assert s2 == pytest.approx(expected, rel=1e-15)
        assert d == 500.0

    def test_debris_at_endpoint_is_degenerate(self):
        with pytest.raises(GeometryError):
            path_lengths((0, 0, 0), (500, 0, 0), (0, 0, 0))

    def test_coincident_link_endpoints_degenerate(self):
        with pytest.raises(GeometryError):
            path_lengths((1, 2, 3), (1, 2, 3), (5, 5, 5))

    @given(st.tuples(*[st.floats(-400, 400) for _ in range(3)]))
    @settings(max_examples=60)
    def test_triangle_inequality(self, debris):
        if np.allclose(debris, (0, 0, 0)) or np.allclose(debris, (500, 0, 0)):
            return
        s1, s2, d = path_lengths((0, 0, 0), (500, 0, 0), debris)
        assert s1 + s2 >= d - 1e-9 * d


class TestIncidenceAngle:
    def test_equilateral_gives_thirty_degrees(self):
        assert incidence_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_collinear_debris_gives_ninety_degrees(self):
        # d = s1 + s2 makes the arccos argument exactly -1
        assert incidence_angle(200.0, 300.0, 500.0) == pytest.approx(math.pi / 2)

    def test_far_collinear_limit_gives_zero(self):
        # s2 = s1 + d is the other collinear extreme (argument +1)
        assert incidence_angle(100.0, 600.0, 500.0) == pytest.approx(0.0, abs=1e-9)

    def test_violation_beyond_tolerance_rejected(self):
        with pytest.raises(GeometryError):
            incidence_angle(1.0, 1.0, 2.1)

    def test_tiny_overshoot_clamped(self):
        theta = incidence_angle(1.0, 1.0, 2.0 * (1 + 1e-12))
        assert theta == pytest.approx(math.pi / 2)

    def test_monotone_toward_grazing_in_direct_distance(self):
        # growing d at fixed legs flattens the relay triangle: the incidence
        # drifts from normal (0) toward grazing (pi/2), matching the
        # equilateral=30deg and collinear=90deg endpoints
        s1, s2 = 300.0, 280.0
        ds = np.linspace(50.0, s1 + s2 - 1.0, 40)
        thetas = [incidence_angle(s1, s2, d) for d in ds]
        assert all(a <= b for a, b in zip(thetas, thetas[1:]))


class TestDelays:
    def test_zero_excess_on_direct_path(self):
        assert excess_delay(200.0, 300.0, 500.0) == 0.0

    def test_hand_value_100km_excess(self):
        # 100 km of extra path at c
        assert excess_delay(300.0, 300.0, 500.0) == pytest.approx(
            1e5 / SPEED_OF_LIGHT, rel=1e-12)

    def test_hand_value_20km_excess(self):
        assert excess_delay(260.0, 260.0, 500.0) == pytest.approx(
            2e4 / SPEED_OF_LIGHT, rel=1e-12)

    def test_negative_excess_rejected(self):
        with pytest.raises(GeometryError):
            excess_delay(100.0, 100.0, 500.0)

    def test_diffraction_zero_clearance(self):
        assert diffraction_excess_path(0.0, 250.0, 250.0) == 0.0

    def test_diffraction_hand_value(self):
        assert diffraction_excess_path(1.0, 250.0, 250.0) == pytest.approx(4e-6,
                                                                           rel=1e-12)

    def test_diffraction_quadratic_in_clearance(self):
        d1 = diffraction_excess_path(1.0, 250.0, 250.0)
        d2 = diffraction_excess_path(2.0, 250.0, 250.0)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-12)


class TestPerpendicularClearance:
    def test_three_four_five_triangle(self):
        h_m, s1, s2 = perpendicular_clearance((0, 0, 0), (500, 0, 0), (100, 3, 4))
        assert h_m == pytest.approx(5000.0, rel=1e-12)
        assert s1 == pytest.approx(100.0)
        assert s2 == pytest.approx(400.0)

    def test_projection_outside_segment_returns_none(self):
        assert perpendicular_clearance((0, 0, 0), (500, 0, 0), (600, 3, 0)) is None
        assert perpendicular_clearance((0, 0, 0), (500, 0, 0), (-1, 3, 0)) is None

