import math

import numpy as np
import pytest

from flownav import potential
from flownav.egomotion import FoeEstimate
from flownav.errors import InvalidParameterError
from flownav.obstacle import RepulsiveForce
from flownav.potential import (Curvature, ForceVector, RoadFieldParams,
                               attractive_force, classify_curvature,
                               lane_boundaries, road_force, road_potential,
                               total_force)


PARAMS = RoadFieldParams()


def slope_fit_gradient(f, x0, y0, h=1e-3):
    """Gradient oracle: slope of a least-squares line through 5 samples."""
    offs = np.array([-2, -1, 0, 1, 2]) * h
    fx = np.array([f(x0 + o, y0) for o in offs])
    fy = np.array([f(x0, y0 + o) for o in offs])
    gx = np.polyfit(offs, fx, 1)[0]
    gy = np.polyfit(offs, fy, 1)[0]
    return gx, gy


class TestAttractiveForce:
    def test_points_at_goal(self):
        f = attractive_force((0.0, 0.0), (10.0, 0.0), alpha=0.5)
        assert f.frame == "global"
        assert f.fx == pytest.approx(5.0) and f.fy == 0.0

    def test_magnitude_alpha_times_distance(self):
        f = attractive_force((1.0, 2.0), (4.0, 6.0), alpha=2.0)
        assert f.magnitude == pytest.approx(2.0 * 5.0)

    def test_zero_at_goal(self):
        f = attractive_force((3.0, 3.0), (3.0, 3.0), alpha=1.0)
        assert f.magnitude == 0.0

    def test_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            attractive_force((0, 0), (1, 1), alpha=0.0)


class TestClassifyCurvature:
    def test_center_is_straight(self):
        foe = FoeEstimate(160.0, 95.0, 1.0, 10)
        assert classify_curvature(foe, 320) is Curvature.STRAIGHT

    def test_band_edges_inclusive(self):
        assert classify_curvature(FoeEstimate(128.0, 95.0, 1, 10), 320) is Curvature.STRAIGHT
        assert classify_curvature(FoeEstimate(192.0, 95.0, 1, 10), 320) is Curvature.STRAIGHT

    def test_left_right(self):
        assert classify_curvature(FoeEstimate(100.0, 95.0, 1, 10), 320) is Curvature.CURVE_LEFT
        assert classify_curvature(FoeEstimate(220.0, 95.0, 1, 10), 320) is Curvature.CURVE_RIGHT


class TestLaneBoundaries:
    def test_straight_at_origin(self):
        y_r, y_l = lane_boundaries(0.0, Curvature.STRAIGHT, PARAMS)
        assert y_r == pytest.approx(5.25, abs=1e-6)
        assert y_l == pytest.approx(-8.75, abs=1e-6)

    def test_straight_linear_in_x(self):
        y_r0, _ = lane_boundaries(0.0, Curvature.STRAIGHT, PARAMS)
        y_r1, _ = lane_boundaries(100.0, Curvature.STRAIGHT, PARAMS)
        assert y_r1 - y_r0 == pytest.approx(0.005 * 100.0, abs=1e-6)

    def test_curve_quadratic(self):
        y_r, _ = lane_boundaries(200.0, Curvature.CURVE_LEFT, PARAMS)
        assert y_r == pytest.approx(5.25 + 5e-6 * 200.0 ** 2, abs=1e-4)
        y_r2, _ = lane_boundaries(200.0, Curvature.CURVE_RIGHT, PARAMS)
        assert y_r2 == pytest.approx(5.25 - 5e-6 * 200.0 ** 2, abs=1e-4)

    def test_constant_width(self):
        for x in (0.0, 50.0, 300.0):
            y_r, y_l = lane_boundaries(x, Curvature.CURVE_LEFT, PARAMS)
            assert y_r - y_l == pytest.approx(14.0, abs=1e-9)


class TestRoadPotential:
    def test_minimum_at_valley(self):
        v = PARAMS.valley_offset
        u0 = road_potential((0.0, v), Curvature.STRAIGHT, PARAMS)
        for dy in (-3.0, -1.0, 1.0, 3.0):
            assert road_potential((0.0, v + dy), Curvature.STRAIGHT, PARAMS) > u0

    def test_walls_rise_steeply(self):
        u_in = road_potential((0.0, 0.0), Curvature.STRAIGHT, PARAMS)
        u_out = road_potential((0.0, 8.0), Curvature.STRAIGHT, PARAMS)
        assert u_out > u_in + 1.0

    def test_finite_far_outside(self):
        u = road_potential((0.0, 500.0), Curvature.STRAIGHT, PARAMS)
        assert np.isfinite(u)

    def test_valley_much_lower_than_boundaries(self):
        u_valley = road_potential((0.0, PARAMS.valley_offset), Curvature.STRAIGHT,
                                  PARAMS)
        u_r = road_potential((0.0, 5.25), Curvature.STRAIGHT, PARAMS)
        u_l = road_potential((0.0, -8.75), Curvature.STRAIGHT, PARAMS)
        # boundary walls are exp(2*b*half_width) ~ e^14 above the valley floor
        assert u_r > 100 * u_valley and u_l > 100 * u_valley


class TestRoadForce:
    def test_matches_slope_fit_oracle(self):
        rng = np.random.default_rng(0)
        for curv in Curvature:
            for _ in range(50):
                x = rng.uniform(0.0, 300.0)
                y = rng.uniform(-8.0, 4.5)

                def u(xx, yy):
                    return road_potential((xx, yy), curv, PARAMS)

                gx, gy = slope_fit_gradient(u, x, y)
                f = road_force((x, y), curv, PARAMS)
                scale = max(abs(gx), abs(gy), 1e-6)
                assert abs(f.fx - gx) / scale < 1e-3
                assert abs(-f.fy - gy) / scale < 1e-3

    def test_sign_pushes_back_to_valley(self):
        # right of the valley (road +y): dU/dy > 0, so the returned motion-frame
        # lateral component is negative; total_force subtracts it, yielding a
        # net push toward the valley.
        f = road_force((0.0, PARAMS.valley_offset + 2.0), Curvature.STRAIGHT, PARAMS)
        assert f.frame == "motion"
        assert f.fy < 0
        f2 = road_force((0.0, PARAMS.valley_offset - 2.0), Curvature.STRAIGHT, PARAMS)
        assert f2.fy > 0

    def test_small_at_valley(self):
        # residual slope at the valley bottom is tiny compared to the walls
        v = PARAMS.valley_offset + 0.005 * 10.0
        f0 = road_force((10.0, v), Curvature.STRAIGHT, PARAMS)
        f2 = road_force((10.0, v + 2.0), Curvature.STRAIGHT, PARAMS)
        assert abs(f0.fy) < 0.05 * abs(f2.fy)

    def test_bad_step(self):
        with pytest.raises(InvalidParameterError):
            road_force((0, 0), Curvature.STRAIGHT, PARAMS, h=0.0)


class TestTotalForce:
    ZERO_ROAD = ForceVector(0.0, 0.0, "motion")

    def test_attraction_only_passthrough(self):
        f_att = ForceVector(3.0, 4.0, "global")
        out = total_force(f_att, None, self.ZERO_ROAD, psi=0.7)
        assert out.frame == "global"
        assert out.fx == pytest.approx(3.0) and out.fy == pytest.approx(4.0)

    def test_obstacle_lateral_mapping(self):
        # obstacle on image left -> f_x > 0 (steer right). At psi=0 motion Y is
        # global Y; subtracting k_img*f_x from motion Y pushes global -Y (right).
        f_att = ForceVector(1.0, 0.0, "global")
        f_obs = RepulsiveForce(0.5, 0.0)
        out = total_force(f_att, f_obs, self.ZERO_ROAD, k_img=2.0)
        assert out.fy == pytest.approx(-1.0)
        assert out.fx == pytest.approx(1.0)

    def test_obstacle_urgency_opposes_forward(self):
        f_att = ForceVector(1.0, 0.0, "global")
        f_obs = RepulsiveForce(0.0, 0.3)
        out = total_force(f_att, f_obs, self.ZERO_ROAD)
        assert out.fx == pytest.approx(0.7)

    def test_road_force_weighted_and_subtracted(self):
        f_att = ForceVector(0.0, 0.0, "global")
        f_road = ForceVector(0.2, -0.4, "motion")
        out = total_force(f_att, None, f_road, lambda_x=2.0, lambda_y=3.0)
        assert out.fx == pytest.approx(-0.4)
        assert out.fy == pytest.approx(1.2)

    def test_rotation_consistency(self):
        # a pure motion-frame force rotates by psi into global coordinates
        f_att = ForceVector(0.0, 0.0, "global")
        f_obs = RepulsiveForce(0.0, -1.0)   # -urgency => +1 forward in motion
        psi = 0.6
        out = total_force(f_att, f_obs, self.ZERO_ROAD, psi=psi)
        assert out.fx == pytest.approx(math.cos(psi))
        assert out.fy == pytest.approx(math.sin(psi))

    def test_bad_lambda(self):
        with pytest.raises(InvalidParameterError):
            total_force(ForceVector(1, 0, "global"), None, self.ZERO_ROAD,
                        lambda_x=0.0)


class TestParamsValidation:
    def test_valley_offset(self):
        assert PARAMS.valley_offset == pytest.approx(-1.75)
