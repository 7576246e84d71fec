import math

import numpy as np
import pytest

from flownav import vehicle
from flownav.errors import InvalidParameterError, NoDirectionError
from flownav.potential import ForceVector
from flownav.vehicle import (ControlCommand, VehicleParams, VehicleState,
                             desired_heading, longitudinal_command,
                             rotational_manifold, slip_angle, steer_command,
                             step, wrap_angle)


P = VehicleParams()


class TestWrapAngle:
    def test_in_range(self):
        for a in np.linspace(-20, 20, 401):
            w = wrap_angle(a)
            assert -math.pi <= w < math.pi
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)

    def test_identity_inside(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)
        assert wrap_angle(-math.pi) == pytest.approx(-math.pi)


class TestSlipAngle:
    def test_zero_steer(self):
        assert slip_angle(0.0, P) == 0.0

    def test_symmetric(self):
        assert slip_angle(0.3, P) == pytest.approx(-slip_angle(-0.3, P))

    def test_equal_split(self):
        # l_f == l_r: tan(beta) = tan(delta)/2
        beta = slip_angle(0.4, P)
        assert math.tan(beta) == pytest.approx(math.tan(0.4) / 2.0)


class TestYawRate:
    def test_kinematic_formula(self):
        beta = slip_angle(0.3, P)
        assert vehicle.yaw_rate(4.0, 0.3, P) == pytest.approx(
            4.0 * math.cos(beta) * math.tan(0.3) / P.wheelbase)

    def test_zero_when_straight_or_stopped(self):
        assert vehicle.yaw_rate(5.0, 0.0, P) == 0.0
        assert vehicle.yaw_rate(0.0, 0.3, P) == 0.0

    def test_step_turns_by_yaw_rate(self):
        s2 = step(VehicleState(v=5.0, delta_f=0.2), ControlCommand(0.0, 0.0),
                  P, 0.01)
        assert s2.psi == pytest.approx(vehicle.yaw_rate(5.0, 0.2, P) * 0.01,
                                       rel=1e-12)


class TestStep:
    def test_straight_line(self):
        s = VehicleState(v=5.0)
        s2 = step(s, ControlCommand(0.0, 0.0), P, 0.01)
        assert s2.x == pytest.approx(0.05)
        assert s2.y == 0.0 and s2.psi == 0.0

    def test_turning_radius_circle(self):
        # constant steer: trajectory is a circle of radius L / tan(delta) * ...
        params = VehicleParams()
        delta = 0.2
        s = VehicleState(v=5.0, delta_f=delta)
        beta = slip_angle(delta, params)
        # yaw rate = v cos(beta) tan(delta) / L -> radius = v / yaw_rate
        yaw_rate = 5.0 * math.cos(beta) * math.tan(delta) / params.wheelbase
        r_pred = 5.0 / yaw_rate
        dt = 1e-4
        states = [s]
        for _ in range(20000):
            states.append(step(states[-1], ControlCommand(0.0, 0.0), params, dt))
        xs = np.array([st.x for st in states])
        ys = np.array([st.y for st in states])
        # fit a circle (Kasa method) and compare radius
        a_mat = np.column_stack([2 * xs, 2 * ys, np.ones_like(xs)])
        b = xs ** 2 + ys ** 2
        cx, cy, c = np.linalg.lstsq(a_mat, b, rcond=None)[0]
        r_fit = math.sqrt(c + cx ** 2 + cy ** 2)
        assert r_fit == pytest.approx(abs(r_pred), rel=1e-3)

    def test_euler_order_one_convergence(self):
        # halving dt should roughly halve the error vs a fine reference
        params = VehicleParams()
        cmd = ControlCommand(0.3, 0.5)

        def integrate(dt, t_end=0.5):
            s = VehicleState(v=4.0)
            for _ in range(round(t_end / dt)):
                s = step(s, cmd, params, dt)
            return s

        ref = integrate(1e-5)
        e1 = abs(integrate(0.02).x - ref.x) + abs(integrate(0.02).y - ref.y)
        e2 = abs(integrate(0.01).x - ref.x) + abs(integrate(0.01).y - ref.y)
        assert 1.5 < e1 / e2 < 2.5

    def test_steer_clamped(self):
        s = VehicleState()
        s2 = step(s, ControlCommand(100.0, 0.0), P, 0.1)
        assert s2.delta_f == pytest.approx(P.delta_0)
        s3 = step(s, ControlCommand(-100.0, 0.0), P, 0.1)
        assert s3.delta_f == pytest.approx(-P.delta_0)

    def test_speed_floor(self):
        s = VehicleState(v=0.1)
        s2 = step(s, ControlCommand(0.0, -5.0), P, 0.1)
        assert s2.v == 0.0

    def test_yaw_wraps(self):
        s = VehicleState(psi=math.pi - 1e-3, v=5.0, delta_f=0.3)
        s2 = step(s, ControlCommand(0.0, 0.0), P, 0.05)
        assert -math.pi <= s2.psi < math.pi

    def test_bad_dt(self):
        with pytest.raises(InvalidParameterError):
            step(VehicleState(), ControlCommand(0, 0), P, 0.0)
        with pytest.raises(InvalidParameterError):
            step(VehicleState(), ControlCommand(0, 0), P, 0.2)


class TestDesiredHeading:
    def test_cardinal_directions(self):
        assert desired_heading(ForceVector(1.0, 0.0, "global")) == 0.0
        assert desired_heading(ForceVector(0.0, 1.0, "global")) == pytest.approx(math.pi / 2)
        assert desired_heading(ForceVector(-1.0, 0.0, "global")) == pytest.approx(-math.pi)

    def test_zero_force(self):
        with pytest.raises(NoDirectionError):
            desired_heading(ForceVector(0.0, 0.0, "global"))


class TestManifoldsAndCommands:
    def test_rotational_manifold_value(self):
        s = rotational_manifold(psi=0.3, psi_d=0.1, psi_dot=0.05, psi_d_dot=0.0,
                                c_r=2.0)
        assert s == pytest.approx(2.0 * 0.2 + 0.05)

    def test_heading_error_wrapped(self):
        s = rotational_manifold(psi=math.pi - 0.1, psi_d=-math.pi + 0.1,
                                psi_dot=0.0, psi_d_dot=0.0, c_r=1.0)
        assert s == pytest.approx(-0.2)

    def test_bad_cr(self):
        with pytest.raises(InvalidParameterError):
            rotational_manifold(0, 0, 0, 0, c_r=0.0)

    def test_steer_saturates(self):
        assert steer_command(10.0, P) == pytest.approx(-P.u_0)
        assert steer_command(-10.0, P) == pytest.approx(P.u_0)

    def test_steer_linear_in_band(self):
        s = 0.5 * P.phi_band
        assert steer_command(s, P) == pytest.approx(-P.u_0 * 0.5)

    def test_pure_sign_mode(self):
        params = VehicleParams(pure_sign=True)
        assert steer_command(1e-9, params) == -params.u_0
        assert steer_command(-1e-9, params) == params.u_0
        assert steer_command(0.0, params) == 0.0

    def test_longitudinal_tracks_speed(self):
        assert longitudinal_command(0.0, P.v_d, P) == pytest.approx(P.a_0)
        assert longitudinal_command(10.0, P.v_d, P) == pytest.approx(-P.a_0)

    def test_speed_converges(self):
        params = VehicleParams()
        s = VehicleState(v=0.0)
        for _ in range(1000):
            a = longitudinal_command(s.v, params.v_d, params)
            s = step(s, ControlCommand(0.0, a), params, 1 / 60)
        assert s.v == pytest.approx(params.v_d, abs=0.1)

    def test_heading_reaches_manifold(self):
        # from a 45-degree heading error the sliding surface should be reached
        # and the heading regulated toward the target
        params = VehicleParams()
        s = VehicleState(psi=math.pi / 4, v=5.0)
        psi_d = 0.0
        dt = 1 / 60
        prev_psi = s.psi
        for _ in range(600):
            psi_dot = (s.v * math.cos(slip_angle(s.delta_f, params))
                       * math.tan(s.delta_f) / params.wheelbase)
            sr = rotational_manifold(s.psi, psi_d, psi_dot, 0.0, params.c_r)
            u = steer_command(sr, params)
            s = step(s, ControlCommand(u, 0.0), params, dt)
            prev_psi = s.psi
        assert abs(wrap_angle(s.psi - psi_d)) < 0.05
