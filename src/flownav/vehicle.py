"""Kinematic bicycle model and the gradient-tracking sliding-mode controller."""

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, NoDirectionError


def wrap_angle(a):
    """Wrap into [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class VehicleState:
    x: float = 0.0
    y: float = 0.0
    psi: float = 0.0
    v: float = 0.0
    delta_f: float = 0.0


@dataclass
class VehicleParams:
    l_f: float = 1.25
    l_r: float = 1.25
    delta_0: float = math.radians(40.0)   # steering limit
    u_0: float = 0.6                      # steering-rate amplitude, rad/s
    a_0: float = 2.0                      # acceleration amplitude, m/s^2
    c_r: float = 2.0                      # rotational manifold constant
    c_l: float = 1.0                      # longitudinal manifold constant
    v_d: float = 5.55                     # reference speed, m/s (~20 km/h)
    phi_band: float = 0.05                # boundary-layer half-width
    pure_sign: bool = False               # discontinuous switching law

    @property
    def wheelbase(self):
        return self.l_f + self.l_r


@dataclass(frozen=True)
class ControlCommand:
    u: float  # steering rate, rad/s
    a: float  # acceleration, m/s^2


def slip_angle(delta_f, params):
    return math.atan(params.l_r * math.tan(delta_f) / params.wheelbase)


def yaw_rate(v, delta_f, params):
    """Bicycle yaw rate v*cos(beta)*tan(delta_f)/wheelbase, rad/s."""
    beta = slip_angle(delta_f, params)
    return v * math.cos(beta) * math.tan(delta_f) / params.wheelbase


def step(state, cmd, params, dt):
    """Explicit Euler step of the bicycle kinematics.

    Steering integrates first (then clamps); speed clamps at zero; yaw wraps.
    """
    if dt <= 0 or dt > 0.1:
        raise InvalidParameterError("dt must be in (0, 0.1] s")
    delta = state.delta_f + cmd.u * dt
    delta = max(-params.delta_0, min(params.delta_0, delta))
    beta = slip_angle(delta, params)
    x = state.x + state.v * math.cos(state.psi + beta) * dt
    y = state.y + state.v * math.sin(state.psi + beta) * dt
    psi = wrap_angle(state.psi + yaw_rate(state.v, delta, params) * dt)
    v = max(0.0, state.v + cmd.a * dt)
    return VehicleState(x, y, psi, v, delta)


def desired_heading(force):
    """Heading of the global force vector, in [-pi, pi)."""
    if force.magnitude <= 1e-9:
        raise NoDirectionError("force too small to define a heading")
    return wrap_angle(math.atan2(force.fy, force.fx))


def rotational_manifold(psi, psi_d, psi_dot, psi_d_dot, c_r):
    if c_r <= 0:
        raise InvalidParameterError("c_r must be positive")
    psi_e = wrap_angle(psi - psi_d)
    return c_r * psi_e + (psi_dot - psi_d_dot)


def _switch(s, params):
    """Saturated sign law: linear inside the boundary layer, +/-1 outside."""
    if params.pure_sign:
        return 0.0 if s == 0.0 else math.copysign(1.0, s)
    return max(-1.0, min(1.0, s / params.phi_band))


def steer_command(s_r, params):
    return -params.u_0 * _switch(s_r, params)


def longitudinal_command(v, v_d, params):
    s_l = params.c_l * v - v_d
    return -params.a_0 * _switch(s_l, params)
