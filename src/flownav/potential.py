"""Visual potential field: target attraction, road Morse field with FOE-driven
curvature switching, and total-force composition in global coordinates.

Frames
------
global:  world X/Y, yaw psi measured counterclockwise from X.
motion:  vehicle body frame, X forward, Y left; identity with global at psi=0.
road:    the Morse-field plane; x longitudinal, y lateral with +y toward the
         right road boundary (the boundary offsets c0_right/c0_left are +5.25
         and -8.75). Converting a road-plane gradient into the motion frame
         flips the lateral sign.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .obstacle import RepulsiveForce

EXP_CLIP = 250.0  # caps Morse exponents so the squared term stays finite


class Curvature(Enum):
    STRAIGHT = "straight"
    CURVE_LEFT = "curve_left"
    CURVE_RIGHT = "curve_right"


@dataclass(frozen=True)
class ForceVector:
    fx: float
    fy: float
    frame: str  # image | motion | global

    @property
    def magnitude(self):
        return math.hypot(self.fx, self.fy)


@dataclass(frozen=True)
class RoadFieldParams:
    """Morse road-field constants (depth, variance, boundary polynomials)."""

    depth: float = 0.5            # A
    variance: float = 1.0         # b
    c2_straight: float = 0.005
    c2_curve: float = 5e-6        # magnitude; sign set by curve direction
    c1: float = 0.0
    c0_left: float = -8.75
    c0_right: float = 5.25
    delta_x: float = 1.0e-10
    n_straight: int = 1
    n_curve: int = 2

    def curve_coeffs(self, curvature):
        """(c2, n) for the boundary polynomials under the given curvature."""
        if curvature is Curvature.STRAIGHT:
            return self.c2_straight, self.n_straight
        mag = abs(self.c2_curve)
        c2 = mag if curvature is Curvature.CURVE_LEFT else -mag
        return c2, self.n_curve

    @property
    def valley_offset(self):
        """Lateral position of the field minimum (midpoint of the boundaries)."""
        return 0.5 * (self.c0_left + self.c0_right)


def attractive_force(pos, goal, alpha):
    """Goal attraction: magnitude alpha * distance, pointing at the goal."""
    if alpha <= 0:
        raise InvalidParameterError("alpha must be positive")
    dx = goal[0] - pos[0]
    dy = goal[1] - pos[1]
    return ForceVector(alpha * dx, alpha * dy, "global")


def classify_curvature(foe, frame_width, center_band=0.1):
    """FOE inside the center band means the road ahead is straight."""
    center = frame_width / 2.0
    if abs(foe.x_foe - center) <= center_band * frame_width:
        return Curvature.STRAIGHT
    return Curvature.CURVE_LEFT if foe.x_foe < center else Curvature.CURVE_RIGHT


def lane_boundaries(x, curvature, params):
    """Right/left boundary offsets y_r, y_l at longitudinal position x."""
    c2, n = params.curve_coeffs(curvature)
    xs = x + params.delta_x
    base = c2 * xs ** n + params.c1 * xs
    return base + params.c0_right, base + params.c0_left


def road_potential(pos, curvature, params):
    """Morse road potential at a road-plane point (x, y).

    Each boundary contributes depth*(1 -/+ exp(±b*sign(y-y_b)*d))^2 where d is
    the distance along the line perpendicular to the lane center; for straight
    roads this collapses to the 1-D Morse form in y.
    """
    x, y = pos
    a = params.depth
    b = params.variance
    c2, _n = params.curve_coeffs(curvature)
    xs = x + params.delta_x
    y_r, y_l = lane_boundaries(x, curvature, params)
    # slope of the perpendicular to the lane center; delta_x keeps it finite
    m = -1.0 / (2.0 * c2 * xs + params.c1)
    # with b_y = y_r - m*xs, the perpendicular offset term reduces to (y-y_r)/m
    d_r = math.hypot((y - y_r) / m, y_r - y)
    d_l = math.hypot((y - y_r) / m, y_l - y)
    e_r = np.clip(-b * np.sign(y - y_r) * d_r, -EXP_CLIP, EXP_CLIP)
    e_l = np.clip(b * np.sign(y - y_l) * d_l, -EXP_CLIP, EXP_CLIP)
    u_r = a * (1.0 - math.exp(e_r)) ** 2
    u_l = a * (1.0 - math.exp(e_l)) ** 2
    return u_r + u_l


def road_force(pos, curvature, params, h=1e-4):
    """Finite-difference road-field gradient, expressed in the motion frame.

    The lateral component is the road-plane dU/dy with its sign flipped
    (road +y is rightward, motion +Y is leftward); the total-force composition
    subtracts this force, which pushes the vehicle back toward the valley.
    """
    if h <= 0:
        raise InvalidParameterError("step h must be positive")
    x, y = pos
    du_dx = (road_potential((x + h, y), curvature, params)
             - road_potential((x - h, y), curvature, params)) / (2 * h)
    du_dy = (road_potential((x, y + h), curvature, params)
             - road_potential((x, y - h), curvature, params)) / (2 * h)
    return ForceVector(du_dx, -du_dy, "motion")


def _rotate_global_to_motion(fx, fy, psi):
    c, s = math.cos(psi), math.sin(psi)
    return c * fx + s * fy, -s * fx + c * fy


def _rotate_motion_to_global(fx, fy, psi):
    c, s = math.cos(psi), math.sin(psi)
    return c * fx - s * fy, s * fx + c * fy


def total_force(f_att, f_obs, f_road, lambda_x=1.0, lambda_y=1.0, psi=0.0,
                k_img=1.0):
    """Compose attraction, obstacle repulsion and road force in the motion
    frame, then rotate the total into global coordinates.

    The image-frame obstacle force maps as: lateral f_x -> motion Y scaled by
    k_img, TTC urgency f_y -> longitudinal deceleration demand. With zero
    obstacle and road forces the result is exactly f_att.
    """
    if lambda_x <= 0 or lambda_y <= 0:
        raise InvalidParameterError("lambda weights must be positive")
    ax, ay = _rotate_global_to_motion(f_att.fx, f_att.fy, psi)
    if f_obs is None:
        f_obs = RepulsiveForce(0.0, 0.0)
    ox = f_obs.f_y              # urgency opposes forward motion (subtracted)
    oy = k_img * f_obs.f_x
    tx = ax - ox - lambda_x * f_road.fx
    ty = ay - oy - lambda_y * f_road.fy
    gx, gy = _rotate_motion_to_global(tx, ty, psi)
    return ForceVector(gx, gy, "global")
