"""Focus-of-expansion estimation and per-point time-to-contact."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InsufficientFlowError

MIN_CONSTRAINTS = 8
MAX_CONDITION = 1e6


@dataclass
class FoeEstimate:
    x_foe: float
    y_foe: float
    condition: float
    n_constraints: int


def estimate_foe(flow_field, min_speed=0.5):
    """Least-squares flow-line intersection.

    Each valid vector with |v| >= min_speed contributes one row
    [v_y, -v_x] . FOE = x*v_y - y*v_x, normalized to unit flow direction so
    fast and slow vectors constrain the intersection equally (flow noise is
    roughly proportional to flow magnitude, so this whitens the residuals);
    the 2x2 normal equations are solved directly and the normal-matrix
    condition number is recorded.
    """
    pts, vs = flow_field.pts, flow_field.disp
    keep = flow_field.valid & (np.hypot(vs[:, 0], vs[:, 1]) >= min_speed)
    pts, vs = pts[keep], vs[keep]
    if len(pts) < MIN_CONSTRAINTS:
        raise InsufficientFlowError(
            f"need >= {MIN_CONSTRAINTS} flow vectors at |v| >= {min_speed}, got {len(pts)}")

    inv_speed = 1.0 / np.maximum(np.hypot(vs[:, 0], vs[:, 1]), 1e-12)
    a = np.column_stack([vs[:, 1], -vs[:, 0]]) * inv_speed[:, None]
    b = (pts[:, 0] * vs[:, 1] - pts[:, 1] * vs[:, 0]) * inv_speed
    ata = a.T @ a
    atb = a.T @ b
    sv = np.linalg.svd(ata, compute_uv=False)
    cond = float("inf") if sv[1] == 0.0 else float(sv[0] / sv[1])
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise DegenerateGeometryError(f"flow field near-parallel (condition {cond:.3g})")
    foe = np.linalg.solve(ata, atb)
    return FoeEstimate(float(foe[0]), float(foe[1]), cond, len(pts))


def compute_ttc(flow_field, foe, exclusion_radius=10.0, ttc_max=100.0):
    """TTC per point of flow_field: distance to FOE over flow magnitude, in
    seconds, clamped to ttc_max.

    Returns an (N,) array aligned with the field; it holds NaN where there is
    no TTC: invalid vectors, points inside the exclusion radius (noisy flow
    near the FOE) and points with zero flow.
    """
    pts, vs = flow_field.pts, flow_field.disp
    dist = np.hypot(pts[:, 0] - foe.x_foe, pts[:, 1] - foe.y_foe)
    mag = np.hypot(vs[:, 0], vs[:, 1])
    ok = flow_field.valid & (dist > exclusion_radius) & (mag != 0.0)
    ttc = np.full(len(pts), np.nan)
    ttc[ok] = np.minimum(dist[ok] / mag[ok] * flow_field.frame_interval, ttc_max)
    return ttc


class FoeSmoother:
    """Exponential moving average over FOE positions across frames."""

    def __init__(self, factor=0.7):
        self.factor = factor
        self._state = None

    def update(self, foe):
        if self._state is None:
            self._state = (foe.x_foe, foe.y_foe)
        else:
            f = self.factor
            self._state = (f * self._state[0] + (1 - f) * foe.x_foe,
                           f * self._state[1] + (1 - f) * foe.y_foe)
        return FoeEstimate(self._state[0], self._state[1], foe.condition, foe.n_constraints)
