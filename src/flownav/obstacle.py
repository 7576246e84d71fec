"""Obstacle segmentation from flow residuals and the repulsive obstacle force.

The dominant ego-motion is modelled as a flat ground plane seen by a camera
moving forward: flow is radial about the FOE and its expansion rate grows
with the row offset below the horizon (one parameter, fitted by consensus).
Features whose radial flow overshoots that prediction sit closer than the
ground at their row; an Otsu split over the overshoots flags them as
obstacle-induced. The repulsive force reads a bool plane of disks around the
flags (see _splat). Its lateral part, the blurred plane's x-gradient summed
over a band of rows, is f_x = -1/area * u^T plane v: v is a lateral ramp
(|v| <= 0.017) with -/+0.496 spikes at the border columns, where the blur
clamps, and u weighs the clamped bottom and top rows most.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import imgproc
from .errors import DegenerateDistributionError

RESIDUAL_FLOOR = 1e-9
# the force's plane: image px / DECIM, flags as disks, rows from ROI_TOP down
DECIM = 8
SPLAT_RADIUS = 12.0
ROI_TOP = 100


@dataclass
class ObstacleMask:
    """Flagged points: positions (K, 2) as (x, y), their TTC (K,) in seconds
    and their indices (K,) into the flow field they came from."""

    points: np.ndarray
    ttc: np.ndarray
    index: np.ndarray


@dataclass
class RepulsiveForce:
    """Image-frame obstacle force: lateral steer component and TTC urgency."""

    f_x: float
    f_y: float


def ground_fit(pts, vs, foe):
    """Finite-displacement ground-plane expansion model.

    For a flat ground plane under forward camera motion, flow is radial
    about the FOE with magnitude dist * q*w / (1 - q*w), where dist is the
    pixel's FOE distance, w its row offset below the FOE (proportional to
    inverse depth) and q encodes the per-frame advance. q is estimated per
    point from the radial flow component and aggregated by consensus (see
    below), which shrugs off gross tracking failures. Returns the per-point
    excess: the positive radial overshoot (px) relative to the ground
    prediction — raised obstacles sit closer than the ground at their image
    row, so they overshoot; failed tracks undershoot and score 0.
    """
    dx = pts[:, 0] - foe.x_foe
    dy = pts[:, 1] - foe.y_foe
    dist = np.maximum(np.hypot(dx, dy), 1e-9)
    w = np.maximum(pts[:, 1] - foe.y_foe, 0.5)
    proj = (vs[:, 0] * dx + vs[:, 1] * dy) / dist      # signed radial flow
    r = np.maximum(proj / dist, 0.0)                   # relative expansion
    q = r / (w * (1.0 + r))
    # consensus fit: each per-point q is a candidate; score candidates by how
    # many points they predict within 1 px and keep the best (ties -> median
    # of the winning candidates). Stalled tracks undershoot by varying
    # fractions and never agree, while true ground points vote for the same
    # q, so the consensus is far more robust than a median over a bimodal q
    # distribution.
    denom_c = np.maximum(1.0 - np.outer(q, w), 0.05)   # (cand, point)
    pred_c = (dist * w) * q[:, None] / denom_c
    votes = np.sum(np.abs(pred_c - proj) < 1.0, axis=1)
    if len(q) == 0 or votes.max() < 0.5 * len(q):
        # no candidate explains a majority: the frame's flow is globally
        # unreliable, and residuals against a garbage fit would flag
        # arbitrary points — report a clean ground frame instead
        return np.zeros(len(q))
    q_fit = float(np.median(q[votes == votes.max()]))
    denom = np.maximum(1.0 - q_fit * w, 0.05)
    pred_mag = dist * q_fit * w / denom
    return np.maximum(proj - pred_mag, 0.0)


def _splat(width, height, points, radius):
    """width x height bool plane, True within radius of any (x, y) row of
    points."""
    ys, xs = np.mgrid[0:height, 0:width]
    d2 = ((xs - points[:, 0, None, None]) ** 2
          + (ys - points[:, 1, None, None]) ** 2)
    return (d2 <= radius * radius).any(axis=0)


def segment_obstacles(flow_field, foe, ttc, min_residual=0.0, ttc_default=100.0):
    """Split obstacle-induced flow from the ground-plane expansion field.

    The residual of each valid vector is its radial overshoot over the
    ground_fit prediction; undershooting (stalled) tracks score 0. Points
    above the Otsu split of the residuals are flagged and tagged with their
    TTC from ttc, the per-point array of egomotion.compute_ttc (ttc_default
    where it holds NaN or ttc is None). min_residual gates the Otsu
    threshold: if the split sits below it, the residual spread is treated as
    tracking noise and the mask stays empty.
    """
    index = np.flatnonzero(flow_field.valid)
    empty = ObstacleMask(np.empty((0, 2)), np.empty(0), index[:0])
    if len(index) == 0:
        return empty

    residual = ground_fit(flow_field.pts[index], flow_field.disp[index], foe)
    if residual.max() < RESIDUAL_FLOOR:
        return empty

    try:
        thr = imgproc.otsu_threshold(residual, bins=256)
    except DegenerateDistributionError:
        return empty
    if thr < min_residual:
        return empty

    index = index[residual > thr]
    t = np.full(len(index), np.nan) if ttc is None else ttc[index]
    return ObstacleMask(flow_field.pts[index],
                        np.where(np.isnan(t), ttc_default, t), index)


def _blur_weights(n):
    """(n, n) map of the clamp-to-edge Gaussian blur, sigma n/2, along an
    axis of n cells: row j holds the weight output j gives each source."""
    k = imgproc.gaussian_kernel(n / 2.0, int(np.ceil(1.5 * n)))
    j = np.arange(n)[:, None]
    t = np.zeros((n, n))
    np.add.at(t, (j, np.clip(j + np.arange(len(k)) - len(k) // 2, 0, n - 1)), k)
    return t


@functools.lru_cache(maxsize=16)
def force_weights(h, w, y0):
    """Read-only u (h,), v (w,) of f_x on an h x w plane (h, w >= 3) banded
    to rows y0..h-1: u sums the vertical blur's rows y0..h-1, and v is the
    band's x-gradient sum, telescoped to the outer columns of the blur tx."""
    ty, tx = _blur_weights(h), _blur_weights(w)
    u = ty[y0:].sum(axis=0)
    v = 1.5 * (tx[w - 1] - tx[0]) - 0.5 * (tx[w - 2] - tx[1])
    u.flags.writeable = v.flags.writeable = False
    return u, v


def repulsive_force(points, ttc, width, height, ttc_min=0.5):
    """Lateral push and TTC urgency of the flagged points (K, 2), in image
    px of a width x height frame, with TTCs ttc (K,).

    The points become disks of SPLAT_RADIUS on a bool plane (h, w) at 1/DECIM
    scale, banded to rows y0 = ROI_TOP/DECIM .. h-1. f_x = -1/area * u^T
    plane v (force_weights), area = w * (h - y0), steers toward +x when
    positive. On the 30 x 40 plane of a 320 x 240 frame, y0 = 12, v ramps
    over columns 1-38 (|v| <= 0.017) with spikes of -/+0.496 at columns 0
    and 39; u weighs rows 12-28 0.39-0.45, row 29 5.52, rows 1-11 0.21-0.38
    and row 0 1.85. f_y sums the band's inverse TTCs, floored at ttc_min.
    """
    pts = points / DECIM
    plane = _splat(width // DECIM, height // DECIM, pts, SPLAT_RADIUS / DECIM)
    y0 = ROI_TOP // DECIM
    h, w = plane.shape
    area = max(w * (h - y0), 1)
    u, v = force_weights(h, w, y0)
    fx = -1.0 / area * float(u @ plane @ v)
    x, y = pts[:, 0], pts[:, 1]
    t = 1.0 / np.maximum(ttc[(0 <= x) & (x < w) & (y0 <= y) & (y < h)],
                         ttc_min)
    # summed left to right, in the order of points
    urgency = float(np.cumsum(t)[-1]) if len(t) else 0.0
    fy = 1.0 / area * urgency
    return RepulsiveForce(fx, fy)
