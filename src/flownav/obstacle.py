"""Obstacle segmentation from flow residuals and the repulsive obstacle force.

The dominant ego-motion is modelled as a flat ground plane seen by a camera
moving forward: flow is radial about the FOE and its expansion rate grows
with the row offset below the horizon (one parameter, fitted by consensus).
Features whose radial flow overshoots that prediction sit closer than the
ground at their row; an Otsu split over the overshoots flags them as
obstacle-induced, and they are rasterized into a binary obstacle plane.
"""

from dataclasses import dataclass

import numpy as np

from . import imgproc
from .errors import DegenerateDistributionError
from .imgproc import BinaryImage

RESIDUAL_FLOOR = 1e-9


@dataclass
class ObstacleMask:
    plane: BinaryImage
    points: list  # (FeaturePoint, residual px/frame, ttc seconds)

    @property
    def empty(self):
        return not self.points


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
    plane = np.zeros((height, width), dtype=bool)
    r = int(np.ceil(radius))
    for fp, _res, _ttc in points:
        x0 = max(int(fp.x) - r, 0)
        x1 = min(int(fp.x) + r + 1, width)
        y0 = max(int(fp.y) - r, 0)
        y1 = min(int(fp.y) + r + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        plane[y0:y1, x0:x1] |= (xs - fp.x) ** 2 + (ys - fp.y) ** 2 <= radius * radius
    return plane


def segment_obstacles(flow_field, foe, ttc_map, splat_radius, width, height,
                      min_residual=0.0, ttc_default=100.0):
    """Split obstacle-induced flow from the ground-plane expansion field.

    The residual of each valid vector is its radial overshoot over the
    ground_fit prediction; undershooting (stalled) tracks score 0. Points
    above the Otsu split of the residuals are flagged, tagged with their
    TTC (ttc_default when ttc_map has none) and splatted with splat_radius
    into a width x height plane. min_residual gates the Otsu threshold: if
    the split sits below it, the residual spread is treated as tracking
    noise and the mask stays empty.
    """
    pts, vs = flow_field.valid_arrays()
    empty = ObstacleMask(BinaryImage(np.zeros((height, width), dtype=bool)), [])
    if len(pts) == 0:
        return empty

    residual = ground_fit(pts, vs, foe)
    if residual.max() < RESIDUAL_FLOOR:
        return empty

    try:
        thr = imgproc.otsu_threshold(residual, bins=256)
    except DegenerateDistributionError:
        return empty
    if thr < min_residual:
        return empty

    ttc_by_pos = ttc_map.lookup() if ttc_map is not None else {}
    flagged = []
    valid_vecs = [v for v in flow_field.vectors if v.valid]
    for vec, res in zip(valid_vecs, residual):
        if res > thr:
            ttc = ttc_by_pos.get((vec.origin.x, vec.origin.y), ttc_default)
            flagged.append((vec.origin, float(res), ttc))
    if not flagged:
        return empty
    return ObstacleMask(BinaryImage(_splat(width, height, flagged, splat_radius)), flagged)


def obstacle_gradient(mask, sigma=None, radius=None):
    """Gradient of the Gaussian-smoothed obstacle plane.

    Default sigma is half the plane width (x pass) and half the height
    (y pass). Returns (gx, gy) float fields.
    """
    plane = mask.plane.mask.astype(np.float64)
    h, w = plane.shape
    if not plane.any():
        return np.zeros((h, w)), np.zeros((h, w))
    sx = sigma if sigma is not None else w / 2.0
    sy = sigma if sigma is not None else h / 2.0
    rx = radius if radius is not None else min(int(np.ceil(3 * sx)), 2 * w)
    ry = radius if radius is not None else min(int(np.ceil(3 * sy)), 2 * h)
    img = imgproc.GrayImage(plane)
    sm = imgproc.convolve(img, imgproc.gaussian_kernel(sx, rx), "horizontal")
    sm = imgproc.convolve(sm, imgproc.gaussian_kernel(sy, ry), "vertical")
    return imgproc.spatial_gradient(sm)


def repulsive_force(mask, gradient, roi, gamma=1.0, ttc_min=0.5, raw_ttc=False):
    """Aggregate the smoothed-plane gradient and TTC urgency over a ROI.

    roi is (x0, y0, x1, y1), half-open. f_x > 0 means "steer toward +x"
    (image x grows rightward): the x-gradient sum is negated so the lateral
    component points away from the obstacle mass. f_y sums inverse TTC by
    default; raw_ttc reproduces the plain TTC sum instead.
    """
    x0, y0, x1, y1 = roi
    area = max((x1 - x0) * (y1 - y0), 1)
    gx, _gy = gradient
    fx = -gamma / area * float(np.sum(gx[y0:y1, x0:x1]))
    urgency = 0.0
    for fp, _res, ttc in mask.points:
        if x0 <= fp.x < x1 and y0 <= fp.y < y1:
            urgency += ttc if raw_ttc else 1.0 / max(ttc, ttc_min)
    fy = gamma / area * urgency
    return RepulsiveForce(fx, fy)
