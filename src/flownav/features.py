"""Shi-Tomasi corner detection (min-eigenvalue response)."""

import math

import numpy as np

from . import imgproc
from .errors import InvalidParameterError

# Structure-tensor window: 5x5 Gaussian weighting.
WINDOW_SIGMA = 1.5
WINDOW_RADIUS = 2
BORDER_MARGIN = 3
# pixels per strip of the response: two strips cover the closed loop's band
# of 190 rows, and a strip's structure-tensor temporaries stay near 2 MB
_RESPONSE_BLOCK = 1 << 15
# gradient rows read above and below a strip, more than WINDOW_RADIUS
_RESPONSE_PAD = 5


def corner_response(gx, gy):
    """Min eigenvalue of the structure tensor of gradient (gx, gy) at every
    pixel."""
    k = imgproc.gaussian_kernel(WINDOW_SIGMA, WINDOW_RADIUS)

    def win(a):
        out = imgproc.convolve(a, k, "horizontal")
        return imgproc.convolve(out, k, "vertical")

    sxx = win(gx * gx)
    sxy = win(gx * gy)
    syy = win(gy * gy)
    trace = sxx + syy
    delta = np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    lam_min = 0.5 * (trace - delta)
    return np.maximum(lam_min, 0.0)


def detect_corners(grad, max_corners=400, quality_level=0.005, min_distance=7,
                   row_range=None):
    """Select strong, well-separated corners of the image whose gradient is
    grad = (gx, gy), sorted by descending score.

    Returns an (N, 2) float64 array of (x, y) pixel positions.

    row_range optionally limits detection to rows [lo, hi) — e.g. to skip a
    featureless sky band.

    The response is formed in strips of whole prefilter cells of at most
    _RESPONSE_BLOCK pixels, each from the gradient rows it spans padded by
    _RESPONSE_PAD, and reduced to its cells' best pixels at once; only the
    per-cell best scores and positions cover the frame.
    """
    gx, gy = grad
    h, w = gx.shape
    if w < 7 or h < 7:
        raise InvalidParameterError("image must be at least 7x7")
    if not 0.0 < quality_level <= 1.0:
        raise InvalidParameterError("quality_level must be in (0, 1]")

    # rows and columns that may hold a corner; the response is zero elsewhere
    m = BORDER_MARGIN
    lo, hi = (0, h) if row_range is None else row_range
    lo, hi = max(lo, m), min(hi, h - m)
    # prefilter: keep only the best pixel of each cell of side
    # min_distance/sqrt(2), anchored at (0, 0), ties to the lowest row, then
    # the lowest column — any two points in such a cell conflict anyway, so
    # this is exactly equivalent to the full greedy suppression
    pre = max(1, int(min_distance / math.sqrt(2.0)))
    nh, nw = -(-h // pre), -(-w // pre)
    best = np.zeros((nh, nw))
    arg = np.zeros((nh, nw), dtype=np.intp)
    for cells in imgproc.blocks(lo // pre, -(-hi // pre), pre * w,
                                _RESPONSE_BLOCK):
        a, b = cells.start * pre, cells.stop * pre
        ra, rb = max(a, lo), min(b, hi)
        # the response at a pixel reads the gradient within WINDOW_RADIUS
        # rows, so a crop padded by more than that is exact on rows [ra, rb)
        y0 = max(ra - _RESPONSE_PAD, 0)
        sub = corner_response(gx[y0:rb + _RESPONSE_PAD],
                              gy[y0:rb + _RESPONSE_PAD])
        resp = np.zeros((b - a, nw * pre))
        resp[ra - a:rb - a, m:w - m] = sub[ra - y0:rb - y0, m:w - m]
        del sub
        resp = resp.reshape(-1, pre, nw, pre).swapaxes(1, 2).reshape(
            -1, nw, pre * pre)
        arg[cells] = resp.argmax(axis=2)
        best[cells] = resp.max(axis=2)

    max_score = best.max()
    if max_score <= 0.0:
        return np.empty((0, 2))
    cy, cx = np.nonzero(best >= quality_level * max_score)
    arg = arg[cy, cx]
    ys, xs = cy * pre + arg // pre, cx * pre + arg % pre
    # deterministic ordering: score desc, then row/col
    order = np.lexsort((xs, ys, -best[cy, cx]))
    ys, xs = ys[order], xs[order]

    # greedy NMS on a coarse occupancy grid, over Python ints (numpy
    # scalars would make each step of the loop several times slower)
    cell = max(1, int(min_distance))
    occupied = {}
    picked = []
    min_d2 = float(min_distance) ** 2
    for x, y in zip(xs.tolist(), ys.tolist()):
        cx, cy = x // cell, y // cell
        ok = True
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for px, py in occupied.get((nx, ny), ()):
                    if (px - x) ** 2 + (py - y) ** 2 < min_d2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            picked.append((x, y))
            occupied.setdefault((cx, cy), []).append((x, y))
            if len(picked) >= max_corners:
                break
    return np.array(picked, dtype=np.float64).reshape(-1, 2)
