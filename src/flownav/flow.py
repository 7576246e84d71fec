"""Pyramidal Lucas-Kanade sparse optical flow."""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import imgproc
from .errors import InvalidParameterError

PYRAMID_SIGMA = 1.0
MIN_EIGEN = 1e-6
# window samples per block of points: a block's sampling temporaries stay
# under 1 MB, about 52 points of a 25 x 25 window
_TRACK_BLOCK = 1 << 15


@dataclass
class FlowField:
    """Sparse flow over one frame pair: origins pts (N, 2) as (x, y),
    displacements disp (N, 2) in px per pair and a valid (N,) flag each."""

    pts: np.ndarray
    disp: np.ndarray
    valid: np.ndarray
    frame_interval: float = 1.0 / 60.0

    @property
    def vectors(self):
        """Read-only record view with fields x, y, vx, vy and valid."""
        rec = np.rec.fromarrays([self.pts[:, 0], self.pts[:, 1], self.disp[:, 0],
                                 self.disp[:, 1], self.valid],
                                names="x,y,vx,vy,valid")
        rec.flags.writeable = False
        return rec


def build_pyramid(img, grad, levels):
    """Pyramid of img, whose gradient is grad = (gx, gy): a tuple of
    `levels` triples (image, gx, gy), finest first, each array kept as the
    float32 rounding that LK samples. Level 0 is the input; each next level
    is smoothed and halved (floor), and its gradient taken."""
    if levels < 1:
        raise InvalidParameterError("levels must be >= 1")
    pyr = []
    for lvl in range(levels):
        if lvl:
            nh, nw = img.shape[0] // 2, img.shape[1] // 2
            if nw < 16 or nh < 16:
                raise InvalidParameterError(
                    f"level {lvl} would be {nw}x{nh}; coarsest level must be >= 16x16")
            sm = imgproc.smooth(img, PYRAMID_SIGMA, radius=2)
            img = np.ascontiguousarray(sm[: 2 * nh : 2, : 2 * nw : 2])
            grad = imgproc.spatial_gradient(img)
        pyr.append(tuple(a.astype(np.float32) for a in (img, *grad)))
    return tuple(pyr)


def _axis(c, n):
    """Clamp float32 sample coordinates c to [0, n-1]; return the integer
    index below, the one above (clamped) and the float64 fraction."""
    c = np.clip(c, 0.0, n - 1.0)
    i0 = c.astype(np.intp)          # c >= 0, so truncation == floor
    return i0, np.minimum(i0 + 1, n - 1), c - i0


def _sample(data, xs, ys):
    """Clamped bilinear samples of an image on per-point grids, blended in
    float64 (a float32 pixel widens to float64 exactly).

    xs (m, win) holds each point's window-column x and ys (m, win) its
    window-row y, both float32 and increasing in steps of about 1 px.
    Returns (m, win*win) samples, row-major over (row, column), each blended
    as (T[y0,x0](1-fx) + T[y0,x1]fx)(1-fy) + (T[y1,x0](1-fx) + T[y1,x1]fx)fy.

    The horizontal blend is done once per source row. float32 rounding
    moves a coordinate by less than 2**-13 px on images under 512 px, so the
    floors of one window's rows span at most win rows; with y1 <= y0 + 1, a
    point reads at most win + 2 source rows from its first y0.
    """
    h, w = data.shape
    m, win = xs.shape
    x0, x1, fx = _axis(xs, w)
    y0, y1, fy = _axis(ys, h)
    first = y0[:, :1]
    # flat indices (win+2, m, win) of source rows first, first+1, ...; rows
    # past the bottom edge clip to the last pixel and are never picked
    idx = (first * w + x0) + (np.arange(win + 2) * w)[:, None, None]
    flat = data.ravel()
    rows = flat.take(idx, mode="clip").astype(np.float64, copy=False)
    rows *= 1 - fx
    idx += x1 - x0
    right = flat.take(idx, mode="clip")
    del idx
    right = right.astype(np.float64, copy=False)
    right *= fx
    rows += right
    del right
    # window row j of point i blends source rows y0 and y1, found at
    # (y - first) * m + i in the (win+2)*m stacked rows
    rows = rows.reshape(-1, win)
    at = np.arange(m)[:, None] - first * m
    out = rows.take(y0 * m + at, axis=0)
    out *= (1 - fy)[:, :, None]
    bot = rows.take(y1 * m + at, axis=0)
    bot *= fy[:, :, None]
    out += bot
    return out.reshape(m, win * win)


def _whole_pixel_corners(cx, cy, r):
    """(rows, cols) of the top-left pixel of each window centred on (cx, cy),
    or None unless every centre is a whole pixel."""
    x0, y0 = cx.astype(np.intp), cy.astype(np.intp)
    if not ((x0 == cx).all() and (y0 == cy).all()):
        return None
    return y0 - r, x0 - r


def _patches(data, xs, ys, corners):
    """Window samples of data exactly as _sample(data, xs, ys) gives them
    (float64), read straight from the pixels when the windows sit on whole
    pixels (`corners`, see _whole_pixel_corners) and that is exact.

    Sampled windows are formed a block of at most _TRACK_BLOCK samples at a
    time; each point's samples are its own, so blocks change no result.

    With zero fractions _sample blends (T*1 + T'*0)*1 + (...)*0, which is T
    unless T is -0.0 (a +0.0 term makes it +0.0) or a neighbour it reads is
    not finite (its zero weight makes a NaN); an image holding either is
    sampled.
    """
    m, win = xs.shape
    if (corners is not None and np.isfinite(data).all()
            and not (np.signbit(data) & (data == 0)).any()):
        return sliding_window_view(data, (win, win))[corners].reshape(
            m, win * win).astype(np.float64, copy=False)
    out = np.empty((m, win * win))
    for blk in imgproc.blocks(0, m, win * win, _TRACK_BLOCK):
        out[blk] = _sample(data, xs[blk], ys[blk])
    return out


def _dots(x, y, buf, out):
    """Row sums of x * y into out, the products formed in the first rows of
    buf: each sums as np.sum(x * y, axis=1) does."""
    p = buf[:len(x)]
    np.multiply(x, y, out=p)
    p.sum(axis=1, out=out)


def _compact(arrays, keep):
    """Replace each array of the list by its rows keep, one at a time, so
    that at most one array is held twice."""
    for k in range(len(arrays)):
        arrays[k] = arrays[k][keep]


def track(prev_pyr, next_pyr, points, window=25, epsilon=0.03, max_iters=30,
          frame_interval=1.0 / 60.0):
    """Coarse-to-fine iterative LK solve, from the image of prev_pyr to that
    of next_pyr (see build_pyramid), for each of points, an (N, 2) array of
    (x, y); returns a FlowField over them in the same order.

    Points whose window leaves the finest image, or whose normal matrix is
    near-singular, or that fail to converge, are marked invalid.

    Sampling is separable in its coordinates: a window sample's x depends
    only on its column and its y only on its row, so coordinates, floors and
    fractions are computed per window row and column (see _sample). At
    level 0, windows centred on whole pixels (the forward call's corners)
    are read straight from the pixels (see _patches).

    Windows are sampled, and their normal-equation sums formed, a block of
    at most _TRACK_BLOCK samples at a time, the products in one reused
    buffer; the working set of points still iterating is compacted one
    array at a time. Only the template windows of a level are held for
    every point, so a call's temporaries stay a few MB.
    """
    levels = len(prev_pyr)
    if len(next_pyr) != levels or prev_pyr[0][0].shape != next_pyr[0][0].shape:
        raise InvalidParameterError("pyramids differ in frame size or depth")
    if window % 2 == 0:
        raise InvalidParameterError("window must be odd")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(points)
    if not n:
        return FlowField(points, np.zeros((0, 2)), np.zeros(0, dtype=bool),
                         frame_interval)

    r = window // 2
    offs = np.arange(-r, r + 1, dtype=np.float32)

    px, py = points[:, 0], points[:, 1]
    d = np.zeros((n, 2))                   # displacement, current-level units
    alive = np.ones(n, dtype=bool)         # conditioning ok so far
    converged = np.zeros(n, dtype=bool)

    for lvl in range(levels - 1, -1, -1):
        scale = 2.0 ** lvl
        h, w = prev_pyr[lvl][0].shape

        cx = (px / scale).astype(np.float32)
        cy = (py / scale).astype(np.float32)
        d = d * 2.0 if lvl < levels - 1 else d

        inside = (cx - r >= 0) & (cx + r <= w - 1) & (cy - r >= 0) & (cy + r <= h - 1)
        if lvl == 0:
            alive &= inside
        do = alive & inside
        if not do.any():
            continue
        idx = np.nonzero(do)[0]

        sx = cx[idx, None] + offs[None, :]    # (m, win): x of each column
        sy = cy[idx, None] + offs[None, :]    # (m, win): y of each row
        # level 0 of the forward call holds whole-pixel corners
        corners = _whole_pixel_corners(cx[idx], cy[idx], r) if lvl == 0 else None
        patch_p, patch_gx, patch_gy = (        # (m, win*win), float64
            _patches(a, sx, sy, corners) for a in prev_pyr[lvl])
        data_n = next_pyr[lvl][0]
        blocks = imgproc.blocks(0, len(idx), window * window, _TRACK_BLOCK)
        prod = np.empty((blocks[0].stop, window * window))
        g11, g12, g22 = (np.empty(len(idx)) for _ in range(3))
        for blk in blocks:
            _dots(patch_gx[blk], patch_gx[blk], prod, g11[blk])
            _dots(patch_gx[blk], patch_gy[blk], prod, g12[blk])
            _dots(patch_gy[blk], patch_gy[blk], prod, g22[blk])
        trace = g11 + g22
        lam_min = 0.5 * (trace - np.sqrt((g11 - g22) ** 2 + 4 * g12 * g12))
        good = lam_min >= MIN_EIGEN
        if lvl == 0:
            alive[idx[~good]] = False
        det = g11 * g22 - g12 * g12

        dv = d[idx].astype(np.float32)
        done = np.zeros(len(idx), dtype=bool)
        # working set of the points still iterating, compacted only when
        # some of them converge, one array at a time (nothing writes into
        # it, so it may alias)
        a = np.nonzero(good)[0]
        ws = [sx, sy, patch_p, patch_gx, patch_gy, g11, g12, g22, det]
        del patch_p, patch_gx, patch_gy
        if not good.all():
            _compact(ws, a)
        for _ in range(max_iters):
            if not a.size:
                break
            wsx, wsy, wp, wgx, wgy, w11, w12, w22, wdet = ws
            b1, b2 = np.empty(a.size), np.empty(a.size)
            for blk in imgproc.blocks(0, a.size, window * window,
                                      _TRACK_BLOCK):
                ab = a[blk]
                diff = _sample(data_n, wsx[blk] + dv[ab, 0:1],
                               wsy[blk] + dv[ab, 1:2])
                np.subtract(wp[blk], diff, out=diff)
                _dots(diff, wgx[blk], prod, b1[blk])
                _dots(diff, wgy[blk], prod, b2[blk])
            del wp, wgx, wgy, diff    # not held twice while compacting
            ux = (w22 * b1 - w12 * b2) / wdet
            uy = (-w12 * b1 + w11 * b2) / wdet
            dv[a, 0] += ux
            dv[a, 1] += uy
            small = np.hypot(ux, uy) < epsilon
            if small.any():
                done[a[small]] = True
                keep = np.flatnonzero(~small)
                a = a[keep]
                _compact(ws, keep)
        d[idx] = dv
        if lvl == 0:
            # displaced window must also stay inside the frame — clamped
            # sampling at the border silently corrupts the solve
            ex = cx[idx] + dv[:, 0]
            ey = cy[idx] + dv[:, 1]
            dest_inside = ((ex - r >= 0) & (ex + r <= w - 1)
                           & (ey - r >= 0) & (ey + r <= h - 1))
            converged[idx] = done & good & dest_inside

    return FlowField(points, d, alive & converged, frame_interval)
