import numpy as np
import pytest

from flownav import flow, imgproc
from flownav.errors import InvalidParameterError


def textured(h, w, seed):
    """Smooth random texture with enough gradient everywhere to track."""
    rng = np.random.default_rng(seed)
    coarse = rng.random((h // 4 + 2, w // 4 + 2))
    yy, xx = np.mgrid[0:h, 0:w]
    fy, fx = yy / 4.0, xx / 4.0
    y0, x0 = fy.astype(int), fx.astype(int)
    wy, wx = fy - y0, fx - x0
    img = (coarse[y0, x0] * (1 - wy) * (1 - wx)
           + coarse[y0, x0 + 1] * (1 - wy) * wx
           + coarse[y0 + 1, x0] * wy * (1 - wx)
           + coarse[y0 + 1, x0 + 1] * wy * wx)
    return img


def shifted(img, dx, dy):
    """Integer-shift with wraparound so texture statistics stay identical."""
    return np.roll(np.roll(img, dy, axis=0), dx, axis=1)


def grid_points(w, h, margin=30, step=16):
    return np.array([(x, y) for y in range(margin, h - margin, step)
                     for x in range(margin, w - margin, step)], dtype=np.float64)


def pyramid(img, levels=3):
    """flow.build_pyramid of img with its own gradient."""
    return flow.build_pyramid(img, imgproc.spatial_gradient(img), levels)


def track_images(prev, next_, points, levels=3, **kw):
    """flow.track from image prev to image next_ over fresh pyramids."""
    return flow.track(pyramid(prev, levels), pyramid(next_, levels), points,
                      **kw)


def pyramid_ref(img, levels):
    """The float64 levels: each is the previous one smoothed and halved."""
    pyr = [img]
    for _ in range(1, levels):
        sm = imgproc.smooth(pyr[-1], flow.PYRAMID_SIGMA, radius=2)
        pyr.append(sm[: sm.shape[0] // 2 * 2 : 2, : sm.shape[1] // 2 * 2 : 2])
    return pyr


class TestPyramid:
    def test_levels_and_sizes(self):
        img = np.zeros((128, 160))
        pyr = pyramid(img, 3)
        assert [[a.shape for a in lvl] for lvl in pyr] == [
            [(128, 160)] * 3, [(64, 80)] * 3, [(32, 40)] * 3]

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            pyramid(np.zeros((40, 40)), 3)

    def test_single_level_identity(self):
        img = np.full((20, 20), 0.3)
        (lvl,) = flow.build_pyramid(img, imgproc.spatial_gradient(img), 1)
        assert np.array_equal(lvl[0], img.astype(np.float32))

    def test_constant_preserved(self):
        pyr = pyramid(np.full((64, 64), 0.7), 3)
        for img, gx, gy in pyr:
            assert np.allclose(img, 0.7)
            assert not gx.any() and not gy.any()

    @pytest.mark.parametrize("shape", [(128, 160), (101, 75)])
    def test_levels_hold_float32_roundings(self, shape):
        # every level and its gradient as float32 roundings of the float64
        # chain, level 0's gradient as handed in
        img = textured(*shape, seed=14)
        pyr = pyramid(img, 3)
        for got, ref in zip(pyr, pyramid_ref(img, 3)):
            want = (ref, *imgproc.spatial_gradient(ref))
            for a, b in zip(got, want):
                assert a.dtype == np.float32
                assert np.array_equal(a, b.astype(np.float32))


def grid(xs, ys):
    """One point's float32 window axes from its column and row coordinates."""
    return (np.array([xs], dtype=np.float32), np.array([ys], dtype=np.float32))


class TestBilinear:
    def test_exact_at_integers(self):
        rng = np.random.default_rng(0)
        data = rng.random((8, 8))
        out = flow._sample(data, *grid([3.0], [5.0]))
        assert out[0, 0] == data[5, 3]

    def test_midpoint_average(self):
        data = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = flow._sample(data, *grid([0.5], [0.5]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_clamped_outside(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        xs = np.array([[-5.0], [10.0]], dtype=np.float32)
        ys = np.array([[-5.0], [10.0]], dtype=np.float32)
        out = flow._sample(data, xs, ys)
        assert out[0, 0] == 1.0 and out[1, 0] == 4.0


class TestTrack:
    def test_zero_motion(self):
        img = textured(96, 96, 1)
        pts = grid_points(96, 96)
        ff = track_images(img, img, pts, window=15, levels=2)
        vs = ff.disp[ff.valid]
        assert len(vs) == len(pts)
        assert np.abs(vs).max() < 0.05

    def test_known_integer_shift(self):
        base = textured(128, 128, 2)
        for dx, dy in [(2, 0), (0, 3), (-3, 2), (4, -4)]:
            prev = base
            next_ = shifted(base, dx, dy)
            pts = grid_points(128, 128)
            ff = track_images(prev, next_, pts, window=21, levels=3)
            vs = ff.disp[ff.valid]
            assert len(vs) >= len(pts) * 0.8
            err = np.hypot(vs[:, 0] - dx, vs[:, 1] - dy)
            assert np.median(err) < 0.25

    def test_subpixel_shift(self):
        h = w = 96
        yy, xx = np.mgrid[0:h, 0:w]
        def render(ox):
            return (0.5 + 0.25 * np.sin(2 * np.pi * (xx - ox) / 12.0)
                    + 0.25 * np.sin(2 * np.pi * yy / 14.0))
        prev, next_ = render(0.0), render(1.5)
        pts = grid_points(96, 96, margin=24, step=12)
        ff = track_images(prev, next_, pts, window=15, levels=2)
        vs = ff.disp[ff.valid]
        assert len(vs) > 0
        assert np.abs(np.median(vs[:, 0]) - 1.5) < 0.1
        assert np.abs(np.median(vs[:, 1])) < 0.1

    def test_flat_region_invalid(self):
        img = np.full((64, 64), 0.5)
        img[0:20, 0:20] = textured(20, 20, 3)
        ff = track_images(img, img, [(48.0, 48.0)], window=11, levels=2)
        assert not ff.valid[0]

    def test_window_outside_invalid(self):
        img = textured(64, 64, 4)
        ff = track_images(img, img, [(2.0, 2.0)], window=21, levels=2)
        assert not ff.valid[0]

    def test_origin_preserved_order(self):
        img = textured(64, 64, 5)
        pts = np.array([(30.0, 30.0), (40.0, 25.0)])
        ff = track_images(img, img, pts, window=11, levels=2)
        assert np.array_equal(ff.pts, pts)

    def test_bad_args(self):
        a = pyramid(np.zeros((64, 64)), 2)
        b = pyramid(np.zeros((64, 32)), 2)
        with pytest.raises(InvalidParameterError):
            flow.track(a, b, [(5, 5)])
        with pytest.raises(InvalidParameterError):
            flow.track(a, pyramid(np.zeros((64, 64)), 3), [(5, 5)])
        with pytest.raises(InvalidParameterError):
            flow.track(a, a, [(5, 5)], window=10)

    def test_empty_points(self):
        img = np.zeros((64, 64))
        ff = track_images(img, img, [])
        assert ff.pts.shape == ff.disp.shape == (0, 2)
        assert ff.valid.shape == (0,) and len(ff.vectors) == 0

    def test_vectors_view(self):
        # the record view other tools read: one row per point, read-only
        img = textured(64, 64, 5)
        ff = track_images(img, img, [(30.0, 30.0), (2.0, 2.0)], window=11, levels=2)
        rec = ff.vectors
        assert len(rec) == 2 and [bool(v.valid) for v in rec] == [True, False]
        assert np.array_equal(rec.x, ff.pts[:, 0])
        assert np.array_equal(rec.vy, ff.disp[:, 1])
        with pytest.raises(ValueError):
            rec.vx[0] = 1.0

    def test_frame_interval_passthrough(self):
        img = textured(64, 64, 6)
        ff = track_images(img, img, [], frame_interval=0.1)
        assert ff.frame_interval == 0.1


# Reference: per-sample bilinear LK as written before sampling became
# separable. Every coordinate, floor, fraction and flat index is computed
# for each of the m * window**2 samples. flow.track must return exactly
# the same displacements and valid flags.

def bilinear_ref(data, xs, ys):
    h, w = data.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    flat = data.ravel()
    b0 = y0 * w
    b1 = y1 * w
    top = flat.take(b0 + x0) * (1 - fx) + flat.take(b0 + x1) * fx
    bot = flat.take(b1 + x0) * (1 - fx) + flat.take(b1 + x1) * fx
    return top * (1 - fy) + bot * fy


def track_ref(prev, next_, points, window=25, epsilon=0.03, max_iters=30,
              levels=3):
    pyr_prev = pyramid_ref(prev, levels)
    pyr_next = pyramid_ref(next_, levels)
    grads = [imgproc.spatial_gradient(p) for p in pyr_prev]
    r = window // 2
    offs = np.arange(-r, r + 1, dtype=np.float32)
    off_x = np.tile(offs, window)
    off_y = np.repeat(offs, window)
    n = len(points)
    px = np.array([x for x, _ in points])
    py = np.array([y for _, y in points])
    d = np.zeros((n, 2))
    alive = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    for lvl in range(levels - 1, -1, -1):
        scale = 2.0 ** lvl
        data_p = pyr_prev[lvl].astype(np.float32)
        data_n = pyr_next[lvl].astype(np.float32)
        gx, gy = (g.astype(np.float32) for g in grads[lvl])
        h, w = data_p.shape
        cx = (px / scale).astype(np.float32)
        cy = (py / scale).astype(np.float32)
        d = d * 2.0 if lvl < levels - 1 else d
        inside = ((cx - r >= 0) & (cx + r <= w - 1)
                  & (cy - r >= 0) & (cy + r <= h - 1))
        if lvl == 0:
            alive &= inside
        do = alive & inside
        if not do.any():
            continue
        idx = np.nonzero(do)[0]
        sx = cx[idx, None] + off_x[None, :]
        sy = cy[idx, None] + off_y[None, :]
        patch_p = bilinear_ref(data_p, sx, sy)
        patch_gx = bilinear_ref(gx, sx, sy)
        patch_gy = bilinear_ref(gy, sx, sy)
        g11 = np.sum(patch_gx * patch_gx, axis=1)
        g12 = np.sum(patch_gx * patch_gy, axis=1)
        g22 = np.sum(patch_gy * patch_gy, axis=1)
        trace = g11 + g22
        lam_min = 0.5 * (trace - np.sqrt((g11 - g22) ** 2 + 4 * g12 * g12))
        good = lam_min >= flow.MIN_EIGEN
        if lvl == 0:
            alive[idx[~good]] = False
        det = np.where(good, g11 * g22 - g12 * g12, 1.0)
        dv = d[idx].astype(np.float32)
        active = good.copy()
        done = np.zeros(len(idx), dtype=bool)
        for _ in range(max_iters):
            if not active.any():
                break
            a = np.nonzero(active)[0]
            nx = sx[a] + dv[a, 0:1]
            ny = sy[a] + dv[a, 1:2]
            diff = patch_p[a] - bilinear_ref(data_n, nx, ny)
            b1 = np.sum(diff * patch_gx[a], axis=1)
            b2 = np.sum(diff * patch_gy[a], axis=1)
            ux = (g22[a] * b1 - g12[a] * b2) / det[a]
            uy = (-g12[a] * b1 + g11[a] * b2) / det[a]
            dv[a, 0] += ux
            dv[a, 1] += uy
            small = np.hypot(ux, uy) < epsilon
            done[a[small]] = True
            active[a[small]] = False
        d[idx] = dv
        if lvl == 0:
            ex = cx[idx] + dv[:, 0]
            ey = cy[idx] + dv[:, 1]
            dest_inside = ((ex - r >= 0) & (ex + r <= w - 1)
                           & (ey - r >= 0) & (ey + r <= h - 1))
            converged[idx] = done & good & dest_inside
    return d, alive & converged


class TestSampleParity:
    def test_random_windows(self):
        rng = np.random.default_rng(8)
        data = rng.random((150, 290)).astype(np.float32)
        offs = np.arange(-12, 13, dtype=np.float32)
        # centres inside, near and beyond every edge, at sub-pixel offsets
        cx = rng.uniform(-20, 310, 40).astype(np.float32)
        cy = rng.uniform(-20, 170, 40).astype(np.float32)
        xs = cx[:, None] + offs
        ys = cy[:, None] + offs
        ref = bilinear_ref(data, np.tile(xs, 25), np.repeat(ys, 25, axis=1))
        assert np.array_equal(flow._sample(data.astype(np.float64), xs, ys),
                              ref)

    def test_rows_spanning_window_plus_one(self):
        # 132 + offs spans rows 120..144 exactly. float32 spacing is 2**-17
        # below 128 and 2**-16 above, so adding dv = -2**-17 gives exactly
        # 120 - 2**-17 but rounds the tie 144 - 2**-17 to even, 144: the
        # floors span 25 rows and y1 reaches the 27th row from the first y0
        data = np.random.default_rng(9).random((160, 40)).astype(np.float32)
        offs = np.arange(-12, 13, dtype=np.float32)
        ys = (np.float32(132.0) + offs)[None, :] + np.float32(-2.0 ** -17)
        xs = (np.float32(20.25) + offs)[None, :]
        y0 = ys.astype(np.intp)
        assert y0[0, -1] - y0[0, 0] == 25
        ref = bilinear_ref(data, np.tile(xs, 25), np.repeat(ys, 25, axis=1))
        assert np.array_equal(flow._sample(data.astype(np.float64), xs, ys),
                              ref)


class TestTrackParity:
    """flow.track against track_ref, bit for bit."""

    H, W = 176, 256

    def pair(self, dx, dy, seed=11):
        base = textured(self.H, self.W, seed)
        return base, shifted(base, dx, dy)

    def check(self, prev, next_, pts, **kw):
        got = track_images(prev, next_, pts, **kw)
        d, valid = track_ref(prev, next_, pts, **kw)
        assert np.array_equal(bits(got.pts), bits(np.asarray(pts, dtype=float)))
        assert np.array_equal(bits(got.disp), bits(d))
        assert np.array_equal(got.valid, valid)
        return got

    def test_integer_corners(self):
        prev, next_ = self.pair(3, -2)
        pts = grid_points(self.W, self.H, margin=20, step=23)
        got = self.check(prev, next_, pts)
        assert got.valid.sum() >= len(pts) * 0.8

    def test_float_points_as_in_backward_call(self):
        prev, next_ = self.pair(-2, 1)
        fwd = track_images(prev, next_, grid_points(self.W, self.H, step=29))
        targets = (fwd.pts + fwd.disp)[fwd.valid]
        assert (targets[:, 0] != targets[:, 0].astype(int)).any()
        got = self.check(next_, prev, targets)
        assert got.valid.all()

    def test_windows_straddling_128(self):
        prev, next_ = self.pair(2, 2)
        pts = [(x, y) for x in (120.0, 127.6, 128.0, 133.3)
               for y in (60.0, 121.5, 128.0, 134.7)]
        self.check(prev, next_, pts)

    def waves(self, ox, oy):
        """Smooth waves moved by (ox, oy) px; LK follows them far."""
        yy, xx = np.mgrid[0:self.H, 0:self.W]
        x, y = xx - ox, yy - oy
        return (0.5 + 0.2 * np.sin(2 * np.pi * x / 83)
                + 0.15 * np.sin(2 * np.pi * y / 71)
                + 0.1 * np.sin(2 * np.pi * (x + y) / 57 + 1.0))

    def test_clamped_at_each_border(self):
        # each point's window fits with 4 px to spare and moves 8 px toward
        # one edge: the displaced window samples clamped pixels there
        r = 12
        cases = [((-8, 0), (r + 4.0, 80.0)),
                 ((8, 0), (self.W - 1 - r - 4.0, 80.0)),
                 ((0, -8), (100.0, r + 4.0)),
                 ((0, 8), (100.0, self.H - 1 - r - 4.0))]
        for (dx, dy), p in cases:
            got = self.check(self.waves(0, 0), self.waves(dx, dy),
                             [p, (120.0, 90.0)])
            ex, ey = got.pts[0] + got.disp[0]
            assert not (r <= ex <= self.W - 1 - r and r <= ey <= self.H - 1 - r)
            assert not got.valid[0] and got.valid[1]

    def test_shift_leaving_the_frame(self):
        # waves moving 24 px right: points near the right edge follow them
        # out of the frame, where every sample is clamped
        pts = [(x, y) for x in (150.0, 200.0, 230.0)
               for y in (40.0, 90.0, 140.0)]
        got = self.check(self.waves(0, 0), self.waves(24, 0), pts)
        assert got.valid.tolist() == [True] * 6 + [False] * 3
        assert (got.pts[6:, 0] + got.disp[6:, 0] + 12 > self.W - 1).all()

    def test_flat_patch_rejected(self):
        img = np.full((self.H, self.W), 0.5)
        img[:, :100] = textured(self.H, 100, 12)
        prev = img
        next_ = shifted(img, 1, 0)
        got = self.check(prev, next_, [(50.0, 80.0), (200.0, 80.0)])
        assert got.valid.tolist() == [True, False]

    @pytest.mark.parametrize("window,levels", [(15, 2), (15, 3), (25, 2),
                                               (25, 3)])
    def test_window_and_levels(self, window, levels):
        prev, next_ = self.pair(-3, 2, seed=13)
        pts = grid_points(self.W, self.H, margin=10, step=19)
        pts = np.concatenate([pts, pts[::3] + (0.37, -0.61)])
        self.check(prev, next_, pts, window=window, levels=levels)


class TestTrackBlocks:
    """flow.track samples and sums a block of at most _TRACK_BLOCK window
    samples (B points of a 25 x 25 window) at a time; every point count
    about a block edge equals track_ref bit for bit."""

    H, W = 176, 256
    B = flow._TRACK_BLOCK // 25 ** 2

    def points(self, n, whole):
        rng = np.random.default_rng(n)
        pts = np.column_stack([rng.uniform(14, self.W - 15, n),
                               rng.uniform(14, self.H - 15, n)])
        return np.round(pts) if whole else pts

    def check(self, pts):
        base = textured(self.H, self.W, 17)
        prev, next_ = base, shifted(base, 2, -1)
        got = track_images(prev, next_, pts)
        d, valid = track_ref(prev, next_, pts)
        assert np.array_equal(bits(got.disp), bits(d))
        assert np.array_equal(got.valid, valid)
        assert valid.sum() >= 0.8 * len(pts)

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 150])
    @pytest.mark.parametrize("whole", [True, False])
    def test_point_counts_about_a_block(self, n, whole):
        # whole-pixel points are read directly at level 0, as the forward
        # call's corners are; fractional ones are sampled at every level
        assert self.B > 1
        self.check(self.points(n, whole))

    def test_blocks_of_three_points(self, monkeypatch):
        # many blocks, whose members converge at different iterations
        monkeypatch.setattr(flow, "_TRACK_BLOCK", 3 * 25 ** 2)
        self.check(self.points(40, False))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestWholePixelWindows:
    """flow._patches reads windows centred on whole pixels straight from the
    image, bit for bit as _sample blends them, and falls back to _sample
    where the zero-fraction blend is not the pixel itself."""

    R = 12

    def windows(self, cx, cy):
        offs = np.arange(-self.R, self.R + 1, dtype=np.float32)
        cx = np.asarray(cx, dtype=np.float32)
        cy = np.asarray(cy, dtype=np.float32)
        return cx, cy, cx[:, None] + offs, cy[:, None] + offs

    def direct(self, data, cx, cy):
        """Each window's own pixels, row-major, with no blend at all."""
        offs = np.arange(-self.R, self.R + 1)
        rows = cy.astype(int)[:, None, None] + offs[:, None]
        cols = cx.astype(int)[:, None, None] + offs
        return data[rows, cols].reshape(len(cx), -1)

    def image(self):
        # signed values and +0.0 pixels, as in a gradient image
        data = np.random.default_rng(21).uniform(-1, 1, (60, 80))
        data[::3, ::4] = 0.0
        return data

    def test_clean_image_read_directly(self, monkeypatch):
        data = self.image()
        cx, cy, xs, ys = self.windows([12, 40, 67, 12], [12, 30, 47, 47])
        corners = flow._whole_pixel_corners(cx, cy, self.R)
        ref = flow._sample(data, xs, ys)
        assert np.array_equal(bits(self.direct(data, cx, cy)), bits(ref))

        def no_sample(*args):
            raise AssertionError("sampled a clean image")
        monkeypatch.setattr(flow, "_sample", no_sample)
        assert np.array_equal(bits(flow._patches(data, xs, ys, corners)),
                              bits(ref))

    def test_fractional_centre_has_no_corners(self):
        cx, cy, _, _ = self.windows([12, 40.5], [12, 30])
        assert flow._whole_pixel_corners(cx, cy, self.R) is None

    @pytest.mark.parametrize("bad", [None, -0.0, np.nan])
    def test_float32_reads_as_its_float64_widening(self, bad):
        # pyramid levels are float32: read directly or sampled, every
        # window equals that of the widened image, bit for bit
        data = self.image().astype(np.float32)
        if bad is not None:
            data[25, 30], data[25, 31] = bad, 0.5
        cx, cy, xs, ys = self.windows([20, 50], [20, 35])
        wide = data.astype(np.float64)
        for corners in (flow._whole_pixel_corners(cx, cy, self.R), None):
            with np.errstate(invalid="ignore"):
                got = flow._patches(data, xs, ys, corners)
                ref = flow._patches(wide, xs, ys, corners)
            assert got.dtype == np.float64
            assert np.array_equal(bits(got), bits(ref))

    @pytest.mark.parametrize("bad", [-0.0, np.inf, -np.inf, np.nan])
    def test_falls_back_where_direct_read_differs(self, bad):
        data = self.image()
        cx, cy, xs, ys = self.windows([20, 50], [20, 35])
        if bad == 0:
            # inside the first window, with a positive right neighbour: the
            # blend adds +0.0 and returns +0.0
            data[25, 30], data[25, 31] = bad, 0.5
        else:
            # one column right of the second window: only the blend reads it
            data[35, 50 + self.R + 1] = bad
        corners = flow._whole_pixel_corners(cx, cy, self.R)
        with np.errstate(invalid="ignore"):     # inf * 0 in the blend
            ref = flow._sample(data, xs, ys)
            got = flow._patches(data, xs, ys, corners)
        assert not np.array_equal(bits(self.direct(data, cx, cy)), bits(ref))
        assert np.array_equal(bits(got), bits(ref))
