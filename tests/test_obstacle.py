import numpy as np
import pytest

from flownav import egomotion, imgproc, obstacle
from flownav.egomotion import FoeEstimate
from flownav.errors import DegenerateDistributionError
from flownav.flow import FlowField

from test_egomotion import compute_ttc_ref, make_field as field_of


FOE = FoeEstimate(160.0, 100.0, 1.0, 20)


def ground_flow(x, y, q):
    """Flat-ground flow at (x, y) below the horizon: radial about FOE with
    magnitude dist * q*w / (1 - q*w), w the row offset below the FOE."""
    dx, dy = x - FOE.x_foe, y - FOE.y_foe
    qw = q * (y - FOE.y_foe)
    return dx * qw / (1.0 - qw), dy * qw / (1.0 - qw)


def overshoot(x, y, gain=3.0, q=5e-4):
    """Outlier below the horizon: ground flow scaled radially by gain, as
    from a raised surface closer than the ground at that row."""
    vx, vy = ground_flow(x, y, q)
    return x, y, gain * vx, gain * vy


def make_field(n_background, outliers, q=5e-4, seed=0):
    """Ground-plane background flow below the horizon plus planted outlier
    vectors.

    outliers: list of (x, y, vx, vy).
    """
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n_background:
        x = rng.uniform(10, 310)
        y = rng.uniform(110, 230)
        if np.hypot(x - FOE.x_foe, y - FOE.y_foe) < 5:
            continue
        rows.append((x, y, *ground_flow(x, y, q), True))
    rows += [(x, y, vx, vy, True) for x, y, vx, vy in outliers]
    return field_of(rows)


def positions(mask):
    return set(map(tuple, mask.points.tolist()))


class TestSegmentObstacles:
    def test_planted_outliers_flagged(self):
        outliers = [overshoot(80.0 + i, 180.0) for i in range(6)]
        ff = make_field(60, outliers)
        mask = obstacle.segment_obstacles(ff, FOE, None)
        flagged = positions(mask)
        for x, y, _vx, _vy in outliers:
            assert (x, y) in flagged
        # no more than a couple of background points misflagged
        assert len(mask.points) <= len(outliers) + 3
        assert np.array_equal(ff.pts[mask.index], mask.points)

    def test_mask_covers_splat_disk(self):
        outliers = [overshoot(100.0, 150.0)]
        ff = make_field(60, outliers)
        mask = obstacle.segment_obstacles(ff, FOE, None)
        m = obstacle._splat(320, 240, mask.points, 12)
        assert m.shape == (240, 320)
        assert m[150, 100] and m[150, 111] and m[161, 100]
        assert not m[150, 100 + 13]

    def test_pure_radial_field_empty(self):
        ff = make_field(60, [])
        mask = obstacle.segment_obstacles(ff, FOE, None)
        assert mask.points.shape == (0, 2)
        assert len(mask.ttc) == len(mask.index) == 0

    def test_min_residual_gate(self):
        # small, noise-like residuals: gate should suppress the detection
        rng = np.random.default_rng(2)
        ff = make_field(60, [], seed=2)
        noisy = FlowField(ff.pts, ff.disp + rng.normal(0, 0.05, ff.disp.shape),
                          ff.valid)
        gated = obstacle.segment_obstacles(noisy, FOE, None, min_residual=1.0)
        assert len(gated.points) == 0

    def test_ttc_attached(self):
        outliers = [overshoot(100.0, 150.0), overshoot(101.0, 150.0)]
        ff = make_field(60, outliers)
        ttc = np.full(len(ff.pts), np.nan)
        ttc[60] = 2.5                     # the first outlier; the second has none
        mask = obstacle.segment_obstacles(ff, FOE, ttc)
        by_pos = dict(zip(map(tuple, mask.points.tolist()), mask.ttc.tolist()))
        assert by_pos[(100.0, 150.0)] == 2.5
        assert by_pos[(101.0, 150.0)] == 100.0

    def test_empty_field(self):
        mask = obstacle.segment_obstacles(field_of([]), FOE, None)
        assert len(mask.points) == 0

    def test_invalid_vector_never_flagged(self):
        # the same overshoots, once valid and once marked invalid: only the
        # valid ones can be flagged, and every flag indexes a valid vector
        outliers = [overshoot(80.0 + i, 180.0, gain=6.0) for i in range(6)]
        ff = make_field(60, outliers + outliers)
        valid = ff.valid.copy()
        valid[66:] = False
        ff = FlowField(ff.pts, ff.disp, valid)
        mask = obstacle.segment_obstacles(ff, FOE, None)
        assert set(range(60, 66)) <= set(mask.index.tolist())
        assert ff.valid[mask.index].all() and (mask.index < 66).all()


def random_planes(rng, shape, n):
    """n bool planes of the given shape, densities from sparse to dense."""
    return [rng.random(shape) < rng.uniform(0.005, 0.6) for _ in range(n)]


class TestForceWeights:
    SHAPES = [(30, 40, 12), (17, 23, 5)]    # production, and an odd one

    @pytest.mark.parametrize("h,w,y0", SHAPES)
    def test_matches_blur_gradient_chain(self, h, w, y0):
        u, v = obstacle.force_weights(h, w, y0)
        for plane in random_planes(np.random.default_rng(h), (h, w), 250):
            assert float(u @ plane @ v) == pytest.approx(
                gradient_sum_ref(plane, y0), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("h,w,y0", SHAPES)
    def test_empty_plane_zero(self, h, w, y0):
        u, v = obstacle.force_weights(h, w, y0)
        assert float(u @ np.zeros((h, w), dtype=bool) @ v) == 0.0

    @pytest.mark.parametrize("h,w,y0", SHAPES)
    def test_mirrored_plane_negates(self, h, w, y0):
        u, v = obstacle.force_weights(h, w, y0)
        for plane in random_planes(np.random.default_rng(w), (h, w), 50):
            f = float(u @ plane @ v)
            g = float(u @ plane[:, ::-1] @ v)
            assert g == pytest.approx(-f, rel=1e-12, abs=1e-13)

    def test_cached_read_only(self):
        u, v = obstacle.force_weights(30, 40, 12)
        again = obstacle.force_weights(30, 40, 12)
        assert again[0] is u and again[1] is v
        with pytest.raises(ValueError):
            v[0] = 0.0
        assert obstacle.force_weights(30, 40, 0)[0][0] > u[0]

    def test_border_columns_spike(self):
        _u, v = obstacle.force_weights(30, 40, 12)
        assert v[0] == pytest.approx(-0.496, abs=1e-3) and v[-1] == -v[0]
        assert np.abs(v[1:-1]).max() < 0.017
        assert np.all(np.diff(v[1:-1]) > 0)     # interior ramp


class TestRepulsiveForce:
    """Flags in image px of a 320 x 240 frame: a 40 x 30 plane banded to
    rows 12-29, so area = 40 * 18."""

    AREA = 40 * 18

    def force(self, x, y=180.0, ttc=2.0, **kw):
        return obstacle.repulsive_force(np.array([[x, y]]), np.array([ttc]),
                                        320, 240, **kw)

    def test_no_points_zero(self):
        f = obstacle.repulsive_force(np.empty((0, 2)), np.empty(0), 320, 240)
        assert f.f_x == 0.0 and f.f_y == 0.0

    def test_left_obstacle_pushes_right(self):
        f = self.force(80.0)
        assert f.f_x > 0
        assert f.f_y > 0

    def test_right_obstacle_pushes_left(self):
        f = self.force(240.0)
        assert f.f_x < 0

    def test_urgency_inverse_ttc(self):
        f = self.force(160.0, ttc_min=0.5)
        assert f.f_y == pytest.approx(1.0 / self.AREA * (1.0 / 2.0))

    def test_ttc_floor(self):
        f = self.force(160.0, ttc=0.01, ttc_min=0.5)
        assert f.f_y == pytest.approx(1.0 / 0.5 / self.AREA)

    def test_roi_excludes_points(self):
        # the band starts at plane row 12, image row 96: a flag just above
        # it adds no urgency but its disk still pushes; past the right
        # edge, a flag adds none either
        f = self.force(80.0, y=95.9)
        assert f.f_y == 0.0 and f.f_x > 0
        f = self.force(80.0, y=96.0)
        assert f.f_y == pytest.approx(1.0 / 2.0 / self.AREA)
        assert self.force(320.0).f_y == 0.0

    def test_matches_blur_gradient_chain_on_disks(self):
        # f_x of the flags equals the blur-and-gradient chain over the
        # windowed-loop disks of radius 12 px / 8
        rng = np.random.default_rng(5)
        for k in (1, 3, 12):
            pts = rng.uniform((-10.0, 60.0), (330.0, 250.0), (k, 2))
            f = obstacle.repulsive_force(pts, np.full(k, 2.0), 320, 240)
            plane = splat_ref(40, 30, pts / 8, 1.5)
            ref = -1.0 / self.AREA * gradient_sum_ref(plane, 12)
            assert plane.any() and f.f_x == pytest.approx(ref, rel=1e-10,
                                                          abs=1e-16)


# ---------------------------------------------------------------------------
# references: the loops over (point, residual, ttc) tuples that
# segment_obstacles and repulsive_force ran before they took arrays, and the
# blur-and-gradient chain the lateral force ran before its closed form
# ---------------------------------------------------------------------------

def gradient_sum_ref(plane, y0):
    """Sum of the x-gradient over rows y0.. of the plane blurred with sigma
    = half its width (x pass), then half its height (y pass)."""
    h, w = plane.shape
    sx, sy = w / 2.0, h / 2.0
    rx, ry = min(int(np.ceil(3 * sx)), 2 * w), min(int(np.ceil(3 * sy)), 2 * h)
    sm = imgproc.convolve(plane.astype(np.float64),
                          imgproc.gaussian_kernel(sx, rx), "horizontal")
    sm = imgproc.convolve(sm, imgproc.gaussian_kernel(sy, ry), "vertical")
    gx, _gy = imgproc.spatial_gradient(sm)
    return float(np.sum(gx[y0:]))


def flag_ref(ff, foe, ttc_entries, min_residual=0.0, ttc_default=100.0):
    """Flagged (x, y, ttc) in field order; ttc_entries maps a position to
    its TTC, as the position-keyed lookup did."""
    vecs = [(x, y, vx, vy) for x, y, vx, vy, ok
            in zip(*ff.pts.T.tolist(), *ff.disp.T.tolist(), ff.valid.tolist())
            if ok]
    if not vecs:
        return []
    a = np.array(vecs)
    residual = obstacle.ground_fit(a[:, :2], a[:, 2:], foe)
    if residual.max() < obstacle.RESIDUAL_FLOOR:
        return []
    try:
        thr = imgproc.otsu_threshold(residual, bins=256)
    except DegenerateDistributionError:
        return []
    if thr < min_residual:
        return []
    flagged = []
    for (x, y, _vx, _vy), res in zip(vecs, residual):
        if res > thr:
            flagged.append((x, y, ttc_entries.get((x, y), ttc_default)))
    return flagged


def urgency_ref(points, ttc, roi, ttc_min=0.5):
    x0, y0, x1, y1 = roi
    urgency = 0.0
    for (x, y), t in zip(points.tolist(), ttc.tolist()):
        if x0 <= x < x1 and y0 <= y < y1:
            urgency += 1.0 / max(t, ttc_min)
    return urgency


def splat_ref(width, height, points, radius):
    plane = np.zeros((height, width), dtype=bool)
    r = int(np.ceil(radius))
    for x, y in points.tolist():
        x0 = max(int(x) - r, 0)
        x1 = min(int(x) + r + 1, width)
        y0 = max(int(y) - r, 0)
        y1 = min(int(y) + r + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        plane[y0:y1, x0:x1] |= (xs - x) ** 2 + (ys - y) ** 2 <= radius * radius
    return plane


@pytest.mark.parametrize("radius", [1.5, 2.0, 2.5])
def test_splat_matches_windowed_loop(radius):
    # fractional centres inside the plane, near and beyond each edge
    pts = np.random.default_rng(4).uniform(-4.0, 44.0, (30, 2))
    pts[:4] = [(0.0, 0.0), (39.5, 29.5), (-1.7, 12.0), (20.0, 31.2)]
    plane = obstacle._splat(40, 30, pts, radius)
    assert np.array_equal(plane, splat_ref(40, 30, pts, radius))
    assert np.array_equal(obstacle._splat(40, 30, pts[:0], radius),
                          np.zeros((30, 40), dtype=bool))


def parity_field():
    """Ground flow with planted overshoots, some of them invalid, points
    near the FOE (no TTC) and vectors below 0.5 px."""
    outliers = [overshoot(60.0 + 7 * i, 150.0 + 3 * i, gain=2.0 + 0.3 * i)
                for i in range(12)]
    outliers += [(FOE.x_foe + 3.0, FOE.y_foe + 5.0 + i, 3.0, 5.0 + i)
                 for i in range(3)]
    ff = make_field(150, outliers, seed=9)
    rng = np.random.default_rng(9)
    valid = rng.random(len(ff.pts)) > 0.15
    valid[-3:] = True
    disp = ff.disp.copy()
    disp[::11] *= 0.01
    return FlowField(ff.pts, disp, valid, frame_interval=1 / 15)


@pytest.mark.parametrize("ttc_max,min_residual", [(100.0, 0.0), (0.3, 0.0),
                                                  (100.0, 0.2)])
def test_flagging_matches_vector_loop(ttc_max, min_residual):
    ff = parity_field()
    ttc = egomotion.compute_ttc(ff, FOE, exclusion_radius=10.0, ttc_max=ttc_max)
    entries = {tuple(ff.pts[i].tolist()): t for i, t in
               compute_ttc_ref(ff, FOE, exclusion_radius=10.0,
                               ttc_max=ttc_max).items()}
    ref = flag_ref(ff, FOE, entries, min_residual=min_residual)
    mask = obstacle.segment_obstacles(ff, FOE, ttc, min_residual=min_residual)
    got = [(x, y, t) for (x, y), t in zip(mask.points.tolist(),
                                          mask.ttc.tolist())]
    assert len(ref) >= 8 and got == ref
    assert np.array_equal(ff.pts[mask.index], mask.points)
    # some flags have no TTC and take the 100 s default whatever ttc_max is
    assert 100.0 in mask.ttc.tolist() and ttc_max in mask.ttc.tolist()


def test_urgency_matches_sequential_loop():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 40, (40, 2))      # plane cells; x8 is exact
    ttc = np.exp(rng.uniform(np.log(0.3), np.log(50), 40))
    f = obstacle.repulsive_force(pts * obstacle.DECIM, ttc, 320, 240)
    ref = urgency_ref(pts, ttc, (0, 12, 40, 30))
    area = (40 - 0) * (30 - 12)
    assert f.f_y == 1.0 / area * ref
    # a pairwise sum of the same terms rounds differently on this data
    inside = (pts[:, 1] >= 12) & (pts[:, 1] < 30)
    terms = 1.0 / np.maximum(ttc[inside], 0.5)
    assert len(terms) >= 8 and float(np.sum(terms)) != ref
