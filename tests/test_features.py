import math

import numpy as np
import pytest

from flownav import features, imgproc, scene
from flownav.errors import InvalidParameterError
from flownav.vehicle import VehicleState


def checkerboard(h, w, cell):
    yy, xx = np.mgrid[0:h, 0:w]
    return (((yy // cell) + (xx // cell)) % 2).astype(np.float64)


def response(img):
    """features.corner_response of img's own gradient."""
    return features.corner_response(*imgproc.spatial_gradient(img))


def detect(img, **kwargs):
    """features.detect_corners on img's own gradient."""
    return features.detect_corners(imgproc.spatial_gradient(img), **kwargs)


def single_corner(h=32, w=32):
    """Bright quadrant: one L-shaped corner at the quadrant junction."""
    img = np.zeros((h, w))
    img[: h // 2, : w // 2] = 1.0
    return img


class TestCornerResponse:
    def test_constant_is_zero(self):
        resp = response(np.full((16, 16), 0.4))
        assert np.allclose(resp, 0.0)

    def test_edge_vs_corner(self):
        # a straight vertical edge has rank-1 structure tensor: lam_min ~ 0
        img = np.zeros((32, 32))
        img[:, 16:] = 1.0
        resp_edge = response(img)
        resp_corner = response(single_corner())
        assert resp_edge[16, 1:-1].max() < 1e-6
        assert resp_corner.max() > 1e-3

    def test_peak_near_true_corner(self):
        resp = response(single_corner())
        y, x = np.unravel_index(np.argmax(resp), resp.shape)
        assert abs(x - 16) <= 2 and abs(y - 16) <= 2

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        resp = response(rng.random((20, 20)))
        assert (resp >= 0.0).all()


class TestDetectCorners:
    def test_finds_checkerboard_interior_corners(self):
        img = checkerboard(48, 48, 8)
        pts = detect(img, max_corners=100, min_distance=4)
        # interior lattice points of an 8px board: 5x5 grid
        assert len(pts) >= 20
        for x, y in pts[:10]:
            assert x % 8 <= 2 or x % 8 >= 6
            assert y % 8 <= 2 or y % 8 >= 6

    def test_sorted_and_capped(self):
        img = checkerboard(64, 64, 8)
        pts = detect(img, max_corners=7)
        assert len(pts) == 7
        resp = response(img)
        scores = resp[pts[:, 1].astype(int), pts[:, 0].astype(int)]
        assert (np.diff(scores) <= 0).all()

    def test_min_distance_respected(self):
        img = checkerboard(64, 64, 8)
        pts = detect(img, max_corners=200, min_distance=11)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = np.hypot(*(pts[i] - pts[j]))
                assert d >= 11

    def test_blank_image_empty(self):
        pts = detect(np.zeros((32, 32)))
        assert pts.shape == (0, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        img = rng.random((40, 40))
        a = detect(img, max_corners=50)
        b = detect(img, max_corners=50)
        assert np.array_equal(a, b)

    def test_row_range(self):
        img = checkerboard(64, 64, 8)
        pts = detect(img, max_corners=200, row_range=(20, 40))
        assert len(pts) and ((20 <= pts[:, 1]) & (pts[:, 1] < 40)).all()

    def test_border_margin(self):
        img = checkerboard(64, 64, 8)
        pts = detect(img, max_corners=400, min_distance=2)
        assert ((3 <= pts) & (pts < 61)).all()

    def test_param_validation(self):
        img = np.zeros((32, 32))
        with pytest.raises(InvalidParameterError):
            features.detect_corners(imgproc.spatial_gradient(np.zeros((5, 5))))
        with pytest.raises(InvalidParameterError):
            detect(img, quality_level=0.0)
        with pytest.raises(InvalidParameterError):
            detect(img, quality_level=1.5)

    def test_quality_level_filters(self):
        rng = np.random.default_rng(2)
        img = rng.random((48, 48))
        loose = detect(img, max_corners=1000, quality_level=0.01,
                       min_distance=1)
        tight = detect(img, max_corners=1000, quality_level=0.5,
                       min_distance=1)
        assert len(tight) <= len(loose)


# ---------------------------------------------------------------------------
# reference: the greedy suppression loop over numpy scalars
# ---------------------------------------------------------------------------
#
# detect_corners runs its greedy loop over Python ints. Every comparison
# there is between integer-valued coordinates, so the picked positions must
# equal those of the numpy-scalar loop below, a copy of the earlier
# detect_corners.


def detect_corners_ref(img, max_corners=400, quality_level=0.005,
                       min_distance=7, row_range=None):
    """img is an image, or a gradient (gx, gy) to take the response of."""
    if isinstance(img, tuple):
        grad = img
        img = grad[0]

        def band_response(a, b):
            return features.corner_response(grad[0][a:b], grad[1][a:b])
    else:
        def band_response(a, b):
            return response(img[a:b])
    m = features.BORDER_MARGIN
    if row_range is not None:
        lo, hi = max(row_range[0], 0), min(row_range[1], img.shape[0])
        y_off = max(lo - 5, 0)
        sub = band_response(y_off, hi + 5)    # the band's own gradient
        resp = np.zeros(img.shape)
        resp[y_off:y_off + sub.shape[0]] = sub
    else:
        resp = band_response(0, img.shape[0])
    mask = np.zeros_like(resp, dtype=bool)
    mask[m:-m, m:-m] = True
    if row_range is not None:
        mask[:lo] = False
        mask[hi:] = False
    resp = np.where(mask, resp, 0.0)
    max_score = resp.max()
    if max_score <= 0.0:
        return np.empty((0, 2))
    ys, xs = np.nonzero(resp >= quality_level * max_score)
    scores = resp[ys, xs]
    order = np.lexsort((xs, ys, -scores))
    ys, xs, scores = ys[order], xs[order], scores[order]
    pre = max(1, int(min_distance / math.sqrt(2.0)))
    if pre > 1 and len(xs) > 1:
        key = (ys // pre).astype(np.int64) * (img.shape[1] // pre + 2) + xs // pre
        perm = np.argsort(key, kind="stable")
        first = np.ones(len(perm), dtype=bool)
        first[1:] = key[perm][1:] != key[perm][:-1]
        keep = np.sort(perm[first])
        ys, xs, scores = ys[keep], xs[keep], scores[keep]
    cell = max(1, int(min_distance))
    occupied = {}
    picked = []
    min_d2 = float(min_distance) ** 2
    for x, y, s in zip(xs, ys, scores):
        cx, cy = int(x) // cell, int(y) // cell
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
            picked.append((float(x), float(y)))
            occupied.setdefault((cx, cy), []).append((float(x), float(y)))
            if len(picked) >= max_corners:
                break
    return np.array(picked).reshape(-1, 2)


@pytest.mark.parametrize("course,weather,s", [
    ("straight-arc", "clear", 100.0),
    ("straight-arc", "rain", 125.0),
    ("obstacles", "clear", 60.0),       # the first box is 10 m ahead
])
def test_detect_corners_matches_numpy_scalar_loop(course, weather, s):
    world = scene.make_course(course)
    x, y, h = world.road.pose_at(s)
    img = scene.degrade(scene.render(world, scene.CameraModel(),
                                     VehicleState(x=x, y=y, psi=h + 0.05)),
                        weather, seed=7)
    for kwargs in ({"max_corners": 150, "quality_level": 0.002,
                    "row_range": (0, 190)},
                   {"max_corners": 400, "min_distance": 4},
                   {"max_corners": 30, "min_distance": 11}):
        got = detect(img, **kwargs)
        assert len(got) > 10
        assert got.dtype == np.float64
        assert np.array_equal(got, detect_corners_ref(img, **kwargs))


def _textured(h, w, seed=3):
    """Smooth random texture: a blocky random field, blurred."""
    rng = np.random.default_rng(seed)
    coarse = rng.random((h // 6 + 2, w // 6 + 2))
    return np.kron(coarse, np.ones((6, 6)))[:h, :w] + 0.05 * rng.random((h, w))


@pytest.mark.parametrize("case", ["row_range", "row_range_inner", "ties",
                                  "min_distance_2", "nan"])
def test_detect_corners_matches_reference_at_edges(case, monkeypatch):
    # cells that overhang the image, a band whose padded crop starts below
    # row 0 (the reference takes the band's own gradient, detect_corners
    # crops the full frame's), exact ties inside a cell, cells of one
    # pixel, and a NaN response (no candidates on either side)
    img = _textured(90, 130)
    kwargs = {"max_corners": 400}
    if case == "row_range":
        kwargs["row_range"] = (5, 83)
    elif case == "row_range_inner":
        kwargs["row_range"] = (20, 70)
    elif case == "ties":
        levels = np.random.default_rng(4).integers(0, 3, (90, 130))
        monkeypatch.setattr(features, "corner_response",
                            lambda gx, gy: levels[:gx.shape[0], :gx.shape[1]] * 1.0)
    elif case == "min_distance_2":
        kwargs["min_distance"] = 2
    else:
        img[40, 60] = np.nan
    got = detect(img, **kwargs)
    ref = detect_corners_ref(img, **kwargs)
    assert np.array_equal(got, ref)
    assert (len(got) == 0) == (case == "nan")


@pytest.mark.parametrize("row_range", [None, (0, 190), (8, 64), (9, 63),
                                       (20, 70), (5, 83)])
@pytest.mark.parametrize("rows", [4, 8, 48])
def test_detect_corners_strip_edges(row_range, rows, monkeypatch):
    # the response is formed in strips of `rows` rows; bands that start and
    # end on a strip edge (8, 64), one row inside it (9, 63), and between
    # edges, against the reference that forms the whole band at once
    img = _textured(200, 130)
    monkeypatch.setattr(features, "_RESPONSE_BLOCK", rows * 130)
    kwargs = {"max_corners": 400, "row_range": row_range}
    got = detect(img, **kwargs)
    assert len(got) > 10
    assert np.array_equal(got, detect_corners_ref(img, **kwargs))


# ---------------------------------------------------------------------------
# rows without gradient: the response is formed only where a window reaches
# a non-zero gradient
# ---------------------------------------------------------------------------


def _gradient_rows(img):
    gx, gy = imgproc.spatial_gradient(img)
    return np.flatnonzero((gx != 0).any(axis=1) | (gy != 0).any(axis=1))


def _band(first, last, h=120, w=130):
    """A zero image textured on rows first+1 .. last-1, so that its
    (central-difference) gradient is non-zero on rows first .. last only."""
    img = np.zeros((h, w))
    img[first + 1:last] = 0.2 + _textured(last - first - 1, w)
    rows = _gradient_rows(img)
    assert rows[0] == first and rows[-1] == last
    return img


M = features.BORDER_MARGIN


@pytest.mark.parametrize("first,last,row_range", [
    (0, 60, None),                  # gradient from the top row
    (M - 1, 60, None),              # ... from just above the border margin
    (M, 60, None),
    (M + 1, 60, None),
    (50, 70, None),                 # a band mid-frame
    (50, 70, (0, 190)),
    (88, 119, (0, 90)),             # first row in the last 4-row cell of
    (89, 119, (0, 90)),             # the range, [88, 92)
    (90, 119, (0, 90)),             # at the range's end: windows reach it
    (91, 119, (0, 90)),             # past it they reach only row 91, whose
    (92, 119, (0, 90)),             # gradient is all gy, or none: no corners
    (20, 95, (30, 100)),            # the range cuts into the band
])
def test_rows_without_gradient_match_reference(first, last, row_range):
    img = _band(first, last)
    kwargs = {"max_corners": 400, "row_range": row_range}
    got = detect(img, **kwargs)
    assert np.array_equal(got, detect_corners_ref(img, **kwargs))
    assert (len(got) == 0) == (first >= 91)


@pytest.mark.parametrize("first,last", [(0, 60), (M - 1, 60), (M, 60),
                                        (M + 1, 60), (10, 117), (11, 116),
                                        (45, 46), (61, 61), (28, 28),
                                        (65, 65), (66, 66)])
@pytest.mark.parametrize("row_range", [None, (8, 64), (30, 100)])
def test_gradient_rows_edges_match_reference(first, last, row_range):
    # full-rank gradient on rows first .. last alone: the rows WINDOW_RADIUS
    # beyond either end still hold a (small) response, and with one-pixel
    # cells, no suppression beyond 2 px and a low quality level, each of
    # those two rows holds corners
    rng = np.random.default_rng(first * 1000 + last)
    grad = tuple(np.zeros((120, 130)) for _ in range(2))
    for g in grad:
        g[first:last + 1] = rng.standard_normal((last + 1 - first, 130))
    kwargs = {"max_corners": 20000, "min_distance": 2,
              "quality_level": 1e-6, "row_range": row_range}
    got = features.detect_corners(grad, **kwargs)
    assert np.array_equal(got, detect_corners_ref(grad, **kwargs))
    r = features.WINDOW_RADIUS
    lo, hi = (0, 120) if row_range is None else row_range
    lo, hi = max(lo, M), min(hi, 120 - M)
    top, bottom = max(first - r, lo), min(last + r, hi - 1)
    if top > bottom:
        assert len(got) == 0
    else:
        assert got[:, 1].min() == top and got[:, 1].max() == bottom


def test_signed_zero_gradient_has_no_corners():
    rng = np.random.default_rng(6)
    gx, gy = (np.where(rng.random((60, 80)) < 0.5, -0.0, 0.0)
              for _ in range(2))
    assert np.signbit(gx).any() and np.signbit(gy).any()
    assert features.corner_response(gx, gy).max() == 0.0
    assert features.detect_corners((gx, gy)).shape == (0, 2)
    assert features.detect_corners((gx, gy), row_range=(10, 50)).shape == (0, 2)


@pytest.mark.parametrize("row_range", [None, (0, 190)])
def test_box_above_the_horizon_matches_reference(row_range):
    # 10 m short of the first obstacle its box rises above the horizon, so
    # the gradient starts well above the ground's first row
    world = scene.make_course("obstacles")
    cam = scene.CameraModel()
    x, y, h = world.road.pose_at(60.0)
    img = scene.render(world, cam, VehicleState(x=x, y=y, psi=h))
    assert _gradient_rows(img)[0] < cam.horizon_row - 5
    kwargs = {"max_corners": 150, "quality_level": 0.002,
              "row_range": row_range}
    got = detect(img, **kwargs)
    assert len(got) > 10 and got[:, 1].min() < cam.horizon_row
    assert np.array_equal(got, detect_corners_ref(img, **kwargs))
