import numpy as np
import pytest

from flownav import obstacle
from flownav.egomotion import FoeEstimate, TtcMap
from flownav.features import FeaturePoint
from flownav.flow import FlowField, FlowVector
from flownav.imgproc import BinaryImage


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
    vectors = []
    while len(vectors) < n_background:
        x = rng.uniform(10, 310)
        y = rng.uniform(110, 230)
        if np.hypot(x - FOE.x_foe, y - FOE.y_foe) < 5:
            continue
        vectors.append(FlowVector(FeaturePoint(x, y), *ground_flow(x, y, q),
                                  True))
    for x, y, vx, vy in outliers:
        vectors.append(FlowVector(FeaturePoint(x, y), vx, vy, True))
    return FlowField(vectors)


class TestSegmentObstacles:
    def test_planted_outliers_flagged(self):
        outliers = [overshoot(80.0 + i, 180.0) for i in range(6)]
        ff = make_field(60, outliers)
        mask = obstacle.segment_obstacles(ff, FOE, None, splat_radius=12,
                                          width=320, height=240)
        flagged = {(p.x, p.y) for p, _r, _t in mask.points}
        for x, y, _vx, _vy in outliers:
            assert (x, y) in flagged
        # no more than a couple of background points misflagged
        assert len(mask.points) <= len(outliers) + 3

    def test_mask_covers_splat_disk(self):
        outliers = [overshoot(100.0, 150.0)]
        ff = make_field(60, outliers)
        mask = obstacle.segment_obstacles(ff, FOE, None, splat_radius=12,
                                          width=320, height=240)
        m = mask.plane.mask
        assert m[150, 100] and m[150, 111] and m[161, 100]
        assert not m[150, 100 + 13]

    def test_pure_radial_field_empty(self):
        ff = make_field(60, [])
        mask = obstacle.segment_obstacles(ff, FOE, None, splat_radius=12,
                                          width=320, height=240)
        assert mask.empty and not mask.plane.mask.any()

    def test_min_residual_gate(self):
        # small, noise-like residuals: gate should suppress the detection
        rng = np.random.default_rng(2)
        ff = make_field(60, [], seed=2)
        vectors = [FlowVector(v.origin, v.vx + rng.normal(0, 0.05),
                              v.vy + rng.normal(0, 0.05), True)
                   for v in ff.vectors]
        noisy = FlowField(vectors)
        gated = obstacle.segment_obstacles(noisy, FOE, None, splat_radius=12,
                                           width=320, height=240, min_residual=1.0)
        assert gated.empty

    def test_ttc_attached(self):
        fp_ttc = TtcMap([(FeaturePoint(100.0, 150.0), 2.5)])
        outliers = [overshoot(100.0, 150.0)]
        ff = make_field(60, outliers)
        mask = obstacle.segment_obstacles(ff, FOE, fp_ttc, splat_radius=12,
                                          width=320, height=240)
        by_pos = {(p.x, p.y): ttc for p, _r, ttc in mask.points}
        assert by_pos[(100.0, 150.0)] == 2.5

    def test_empty_field(self):
        mask = obstacle.segment_obstacles(FlowField([]), FOE, None, splat_radius=12,
                                          width=320, height=240)
        assert mask.empty


class TestObstacleGradient:
    def test_empty_mask_zero(self):
        mask = obstacle.ObstacleMask(BinaryImage(np.zeros((40, 60), dtype=bool)), [])
        gx, gy = obstacle.obstacle_gradient(mask)
        assert gx.shape == (40, 60) and not gx.any() and not gy.any()

    def test_gradient_points_up_the_blob(self):
        plane = np.zeros((60, 80), dtype=bool)
        plane[25:35, 50:60] = True  # blob right of center
        mask = obstacle.ObstacleMask(BinaryImage(plane), [(FeaturePoint(55, 30), 1.0, 1.0)])
        gx, gy = obstacle.obstacle_gradient(mask, sigma=6.0, radius=18)
        # left of the blob the smoothed field increases toward it: gx > 0
        assert gx[30, 42] > 0
        # right of the blob: gx < 0
        assert gx[30, 68] < 0
        assert gy[18, 55] > 0 and gy[42, 55] < 0

    def test_matches_analytic_gaussian(self):
        # single-pixel mask -> smoothed plane is a separable gaussian;
        # gradient along x at y=center follows -x/sigma^2 * G(x)
        h = w = 81
        plane = np.zeros((h, w), dtype=bool)
        plane[40, 40] = True
        mask = obstacle.ObstacleMask(BinaryImage(plane), [(FeaturePoint(40, 40), 1, 1)])
        sigma = 5.0
        gx, _gy = obstacle.obstacle_gradient(mask, sigma=sigma, radius=20)
        xs = np.arange(w) - 40.0
        g1 = np.exp(-xs ** 2 / (2 * sigma ** 2))
        g1 /= g1.sum()
        ref2d = np.outer(g1, g1)
        ref_gx = np.gradient(ref2d, axis=1)
        band = np.s_[38:43, 25:56]
        assert np.abs(gx[band] - ref_gx[band]).max() < 1e-6


class TestRepulsiveForce:
    def _mask_with_blob(self, cx):
        plane = np.zeros((120, 160), dtype=bool)
        plane[50:70, cx - 10:cx + 10] = True
        pts = [(FeaturePoint(float(cx), 60.0), 2.0, 2.0)]
        return obstacle.ObstacleMask(BinaryImage(plane), pts)

    def test_left_obstacle_pushes_right(self):
        mask = self._mask_with_blob(40)
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        f = obstacle.repulsive_force(mask, grad, roi=(0, 0, 160, 120))
        assert f.f_x > 0
        assert f.f_y > 0

    def test_right_obstacle_pushes_left(self):
        mask = self._mask_with_blob(120)
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        f = obstacle.repulsive_force(mask, grad, roi=(0, 0, 160, 120))
        assert f.f_x < 0

    def test_urgency_inverse_ttc(self):
        mask = self._mask_with_blob(80)
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        roi = (0, 0, 160, 120)
        area = 160 * 120
        f = obstacle.repulsive_force(mask, grad, roi, gamma=3.0, ttc_min=0.5)
        assert f.f_y == pytest.approx(3.0 / area * (1.0 / 2.0))

    def test_raw_ttc_mode(self):
        mask = self._mask_with_blob(80)
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        roi = (0, 0, 160, 120)
        f = obstacle.repulsive_force(mask, grad, roi, gamma=1.0, raw_ttc=True)
        assert f.f_y == pytest.approx(2.0 / (160 * 120))

    def test_ttc_floor(self):
        plane = np.zeros((120, 160), dtype=bool)
        plane[60, 80] = True
        mask = obstacle.ObstacleMask(BinaryImage(plane),
                                     [(FeaturePoint(80.0, 60.0), 1.0, 0.01)])
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        f = obstacle.repulsive_force(mask, grad, (0, 0, 160, 120), ttc_min=0.5)
        assert f.f_y == pytest.approx(1.0 / 0.5 / (160 * 120))

    def test_roi_excludes_points(self):
        mask = self._mask_with_blob(40)
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        f = obstacle.repulsive_force(mask, grad, roi=(100, 0, 160, 120))
        assert f.f_y == 0.0

    def test_gamma_scales_linearly(self):
        mask = self._mask_with_blob(40)
        grad = obstacle.obstacle_gradient(mask, sigma=20.0, radius=60)
        f1 = obstacle.repulsive_force(mask, grad, (0, 0, 160, 120), gamma=1.0)
        f2 = obstacle.repulsive_force(mask, grad, (0, 0, 160, 120), gamma=2.5)
        assert f2.f_x == pytest.approx(2.5 * f1.f_x)
        assert f2.f_y == pytest.approx(2.5 * f1.f_y)
