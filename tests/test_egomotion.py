import numpy as np
import pytest

from flownav import egomotion
from flownav.errors import DegenerateGeometryError, InsufficientFlowError
from flownav.flow import FlowField


def make_field(rows, frame_interval=1.0 / 60.0):
    """FlowField from (x, y, vx, vy, valid) rows."""
    a = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return FlowField(a[:, :2], a[:, 2:4], a[:, 4] != 0, frame_interval)


def radial_field(foe, n, scale, seed=None, noise=0.0, w=320, h=240):
    """Flow vectors pointing away from a known expansion point."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        x = rng.uniform(10, w - 10)
        y = rng.uniform(10, h - 10)
        dx, dy = x - foe[0], y - foe[1]
        if np.hypot(dx, dy) < 1.0:
            continue
        vx = scale * dx + noise * rng.standard_normal()
        vy = scale * dy + noise * rng.standard_normal()
        rows.append((x, y, vx, vy, True))
    return make_field(rows)


def joined(*fields):
    return FlowField(*(np.concatenate([getattr(f, k) for f in fields])
                       for k in ("pts", "disp", "valid")))


class TestEstimateFoe:
    def test_exact_radial(self):
        ff = radial_field((160.0, 95.0), 40, 0.05, seed=0)
        est = egomotion.estimate_foe(ff, min_speed=0.0)
        assert abs(est.x_foe - 160.0) < 1e-6
        assert abs(est.y_foe - 95.0) < 1e-6
        assert est.n_constraints == 40

    def test_noisy_radial_within_pixels(self):
        for seed in range(5):
            ff = radial_field((140.0, 110.0), 200, 0.08, seed=seed, noise=0.4)
            est = egomotion.estimate_foe(ff, min_speed=0.0)
            assert np.hypot(est.x_foe - 140.0, est.y_foe - 110.0) < 3.0

    def test_min_speed_filter(self):
        ff = radial_field((160.0, 95.0), 30, 0.05, seed=1)
        slow = make_field([(50.0, 50.0, 0.01, 0.01, True)] * 20)
        est = egomotion.estimate_foe(joined(ff, slow), min_speed=0.5)
        assert est.n_constraints == np.count_nonzero(
            np.hypot(ff.disp[:, 0], ff.disp[:, 1]) >= 0.5)

    def test_insufficient_constraints(self):
        ff = radial_field((160.0, 95.0), 5, 1.0, seed=2)
        with pytest.raises(InsufficientFlowError):
            egomotion.estimate_foe(ff, min_speed=0.0)

    def test_invalid_vectors_ignored(self):
        ff = radial_field((160.0, 95.0), 7, 1.0, seed=3)
        bogus = make_field([(1.0, 1.0, 99.0, 99.0, False)] * 10)
        with pytest.raises(InsufficientFlowError):
            egomotion.estimate_foe(joined(ff, bogus), min_speed=0.0)

    def test_parallel_field_degenerate(self):
        ff = make_field([(10.0 * i, 50.0, 2.0, 0.0, True) for i in range(20)])
        with pytest.raises(DegenerateGeometryError):
            egomotion.estimate_foe(ff, min_speed=0.0)

    def test_condition_reported(self):
        ff = radial_field((160.0, 95.0), 50, 0.05, seed=4)
        est = egomotion.estimate_foe(ff, min_speed=0.0)
        assert est.condition >= 1.0


class TestComputeTtc:
    def test_known_values(self):
        foe = egomotion.FoeEstimate(100.0, 100.0, 1.0, 10)
        # 60 px from FOE
        ff = make_field([(160.0, 100.0, 3.0, 0.0, True)], frame_interval=0.05)
        ttc = egomotion.compute_ttc(ff, foe)
        # 60 px / 3 px-per-frame * 0.05 s-per-frame = 1 s
        assert ttc[0] == pytest.approx(1.0)

    def test_exclusion_radius(self):
        foe = egomotion.FoeEstimate(100.0, 100.0, 1.0, 10)
        ff = make_field([(105.0, 100.0, 1.0, 0.0, True),     # near
                         (150.0, 100.0, 1.0, 0.0, True)])    # far
        ttc = egomotion.compute_ttc(ff, foe, exclusion_radius=10.0)
        assert np.flatnonzero(~np.isnan(ttc)).tolist() == [1]

    def test_clamped_to_max(self):
        foe = egomotion.FoeEstimate(0.0, 0.0, 1.0, 10)
        ff = make_field([(300.0, 0.0, 1e-4, 0.0, True)], frame_interval=1.0)
        ttc = egomotion.compute_ttc(ff, foe, ttc_max=100.0)
        assert ttc[0] == 100.0

    def test_zero_flow_skipped(self):
        foe = egomotion.FoeEstimate(0.0, 0.0, 1.0, 10)
        ff = make_field([(50.0, 0.0, 0.0, 0.0, True)])
        assert np.isnan(egomotion.compute_ttc(ff, foe)).all()

    def test_scales_with_frame_interval(self):
        foe = egomotion.FoeEstimate(0.0, 0.0, 1.0, 10)
        for dt in (1.0 / 60.0, 1.0 / 30.0):
            ff = make_field([(60.0, 0.0, 2.0, 0.0, True)], frame_interval=dt)
            ttc = egomotion.compute_ttc(ff, foe)[0]
            assert ttc == pytest.approx(30.0 * dt)

    def test_empty_field(self):
        foe = egomotion.FoeEstimate(0.0, 0.0, 1.0, 10)
        assert egomotion.compute_ttc(make_field([]), foe).shape == (0,)


# Reference: compute_ttc as a loop over the field's vectors, in Python
# floats, as it was written when it returned (point, ttc) pairs. The array
# code must give the same points the same bits.

def compute_ttc_ref(ff, foe, exclusion_radius=10.0, ttc_max=100.0):
    """{index: ttc} for the points that have a TTC."""
    out = {}
    dt = ff.frame_interval
    for i, (x, y, vx, vy, ok) in enumerate(zip(*ff.pts.T.tolist(),
                                               *ff.disp.T.tolist(),
                                               ff.valid.tolist())):
        if not ok:
            continue
        dist = np.hypot(x - foe.x_foe, y - foe.y_foe)
        if dist <= exclusion_radius:
            continue
        mag = np.hypot(vx, vy)
        if mag == 0.0:
            continue
        out[i] = float(min(dist / mag * dt, ttc_max))
    return out


def test_compute_ttc_matches_vector_loop():
    rng = np.random.default_rng(5)
    foe = egomotion.FoeEstimate(161.3, 97.8, 1.0, 10)
    n = 400
    pts = np.column_stack([rng.uniform(0, 320, n), rng.uniform(0, 240, n)])
    disp = rng.normal(0, 3, (n, 2))
    valid = rng.random(n) > 0.2
    disp[::17] = 0.0                              # zero flow
    disp[5::23] *= 1e-5                           # clamped to ttc_max
    near = pts[3::19]                             # inside the radius
    near[:] = (foe.x_foe, foe.y_foe) + rng.uniform(-7, 7, near.shape)
    pts[7] = (foe.x_foe + 10.0, foe.y_foe)        # exactly on the radius
    valid[7] = True
    ff = FlowField(pts, disp, valid, frame_interval=1 / 15)
    for kw in ({}, {"exclusion_radius": 25.0, "ttc_max": 3.0}):
        got = egomotion.compute_ttc(ff, foe, **kw)
        ref = compute_ttc_ref(ff, foe, **kw)
        assert len(ref) > 50
        assert np.flatnonzero(~np.isnan(got)).tolist() == sorted(ref)
        assert got[sorted(ref)].tolist() == [ref[i] for i in sorted(ref)]


class TestFoeSmoother:
    def test_first_update_passthrough(self):
        sm = egomotion.FoeSmoother(0.7)
        est = egomotion.FoeEstimate(120.0, 90.0, 1.0, 10)
        out = sm.update(est)
        assert (out.x_foe, out.y_foe) == (120.0, 90.0)

    def test_ema_recursion(self):
        sm = egomotion.FoeSmoother(0.7)
        sm.update(egomotion.FoeEstimate(100.0, 100.0, 1.0, 10))
        out = sm.update(egomotion.FoeEstimate(200.0, 0.0, 1.0, 10))
        assert out.x_foe == pytest.approx(0.7 * 100 + 0.3 * 200)
        assert out.y_foe == pytest.approx(0.7 * 100 + 0.3 * 0)

    def test_converges_to_constant(self):
        sm = egomotion.FoeSmoother(0.7)
        target = egomotion.FoeEstimate(160.0, 95.0, 1.0, 10)
        sm.update(egomotion.FoeEstimate(0.0, 0.0, 1.0, 10))
        for _ in range(60):
            out = sm.update(target)
        assert abs(out.x_foe - 160.0) < 1e-6
