"""Direct tests of VisionState's obstacle state machine, its two flag
filters and its flow-field steps: the latch/confirm/gap/refractory machine,
the forward-backward check (Kalal et al., Forward-Backward Error, ICPR 2010),
the cluster filter, the derotation and the trimmed FOE refit. The array
code of the last four is checked bit for bit against the loops over
per-vector tuples it replaced. Then the shared control step: its heading
clamp, goal gate, commit gate, heading-rate start and speed taper."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from flownav import egomotion, flow, imgproc, scene
from flownav.errors import DegenerateGeometryError, InsufficientFlowError
from flownav.flow import FlowField
from flownav.pipeline import (CLUSTER_RADIUS, COMMIT_DEV_MAX, COMMIT_LAT_MAX,
                              DT as SIM_DT, FB_TOL, MIN_FLOW_SPEED, OBS_CONFIRM,
                              OBS_DEADBAND, OBS_GAP_MAX, OBS_GOAL_GATE,
                              OBS_REFRACT, PSI_D_DOT_MAX, PYR_LEVELS,
                              TAPER_DIST, Observation, PipelineConfig,
                              VisionState, control_step)
from flownav.vehicle import VehicleState, rotational_manifold

from test_egomotion import make_field
from test_flow import bits, grid_points, pyramid, shifted, textured

DT = 0.5          # frame-pair interval, s: obs_hold 4 s = 8 frames
DETECT = 1e-3     # lateral force EMA well past the 1e-4 deadband


def vision(**overrides):
    return VisionState(PipelineConfig(**overrides), scene.CameraModel())


def frame(vs, sign, fx=None):
    """One frame: a raw detection of the given sign (0 = none), with the
    lateral EMA at fx (by default DETECT in the detection's direction)."""
    vs.inst_sign = sign
    vs.obs_fx = sign * DETECT if fx is None else fx
    vs._update_latch(DT)


class TestUpdateLatch:
    def test_commits_after_confirmations(self):
        vs = vision()
        assert OBS_CONFIRM == 2
        frame(vs, -1)
        assert vs.latch_left == 0 and vs.pend_count == 1
        frame(vs, -1)
        assert vs.latch_dir == -1
        assert vs.latch_left == round(vs.config.obs_hold / DT) == 8
        assert vs.commanded_fx == -vs.config.obs_latch_fx

    def test_sign_change_restarts_confirmation(self):
        vs = vision()
        frame(vs, 1)
        frame(vs, -1)
        assert vs.latch_left == 0 and (vs.pend_dir, vs.pend_count) == (-1, 1)

    def test_ema_tail_does_not_confirm(self):
        vs = vision()
        frame(vs, 1)
        for _ in range(5):
            frame(vs, 0, fx=DETECT)
        assert vs.latch_left == 0

    def test_gap_tolerated_then_reset(self):
        assert OBS_GAP_MAX == 2
        vs = vision()
        frame(vs, 1)
        for _ in range(OBS_GAP_MAX):
            frame(vs, 0, fx=DETECT)
        frame(vs, 1)
        assert vs.latch_dir == 1 and vs.latch_left == 8

        vs = vision()
        frame(vs, 1)
        for _ in range(OBS_GAP_MAX + 1):
            frame(vs, 0, fx=DETECT)
        assert (vs.pend_dir, vs.pend_count, vs.pend_gap) == (0, 0, 0)
        frame(vs, 1)
        assert vs.latch_left == 0 and vs.pend_count == 1

    def test_dwell_rearms_while_seen(self):
        vs = vision()
        frame(vs, 1)
        frame(vs, 1)
        for _ in range(3):
            frame(vs, 0, fx=0.0)
        assert vs.latch_left == 5
        frame(vs, 1)
        assert vs.latch_left == 8
        # an opposite detection does not hold the dwell open
        frame(vs, -1)
        assert vs.latch_left == 7 and vs.latch_dir == 1

    def test_refractory_blocks_recommit(self):
        vs = vision()
        frame(vs, 1)
        frame(vs, 1)
        for _ in range(8):
            frame(vs, 0, fx=0.0)
        assert vs.latch_left == 0
        assert vs.refract_left == round(OBS_REFRACT / DT) == 4
        for _ in range(4):
            frame(vs, 1)
        assert vs.latch_left == 0 and vs.refract_left == 0
        assert vs.pend_count == 0
        frame(vs, 1)
        frame(vs, 1)
        assert vs.latch_left == 8

    def test_commit_veto(self):
        vs = vision()
        vs.commit_ok = False
        for _ in range(4):
            frame(vs, 1)
        assert vs.latch_left == 0 and vs.pend_count == 0
        vs.commit_ok = True
        frame(vs, 1)
        assert vs.latch_left == 0
        frame(vs, 1)
        assert vs.latch_left == 8

    def test_below_deadband_is_no_detection(self):
        vs = vision()
        for _ in range(3):
            frame(vs, 1, fx=0.5 * OBS_DEADBAND)
        assert vs.latch_left == 0 and vs.pend_count == 0


def rows(ff):
    """The field as (x, y, vx, vy, valid) tuples of Python scalars."""
    return list(zip(*ff.pts.T.tolist(), *ff.disp.T.tolist(), ff.valid.tolist()))


class TestFbVerify:
    SHIFT = (3, -2)

    @pytest.fixture
    def scene_pair(self):
        """VisionState holding the previous frame's pyramid, and the pyramid
        of the next frame, which is the previous one moved by SHIFT px."""
        vs = vision()
        base = textured(128, 160, 21)
        vs.prev_pyr = pyramid(base, PYR_LEVELS)
        return vs, pyramid(shifted(base, *self.SHIFT), PYR_LEVELS)

    def test_consistent_track_survives(self, scene_pair):
        vs, pyr = scene_pair
        dx, dy = self.SHIFT
        ff = make_field([(60.0, 50.0, dx + 0.1, dy - 0.1, True),
                         (90.0, 70.0, dx, dy, True)])
        assert vs._fb_verify(np.array([0, 1]), ff, pyr).tolist() == [True, True]

    def test_corrupted_track_dropped(self, scene_pair):
        vs, pyr = scene_pair
        dx, dy = self.SHIFT
        tol = FB_TOL
        ff = make_field([(60.0, 50.0, dx + 2 * tol, dy, True),
                         (90.0, 70.0, dx, dy, True)])
        assert vs._fb_verify(np.array([0, 1]), ff, pyr).tolist() == [False, True]

    def test_invalid_back_track_dropped(self, scene_pair):
        # the first target's window leaves the frame, so its back track is
        # invalid; its zero displacement would pass the tolerance alone
        vs, pyr = scene_pair
        dx, dy = self.SHIFT
        ff = make_field([(10.0, 50.0, 0.5, 0.0, True),
                         (90.0, 70.0, dx, dy, True)])
        assert vs._fb_verify(np.array([0, 1]), ff, pyr).tolist() == [False, True]

    def test_matches_position_keyed_pairing(self, scene_pair):
        vs, pyr = scene_pair
        fwd = flow.track(vs.prev_pyr, pyr, grid_points(160, 128, step=13))
        rng = np.random.default_rng(4)
        disp = fwd.disp + rng.choice([0.0, 0.0, 0.6, 1.2, 2.5], fwd.disp.shape)
        ff = FlowField(fwd.pts, disp, fwd.valid)
        index = np.flatnonzero(ff.valid)[::2]
        got = vs._fb_verify(index, ff, pyr)
        ref = fb_verify_ref(vs, ff.pts[index].tolist(), ff, pyr)
        assert 0 < len(ref) < len(index)
        assert ff.pts[index][got].tolist() == ref


def fb_verify_ref(vs, flagged, ff_raw, pyr):
    """_fb_verify as it paired flags with forward vectors by position."""
    raw = {(x, y): (vx, vy) for x, y, vx, vy, ok in rows(ff_raw) if ok}
    items = []
    targets = []
    for x, y in flagged:
        v = raw.get((x, y))
        if v is None:
            continue
        items.append(([x, y], v))
        targets.append((x + v[0], y + v[1]))
    if not targets:
        return []
    back = flow.track(pyr, vs.prev_pyr, targets)
    out = []
    for (item, v), (bvx, bvy), ok in zip(items, back.disp.tolist(),
                                         back.valid.tolist()):
        if ok and math.hypot(bvx + v[0], bvy + v[1]) <= FB_TOL:
            out.append(item)
    return out


def cluster_filter_ref(vs, pts):
    c = vs.config
    if len(pts) < c.min_cluster:
        return []
    r2 = CLUSTER_RADIUS ** 2
    kept = []
    for i, (px, py) in enumerate(pts):
        n = sum(1 for j, (qx, qy) in enumerate(pts)
                if j != i and (px - qx) ** 2 + (py - qy) ** 2 <= r2)
        if n >= c.min_cluster - 1:
            kept.append([px, py])
    return kept


class TestClusterFilter:
    def test_isolated_flag_dropped(self):
        vs = vision()
        r = CLUSTER_RADIUS
        pts = np.array([(100.0, 100.0), (100.0 + r, 100.0),   # a pair
                        (100.0, 100.0 + r + 1.0)])            # and a loner
        assert vs._cluster_filter(pts).tolist() == [True, True, False]
        assert vs._cluster_filter(pts[2:]).tolist() == [False]

    def test_min_cluster_above_point_count(self):
        vs = vision(min_cluster=4)
        pts = np.array([(100.0, 100.0), (105.0, 100.0), (100.0, 105.0)])
        assert not vs._cluster_filter(pts).any()
        vs = vision(min_cluster=3)
        assert vs._cluster_filter(pts).all()

    @pytest.mark.parametrize("min_cluster", [1, 2, 3, 5])
    def test_matches_pairwise_loop(self, min_cluster):
        vs = vision(min_cluster=min_cluster)
        rng = np.random.default_rng(min_cluster)
        centres = rng.uniform(0, 320, (6, 2))
        pts = np.concatenate([centres, centres[:4] + rng.normal(0, 30, (4, 2)),
                              rng.uniform(0, 320, (8, 2)),
                              [(10.0, 10.0), (70.0, 10.0)]])   # exactly r apart
        got = pts[vs._cluster_filter(pts)].tolist()
        ref = cluster_filter_ref(vs, pts.tolist())
        assert got == ref and 0 < len(ref)


def derotate_ref(vs, ff, dpsi):
    if abs(dpsi) < 1e-6:
        return ff.disp
    f = vs.cam.focal
    out = []
    for x, y, vx, vy, ok in rows(ff):
        if not ok:
            out.append((vx, vy))
            continue
        xn = x - vs.cam.cx
        yn = y - vs.cam.cy
        out.append((vx - dpsi * (f + xn * xn / f), vy - dpsi * xn * yn / f))
    return np.array(out).reshape(-1, 2)


def trim_refit_ref(vs, ff, raw):
    """_trim_refit over per-vector tuples, sorted with Python's stable
    sort; the kept vectors reach estimate_foe in that order."""
    c = vs.config
    scored = []
    for x, y, vx, vy, ok in rows(ff):
        if not ok or math.hypot(vx, vy) < MIN_FLOW_SPEED:
            continue
        dx = x - raw.x_foe
        dy = y - raw.y_foe
        d = math.hypot(dx, dy)
        if d < 1e-9:
            continue
        perp = abs(vx * dy - vy * dx) / d
        scored.append((perp, (x, y, vx, vy)))
    if len(scored) < 8:
        return raw
    scored.sort(key=lambda t: t[0])
    keep = [v for _, v in scored[:max(int(c.foe_trim * len(scored)), 8)]]
    a = np.array(keep)
    try:
        return egomotion.estimate_foe(
            FlowField(a[:, :2], a[:, 2:], np.ones(len(a), dtype=bool)),
            min_speed=MIN_FLOW_SPEED)
    except (InsufficientFlowError, DegenerateGeometryError):
        return raw


def synthetic_field(seed, n=120):
    """Noisy radial flow about (160, 100) at whole-pixel points, with invalid
    vectors, vectors below 0.5 px (and one at exactly 0.5 px), a point on
    the FOE and mirrored pairs whose perpendicular errors tie exactly."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.integers(5, 315, n), rng.integers(5, 235, n)])
    pts = pts.astype(np.float64)
    disp = (pts - (160.0, 100.0)) * 0.04 + rng.normal(0, 0.3, (n, 2))
    valid = rng.random(n) > 0.1
    disp[::9] *= 0.05                               # below min_flow_speed
    disp[1] = (0.5, 0.0)                            # exactly at it
    pts[2] = (160.0, 100.0)                         # on the FOE
    # mirror the first half about x = 160 into the second: equal perps
    half = n // 2
    pts[half:, 0] = 320.0 - pts[:half, 0]
    pts[half:, 1] = pts[:half, 1]
    disp[half:] = disp[:half] * (-1, 1)
    valid[half:] = valid[:half]
    return FlowField(pts, disp, valid, frame_interval=1 / 15)


class TestFieldSteps:
    @pytest.mark.parametrize("dpsi", [0.0, 5e-7, 0.013, -0.021])
    def test_derotate_matches_vector_loop(self, dpsi):
        vs = vision()
        ff = synthetic_field(1)
        out = vs._derotate(ff, dpsi)
        assert np.array_equal(bits(out.disp), bits(derotate_ref(vs, ff, dpsi)))
        assert out.pts is ff.pts and out.valid is ff.valid

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("foe_trim", [0.7, 0.5])
    def test_trim_refit_matches_vector_loop(self, seed, foe_trim):
        vs = vision(foe_trim=foe_trim)
        ff = synthetic_field(seed)
        raw = egomotion.FoeEstimate(160.0, 100.0, 1.0, 0)
        got = vs._trim_refit(ff, raw)
        ref = trim_refit_ref(vs, ff, raw)
        assert got is not raw and ref is not raw
        assert (got.x_foe, got.y_foe, got.condition, got.n_constraints) == (
            ref.x_foe, ref.y_foe, ref.condition, ref.n_constraints)

    def test_trim_refit_too_few_vectors(self):
        vs = vision()
        ff = synthetic_field(0, n=16)
        raw = egomotion.FoeEstimate(160.0, 100.0, 1.0, 0)
        ff = FlowField(ff.pts, ff.disp, ff.valid & (np.arange(16) < 9))
        assert vs._trim_refit(ff, raw) is raw is trim_refit_ref(vs, ff, raw)


class TestOneFitPerField:
    """update fits the FOE once per distinct field: the obstacle stage
    reuses the raw-flow fit unless a yaw was subtracted, and falls back to
    the held estimate when its field fixes no FOE."""

    FITS = (egomotion.FoeEstimate(150.0, 110.0, 1.0, 10),
            egomotion.FoeEstimate(170.0, 130.0, 1.0, 10))

    def second_update(self, dpsi, fits):
        vs = vision()
        base = textured(240, 320, 3)
        vs.update(base, DT)
        vs.prev_pts = grid_points(320, 240)
        fitted, seen = [], []

        def fake_fit(ff):
            fitted.append(ff)
            return fits[len(fitted) - 1]

        vs._fit = fake_fit
        vs._update_obstacle = lambda ff, ff_raw, pyr, foe: seen.append(
            (ff, ff_raw, foe))
        ff = vs.update(shifted(base, 2, 1), DT, dpsi=dpsi)
        (ff_obs, ff_raw, foe), = seen
        assert ff_raw is ff
        return vs, ff, fitted, ff_obs, foe

    def test_no_yaw_reuses_the_fit(self):
        vs, ff, fitted, ff_obs, foe = self.second_update(0.0, self.FITS)
        assert len(fitted) == 1 and fitted[0] is ff and ff_obs is ff
        assert foe is self.FITS[0]

    def test_yaw_refits_the_derotated_field(self):
        vs, ff, fitted, ff_obs, foe = self.second_update(0.01, self.FITS)
        assert len(fitted) == 2 and fitted[0] is ff and fitted[1] is ff_obs
        assert ff_obs is not ff
        assert foe is self.FITS[1]

    @pytest.mark.parametrize("dpsi", [0.0, 0.01])
    def test_no_fit_holds_the_estimate(self, dpsi):
        vs, _, _, _, foe = self.second_update(dpsi, (None, None))
        assert foe is vs.foe


def test_one_gradient_per_level_per_image(monkeypatch):
    """update takes each pyramid level's gradient once per image: level 0's
    serves the corners and the pyramid, and the forward track and the
    forward-backward check read both images' pyramids. Three frames of the
    obstacles course 30 m before box 1, where the second frame's flags are
    checked backward."""
    world = scene.make_course("obstacles", seed=7)
    cam = scene.CameraModel()
    vs = VisionState(PipelineConfig(course="obstacles"), cam)
    shapes, fb = [], []
    gradient = imgproc.spatial_gradient
    monkeypatch.setattr(imgproc, "spatial_gradient",
                        lambda img: shapes.append(img.shape) or gradient(img))
    fb_verify = vs._fb_verify
    vs._fb_verify = lambda *args: fb.append(len(shapes)) or fb_verify(*args)
    v = vs.config.vehicle_params.v_d
    levels = [(240, 320), (120, 160), (60, 80)]
    assert len(levels) == PYR_LEVELS
    for k in range(3):
        x, y, h = world.road.pose_at(40.0 + k * 4 * SIM_DT * v)
        vs.update(scene.render(world, cam, VehicleState(x=x, y=y, psi=h, v=v)),
                  4 * SIM_DT)
        assert shapes == levels * (k + 1)
    assert fb


# ---------------------------------------------------------------------------
# control_step on a stub vision state, road tangent along +x
# ---------------------------------------------------------------------------

CAM = scene.CameraModel()
CONFIG = PipelineConfig()
# image-frame lateral force whose k_img-scaled push (150) dwarfs the goal
# attraction (alpha * 100 m = 5), so the field heading is near -pi/2
SHOVE = 1e-6


def stub_vision(fx=0.0, latched=False):
    """The attributes control_step reads from, or sets on, a VisionState;
    the FOE sits mid-frame, so the road reads as straight."""
    return SimpleNamespace(
        foe=egomotion.FoeEstimate(CAM.width / 2.0, CAM.cy, 1.0, 0),
        commanded_fx=fx, obs_fy=0.0, latch_left=5 if latched else 0,
        commit_ok=True)


def step(vs, lat=0.0, psi=0.0, goal=100.0, k=1, psi_d_prev=0.0):
    """One control step at the origin at cruise speed, wheels straight,
    with the road tangent along +x and the goal `goal` m ahead on it."""
    state = VehicleState(0.0, 0.0, psi, CONFIG.vehicle_params.v_d, 0.0)
    obs = Observation(lat_offset=lat, h_road=0.0, goal=(goal, 0.0))
    return control_step(CONFIG, CAM, vs, state, psi_d_prev, k, SIM_DT, obs)


class TestControlStep:
    @pytest.mark.parametrize("latched, cap", [
        (False, CONFIG.swerve_keep), (True, CONFIG.swerve_max)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_heading_clamped_about_road(self, latched, cap, sign):
        row, psi_d = step(stub_vision(sign * SHOVE, latched))
        # the raw field heading lies well past either cap
        assert -sign * math.atan2(row.f_tot_y, row.f_tot_x) > 1.5
        assert psi_d == pytest.approx(-sign * cap, abs=1e-12)

    def test_damping_cannot_exceed_cap(self):
        # off the tangent by 0.5 rad with a field along it: the rate damping
        # alone asks for sin(0.5) = 0.48 rad back, more than the cap
        _, psi_d = step(stub_vision(), psi=-0.5)
        assert psi_d == pytest.approx(CONFIG.swerve_keep, abs=1e-12)

    def test_damping_acts_on_the_clamped_heading(self):
        # the field pulls right far past the cap while the vehicle already
        # heads 0.5 rad right: damping turns the clamped command left
        _, psi_d = step(stub_vision(SHOVE), psi=-0.5)
        assert psi_d == pytest.approx(CONFIG.swerve_keep, abs=1e-12)

    def test_goal_gate_mutes_repulsion(self):
        row, _ = step(stub_vision(SHOVE), goal=OBS_GOAL_GATE)
        assert row.f_obs_x == 0.0
        row, _ = step(stub_vision(SHOVE), goal=OBS_GOAL_GATE + 1.0)
        assert row.f_obs_x == SHOVE

    @pytest.mark.parametrize("lat, psi, ok", [
        (0.0, 0.0, True),
        (0.99 * COMMIT_LAT_MAX, -0.9 * COMMIT_DEV_MAX, True),
        (1.01 * COMMIT_LAT_MAX, 0.0, False),
        (-1.01 * COMMIT_LAT_MAX, 0.0, False),
        (0.0, 1.1 * COMMIT_DEV_MAX, False),
        (0.0, -1.1 * COMMIT_DEV_MAX, False),
    ])
    def test_commit_gate(self, lat, psi, ok):
        vs = stub_vision()
        vs.commit_ok = not ok
        step(vs, lat=lat, psi=psi)
        assert vs.commit_ok is ok

    def test_heading_rate_zero_at_step_zero(self):
        # a held heading 1 rad away: a rate of -60 rad/s, capped, from step 1
        c_r = CONFIG.vehicle_params.c_r
        row, psi_d = step(stub_vision(), k=0, psi_d_prev=1.0)
        assert row.s_r == rotational_manifold(0.0, psi_d, 0.0, 0.0, c_r)
        row, psi_d = step(stub_vision(), k=1, psi_d_prev=1.0)
        assert row.s_r == rotational_manifold(0.0, psi_d, 0.0, -PSI_D_DOT_MAX,
                                              c_r)

    def test_taper_cuts_reference_speed(self):
        p = CONFIG.vehicle_params
        row, _ = step(stub_vision(), goal=2.0 * TAPER_DIST)
        assert row.s_l == p.c_l * p.v_d - p.v_d
        assert row.a == 0.0
        row, _ = step(stub_vision(), goal=0.5 * TAPER_DIST)
        assert row.s_l == p.c_l * p.v_d - 0.5 * p.v_d
        assert row.a < 0.0
