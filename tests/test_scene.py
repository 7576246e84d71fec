import dataclasses
import math

import numpy as np
import pytest

from flownav import features, imgproc, scene
from flownav.errors import InvalidParameterError
from flownav.scene import (BoxObstacle, CameraModel, Road, RoadSegment,
                           WorldConfig, degrade, ground_truth, make_course,
                           render, value_noise)
from flownav.vehicle import VehicleState


def straight_road(length=200.0):
    return Road([RoadSegment("straight", length)])


class TestRoad:
    def test_width_validation(self):
        with pytest.raises(InvalidParameterError):
            Road([RoadSegment("straight", 100.0)], width=10.0)
        with pytest.raises(InvalidParameterError):
            Road([])

    def test_pose_straight(self):
        r = straight_road()
        assert r.pose_at(50.0) == pytest.approx((50.0, 0.0, 0.0))

    def test_pose_arc_quarter_circle(self):
        r = Road([RoadSegment("arc", 100.0 * math.pi / 2, radius=100.0, turn=1)])
        x, y, h = r.pose_at(r.total_length)
        assert x == pytest.approx(100.0, abs=1e-9)
        assert y == pytest.approx(100.0, abs=1e-9)
        assert h == pytest.approx(math.pi / 2, abs=1e-9)

    def test_pose_right_turn(self):
        r = Road([RoadSegment("arc", 50.0 * math.pi / 2, radius=50.0, turn=-1)])
        x, y, h = r.pose_at(r.total_length)
        assert x == pytest.approx(50.0, abs=1e-9)
        assert y == pytest.approx(-50.0, abs=1e-9)
        assert h == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_pose_continuous_across_junction(self):
        r = Road([RoadSegment("straight", 100.0),
                  RoadSegment("arc", 80.0, radius=200.0, turn=1)])
        a = r.pose_at(100.0 - 1e-6)
        b = r.pose_at(100.0 + 1e-6)
        assert a[0] == pytest.approx(b[0], abs=1e-4)
        assert a[1] == pytest.approx(b[1], abs=1e-4)

    def test_project_straight_sign(self):
        r = straight_road()
        s, d = r.project(np.array([30.0, 30.0]), np.array([2.0, -2.0]))
        assert np.allclose(s, 30.0)
        assert d[0] == pytest.approx(2.0)    # left of travel is positive
        assert d[1] == pytest.approx(-2.0)

    def test_project_inverts_pose(self):
        r = Road([RoadSegment("straight", 120.0),
                  RoadSegment("arc", 100.0, radius=200.0, turn=1)])
        for s_true in (10.0, 119.0, 150.0, 210.0):
            x, y, h = r.pose_at(s_true)
            # offset 1.5 m to the left
            px = x - math.sin(h) * 1.5
            py = y + math.cos(h) * 1.5
            s, d = r.project(np.array([px]), np.array([py]))
            assert s[0] == pytest.approx(s_true, abs=1e-6)
            assert d[0] == pytest.approx(1.5, abs=1e-6)

    def test_total_length(self):
        r = Road([RoadSegment("straight", 120.0),
                  RoadSegment("arc", 100.0, radius=200.0, turn=1)])
        assert r.total_length == pytest.approx(220.0)


class TestNoise:
    def test_deterministic(self):
        u = np.linspace(0, 10, 50)
        v = np.linspace(0, 10, 50)
        a = value_noise(u, v, 7)
        b = value_noise(u, v, 7)
        assert np.array_equal(a, b)

    def test_seed_changes_field(self):
        u = np.linspace(0, 10, 50)
        a = value_noise(u, u, 7)
        b = value_noise(u, u, 8)
        assert not np.allclose(a, b)

    def test_range(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-100, 100, 1000)
        v = rng.uniform(-100, 100, 1000)
        n = value_noise(u, v, 3)
        assert n.min() >= 0.0 and n.max() <= 1.0

    def test_continuity(self):
        u = np.linspace(5.0, 5.01, 100)
        n = value_noise(u, np.full_like(u, 2.0), 7)
        assert np.abs(np.diff(n)).max() < 0.01


class TestRender:
    def setup_method(self):
        self.world = make_course("straight")
        self.cam = CameraModel()

    def test_shape_and_range(self):
        img = render(self.world, self.cam, self.world.start_state)
        assert img.shape == (240, 320)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_sky_above_horizon(self):
        img = render(self.world, self.cam, self.world.start_state)
        hrow = int(self.cam.horizon_row)
        assert np.allclose(img[: hrow - 2], scene.SKY_INTENSITY)
        assert not np.allclose(img[hrow + 5], scene.SKY_INTENSITY)

    def test_deterministic(self):
        a = render(self.world, self.cam, self.world.start_state)
        b = render(self.world, self.cam, self.world.start_state)
        assert np.array_equal(a, b)

    def test_enough_texture_for_tracking(self):
        # the quality level matches the closed-loop pipeline default
        img = render(self.world, self.cam, self.world.start_state)
        pts = features.detect_corners(imgproc.spatial_gradient(img),
                                      max_corners=400, quality_level=0.002,
                                      row_range=(int(self.cam.horizon_row) + 2, 240))
        assert len(pts) >= 100

    def test_obstacle_visible(self):
        world = make_course("obstacles")
        plain = make_course("straight-arc")
        img_o = render(world, self.cam, world.start_state)
        img_p = render(plain, self.cam, plain.start_state)
        # the dark box at s=70 ahead changes a patch of pixels
        assert np.abs(img_o - img_p).max() > 0.2

    def test_forward_motion_expands_flow(self):
        # two renders a step apart: features below the horizon move outward
        # from the principal point region
        s0 = self.world.start_state
        s1 = VehicleState(x=s0.x + 0.5, y=s0.y, psi=s0.psi, v=s0.v)
        a = render(self.world, self.cam, s0)
        b = render(self.world, self.cam, s1)
        from flownav import flow
        ga = imgproc.spatial_gradient(a)
        pts = features.detect_corners(ga, max_corners=150, row_range=(130, 238))
        ff = flow.track(flow.build_pyramid(a, ga, 2),
                        flow.build_pyramid(b, imgproc.spatial_gradient(b), 2),
                        pts, window=15)
        vs = ff.disp[ff.valid]
        assert len(vs) >= 20
        # dominant vertical motion should be downward (scene streams past)
        assert np.median(vs[:, 1]) > 0.05

    def test_camera_below_ground_rejected(self):
        cam = CameraModel(offset=(1.0, 0.0, -1.0))
        with pytest.raises(InvalidParameterError):
            render(self.world, cam, self.world.start_state)


class TestDegrade:
    def test_clear_identity(self):
        img = render(make_course("straight"), CameraModel(),
                     make_course("straight").start_state)
        assert degrade(img, "clear") is img

    def test_rain_deterministic_and_different(self):
        world = make_course("straight")
        img = render(world, CameraModel(), world.start_state)
        a = degrade(img, "rain", seed=3)
        b = degrade(img, "rain", seed=3)
        assert np.array_equal(a, b)
        assert not np.allclose(a, img)

    def test_rain_upper_image_untouched_except_droplets(self):
        world = make_course("straight")
        img = render(world, CameraModel(), world.start_state)
        out = degrade(img, "rain", seed=3)
        h0 = int(0.4 * 240)
        diff = np.abs(out[:h0] - img[:h0])
        # only droplet ellipses touch the top band
        assert (diff > 0).mean() < 0.25

    def test_unknown_mode(self):
        world = make_course("straight")
        img = render(world, CameraModel(), world.start_state)
        with pytest.raises(InvalidParameterError):
            degrade(img, "snow")


class TestGroundTruthAndCourses:
    def test_ground_truth_fields(self):
        world = make_course("obstacles")
        gt = ground_truth(world, world.start_state)
        assert gt["arclength"] == pytest.approx(2.0, abs=1e-6)
        assert gt["lateral_offset"] == pytest.approx(0.0, abs=1e-6)
        assert gt["clearance"] < math.inf

    def test_clearance_point_inside_box(self):
        world = WorldConfig(road=straight_road(), goal=(100.0, 0.0),
                            obstacles=[BoxObstacle(10.0, 0.0, 1.0, 1.0, 1.0)])
        gt = ground_truth(world, VehicleState(x=10.0, y=0.5))
        assert gt["clearance"] == 0.0
        gt2 = ground_truth(world, VehicleState(x=10.0, y=3.0))
        assert gt2["clearance"] == pytest.approx(2.0)

    def test_courses_constructed(self):
        for name in ("straight", "straight-arc", "obstacles"):
            world = make_course(name)
            assert world.road.total_length >= 200.0
            gt = ground_truth(world, world.start_state)
            assert gt["distance_to_goal"] > 100.0

    def test_obstacles_offset_from_centerline(self):
        world = make_course("obstacles")
        assert len(world.obstacles) == 2
        for box in world.obstacles:
            _s, d = world.road.project(np.array([box.x]), np.array([box.y]))
            assert abs(abs(d[0]) - 0.9) < 1e-6

    def test_unknown_course(self):
        with pytest.raises(InvalidParameterError):
            make_course("figure-eight")


# ---------------------------------------------------------------------------
# oracle: render and degrade equal a straightforward full-frame reference
# ---------------------------------------------------------------------------
#
# The renderer casts the ground as the slab of rows below the horizon,
# evaluates noise octaves and lane lines only where they change a pixel,
# casts box rays only inside each box's screen-space window and shades only
# the pixels a box wins; rain adds cached per-droplet patches. Every step is
# per-pixel arithmetic, so the frames must equal, bit for bit (sign bits
# included), the plain full-frame code below.


def _bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _ref_project(road, px, py):
    """Every segment over every point, each result picked by np.where."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    best_dist = np.full(px.shape, np.inf)
    best_s = np.zeros(px.shape)
    best_d = np.zeros(px.shape)
    for seg, (s0, x0, y0, h) in zip(road.segments, road._starts):
        ch, sh = math.cos(h), math.sin(h)
        dx = px - x0
        dy = py - y0
        if seg.kind == "straight":
            s_loc = np.clip(ch * dx + sh * dy, 0.0, seg.length)
            cx = x0 + s_loc * ch
            cy = y0 + s_loc * sh
            hh = np.full(px.shape, h)
        else:
            ccx = x0 - seg.radius * sh * seg.turn
            ccy = y0 + seg.radius * ch * seg.turn
            a0 = math.atan2(y0 - ccy, x0 - ccx)
            ang = np.arctan2(py - ccy, px - ccx)
            sweep = (ang - a0) * seg.turn
            sweep = np.mod(sweep + math.pi, 2 * math.pi) - math.pi
            s_loc = np.clip(sweep * seg.radius, 0.0, seg.length)
            a = a0 + s_loc / seg.radius * seg.turn
            cx = ccx + seg.radius * np.cos(a)
            cy = ccy + seg.radius * np.sin(a)
            hh = h + s_loc / seg.radius * seg.turn
        ddx = px - cx
        ddy = py - cy
        dist = np.hypot(ddx, ddy)
        lat = -np.sin(hh) * ddx + np.cos(hh) * ddy
        closer = dist < best_dist
        best_dist = np.where(closer, dist, best_dist)
        best_s = np.where(closer, s0 + s_loc, best_s)
        best_d = np.where(closer, lat, best_d)
    return best_s, best_d


def _ref_value_noise(u, v, seed, octaves=3, foot=None):
    """Every octave over every sample, faded ones included."""
    total = np.zeros(np.shape(u))
    amp = 1.0
    norm = 0.0
    freq = 1.0
    for o in range(octaves):
        amp_eff = amp
        if foot is not None:
            cyc = freq * np.asarray(foot)
            amp_eff = amp * np.clip((0.5 - cyc) / 0.25, 0.0, 1.0)
        total = total + amp_eff * (scene._lattice_noise(np.asarray(u) * freq,
                                                        np.asarray(v) * freq,
                                                        seed + 101 * o) - 0.5)
        norm += amp
        amp *= 0.5
        freq *= 2.0
    return 0.5 + total / norm


def _ref_lane_lines(half):
    """(offset, half-width, dashed) of the five lane lines, in blend order."""
    return ([(b, 0.15, False) for b in (-half, half)]
            + [(b, 0.10, True) for b in (-scene.LANE_WIDTH, 0.0,
                                         scene.LANE_WIDTH)])


def _ref_shade_ground(world, gx, gy, foot):
    """Road and verge noise, then each lane line blended over every sample."""
    s, d = _ref_project(world.road, gx, gy)
    seed = world.texture_seed
    on_road = np.abs(d) <= world.road.width / 2.0
    off_road = ~on_road
    val = np.empty_like(s)
    val[on_road] = 0.33 + 0.28 * _ref_value_noise(
        s[on_road] * 1.7, d[on_road] * 1.7, seed, octaves=3,
        foot=foot[on_road] * 1.7)
    val[off_road] = 0.52 + 0.18 * _ref_value_noise(
        s[off_road] * 1.3, d[off_road] * 1.3, seed + 7,
        foot=foot[off_road] * 1.3)
    aa = np.maximum(foot, 1e-6)
    for b, hw, dashed in _ref_lane_lines(world.road.width / 2.0):
        cov = np.clip((hw - np.abs(d - b)) / aa + 0.5, 0.0, 1.0)
        if dashed:
            cov = np.where(np.mod(s, 12.0) < 3.0, cov, 0.0)
        val = val + (0.92 - val) * cov
    return val


def _ref_ground(cam, state):
    """Per-pixel ground test and ground points: (origin, dirs, t_ground,
    ground mask, gx, gy, foot)."""
    origin, _, dirs = _camera_rays(cam, state)
    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < -1e-9, -origin[2] / dz, np.inf)
    ground = np.isfinite(t_ground)
    gx = origin[0] + dirs[..., 0][ground] * t_ground[ground]
    gy = origin[1] + dirs[..., 1][ground] * t_ground[ground]
    norm2 = np.sum(dirs * dirs, axis=-1)[ground]
    foot = (t_ground[ground] * norm2
            / (cam.focal * np.maximum(np.abs(dz[ground]), 1e-9)))
    return origin, dirs, t_ground, ground, gx, gy, foot


def _ref_box_hits(box, origin, dirs, seed):
    """Full-frame slab test and shade, for every pixel of the frame."""
    lo = np.array([box.x - box.hx, box.y - box.hy, 0.0])
    hi = np.array([box.x + box.hx, box.y + box.hy, 2.0 * box.hz])
    t_near = np.full(dirs.shape[:-1], -np.inf)
    t_far = np.full(dirs.shape[:-1], np.inf)
    for k in range(3):
        dk = dirs[..., k]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo[k] - origin[k]) / dk
            t2 = (hi[k] - origin[k]) / dk
        swap = t1 > t2
        t1, t2 = np.where(swap, t2, t1), np.where(swap, t1, t2)
        par = np.abs(dk) < 1e-12
        inside = (origin[k] >= lo[k]) & (origin[k] <= hi[k])
        t1 = np.where(par, np.where(inside, -np.inf, np.inf), t1)
        t2 = np.where(par, np.where(inside, np.inf, -np.inf), t2)
        t_near = np.maximum(t_near, t1)
        t_far = np.minimum(t_far, t2)
    ok = (t_near <= t_far) & (t_far > 0.0)
    t = np.where(t_near > 0.0, t_near, t_far)
    t = np.where(ok, t, np.inf)
    t_safe = np.where(np.isfinite(t), t, 0.0)
    hit = origin[None, None, :] + dirs * t_safe[..., None]
    u = hit[..., 0] * 4.1 + hit[..., 2] * 2.3
    v = hit[..., 1] * 4.1 + hit[..., 2] * 1.7
    shade = np.clip(box.intensity
                    + 0.12 * (_ref_value_noise(u, v, seed + 31) - 0.5),
                    0.0, 1.0)
    return t, shade


def _camera_rays(cam, state):
    basis = np.stack(scene._camera_basis(state.psi, cam.pitch))
    cp, sp = math.cos(state.psi), math.sin(state.psi)
    origin = np.array([state.x + cam.offset[0] * cp - cam.offset[1] * sp,
                       state.y + cam.offset[0] * sp + cam.offset[1] * cp,
                       cam.offset[2]])
    return origin, basis, cam.pixel_dirs() @ basis


def _ref_render(world, cam, state):
    """Ground over the per-pixel ground mask, then every box composited over
    the full frame."""
    origin, dirs, t_ground, ground, gx, gy, foot = _ref_ground(cam, state)
    img = np.full(ground.shape, scene.SKY_INTENSITY)
    img[ground] = _ref_shade_ground(world, gx, gy, foot)
    t_best = t_ground
    for box in world.obstacles:
        t_box, shade = _ref_box_hits(box, origin, dirs, world.texture_seed)
        closer = t_box < t_best
        img = np.where(closer, shade, img)
        t_best = np.where(closer, t_box, t_best)
    return np.clip(img, 0.0, 1.0)


def _ref_degrade(img, seed):
    """Wet-road mirror plus 40 full-frame droplet blobs."""
    data = img.copy()
    h, w = data.shape
    h0 = int(0.4 * h)
    rows = np.arange(h0, h)
    src = np.clip(2 * h0 - rows, 0, h - 1)
    data[rows] = 0.65 * data[rows] + 0.35 * data[src]
    ys, xs = np.mgrid[0:h, 0:w]
    for cx, cy, rx, ry in scene.droplet_spots((h, w), seed):
        blob = np.exp(-(((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2))
        data += 0.3 * np.where(blob > 0.05, blob, 0.0)
    return np.clip(data, 0.0, 1.0)


def _box_case(cam, state, box):
    """How the renderer treats a box: window, beside, behind or straddle."""
    origin, basis, _ = _camera_rays(cam, state)
    lo = np.array([box.x - box.hx, box.y - box.hy, 0.0])
    hi = np.array([box.x + box.hx, box.y + box.hy, 2.0 * box.hz])
    win = scene._box_window(lo, hi, origin, basis, cam)
    depth = [(np.array([x, y, z]) - origin) @ basis[2]
             for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
             for z in (lo[2], hi[2])]
    if min(depth) > 0.0:
        return "beside" if win is None else "window"
    if max(depth) < 0.0:
        return "behind" if win is None else "behind, yet cast"
    full = (slice(0, cam.height), slice(0, cam.width))
    return "straddle" if win == full else "straddle, yet windowed"


# (arclength, lateral offset, heading offset from the road) on the
# obstacles course, and how the first box (s = 70 m, d = 0.9 m) is treated
OBSTACLE_STATES = [
    (50.0, 0.0, 0.4, "window"),
    (50.0, 0.0, -0.4, "window"),
    (66.0, 0.0, 0.4, "window"),     # window clipped by the frame edge
    (66.0, 0.0, -0.4, "window"),
    (60.0, -2.0, -0.4, "beside"),   # in front, outside the frustum
    (60.0, 3.5, 0.4, "beside"),
    (80.0, 0.0, 0.4, "behind"),
    (80.0, 0.0, -0.4, "behind"),
    (68.5, 3.5, 0.4, "straddle"),   # the whole frame is cast
    (69.0, 3.5, -0.4, "straddle"),
]


@pytest.mark.parametrize("s,d,dh,case", OBSTACLE_STATES)
def test_render_matches_full_frame_reference(s, d, dh, case):
    world = make_course("obstacles")
    cam = CameraModel()
    x, y, h = world.road.pose_at(s)
    state = VehicleState(x=x - math.sin(h) * d, y=y + math.cos(h) * d,
                         psi=h + dh)
    assert _box_case(cam, state, world.obstacles[0]) == case
    want = _ref_render(world, cam, state)
    assert np.array_equal(render(world, cam, state), want)
    if case in ("window", "straddle"):
        bare = render(dataclasses.replace(world, obstacles=[]), cam, state)
        assert not np.array_equal(bare, want)   # the box is drawn


# (arclength, lateral offset, heading offset from the road, texture seed) on
# the straight-arc course: the straight meets the arc at s = 120 m and the
# road ends at 0 and 220 m; offsets of 6.5 m reach the solid edge lines
# (7 m), offsets of 12 m stand on the verge
GROUND_STATES = [
    (110.0, 0.0, 0.0, 7),           # the switch 10 m ahead
    (119.0, 6.5, 0.6, 3),
    (119.0, -6.5, -0.6, 7),
    (120.0, 12.0, 1.5, 7),          # looking back across the road
    (120.0, -12.0, -1.5, 3),
    (120.0, 0.0, math.pi, 7),       # looking back down the straight
    (121.0, 6.5, -1.5, 7),
    (121.0, -6.5, 1.5, 3),
    (121.0, 12.0, -0.6, 3),
    (121.0, -12.0, 0.6, 7),
    (0.0, 0.0, math.pi, 3),         # the start, looking back past it
    (0.0, 6.5, 0.6, 7),
    (220.0, 0.0, 0.0, 7),           # the end, looking on past it
    (220.0, -6.5, math.pi, 3),
    (220.0, 12.0, -0.6, 3),
]


def _road_state(world, s, d, dh):
    x, y, h = world.road.pose_at(s)
    return VehicleState(x=x - math.sin(h) * d, y=y + math.cos(h) * d,
                        psi=h + dh)


@pytest.mark.parametrize("s,d,dh,seed", GROUND_STATES)
def test_ground_matches_full_frame_reference(s, d, dh, seed):
    world = make_course("straight-arc", seed=seed)
    cam = CameraModel()
    state = _road_state(world, s, d, dh)
    assert _bit_equal(render(world, cam, state),
                      _ref_render(world, cam, state))


def test_ground_states_reach_sparse_paths():
    """The states above include off-road samples with a live octave, on-road
    samples past the fade of the top octave, and samples partly covered by a
    lane line, so every subset path of the ground shading runs."""
    cam = CameraModel()
    off_live = on_faded = partial = False
    for s, d, dh, seed in GROUND_STATES:
        world = make_course("straight-arc", seed=seed)
        *_, gx, gy, foot = _ref_ground(cam, _road_state(world, s, d, dh))
        _, lat = _ref_project(world.road, gx, gy)
        on_road = np.abs(lat) <= world.road.width / 2.0
        off_live |= bool(np.any(~on_road & (foot * 1.3 < 0.5)))
        on_faded |= bool(np.any(on_road & (foot * 1.7 * 4.0 >= 0.5)))
        aa = np.maximum(foot, 1e-6)
        for b, hw, _ in _ref_lane_lines(world.road.width / 2.0):
            cov = np.clip((hw - np.abs(lat - b)) / aa + 0.5, 0.0, 1.0)
            partial |= bool(np.any((cov > 0.0) & (cov < 1.0)))
    assert off_live and on_faded and partial


def test_project_matches_reference():
    rng = np.random.default_rng(5)
    # straight-arc: the arc's centre is (120, 200), so points with y > 200
    # or x < 120 far from the road lie outside its 0.5 rad sweep
    px = rng.uniform(-60.0, 360.0, 20000)
    py = rng.uniform(-150.0, 450.0, 20000)
    road = make_course("straight-arc").road
    s, d = road.project(px, py)
    s_ref, d_ref = _ref_project(road, px, py)
    assert _bit_equal(s, s_ref) and _bit_equal(d, d_ref)
    assert np.any(s == 0.0) and np.any(s == road.total_length)
    # a straight with a nonzero heading, after a right-hand arc
    bent = Road([RoadSegment("straight", 50.0),
                 RoadSegment("arc", 60.0, radius=80.0, turn=-1),
                 RoadSegment("straight", 40.0)])
    for got, want in zip(bent.project(px / 3.0, py / 3.0),
                         _ref_project(bent, px / 3.0, py / 3.0)):
        assert _bit_equal(got, want)
    # lists and 1-element arrays, as ground_truth and the benchmark's swing
    # check pass them
    for args in (([130.0], [2.0]), ([-5.0, 60.0, 250.0], [1.0, -3.0, 80.0]),
                 (np.array([121.0]), np.array([-6.5]))):
        for got, want in zip(road.project(*args), _ref_project(road, *args)):
            assert _bit_equal(got, want)


@pytest.mark.parametrize("seed", [3, 7])
def test_rain_matches_full_frame_reference(seed):
    world = make_course("straight-arc", seed=seed)
    img = render(world, CameraModel(), world.start_state)
    want = _ref_degrade(img, seed)
    for _ in range(2):      # the second call reads the cached droplets
        assert np.array_equal(degrade(img, "rain", seed=seed), want)


def test_rain_droplets_cached_per_shape():
    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 1.0, (90, 130))
    assert np.array_equal(degrade(img, "rain", seed=7),
                          _ref_degrade(img, 7))
    patches = scene._droplet_patches((90, 130), 7)
    assert patches is scene._droplet_patches((90, 130), 7)
    assert patches is not scene._droplet_patches((240, 320), 7)
    assert not any(p.flags.writeable for _, _, p in patches)
