import dataclasses
import math

import numpy as np
import pytest

from flownav import features, scene
from flownav.errors import InvalidParameterError
from flownav.imgproc import GrayImage
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
        assert img.data.shape == (240, 320)
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_sky_above_horizon(self):
        img = render(self.world, self.cam, self.world.start_state)
        hrow = int(self.cam.horizon_row)
        assert np.allclose(img.data[: hrow - 2], scene.SKY_INTENSITY)
        assert not np.allclose(img.data[hrow + 5], scene.SKY_INTENSITY)

    def test_deterministic(self):
        a = render(self.world, self.cam, self.world.start_state)
        b = render(self.world, self.cam, self.world.start_state)
        assert np.array_equal(a.data, b.data)

    def test_enough_texture_for_tracking(self):
        # the quality level matches the closed-loop pipeline default
        img = render(self.world, self.cam, self.world.start_state)
        pts = features.detect_corners(img, max_corners=400, quality_level=0.002,
                                      row_range=(int(self.cam.horizon_row) + 2, 240))
        assert len(pts) >= 100

    def test_obstacle_visible(self):
        world = make_course("obstacles")
        plain = make_course("straight-arc")
        img_o = render(world, self.cam, world.start_state)
        img_p = render(plain, self.cam, plain.start_state)
        # the dark box at s=70 ahead changes a patch of pixels
        assert np.abs(img_o.data - img_p.data).max() > 0.2

    def test_forward_motion_expands_flow(self):
        # two renders a step apart: features below the horizon move outward
        # from the principal point region
        s0 = self.world.start_state
        s1 = VehicleState(x=s0.x + 0.5, y=s0.y, psi=s0.psi, v=s0.v)
        a = render(self.world, self.cam, s0)
        b = render(self.world, self.cam, s1)
        from flownav import flow
        pts = features.detect_corners(a, max_corners=150, row_range=(130, 238))
        ff = flow.track(a, b, pts, window=15, levels=2)
        _, vs = ff.valid_arrays()
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
        assert np.array_equal(a.data, b.data)
        assert not np.allclose(a.data, img.data)

    def test_rain_upper_image_untouched_except_droplets(self):
        world = make_course("straight")
        img = render(world, CameraModel(), world.start_state)
        out = degrade(img, "rain", seed=3)
        h0 = int(0.4 * 240)
        diff = np.abs(out.data[:h0] - img.data[:h0])
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
# The renderer casts box rays only inside each box's screen-space window and
# shades only the pixels a box wins; rain adds cached per-droplet patches.
# Every step is per-pixel arithmetic, so the frames must equal, bit for bit,
# the plain full-frame code below.


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
    shade = np.clip(box.intensity
                    + 0.12 * (value_noise(hit[..., 0] * 4.1 + hit[..., 2] * 2.3,
                                          hit[..., 1] * 4.1 + hit[..., 2] * 1.7,
                                          seed + 31) - 0.5), 0.0, 1.0)
    return t, shade


def _camera_rays(cam, state):
    basis = np.stack(scene._camera_basis(state.psi, cam.pitch))
    cp, sp = math.cos(state.psi), math.sin(state.psi)
    origin = np.array([state.x + cam.offset[0] * cp - cam.offset[1] * sp,
                       state.y + cam.offset[0] * sp + cam.offset[1] * cp,
                       cam.offset[2]])
    return origin, basis, cam.pixel_dirs() @ basis


def _ref_render(world, cam, state):
    """Ground-only frame, then every box composited over the full frame."""
    bare = dataclasses.replace(world, obstacles=[])
    img = render(bare, cam, state).data
    origin, _, dirs = _camera_rays(cam, state)
    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_best = np.where(dz < -1e-9, -origin[2] / dz, np.inf)
    for box in world.obstacles:
        t_box, shade = _ref_box_hits(box, origin, dirs, world.texture_seed)
        closer = t_box < t_best
        img = np.where(closer, shade, img)
        t_best = np.where(closer, t_box, t_best)
    return np.clip(img, 0.0, 1.0)


def _ref_degrade(img, seed):
    """Wet-road mirror plus 40 full-frame droplet blobs."""
    data = img.data.copy()
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
    assert np.array_equal(render(world, cam, state).data, want)
    if case in ("window", "straddle"):
        bare = render(dataclasses.replace(world, obstacles=[]), cam, state)
        assert not np.array_equal(bare.data, want)   # the box is drawn


@pytest.mark.parametrize("seed", [3, 7])
def test_rain_matches_full_frame_reference(seed):
    world = make_course("straight-arc", seed=seed)
    img = render(world, CameraModel(), world.start_state)
    want = _ref_degrade(img, seed)
    for _ in range(2):      # the second call reads the cached droplets
        assert np.array_equal(degrade(img, "rain", seed=seed).data, want)


def test_rain_droplets_cached_per_shape():
    rng = np.random.default_rng(0)
    img = GrayImage(rng.uniform(0.0, 1.0, (90, 130)))
    assert np.array_equal(degrade(img, "rain", seed=7).data,
                          _ref_degrade(img, 7))
    patches = scene._droplet_patches((90, 130), 7)
    assert patches is scene._droplet_patches((90, 130), 7)
    assert patches is not scene._droplet_patches((240, 320), 7)
    assert not any(p.flags.writeable for _, _, p in patches)
