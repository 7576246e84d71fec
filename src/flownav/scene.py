"""Deterministic synthetic world and pinhole ground-plane renderer.

The world is a flat ground plane carrying a multi-segment road (straights and
arcs), box obstacles and a goal point. Frames are produced by casting one ray
per pixel from the camera and shading ground hits with a seeded value-noise
texture plus lane markings; this replaces an external driving simulator for
closed-loop runs.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import imgproc
from .errors import InvalidParameterError
from .vehicle import VehicleState, wrap_angle

LANE_WIDTH = 3.5
SKY_INTENSITY = 0.8


# ---------------------------------------------------------------------------
# road geometry
# ---------------------------------------------------------------------------


@dataclass
class RoadSegment:
    kind: str              # "straight" | "arc"
    length: float          # arclength in m
    radius: float = 0.0    # arc only
    turn: int = 0          # +1 left, -1 right (arc only)


class Road:
    """Piecewise straight/arc centerline with signed lateral projection.

    Lateral offsets are positive to the LEFT of the direction of travel.
    """

    def __init__(self, segments, width=14.0, lane_count=4):
        if not segments:
            raise InvalidParameterError("road needs at least one segment")
        if abs(width - lane_count * LANE_WIDTH) > 1e-9:
            raise InvalidParameterError("road width must equal lane_count * 3.5 m")
        self.segments = list(segments)
        self.width = width
        self.lane_count = lane_count
        self._starts = []  # (s0, x, y, heading)
        s = x = y = h = 0.0
        for seg in self.segments:
            self._starts.append((s, x, y, h))
            if seg.kind == "straight":
                x += seg.length * math.cos(h)
                y += seg.length * math.sin(h)
            elif seg.kind == "arc":
                if seg.radius <= 0 or seg.turn not in (-1, 1):
                    raise InvalidParameterError("arc needs positive radius and turn ±1")
                sweep = seg.length / seg.radius * seg.turn
                # center sits on the turn side
                cx = x - seg.radius * math.sin(h) * seg.turn
                cy = y + seg.radius * math.cos(h) * seg.turn
                a0 = math.atan2(y - cy, x - cx)
                a1 = a0 + sweep
                x = cx + seg.radius * math.cos(a1)
                y = cy + seg.radius * math.sin(a1)
                h = wrap_angle(h + sweep)
            else:
                raise InvalidParameterError(f"unknown segment kind {seg.kind!r}")
            s += seg.length
        self.total_length = s

    def pose_at(self, s):
        """(x, y, heading) of the centerline at arclength s (clamped)."""
        s = min(max(s, 0.0), self.total_length)
        for seg, (s0, x, y, h) in zip(self.segments, self._starts):
            if s <= s0 + seg.length + 1e-9:
                ds = s - s0
                if seg.kind == "straight":
                    return (x + ds * math.cos(h), y + ds * math.sin(h), h)
                sweep = ds / seg.radius * seg.turn
                cx = x - seg.radius * math.sin(h) * seg.turn
                cy = y + seg.radius * math.cos(h) * seg.turn
                a0 = math.atan2(y - cy, x - cx)
                a = a0 + sweep
                return (cx + seg.radius * math.cos(a),
                        cy + seg.radius * math.sin(a),
                        wrap_angle(h + sweep))
        raise InvalidParameterError(f"arclength {s} outside road")

    def project(self, px, py):
        """Vectorized projection of points onto the centerline.

        Returns (s, d): arclength (clamped to [0, total]) and signed lateral
        offset, positive left of travel direction.

        An arc after the first segment is evaluated only at the points it
        may win: no point of the arc is nearer to p than
        |hypot(p - centre) - R|, so where that bound exceeds the best
        distance so far by more than 1e-6 m (far beyond rounding) the arc
        cannot be strictly closer, and its formula is skipped there, unless
        the bound keeps more than half of the points.
        """
        px, py = np.broadcast_arrays(np.asarray(px, dtype=np.float64),
                                     np.asarray(py, dtype=np.float64))
        shape = px.shape
        px, py = px.ravel(), py.ravel()
        for k, (seg, (s0, x0, y0, h)) in enumerate(zip(self.segments,
                                                        self._starts)):
            ch, sh = math.cos(h), math.sin(h)
            at = slice(None)            # the points this segment is run on
            if seg.kind == "straight":
                s_loc = np.clip(ch * (px - x0) + sh * (py - y0), 0.0, seg.length)
                ddx = px - (x0 + s_loc * ch)
                ddy = py - (y0 + s_loc * sh)
                lat = -sh * ddx + ch * ddy
            else:
                ccx = x0 - seg.radius * sh * seg.turn
                ccy = y0 + seg.radius * ch * seg.turn
                qx, qy = px, py
                if k:
                    bound = np.abs(np.hypot(px - ccx, py - ccy) - seg.radius)
                    near = bound <= best_dist + 1e-6
                    # gathering pays where the straight wins most points
                    # (obstacles' view of the road), but costs more than the
                    # formula it skips where the arc wins most (clear, rain)
                    if 2 * np.count_nonzero(near) <= near.size:
                        at = np.flatnonzero(near)
                        qx, qy = px[at], py[at]
                a0 = math.atan2(y0 - ccy, x0 - ccx)
                ang = np.arctan2(qy - ccy, qx - ccx)
                sweep = (ang - a0) * seg.turn
                sweep = np.mod(sweep + math.pi, 2 * math.pi) - math.pi
                s_loc = np.clip(sweep * seg.radius, 0.0, seg.length)
                a = a0 + s_loc / seg.radius * seg.turn
                ddx = qx - (ccx + seg.radius * np.cos(a))
                ddy = qy - (ccy + seg.radius * np.sin(a))
                hh = h + s_loc / seg.radius * seg.turn
                lat = -np.sin(hh) * ddx + np.cos(hh) * ddy
            dist = np.hypot(ddx, ddy)
            if k == 0:
                best_dist, best_s, best_d = dist, s0 + s_loc, lat
                continue
            closer = dist < best_dist[at]
            if isinstance(at, slice):
                for best, new in ((best_dist, dist), (best_s, s0 + s_loc),
                                  (best_d, lat)):
                    np.copyto(best, new, where=closer)
            else:
                won = np.flatnonzero(closer)
                best_dist[at[won]] = dist[won]
                best_s[at[won]] = s0 + s_loc[won]
                best_d[at[won]] = lat[won]
        return best_s.reshape(shape), best_d.reshape(shape)


# ---------------------------------------------------------------------------
# world + camera
# ---------------------------------------------------------------------------


@dataclass
class BoxObstacle:
    x: float
    y: float
    hx: float
    hy: float
    hz: float
    intensity: float = 0.1


@dataclass
class WorldConfig:
    road: Road
    obstacles: list
    goal: tuple
    texture_seed: int = 7
    start_state: VehicleState = field(default_factory=VehicleState)


@dataclass
class CameraModel:
    offset: tuple = (1.0, 0.0, 1.4)   # (forward, left, up) from the CG, m
    pitch: float = math.radians(-5.0)
    focal: float = 280.0
    cx: float = 160.0
    cy: float = 120.0
    width: int = 320
    height: int = 240

    def pixel_dirs(self, rows=slice(None), cols=slice(None)):
        """Camera-frame ray directions (x right, y down, z forward) of the
        pixels in the given row and column slices, the whole frame by
        default: a (rows, cols, 3) array, computed from the current fields
        on every call. Each ray depends on its own pixel alone, so a block
        of them equals the same block of the whole frame's."""
        us, vs = np.meshgrid(np.arange(self.width)[cols],
                             np.arange(self.height)[rows])
        return np.stack([(us - self.cx) / self.focal,
                         (vs - self.cy) / self.focal,
                         np.ones_like(us, dtype=np.float64)], axis=-1)

    @property
    def horizon_row(self):
        """Image row of the ground-plane horizon (level flight)."""
        return self.cy + self.focal * math.tan(self.pitch)


# ---------------------------------------------------------------------------
# seeded value noise
# ---------------------------------------------------------------------------

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _hash01(ix, iy, seed):
    seed_mix = np.uint64((seed * 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF)
    h = (ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
         ^ seed_mix)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _lattice_noise(u, v, seed):
    iu = np.floor(u)
    iv = np.floor(v)
    fu = u - iu
    fv = v - iv
    fu = fu * fu * (3.0 - 2.0 * fu)
    fv = fv * fv * (3.0 - 2.0 * fv)
    iu = iu.astype(np.int64)
    iv = iv.astype(np.int64)
    n00 = _hash01(iu, iv, seed)
    n10 = _hash01(iu + 1, iv, seed)
    n01 = _hash01(iu, iv + 1, seed)
    n11 = _hash01(iu + 1, iv + 1, seed)
    top = n00 * (1 - fu) + n10 * fu
    bot = n01 * (1 - fu) + n11 * fu
    return top * (1 - fv) + bot * fv


def value_noise(u, v, seed, octaves=3, foot=None):
    """Seeded multi-octave value noise in [0, 1].

    foot (same units as u/v) is the sampling footprint per output sample;
    octaves whose wavelength approaches it are faded out toward their mean,
    the analytic equivalent of mip-mapping. Without it, distant texture
    aliases into frame-to-frame shimmer that a tracker mistakes for motion.
    With it, an octave is evaluated only on the samples where its faded
    amplitude is not zero: anywhere else it would add a signed zero to a sum
    that is never -0.0, which changes nothing. The fade deepens with every
    octave, so each octave's samples are a subset of the previous one's.
    """
    u, v = np.asarray(u), np.asarray(v)
    shape = u.shape
    total = np.zeros(shape)
    live = ...              # every sample
    if foot is not None:
        u, v, foot, total = (np.ravel(a) for a in
                             (u, v, np.broadcast_to(foot, shape), total))
        live = np.arange(total.size)
    amp = 1.0
    norm = 0.0
    freq = 1.0
    for o in range(octaves):
        amp_eff = amp
        if foot is not None:
            amp_eff = amp * np.clip((0.5 - freq * foot[live]) / 0.25, 0.0, 1.0)
            keep = np.flatnonzero(amp_eff)
            live, amp_eff = live[keep], amp_eff[keep]
        total[live] += amp_eff * (_lattice_noise(u[live] * freq, v[live] * freq,
                                                 seed + 101 * o) - 0.5)
        norm += amp
        amp *= 0.5
        freq *= 2.0
    return 0.5 + total.reshape(shape) / norm


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _camera_basis(psi, pitch):
    ct, st = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(psi), math.sin(psi)
    forward = np.array([ct * cp, ct * sp, st])
    right = np.array([sp, -cp, 0.0])
    down = np.array([st * cp, st * sp, -ct])
    return right, down, forward


def _shade_ground(world, gx, gy, foot=None):
    """Texture value for ground-plane points (vectorized, flat arrays).

    foot is the per-sample ground footprint in metres; texture octaves and
    lane-marking coverage are anti-aliased against it. Like the octaves in
    value_noise, each lane line is blended only into the samples within
    half-width + footprint of it, a superset of those it covers at all:
    elsewhere its coverage is 0 and the blend would leave the value as is.
    """
    s, d = world.road.project(gx, gy)
    seed = world.texture_seed
    if foot is None:
        foot = np.zeros_like(s)
    on_road = np.abs(d) <= world.road.width / 2.0
    off_road = ~on_road
    val = np.empty_like(s)
    val[on_road] = 0.33 + 0.28 * value_noise(s[on_road] * 1.7, d[on_road] * 1.7,
                                             seed, octaves=3,
                                             foot=foot[on_road] * 1.7)
    val[off_road] = 0.52 + 0.18 * value_noise(s[off_road] * 1.3,
                                              d[off_road] * 1.3, seed + 7,
                                              foot=foot[off_road] * 1.3)
    # lane markings: solid edges, dashed interior boundaries. Coverage
    # blending: a line narrower than the sample footprint dims smoothly
    # instead of shimmering.
    aa = np.maximum(foot, 1e-6)
    half = world.road.width / 2.0
    lines = [(b, 0.15, False) for b in (-half, half)]
    lines += [(b, 0.10, True) for b in (-LANE_WIDTH, 0.0, LANE_WIDTH)]
    for b, hw, dashed in lines:
        near = np.flatnonzero(np.abs(d - b) < hw + aa)
        if dashed:
            near = near[np.mod(s[near], 12.0) < 3.0]
        cov = np.clip((hw - np.abs(d[near] - b)) / aa[near] + 0.5, 0.0, 1.0)
        v = val[near]
        val[near] = v + (0.92 - v) * cov
    return val


def _box_t(lo, hi, origin, dirs):
    """Slab-method ray/AABB intersection (Williams et al., JGT 2005).

    Returns the distance along each ray to its first box point in front of
    the camera, inf where the ray misses."""
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
    return np.where(ok, t, np.inf)


def _box_shade(box, hit, seed):
    """Texture value of box surface points hit (N, 3)."""
    return np.clip(box.intensity
                   + 0.12 * (value_noise(hit[..., 0] * 4.1 + hit[..., 2] * 2.3,
                                         hit[..., 1] * 4.1 + hit[..., 2] * 1.7,
                                         seed + 31) - 0.5), 0.0, 1.0)


# a corner this close to the camera plane (m) projects unboundedly far out
_PLANE_MARGIN = 0.01
# pixels added around a box's projected corners, far beyond slab-test rounding
_WINDOW_PAD = 2
# pixels per strip of render: a strip's rays and shading temporaries are a
# few MB at most, and a box window of up to this many pixels is one strip
_RENDER_BLOCK = 1 << 14


def _box_window(lo, hi, origin, basis, cam):
    """Pixel window (rows, cols) that holds every ray hitting the box, or None.

    A box wholly in front of the camera projects inside the bounding
    rectangle of its eight projected corners; one wholly behind it is never
    hit; one touching or straddling the camera plane gets the whole frame.
    """
    corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    rel = (corners - origin) @ basis.T        # (8, 3): right, down, forward
    depth = rel[:, 2]
    if np.all(depth <= -_PLANE_MARGIN):
        return None
    if np.any(depth < _PLANE_MARGIN):
        return slice(0, cam.height), slice(0, cam.width)
    u = cam.cx + cam.focal * rel[:, 0] / depth
    v = cam.cy + cam.focal * rel[:, 1] / depth
    c0 = max(math.floor(u.min()) - _WINDOW_PAD, 0)
    c1 = min(math.ceil(u.max()) + _WINDOW_PAD + 1, cam.width)
    r0 = max(math.floor(v.min()) - _WINDOW_PAD, 0)
    r1 = min(math.ceil(v.max()) + _WINDOW_PAD + 1, cam.height)
    if c0 >= c1 or r0 >= r1:
        return None
    return slice(r0, r1), slice(c0, c1)


def render(world, cam, state):
    """Render the grayscale camera view for a vehicle state. Deterministic.

    Boxes are ray-cast only inside their screen-space window and shaded only
    where they are the nearest hit; every pixel equals a full-frame cast.

    The ground slab and each box window are cast and shaded in strips of
    rows of at most _RENDER_BLOCK pixels, with each strip's rays formed on
    their own, so no full-frame ray or shading temporary exists; a window
    that small stays one strip. Every step is per-pixel arithmetic, so the
    strips change no pixel. The frame itself and, only when some box window
    is cast, each pixel's nearest hit so far are the full-frame arrays."""
    if cam.offset[2] <= 0:
        raise InvalidParameterError("camera must sit above the ground plane")
    right, down, forward = _camera_basis(state.psi, cam.pitch)
    basis = np.stack([right, down, forward])          # (3, 3)
    cp, sp = math.cos(state.psi), math.sin(state.psi)
    ox = state.x + cam.offset[0] * cp - cam.offset[1] * sp
    oy = state.y + cam.offset[0] * sp + cam.offset[1] * cp
    origin = np.array([ox, oy, cam.offset[2]])

    # no roll: a ray's z depends on its row alone, so the ground is the slab
    # of rows from r0 down
    below = (cam.pixel_dirs(cols=slice(0, 1)) @ basis)[:, 0, 2] < -1e-9
    r0 = int(np.argmax(below)) if below.any() else cam.height
    boxes = []
    for box in world.obstacles:
        lo = np.array([box.x - box.hx, box.y - box.hy, 0.0])
        hi = np.array([box.x + box.hx, box.y + box.hy, 2.0 * box.hz])
        win = _box_window(lo, hi, origin, basis, cam)
        if win is not None:
            boxes.append((box, lo, hi, win))
    img = np.full((cam.height, cam.width), SKY_INTENSITY)
    t_best = np.full(img.shape, np.inf) if boxes else None
    for rows in imgproc.blocks(r0, cam.height, cam.width, _RENDER_BLOCK):
        dirs = cam.pixel_dirs(rows) @ basis           # (strip, W, 3) world rays
        dx, dy, dz = (dirs[..., k] for k in range(3))
        t = -origin[2] / dz
        if t_best is not None:
            t_best[rows] = t
        gx = origin[0] + dx * t
        gy = origin[1] + dy * t
        # ground footprint of one pixel: (t * |dir| / f) across the ray,
        # divided by the grazing factor |dz| / |dir|
        foot = (t * (dx * dx + dy * dy + dz * dz)
                / (cam.focal * np.maximum(np.abs(dz), 1e-9)))
        del dirs, dx, dy, dz, t     # not held while shading: a lower peak
        img[rows] = _shade_ground(world, gx.ravel(), gy.ravel(),
                                  foot.ravel()).reshape(gx.shape)

    for box, lo, hi, (win_rows, cols) in boxes:
        for rows in imgproc.blocks(win_rows.start, win_rows.stop,
                                   cols.stop - cols.start, _RENDER_BLOCK):
            dirs = cam.pixel_dirs(rows, cols) @ basis
            t_box = _box_t(lo, hi, origin, dirs)
            closer = t_box < t_best[rows, cols]
            t_hit = t_box[closer]
            img[rows, cols][closer] = _box_shade(
                box, origin + dirs[closer] * t_hit[:, None], world.texture_seed)
            t_best[rows, cols][closer] = t_hit
    return np.clip(img, 0.0, 1.0, out=img)


# ---------------------------------------------------------------------------
# weather degradation
# ---------------------------------------------------------------------------


def droplet_spots(shape, seed, count=40):
    """Deterministic droplet ellipse list: (cx, cy, rx, ry)."""
    h, w = shape
    rng = np.random.default_rng(seed)
    spots = []
    for _ in range(count):
        cx = rng.uniform(0, w)
        cy = rng.uniform(0, h)
        rx = rng.uniform(1.5, 4.0)
        ry = rx * rng.uniform(1.0, 2.0)
        spots.append((cx, cy, rx, ry))
    return spots


@functools.lru_cache(maxsize=8)
def _droplet_patches(shape, seed):
    """Each droplet's additive patch: a tuple of read-only (rows, cols, patch).

    A blob passes the 0.05 cut-off only where
    ((x - cx) / rx)^2 + ((y - cy) / ry)^2 < ln 20, so a window reaching
    rx * sqrt(ln 20) + 1 px and ry * sqrt(ln 20) + 1 px from the centre holds
    it; outside, a full-frame blob adds exactly 0.0. The droplets are fixed
    per (shape, seed), so the patches are computed once and shared.
    """
    h, w = shape
    reach = math.sqrt(math.log(20.0))
    patches = []
    for cx, cy, rx, ry in droplet_spots(shape, seed):
        c0 = max(math.floor(cx - rx * reach) - 1, 0)
        c1 = min(math.ceil(cx + rx * reach) + 2, w)
        r0 = max(math.floor(cy - ry * reach) - 1, 0)
        r1 = min(math.ceil(cy + ry * reach) + 2, h)
        xs = np.arange(c0, c1)[None, :]
        ys = np.arange(r0, r1)[:, None]
        blob = np.exp(-(((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2))
        patch = 0.3 * np.where(blob > 0.05, blob, 0.0)
        patch.flags.writeable = False
        patches.append((slice(r0, r1), slice(c0, c1), patch))
    return tuple(patches)


def degrade(img, mode, seed=0):
    """Weather degradation: identity for 'clear', wet-road mirror plus
    windshield droplets for 'rain'.

    The output copy of img is the one full-frame array made: the mirror is
    blended into it in place, in strips of at most _RENDER_BLOCK pixels
    read from img, which is left as it is; droplets and the clip work in
    place too."""
    if mode == "clear":
        return img
    if mode != "rain":
        raise InvalidParameterError(f"unknown weather mode {mode!r}")
    out = img.copy()
    h, w = out.shape
    h0 = int(0.4 * h)
    for rows in imgproc.blocks(h0, h, w, _RENDER_BLOCK):
        src = np.clip(2 * h0 - np.arange(rows.start, rows.stop), 0, h - 1)
        mirror = img[src]
        mirror *= 0.35
        out[rows] *= 0.65
        out[rows] += mirror
    for win_rows, win_cols, patch in _droplet_patches((h, w), seed):
        out[win_rows, win_cols] += patch
    return np.clip(out, 0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# ground truth + built-in courses
# ---------------------------------------------------------------------------


def ground_truth(world, state):
    """Exact world-geometry quantities for a vehicle state."""
    s, d = world.road.project(np.array([state.x]), np.array([state.y]))
    dist_goal = math.hypot(state.x - world.goal[0], state.y - world.goal[1])
    clearance = math.inf
    for box in world.obstacles:
        ddx = max(abs(state.x - box.x) - box.hx, 0.0)
        ddy = max(abs(state.y - box.y) - box.hy, 0.0)
        clearance = min(clearance, math.hypot(ddx, ddy))
    return {
        "arclength": float(s[0]),
        "lateral_offset": float(d[0]),
        "distance_to_goal": dist_goal,
        "clearance": clearance,
    }


def make_course(name, seed=7):
    """Built-in closed-loop courses.

    straight-arc:       120 m straight into a 100 m arc (R = 200 m, left).
    straight:           a plain 220 m straight.
    obstacles:          straight-arc course with two boxes near the cruise line.
    """
    segments = {
        "straight": [RoadSegment("straight", 220.0)],
        "straight-arc": [RoadSegment("straight", 120.0),
                         RoadSegment("arc", 100.0, radius=200.0, turn=1)],
        "obstacles": [RoadSegment("straight", 120.0),
                      RoadSegment("arc", 100.0, radius=200.0, turn=1)],
    }
    if name not in segments:
        raise InvalidParameterError(f"unknown course {name!r}")
    road = Road(segments[name])
    obstacles = []
    if name == "obstacles":
        for s_obs, d_obs, intensity in ((70.0, 0.9, 0.08), (150.0, -0.9, 0.95)):
            x, y, h = road.pose_at(s_obs)
            x += -math.sin(h) * d_obs
            y += math.cos(h) * d_obs
            obstacles.append(BoxObstacle(x, y, 0.8, 0.8, 1.25, intensity))
    gx, gy, _ = road.pose_at(road.total_length - 2.0)
    x0, y0, h0 = road.pose_at(2.0)
    start = VehicleState(x=x0, y=y0, psi=h0, v=0.0, delta_f=0.0)
    return WorldConfig(road=road, obstacles=obstacles, goal=(gx, gy),
                       texture_seed=seed, start_state=start)
