"""Closed-loop pipeline: render -> flow -> FOE/TTC -> obstacle force ->
potential field -> sliding-mode commands -> bicycle step.

Owns the settable configuration (`PipelineConfig` and its vehicle
parameters; every other stage value is a named constant beside its
reader), the one control step that the vision-guided run calls and replay
runs under a straight-lane `Observation`, and the drive loop shared by the
vision-guided run and the waypoint-PID baseline.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import (egomotion, features, flow, imgproc, obstacle, potential, scene,
               vehicle)
from .errors import (DegenerateGeometryError, InsufficientFlowError,
                     InvalidParameterError, NoDirectionError)
from .trace import TraceRow, summarize

OBS_GOAL_GATE = 25.0   # m to goal inside which repulsion is muted
COMMIT_LAT_MAX = 1.0   # m; commit only while this close to lane center
COMMIT_DEV_MAX = 0.15  # rad; ... and this aligned with the road
TAPER_DIST = 10.0      # m to goal inside which the reference speed tapers
PSI_D_DOT_MAX = 2.0    # rad/s; cap on the desired heading's rate


@dataclass
class PipelineConfig:
    """The settable stage values, overridable via the flat config file;
    every other stage value is a module constant beside its reader."""

    # scene / course
    course: str = "straight-arc"
    seed: int = 7
    weather: str = "clear"
    # vision
    vision_stride: int = 4      # frames between tracked pairs
    foe_trim: float = 0.7       # inlier fraction kept for the FOE refit
    min_cluster: int = 2
    # obstacle repulsion
    ttc_min: float = 0.5
    k_img: float = 1.5e8
    obs_slow: float = 6000.0      # speed cut per unit of gated lateral force
    obs_hold: float = 4.0         # s; dwell of a committed avoidance
    obs_latch_fx: float = 5.0e-5  # image-frame lateral force while committed
    # potential field / control
    lookahead: float = 5.0      # field longitudinal probe offset, m
    max_steps: int = 4000
    swerve_max: float = 0.6     # rad; heading clamp while an avoidance is on
    swerve_keep: float = 0.2    # rad; heading clamp during plain lane keeping
    swerve_damp: float = 1.0    # heading feedback on the lateral closure rate
    vehicle_params: vehicle.VehicleParams = field(
        default_factory=vehicle.VehicleParams)

    def validate(self):
        if self.vision_stride < 1:
            raise InvalidParameterError("vision_stride must be >= 1")
        if self.weather not in ("clear", "rain"):
            raise InvalidParameterError(f"unknown weather {self.weather!r}")

    @classmethod
    def scalar_keys(cls):
        return [f.name for f in fields(cls) if f.name != "vehicle_params"]


MAX_CORNERS = 150
QUALITY_LEVEL = 0.002
DET_ROW_MAX = 190   # skip the bottom band: flow there outruns LK


def detect_features(grad):
    """Corners to track from the image whose gradient is grad, above the
    bottom band (rows >= DET_ROW_MAX) where flow outruns LK. The closed
    loop, replay and `flownav flow` all detect here."""
    return features.detect_corners(grad, max_corners=MAX_CORNERS,
                                   quality_level=QUALITY_LEVEL,
                                   row_range=(0, DET_ROW_MAX))


PYR_LEVELS = 3         # pyramid depth of every build_pyramid
MIN_FLOW_SPEED = 0.5   # px; slower vectors carry no FOE direction
MIN_RESIDUAL = 2.5     # px of radial overshoot that flags an obstacle
CLUSTER_RADIUS = 60.0  # px; flagged points need a neighbour this close
FB_TOL = 1.5           # px; forward-backward track tolerance
OBS_ATTACK = 0.5       # EMA weight pulling toward a fresh detection
OBS_DECAY = 0.9        # retention when no detection (hysteresis)
OBS_DEADBAND = 1.0e-4  # soft threshold on the lateral force EMA
OBS_CONFIRM = 2        # same-sign gated detections to commit
OBS_GAP_MAX = 2        # empty frames tolerated between them
OBS_REFRACT = 2.0      # s; no re-commit right after a dwell


class VisionState:
    """Per-run vision memory: last frame/features, smoothed FOE and obstacle
    force, held desired heading."""

    def __init__(self, config, cam):
        self.config = config
        self.cam = cam
        self.prev_pyr = None
        self.prev_pts = np.empty((0, 2))
        self.smoother = egomotion.FoeSmoother()
        self.foe = egomotion.FoeEstimate(cam.cx, cam.horizon_row,
                                         float("inf"), 0)
        self.obs_fx = 0.0
        self.obs_fy = 0.0
        self.latch_dir = 0
        self.latch_left = 0
        self.refract_left = 0
        self.pend_dir = 0
        self.pend_count = 0
        self.pend_gap = 0
        self.inst_sign = 0      # sign of this frame's raw detection, 0 if none
        self.commit_ok = True   # host may veto new commits (e.g. mid-recovery)

    def update(self, img, pair_dt, dpsi=0.0):
        """Run the vision stack on (previous frame, img); update FOE and the
        smoothed obstacle force. Returns the flow field (or None).

        img's gradient is computed once, for its corners and its pyramid.

        dpsi is the vehicle heading change over the frame pair; the flow is
        derotated with it before obstacle segmentation so that the
        ground-expansion model (valid for pure translation) also holds in
        turns. The raw-flow FOE is kept separately: its lateral shift is
        exactly what the road-curvature classifier needs."""
        ff = None
        grad = imgproc.spatial_gradient(img)
        pyr = flow.build_pyramid(img, grad, PYR_LEVELS)
        pts = detect_features(grad)
        del grad               # not held while tracking: a lower peak
        if len(self.prev_pts):
            ff = flow.track(self.prev_pyr, pyr, self.prev_pts,
                            frame_interval=pair_dt)
            fit = self._fit(ff)
            if fit is not None:  # else hold the previous (smoothed) estimate
                self.foe = self.smoother.update(fit)
            # without a yaw to subtract, the obstacle stage sees the same
            # field, so the raw fit serves it as well
            ff_obs = self._derotate(ff, dpsi)
            if ff_obs is not ff:
                fit = self._fit(ff_obs)
            self._update_obstacle(ff_obs, ff, pyr,
                                  self.foe if fit is None else fit)
            self._update_latch(pair_dt)
        self.prev_pyr, self.prev_pts = pyr, pts
        return ff

    def _fit(self, ff):
        """Trimmed FOE fit of ff, or None when ff fixes no FOE."""
        try:
            return self._trim_refit(
                ff, egomotion.estimate_foe(ff, min_speed=MIN_FLOW_SPEED))
        except (InsufficientFlowError, DegenerateGeometryError):
            return None

    def _derotate(self, ff, dpsi):
        """Subtract the flow induced by a known yaw of dpsi radians.

        A leftward yaw shifts every feature rightward by roughly
        dpsi * focal, with the usual perspective correction terms. Invalid
        vectors keep their displacement."""
        if abs(dpsi) < 1e-6:
            return ff
        f = self.cam.focal
        xn = ff.pts[:, 0] - self.cam.cx
        yn = ff.pts[:, 1] - self.cam.cy
        rot = np.column_stack([dpsi * (f + xn * xn / f), dpsi * xn * yn / f])
        disp = np.where(ff.valid[:, None], ff.disp - rot, ff.disp)
        return flow.FlowField(ff.pts, disp, ff.valid, ff.frame_interval)

    def _trim_refit(self, ff, raw):
        """Drop the worst-aligned flow vectors and refit the FOE once.

        A handful of mistracked large flows can drag the least-squares FOE
        far off; the refit on the best-aligned fraction is a cheap robust
        estimator."""
        vx, vy = ff.disp[:, 0], ff.disp[:, 1]
        dx = ff.pts[:, 0] - raw.x_foe
        dy = ff.pts[:, 1] - raw.y_foe
        d = np.hypot(dx, dy)
        idx = np.flatnonzero(ff.valid & (np.hypot(vx, vy) >= MIN_FLOW_SPEED)
                             & (d >= 1e-9))
        if len(idx) < 8:
            return raw
        perp = np.abs(vx[idx] * dy[idx] - vy[idx] * dx[idx]) / d[idx]
        # ascending perp, ties in field order: estimate_foe sums its normal
        # equations in row order, so the order is part of the result
        keep = idx[np.argsort(perp, kind="stable")]
        keep = keep[:max(int(self.config.foe_trim * len(idx)), 8)]
        try:
            return egomotion.estimate_foe(
                flow.FlowField(ff.pts[keep], ff.disp[keep],
                               np.ones(len(keep), dtype=bool), ff.frame_interval),
                min_speed=MIN_FLOW_SPEED)
        except (InsufficientFlowError, DegenerateGeometryError):
            return raw

    def _cluster_filter(self, pts):
        """Which of the flagged points pts (K, 2) have min_cluster-1
        neighbours within CLUSTER_RADIUS; tracker glitches are isolated,
        real obstacles flag several corners. Returns a (K,) bool array."""
        min_cluster = self.config.min_cluster
        if len(pts) < min_cluster:
            return np.zeros(len(pts), dtype=bool)
        near = ((pts[:, None, 0] - pts[None, :, 0]) ** 2
                + (pts[:, None, 1] - pts[None, :, 1]) ** 2) <= CLUSTER_RADIUS ** 2
        np.fill_diagonal(near, False)
        return np.count_nonzero(near, axis=1) >= min_cluster - 1

    def _fb_verify(self, index, ff_raw, pyr):
        """Which of the flagged vectors index (into ff_raw, all valid) track
        back to their origin within FB_TOL. Returns a bool array.

        Repetitive texture (lane dashes) occasionally aliases the forward
        track to the wrong period with a plausible-looking flow; tracking
        the displaced point backward exposes the mismatch. Only the few
        flagged points are re-tracked, so this stays cheap."""
        fwd = ff_raw.disp[index]
        back = flow.track(pyr, self.prev_pyr, ff_raw.pts[index] + fwd)
        loop = back.disp + fwd
        return back.valid & (np.hypot(loop[:, 0], loop[:, 1]) <= FB_TOL)

    def _update_obstacle(self, ff, ff_raw, pyr, foe):
        """Segment ff (ff_raw derotated) about foe, filter the flags and
        fold their repulsion into the force EMA."""
        ttc = egomotion.compute_ttc(ff, foe)
        mask = obstacle.segment_obstacles(ff, foe, ttc,
                                          min_residual=MIN_RESIDUAL)
        pts, ttc = mask.points, mask.ttc
        if len(pts):
            ok = self._fb_verify(mask.index, ff_raw, pyr)
            pts, ttc = pts[ok], ttc[ok]
            ok = self._cluster_filter(pts)
            pts, ttc = pts[ok], ttc[ok]
        if not len(pts):
            self.inst_sign = 0
            self.obs_fx *= OBS_DECAY
            self.obs_fy *= OBS_DECAY
            return
        f = obstacle.repulsive_force(pts, ttc, self.cam.width, self.cam.height,
                                     ttc_min=self.config.ttc_min)
        self.inst_sign = 1 if f.f_x > 0 else (-1 if f.f_x < 0 else 0)
        a = OBS_ATTACK
        self.obs_fx = (1 - a) * self.obs_fx + a * f.f_x
        self.obs_fy = (1 - a) * self.obs_fy + a * f.f_y

    def _update_latch(self, pair_dt):
        """Commit a confirmed detection to a fixed avoidance dwell.

        The detectable range of an obstacle is short, so the raw repulsion
        is a brief marginal pulse; requiring consecutive gated detections
        rejects single-frame glitches, and latching a constant lateral
        command for obs_hold seconds turns the pulse into a full
        lane-change. A refractory period prevents the receding obstacle
        from re-triggering immediately."""
        c = self.config
        g = self.gated_fx
        if self.latch_left > 0:
            if (self.inst_sign == self.latch_dir and g != 0.0
                    and (g > 0) == (self.inst_sign > 0)):
                # still seeing the obstacle: hold the dwell open so the
                # command outlives the last sighting, not the first
                self.latch_left = int(round(c.obs_hold / pair_dt))
            else:
                self.latch_left -= 1
                if self.latch_left == 0:
                    self.refract_left = int(round(OBS_REFRACT / pair_dt))
            return
        if self.refract_left > 0:
            self.refract_left -= 1
            return
        # confirmation needs fresh same-sign detections, not a decaying EMA
        # tail: an isolated spike must never self-confirm. The detections
        # flicker frame to frame, so short gaps are tolerated.
        d = self.inst_sign
        if g != 0.0 and d != 0 and (g > 0) == (d > 0) and self.commit_ok:
            self.pend_count = self.pend_count + 1 if d == self.pend_dir else 1
            self.pend_dir = d
            self.pend_gap = 0
            if self.pend_count >= OBS_CONFIRM:
                self.latch_dir = d
                self.latch_left = int(round(c.obs_hold / pair_dt))
                self.pend_count = 0
                self.pend_dir = 0
        elif self.pend_dir != 0:
            self.pend_gap += 1
            if self.pend_gap > OBS_GAP_MAX:
                self.pend_count = 0
                self.pend_dir = 0
                self.pend_gap = 0

    @property
    def gated_fx(self):
        """Lateral repulsion EMA past the soft deadband (0 when below it)."""
        return math.copysign(max(abs(self.obs_fx) - OBS_DEADBAND, 0.0),
                             self.obs_fx)

    @property
    def commanded_fx(self):
        """Lateral command: the latched constant during a dwell, the gated
        EMA otherwise."""
        if self.latch_left > 0:
            return self.latch_dir * self.config.obs_latch_fx
        return self.gated_fx


@dataclass(frozen=True)
class Observation:
    """The control step's reads of anything but the camera: the lateral
    offset from the lane center (m, map), the road tangent's heading (rad,
    map) and the goal position (GPS)."""

    lat_offset: float
    h_road: float
    goal: tuple


ALPHA = 0.05        # goal attraction per metre of distance
LAMBDA_X = 4.0e-6   # road-force weights in the total force
LAMBDA_Y = 4.0e-6
ROAD_FIELD = potential.RoadFieldParams()


def control_step(config, cam, vision, state, psi_d_prev, k, dt, obs):
    """Step k, of length dt, of the sliding-mode controller on the visual
    potential field; obs holds every read that is not the camera's. Sets
    vision.commit_ok. Returns (TraceRow with a NaN clearance, psi_d)."""
    params = config.vehicle_params
    foe = vision.foe
    dist = math.hypot(state.x - obs.goal[0], state.y - obs.goal[1])
    # Repulsion is muted near the goal, where the road's end fakes a
    # detection.
    fx_eff = vision.commanded_fx
    if dist <= OBS_GOAL_GATE:
        fx_eff = 0.0
    f_obs = obstacle.RepulsiveForce(fx_eff, vision.obs_fy)
    f_att = potential.attractive_force((state.x, state.y), obs.goal, ALPHA)
    curvature = potential.classify_curvature(foe, cam.width)
    # road-plane probe: +y is rightward, valley at the road's center line
    pos_field = (config.lookahead, ROAD_FIELD.valley_offset - obs.lat_offset)
    f_road = potential.road_force(pos_field, curvature, ROAD_FIELD)
    f_tot = potential.total_force(f_att, f_obs, f_road,
                                  lambda_x=LAMBDA_X, lambda_y=LAMBDA_Y,
                                  psi=state.psi, k_img=config.k_img)
    try:
        psi_d = vehicle.desired_heading(f_tot)
    except NoDirectionError:
        psi_d = psi_d_prev
    # The road walls steepen exponentially, so the raw field heading can
    # swing near-perpendicular to the road; clamping the command about
    # the road tangent keeps the lateral closure rate within what the
    # rate-limited steering can stabilize. The wide clamp is reserved for
    # committed avoidance; lane keeping alone gets a tight cap, which keeps
    # the stiff walls from sustaining a bang-bang weave around the valley.
    cap = config.swerve_max if vision.latch_left > 0 else config.swerve_keep
    dev = vehicle.wrap_angle(psi_d - obs.h_road)
    dev = max(-cap, min(cap, dev))
    # rate damping: the lateral closure rate is v*sin(psi - h_road);
    # feeding it back bleeds off ringing the walls would sustain
    dev -= config.swerve_damp * math.sin(
        vehicle.wrap_angle(state.psi - obs.h_road))
    dev = max(-cap, min(cap, dev))
    psi_d = vehicle.wrap_angle(obs.h_road + dev)
    # new avoidance commits only while tracking the lane cleanly: during
    # a swerve recovery the obstacle bearing flips sign frame to frame
    # and lane texture is viewed obliquely, so detections are untrusted
    vision.commit_ok = (
        abs(obs.lat_offset) <= COMMIT_LAT_MAX
        and abs(vehicle.wrap_angle(state.psi - obs.h_road)) <= COMMIT_DEV_MAX)
    psi_d_dot = vehicle.wrap_angle(psi_d - psi_d_prev) / dt if k else 0.0
    psi_d_dot = max(-PSI_D_DOT_MAX, min(PSI_D_DOT_MAX, psi_d_dot))

    psi_dot = vehicle.yaw_rate(state.v, state.delta_f, params)
    s_r = vehicle.rotational_manifold(state.psi, psi_d, psi_dot, psi_d_dot,
                                      params.c_r)
    u = vehicle.steer_command(s_r, params)

    # slow down while dodging: detection range is geometry-limited, so
    # trading speed for maneuvering time is what makes the swerve fit
    v_d_eff = (params.v_d * min(1.0, dist / TAPER_DIST)
               / (1.0 + config.obs_slow * abs(fx_eff)))
    s_l = params.c_l * state.v - v_d_eff
    a = vehicle.longitudinal_command(state.v, v_d_eff, params)

    row = TraceRow(
        t=k * dt, x=state.x, y=state.y, psi=state.psi, v=state.v,
        delta_f=state.delta_f, foe_x=foe.x_foe, foe_y=foe.y_foe,
        f_att_x=f_att.fx, f_att_y=f_att.fy,
        f_obs_x=f_obs.f_x, f_obs_y=f_obs.f_y,
        f_road_x=f_road.fx, f_road_y=f_road.fy,
        f_tot_x=f_tot.fx, f_tot_y=f_tot.fy,
        s_r=s_r, s_l=s_l, u=u, a=a,
        lat_offset=obs.lat_offset, clearance=math.nan)
    return row, psi_d


DT = 1.0 / 60.0         # s; simulation and control step
GOAL_RADIUS = 2.0       # m; the goal counts as reached this close
CORRIDOR_MARGIN = 10.0  # m past the road's edge at which a run diverges


def _drive(config, world, control):
    """Closed loop from world.start_state: ground truth, then
    control(k, state, gt) -> TraceRow, then the goal and corridor exits,
    then a bicycle step on the row's u and a. Returns (rows, summary,
    world)."""
    params = config.vehicle_params
    state = world.start_state
    rows = []
    goal_reached = False
    diverged = False
    for k in range(config.max_steps):
        gt = scene.ground_truth(world, state)
        row = control(k, state, gt)
        rows.append(row)
        if gt["distance_to_goal"] <= GOAL_RADIUS:
            goal_reached = True
            break
        if (abs(gt["lateral_offset"])
                > world.road.width / 2.0 + CORRIDOR_MARGIN):
            diverged = True
            break
        state = vehicle.step(state, vehicle.ControlCommand(row.u, row.a),
                             params, DT)
    return rows, summarize(rows, goal_reached, diverged), world


def run_simulation(config, world=None, cam=None):
    """Vision-in-the-loop run. Returns (trace rows, summary dict, world)."""
    config.validate()
    if world is None:
        world = scene.make_course(config.course, seed=config.seed)
    if cam is None:
        cam = scene.CameraModel()
    vision = VisionState(config, cam)
    stride = config.vision_stride
    psi_d_prev = world.start_state.psi
    vis_psi = world.start_state.psi

    def control(k, state, gt):
        nonlocal psi_d_prev, vis_psi
        if k % stride == 0:
            img = scene.degrade(scene.render(world, cam, state), config.weather,
                                seed=config.seed)
            vision.update(img, pair_dt=DT * stride,
                          dpsi=vehicle.wrap_angle(state.psi - vis_psi))
            vis_psi = state.psi
        obs = Observation(gt["lateral_offset"],
                          world.road.pose_at(gt["arclength"])[2], world.goal)
        row, psi_d_prev = control_step(config, cam, vision, state, psi_d_prev,
                                       k, DT, obs)
        row.clearance = gt["clearance"]
        return row

    return _drive(config, world, control)


def run_baseline(config, world=None):
    """Waypoint-tracking baseline: pure-pursuit lateral law on the road's
    center line plus the longitudinal speed regulator. Same trace schema."""
    config.validate()
    if world is None:
        world = scene.make_course(config.course, seed=config.seed)
    params = config.vehicle_params
    lookahead = 8.0

    def control(k, state, gt):
        tx, ty, _ = world.road.pose_at(gt["arclength"] + lookahead)
        # bearing to the lookahead point in the body frame
        ang = vehicle.wrap_angle(math.atan2(ty - state.y, tx - state.x)
                                 - state.psi)
        delta_des = math.atan2(2.0 * params.wheelbase * math.sin(ang), lookahead)
        delta_des = max(-params.delta_0, min(params.delta_0, delta_des))
        u = max(-params.u_0, min(params.u_0, (delta_des - state.delta_f) / DT))

        v_d_eff = params.v_d * min(1.0, gt["distance_to_goal"] / TAPER_DIST)
        s_l = params.c_l * state.v - v_d_eff
        a = vehicle.longitudinal_command(state.v, v_d_eff, params)

        return TraceRow(
            t=k * DT, x=state.x, y=state.y, psi=state.psi, v=state.v,
            delta_f=state.delta_f, foe_x=0.0, foe_y=0.0,
            f_att_x=0.0, f_att_y=0.0, f_obs_x=0.0, f_obs_y=0.0,
            f_road_x=0.0, f_road_y=0.0, f_tot_x=0.0, f_tot_y=0.0,
            s_r=0.0, s_l=s_l, u=u, a=a,
            lat_offset=gt["lateral_offset"], clearance=gt["clearance"])

    return _drive(config, world, control)
