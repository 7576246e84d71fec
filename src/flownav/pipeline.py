"""Closed-loop pipeline: render -> flow -> FOE/TTC -> obstacle force ->
potential field -> sliding-mode commands -> bicycle step.

Owns the aggregated configuration for every stage, the field-to-steer step
shared by the vision-guided run and replay, and the drive loop shared by the
vision-guided run and the waypoint-PID baseline.
"""

import math
from dataclasses import dataclass, field, fields

from . import egomotion, features, flow, obstacle, potential, scene, vehicle
from .errors import (DegenerateGeometryError, InsufficientFlowError,
                     InvalidParameterError, NoDirectionError)
from .features import FeaturePoint
from .imgproc import BinaryImage
from .trace import TraceRow, summarize


@dataclass
class PipelineConfig:
    """Every stage default, overridable via the flat config file."""

    # scene / course
    course: str = "straight-arc"
    seed: int = 7
    weather: str = "clear"
    # corner detector
    max_corners: int = 150
    quality_level: float = 0.002
    min_distance: int = 7
    det_row_max: int = 190      # skip the bottom band: flow there outruns LK
    # optical flow
    window: int = 25
    epsilon: float = 0.03
    max_iters: int = 30
    levels: int = 3
    vision_stride: int = 4      # frames between tracked pairs
    # FOE / TTC
    min_flow_speed: float = 0.5
    foe_smoothing: float = 0.7
    foe_trim: float = 0.7       # inlier fraction kept for the FOE refit
    exclusion_radius: float = 10.0
    ttc_max: float = 100.0
    # obstacle segmentation / repulsion
    splat_radius: float = 12.0
    min_residual: float = 2.5
    cluster_radius: float = 60.0  # flagged points need a neighbour this close
    min_cluster: int = 2
    fb_tol: float = 1.5         # forward-backward track tolerance, px
    gamma: float = 1.0
    ttc_min: float = 0.5
    k_img: float = 1.5e8
    raw_ttc: bool = False
    obstacle_decim: int = 8
    roi_top: int = 100
    obs_attack: float = 0.5     # EMA weight pulling toward a fresh detection
    obs_decay: float = 0.9      # retention when no detection (hysteresis)
    obs_deadband: float = 1.0e-4  # soft threshold on the lateral force EMA
    obs_goal_gate: float = 25.0   # m to goal inside which repulsion is muted
    obs_slow: float = 6000.0      # speed cut per unit of gated lateral force
    obs_confirm: int = 2          # same-sign gated detections to commit
    obs_gap_max: int = 2          # empty frames tolerated between them
    obs_hold: float = 4.0         # s; dwell of a committed avoidance
    obs_refract: float = 2.0      # s; no re-commit right after a dwell
    obs_latch_fx: float = 5.0e-5  # image-frame lateral force while committed
    commit_lat_max: float = 1.0   # m; commit only while this close to lane center
    commit_dev_max: float = 0.15  # rad; ... and this aligned with the road
    # potential field
    alpha: float = 0.05
    lambda_x: float = 4.0e-6
    lambda_y: float = 4.0e-6
    center_band: float = 0.1
    lookahead: float = 5.0      # field longitudinal probe offset, m
    # control / simulation
    dt: float = 1.0 / 60.0
    max_steps: int = 4000
    goal_radius: float = 2.0
    taper_dist: float = 10.0
    corridor_margin: float = 10.0
    psi_d_dot_max: float = 2.0
    swerve_max: float = 0.6     # rad; heading clamp while an avoidance is on
    swerve_keep: float = 0.2    # rad; heading clamp during plain lane keeping
    swerve_damp: float = 1.0    # heading feedback on the lateral closure rate
    vehicle_params: vehicle.VehicleParams = field(
        default_factory=vehicle.VehicleParams)
    road_field: potential.RoadFieldParams = field(
        default_factory=potential.RoadFieldParams)

    def validate(self):
        if self.vision_stride < 1:
            raise InvalidParameterError("vision_stride must be >= 1")
        if self.dt <= 0 or self.dt > 0.1:
            raise InvalidParameterError("dt must be in (0, 0.1]")
        if self.weather not in ("clear", "rain"):
            raise InvalidParameterError(f"unknown weather {self.weather!r}")
        self.road_field.validate()

    @classmethod
    def scalar_keys(cls):
        return [f.name for f in fields(cls)
                if f.name not in ("vehicle_params", "road_field")]


def detect_features(config, img):
    """Corners to track from img, above the bottom band (rows >= det_row_max)
    where flow outruns LK. The closed loop, replay and `flownav flow` all
    detect here."""
    return features.detect_corners(img, max_corners=config.max_corners,
                                   quality_level=config.quality_level,
                                   min_distance=config.min_distance,
                                   row_range=(0, config.det_row_max))


class VisionState:
    """Per-run vision memory: last frame/features, smoothed FOE and obstacle
    force, held desired heading."""

    def __init__(self, config, cam):
        self.config = config
        self.cam = cam
        self.prev_img = None
        self.prev_pyr = None
        self.prev_pts = []
        self.smoother = egomotion.FoeSmoother(config.foe_smoothing)
        self.foe = egomotion.FoeEstimate(cam.cx, cam.cy + cam.focal
                                         * math.tan(cam.pitch), float("inf"), 0)
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

        dpsi is the vehicle heading change over the frame pair; the flow is
        derotated with it before obstacle segmentation so that the
        ground-expansion model (valid for pure translation) also holds in
        turns. The raw-flow FOE is kept separately: its lateral shift is
        exactly what the road-curvature classifier needs."""
        c = self.config
        ff = None
        pyr = flow.build_pyramid(img, c.levels)
        if self.prev_img is not None and self.prev_pts:
            ff = flow.track(self.prev_img, img, self.prev_pts,
                            window=c.window, epsilon=c.epsilon,
                            max_iters=c.max_iters, levels=c.levels,
                            frame_interval=pair_dt,
                            prev_pyr=self.prev_pyr, next_pyr=pyr)
            try:
                raw = egomotion.estimate_foe(ff, min_speed=c.min_flow_speed)
                raw = self._trim_refit(ff, raw)
                self.foe = self.smoother.update(raw)
            except (InsufficientFlowError, DegenerateGeometryError):
                pass  # hold the previous (smoothed) estimate
            self._update_obstacle(self._derotate(ff, dpsi), ff, img, pyr)
            self._update_latch(pair_dt)
        self.prev_img = img
        self.prev_pyr = pyr
        self.prev_pts = detect_features(c, img)
        return ff

    def _derotate(self, ff, dpsi):
        """Subtract the flow induced by a known yaw of dpsi radians.

        A leftward yaw shifts every feature rightward by roughly
        dpsi * focal, with the usual perspective correction terms."""
        if abs(dpsi) < 1e-6:
            return ff
        f = self.cam.focal
        out = []
        for v in ff.vectors:
            if not v.valid:
                out.append(v)
                continue
            xn = v.origin.x - self.cam.cx
            yn = v.origin.y - self.cam.cy
            out.append(flow.FlowVector(
                v.origin,
                v.vx - dpsi * (f + xn * xn / f),
                v.vy - dpsi * xn * yn / f, True))
        return flow.FlowField(out, ff.frame_interval)

    def _trim_refit(self, ff, raw):
        """Drop the worst-aligned flow vectors and refit the FOE once.

        A handful of mistracked large flows can drag the least-squares FOE
        far off; the refit on the best-aligned fraction is a cheap robust
        estimator."""
        c = self.config
        keep = []
        scored = []
        for v in ff.vectors:
            if not v.valid or math.hypot(v.vx, v.vy) < c.min_flow_speed:
                continue
            dx = v.origin.x - raw.x_foe
            dy = v.origin.y - raw.y_foe
            d = math.hypot(dx, dy)
            if d < 1e-9:
                continue
            perp = abs(v.vx * dy - v.vy * dx) / d
            scored.append((perp, v))
        if len(scored) < 8:
            return raw
        scored.sort(key=lambda t: t[0])
        keep = [v for _, v in scored[:max(int(c.foe_trim * len(scored)), 8)]]
        try:
            return egomotion.estimate_foe(
                flow.FlowField(keep, ff.frame_interval),
                min_speed=c.min_flow_speed)
        except (InsufficientFlowError, DegenerateGeometryError):
            return raw

    def _cluster_filter(self, pts):
        """Drop flagged points without min_cluster-1 neighbours nearby;
        tracker glitches are isolated, real obstacles flag several corners."""
        c = self.config
        if len(pts) < c.min_cluster:
            return []
        r2 = c.cluster_radius ** 2
        kept = []
        for i, (fp, res, t) in enumerate(pts):
            n = sum(1 for j, (fq, _r, _t) in enumerate(pts)
                    if j != i and (fp.x - fq.x) ** 2 + (fp.y - fq.y) ** 2 <= r2)
            if n >= c.min_cluster - 1:
                kept.append((fp, res, t))
        return kept

    def _fb_verify(self, kept, ff_raw, img, pyr):
        """Keep flagged points whose track reverses cleanly.

        Repetitive texture (lane dashes) occasionally aliases the forward
        track to the wrong period with a plausible-looking flow; tracking
        the displaced point backward exposes the mismatch. Only the few
        flagged points are re-tracked, so this stays cheap."""
        c = self.config
        raw = {(v.origin.x, v.origin.y): v for v in ff_raw.vectors if v.valid}
        items = []
        targets = []
        for fp, res, t in kept:
            v = raw.get((fp.x, fp.y))
            if v is None:
                continue
            items.append(((fp, res, t), v))
            targets.append(FeaturePoint(fp.x + v.vx, fp.y + v.vy))
        if not targets:
            return []
        back = flow.track(img, self.prev_img, targets,
                          window=c.window, epsilon=c.epsilon,
                          max_iters=c.max_iters, levels=c.levels,
                          prev_pyr=pyr, next_pyr=self.prev_pyr)
        out = []
        for (item, v), bv in zip(items, back.vectors):
            if bv.valid and math.hypot(bv.vx + v.vx, bv.vy + v.vy) <= c.fb_tol:
                out.append(item)
        return out

    def _update_obstacle(self, ff, ff_raw, img, pyr):
        c = self.config
        try:
            foe = egomotion.estimate_foe(ff, min_speed=c.min_flow_speed)
            foe = self._trim_refit(ff, foe)
        except (InsufficientFlowError, DegenerateGeometryError):
            foe = self.foe
        ttc = egomotion.compute_ttc(ff, foe,
                                    exclusion_radius=c.exclusion_radius,
                                    ttc_max=c.ttc_max)
        mask = obstacle.segment_obstacles(
            ff, foe, ttc, splat_radius=c.splat_radius,
            width=self.cam.width, height=self.cam.height,
            min_residual=c.min_residual)
        points = mask.points
        if points:
            points = self._cluster_filter(
                self._fb_verify(points, ff_raw, img, pyr))
        if not points:
            self.inst_sign = 0
            self.obs_fx *= c.obs_decay
            self.obs_fy *= c.obs_decay
            return
        d = c.obstacle_decim
        w_c = self.cam.width // d
        h_c = self.cam.height // d
        pts_c = [(FeaturePoint(fp.x / d, fp.y / d), res, t)
                 for fp, res, t in points]
        plane_c = obstacle._splat(w_c, h_c, pts_c, c.splat_radius / d)
        mask_c = obstacle.ObstacleMask(BinaryImage(plane_c), pts_c)
        grad_c = obstacle.obstacle_gradient(mask_c)
        roi_c = (0, c.roi_top // d, w_c, h_c)
        f = obstacle.repulsive_force(mask_c, grad_c, roi_c, gamma=c.gamma,
                                     ttc_min=c.ttc_min, raw_ttc=c.raw_ttc)
        self.inst_sign = 1 if f.f_x > 0 else (-1 if f.f_x < 0 else 0)
        a = c.obs_attack
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
                    self.refract_left = int(round(c.obs_refract / pair_dt))
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
            if self.pend_count >= c.obs_confirm:
                self.latch_dir = d
                self.latch_left = int(round(c.obs_hold / pair_dt))
                self.pend_count = 0
                self.pend_dir = 0
        elif self.pend_dir != 0:
            self.pend_gap += 1
            if self.pend_gap > c.obs_gap_max:
                self.pend_count = 0
                self.pend_dir = 0
                self.pend_gap = 0

    @property
    def gated_fx(self):
        """Lateral repulsion EMA past the soft deadband (0 when below it)."""
        c = self.config
        return math.copysign(max(abs(self.obs_fx) - c.obs_deadband, 0.0),
                             self.obs_fx)

    @property
    def commanded_fx(self):
        """Lateral command: the latched constant during a dwell, the gated
        EMA otherwise."""
        if self.latch_left > 0:
            return self.latch_dir * self.config.obs_latch_fx
        return self.gated_fx

    @property
    def obstacle_force(self):
        return obstacle.RepulsiveForce(self.obs_fx, self.obs_fy)


def steer_to_field(config, cam, foe, f_att, f_obs, d_lat, psi, fallback):
    """Field-to-steer step: road curvature from the FOE, the road field probed
    at lateral offset d_lat, the total force and its heading (fallback when
    the force vanishes). Returns (f_road, f_tot, psi_d)."""
    road_params = config.road_field
    curvature = potential.classify_curvature(foe, cam.width, config.center_band)
    # road-plane probe: +y is rightward, valley at the road's center line
    pos_field = (config.lookahead, road_params.valley_offset - d_lat)
    f_road = potential.road_force(pos_field, curvature, road_params)
    f_tot = potential.total_force(f_att, f_obs, f_road,
                                  lambda_x=config.lambda_x,
                                  lambda_y=config.lambda_y,
                                  psi=psi, k_img=config.k_img)
    try:
        psi_d = vehicle.desired_heading(f_tot)
    except NoDirectionError:
        psi_d = fallback
    return f_road, f_tot, psi_d


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
        if gt["distance_to_goal"] <= config.goal_radius:
            goal_reached = True
            break
        if (abs(gt["lateral_offset"])
                > world.road.width / 2.0 + config.corridor_margin):
            diverged = True
            break
        state = vehicle.step(state, vehicle.ControlCommand(row.u, row.a),
                             params, config.dt)
    return rows, summarize(rows, goal_reached, diverged), world


def run_simulation(config, world=None, cam=None):
    """Vision-in-the-loop run. Returns (trace rows, summary dict, world)."""
    config.validate()
    if world is None:
        world = scene.make_course(config.course, seed=config.seed)
    if cam is None:
        cam = scene.CameraModel()
    params = config.vehicle_params
    vision = VisionState(config, cam)
    dt = config.dt
    stride = config.vision_stride
    psi_d_prev = world.start_state.psi
    vis_psi = world.start_state.psi

    def control(k, state, gt):
        nonlocal psi_d_prev, vis_psi
        if k % stride == 0:
            img = scene.degrade(scene.render(world, cam, state), config.weather,
                                seed=config.seed)
            vision.update(img, pair_dt=dt * stride,
                          dpsi=vehicle.wrap_angle(state.psi - vis_psi))
            vis_psi = state.psi
        foe = vision.foe
        d_lat = gt["lateral_offset"]
        dist = gt["distance_to_goal"]
        # Repulsion is muted near the goal, where the road's end fakes a
        # detection.
        fx_eff = vision.commanded_fx
        if dist <= config.obs_goal_gate:
            fx_eff = 0.0
        f_obs = obstacle.RepulsiveForce(fx_eff, vision.obs_fy)
        f_att = potential.attractive_force((state.x, state.y), world.goal,
                                           config.alpha)
        f_road, f_tot, psi_d = steer_to_field(config, cam, foe, f_att, f_obs,
                                              d_lat, state.psi, psi_d_prev)
        # The road walls steepen exponentially, so the raw field heading can
        # swing near-perpendicular to the road; clamping the command about
        # the road tangent keeps the lateral closure rate within what the
        # rate-limited steering can stabilize.
        h_road = world.road.pose_at(gt["arclength"])[2]
        # the wide clamp is reserved for committed avoidance; lane keeping
        # alone gets a tight cap, which keeps the stiff walls from
        # sustaining a bang-bang weave around the valley
        cap = config.swerve_max if vision.latch_left > 0 else config.swerve_keep
        dev = vehicle.wrap_angle(psi_d - h_road)
        dev = max(-cap, min(cap, dev))
        # rate damping: the lateral closure rate is v*sin(psi - h_road);
        # feeding it back bleeds off ringing the walls would sustain
        dev -= config.swerve_damp * math.sin(
            vehicle.wrap_angle(state.psi - h_road))
        dev = max(-cap, min(cap, dev))
        psi_d = vehicle.wrap_angle(h_road + dev)
        # new avoidance commits only while tracking the lane cleanly: during
        # a swerve recovery the obstacle bearing flips sign frame to frame
        # and lane texture is viewed obliquely, so detections are untrusted
        vision.commit_ok = (
            abs(d_lat) <= config.commit_lat_max
            and abs(vehicle.wrap_angle(state.psi - h_road))
            <= config.commit_dev_max)
        psi_d_dot = vehicle.wrap_angle(psi_d - psi_d_prev) / dt if k else 0.0
        psi_d_dot = max(-config.psi_d_dot_max,
                        min(config.psi_d_dot_max, psi_d_dot))
        psi_d_prev = psi_d

        psi_dot = vehicle.yaw_rate(state.v, state.delta_f, params)
        s_r = vehicle.rotational_manifold(state.psi, psi_d, psi_dot, psi_d_dot,
                                          params.c_r)
        u = vehicle.steer_command(s_r, params)

        # slow down while dodging: detection range is geometry-limited, so
        # trading speed for maneuvering time is what makes the swerve fit
        v_d_eff = (params.v_d * min(1.0, dist / config.taper_dist)
                   / (1.0 + config.obs_slow * abs(fx_eff)))
        s_l = params.c_l * state.v - v_d_eff
        a = vehicle.longitudinal_command(state.v, v_d_eff, params)

        return TraceRow(
            t=k * dt, x=state.x, y=state.y, psi=state.psi, v=state.v,
            delta_f=state.delta_f, foe_x=foe.x_foe, foe_y=foe.y_foe,
            f_att_x=f_att.fx, f_att_y=f_att.fy,
            f_obs_x=f_obs.f_x, f_obs_y=f_obs.f_y,
            f_road_x=f_road.fx, f_road_y=f_road.fy,
            f_tot_x=f_tot.fx, f_tot_y=f_tot.fy,
            s_r=s_r, s_l=s_l, u=u, a=a,
            lat_offset=d_lat, clearance=gt["clearance"])

    return _drive(config, world, control)


def run_baseline(config, world=None):
    """Waypoint-tracking baseline: pure-pursuit lateral law on the road's
    center line plus the longitudinal speed regulator. Same trace schema."""
    config.validate()
    if world is None:
        world = scene.make_course(config.course, seed=config.seed)
    params = config.vehicle_params
    dt = config.dt
    lookahead = 8.0

    def control(k, state, gt):
        tx, ty, _ = world.road.pose_at(gt["arclength"] + lookahead)
        # bearing to the lookahead point in the body frame
        ang = vehicle.wrap_angle(math.atan2(ty - state.y, tx - state.x)
                                 - state.psi)
        delta_des = math.atan2(2.0 * params.wheelbase * math.sin(ang), lookahead)
        delta_des = max(-params.delta_0, min(params.delta_0, delta_des))
        u = max(-params.u_0, min(params.u_0, (delta_des - state.delta_f) / dt))

        v_d_eff = params.v_d * min(1.0, gt["distance_to_goal"] / config.taper_dist)
        s_l = params.c_l * state.v - v_d_eff
        a = vehicle.longitudinal_command(state.v, v_d_eff, params)

        return TraceRow(
            t=k * dt, x=state.x, y=state.y, psi=state.psi, v=state.v,
            delta_f=state.delta_f, foe_x=0.0, foe_y=0.0,
            f_att_x=0.0, f_att_y=0.0, f_obs_x=0.0, f_obs_y=0.0,
            f_road_x=0.0, f_road_y=0.0, f_tot_x=0.0, f_tot_y=0.0,
            s_r=0.0, s_l=s_l, u=u, a=a,
            lat_offset=gt["lateral_offset"], clearance=gt["clearance"])

    return _drive(config, world, control)
