"""The benchmark's workloads, the episodes that drive flownav through its
public entry points, their output checks, and the measuring loop.

Every workload is a closed loop with one caller: the next vision frame
starts only when the previous one is done. A run repeats one deterministic
episode as often as it fits in the run's time, so every episode of a run
must produce the same output bytes.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import flownav
import numpy
from flownav import cli, imgproc, pipeline, scene, trace, vehicle

import spans

SETUP_PROBES = 5          # extra set-ups per untraced run, for setup_s
LATERAL_BOUND_M = 1.0     # test_5's lane-keeping bound
CLEARANCE_BOUND_M = 0.5   # test_6's clearance bound
SWING_BOUND_M = 3.5       # test_6's lane-change excursion (one lane width)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    course: str = "straight-arc"
    weather: str = "clear"
    start_s: float = 110.0     # start arclength, m; the vehicle cruises at v_d
    frames: int = 64           # vision frames per episode
    replay: bool = False
    lateral_bound: bool = False


WORKLOADS = {w.name: w for w in [
    Workload("clear",
             "clear drive from 10 m before the straight-to-arc switch; LK and "
             "corners dominate, render is ground-only, degrade does nothing",
             lateral_bound=True),
    Workload("rain",
             "same drive in rain; degrade is a third of the time and droplets "
             "make the forward-backward LK and obstacle layers do real work",
             weather="rain"),
    Workload("obstacles",
             "clear obstacles course from 30 m before the first box through "
             "detection, latch and swerve; the box path of render dominates",
             course="obstacles", start_s=40.0, frames=120),
    Workload("replay",
             "flownav replay over 8-bit PGM frames recorded every control "
             "step; no render, small flow, the only read_pgm and cli path",
             frames=96, replay=True),
]}


class SetupDone(Exception):
    """Raised at the start of frame 1 to end a set-up probe."""


class FrameClock:
    """Stamps the start of every vision frame. Patched over the frame
    source: scene.render in the closed loop, imgproc.read_pgm in replay."""

    def __init__(self):
        self.stamps = []
        self.stop_at = None

    def start(self, stop_at=None):
        self.stamps = []
        self.stop_at = stop_at

    def wrap(self, fn):
        def frame(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            if len(self.stamps) == self.stop_at:
                raise SetupDone
            return fn(*args, **kwargs)
        return frame


def _world(w, seed, config):
    world = scene.make_course(w.course, seed=seed)
    x, y, h = world.road.pose_at(w.start_s)
    world.start_state = vehicle.VehicleState(x=x, y=y, psi=h,
                                             v=config.vehicle_params.v_d)
    return world


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Outcome:
    digest: str = ""
    values: dict = field(default_factory=dict)   # name -> (value, unit)
    problems: list = field(default_factory=list)


class ClosedLoop:
    """One episode: pipeline.run_simulation from the workload's start state,
    then trace.write_trace."""

    def __init__(self, w, seed, frames, out_dir):
        self.w, self.seed, self.frames = w, seed, frames
        self.path = os.path.join(out_dir, "trace.csv")

    def run(self):
        w = self.w
        config = pipeline.PipelineConfig(course=w.course, seed=self.seed,
                                         weather=w.weather)
        config.max_steps = self.frames * config.vision_stride
        rows, summary, world = pipeline.run_simulation(
            config, world=_world(w, self.seed, config))
        trace.write_trace(rows, self.path)
        return config, rows, summary, world

    def check(self, result):
        config, rows, summary, world = result
        out = Outcome(digest=_sha256(self.path))
        lat = summary["mean_abs_lat"]
        out.values["mean_abs_lat_m"] = (lat, "m")
        if summary["diverged"]:
            out.problems.append("run diverged")
        if self.w.lateral_bound and not lat < LATERAL_BOUND_M:
            out.problems.append(f"mean_abs_lat_m {lat} >= {LATERAL_BOUND_M}")
        if world.obstacles:
            self._check_avoidance(config, rows, summary, world, out)
        return out

    def _check_avoidance(self, config, rows, summary, world, out):
        clearance = summary["min_clearance"]
        out.values["min_clearance_m"] = (clearance, "m")
        if not clearance > CLEARANCE_BOUND_M:
            out.problems.append(f"min_clearance_m {clearance} <= "
                                f"{CLEARANCE_BOUND_M}")
        # a committed avoidance commands exactly +-obs_latch_fx
        stride = config.vision_stride
        latched = sum(1 for k in range(0, len(rows), stride)
                      if abs(rows[k].f_obs_x) == config.obs_latch_fx)
        out.values["latched_frames"] = (latched, "count")
        box = world.obstacles[0]
        (s_box,), _ = world.road.project([box.x], [box.y])
        s, _ = world.road.project([r.x for r in rows], [r.y for r in rows])
        near = [r.lat_offset for r, si in zip(rows, s)
                if s_box - 25.0 < si < s_box + 15.0]
        swing = max(near) - min(near) if near else 0.0
        out.values["lane_swing_m"] = (swing, "m")
        if not latched or swing < SWING_BOUND_M:
            out.problems.append(f"no latched avoidance with a {SWING_BOUND_M}"
                                f" m swing (latched {latched}, swing {swing})")


def make_replay_inputs(w, seed, frames, out_dir):
    """PGM frames and a t,a,delta CSV from a run_baseline drive, one frame
    per control step. Returns (frames directory, controls path)."""
    config = pipeline.PipelineConfig(course=w.course, seed=seed,
                                     max_steps=frames)
    rows, _, world = pipeline.run_baseline(config,
                                           world=_world(w, seed, config))
    if len(rows) != frames:
        raise RuntimeError(f"baseline drive stopped after {len(rows)} steps")
    frame_dir = os.path.join(out_dir, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    for stale in os.listdir(frame_dir):
        os.remove(os.path.join(frame_dir, stale))
    cam = scene.CameraModel()
    lines = ["t,a,delta"]
    for i, r in enumerate(rows):
        state = vehicle.VehicleState(r.x, r.y, r.psi, r.v, r.delta_f)
        imgproc.write_pgm(scene.render(world, cam, state),
                          os.path.join(frame_dir, f"{i:05d}.pgm"))
        lines.append(f"{r.t!r},{r.a!r},{r.delta_f!r}")
    controls = os.path.join(out_dir, "controls.csv")
    with open(controls, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return frame_dir, controls


class Replay:
    """One episode: `flownav replay` through cli.main over the generated
    frames."""

    def __init__(self, w, seed, frames, out_dir):
        self.seed, self.frames = seed, frames
        self.frame_dir, self.controls = make_replay_inputs(w, seed, frames,
                                                           out_dir)
        self.out = os.path.join(out_dir, "replay-out")

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["replay", self.frame_dir, self.controls,
                           "--seed", str(self.seed), "--out", self.out])
        return rc, buf.getvalue()

    def check(self, result):
        rc, text = result
        out = Outcome()
        if rc != 0:
            out.problems.append(f"flownav replay exited {rc}")
            return out
        out.digest = _sha256(os.path.join(self.out, "replay.csv"))
        report = {}
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            report[key] = float(value)
        if report.get("pairs") != self.frames - 1:
            out.problems.append(f"pairs {report.get('pairs')} != "
                                f"{self.frames - 1}")
        bad = [k for k, v in report.items() if not math.isfinite(v)]
        if bad:
            out.problems.append(f"non-finite values: {bad}")
        out.values["mae_delta_rad"] = (report.get("mae_delta", math.nan),
                                       "rad")
        return out


@dataclass
class Tally:
    """What the episodes of one run (or one half of a traced run) saw."""

    attempted: int = 0
    failed: int = 0
    timed_frames: int = 0
    timed_s: float = 0.0
    wall_s: float = 0.0
    episodes: int = 0
    intervals: list = field(default_factory=list)   # s between frame starts
    setups: list = field(default_factory=list)      # entry -> frame 1, s
    digests: set = field(default_factory=set)
    outcome: Outcome = None

    @property
    def frames_per_s(self):
        return self.timed_frames / self.timed_s if self.timed_s else 0.0

    def add(self, t_entry, stamps, t_end, outcome):
        self.episodes += 1
        self.attempted += len(stamps)
        self.wall_s += t_end - t_entry
        if outcome.problems:
            self.failed += len(stamps)
        if self.outcome is None or outcome.problems:
            self.outcome = outcome
        if outcome.digest:
            self.digests.add(outcome.digest)
        if len(stamps) >= 2:
            self.setups.append(stamps[1] - t_entry)
            self.timed_frames += len(stamps) - 1
            self.timed_s += t_end - stamps[1]
            self.intervals += [b - a for a, b in zip(stamps[1:], stamps[2:])]

    def tail_ok(self, min_tail):
        if min_tail <= 0:
            return True
        return (len(self.intervals) >= min_tail
                and spans.tail_count(self.intervals, 90) >= min_tail)


def run_episodes(episode, clock, seconds, min_tail, tally):
    """Repeat the episode while the next one is expected to end within
    `seconds`, and until the frame-interval sample leaves min_tail samples
    above its p90; stop at the first failure."""
    t0 = time.perf_counter()
    done = 0
    while True:
        clock.start()
        t_entry = time.perf_counter()
        try:
            result = episode.run()
            t_end = time.perf_counter()
            outcome = episode.check(result)
        except Exception:
            t_end = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(problems=["episode raised"])
        tally.add(t_entry, clock.stamps, t_end, outcome)
        done += 1
        if outcome.problems:
            return
        elapsed = time.perf_counter() - t0
        if elapsed * (done + 1) / done > seconds and tally.tail_ok(min_tail):
            return


def probe_setup(episode, clock, tally):
    """One more set-up: episode entry to the start of frame 1, abandoning
    the episode there."""
    clock.start(stop_at=2)
    t_entry = time.perf_counter()
    try:
        episode.run()
    except SetupDone:
        tally.setups.append(clock.stamps[1] - t_entry)


def machine():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # name -> (value, unit)
    notes: list              # human-readable lines printed before the JSON


def _problems(tallies):
    problems = []
    for t in tallies:
        if t.outcome and t.outcome.problems:
            problems += t.outcome.problems
    digests = set().union(*(t.digests for t in tallies))
    if len(digests) > 1:
        problems.append(f"output bytes differ between episodes: {digests}")
    return problems


def measure(name, seed, seconds, traced, out_dir, import_s=0.0, frames=None,
            min_tail=spans.MIN_TAIL, probes=SETUP_PROBES):
    """Run one workload for about `seconds` and return its Result.

    Untraced, only the frame source is wrapped. Traced, the first half of
    the time runs untraced and the second half with every TARGETS function
    wrapped; the per-layer metrics come from the second half and the
    difference in frames/s is the tracing overhead."""
    w = WORKLOADS[name]
    frames = frames or w.frames
    run_dir = os.path.join(out_dir, f"{name}-seed{seed}")
    os.makedirs(run_dir, exist_ok=True)
    episode = (Replay if w.replay else ClosedLoop)(w, seed, frames, run_dir)
    clock = FrameClock()
    # the call that starts a vision frame
    module, attr = ("imgproc", "read_pgm") if w.replay else ("scene", "render")
    owner = getattr(flownav, module)
    notes = [f"workload = {name}  seed = {seed}  "
             + "  ".join(f"{k} = {v}" for k, v in machine().items())]

    def clocked():
        return spans.patched([(owner, attr, clock.wrap(getattr(owner, attr)))])

    plain = Tally()
    tallies = [plain]
    if not traced:
        with clocked():
            run_episodes(episode, clock, seconds, min_tail, plain)
            for _ in range(0 if plain.failed else probes):
                probe_setup(episode, clock, plain)
    else:
        tracer = spans.Tracer(f"{module}.{attr}")
        with clocked():
            run_episodes(episode, clock, seconds / 2, 0, plain)
        traced_tally = Tally()
        tallies.append(traced_tally)
        if not plain.failed:
            with tracer.installed(flownav), clocked():
                run_episodes(episode, clock, seconds / 2, 0, traced_tally)

    problems = _problems(tallies)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if problems and not failed:
        failed = attempted
    first = plain.outcome or Outcome()
    notes += [f"check {key} = {value:.9g} {unit}"
              for key, (value, unit) in first.values.items()]
    notes += [f"check {p}: FAILED" for p in problems]
    if plain.digests:
        notes.append(f"output_sha256 = {min(plain.digests)}")

    if not traced:
        metrics = _end_to_end(plain, import_s, notes)
    else:
        metrics = _per_layer(name, seed, tracer, traced_tally, plain,
                             out_dir, notes)
    return Result(not problems and failed == 0, max(attempted, 1), failed,
                  metrics, notes)


def _end_to_end(t, import_s, notes):
    iv = t.intervals or [math.nan]
    notes.append(f"episodes = {t.episodes}  frame intervals: samples = "
                 f"{len(t.intervals)}, above p90 = "
                 f"{spans.tail_count(iv, 90) if t.intervals else 0}  "
                 f"setup samples = {len(t.setups)}  import_s = {import_s:.4f}")
    setup = import_s + (spans.percentile(t.setups, 50) if t.setups
                        else math.nan)
    return {
        "frames_per_s": (t.frames_per_s, "1/s"),
        "frame_ms_p50": (1000.0 * spans.percentile(iv, 50), "ms"),
        "frame_ms_p90": (1000.0 * spans.percentile(iv, 90), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _per_layer(name, seed, tracer, traced, plain, out_dir, notes):
    spans.classify_tracks(tracer.spans)
    frames = max(tracer.frame + 1, 1)
    wall = traced.wall_s or math.nan
    metrics = spans.layer_metrics(tracer.spans, frames, wall)
    overhead = traced.frames_per_s - plain.frames_per_s
    notes.append(f"tracing overhead = {overhead:.4f} frames/s (traced "
                 f"{traced.frames_per_s:.4f} - untraced "
                 f"{plain.frames_per_s:.4f})")
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    artifact = {
        "workload": name, "seed": seed, "machine": machine(),
        "frames": frames, "wall_s": wall,
        "untraced_frames_per_s": plain.frames_per_s,
        "traced_frames_per_s": traced.frames_per_s,
        "overhead_frames_per_s": overhead,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_fields": ["name", "start_s", "end_s", "parent", "frame"],
        "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.frame]
                  for s in tracer.spans],
    }
    path = os.path.join(out_dir, f"spans-{name}.json")
    with open(path, "w") as fh:
        json.dump(artifact, fh)
    notes.append(f"spans written to {os.path.relpath(path)}")
    return metrics
