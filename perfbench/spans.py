"""In-memory spans around flownav's public functions, timed from outside.

The tracer replaces module attributes with timing wrappers for the length
of a `with tracer.installed():` block and restores them afterwards; nothing
in the program changes. Spans are kept in a list and turned into per-layer
metrics once the run is over.
"""

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field

# a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL = 10

UPDATE = "pipeline.VisionState.update"
TRACK = "flow.track"

# (recorded span name, module, attribute path); `flow.track` is split into
# its forward and forward-backward calls after the run (see classify_tracks).
TARGETS = [
    ("scene.render", "scene", "render"),
    ("scene.degrade", "scene", "degrade"),
    ("scene.ground_truth", "scene", "ground_truth"),
    ("flow.build_pyramid", "flow", "build_pyramid"),
    (TRACK, "flow", "track"),
    ("imgproc.spatial_gradient", "imgproc", "spatial_gradient"),
    ("imgproc.read_pgm", "imgproc", "read_pgm"),
    ("features.detect_corners", "features", "detect_corners"),
    ("egomotion.estimate_foe", "egomotion", "estimate_foe"),
    ("egomotion.compute_ttc", "egomotion", "compute_ttc"),
    ("obstacle.segment_obstacles", "obstacle", "segment_obstacles"),
    ("potential.road_force", "potential", "road_force"),
    ("vehicle.step", "vehicle", "step"),
    (UPDATE, "pipeline", "VisionState.update"),
    ("pipeline.run_simulation", "pipeline", "run_simulation"),
    ("cli.cmd_replay", "cli", "cmd_replay"),
    ("trace.write_trace", "trace", "write_trace"),
]

SPAN_NAMES = [n for name, _, _ in TARGETS
              for n in ([TRACK + ".fwd", TRACK + ".fb"] if name == TRACK
                        else [name])]

# count metric -> unit; all are read from return values or state after a call
COUNT_UNITS = {
    "features.detect_corners.corners": "1/frame",
    "flow.track.fwd.points": "1/frame",
    "flow.track.fwd.valid_frac": "ratio",
    "flow.track.fb.points": "1/frame",
    "flow.track.fb.valid_frac": "ratio",
    "egomotion.estimate_foe.fail_frac": "ratio",
    "obstacle.segment_obstacles.nonempty_frac": "ratio",
    "obstacle.segment_obstacles.flagged": "1/frame",
    "pipeline.VisionState.latched_frac": "ratio",
}


def _corners(args, out):
    return len(out)


def _track(args, out):
    return (len(out.vectors), sum(1 for v in out.vectors if v.valid))


def _segment(args, out):
    return len(out.points)


def _latched(args, out):
    return args[0].latch_left > 0


# span name -> what to keep from a call that returned
INFO = {
    "features.detect_corners": _corners,
    TRACK: _track,
    "obstacle.segment_obstacles": _segment,
    UPDATE: _latched,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1       # index of the enclosing span, -1 at top level
    frame: int = -1        # vision frame in progress when the span opened
    info: object = None    # see INFO
    raised: str = ""       # exception type name if the call raised


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@dataclass
class Tracer:
    """Records one span per wrapped call; the frame counter advances when
    a span named `frame_source` opens."""

    frame_source: str
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    frame: int = -1
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn):
        info = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        frame_source = self.frame_source

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == frame_source:
                self.frame += 1
            i = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else -1,
                        frame=self.frame)
            spans.append(span)
            stack.append(i)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.raised = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = clock()
            if info is not None:
                span.info = info(args, out)
            return out
        return traced

    def installed(self, package):
        """Context manager that wraps every TARGETS function of package."""
        reps = []
        for name, module, path in TARGETS:
            owner = getattr(package, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            reps.append((owner, attr, self.wrap(name, getattr(owner, attr))))
        return patched(reps)


def classify_tracks(spans):
    """Rename `flow.track` spans in place: within one VisionState.update
    span the first call is the forward track (`.fwd`), later ones are the
    forward-backward check (`.fb`). A call outside any update is forward."""
    seen = {}
    for span in spans:
        if span.name != TRACK:
            continue
        owner = span.parent
        while owner >= 0 and spans[owner].name != UPDATE:
            owner = spans[owner].parent
        n = seen.get(owner, 0) if owner >= 0 else 0
        span.name = TRACK + (".fwd" if n == 0 else ".fb")
        seen[owner] = n + 1
    return spans


def self_times(spans):
    """Span duration minus the time covered by its direct children (calls
    nest and do not overlap, so the children never double count)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, frames, wall_s):
    """Per-layer metrics from classified spans of a run with `frames`
    vision frames and `wall_s` seconds of traced wall time.

    Every span in SPAN_NAMES and every count in COUNT_UNITS is reported;
    a layer the workload never reaches reads 0."""
    selfs = self_times(spans)
    by_name = {name: [] for name in SPAN_NAMES}
    for span, s in zip(spans, selfs):
        if span.name in by_name:
            by_name[span.name].append((span, s))
    out = {}
    for name in SPAN_NAMES:
        calls = by_name[name]
        total = sum(s for _, s in calls)
        out[f"{name}.calls_per_frame"] = (len(calls) / frames, "1/frame")
        out[f"{name}.self_ms"] = (
            1000.0 * percentile([s for _, s in calls], 50) if calls else 0.0,
            "ms")
        out[f"{name}.share"] = (100.0 * total / wall_s, "%")

    def infos(name):
        return [span.info for span, _ in by_name[name]]

    def frac(hits, n):
        return hits / n if n else 0.0

    corners = infos("features.detect_corners")
    counts = {"features.detect_corners.corners": sum(corners) / frames}
    for kind in ("fwd", "fb"):
        pts = infos(f"{TRACK}.{kind}")
        n = sum(p for p, _ in pts)
        counts[f"{TRACK}.{kind}.points"] = n / frames
        counts[f"{TRACK}.{kind}.valid_frac"] = frac(sum(v for _, v in pts), n)
    foe = by_name["egomotion.estimate_foe"]
    counts["egomotion.estimate_foe.fail_frac"] = frac(
        sum(1 for span, _ in foe if span.raised), len(foe))
    flagged = infos("obstacle.segment_obstacles")
    counts["obstacle.segment_obstacles.nonempty_frac"] = frac(
        sum(1 for f in flagged if f), len(flagged))
    counts["obstacle.segment_obstacles.flagged"] = sum(flagged) / frames
    latched = infos(UPDATE)
    counts["pipeline.VisionState.latched_frac"] = frac(sum(latched),
                                                       len(latched))
    for name, value in counts.items():
        out[name] = (value, COUNT_UNITS[name])
    return out


def percentile(samples, q):
    """Linear-interpolated q-th percentile (numpy's default rule)."""
    v = sorted(samples)
    if not v:
        raise ValueError("no samples")
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_count(samples, q):
    """Number of samples strictly above the q-th percentile."""
    p = percentile(samples, q)
    return sum(1 for s in samples if s > p)
