"""Run-trace records, the versioned trace-v1 CSV format, and run summaries."""

from dataclasses import dataclass, fields

from .errors import AlignmentError

TRACE_VERSION = "trace-v1"


@dataclass
class TraceRow:
    t: float
    x: float
    y: float
    psi: float
    v: float
    delta_f: float
    foe_x: float
    foe_y: float
    f_att_x: float
    f_att_y: float
    f_obs_x: float
    f_obs_y: float
    f_road_x: float
    f_road_y: float
    f_tot_x: float
    f_tot_y: float
    s_r: float
    s_l: float
    u: float
    a: float
    lat_offset: float
    clearance: float

    def values(self):
        return [getattr(self, c) for c in TRACE_COLUMNS]


TRACE_COLUMNS = [f.name for f in fields(TraceRow)]


def _fmt(v):
    # fixed formatting keeps byte-identical output across identical runs
    return format(float(v), ".9g")


def write_trace(rows, path):
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_VERSION}\n")
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.values()) + "\n")


def read_trace(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != f"# {TRACE_VERSION}":
            raise AlignmentError(f"unsupported trace header {header!r}")
        cols = fh.readline().strip().split(",")
        if cols != TRACE_COLUMNS:
            raise AlignmentError("trace column mismatch")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(v) for v in line.split(",")]
            rows.append(TraceRow(*vals))
    return rows


def summarize(rows, goal_reached, diverged=False):
    """Aggregate metrics for a closed-loop run."""
    if not rows:
        return {
            "goal_reached": False, "diverged": diverged, "steps": 0,
            "mse_lat": float("nan"), "mean_abs_lat": float("nan"),
            "min_clearance": float("inf"), "duration": 0.0,
        }
    lat = [r.lat_offset for r in rows]
    return {
        "goal_reached": bool(goal_reached),
        "diverged": bool(diverged),
        "steps": len(rows),
        "mse_lat": sum(d * d for d in lat) / len(lat),
        "mean_abs_lat": sum(abs(d) for d in lat) / len(lat),
        "min_clearance": min(r.clearance for r in rows),
        "duration": rows[-1].t,
    }


def format_summary(summary):
    lines = [
        f"goal_reached = {str(summary['goal_reached']).lower()}",
        f"diverged = {str(summary['diverged']).lower()}",
        f"steps = {summary['steps']}",
        f"duration_s = {_fmt(summary['duration'])}",
        f"mse_lat_m2 = {_fmt(summary['mse_lat'])}",
        f"mean_abs_lat_m = {_fmt(summary['mean_abs_lat'])}",
        f"min_clearance_m = {_fmt(summary['min_clearance'])}",
    ]
    return "\n".join(lines) + "\n"
