"""Command-line entry points: pair analysis, closed-loop simulation,
frame-directory replay and the waypoint-PID baseline.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

from . import egomotion, flow, imgproc, pipeline, scene, svgplot, trace, \
    vehicle
from .errors import (AlignmentError, FlownavError, InsufficientFlowError,
                     DegenerateGeometryError, InvalidParameterError)

USAGE_EXIT = 1
RUNTIME_EXIT = 2

# A recording has no map: replay holds the vehicle at the center of a
# straight lane along its first heading, with the goal on that line further
# ahead than the goal gate and the speed taper reach.
REPLAY_GOAL_DIST = 100.0  # m
REPLAY_OBSERVATION = pipeline.Observation(lat_offset=0.0, h_road=0.0,
                                          goal=(REPLAY_GOAL_DIST, 0.0))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the CLI contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _coerce(key, raw, current):
    """raw parsed as the type of key's current value."""
    if isinstance(current, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise InvalidParameterError(f"config key {key!r}: expected a boolean, "
                                    f"got {raw!r}")
    try:
        if isinstance(current, int):
            return int(raw, 0)
        if isinstance(current, float):
            return float(raw)
    except ValueError:
        raise InvalidParameterError(
            f"config key {key!r}: expected {type(current).__name__}, "
            f"got {raw!r}") from None
    return raw.strip()


def parse_config_text(text):
    """Flat `key = value` lines with `#` comments; returns {key: raw value}."""
    entries = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"config line {ln}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if not key:
            raise InvalidParameterError(f"config line {ln}: empty key")
        entries[key] = raw
    return entries


def apply_config(config, entries):
    """Apply flat config entries onto a PipelineConfig.

    A plain key names a `PipelineConfig` scalar; `vehicle.*` names a vehicle
    parameter. Any other key, dotted or not, is an error.
    """
    vehicle_keys = {f.name for f in fields(vehicle.VehicleParams)}
    scalar_keys = set(pipeline.PipelineConfig.scalar_keys())
    for key, raw in entries.items():
        ns, _, leaf = key.partition(".")
        if ns == "vehicle" and leaf in vehicle_keys:
            target, name = config.vehicle_params, leaf
        elif key in scalar_keys:
            target, name = config, key
        else:
            raise InvalidParameterError(f"unknown config key {key!r}")
        setattr(target, name, _coerce(key, raw, getattr(target, name)))
    return config


def build_config(args):
    config = pipeline.PipelineConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            apply_config(config, parse_config_text(fh.read()))
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "weather", None):
        config.weather = args.weather
    if getattr(args, "course", None):
        config.course = args.course
    if getattr(args, "pure_sign", False):
        config.vehicle_params.pure_sign = True
    config.validate()
    return config


def _outdir(args):
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cmd_flow(args):
    build_config(args)  # a bad --config is a usage error here too
    prev = imgproc.read_pgm(args.prev)
    next_ = imgproc.read_pgm(args.next)
    _check_size(next_.shape, prev.shape, args.next, args.prev)
    grad = imgproc.spatial_gradient(prev)
    ff = flow.track(flow.build_pyramid(prev, grad, pipeline.PYR_LEVELS),
                    flow.build_pyramid(next_, imgproc.spatial_gradient(next_),
                                       pipeline.PYR_LEVELS),
                    pipeline.detect_features(grad))
    foe = None
    try:
        foe = egomotion.estimate_foe(ff, min_speed=pipeline.MIN_FLOW_SPEED)
    except (InsufficientFlowError, DegenerateGeometryError):
        pass
    out = _outdir(args)
    lines = ["x,y,vx,vy,valid"]
    for (x, y), (vx, vy), ok in zip(ff.pts.tolist(), ff.disp.tolist(),
                                    ff.valid.tolist()):
        lines.append(f"{x:.9g},{y:.9g},{vx:.9g},{vy:.9g},{int(ok)}")
    _write(os.path.join(out, "flow.csv"), "\n".join(lines) + "\n")
    _write(os.path.join(out, "flow.svg"),
           svgplot.flow_svg(ff, prev.shape[1], prev.shape[0], foe=foe))
    print(f"tracked {int(ff.valid.sum())}/{len(ff.pts)} points", end="")
    if foe is not None:
        print(f", FOE ({foe.x_foe:.1f}, {foe.y_foe:.1f})", end="")
    print()
    return 0


def _check_size(shape, want, name, ref):
    if shape != want:
        raise AlignmentError(f"frame {name} is {shape[1]}x{shape[0]} px but "
                             f"{ref} is {want[1]}x{want[0]} px")


def _report_run(rows, summary, world, out):
    trace.write_trace(rows, os.path.join(out, "trace.csv"))
    _write(os.path.join(out, "path.svg"), svgplot.path_svg(rows, world))
    _write(os.path.join(out, "summary.txt"), trace.format_summary(summary))
    sys.stdout.write(trace.format_summary(summary))


def cmd_simulate(args):
    config = build_config(args)
    rows, summary, world = pipeline.run_simulation(config)
    _report_run(rows, summary, world, _outdir(args))
    return 0


def cmd_baseline(args):
    config = build_config(args)
    rows, summary, world = pipeline.run_baseline(config)
    _report_run(rows, summary, world, _outdir(args))
    return 0


def read_controls(path):
    """Recorded controls CSV with columns t,a,delta (header optional)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if parts[0].strip().lower() == "t":
                continue
            try:
                row = tuple(float(p) for p in parts)
            except ValueError:
                row = ()
            if len(row) != 3 or not all(map(math.isfinite, row)):
                raise AlignmentError(f"control row {len(rows) + 1} needs three "
                                     f"finite numbers t,a,delta: {line!r}")
            rows.append(row)
    return rows


def cmd_replay(args):
    config = build_config(args)
    frames = sorted(f for f in os.listdir(args.frames)
                    if f.lower().endswith(".pgm"))
    if len(frames) < 2:
        raise AlignmentError(f"need at least 2 frames, found {len(frames)}")
    controls = read_controls(args.controls)
    if len(controls) != len(frames):
        raise AlignmentError(f"{len(frames)} frames but {len(controls)} "
                             "control rows; counts must match")

    cam = scene.CameraModel()
    params = config.vehicle_params
    vision = pipeline.VisionState(config, cam)
    # one fixed frame interval drives the dead reckoning, every LK pair and
    # every control step
    dt = controls[1][0] - controls[0][0]
    for row, (prev, cur) in enumerate(zip(controls, controls[1:]), start=2):
        step = cur[0] - prev[0]
        if step <= 0:
            raise AlignmentError(
                f"control timestamps must increase (control row {row})")
        if abs(step - dt) > 1e-6 * dt:
            raise AlignmentError(
                f"control interval {step:.9g} s at control row {row} differs "
                f"from the first, {dt:.9g} s; replay needs a fixed step")

    # teacher-forced vehicle history: heading and speed are dead-reckoned
    # from the recorded controls, so each prediction sees the same state the
    # recorded controller saw (up to the straight-lane assumption below)
    psi = 0.0
    v = params.v_d
    psi_d = psi
    preds = []
    prev_delta = controls[0][2]
    for i, fname in enumerate(frames):
        img = imgproc.read_pgm(os.path.join(args.frames, fname))
        if i == 0:
            size = img.shape
        _check_size(img.shape, size, fname, frames[0])
        dpsi = 0.0
        if i > 0:
            dpsi = vehicle.yaw_rate(v, prev_delta, params) * dt
        vision.update(img, pair_dt=dt, dpsi=dpsi)
        if i == 0:
            continue
        t_rec, a_rec, delta_rec = controls[i]
        psi = vehicle.wrap_angle(psi + dpsi)
        v = max(0.0, v + a_rec * dt)

        state = vehicle.VehicleState(0.0, 0.0, psi, v, delta_rec)
        row, psi_d = pipeline.control_step(config, cam, vision, state, psi_d,
                                           i - 1, dt, REPLAY_OBSERVATION)
        delta_pred = prev_delta + row.u * dt
        preds.append((t_rec, row.a, a_rec, delta_pred, delta_rec,
                      row.u, (delta_rec - prev_delta) / dt))
        prev_delta = delta_rec

    out = _outdir(args)
    lines = ["t,a_pred,a_rec,delta_pred,delta_rec"]
    for t_rec, a_p, a_r, d_p, d_r, _, _ in preds:
        lines.append(f"{t_rec:.9g},{a_p:.9g},{a_r:.9g},{d_p:.9g},{d_r:.9g}")
    _write(os.path.join(out, "replay.csv"), "\n".join(lines) + "\n")

    eps = 1e-4
    agree = [1.0 if (abs(u) < eps and abs(r) < eps) or u * r > 0 else 0.0
             for *_rest, u, r in preds]
    steer_agree = 100.0 * sum(agree) / len(agree)
    mae_a = sum(abs(a_p - a_r) for _, a_p, a_r, *_ in preds) / len(preds)
    mae_d = sum(abs(d_p - d_r) for _, _, _, d_p, d_r, _, _ in preds) / len(preds)
    report = (f"pairs = {len(preds)}\n"
              f"steer_sign_agreement_pct = {steer_agree:.9g}\n"
              f"mae_accel = {mae_a:.9g}\n"
              f"mae_delta = {mae_d:.9g}\n")
    _write(os.path.join(out, "replay_summary.txt"), report)
    sys.stdout.write(report)
    return 0


def make_parser():
    parser = _Parser(prog="flownav",
                     description="monocular flow-based navigation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="texture / scenario seed")
        p.add_argument("--out", help="output directory (default: .)")
        p.add_argument("--weather", choices=("clear", "rain"))
        p.add_argument("--course", help="built-in course name")
        p.add_argument("--pure-sign", action="store_true", dest="pure_sign",
                       help="discontinuous switching law (no boundary layer); "
                            "same as vehicle.pure_sign = true")

    p = sub.add_parser("flow", help="track one frame pair")
    p.add_argument("prev")
    p.add_argument("next")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("simulate", help="vision-in-the-loop run")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="waypoint pure-pursuit run")
    common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("replay", help="predict controls over recorded frames")
    p.add_argument("frames", help="directory of PGM frames (lexicographic order)")
    p.add_argument("controls", help="recorded t,a,delta CSV")
    common(p)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except (InvalidParameterError,) as exc:
        print(f"flownav: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FlownavError, OSError) as exc:
        print(f"flownav: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
