"""Fast tests of the command line and of the shared drive loop: the exit-code
contract, `flow` and `replay` over a short rendered sequence, the goal and
corridor exits of `simulate` and `baseline`, and the one `pure_sign` setting
reached from both the config file and `--pure-sign`."""

import dataclasses
import math

import pytest

from flownav import cli, imgproc, pipeline, scene
from flownav.cli import RUNTIME_EXIT, USAGE_EXIT
from flownav.vehicle import VehicleState

N_FRAMES = 4


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """N_FRAMES PGM frames of a straight cruise and its t,a,delta controls."""
    root = tmp_path_factory.mktemp("rec")
    frames = root / "frames"
    frames.mkdir()
    world = scene.make_course("straight", seed=7)
    cam = scene.CameraModel()
    config = pipeline.PipelineConfig()
    v, dt = config.vehicle_params.v_d, config.dt
    lines = ["t,a,delta"]
    for i in range(N_FRAMES):
        x, y, h = world.road.pose_at(20.0 + i * v * dt)
        img = scene.render(world, cam, VehicleState(x=x, y=y, psi=h, v=v))
        imgproc.write_pgm(img, str(frames / f"{i:03d}.pgm"))
        lines.append(f"{i * dt!r},0.0,0.0")
    controls = root / "controls.csv"
    controls.write_text("\n".join(lines) + "\n")
    return frames, controls


def _run(capsys, argv):
    rc = cli.main([str(a) for a in argv])
    capsys.readouterr()
    return rc


# ---------------------------------------------------------------------------
# exit codes: 1 for usage and config errors, 2 for runtime failures
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert _run(capsys, []) == USAGE_EXIT


@pytest.mark.parametrize("text", [
    "no_such_knob = 1\n",           # unknown key
    "vehicle.no_such_knob = 1\n",   # unknown key in a namespace
    "max_steps 30\n",               # line without '='
    "raw_ttc = maybe\n",            # bad boolean
    "vehicle.pure_sign = 2\n",      # bad boolean in a namespace
])
def test_bad_config_is_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = _run(capsys, ["baseline", "--config", cfg, "--out", tmp_path / "o"])
    assert rc == USAGE_EXIT
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_replay_too_few_frames(capsys, tmp_path, recording):
    frames, _ = recording
    one = tmp_path / "one"
    one.mkdir()
    (one / "000.pgm").write_bytes((frames / "000.pgm").read_bytes())
    controls = tmp_path / "c.csv"
    controls.write_text("t,a,delta\n0.0,0.0,0.0\n")
    assert _run(capsys, ["replay", one, controls, "--out", tmp_path]) \
        == RUNTIME_EXIT


def test_replay_count_mismatch(capsys, tmp_path, recording):
    frames, _ = recording
    controls = tmp_path / "c.csv"
    controls.write_text("0.0,0.0,0.0\n0.1,0.0,0.0\n")
    assert _run(capsys, ["replay", frames, controls, "--out", tmp_path]) \
        == RUNTIME_EXIT


def test_replay_timestamps_must_increase(capsys, tmp_path, recording):
    frames, _ = recording
    controls = tmp_path / "c.csv"
    controls.write_text("0.5,0.0,0.0\n" * N_FRAMES)
    assert _run(capsys, ["replay", frames, controls, "--out", tmp_path]) \
        == RUNTIME_EXIT


@pytest.mark.parametrize("steps", [
    (1.0, 1.0, 0.0),    # a repeated timestamp in a later row
    (1.0, 1.0, -0.5),   # a backwards step in a later row
    (1.0, 1.0, 1.5),    # an uneven interval in a later row
])
def test_replay_every_interval_checked(capsys, tmp_path, recording, steps):
    frames, _ = recording
    dt = pipeline.PipelineConfig().dt
    times = [0.0]
    for k in steps:
        times.append(times[-1] + k * dt)
    controls = tmp_path / "c.csv"
    controls.write_text("".join(f"{t!r},0.0,0.0\n" for t in times))
    assert _run(capsys, ["replay", frames, controls, "--out", tmp_path]) \
        == RUNTIME_EXIT
    assert not (tmp_path / "replay.csv").exists()


def test_replay_accepts_accumulated_timestamps(capsys, tmp_path, recording):
    # a recorder that adds dt each step drifts by float rounding only
    frames, _ = recording
    dt = pipeline.PipelineConfig().dt
    t, lines = 0.0, []
    for _ in range(N_FRAMES):
        lines.append(f"{t!r},0.0,0.0\n")
        t += dt
    controls = tmp_path / "c.csv"
    controls.write_text("".join(lines))
    assert _run(capsys, ["replay", frames, controls, "--out", tmp_path]) == 0


# ---------------------------------------------------------------------------
# flow and replay over rendered frames
# ---------------------------------------------------------------------------

def test_flow_writes_tracks(capsys, tmp_path, recording):
    frames, _ = recording
    out = tmp_path / "flow"
    assert _run(capsys, ["flow", frames / "000.pgm", frames / "001.pgm",
                         "--out", out]) == 0
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[0] == "x,y,vx,vy,valid"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    valid = [r for r in rows if r[4] == 1.0]
    assert len(valid) >= 10
    assert all(math.isfinite(v) for r in valid for v in r)
    assert (out / "flow.svg").read_text().startswith("<svg")
    # corners come from the closed loop's detector, above the bottom band
    det_row_max = pipeline.PipelineConfig().det_row_max
    assert all(r[1] < det_row_max for r in rows)


def test_replay_predicts_every_pair(capsys, tmp_path, recording):
    frames, controls = recording
    out = tmp_path / "replay"
    assert _run(capsys, ["replay", frames, controls, "--out", out]) == 0
    lines = (out / "replay.csv").read_text().splitlines()
    assert lines[0] == "t,a_pred,a_rec,delta_pred,delta_rec"
    assert len(lines) == N_FRAMES
    assert all(math.isfinite(float(v)) for ln in lines[1:]
               for v in ln.split(","))
    summary = (out / "replay_summary.txt").read_text()
    assert f"pairs = {N_FRAMES - 1}\n" in summary


def test_replay_honours_pure_sign(capsys, tmp_path, recording):
    frames, controls = recording
    # wide boundary layer: the smooth law stays off saturation (see below)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("vehicle.phi_band = 10.0\n")
    outs = []
    for name, extra in (("smooth", []), ("pure", ["--pure-sign"])):
        out = tmp_path / name
        assert _run(capsys, ["replay", frames, controls, "--config", cfg,
                             "--out", out] + extra) == 0
        outs.append((out / "replay.csv").read_bytes())
    assert outs[0] != outs[1]


# ---------------------------------------------------------------------------
# the drive loop's exits, for the vision run and the baseline
# ---------------------------------------------------------------------------

RUNNERS = [pipeline.run_simulation, pipeline.run_baseline]


def _world_from(s, lateral):
    world = scene.make_course("straight", seed=7)
    x, y, h = world.road.pose_at(s)
    start = VehicleState(x=x - math.sin(h) * lateral,
                         y=y + math.cos(h) * lateral, psi=h)
    return dataclasses.replace(world, start_state=start)


@pytest.mark.parametrize("run", RUNNERS)
def test_start_at_goal_stops_at_once(run):
    config = pipeline.PipelineConfig(course="straight")
    # the goal sits 2 m before the road's end
    world = _world_from(220.0 - 2.0 - 0.5 * config.goal_radius, 0.0)
    rows, summary, _ = run(config, world=world)
    assert len(rows) == 1
    assert summary["goal_reached"] and not summary["diverged"]


@pytest.mark.parametrize("run", RUNNERS)
def test_start_outside_corridor_diverges(run):
    config = pipeline.PipelineConfig(course="straight")
    world = _world_from(20.0, 20.0)
    assert 20.0 > world.road.width / 2.0 + config.corridor_margin
    rows, summary, _ = run(config, world=world)
    assert len(rows) == 1
    assert summary["diverged"] and not summary["goal_reached"]


# ---------------------------------------------------------------------------
# one pure_sign setting: the config key and the flag are the same switch
# ---------------------------------------------------------------------------

def test_pure_sign_flag_equals_config_key(capsys, tmp_path):
    # a boundary layer wider than the start-up speed error keeps the smooth
    # law off saturation, so the two switching laws differ from step 0
    base = "max_steps = 30\nvehicle.phi_band = 10.0\n"
    plain = tmp_path / "plain.cfg"
    plain.write_text(base)
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(base + "vehicle.pure_sign = true\n")
    traces = {}
    for name, argv in (("key", ["--config", keyed]),
                       ("flag", ["--config", plain, "--pure-sign"]),
                       ("neither", ["--config", plain])):
        out = tmp_path / name
        assert _run(capsys, ["baseline", "--out", out] + argv) == 0
        traces[name] = (out / "trace.csv").read_bytes()
    assert traces["key"] == traces["flag"]
    assert traces["key"] != traces["neither"]
