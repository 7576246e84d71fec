"""Fast tests for the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import flownav  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_subtracts_direct_children_only():
    # a[0,10] > b[1,4] > c[2,3];  a > d[5,9]
    s = [Span("a", 0.0, 10.0), Span("b", 1.0, 4.0, parent=0),
         Span("c", 2.0, 3.0, parent=1), Span("d", 5.0, 9.0, parent=0)]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nesting_frames_and_raises():
    ticks = iter(range(100))
    tracer = spans.Tracer("src", clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("x")

    leaf = tracer.wrap("leaf", lambda: 1)
    bad = tracer.wrap("bad", fail)
    src = tracer.wrap("src", lambda: None)

    def body():
        leaf()
        with pytest.raises(ValueError):
            bad()
        return 2

    outer = tracer.wrap("outer", body)
    src()
    assert outer() == 2
    names = [(s.name, s.parent, s.frame, s.raised) for s in tracer.spans]
    assert names == [("src", -1, 0, ""), ("outer", -1, 0, ""),
                     ("leaf", 1, 0, ""), ("bad", 1, 0, "ValueError")]
    assert all(s.end > s.start for s in tracer.spans)


def test_installed_wraps_and_restores():
    original = flownav.scene.render
    update = flownav.pipeline.VisionState.update
    with spans.Tracer("scene.render").installed(flownav):
        assert flownav.scene.render is not original
        assert flownav.pipeline.VisionState.update is not update
    assert flownav.scene.render is original
    assert flownav.pipeline.VisionState.update is update


def test_track_classification_per_update():
    u = spans.UPDATE
    s = [Span(u, 0, 10),
         Span(spans.TRACK, 1, 2, parent=0),
         Span("obstacle.segment_obstacles", 3, 6, parent=0),
         Span(spans.TRACK, 4, 5, parent=2),      # nested deeper: still fb
         Span(spans.TRACK, 7, 8, parent=0),
         Span(u, 11, 20),
         Span(spans.TRACK, 12, 13, parent=5),
         Span(spans.TRACK, 21, 22)]              # outside any update
    spans.classify_tracks(s)
    assert [x.name for x in s if x.name.startswith("flow")] == [
        "flow.track.fwd", "flow.track.fb", "flow.track.fb",
        "flow.track.fwd", "flow.track.fwd"]


def test_percentile_matches_numpy_and_tail_rule():
    rng = np.random.default_rng(3)
    v = list(rng.random(57))
    for q in (0, 50, 90, 100):
        assert spans.percentile(v, q) == pytest.approx(np.percentile(v, q))
    # with n distinct samples, n - 1 - floor(0.9 (n - 1)) lie above p90
    assert spans.tail_count(list(range(101)), 90) == 10
    assert spans.tail_count(list(range(91)), 90) == 9
    t = workloads.Tally(intervals=[float(i) for i in range(91)])
    assert not t.tail_ok(spans.MIN_TAIL)
    t.intervals.append(91.0)
    assert t.tail_ok(spans.MIN_TAIL)


def test_layer_metrics_report_every_name_and_zero_when_unreached():
    s = [Span(spans.UPDATE, 0.0, 0.010, frame=0, info=True),
         Span("flow.track.fwd", 0.001, 0.004, parent=0, frame=0,
              info=(10, 8)),
         Span("egomotion.estimate_foe", 0.005, 0.006, parent=0, frame=0,
              raised="InsufficientFlowError")]
    m = spans.layer_metrics(s, frames=1, wall_s=0.020)
    assert set(m) == {x["name"] for x in _spec()["per_layer"]}
    assert m["pipeline.VisionState.update.self_ms"][0] == pytest.approx(6.0)
    assert m["pipeline.VisionState.update.share"][0] == pytest.approx(30.0)
    assert m["flow.track.fwd.valid_frac"][0] == pytest.approx(0.8)
    assert m["egomotion.estimate_foe.fail_frac"][0] == 1.0
    assert m["pipeline.VisionState.latched_frac"][0] == 1.0
    assert m["scene.render.calls_per_frame"][0] == 0.0
    assert m["scene.render.self_ms"][0] == 0.0


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(tmp_path, name, traced):
    res = workloads.measure(name, 7, 0.0, traced, str(tmp_path), frames=4,
                            min_tail=0, probes=1)
    key = "per_layer" if traced else "end_to_end"
    assert set(res.metrics) == {m["name"] for m in _spec()[key]}
    units = {m["name"]: m["unit"] for m in _spec()[key]}
    assert all(units[k] == u for k, (_, u) in res.metrics.items())
    assert res.attempted >= 4
    if name == "obstacles":
        # four frames end long before the swerve: the check must fail and
        # count every frame as failed
        assert not res.correct and res.failed == res.attempted
    else:
        assert res.correct and res.failed == 0
    if traced:
        assert os.path.isfile(tmp_path / f"spans-{name}.json")


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clear", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
