"""Per-call memory of each per-frame stage, and the frame loop's heap.

render, degrade, detect_corners and flow.track work in fixed-size blocks
(see their docstrings), so one call's peak of traced allocations, its output
included, stays a few frames' worth. Each bound is a number of frames (one
240 x 320 float64 frame is 0.61 MB) near the geometric mean of the peaks of
the earlier full-frame code and of the blocked code, given beside it as
measured with numpy 2.4: about 25-45 % above the blocked peak and 20-30 %
below the full-frame one, room for numpy's own temporaries to differ
between versions.
"""

import math
import os
import platform
import subprocess
import sys
import tracemalloc

import pytest

from flownav import flow, imgproc, pipeline, scene
from flownav.vehicle import VehicleState


FRAME = scene.CameraModel().height * scene.CameraModel().width * 8


def peak_frames(fn, *args, **kwargs):
    """Peak traced allocation of one call fn(*args, **kwargs), in frames,
    after a first call has filled any cache."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / FRAME
    finally:
        tracemalloc.stop()


def road_state(world, s, d, dh):
    x, y, h = world.road.pose_at(s)
    return VehicleState(x=x - math.sin(h) * d, y=y + math.cos(h) * d,
                        psi=h + dh)


def rain_frame(s):
    world = scene.make_course("straight-arc")
    img = scene.render(world, scene.CameraModel(), road_state(world, s, 0, 0))
    return scene.degrade(img, "rain", seed=7)


@pytest.mark.parametrize("s,d,dh", [
    (68.5, 3.5, 0.4),       # the box straddles the camera plane: cast everywhere
    (60.0, 0.0, 0.05),      # the box 10 m ahead in its window
])
def test_render(s, d, dh):
    # full-frame code: 17 frames straddling, 19 windowed; blocked: 7.1, 8.2
    world = scene.make_course("obstacles")
    assert peak_frames(scene.render, world, scene.CameraModel(),
                       road_state(world, s, d, dh)) < 12.0


def test_degrade():
    # full-frame code: 2.2 frames, one of them the output; blocked: 1.4
    img = scene.render(scene.make_course("straight-arc"), scene.CameraModel(),
                       scene.make_course("straight-arc").start_state)
    assert peak_frames(scene.degrade, img, "rain", seed=7) < 1.8


def test_detect_corners():
    # full-frame code: 5.7 frames; blocked: 3.5
    grad = imgproc.spatial_gradient(rain_frame(110.0))
    assert len(pipeline.detect_features(grad)) == pipeline.MAX_CORNERS
    assert peak_frames(pipeline.detect_features, grad) < 4.4


def test_track_150_corners():
    # full-frame code: 10.3 frames; blocked: 5.6
    imgs = [rain_frame(s) for s in (110.0, 110.4)]
    grads = [imgproc.spatial_gradient(img) for img in imgs]
    pyrs = [flow.build_pyramid(img, grad, pipeline.PYR_LEVELS)
            for img, grad in zip(imgs, grads)]
    pts = pipeline.detect_features(grads[0])
    assert len(pts) == 150
    assert peak_frames(flow.track, *pyrs, pts) < 7.6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's malloc thresholds only")
@pytest.mark.parametrize("hold", [False, True])
def test_frame_heap_keeps_a_stage_burst(hold):
    # a stage's burst of three 1 MB blocks, freed and allocated again: with
    # glibc's dynamic thresholds the freed heap top goes back to the OS and
    # every burst faults most of its 3 MB (730 pages) in again; held, none do
    code = ("import resource, numpy as np\n"
            "from flownav import pipeline\n"
            f"if {hold}: pipeline.hold_frame_heap()\n"
            "def burst():\n"
            "    blocks = [np.ones(125_000) for _ in range(3)]\n"
            "burst()\n"
            "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    burst()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    faults = int(out) / 20
    if hold:
        assert faults < 10
    else:
        assert faults > 200
