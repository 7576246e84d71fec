"""Direct tests of VisionState's obstacle state machine and its two flag
filters: the latch/confirm/gap/refractory machine, the forward-backward
check (Kalal et al., Forward-Backward Error, ICPR 2010) and the cluster
filter."""

import numpy as np
import pytest

from flownav import flow, scene
from flownav.features import FeaturePoint
from flownav.imgproc import GrayImage
from flownav.pipeline import PipelineConfig, VisionState

from test_flow import shifted, textured

DT = 0.5          # frame-pair interval, s: obs_hold 4 s = 8 frames
DETECT = 1e-3     # lateral force EMA well past the 1e-4 deadband


def vision(**overrides):
    return VisionState(PipelineConfig(**overrides), scene.CameraModel())


def frame(vs, sign, fx=None):
    """One frame: a raw detection of the given sign (0 = none), with the
    lateral EMA at fx (by default DETECT in the detection's direction)."""
    vs.inst_sign = sign
    vs.obs_fx = sign * DETECT if fx is None else fx
    vs._update_latch(DT)


class TestUpdateLatch:
    def test_commits_after_confirmations(self):
        vs = vision()
        assert vs.config.obs_confirm == 2
        frame(vs, -1)
        assert vs.latch_left == 0 and vs.pend_count == 1
        frame(vs, -1)
        assert vs.latch_dir == -1
        assert vs.latch_left == round(vs.config.obs_hold / DT) == 8
        assert vs.commanded_fx == -vs.config.obs_latch_fx

    def test_sign_change_restarts_confirmation(self):
        vs = vision()
        frame(vs, 1)
        frame(vs, -1)
        assert vs.latch_left == 0 and (vs.pend_dir, vs.pend_count) == (-1, 1)

    def test_ema_tail_does_not_confirm(self):
        vs = vision()
        frame(vs, 1)
        for _ in range(5):
            frame(vs, 0, fx=DETECT)
        assert vs.latch_left == 0

    def test_gap_tolerated_then_reset(self):
        gap_max = PipelineConfig().obs_gap_max
        assert gap_max == 2
        vs = vision()
        frame(vs, 1)
        for _ in range(gap_max):
            frame(vs, 0, fx=DETECT)
        frame(vs, 1)
        assert vs.latch_dir == 1 and vs.latch_left == 8

        vs = vision()
        frame(vs, 1)
        for _ in range(gap_max + 1):
            frame(vs, 0, fx=DETECT)
        assert (vs.pend_dir, vs.pend_count, vs.pend_gap) == (0, 0, 0)
        frame(vs, 1)
        assert vs.latch_left == 0 and vs.pend_count == 1

    def test_dwell_rearms_while_seen(self):
        vs = vision()
        frame(vs, 1)
        frame(vs, 1)
        for _ in range(3):
            frame(vs, 0, fx=0.0)
        assert vs.latch_left == 5
        frame(vs, 1)
        assert vs.latch_left == 8
        # an opposite detection does not hold the dwell open
        frame(vs, -1)
        assert vs.latch_left == 7 and vs.latch_dir == 1

    def test_refractory_blocks_recommit(self):
        vs = vision()
        frame(vs, 1)
        frame(vs, 1)
        for _ in range(8):
            frame(vs, 0, fx=0.0)
        assert vs.latch_left == 0
        assert vs.refract_left == round(vs.config.obs_refract / DT) == 4
        for _ in range(4):
            frame(vs, 1)
        assert vs.latch_left == 0 and vs.refract_left == 0
        assert vs.pend_count == 0
        frame(vs, 1)
        frame(vs, 1)
        assert vs.latch_left == 8

    def test_commit_veto(self):
        vs = vision()
        vs.commit_ok = False
        for _ in range(4):
            frame(vs, 1)
        assert vs.latch_left == 0 and vs.pend_count == 0
        vs.commit_ok = True
        frame(vs, 1)
        assert vs.latch_left == 0
        frame(vs, 1)
        assert vs.latch_left == 8

    def test_below_deadband_is_no_detection(self):
        vs = vision()
        for _ in range(3):
            frame(vs, 1, fx=0.5 * vs.config.obs_deadband)
        assert vs.latch_left == 0 and vs.pend_count == 0


def flagged(x, y):
    return (FeaturePoint(x, y), 3.0, 2.0)


class TestFbVerify:
    SHIFT = (3, -2)

    @pytest.fixture
    def scene_pair(self):
        """VisionState holding the previous frame and the next frame, which
        is the previous one moved by SHIFT px."""
        vs = vision()
        base = textured(128, 160, 21)
        vs.prev_img = GrayImage(base)
        vs.prev_pyr = flow.build_pyramid(vs.prev_img, vs.config.levels)
        img = GrayImage(shifted(base, *self.SHIFT))
        return vs, img, flow.build_pyramid(img, vs.config.levels)

    def field(self, vectors):
        return flow.FlowField([flow.FlowVector(FeaturePoint(x, y), vx, vy, ok)
                               for x, y, vx, vy, ok in vectors])

    def test_consistent_track_survives(self, scene_pair):
        vs, img, pyr = scene_pair
        dx, dy = self.SHIFT
        kept = [flagged(60.0, 50.0), flagged(90.0, 70.0)]
        ff = self.field([(60.0, 50.0, dx + 0.1, dy - 0.1, True),
                         (90.0, 70.0, dx, dy, True)])
        assert vs._fb_verify(kept, ff, img, pyr) == kept

    def test_corrupted_track_dropped(self, scene_pair):
        vs, img, pyr = scene_pair
        dx, dy = self.SHIFT
        tol = vs.config.fb_tol
        kept = [flagged(60.0, 50.0), flagged(90.0, 70.0)]
        ff = self.field([(60.0, 50.0, dx + 2 * tol, dy, True),
                         (90.0, 70.0, dx, dy, True)])
        assert vs._fb_verify(kept, ff, img, pyr) == kept[1:]

    def test_flag_without_valid_forward_track_dropped(self, scene_pair):
        vs, img, pyr = scene_pair
        dx, dy = self.SHIFT
        kept = [flagged(60.0, 50.0), flagged(90.0, 70.0)]
        ff = self.field([(60.0, 50.0, dx, dy, False)])
        assert vs._fb_verify(kept, ff, img, pyr) == []


class TestClusterFilter:
    def test_isolated_flag_dropped(self):
        vs = vision()
        r = vs.config.cluster_radius
        pair = [flagged(100.0, 100.0), flagged(100.0 + r, 100.0)]
        lone = flagged(100.0, 100.0 + r + 1.0)
        assert vs._cluster_filter(pair + [lone]) == pair
        assert vs._cluster_filter([lone]) == []

    def test_min_cluster_above_point_count(self):
        vs = vision(min_cluster=4)
        pts = [flagged(100.0, 100.0), flagged(105.0, 100.0),
               flagged(100.0, 105.0)]
        assert vs._cluster_filter(pts) == []
        vs = vision(min_cluster=3)
        assert vs._cluster_filter(pts) == pts
