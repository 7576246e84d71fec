import os
import subprocess
import sys

import numpy as np
import pytest

from flownav import imgproc
from flownav.errors import (DegenerateDistributionError, InvalidParameterError,
                            PgmParseError)


def naive_convolve(data, kernel, axis):
    """O(n*k) sliding-window convolution with clamp-to-edge, for checking."""
    k = np.asarray(kernel)
    r = len(k) // 2
    out = np.zeros_like(data)
    h, w = data.shape
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for j, kv in enumerate(k):
                off = j - r
                if axis == "horizontal":
                    xx = min(max(x - off, 0), w - 1)
                    acc += kv * data[y, xx]
                else:
                    yy = min(max(y - off, 0), h - 1)
                    acc += kv * data[yy, x]
            out[y, x] = acc
    return out


def scan_otsu_variances(values, bins):
    """Exhaustive between-class-variance scan over all bin splits.

    Returns (bin centers, per-split variance array); empty-class splits get
    -inf. Pure-python accumulation, independent of the vectorized version.
    """
    hist, edges = np.histogram(values, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = hist.sum()
    out = []
    for k in range(bins - 1):
        w0 = hist[: k + 1].sum()
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            out.append(-np.inf)
            continue
        mu0 = (hist[: k + 1] * centers[: k + 1]).sum() / w0
        mu1 = (hist[k + 1 :] * centers[k + 1 :]).sum() / w1
        out.append(w0 * w1 * (mu0 - mu1) ** 2)
    return centers, np.array(out)


def naive_otsu(values, bins):
    centers, vars_ = scan_otsu_variances(values, bins)
    return centers[int(np.argmax(vars_))]


@pytest.mark.parametrize("start,stop,size,budget,want", [
    (96, 240, 320, 1 << 14, [(96, 147), (147, 198), (198, 240)]),
    (0, 5, 100, 250, [(0, 2), (2, 4), (4, 5)]),
    (3, 6, 1000, 10, [(3, 4), (4, 5), (5, 6)]),   # one item over budget
    (7, 7, 1, 10, []),
])
def test_blocks_cover_the_range_within_the_budget(start, stop, size, budget,
                                                  want):
    got = imgproc.blocks(start, stop, size, budget)
    assert [(b.start, b.stop) for b in got] == want


class TestGaussianKernel:
    def test_flat_limit(self):
        k = imgproc.gaussian_kernel(1e6, 2)
        assert np.allclose(k, 0.2, atol=1e-6)

    def test_sigma_one(self):
        k = imgproc.gaussian_kernel(1.0, 1)
        ref = np.array([np.exp(-0.5), 1.0, np.exp(-0.5)])
        assert np.allclose(k, ref / ref.sum(), atol=1e-12)

    def test_matches_direct_evaluation(self):
        sigma, radius = 2.0, 6
        k = imgproc.gaussian_kernel(sigma, radius)
        x = np.arange(-radius, radius + 1, dtype=float)
        direct = np.exp(-x * x / (2 * sigma**2))
        direct /= direct.sum()
        assert np.abs(k - direct).max() < 1e-12

    def test_symmetry_and_normalization(self):
        k = imgproc.gaussian_kernel(1.7, 4)
        assert np.allclose(k, k[::-1])
        assert (k > 0).all()
        assert abs(k.sum() - 1.0) < 1e-12

    def test_bad_sigma(self):
        with pytest.raises(InvalidParameterError):
            imgproc.gaussian_kernel(0.0, 2)
        with pytest.raises(InvalidParameterError):
            imgproc.gaussian_kernel(-1.0, 2)


class TestConvolve:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.random((6, 9))
        out = imgproc.convolve(img, [1.0], "horizontal")
        assert np.allclose(out, img)

    def test_constant_image(self):
        img = np.full((5, 5), 0.37)
        k = imgproc.gaussian_kernel(1.2, 3)
        out = imgproc.convolve(img, k, "vertical")
        assert np.allclose(out, 0.37)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8))
        k = [0.25, 0.5, 0.25]
        for axis in ("horizontal", "vertical"):
            out = imgproc.convolve(img, k, axis)
            ref = naive_convolve(img, k, axis)
            assert np.abs(out - ref).max() < 1e-14

    def test_even_kernel_rejected(self):
        img = np.zeros((4, 4))
        with pytest.raises(InvalidParameterError):
            imgproc.convolve(img, [0.5, 0.5], "horizontal")

    def test_range_preserved(self):
        rng = np.random.default_rng(2)
        img = rng.random((10, 10))
        k = imgproc.gaussian_kernel(2.0, 4)
        out = imgproc.convolve(img, k, "horizontal")
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# the kernels convolve serves (the obstacle pair, longer than a 30 x 40
# plane's axes, in test_obstacle.py's reference chain), plus the shapes of
# scipy's three summation orders: antisymmetric, asymmetric, a single tap,
# and kernels symmetric only to within DBL_EPSILON or just beyond it
PARITY_KERNELS = {
    "pyramid": imgproc.gaussian_kernel(1.0, 2),
    "corner window": imgproc.gaussian_kernel(1.5, 2),
    "obstacle x": imgproc.gaussian_kernel(20.0, 60),
    "obstacle y": imgproc.gaussian_kernel(15.0, 45),
    "central difference": np.array([1.0, 0.0, -1.0]),
    "random 7-tap": np.random.default_rng(30).standard_normal(7),
    "single tap": np.array([0.7]),
    "symmetric to 1e-16": np.array([0.25, 0.5, 0.25 + 1e-16]),
    "asymmetric by 3e-16": np.array([0.25, 0.5, 0.25 + 3e-16]),
}
PARITY_SHAPES = [(240, 320), (30, 40), (1, 5), (7, 1), (3, 3)]


class TestConvolveScipyParity:
    """convolve sums in scipy.ndimage.convolve1d's order: equal bits."""

    @pytest.mark.parametrize("name", PARITY_KERNELS)
    def test_bit_identical(self, name):
        ndimage = pytest.importorskip("scipy.ndimage")
        k = PARITY_KERNELS[name]
        rng = np.random.default_rng(31)
        for shape in PARITY_SHAPES:
            signed = rng.standard_normal(shape)
            zeros = rng.random(shape)
            zeros[rng.random(shape) < 0.3] = -0.0
            zeros[rng.random(shape) < 0.3] = 0.0
            for data in (signed, zeros):
                for ax, axis in enumerate(("vertical", "horizontal")):
                    out = imgproc.convolve(data, k, axis)
                    ref = ndimage.convolve1d(data, k, axis=ax, mode="nearest")
                    assert out.dtype == np.float64 and out.flags.c_contiguous
                    assert np.array_equal(bits(out), bits(ref)), (shape, axis)


class TestConvolveDtypes:
    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_integer_and_bool_images_convolve_as_float64(self, dtype):
        rng = np.random.default_rng(32)
        data = (rng.integers(0, 256, (30, 40)) if dtype is np.uint8
                else rng.random((30, 40)) < 0.2).astype(dtype)
        for k in (imgproc.gaussian_kernel(1.0, 2), imgproc.gaussian_kernel(20.0, 60)):
            for axis in ("horizontal", "vertical"):
                out = imgproc.convolve(data, k, axis)
                ref = imgproc.convolve(data.astype(np.float64), k, axis)
                assert out.dtype == np.float64
                assert np.array_equal(bits(out), bits(ref))
                assert out.any()


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(imgproc.__file__)))
    code = ("import sys, flownav.cli, flownav.pipeline, flownav.scene; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestSpatialGradient:
    def test_ramp(self):
        w, h = 16, 8
        xs = np.tile(np.arange(w) / w, (h, 1))
        gx, gy = imgproc.spatial_gradient(xs)
        assert np.allclose(gx, 1.0 / w, atol=1e-12)
        assert np.allclose(gy, 0.0, atol=1e-12)

    def test_constant(self):
        gx, gy = imgproc.spatial_gradient(np.full((5, 7), 0.5))
        assert np.allclose(gx, 0.0) and np.allclose(gy, 0.0)

    def test_sine_matches_analytic(self):
        w = 64
        x = np.arange(w)
        img = 0.5 + 0.5 * np.sin(2 * np.pi * x / w)
        img = np.tile(img, (8, 1))
        gx, _ = imgproc.spatial_gradient(img)
        ref = 0.5 * (2 * np.pi / w) * np.cos(2 * np.pi * x / w)
        assert np.abs(gx[4, 1:-1] - ref[1:-1]).max() < 1e-2

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            imgproc.spatial_gradient(np.zeros((2, 5)))

    def test_smooth_gradient_commutes(self):
        rng = np.random.default_rng(3)
        img = rng.random((24, 24))
        k = imgproc.gaussian_kernel(1.5, 3)
        sm = imgproc.convolve(imgproc.convolve(img, k, "horizontal"), k, "vertical")
        gx_after, _ = imgproc.spatial_gradient(sm)
        gx, _ = imgproc.spatial_gradient(img)
        gx_img = imgproc.convolve(imgproc.convolve(np.clip(gx + 0.5, 0, 1),
                                                   k, "horizontal"), k, "vertical")
        # linearity: smoothing the (shifted) gradient equals gradient of smoothed
        interior = np.s_[4:-4, 4:-4]
        assert np.abs((gx_img - 0.5)[interior] - gx_after[interior]).max() < 1e-6


class TestOtsu:
    def test_bimodal(self):
        vals = [0.1] * 50 + [0.9] * 50
        thr = imgproc.otsu_threshold(vals, bins=256)
        assert 0.1 < thr < 0.9

    def test_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            imgproc.otsu_threshold([0.2, 0.2, 0.2])

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        vals = rng.random(1000)
        thr = imgproc.otsu_threshold(vals, bins=64)
        assert thr == pytest.approx(naive_otsu(vals, 64), abs=0)

    def test_property_random_histograms(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.integers(10, 400)
            vals = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=n)
            if vals.max() - vals.min() < 1e-9:
                continue
            bins = int(rng.integers(8, 128))
            thr = imgproc.otsu_threshold(vals, bins=bins)
            centers, vars_ = scan_otsu_variances(vals, bins)
            k = int(np.argmin(np.abs(centers[:-1] - thr)))
            # the chosen split must attain the scan's maximum variance
            # (ties may legitimately break to a different bin)
            assert vars_[k] >= vars_.max() * (1.0 - 1e-10)


class TestPgm:
    def test_p5_scaling(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = imgproc.read_pgm(p)
        assert img.shape == (2, 2) and img.dtype == np.float64
        assert np.allclose(img.ravel(), [0, 1, 128 / 255, 64 / 255])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.random((9, 13))
        p = tmp_path / "b.pgm"
        imgproc.write_pgm(img, p)
        back = imgproc.read_pgm(p)
        assert np.abs(back - img).max() <= 1.0 / 510 + 1e-12

    def test_header_semantics(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 3 2 255\n" + bytes(6))
        img = imgproc.read_pgm(p)
        assert img.shape == (2, 3)

    def test_p2_ascii(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P2\n# comment\n2 1\n100\n0 100\n")
        img = imgproc.read_pgm(p)
        assert np.allclose(img.ravel(), [0.0, 1.0])

    def test_p2_negative_sample(self, tmp_path):
        # int() parses "-5"; a sample below 0 would read outside [0, 1]
        p = tmp_path / "d2.pgm"
        p.write_bytes(b"P2\n2 1\n100\n-5 100\n")
        with pytest.raises(PgmParseError, match="negative sample"):
            imgproc.read_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(PgmParseError) as ei:
            imgproc.read_pgm(p)
        assert ei.value.offset > 0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(PgmParseError):
            imgproc.read_pgm(p)

    def test_16bit(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big"))
        img = imgproc.read_pgm(p)
        assert img[0, 0] == pytest.approx(32768 / 65535)
