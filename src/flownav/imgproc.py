"""Dense image primitives: separable convolution, Gaussian kernels, spatial
gradients, Otsu thresholding and PGM file I/O.

An image is a plain (height, width) array of intensities, float64 in [0, 1];
8-bit only touches the file boundary. `convolve` is plain numpy and sums its
products in the order of scipy.ndimage.convolve1d(mode="nearest"), so its
outputs are bit-identical to that function's on float64 images.
"""

import numpy as np

from .errors import DegenerateDistributionError, InvalidParameterError, PgmParseError


_DBL_EPSILON = np.finfo(np.float64).eps
# float64 elements in each of convolve's working buffers (128 kB)
_CONVOLVE_BLOCK = 1 << 14


def blocks(start, stop, size, budget):
    """Slices that split the items [start, stop), each of `size` elements,
    into runs of at most `budget` elements (at least one item each): the
    blocks in which the per-frame stages bound their temporaries."""
    step = max(1, budget // size)
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def gaussian_kernel(sigma, radius):
    """Normalized 1-D Gaussian taps; 2-D smoothing is two separable passes."""
    if not np.isfinite(sigma) or sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive and finite, got {sigma}")
    if radius < 1:
        raise InvalidParameterError(f"radius must be >= 1, got {radius}")
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def convolve(img, kernel, axis):
    """1-D convolution along 'horizontal' or 'vertical', clamp-to-edge borders.

    Works in float64 whatever the input dtype and returns a C-contiguous
    float64 array. Each output sums its products in the order of
    scipy.ndimage.convolve1d(mode="nearest"), so the result is bit-identical
    to it. With fw = kernel[::-1], r = len(fw) // 2 and x[j] the image
    shifted by j along the axis (edge sample repeated):

    - fw symmetric to DBL_EPSILON: x[0]*fw[r], then
      += (x[j] + x[-j]) * fw[r+j] for j = -r..-1;
    - fw antisymmetric to DBL_EPSILON: the same with (x[j] - x[-j]);
    - otherwise: x[r]*fw[2r], then += x[j]*fw[r+j] for j = -r..r-1.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise InvalidParameterError("kernel must be 1-D with odd length")
    if axis not in ("horizontal", "vertical"):
        raise InvalidParameterError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    ax = 1 if axis == "horizontal" else 0
    data = np.asarray(img, dtype=np.float64)
    fw = kernel[::-1]
    r = fw.size // 2
    h, w = data.shape

    # scipy's tests: one |difference| above DBL_EPSILON breaks the symmetry
    lo, hi = fw[:r], fw[:r:-1]           # fw[r+j] and fw[r-j], j = -r..-1
    if not np.any(np.abs(hi - lo) > _DBL_EPSILON):
        pair, taps = np.add, r
    elif not np.any(np.abs(hi + lo) > _DBL_EPSILON):
        pair, taps = np.subtract, r
    else:
        pair, taps = None, 2 * r

    # The image is done in strips of rows. Each strip is copied, clamped,
    # into a padded buffer whose flat views x[k] are the strip shifted by
    # j = k - r, so every product and sum runs over one contiguous run and
    # the temporaries stay small and are reused strip after strip. A
    # horizontal strip's padded rows sit end to end: its run has 2r
    # outputs between rows that straddle two rows and are dropped.
    out = np.empty((h, w))
    if ax:
        step, span, halo = 1, w + 2 * r, 0
    else:
        step, span, halo = w, w, r
    strips = blocks(0, h, span, _CONVOLVE_BLOCK)
    rows = strips[0].stop if strips else 1
    src = np.empty((rows + 2 * halo, span))
    acc = np.empty(rows * span) if ax else None
    # products of several taps at once when a strip is small
    block = max(1, min(_CONVOLVE_BLOCK // (rows * span), taps))
    buf = np.empty((block, rows * span))
    for strip in strips:
        a, b = strip.start, strip.stop
        m = b - a
        s = src[:m + 2 * halo]
        if ax:
            s[:, r:r + w] = data[a:b]
            s[:, :r] = data[a:b, :1]
            s[:, r + w:] = data[a:b, w - 1:]
            n = m * span - 2 * r
            o = acc[:n]
        else:
            # mode="clip" clamps the rows past either edge to it
            np.take(data, np.arange(a - r, b + r), axis=0, out=s, mode="clip")
            n = m * w
            o = out[a:b].reshape(n)
        x = np.ndarray((2 * r + 1, n), np.float64, s, 0, (step * 8, 8))
        np.multiply(x[taps], fw[taps], out=o)
        for k0 in range(0, taps, block):
            k1 = min(k0 + block, taps)
            t = buf[:k1 - k0, :n]
            if pair is None:
                np.multiply(x[k0:k1], fw[k0:k1, None], out=t)
            else:
                pair(x[k0:k1], x[2 * r - k0:2 * r - k1:-1], out=t)
                t *= fw[k0:k1, None]
            for term in t:
                o += term
        if ax:
            out[a:b] = acc[:m * span].reshape(m, span)[:, :w]
    return out


def smooth(img, sigma, radius=None):
    """Separable Gaussian smoothing of an image."""
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    k = gaussian_kernel(sigma, radius)
    return convolve(convolve(img, k, "horizontal"), k, "vertical")


def spatial_gradient(img):
    """Central-difference gradients (one-sided at borders).

    Returns (gx, gy) as plain float arrays: gx ~ d/dx (columns), gy ~ d/dy (rows).
    """
    data = np.asarray(img, dtype=np.float64)
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise InvalidParameterError("gradient needs at least a 3x3 image")
    gy, gx = np.gradient(data)
    return gx, gy


def otsu_threshold(values, bins=256):
    """Histogram threshold maximizing between-class variance.

    Returns the center of the best split bin; classes are bins [0..k] vs
    [k+1..]. Ties break toward the lowest qualifying threshold.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        raise InvalidParameterError("need at least 2 values")
    if bins < 2:
        raise InvalidParameterError("need at least 2 bins")
    lo, hi = values.min(), values.max()
    if hi - lo < 1e-12:
        raise DegenerateDistributionError("all values identical")

    hist, edges = np.histogram(values, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    hist = hist.astype(np.float64)
    total = hist.sum()

    w0 = np.cumsum(hist)
    w1 = total - w0
    mass0 = np.cumsum(hist * centers)
    mass1 = mass0[-1] - mass0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = mass0 / w0
        mu1 = mass1 / w1
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    var_b = np.where((w0 > 0) & (w1 > 0), var_b, -np.inf)
    # last split (k = bins-1) leaves class 1 empty
    var_b[-1] = -np.inf
    if not np.isfinite(var_b).any():
        raise DegenerateDistributionError("histogram mass sits in a single bin")
    # splits through an empty histogram gap produce mathematically identical
    # variances that differ by rounding; snap to the lowest tied threshold
    v_max = var_b.max()
    best = int(np.argmax(var_b >= v_max - 1e-9 * abs(v_max)))
    return float(centers[best])


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------


def _next_token(buf, pos):
    """Scan one whitespace-delimited token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def read_pgm(path):
    """Read a P5 (binary) or P2 (ASCII) PGM file, scaling to [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()

    magic, pos = _next_token(buf, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmParseError(f"not a PGM stream (magic {magic!r})", 0)

    fields = []
    for _ in range(3):
        tok, pos = _next_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PgmParseError(f"non-numeric header field {tok!r}", pos) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmParseError(f"bad dimensions {width}x{height}", pos)
    if not 0 < maxval <= 65535:
        raise PgmParseError(f"maxval {maxval} out of range (1..65535)", pos)

    count = width * height
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        if pos > len(buf):
            raise PgmParseError("missing payload", pos)
        if maxval > 255:
            need = 2 * count
            payload = buf[pos : pos + need]
            if len(payload) < need:
                raise PgmParseError("truncated payload", pos + len(payload))
            raw = np.frombuffer(payload, dtype=">u2").astype(np.float64)
        else:
            payload = buf[pos : pos + count]
            if len(payload) < count:
                raise PgmParseError("truncated payload", pos + len(payload))
            raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    else:
        vals = []
        for _ in range(count):
            try:
                tok, pos = _next_token(buf, pos)
            except PgmParseError:
                raise PgmParseError("truncated ASCII payload", pos) from None
            try:
                vals.append(int(tok))
            except ValueError:
                raise PgmParseError(f"non-numeric sample {tok!r}", pos) from None
        raw = np.array(vals, dtype=np.float64)

    if raw.max(initial=0.0) > maxval:
        raise PgmParseError("sample exceeds maxval", pos)
    if raw.min(initial=0.0) < 0:
        raise PgmParseError("negative sample", pos)
    return (raw / maxval).reshape(height, width)


def write_pgm(img, path):
    """Write an image as binary P5 with maxval 255."""
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
