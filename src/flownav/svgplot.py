"""Minimal hand-rolled SVG output: flow overlays and trajectory plots."""


def _header(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _fmt(v):
    return format(float(v), ".3f")


def flow_svg(flow_field, width, height, foe=None, scale=3.0):
    """Flow arrows over the image footprint, with an optional FOE marker."""
    parts = [_header(width, height)]
    for (x0, y0), (vx, vy), ok in zip(flow_field.pts.tolist(),
                                      flow_field.disp.tolist(),
                                      flow_field.valid.tolist()):
        x1 = x0 + vx * scale
        y1 = y0 + vy * scale
        color = "#1f77b4" if ok else "#cccccc"
        parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                     f'x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                     f'stroke="{color}" stroke-width="0.8"/>\n')
        parts.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="1.2" '
                     f'fill="{color}"/>\n')
    if foe is not None:
        parts.append(f'<circle cx="{_fmt(foe.x_foe)}" cy="{_fmt(foe.y_foe)}" '
                     f'r="5" fill="none" stroke="#d62728" stroke-width="1.5"/>\n')
        parts.append(f'<line x1="{_fmt(foe.x_foe - 8)}" y1="{_fmt(foe.y_foe)}" '
                     f'x2="{_fmt(foe.x_foe + 8)}" y2="{_fmt(foe.y_foe)}" '
                     f'stroke="#d62728" stroke-width="1"/>\n')
        parts.append(f'<line x1="{_fmt(foe.x_foe)}" y1="{_fmt(foe.y_foe - 8)}" '
                     f'x2="{_fmt(foe.x_foe)}" y2="{_fmt(foe.y_foe + 8)}" '
                     f'stroke="#d62728" stroke-width="1"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def path_svg(rows, world=None, size=640, margin=20.0):
    """Top-down trajectory plot; road centerline and obstacles if given."""
    xs = [r.x for r in rows]
    ys = [r.y for r in rows]
    if world is not None:
        n = max(int(world.road.total_length), 2)
        center = [world.road.pose_at(float(s)) for s in range(0, n + 1, 2)]
        xs = xs + [c[0] for c in center]
        ys = ys + [c[1] for c in center]
    if not xs:
        return _header(size, size) + "</svg>\n"
    x_lo, x_hi = min(xs) - margin, max(xs) + margin
    y_lo, y_hi = min(ys) - margin, max(ys) + margin
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    scale = size / span

    def tx(x):
        return (x - x_lo) * scale

    def ty(y):
        # world +y up, svg +y down
        return size - (y - y_lo) * scale

    parts = [_header(size, size)]
    if world is not None:
        pts = " ".join(f"{_fmt(tx(c[0]))},{_fmt(ty(c[1]))}" for c in center)
        half_w = world.road.width / 2.0 * scale
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#e5e5e5" '
                     f'stroke-width="{_fmt(2 * half_w)}" stroke-linecap="round"/>\n')
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#999999" '
                     f'stroke-width="1" stroke-dasharray="6,6"/>\n')
        for box in world.obstacles:
            parts.append(f'<rect x="{_fmt(tx(box.x - box.hx))}" '
                         f'y="{_fmt(ty(box.y + box.hy))}" '
                         f'width="{_fmt(2 * box.hx * scale)}" '
                         f'height="{_fmt(2 * box.hy * scale)}" '
                         f'fill="#d62728" fill-opacity="0.7"/>\n')
        gx, gy = world.goal
        parts.append(f'<circle cx="{_fmt(tx(gx))}" cy="{_fmt(ty(gy))}" r="5" '
                     f'fill="none" stroke="#2ca02c" stroke-width="2"/>\n')
    if rows:
        pts = " ".join(f"{_fmt(tx(r.x))},{_fmt(ty(r.y))}" for r in rows)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                     f'stroke-width="1.5"/>\n')
        parts.append(f'<circle cx="{_fmt(tx(rows[0].x))}" cy="{_fmt(ty(rows[0].y))}" '
                     f'r="4" fill="#1f77b4"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)
