"""Deterministic SVG figures: pencils, asymptotic pencils, arrangements.

All geometry stays exact until emission; coordinates become floats only
when written into path data.  The viewBox is computed from the scene's
distinguished points (centers, midpoints, vertices) with a 20% margin, and
conics are stroked by sampling 256 steps per branch.  Only rational scenes
can be rendered; finite fields have no meaningful real embedding.
"""

from __future__ import annotations

from fractions import Fraction

from .bisector import bisects_set, pair_through_line
from .conic import CROSSING, LinePair, Quadratic, _disc, _root_count, center, is_reducible
from .field import FieldSpec
from .geometry import Line, ProjectivePoint, _line
from .pencil import NetCoords, Pencil, net_member

SAMPLES_PER_BRANCH = 256


class RenderError(ValueError):
    """The scene cannot be rendered."""


def _require_rationals(spec: FieldSpec):
    if spec.is_finite:
        raise RenderError(
            "rendering needs rational coordinates; finite-field scenes have "
            "no meaningful real embedding"
        )


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Canvas:
    def __init__(self):
        self.anchors: list[tuple[float, float]] = []
        self.curves: list[list[tuple[float, float]]] = []
        self.lines: list[tuple[float, float, float]] = []
        self.black_dots: list[tuple[float, float]] = []
        self.white_dots: list[tuple[float, float]] = []

    def anchor(self, point: ProjectivePoint):
        """Keep an affine point in view."""
        x, y, _ = point.raw
        self.anchors.append((float(x), float(y)))

    def bbox(self):
        if self.anchors:
            xs = [p[0] for p in self.anchors]
            ys = [p[1] for p in self.anchors]
            x0, x1 = min(xs), max(xs)
            y0, y1 = min(ys), max(ys)
        else:
            x0 = y0 = -4.0
            x1 = y1 = 4.0
        w, h = x1 - x0, y1 - y0
        side = max(w, h, 1.0)
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        half = side / 2 * 1.2  # 20% margin
        return cx - half, cy - half, 2 * half, 2 * half


def _clip_line(u: float, v: float, w: float, box) -> tuple | None:
    """Segment of uX + vY + w = 0 inside the box, or None."""
    x0, y0, width, height = box
    x1, y1 = x0 + width, y0 + height
    pts = []
    if abs(v) > 1e-12:
        for x in (x0, x1):
            y = -(u * x + w) / v
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    if abs(u) > 1e-12:
        for y in (y0, y1):
            x = -(v * y + w) / u
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]


def _conic_paths(f: Quadratic, box) -> list[list[tuple[float, float]]]:
    """Polyline branches of the zero set inside the box, by axis sweeps.

    Sweeping X solves c Y^2 + (b X + e) Y + (a X^2 + d X + g) = 0 for Y, and
    sweeping Y solves the same with the roles of X and Y swapped.  Along a
    sweep the leading coefficient A is constant, so whether the equation is
    linear is decided once per sweep.  A branch breaks where its root
    disappears or jumps by more than an eighth of the box's perimeter.
    """
    a, b, c, d, e, g = (float(x) for x in f.raw)
    x0, y0, width, height = box
    jump = (width + height) / 8
    n = SAMPLES_PER_BRANCH
    paths = []
    for lo, size, A, B1, B0, C2, C1, C0, swap in ((x0, width, c, b, e, a, d, g, False),
                                                  (y0, height, a, b, d, c, e, g, True)):
        linear = abs(A) < 1e-12
        A2 = 2 * A
        first, second = [], []
        for i in range(n + 1):
            t = lo + size * i / n
            B = B1 * t + B0
            C = C2 * t * t + C1 * t + C0
            pt1 = pt2 = None
            if linear:
                if not abs(B) < 1e-12:
                    r = -C / B
                    pt1 = (r, t) if swap else (t, r)
            else:
                disc = B * B - 4 * A * C
                if not disc < 0:
                    s = disc ** 0.5
                    r1, r2 = (-B + s) / A2, (-B - s) / A2
                    pt1, pt2 = ((r1, t), (r2, t)) if swap else ((t, r1), (t, r2))
            if pt1 is None:
                if first:
                    paths.append(first)
                    first = []
            elif first and abs(first[-1][0] - pt1[0]) + abs(first[-1][1] - pt1[1]) > jump:
                paths.append(first)
                first = [pt1]
            else:
                first.append(pt1)
            if pt2 is None:
                if second:
                    paths.append(second)
                    second = []
            elif second and abs(second[-1][0] - pt2[0]) + abs(second[-1][1] - pt2[1]) > jump:
                paths.append(second)
                second = [pt2]
            else:
                second.append(pt2)
        if first:
            paths.append(first)
        if second:
            paths.append(second)
    return [p for p in paths if len(p) >= 2]


def _emit(canvas: _Canvas) -> str:
    box = canvas.bbox()
    x0, y0, width, height = box
    r = 0.012 * width
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}">',
        f'<g transform="translate(0,{_fmt(2 * y0 + height)}) scale(1,-1)">',
    ]
    stroke = 0.004 * width
    for path in canvas.curves:
        data = "M" + " L".join([f"{x:.4f} {y:.4f}" for x, y in path])
        parts.append(f'<path d="{data}" fill="none" stroke="#555555" '
                     f'stroke-width="{_fmt(stroke)}"/>')
    for u, v, w in canvas.lines:
        seg = _clip_line(u, v, w, box)
        if seg is None:
            continue
        (xa, ya), (xb, yb) = seg
        parts.append(f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" '
                     f'y2="{_fmt(yb)}" stroke="#111111" '
                     f'stroke-width="{_fmt(stroke)}"/>')
    for x, y in canvas.white_dots:
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
                     f'fill="#ffffff" stroke="#111111" '
                     f'stroke-width="{_fmt(stroke)}"/>')
    for x, y in canvas.black_dots:
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
                     f'fill="#000000"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def _line_floats(line: Line) -> tuple[float, float, float]:
    u, v, w = line.raw
    return float(u), float(v), float(w)


def _dot(canvas: _Canvas, dots: list, point: ProjectivePoint):
    """Mark an affine point with a dot, kept in view."""
    canvas.anchor(point)
    dots.append(canvas.anchors[-1])


def _render_pairs(pairs: list[LinePair], quadratics: list[Quadratic]) -> str:
    """The pairs' lines, a white dot at each crossing and a black dot at
    each midpoint where a line bisects ``quadratics``."""
    canvas = _Canvas()
    for pair in pairs:
        if pair.kind == CROSSING:
            _dot(canvas, canvas.white_dots, pair.center)
        for line in pair.line_set():
            canvas.lines.append(_line_floats(line))
            m = bisects_set(line, quadratics)
            if m is not None and m.is_finite:
                _dot(canvas, canvas.black_dots, m.point)
    return _emit(canvas)


def _sweep_bisector_pairs(pencil: Pencil, samples: int) -> list[LinePair]:
    """Line pairs of the asymptotic pencil found by sweeping bisector slopes.

    For each sampled slope m there is (generically) a unique intercept k
    making Y = mX + k a component of a reducible net member: the component
    condition is linear in k after restricting the generators.  Rendering is
    over Q, so the sweep runs on the generators' raw Fractions.
    """
    spec = pencil.spec
    a1, b1, c1, d1, e1, _ = pencil.f1.raw
    a2, b2, c2, d2, e2, _ = pencil.f2.raw
    out: list[LinePair] = []
    seen = set()
    for j in range(samples):
        m = Fraction(2 * j - (samples - 1), 4)
        r1 = a1 + b1 * m + c1 * m * m
        r2 = a2 + b2 * m + c2 * m * m
        den = r1 * (b2 + 2 * c2 * m) - r2 * (b1 + 2 * c1 * m)
        if not den:
            continue
        num = r1 * (d2 + e2 * m) - r2 * (d1 + e1 * m)
        hit = pair_through_line(_line(spec, -m, 1, num / den), pencil)
        if hit is None:
            continue
        if hit.pair not in seen:
            seen.add(hit.pair)
            out.append(hit.pair)
    return out


def render_pencil(f1: Quadratic, f2: Quadratic, samples: int) -> str:
    """Sampled member conics of the pencil of f1, f2."""
    _require_rationals(f1.spec)
    pencil = Pencil(f1, f2)
    spec = pencil.spec
    canvas = _Canvas()
    coeffs = [Fraction(0), Fraction(1), Fraction(-1)]
    t = 2
    while len(coeffs) < max(samples - 1, 1):
        coeffs += [Fraction(t), Fraction(-t), Fraction(1, t), Fraction(-1, t)]
        t += 1
    members = [net_member(pencil, NetCoords(spec.one, spec.scalar(tval), spec.zero))
               for tval in coeffs[: max(samples - 1, 1)]]
    members.append(f2)
    smooth = []
    for g in members:
        red = is_reducible(g)
        if red is None:
            smooth.append(g)
        else:
            for line in red.line_set():
                canvas.lines.append(_line_floats(line))
            if red.kind == CROSSING:
                canvas.anchor(red.center)
        if _root_count(spec, _disc(g.raw)) == 2:  # a hyperbola, as classify reads it
            canvas.anchor(center(g))
    box = canvas.bbox()
    for g in smooth:
        canvas.curves.extend(_conic_paths(g, box))
    return _emit(canvas)


def render_asymptotic_pencil(f1: Quadratic, f2: Quadratic, samples: int) -> str:
    """Bisector pairs of the asymptotic pencil, with midpoint and center dots."""
    _require_rationals(f1.spec)
    return _render_pairs(_sweep_bisector_pairs(Pencil(f1, f2), samples), [f1, f2])


def render_arrangement(pairs: list[LinePair]) -> str:
    """An explicit pair list with its midpoint and center dots."""
    if not pairs:
        raise RenderError("an arrangement scene needs at least one pair")
    _require_rationals(pairs[0].spec)
    return _render_pairs(pairs, [pair.product() for pair in pairs])
