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
from .conic import CROSSING, HYPERBOLA, LinePair, Quadratic, center, classify, is_reducible
from .field import FieldSpec
from .geometry import Line, ProjectivePoint
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
    """Polyline branches of the zero set inside the box, by axis sweeps."""
    a, b, c, d, e, g = (float(x) for x in f.raw)
    x0, y0, width, height = box
    paths = []

    def sweep(lo, size, solve):
        branches = [[], []]
        for i in range(SAMPLES_PER_BRANCH + 1):
            t = lo + size * i / SAMPLES_PER_BRANCH
            roots = solve(t)
            for k in range(2):
                pt = roots[k] if roots else None
                branch = branches[k]
                if pt is None:
                    if branch:
                        paths.append(branch)
                        branches[k] = []
                    continue
                if branch and (abs(branch[-1][0] - pt[0]) + abs(branch[-1][1] - pt[1])
                               > (width + height) / 8):
                    paths.append(branch)
                    branches[k] = [pt]
                else:
                    branch.append(pt)
        for branch in branches:
            if branch:
                paths.append(branch)

    def solve_y(x):
        # c y^2 + (b x + e) y + (a x^2 + d x + g) = 0
        A, B, C = c, b * x + e, a * x * x + d * x + g
        return _solve_quadratic(A, B, C, x, horizontal=False)

    def solve_x(y):
        A, B, C = a, b * y + d, c * y * y + e * y + g
        return _solve_quadratic(A, B, C, y, horizontal=True)

    sweep(x0, width, solve_y)
    sweep(y0, height, solve_x)
    return [p for p in paths if len(p) >= 2]


def _solve_quadratic(A, B, C, t, horizontal):
    def pt(root):
        return (root, t) if horizontal else (t, root)

    if abs(A) < 1e-12:
        if abs(B) < 1e-12:
            return None
        r = -C / B
        return [pt(r), None]
    disc = B * B - 4 * A * C
    if disc < 0:
        return None
    s = disc ** 0.5
    return [pt((-B + s) / (2 * A)), pt((-B - s) / (2 * A))]


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
        data = "M" + " L".join(f"{_fmt(x)} {_fmt(y)}" for x, y in path)
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
    condition is linear in k after restricting the generators.
    """
    spec = pencil.spec
    f1, f2 = pencil.f1, pencil.f2
    out: list[LinePair] = []
    seen = set()
    for j in range(samples):
        mval = Fraction(2 * j - (samples - 1), 4)
        m = spec.scalar(mval)
        a1 = f1.a + f1.b * m + f1.c * m * m
        a2 = f2.a + f2.b * m + f2.c * m * m
        den = a1 * (f2.b + 2 * f2.c * m) - a2 * (f1.b + 2 * f1.c * m)
        num = a1 * (f2.d + f2.e * m) - a2 * (f1.d + f1.e * m)
        if den.is_zero:
            continue
        k = -num / den
        line = Line(-m, spec.one, -k)
        hit = pair_through_line(line, pencil)
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
    for g in members:
        red = is_reducible(g)
        if red is not None:
            for line in red.line_set():
                canvas.lines.append(_line_floats(line))
            if red.kind == CROSSING:
                canvas.anchor(red.center)
        if classify(g).kind == HYPERBOLA:
            canvas.anchor(center(g))
    box = canvas.bbox()
    for g in members:
        if is_reducible(g) is None:
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
