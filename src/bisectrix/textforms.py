"""Text forms: scalars, points, lines, quadratics, and pair lists.

Scalar text is exact ("7", "-3", "3/2"); field specs are "Q" or "F<p>".
Lines are coefficient triples "u,v,w" for uX + vY + w = 0.  Points are
"(x,y)" or "[x:y:z]".  Quadratics are either a coefficient 6-tuple
"a,b,c,d,e,g" or a small polynomial expression in x and y, e.g.
"x*y - 1" or "x^2 - y^2" (explicit "*" and "^", no parentheses, degree 2).
"""

from __future__ import annotations

import re

from .conic import LinePair, Quadratic
from .field import FieldSpec, Scalar
from .geometry import Line, Midpoint, ProjectivePoint


class ParseError(ValueError):
    """Malformed text input."""


def parse_scalar(spec: FieldSpec, text: str) -> Scalar:
    try:
        return spec.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_point(p: ProjectivePoint) -> str:
    if p.is_infinite:
        return f"[{p.x}:{p.y}:0]"
    return f"({p.x},{p.y})"


def format_line_triple(line: Line) -> str:
    return f"{line.u},{line.v},{line.w}"


def parse_line(spec: FieldSpec, text: str) -> Line:
    parts = text.strip().split(",")
    if len(parts) != 3:
        raise ParseError(f"line text must be 'u,v,w': {text!r}")
    u, v, w = (parse_scalar(spec, s) for s in parts)
    try:
        return Line(u, v, w)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _format_terms(terms: list[tuple[Scalar, str]]) -> str:
    out = []
    for coeff, mono in terms:
        if coeff.is_zero:
            continue
        text = str(coeff)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if mono and text == "1":
            body = mono
        elif mono:
            body = f"{text}*{mono}"
        else:
            body = text
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"-{body}" if negative else f"+{body}")
    return "".join(out) if out else "0"


def format_quadratic(q: Quadratic) -> str:
    a, b, c, d, e, g = q.coefficients()
    return _format_terms(
        [(a, "x^2"), (b, "x*y"), (c, "y^2"), (d, "x"), (e, "y"), (g, "")]
    )


def format_line_equation(line: Line) -> str:
    poly = _format_terms([(line.u, "x"), (line.v, "y"), (line.w, "")])
    return f"{poly}=0"


_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([xyXY])|(\^)|(\*)|(\+)|(-))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
        pos = m.end()
        if m.group(1):
            out.append(("num", m.group(1)))
        elif m.group(2):
            out.append(("var", m.group(2).lower()))
        elif m.group(3):
            out.append(("pow", "^"))
        elif m.group(4):
            out.append(("mul", "*"))
        elif m.group(5):
            out.append(("sign", 1))
        elif m.group(6):
            out.append(("sign", -1))
    return out


def _parse_polynomial(spec: FieldSpec, text: str) -> Quadratic:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    slots = {
        (2, 0): spec.zero, (1, 1): spec.zero, (0, 2): spec.zero,
        (1, 0): spec.zero, (0, 1): spec.zero, (0, 0): spec.zero,
    }
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and tokens[i][0] == "sign":
            sign *= tokens[i][1]
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise ParseError(f"terms must be joined by '+' or '-' in {text!r}")
        first = False
        if i >= n:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = spec.scalar(sign)
        dx = dy = 0
        expect_factor = True
        while i < n and tokens[i][0] in ("num", "var", "mul"):
            kind, val = tokens[i]
            if kind == "mul":
                if expect_factor:
                    raise ParseError(f"misplaced '*' in {text!r}")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError(f"missing '*' between factors in {text!r}")
            if kind == "num":
                coeff = coeff * parse_scalar(spec, val)
                i += 1
            else:
                power = 1
                i += 1
                if i < n and tokens[i][0] == "pow":
                    i += 1
                    if i >= n or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        raise ParseError(f"'^' needs an integer exponent in {text!r}")
                    power = int(tokens[i][1])
                    i += 1
                if val == "x":
                    dx += power
                else:
                    dy += power
            expect_factor = False
        if expect_factor:
            raise ParseError(f"term with no factors in {text!r}")
        if dx + dy > 2:
            raise ParseError(f"degree above 2 in {text!r}")
        slots[(dx, dy)] = slots[(dx, dy)] + coeff
    try:
        return Quadratic(
            slots[(2, 0)], slots[(1, 1)], slots[(0, 2)],
            slots[(1, 0)], slots[(0, 1)], slots[(0, 0)],
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_quadratic(spec: FieldSpec, text: str) -> Quadratic:
    text = text.strip()
    if text.count(",") == 5:
        try:
            coeffs = [parse_scalar(spec, s) for s in text.split(",")]
            return Quadratic(*coeffs)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return _parse_polynomial(spec, text)


def format_quadratic_triple(q: Quadratic) -> str:
    return ",".join(str(x) for x in q.coefficients())


def parse_pair(spec: FieldSpec, text: str) -> LinePair:
    parts = text.strip().split(";")
    if len(parts) != 2:
        raise ParseError(f"line pair text must be 'u,v,w;u,v,w': {text!r}")
    return LinePair(parse_line(spec, parts[0]), parse_line(spec, parts[1]))


def parse_pairs(spec: FieldSpec, text: str) -> list[LinePair]:
    """Pairs separated by '|', each 'u,v,w;u,v,w'."""
    chunks = [c for c in text.strip().split("|") if c]
    if not chunks:
        raise ParseError("empty pair list")
    return [parse_pair(spec, c) for c in chunks]


def format_pair(pair: LinePair) -> str:
    return f"{format_line_triple(pair.first)};{format_line_triple(pair.second)}"


def midpoint_json(m: Midpoint | None):
    """The JSON shape used by arrangement and bisection reports."""
    if m is None:
        return None
    if m.is_finite:
        x, y = m.point.affine_xy()
        return {"finite": [str(x), str(y)]}
    return m.kind
