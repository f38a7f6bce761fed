"""Command-line front end: classify, pencil reports, bisection, checks, SVG.

Output is JSON on stdout (exact scalars as strings, never floats), or a
human-readable summary with --pretty.  Parse errors exit 2, domain errors
exit 3, failed checks exit 1.  A check of several ids that refuses one past the
oracle's size bound records it with verdict "refused", runs the rest and exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bisector import (
    bisector_field_of,
    bisects_set,
    classify_trivial_arrangement,
    desargues_involution,
    is_bisector_arrangement,
)
from .conic import (
    CROSSING,
    DEGEN_FAMILY,
    DEGEN_UNIQUE,
    classify,
    degenerations,
    mid,
)
from .field import FieldError, parse_fieldspec
from .pencil import (
    AsymptoticPencil,
    NetCoords,
    Pencil,
    are_independent,
    find_hyperbolas,
    net_contains,
)
from .textforms import (
    ParseError,
    format_line_equation,
    format_point,
    format_quadratic,
    midpoint_json,
    parse_line,
    parse_pair,
    parse_pairs,
    parse_quadratic,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

# The largest --samples each command accepts (instances per check, members per
# figure); a larger count is a parse error, raised before any work starts.
CHECK_SAMPLE_CEILING = 100_000
RENDER_SAMPLE_CEILING = 1_000


def _field(text: str):
    try:
        return parse_fieldspec(text)
    except FieldError as exc:
        raise ParseError(str(exc)) from exc


def _emit(args, payload) -> None:
    if args.pretty:
        _emit_pretty(payload)
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_pretty(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                sys.stdout.write(f"{pad}{key}:\n")
                _emit_pretty(value, indent + 1)
            else:
                sys.stdout.write(f"{pad}{key}: {value}\n")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _emit_pretty(value, indent + 1)
                sys.stdout.write("\n" if indent == 0 else "")
            else:
                sys.stdout.write(f"{pad}- {value}\n")
    else:
        sys.stdout.write(f"{pad}{payload}\n")


def _pair_record(coords, pair) -> dict:
    record = {
        "alpha": str(coords.alpha) if coords is not None else None,
        "beta": str(coords.beta) if coords is not None else None,
        "lambda": str(coords.shift) if coords is not None else None,
        "kind": pair.kind,
        "line1": format_line_equation(pair.first),
        "line2": format_line_equation(pair.second),
    }
    if pair.kind == CROSSING:
        record["center"] = format_point(pair.center)
    else:
        record["midline"] = format_line_equation(pair.midline)
    return record


def _cmd_classify(args) -> int:
    spec = _field(args.field)
    cls = classify(parse_quadratic(spec, args.conic))
    _emit(args, {"class": cls.kind, "degenerate": cls.degenerate})
    return EXIT_OK


def _cmd_asymptotes(args) -> int:
    spec = _field(args.field)
    f = parse_quadratic(spec, args.conic)
    d = degenerations(f)
    if d.kind == DEGEN_UNIQUE:
        payload = {
            "lines": [format_line_equation(line) for line in d.pair.lines()],
            "lambda": str(d.shift),
        }
    elif d.kind == DEGEN_FAMILY:
        # r and the mirror component s give the same pair, so step r until
        # three distinct pairs are found or the field runs out of them.
        samples = []
        seen = set()
        r = 0
        while len(samples) < 3 and (spec.p is None or r < spec.p):
            pair = d.family.pair_at(spec.scalar(r))
            if pair not in seen:
                seen.add(pair)
                quad = d.family.quadratic_at(spec.scalar(r))
                samples.append({
                    "lines": [format_line_equation(line) for line in pair.lines()],
                    "lambda": str(quad.g - f.g),
                })
            r += 1
        payload = {
            "kind": "parallel-family",
            "midline": format_line_equation(d.family.midline),
            "direction": format_point(d.family.direction),
            "samples": samples,
        }
    else:
        payload = {"degenerations": "none"}
    _emit(args, payload)
    return EXIT_OK


def _parse_pencil(spec, args) -> Pencil:
    return Pencil(parse_quadratic(spec, args.conics[0]),
                  parse_quadratic(spec, args.conics[1]))


def _cmd_pencil(args) -> int:
    spec = _field(args.field)
    pencil = _parse_pencil(spec, args)
    ap = AsymptoticPencil(pencil)
    # Over GF(p) the report prints no degeneration, so none is computed.
    hyperbolas = find_hyperbolas(pencil) if spec.is_finite else ap.hyperbolas()
    payload = {
        "field": spec.name,
        "independent": are_independent(pencil.f1, pencil.f2),
        "cubic": {
            "shift_coefficient": [str(x) for x in ap.cubic.shift_coeff],
            "base": [str(x) for x in ap.cubic.base],
        },
        "hyperbolas": [
            {"alpha": str(c.alpha), "beta": str(c.beta),
             "member": format_quadratic(h)}
            for c, h, *_ in hyperbolas
        ],
        "trivial": ap.is_trivial(),
    }
    shared = ap.shared_line()
    payload["shared_line"] = None if shared is None else format_line_equation(shared)
    if spec.is_finite:
        payload["members"] = [_pair_record(c, p) for c, p in ap.members()]
        payload["complete"] = True
    else:
        # The asymptote pair of the member at [alpha : beta : 0] is the
        # member at [alpha : beta : shift].
        payload["members"] = [_pair_record(NetCoords(c.alpha, c.beta, d.shift), d.pair)
                              for c, _, d in hyperbolas]
        payload["complete"] = False
    _emit(args, payload)
    return EXIT_OK


def _cmd_bisect(args) -> int:
    spec = _field(args.field)
    if args.pairs:
        pairs = parse_pairs(spec, args.pairs)
        report = is_bisector_arrangement(pairs)
        payload = {
            "pairs": [_pair_record(None, p) for p in pairs],
            "verdict": report.ok,
            "triviality": classify_trivial_arrangement(pairs),
            "lines": [
                {"line": format_line_equation(line), "midpoint": midpoint_json(m)}
                for line, m in report.midpoints.items()
            ],
        }
        _emit(args, payload)
        return EXIT_OK
    if not args.line or not args.conics:
        raise ParseError("bisect needs --line with conics, or --pairs")
    line = parse_line(spec, args.line)
    conics = [parse_quadratic(spec, text) for text in args.conics]
    per_conic = []
    for text, f in zip(args.conics, conics):
        result = mid(f, line)
        per_conic.append({
            "conic": format_quadratic(f),
            "result": result.kind,
            "midpoint": midpoint_json(result.midpoint) if result.crosses else None,
        })
    common = bisects_set(line, conics)
    payload = {
        "line": format_line_equation(line),
        "mids": per_conic,
        "bisects": common is not None,
        "midpoint": midpoint_json(common),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_field_membership(args) -> int:
    spec = _field(args.field)
    pencil = _parse_pencil(spec, args)
    bisector_field_of(pencil)  # refuses a trivial asymptotic pencil
    pair = parse_pair(spec, args.pair)
    coords = net_contains(pencil, pair.product())
    payload = {
        "nontrivial": True,
        "contains": coords is not None,
        "coordinates": None if coords is None else
            {"alpha": str(coords.alpha), "beta": str(coords.beta),
             "lambda": str(coords.shift)},
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_desargues(args) -> int:
    spec = _field(args.field)
    pencil = _parse_pencil(spec, args)
    line = parse_line(spec, args.line)
    inv = desargues_involution(pencil, line)
    payload = {
        "line": format_line_equation(line),
        "involution": {"p": str(inv.p), "q": str(inv.q), "r": str(inv.r)},
        "fixes_infinity": inv.r.is_zero,
    }
    _emit(args, payload)
    return EXIT_OK


def _samples(args, ceiling: int) -> int:
    if args.samples < 0:
        raise ParseError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > ceiling:
        raise ParseError(f"--samples must be <= {ceiling:,}, got {args.samples:,}")
    return args.samples


def _cmd_check(args) -> int:
    # Only this command needs the oracle, so the other commands never load it.
    from .oracle import (
        CHECK_DESCRIPTIONS,
        CHECK_IDS,
        BudgetError,
        Policy,
        default_policy,
        run_check,
    )

    spec = _field(args.field)
    samples = _samples(args, CHECK_SAMPLE_CEILING)
    if args.checks == ["all"]:
        # example-3.6 is specific to GF(3); skip it elsewhere.
        ids = [c for c in CHECK_IDS if c != "example-3.6" or spec.p == 3]
    else:
        ids = args.checks
    reports = []
    all_pass = True
    refused = False
    for check_id in ids:
        policy = default_policy(check_id)
        if policy.kind == "randomized":
            policy = Policy.randomized(
                samples if samples else policy.count, seed=args.seed
            )
        try:
            report = run_check(check_id, spec, policy)
        except BudgetError as exc:
            if len(ids) == 1:
                raise
            # Several ids: record the refusal and run the rest.
            refused = True
            reports.append({
                "check": check_id,
                "description": CHECK_DESCRIPTIONS[check_id],
                "field": spec.name,
                "message": str(exc),
                "policy": policy.to_json(),
                "verdict": "refused",
            })
            continue
        reports.append(report.to_json(include_wall_time=args.timings))
        all_pass = all_pass and report.passed
    _emit(args, reports if len(reports) > 1 else reports[0])
    if refused:
        return EXIT_DOMAIN
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _cmd_render(args) -> int:
    from .svgfig import render_arrangement, render_asymptotic_pencil, render_pencil

    spec = _field(args.field)
    samples = _samples(args, RENDER_SAMPLE_CEILING)
    if args.kind == "arrangement":
        if not args.pairs:
            raise ParseError("render --kind arrangement needs --pairs")
        svg = render_arrangement(parse_pairs(spec, args.pairs))
    else:
        if len(args.conics) != 2:
            raise ParseError("render needs two conics for pencil scenes")
        f1 = parse_quadratic(spec, args.conics[0])
        f2 = parse_quadratic(spec, args.conics[1])
        if args.kind == "pencil":
            svg = render_pencil(f1, f2, samples)
        else:
            svg = render_asymptotic_pencil(f1, f2, samples)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
        _emit(args, {"written": args.out, "bytes": len(svg)})
    else:
        sys.stdout.write(svg + "\n")
    return EXIT_OK


class _CheckHelpFormatter(argparse.HelpFormatter):
    """Lists the check ids in ``check --help`` only when the help is printed,
    so building the parser does not import the oracle."""

    def _get_help_string(self, action):
        if action.dest == "checks":
            from .oracle import CHECK_IDS

            return f"check ids ({', '.join(CHECK_IDS)}) or 'all'"
        return action.help


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisectrix",
        description="Exact pencils of affine conics and bisector fields over Q and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, conics=0):
        p.add_argument("--field", required=True, help="Q or F<p>, e.g. F5")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")
        if conics:
            p.add_argument("conics", nargs=conics,
                           help="conic as 'a,b,c,d,e,g' or a polynomial like 'x*y-1'")

    p = sub.add_parser("classify", help="classify a conic")
    common(p)
    p.add_argument("conic")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("asymptotes", help="degenerations of a conic")
    common(p)
    p.add_argument("conic")
    p.set_defaults(func=_cmd_asymptotes)

    p = sub.add_parser("pencil", help="asymptotic pencil report of two conics")
    common(p, conics=2)
    p.set_defaults(func=_cmd_pencil)

    p = sub.add_parser("bisect", help="bisection of conics by a line, or arrangement check")
    common(p)
    p.add_argument("--line", help="line as 'u,v,w'")
    p.add_argument("--pairs", help="pairs 'u,v,w;u,v,w|...' for an arrangement check")
    p.add_argument("conics", nargs="*")
    p.set_defaults(func=_cmd_bisect)

    p = sub.add_parser("field-membership", help="membership of a pair in a bisector field")
    common(p, conics=2)
    p.add_argument("--pair", required=True, help="line pair 'u,v,w;u,v,w'")
    p.set_defaults(func=_cmd_field_membership)

    p = sub.add_parser("desargues", help="crossing involution of a pencil on a line")
    common(p, conics=2)
    p.add_argument("--line", required=True, help="line as 'u,v,w'")
    p.set_defaults(func=_cmd_desargues)

    p = sub.add_parser("check", help="run verification checks",
                       formatter_class=_CheckHelpFormatter)
    common(p)
    p.add_argument("checks", nargs="+", help="check ids or 'all'")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--samples", type=int, default=0,
                   help="override the randomized sample count")
    p.add_argument("--timings", action="store_true",
                   help="include wall times (output no longer byte-stable)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", help="emit an SVG figure (rationals only)")
    common(p)
    p.add_argument("--kind", choices=("pencil", "apencil", "arrangement"),
                   required=True)
    p.add_argument("--samples", type=int, default=9)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--pairs", help="pairs for arrangement scenes")
    p.add_argument("conics", nargs="*")
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first dispatch rather than at import, then reused."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ValueError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
