"""Output checks for the three workloads.

Every answer is compared with the reference code (``reference.py``, which
shares no code with the library) or with a property it must have; nothing is
compared with a stored copy of an earlier output.

Each ``check_*`` function takes the worker's records of one round and returns
``(failed, errors)``: ``failed`` counts operations that did not complete (a
crash, an unexpected exit code, or a check that passed on fewer instances
than it was asked for), ``errors`` lists answers that are wrong.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import queries
import reference as ref
import workloads

F7 = ref.K(7)

# Report key holding the number of instances each randomized check covered.
INSTANCE_KEYS = {
    "prop-3.4": "pencils_checked", "cor-3.5": "pencils_checked",
    "prop-3.7-delta": "pencils_checked", "lemma-3.2": "pencils_checked",
    "lemma-3.3": "pencils_checked", "lemma-4.5": "pencils_checked",
    "prop-4.6": "pencils_checked", "lemma-5.2": "pencils_checked",
    "thm-5.4": "pencils_checked", "cor-5.5": "quadrilaterals_checked",
    "cor-5.6": "quadrilaterals_checked", "cor-5.7": "instances",
    "lemma-6.2": "extension_instances", "thm-6.3": "pencils_checked",
}


def _instances(check_id: str, witness: dict) -> int:
    if check_id == "prop-4.3-construction":
        return witness["solvable"] + witness["unsolvable"]
    return witness[INSTANCE_KEYS[check_id]]


def _report(record: dict, check_id: str, field: str, policy: dict, errors: list):
    """The parsed report, or None after noting why it is unusable."""
    try:
        report = json.loads(record["out"])
    except ValueError:
        errors.append(f"{check_id}: output is not JSON")
        return None
    for key, want in (("check", check_id), ("field", field), ("policy", policy)):
        if report.get(key) != want:
            errors.append(f"{check_id}: {key} is {report.get(key)!r}, want {want!r}")
    want_rc = {"pass": 0, "fail": 1}.get(report.get("verdict"))
    if want_rc is None or record["rc"] != want_rc:
        errors.append(f"{check_id}: verdict {report.get('verdict')!r} with exit code {record['rc']}")
        return None
    return report


def _policy(check_id: str, seed: int) -> dict:
    if check_id == "prop-2.2":
        return {"kind": "exhaustive"}
    return {"kind": "randomized", "seed": workloads.check_seed(check_id, seed),
            "count": workloads.REQUESTED[check_id]}


def check_oracle_f7(records: list, seed: int):
    failed, errors = 0, []
    p = F7.p
    for check_id, record in zip(workloads.ORACLE_F7_IDS, records):
        if record["rc"] not in (0, 1):
            failed += 1
            continue
        report = _report(record, check_id, "F7", _policy(check_id, seed), errors)
        if report is None:
            continue
        witnesses = report["witnesses"]
        if report["verdict"] == "fail":
            if check_id != "lemma-6.2":
                errors.append(f"{check_id}: fails, and no reference re-derives its witnesses")
                continue
            for w in witnesses:
                errors += [f"lemma-6.2: {e}" for e in rederive_lemma_6_2(F7, w)]
            continue
        if check_id == "prop-2.2":
            if witnesses != [ref.prop_2_2_closed_forms(p)]:
                errors.append(f"prop-2.2: counts {witnesses} differ from the closed forms")
            continue
        got, want = _instances(check_id, witnesses[0]), workloads.REQUESTED[check_id]
        if got < want:
            failed += 1  # passed without checking everything it was asked to
        elif got > want:
            errors.append(f"{check_id}: reports {got} instances, {want} requested")
        extra = {"lemma-5.2": ("lines_each", p * p + p), "cor-5.5": ("lines_each", p * p + p),
                 "thm-6.3": ("pairs_scanned", (p * p + p) * (p * p + p + 1) // 2)}
        if check_id in extra:
            key, value = extra[check_id]
            if witnesses[0].get(key) != value:
                errors.append(f"{check_id}: {key} is {witnesses[0].get(key)}, want {value}")
    return failed, errors


def rederive_lemma_6_2(k: ref.K, w: dict) -> list:
    """Re-derive a lemma-6.2 counterexample: base, extension, partner counts."""
    errors = []
    base = ref.parse_pairs_text(k, w["arrangement"])
    ext = ref.parse_pair_text(k, w["extension"])
    if len(base) != 2 or ref.triviality(k, base) != "nontrivial":
        errors.append(f"base {w['arrangement']} is not a nontrivial two-pair set")
    if not ref.is_arrangement(k, base):
        errors.append(f"base {w['arrangement']} is not an arrangement")
    if ext in base or not ref.is_arrangement(k, base + [ext]):
        errors.append(f"{w['extension']} does not extend {w['arrangement']}")
    counts = {
        ref.triple_text(l): sum(1 for l2 in ref.all_lines(k)
                                if ref.is_arrangement(k, base + [ref.pair(l, l2)]))
        for l in ext
    }
    if counts != w["partner_counts"]:
        errors.append(f"partner counts {w['partner_counts']}, reference {counts}")
    if 1 in counts.values():
        errors.append("a line of the extension has a unique partner: not a counterexample")
    if w.get("confirmed_by_midpoint_path") is not True:
        errors.append("witness not confirmed by the midpoint path")
    return errors


def check_search_f3(records: list, seed: int, reference_search):
    """``reference_search`` is (count, asymptotic count, set of pair sets)."""
    failed, errors = 0, []
    n_found, n_ap, sets = reference_search
    k = ref.K(3)
    universe = ref.all_pairs(k)
    for record in records:
        if record["rc"] not in (0, 1):
            failed += 1
            continue
        report = _report(record, "thm-6.3", "F3", _policy("thm-6.3", seed), errors)
        if report is None:
            continue
        *found, counts = report["witnesses"]
        want = {"maximal_nontrivial_arrangements": n_found, "asymptotic_pencils_among_them": n_ap}
        if counts != want:
            errors.append(f"thm-6.3 F3: counts {counts}, reference {want}")
        if len(found) != min(5, n_found - n_ap):
            errors.append(f"thm-6.3 F3: {len(found)} witnesses, want {min(5, n_found - n_ap)}")
        for w in found:
            pairs = ref.parse_pairs_text(k, w["arrangement"])
            problems = []
            if frozenset(pairs) not in sets:
                problems.append("not found by the reference search")
            if not ref.is_arrangement(k, pairs) or ref.triviality(k, pairs) != "nontrivial":
                problems.append("not a nontrivial arrangement")
            if any(ref.is_arrangement(k, pairs + [q]) for q in universe if q not in pairs):
                problems.append("not maximal")
            if ref.is_asymptotic_pencil(k, pairs, universe):
                problems.append("is an asymptotic pencil")
            if w.get("confirmed_by_midpoint_path") is not True:
                problems.append("not confirmed by the midpoint path")
            errors += [f"thm-6.3 F3 witness {w['arrangement']}: {e}" for e in problems]
    return failed, errors


# --- queries ---------------------------------------------------------------------


def _midpoint_json(m):
    if m is None:
        return None
    if m in (ref.INF, ref.UNDETERMINED):
        return m
    return {"finite": [str(m[0]), str(m[1])]}


def _pair_record_errors(k, rec, pr=None) -> list:
    l1 = ref.parse_line_equation(k, rec["line1"])
    l2 = ref.parse_line_equation(k, rec["line2"])
    got = ref.pair(l1, l2)
    errors = []
    if pr is not None and got != pr:
        errors.append(f"pair {rec['line1']}, {rec['line2']} is not the input pair")
    kind = "double" if l1 == l2 else "parallel" if ref.parallel(l1, l2) else "crossing"
    if rec["kind"] != kind:
        errors.append(f"kind {rec['kind']}, want {kind}")
    elif kind == "crossing":
        if ref.parse_point_text(k, rec["center"]) != ref.intersect(k, l1, l2):
            errors.append(f"center {rec['center']} is not where the lines cross")
    elif ref.parse_line_equation(k, rec["midline"]) != ref.midline(k, l1, l2):
        errors.append(f"midline {rec['midline']} is not midway")
    return errors


def _member_errors(k, f1, f2, rec) -> list:
    """A reported net member: coordinates present and the listed lines factor it."""
    if rec["alpha"] is None:
        return ["member without net coordinates"]
    alpha, beta, lam = (k.parse(rec[key]) for key in ("alpha", "beta", "lambda"))
    pr = ref.pair(ref.parse_line_equation(k, rec["line1"]), ref.parse_line_equation(k, rec["line2"]))
    errors = _pair_record_errors(k, rec)
    if not ref.net_coordinates_ok(k, f1, f2, ref.product(k, pr), alpha, beta, lam):
        errors.append(f"{rec['line1']}, {rec['line2']} do not factor member "
                      f"[{rec['alpha']}:{rec['beta']}:{rec['lambda']}]")
    return errors


# Directions (alpha, beta) at which pencil answers are sampled over Q and
# large fields; five distinct points pin a binary cubic down.
_SAMPLE_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))


def _directions(k):
    if k.p and k.p <= 13:
        return [(1, t) for t in range(k.p)] + [(0, 1)]
    return [(k(a), k(b)) for a, b in _SAMPLE_DIRECTIONS]


def _check_classify(k, q, a):
    kind, degenerate = ref.classify(k, q.inputs["f"])
    return [] if a == {"class": kind, "degenerate": degenerate} else [f"want {kind}/{degenerate}"]


def _check_asymptotes(k, q, a):
    f = q.inputs["f"]
    kind = ref.shift_degeneration(k, f)
    if kind == "none":
        return [] if a == {"degenerations": "none"} else ["has no degeneration, reported one"]
    if kind == "unique":
        if set(a) != {"lines", "lambda"}:
            return ["want the unique asymptote pair"]
        samples = [a]
    else:
        if a.get("kind") != "parallel-family" or len(a.get("samples", ())) != 3:
            return ["want a parallel family with three samples"]
        samples = a["samples"]
    errors = []
    for s in samples:
        l1, l2 = (ref.parse_line_equation(k, t) for t in s["lines"])
        if not ref.proportional(k, ref.product(k, (l1, l2)), ref.shift(k, f, k.parse(s["lambda"]))):
            errors.append(f"{s['lines']} do not factor f + {s['lambda']}")
        if ref.parallel(l1, l2) != (kind == "family"):
            errors.append(f"{s['lines']}: wrong shape for a {kind} degeneration")
        if kind == "family":
            if ref.parse_line_equation(k, a["midline"]) != ref.midline(k, l1, l2):
                errors.append(f"midline {a['midline']} is not midway between {s['lines']}")
            _, dx, dy = ref.parse_point_text(k, a["direction"])
            if k(dx * l1[0] + dy * l1[1]) != 0:
                errors.append(f"direction {a['direction']} is not along {s['lines']}")
    return errors


def _check_pencil(k, q, a):
    f1, f2 = q.inputs["f1"], q.inputs["f2"]
    errors = []
    if a["field"] != queries.field_name(k) or a["independent"] is not True:
        errors.append("wrong field or independence")
    qc = [k.parse(x) for x in a["cubic"]["shift_coefficient"]]
    bc = [k.parse(x) for x in a["cubic"]["base"]]
    quarter = k.div(1, 4)
    for al, be in _SAMPLE_DIRECTIONS:
        slope = k(qc[0] * al * al + qc[1] * al * be + qc[2] * be * be)
        base = k(bc[0] * al ** 3 + bc[1] * al * al * be + bc[2] * al * be * be + bc[3] * be ** 3)
        g = ref.add(k, (al, f1), (be, f2))
        for lam in (0, 1):
            if k(slope * lam + base) != k(ref.det3(k, ref.shift(k, g, lam)) * quarter):
                errors.append(f"cubic disagrees with det3 at [{al}:{be}:{lam}]")
    hyps = a["hyperbolas"]
    if not 1 <= len(hyps) <= 2:
        errors.append(f"{len(hyps)} hyperbolas")
    members = []
    for h in hyps:
        g = ref.parse_poly(k, h["member"])
        members.append(g)
        if g != ref.add(k, (k.parse(h["alpha"]), f1), (k.parse(h["beta"]), f2)):
            errors.append(f"hyperbola {h['member']} is not at its coordinates")
        if ref.classify(k, g)[0] != "hyperbola":
            errors.append(f"{h['member']} is not a hyperbola")
    if len(members) == 2 and not ref.independent(k, *members):
        errors.append("the two hyperbolas are dependent")
    listed = []
    for rec in a["members"]:
        errors += _member_errors(k, f1, f2, rec)
        listed.append(ref.pair(ref.parse_line_equation(k, rec["line1"]),
                               ref.parse_line_equation(k, rec["line2"])))
    if k.p:
        want = net_members(k, f1, f2)
        if a["complete"] is not True or set(listed) != want or len(listed) != len(want):
            errors.append(f"members {len(listed)}, reference {len(want)}")
        centers = {ref.intersect(k, *pr) for pr in want}
        trivial = len(centers) == 1 and all(not ref.parallel(*pr) for pr in want)
        counts = {}
        for pr in want:
            for l in set(pr):
                counts[l] = counts.get(l, 0) + 1
        shared = min((l for l, n in counts.items() if n >= 2), default=None)
        if a["trivial"] != trivial:
            errors.append(f"trivial is {a['trivial']}, reference {trivial}")
        got_shared = a["shared_line"] and ref.parse_line_equation(k, a["shared_line"])
        if got_shared != shared:
            errors.append(f"shared line {a['shared_line']}, reference {shared}")
    else:
        if a["complete"] is not False:
            errors.append("a Q report cannot be complete")
        centers = {ref.intersect(k, *pr) for pr in listed}
        if a["trivial"] and (len(centers) > 1 or any(ref.parallel(*pr) for pr in listed)):
            errors.append("trivial, yet members differ in center or shape")
        if a["shared_line"] is not None:
            shared = ref.parse_line_equation(k, a["shared_line"])
            if sum(shared in pr for pr in listed) < 2:
                errors.append(f"shared line {a['shared_line']} is in fewer than two members")
    return errors


def net_members(k, f1, f2) -> set:
    """Every reducible member of the affine net over GF(p).

    det3 of alpha f1 + beta f2 + t is affine in t: one root, none, or (when
    it vanishes identically) every shift, which is then factored one by one.
    """
    out = set()
    for al, be in [(1, t) for t in range(k.p)] + [(0, 1)]:
        g = ref.add(k, (al, f1), (be, f2))
        d0 = ref.det3(k, g)
        slope = k(ref.det3(k, ref.shift(k, g, 1)) - d0)
        shifts = [k.div(-d0, slope)] if slope else (range(k.p) if d0 == 0 else ())
        for lam in shifts:
            pr = ref.factor(k, ref.shift(k, g, lam))
            if pr is not None:
                out.add(pr)
    return out


def _check_bisect_line(k, q, a):
    l, conics = q.inputs["line"], q.inputs["conics"]
    errors = []
    if ref.parse_line_equation(k, a["line"]) != l:
        errors.append(f"line {a['line']}")
    if len(a["mids"]) != len(conics):
        return errors + ["one result per conic"]
    for f, m in zip(conics, a["mids"]):
        kind, point = ref.mid(k, f, l)
        if ref.parse_poly(k, m["conic"]) != f or m["result"] != kind:
            errors.append(f"{m['conic']}: {m['result']}, want {kind}")
        elif m["midpoint"] != (_midpoint_json(point) if kind == "crosses" else None):
            errors.append(f"{m['conic']}: midpoint {m['midpoint']}")
    common = ref.common_midpoint(k, l, conics)
    if a["bisects"] != (common is not None) or a["midpoint"] != _midpoint_json(common):
        errors.append(f"common midpoint {a['midpoint']}, want {_midpoint_json(common)}")
    return errors


def _check_bisect_pairs(k, q, a):
    pairs = q.inputs["pairs"]
    errors = []
    if len(a["pairs"]) != len(pairs):
        return ["one record per pair"]
    for rec, pr in zip(a["pairs"], pairs):
        errors += _pair_record_errors(k, rec, pr)
        if any(rec[key] is not None for key in ("alpha", "beta", "lambda")):
            errors.append("net coordinates on a pair outside any net")
    mids = ref.arrangement_midpoints(k, pairs)
    if a["verdict"] != all(m is not None for m in mids.values()):
        errors.append(f"verdict {a['verdict']}")
    if a["triviality"] != ref.triviality(k, pairs):
        errors.append(f"triviality {a['triviality']}, want {ref.triviality(k, pairs)}")
    want = [{"line": l, "midpoint": _midpoint_json(m)} for l, m in mids.items()]
    got = [{"line": ref.parse_line_equation(k, e["line"]), "midpoint": e["midpoint"]}
           for e in a["lines"]]
    if got != want:
        errors.append("per-line midpoints differ from the reference")
    return errors


def _check_field_membership(k, q, a):
    f1, f2, pr = q.inputs["f1"], q.inputs["f2"], q.inputs["pair"]
    g = ref.product(k, pr)
    contained = ref.in_net(k, f1, f2, g)
    coords = a["coordinates"]
    errors = []
    if a["nontrivial"] is not True or a["contains"] != contained:
        errors.append(f"contains {a['contains']}, reference {contained}")
    if contained:
        if coords is None or not ref.net_coordinates_ok(
                k, f1, f2, g, *(k.parse(coords[key]) for key in ("alpha", "beta", "lambda"))):
            errors.append(f"coordinates {coords} do not give the pair's product")
    elif coords is not None:
        errors.append("coordinates for a pair outside the net")
    return errors


def _check_desargues(k, q, a):
    f1, f2, l = q.inputs["f1"], q.inputs["f2"], q.inputs["line"]
    inv = a["involution"]
    p, qq, r = (k.parse(inv[key]) for key in ("p", "q", "r"))
    errors = []
    if ref.parse_line_equation(k, a["line"]) != l:
        errors.append(f"line {a['line']}")
    if k(p * p + qq * r) == 0:
        return errors + ["degenerate map: not of order 2"]
    if a["fixes_infinity"] != (r == 0):
        errors.append("fixes_infinity disagrees with r")

    def apply(t):
        if t is None:
            return k.div(p, r) if r != 0 else None
        den = k(r * t - p)
        return None if den == 0 else k.div(p * t + qq, den)

    for al, be in _directions(k):
        A, B, C = ref.restrict(k, ref.add(k, (al, f1), (be, f2)), l)
        if not (A or B or C):
            continue
        if k(p * B - qq * A + r * C) != 0:
            errors.append(f"member [{al}:{be}]: crossing pair not swapped")
            continue
        if A != 0:
            root = k.sqrt(B * B - 4 * A * C)
            if root is not None:
                t1, t2 = k.div(-B + root, 2 * A), k.div(-B - root, 2 * A)
                if apply(t1) != t2 or apply(apply(t1)) != t1:
                    errors.append(f"member [{al}:{be}]: roots {t1}, {t2} not swapped")
    return errors


def _check_render(text):
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"not an SVG document: {exc}"]
    return [] if root.tag == "{http://www.w3.org/2000/svg}svg" else [f"root is {root.tag}"]


_QUERY_CHECKS = {
    "classify": _check_classify, "asymptotes": _check_asymptotes, "pencil": _check_pencil,
    "bisect-line": _check_bisect_line, "bisect-pairs": _check_bisect_pairs,
    "field-membership": _check_field_membership, "desargues": _check_desargues,
}


def check_queries(records: list, round_queries: list):
    failed, errors = 0, []
    for q, record in zip(round_queries, records):
        if record["rc"] != 0:
            failed += 1
            continue
        try:
            if q.command.startswith("render"):
                problems = _check_render(record["out"])
            else:
                problems = _QUERY_CHECKS[q.command](q.k, q, json.loads(record["out"]))
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable answer: {exc!r}"]
        errors += [f"{' '.join(q.argv)}: {e}" for e in problems]
    return failed, errors
