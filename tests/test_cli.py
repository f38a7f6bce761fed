import io
import json
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from bisectrix.cli import dispatch


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = dispatch(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


class TestClassify:
    def test_hyperbola(self):
        code, out = run(["classify", "--field", "Q", "x*y-1"])
        assert code == 0
        assert json.loads(out) == {"class": "hyperbola", "degenerate": False}

    def test_field_relative(self):
        _, out = run(["classify", "--field", "F5", "x^2+y^2-1"])
        assert json.loads(out)["class"] == "hyperbola"

    def test_tuple_input(self):
        code, out = run(["classify", "--field", "Q", "0,1,0,0,0,-1"])
        assert code == 0 and json.loads(out)["class"] == "hyperbola"

    def test_pretty_output(self):
        code, out = run(["classify", "--field", "Q", "--pretty", "x*y-1"])
        assert code == 0
        assert "class: hyperbola" in out and "degenerate: False" in out


class TestAsymptotes:
    def test_hyperbola(self):
        code, out = run(["asymptotes", "--field", "Q", "x*y-1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == "1"
        assert set(payload["lines"]) == {"x=0", "y=0"}

    def test_parallel_family(self):
        _, out = run(["asymptotes", "--field", "Q", "x^2-4*x"])
        payload = json.loads(out)
        assert payload["kind"] == "parallel-family"
        assert payload["midline"] == "x-2=0"
        assert {"lambda": "3", "lines": ["x-3=0", "x-1=0"]} in payload["samples"]

    def test_none(self):
        _, out = run(["asymptotes", "--field", "Q", "x^2-y"])
        assert json.loads(out) == {"degenerations": "none"}

    @pytest.mark.parametrize("field,conic,count", [
        ("F3", "x^2", 2),      # GF(3) has only (p + 1) / 2 = 2 distinct pairs
        ("Q", "x^2-x", 3),     # r = 0 and r = 1 give the same pair
    ])
    def test_family_samples_are_distinct(self, field, conic, count):
        _, out = run(["asymptotes", "--field", field, "--", conic])
        pairs = [tuple(s["lines"]) for s in json.loads(out)["samples"]]
        assert len(pairs) == count
        assert len(set(pairs)) == count


class TestPencil:
    def test_finite_members(self):
        code, out = run(["pencil", "--field", "F5", "x*y", "x^2-y^2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["independent"] and payload["complete"]
        assert not payload["trivial"]
        kinds = {m["kind"] for m in payload["members"]}
        assert kinds == {"crossing", "parallel", "double"}
        for m in payload["members"]:
            assert ("center" in m) == (m["kind"] == "crossing")
            assert ("midline" in m) == (m["kind"] != "crossing")

    def test_rational_intensional(self):
        _, out = run(["pencil", "--field", "Q", "x*y", "x^2-y^2"])
        payload = json.loads(out)
        assert payload["trivial"] and not payload["complete"]
        assert payload["cubic"]["shift_coefficient"] == ["-1/4", "0", "-1"]


def _count_calls(monkeypatch, name):
    """Count the calls of ``pencil.<name>`` through every module's binding."""
    from bisectrix import pencil

    real, calls = getattr(pencil, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "bisectrix" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestRationalRoute:
    """One Q query builds the constructed hyperbolas once and solves nothing twice."""

    def test_pencil_report_constructs_once(self, monkeypatch):
        found = _count_calls(monkeypatch, "find_hyperbolas")
        solved = _count_calls(monkeypatch, "net_contains")
        code, out = run(["pencil", "--field", "Q", "x*y-1", "x^2-y"])
        assert code == 0 and (len(found), len(solved)) == (1, 0)
        members = json.loads(out)["members"]
        assert [(m["alpha"], m["beta"], m["lambda"]) for m in members] == [
            ("1", "0", "1"), ("1", "-1", "2")]

    def test_swapped_pivots_construct_once(self, monkeypatch):
        # y^2 - 1 and x*y + x need X and Y swapped; one call does the swap.
        found = _count_calls(monkeypatch, "find_hyperbolas")
        code, out = run(["pencil", "--field", "Q", "y^2-1", "x*y+x"])
        assert code == 0 and len(found) == 1
        assert json.loads(out)["hyperbolas"] == [
            {"alpha": "0", "beta": "1", "member": "x*y+x"},
            {"alpha": "1", "beta": "-1", "member": "-x*y+y^2-x-1"}]

    def test_gf_pencil_report_computes_no_degeneration(self, monkeypatch):
        degenerated = _count_calls(monkeypatch, "degenerations")
        found = _count_calls(monkeypatch, "find_hyperbolas")
        code, out = run(["pencil", "--field", "F7", "x*y-1", "x^2-y"])
        assert code == 0 and (len(degenerated), len(found)) == (0, 1)
        assert json.loads(out)["hyperbolas"] == [
            {"alpha": "1", "beta": "0", "member": "x*y+6"},
            {"alpha": "1", "beta": "6", "member": "6*x^2+x*y+y+6"}]

    def test_field_membership_solves_once(self, monkeypatch):
        solved = _count_calls(monkeypatch, "net_contains")
        code, out = run(["field-membership", "--field", "Q", "--pair", "1,0,0;0,1,0",
                         "x*y", "x^2-y^2-4*x-2*y+3"])
        assert code == 0 and len(solved) == 1
        assert json.loads(out)["coordinates"] == {"alpha": "1", "beta": "0", "lambda": "0"}


class TestLargeFields:
    """Above the member ceiling a GF(p) pencil report has the Q shape, and
    neither query enumerates the net's p + 1 directions."""

    @pytest.mark.parametrize("field", ["F1000003", "F1000000007"])
    @pytest.mark.parametrize("argv", [
        ["pencil", "x*y-1", "x^2-y"],
        ["field-membership", "--pair", "1,0,0;0,1,0", "x*y-1", "x^2-y"],
    ], ids=["pencil", "field-membership"])
    def test_query_finishes_without_members(self, field, argv, monkeypatch):
        from bisectrix import pencil

        def never(*args):
            raise AssertionError("the net's members were enumerated")

        monkeypatch.setattr(pencil, "_net_pairs", never)
        start = time.perf_counter()
        code, out = run([argv[0], "--field", field, *argv[1:]])
        assert code == 0 and time.perf_counter() - start < 1.0
        payload = json.loads(out)
        if argv[0] == "pencil":
            assert not payload["complete"] and not payload["trivial"]
            assert [m["lambda"] for m in payload["members"]] == ["1", "2"]
        else:
            assert payload["nontrivial"] and payload["contains"]

    def test_ceiling_bounds_the_complete_report(self):
        from bisectrix.cli import PENCIL_MEMBER_CEILING

        assert PENCIL_MEMBER_CEILING >= 101  # the largest prime of the query mix
        below = json.loads(run(["pencil", "--field", "F997", "x*y-1", "x^2-y"])[1])
        above = json.loads(run(["pencil", "--field", "F1009", "x*y-1", "x^2-y"])[1])
        assert 997 <= PENCIL_MEMBER_CEILING < 1009
        assert below["complete"] and len(below["members"]) > 2
        assert not above["complete"] and len(above["members"]) == 2
        assert below["hyperbolas"][0] == {"alpha": "1", "beta": "0", "member": "x*y+996"}


class TestBisect:
    def test_line_mode(self):
        code, out = run(["bisect", "--field", "Q", "--line", "1,0,0",
                         "x*y", "x^2-y^2-4*x-2*y+3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["bisects"] is True
        assert payload["midpoint"] == {"finite": ["0", "-1"]}

    def test_pairs_mode(self):
        code, out = run(["bisect", "--field", "Q", "--pairs",
                         "1,0,0;0,1,0|1,1,-1;1,-1,-3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["triviality"] == "nontrivial"
        mids = {entry["line"]: entry["midpoint"] for entry in payload["lines"]}
        assert mids["x=0"] == {"finite": ["0", "-1"]}
        assert mids["y=0"] == {"finite": ["2", "0"]}

    def test_missing_arguments(self):
        code, _ = run(["bisect", "--field", "Q"])
        assert code == 2


class TestFieldMembership:
    def test_contains(self):
        code, out = run(["field-membership", "--field", "Q",
                         "--pair", "1,0,0;0,1,0",
                         "x*y", "x^2-y^2-4*x-2*y+3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["contains"] is True

    def test_not_contains(self):
        _, out = run(["field-membership", "--field", "Q",
                      "--pair", "1,0,0;0,1,-1",
                      "x*y", "x^2-y^2-4*x-2*y+3"])
        assert json.loads(out)["contains"] is False

    def test_trivial_pencil_is_domain_error(self):
        code, _ = run(["field-membership", "--field", "Q",
                       "--pair", "1,0,0;0,1,0", "x*y", "x^2-y^2"])
        assert code == 3


class TestDesargues:
    def test_involution(self):
        code, out = run(["desargues", "--field", "F7", "--line", "0,1,-2",
                         "x*y", "x^2-y^2-4*x-2*y+3"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload["involution"]) == {"p", "q", "r"}

    def test_basepoint_is_domain_error(self):
        code, _ = run(["desargues", "--field", "F7", "--line", "0,1,-1",
                       "x*y", "x^2-y^2-4*x-2*y+3"])
        assert code == 3


class TestCheck:
    def test_passing_check_exits_zero(self):
        code, out = run(["check", "--field", "F3", "example-3.6"])
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_failing_check_exits_nonzero(self):
        code, out = run(["check", "--field", "F5", "--samples", "40", "lemma-6.2"])
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("check_id,counter", [
        ("lemma-5.2", "pencils_checked"),
        ("thm-5.4", "pencils_checked"),
        ("cor-5.5", "quadrilaterals_checked"),
    ])
    def test_reports_instances_checked(self, check_id, counter):
        code, out = run(["check", "--field", "F5", "--samples", "7", check_id])
        assert code == 0
        assert json.loads(out)["witnesses"][-1][counter] == 7

    def test_multiple_checks(self):
        code, out = run(["check", "--field", "F5", "--samples", "10",
                         "prop-3.4", "cor-3.5"])
        assert code == 0
        payload = json.loads(out)
        assert [r["check"] for r in payload] == ["prop-3.4", "cor-3.5"]


class TestErrors:
    def test_parse_error_is_exit_2(self):
        assert run(["classify", "--field", "Q", "x^3"])[0] == 2
        assert run(["classify", "--field", "F4", "x*y"])[0] == 2

    def test_unknown_subcommand_is_exit_2(self):
        assert run(["frobnicate"])[0] == 2

    def test_removed_json_flag_is_exit_2(self, capsys):
        # JSON is the only machine output; the old no-op --json flag is gone.
        assert run(["classify", "--field", "Q", "--json", "x*y-1"]) == (2, "")
        assert "--json" in capsys.readouterr().err

    def test_seed_belongs_to_check_only(self, capsys):
        # Only check draws random instances, so only check takes --seed.
        assert run(["classify", "--field", "Q", "--seed", "1", "x*y-1"])[0] == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "--field", "F5", "--samples", "-5", "thm-6.3"],
        ["render", "--field", "Q", "--kind", "pencil", "--samples", "-1",
         "x*y", "x^2-y^2"],
    ], ids=["check", "render"])
    def test_negative_samples_is_exit_2(self, argv, capsys):
        assert run(argv) == (2, "")
        assert "--samples must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,ceiling", [
        (["check", "--field", "F7", "lemma-3.2", "--samples", "1000000000"], "100,000"),
        (["check", "--field", "F7", "all", "--samples", "100001"], "100,000"),
        (["render", "--field", "Q", "--kind", "pencil", "--samples", "100000000",
          "x*y", "x^2-y"], "1,000"),
        (["render", "--field", "Q", "--kind", "apencil", "--samples", "1001",
          "x*y", "x^2-y^2-4*x-2*y+3"], "1,000"),
    ], ids=["check", "check-all", "render", "render-apencil"])
    def test_samples_over_the_ceiling_is_exit_2(self, argv, ceiling, monkeypatch, capsys):
        # The refusal comes before any work: the work itself would raise here.
        from bisectrix import oracle, svgfig

        def never(*args):
            raise AssertionError("a refused count started work")

        for module, name in ((oracle, "run_check"), (svgfig, "render_pencil"),
                             (svgfig, "render_asymptotic_pencil")):
            monkeypatch.setattr(module, name, never)
        assert run(argv) == (2, "")
        assert f"--samples must be <= {ceiling}" in capsys.readouterr().err

    def test_samples_at_the_ceiling_are_accepted(self, monkeypatch):
        from bisectrix import cli, oracle, svgfig

        seen = []

        def checked(check_id, spec, policy):
            seen.append(policy.count)
            return oracle.Report(check_id, spec.name, policy, "pass", [{}], 0.0)

        def drawn(f1, f2, samples):
            seen.append(samples)
            return "<svg/>"

        monkeypatch.setattr(oracle, "run_check", checked)
        monkeypatch.setattr(svgfig, "render_pencil", drawn)
        assert run(["check", "--field", "F7", "lemma-3.2", "--samples",
                    str(cli.CHECK_SAMPLE_CEILING)])[0] == 0
        assert run(["render", "--field", "Q", "--kind", "pencil", "--samples",
                    str(cli.RENDER_SAMPLE_CEILING), "x*y", "x^2-y"])[0] == 0
        assert seen == [100_000, 1_000]

    @pytest.mark.parametrize("check_id,size", [
        ("lemma-6.2", "10,302 engine lines"),
        ("prop-2.2", "53,070,753 line pairs"),
        ("prop-3.7-delta", "10,302 net members per pencil"),
    ])
    def test_oversized_check_is_exit_3(self, check_id, size, capsys):
        # Past its size budget a table is refused before it is built.
        started = time.perf_counter()
        assert run(["check", "--field", "F101", check_id]) == (3, "")
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and size in err

    def test_refusal_among_several_ids_keeps_the_rest(self, capsys):
        # prop-2.2 is past the oracle's bound at F23; cor-5.7 still runs.
        code, out = run(["check", "--field", "F23", "cor-5.7", "prop-2.2"])
        assert code == 3
        assert capsys.readouterr().err == ""
        passed, refused = json.loads(out)
        assert (passed["check"], passed["verdict"]) == ("cor-5.7", "pass")
        assert (refused["check"], refused["verdict"]) == ("prop-2.2", "refused")
        assert refused["field"] == "F23"
        assert refused["message"] == "152,628 line pairs over F23: past the bound p <= 19"

    def test_refusal_outranks_a_failed_check(self, monkeypatch):
        # Every false claim needs the tables the bound refuses at F23, so a stub
        # fails there; the refusal of prop-2.2 decides the exit.
        from bisectrix import oracle

        def failing(spec, policy, rng):
            yield {"counterexample": spec.name}

        monkeypatch.setitem(oracle._CHECKS, "lemma-6.2", (failing, "stub", 1))
        assert run(["check", "--field", "F23", "lemma-6.2"])[0] == 1
        code, out = run(["check", "--field", "F23", "lemma-6.2", "prop-2.2"])
        assert code == 3
        assert [r["verdict"] for r in json.loads(out)] == ["fail", "refused"]

    def test_zero_samples_means_default_count(self):
        code, out = run(["check", "--field", "F5", "--samples", "0",
                         "prop-4.3-construction"])
        assert code == 0
        assert json.loads(out)["policy"]["count"] == 200


class TestParserReuse:
    def test_parser_is_built_once(self, monkeypatch):
        from bisectrix import cli

        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._parser.cache_clear()
        try:
            first = run(["classify", "--field", "Q", "x*y-1"])
            assert run(["classify", "--field", "Q", "x*y-1"]) == first
            assert run(["frobnicate"])[0] == 2
            assert len(calls) == 1
        finally:
            cli._parser.cache_clear()


class TestDeterminism:
    CASES = [
        ["classify", "--field", "Q", "x*y-1"],
        ["pencil", "--field", "F5", "x*y", "x^2-y^2"],
        ["check", "--field", "F3", "example-3.6", "prop-2.2"],
        ["check", "--field", "F5", "--samples", "20", "prop-3.4", "--seed", "0"],
        ["bisect", "--field", "Q", "--pairs", "1,0,0;0,1,0|1,1,-1;1,-1,-3"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(c[:2]) + "-" + c[-1] for c in CASES])
    def test_byte_identical_reruns(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second


class TestRender:
    def test_finite_field_refused(self):
        code, _ = run(["render", "--field", "F5", "--kind", "pencil",
                       "x*y", "x^2-y^2"])
        assert code == 3

    def test_apencil_svg(self):
        argv = ["render", "--field", "Q", "--kind", "apencil", "--samples", "9",
                "x*y", "x^2-y^2-4*x-2*y+3"]
        code, out = run(argv)
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        lines = root.findall(f".//{ns}line")
        blacks = [c for c in root.findall(f".//{ns}circle")
                  if c.get("fill") == "#000000"]
        whites = [c for c in root.findall(f".//{ns}circle")
                  if c.get("fill") == "#ffffff"]
        # One line element per pair component, one black dot per finite
        # bisector midpoint, one white center dot per crossing pair.
        from bisectrix.bisector import bisects_set
        from bisectrix.pencil import Pencil
        from bisectrix.svgfig import _sweep_bisector_pairs
        from bisectrix.textforms import parse_quadratic
        from bisectrix.field import rationals

        Q = rationals()
        pencil = Pencil(parse_quadratic(Q, "x*y"),
                        parse_quadratic(Q, "x^2-y^2-4*x-2*y+3"))
        pairs = _sweep_bisector_pairs(pencil, 9)
        assert len(lines) == 2 * len(pairs)
        expected_black = sum(
            1 for pair in pairs for l in pair.line_set()
            if (m := bisects_set(l, [pencil.f1, pencil.f2])) is not None
            and m.is_finite
        )
        assert len(blacks) == expected_black
        assert len(whites) == sum(1 for p in pairs if p.kind == "crossing")

    def test_pencil_svg_structure_and_stability(self):
        argv = ["render", "--field", "Q", "--kind", "pencil", "--samples", "7",
                "x*y", "x^2-y^2-4*x-2*y+3"]
        code, out = run(argv)
        assert code == 0
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        assert root.findall(f".//{ns}path")  # stroked conic branches
        assert not root.findall(f".//{ns}circle")  # no dots requested
        assert run(argv) == (code, out)

    def test_arrangement_svg(self):
        code, out = run(["render", "--field", "Q", "--kind", "arrangement",
                         "--pairs", "1,0,0;0,1,0|1,1,-1;1,-1,-3"])
        assert code == 0
        ET.fromstring(out)

    def test_out_file(self, tmp_path):
        target = tmp_path / "fig.svg"
        code, out = run(["render", "--field", "Q", "--kind", "pencil",
                         "--out", str(target), "x*y", "x^2-y^2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["written"] == str(target)
        assert target.read_text().startswith("<?xml")


class TestLazyOracle:
    """Only `check` loads the oracle; the package serves its names on demand."""

    def _fresh(self, code):
        import os
        import subprocess

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_other_commands_do_not_load_it(self):
        out = self._fresh(
            "import io, sys, contextlib\n"
            "import bisectrix, bisectrix.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    bisectrix.cli.dispatch(['classify', '--field', 'Q', 'x*y-1'])\n"
            "    bisectrix.cli.dispatch(['pencil', '--field', 'F5', 'x*y', 'x^2-y^2'])\n"
            "print('bisectrix.oracle' in sys.modules)\n"
            "from bisectrix import CHECK_IDS, run_check\n"
            "print('bisectrix.oracle' in sys.modules, run_check.__module__, len(CHECK_IDS))\n")
        assert out == ["False", "True", "bisectrix.oracle", "17"]

    def test_check_help_lists_the_ids(self, monkeypatch):
        from bisectrix.oracle import CHECK_IDS

        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside an id
        code, out = run(["check", "--help"])
        assert code == 0
        assert all(cid in out for cid in CHECK_IDS)
