import io
import json
import sys
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

    @pytest.mark.parametrize("argv", [
        ["check", "--field", "F5", "--samples", "-5", "thm-6.3"],
        ["render", "--field", "Q", "--kind", "pencil", "--samples", "-1",
         "x*y", "x^2-y^2"],
    ], ids=["check", "render"])
    def test_negative_samples_is_exit_2(self, argv, capsys):
        assert run(argv) == (2, "")
        assert "--samples must be >= 0" in capsys.readouterr().err

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
