"""``tools/replay_witnesses.py`` replays the red verdicts without the package.

The reports come from ``cli.dispatch``; the tool runs in a fresh interpreter
whose path holds no ``src/``, so it can only succeed without ``bisectrix``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bisectrix.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "replay_witnesses.py"


def _report(field):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["check", "--field", field, "lemma-6.2", "thm-6.3"])
    assert code == 1
    return json.loads(out.getvalue())


def _replay(tmp_path, reports):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(reports))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(TOOL), str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("field,count", [("F3", 10), ("F5", 5)])
def test_every_counterexample_replays(tmp_path, field, count):
    done = _replay(tmp_path, _report(field))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == f"{count} of {count} counterexamples replay"


def test_a_wrong_partner_count_does_not_replay(tmp_path):
    reports = _report("F3")
    counts = reports[0]["witnesses"][0]["partner_counts"]
    line = next(iter(counts))
    counts[line] += 1
    done = _replay(tmp_path, reports)
    assert done.returncode == 1
    assert "F3 lemma-6.2 #0: DOES NOT REPLAY" in done.stdout


def test_an_extendable_set_does_not_replay(tmp_path):
    # Less one member, a maximal set is extended by that member.
    reports = _report("F3")
    witness = reports[1]["witnesses"][0]
    witness["arrangement"] = "|".join(witness["arrangement"].split("|")[:-1])
    done = _replay(tmp_path, reports)
    assert done.returncode == 1
    assert "F3 thm-6.3 #0: DOES NOT REPLAY" in done.stdout
