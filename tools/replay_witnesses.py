r"""Replay the counterexamples of a check report without the bisectrix package.

    python3 -m bisectrix check --field F3 lemma-6.2 thm-6.3 > report.json
    python3 tools/replay_witnesses.py report.json

Every counterexample of a failed ``lemma-6.2`` or ``thm-6.3`` report is
recomputed with ``bench/reference.py``, which works on plain ints mod p and
shares no code with the library:

* ``lemma-6.2``: the base is a nontrivial two-pair arrangement, the base with
  the extension is an arrangement, and on each line of the extension the
  number of lines m for which the base with {line, m} is an arrangement is
  the reported partner count, and is not 1: no line pins the extension.
* ``thm-6.3``: the set is a nontrivial arrangement, it is not an asymptotic
  pencil, and no other line pair extends it.  The closing count summary is
  not a set and is not replayed.

Prints one line per counterexample and a total, and exits 1 if any
counterexample does not replay.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import reference as ref  # noqa: E402


def replay_lemma_6_2(k: ref.K, witness: dict) -> bool:
    base = ref.parse_pairs_text(k, witness["arrangement"])
    extension = ref.parse_pair_text(k, witness["extension"])
    if len(base) != 2 or ref.triviality(k, base) != "nontrivial":
        return False
    if not ref.is_arrangement(k, base + [extension]):
        return False
    counts = {ref.parse_triple(k, text): n for text, n in witness["partner_counts"].items()}
    if set(counts) != set(extension):
        return False
    for line, count in counts.items():
        partners = sum(ref.is_arrangement(k, base + [ref.pair(line, m)])
                       for m in ref.all_lines(k))
        if partners != count or count == 1:
            return False
    return True


def replay_thm_6_3(k: ref.K, witness: dict) -> bool:
    pairs = ref.parse_pairs_text(k, witness["arrangement"])
    universe = ref.all_pairs(k)
    return (
        ref.is_arrangement(k, pairs)
        and ref.triviality(k, pairs) == "nontrivial"
        and not ref.is_asymptotic_pencil(k, pairs, universe)
        and not any(ref.is_arrangement(k, pairs + [q]) for q in universe if q not in pairs)
    )


REPLAYS = {"lemma-6.2": replay_lemma_6_2, "thm-6.3": replay_thm_6_3}


def replay(report: dict) -> list[tuple[str, bool]]:
    """(label, replayed) for each counterexample of one failed report."""
    if report["verdict"] != "fail" or report["check"] not in REPLAYS:
        return []
    k = ref.K(int(report["field"].lstrip("F")))
    out = []
    for n, witness in enumerate(report["witnesses"]):
        if report["check"] == "thm-6.3" and "arrangement" not in witness:
            continue  # the count summary
        label = f"{report['field']} {report['check']} #{n}"
        out.append((label, REPLAYS[report["check"]](k, witness)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = json.loads(Path(argv[0]).read_text())
    results = [r for report in (loaded if isinstance(loaded, list) else [loaded])
               for r in replay(report)]
    for label, ok in results:
        print(f"{label}: {'replays' if ok else 'DOES NOT REPLAY'}")
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad} of {len(results)} counterexamples replay")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
