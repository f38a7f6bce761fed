"""The three workloads: which CLI operations one round of each runs.

Nothing here imports ``bisectrix``; the worker and the output checks both
read the operations from here, so they always agree.
"""

import queries

# ``check --field F7 all``: every check id but the GF(3)-only example-3.6,
# in the order of ``bisectrix.oracle.CHECK_IDS``.
ORACLE_F7_IDS = (
    "prop-2.2", "prop-3.4", "cor-3.5", "prop-3.7-delta", "prop-4.3-construction",
    "lemma-3.2", "lemma-3.3", "lemma-4.5", "prop-4.6", "lemma-5.2", "thm-5.4",
    "cor-5.5", "cor-5.6", "cor-5.7", "lemma-6.2", "thm-6.3",
)

# Instances each randomized check is asked for at its default policy; a
# check that passes must report this many.
REQUESTED = {
    "prop-3.4": 500, "cor-3.5": 500, "prop-3.7-delta": 200,
    "prop-4.3-construction": 200, "lemma-3.2": 100, "lemma-3.3": 100,
    "lemma-4.5": 100, "prop-4.6": 200, "lemma-5.2": 100, "thm-5.4": 100,
    "cor-5.5": 30, "cor-5.6": 20, "cor-5.7": 50, "lemma-6.2": 200,
    "thm-6.3": 100,
}

# prop-4.3-construction skips a draw whenever the two direction pairs are
# equal, and then passes on fewer instances than requested.  It runs at a
# fixed seed so that this known fault fails it in every run: the share of
# failed operations must not depend on the benchmark's seed.
FIXED_SEEDS = {"prop-4.3-construction": 0}

WORKLOADS = ("oracle-f7", "search-f3", "queries")

def check_seed(check_id: str, seed: int) -> int:
    return FIXED_SEEDS.get(check_id, seed)


def round_argvs(workload: str, seed: int, round_index: int) -> list[list[str]]:
    """The argv of every operation of one round, in order."""
    if workload == "oracle-f7":
        return [["check", "--field", "F7", cid, "--seed", str(check_seed(cid, seed))]
                for cid in ORACLE_F7_IDS]
    if workload == "search-f3":
        return [["check", "--field", "F3", "thm-6.3", "--seed", str(seed)]]
    if workload == "queries":
        return [q.argv for q in queries.generate(seed, round_index)]
    raise ValueError(f"unknown workload {workload!r}")
