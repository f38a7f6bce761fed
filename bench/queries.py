"""The seeded query mix of the ``queries`` workload.

No record of real usage exists, so the shares are assumed, by one rule:
each of the seven answering query kinds has the same count per round, and
``render`` (a figure, not an answer) has a small fixed share, about one
query in twenty, split equally between its three figure kinds (``MIX``).
Within each answering kind, queries alternate between Q, with coefficients
n/d for n in -9..9 and d in 1..4, and GF(p) for the primes p in PRIMES,
taken in turn.  ``render`` is over Q only: figures need rational
coordinates.  Every generated input is valid for its command (an
independent pencil, a line off the pencil's basepoints, a nontrivial pencil
where one is needed), checked with the reference code, so every query
should answer with exit code 0.  Conics follow "--", since a leading
minus sign would otherwise read as an option.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97, 101)

# Queries per round for each command: an assumed rule, not measured usage
# (see the module docstring).
QUERY_KINDS = ("classify", "asymptotes", "pencil", "bisect-line", "bisect-pairs",
               "field-membership", "desargues")
RENDER_KINDS = ("render-apencil", "render-pencil", "render-arrangement")
PER_QUERY_KIND = 50
PER_RENDER_KIND = 6
MIX = tuple((c, PER_QUERY_KIND) for c in QUERY_KINDS) + tuple(
    (c, PER_RENDER_KIND) for c in RENDER_KINDS)
ROUND_SIZE = sum(n for _, n in MIX)


class Query:
    """One CLI query: its argv and the parsed inputs the checks need."""

    __slots__ = ("command", "k", "argv", "inputs")

    def __init__(self, command, k, argv, inputs):
        self.command = command
        self.k = k
        self.argv = argv
        self.inputs = inputs


def field_name(k: ref.K) -> str:
    return f"F{k.p}" if k.p else "Q"


class _Gen:
    def __init__(self, rng: random.Random, k: ref.K):
        self.rng, self.k = rng, k

    def scalar(self):
        if self.k.p:
            return self.rng.randrange(self.k.p)
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 4))

    def quadratic(self):
        while True:
            f = tuple(self.k(self.scalar()) for _ in range(6))
            if any(f[:3]):
                return f

    def line(self):
        while True:
            u, v, w = self.scalar(), self.scalar(), self.scalar()
            if self.k(u) != 0 or self.k(v) != 0:
                return ref.line(self.k, u, v, w)

    def pair(self):
        return ref.pair(self.line(), self.line())

    def crossing_pair(self):
        while True:
            pr = self.pair()
            if not ref.parallel(*pr):
                return pr

    def pencil(self):
        while True:
            f1, f2 = self.quadratic(), self.quadratic()
            if ref.independent(self.k, f1, f2):
                return f1, f2

    def quadrilateral_pencil(self):
        """Products of two crossing pairs with distinct centers: a nontrivial net."""
        k = self.k
        while True:
            a, b = self.crossing_pair(), self.crossing_pair()
            f1, f2 = ref.product(k, a), ref.product(k, b)
            if ref.intersect(k, *a) != ref.intersect(k, *b) and ref.independent(k, f1, f2):
                return a, b, f1, f2

    def family_quadratic(self):
        """s L^2 + m L + g: a quadratic whose shifts give a parallel family."""
        k = self.k
        l = self.line()
        s = self.scalar()
        while k(s) == 0:
            s = self.scalar()
        m, g = self.scalar(), self.scalar()
        sq = ref.product(k, (l, l))
        lin = (0, 0, 0, l[0], l[1], l[2])
        return ref.shift(k, ref.add(k, (s, sq), (m, lin)), g)


def _make(command: str, rng: random.Random, k: ref.K) -> Query:
    gen = _Gen(rng, k)
    fname = field_name(k)
    poly = lambda f: ref.poly_text(k, f)  # noqa: E731
    if command == "classify":
        f = gen.quadratic() if rng.random() < 0.75 else ref.product(k, gen.pair())
        return Query(command, k, ["classify", "--field", fname, "--", poly(f)], {"f": f})
    if command == "asymptotes":
        roll = rng.random()
        if roll < 0.6:
            f = gen.quadratic()
        elif roll < 0.8:
            f = ref.shift(k, ref.product(k, gen.crossing_pair()), gen.scalar())
        else:
            f = gen.family_quadratic()
        return Query(command, k, ["asymptotes", "--field", fname, "--", poly(f)], {"f": f})
    if command == "pencil":
        f1, f2 = gen.pencil()
        return Query(command, k, ["pencil", "--field", fname, "--", poly(f1), poly(f2)],
                     {"f1": f1, "f2": f2})
    if command == "bisect-line":
        l = gen.line()
        conics = [gen.quadratic() for _ in range(rng.randint(2, 3))]
        return Query(command, k, ["bisect", "--field", fname, "--line", ref.triple_text(l),
                                  "--", *map(poly, conics)], {"line": l, "conics": conics})
    if command == "bisect-pairs":
        pairs = [gen.pair() for _ in range(rng.randint(2, 4))]
        text = "|".join(ref.pair_text(pr) for pr in pairs)
        return Query(command, k, ["bisect", "--field", fname, "--pairs", text],
                     {"pairs": pairs})
    if command == "field-membership":
        a, b, f1, f2 = gen.quadrilateral_pencil()
        query = rng.choice((a, b, gen.pair()))
        return Query(command, k, ["field-membership", "--field", fname, "--pair",
                                  ref.pair_text(query), "--", poly(f1), poly(f2)],
                     {"f1": f1, "f2": f2, "pair": query})
    if command == "desargues":
        while True:
            f1, f2 = gen.pencil()
            l = gen.line()
            if ref.involution_coefficients(k, f1, f2, l) is not None:
                break
        return Query(command, k, ["desargues", "--field", fname, "--line",
                                  ref.triple_text(l), "--", poly(f1), poly(f2)],
                     {"f1": f1, "f2": f2, "line": l})
    if command in ("render-apencil", "render-pencil"):
        _, _, f1, f2 = gen.quadrilateral_pencil()
        kind = command.split("-")[1]
        return Query(command, k, ["render", "--field", fname, "--kind", kind,
                                  "--samples", str(rng.randint(5, 11)), "--", poly(f1), poly(f2)],
                     {})
    if command == "render-arrangement":
        pairs = [gen.crossing_pair() for _ in range(rng.randint(2, 3))]
        text = "|".join(ref.pair_text(pr) for pr in pairs)
        return Query(command, k, ["render", "--field", fname, "--kind", "arrangement",
                                  "--pairs", text], {})
    raise ValueError(command)


def generate(seed: int, round_index: int) -> list[Query]:
    """Round ``round_index`` of the mix for ``seed``, in a shuffled order.

    Each command's GF(p) queries walk through PRIMES from a seeded offset, so
    every round holds nearly the same primes: the cost of a round depends on
    p (``pencil`` over F101 is the slowest query), and drawing p at random
    would make rounds differ in cost from seed to seed.
    """
    rng = random.Random(f"queries/{seed}/{round_index}")
    out = []
    for command, count in MIX:
        next_prime = rng.randrange(len(PRIMES))
        for i in range(count):
            if command.startswith("render") or i % 2 == 0:
                k = ref.K(None)
            else:
                k = ref.K(PRIMES[next_prime % len(PRIMES)])
                next_prime += 1
            out.append(_make(command, rng, k))
    rng.shuffle(out)
    return out
