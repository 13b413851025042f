"""Known answers, computed outside every timed region.

The exact arithmetic here is sympy's, over the root data in
``workloads.cartan``; commutativity verdicts on specs with at most three
generators come from ``uproll.oracle.brute_commutativity`` on the box of
radius 1, which already holds every generator pair.  Larger generator
lists are decided from the generator conditions in sympy, because the
brute-force box grows as 9**k.  This module is imported only after the
timed loop, so sympy never shows in the measured peak memory.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

import sympy

from workloads import cartan, cocycle_spec, r_of, roots


def _fr(x) -> Fraction:
    return Fraction(str(x))


def _is_int(x) -> bool:
    return sympy.Rational(x).q == 1


def _canon(x, modulus: int) -> str:
    return str(_fr(sympy.Rational(x) % modulus))


class Known:
    """Expected digests per input item, cached for the run."""

    def __init__(self, uproll):
        self.u = uproll
        self._gram = {}
        self._cache = {}

    def gram(self, series: str, rank: int) -> sympy.Matrix:
        """Gram matrix D (D A)^-1 D of the normalized form, omega basis."""
        key = (series, rank)
        if key not in self._gram:
            a, d = cartan(series, rank)
            dm = sympy.diag(*d)
            self._gram[key] = dm * (dm * sympy.Matrix(a)).inv() * dm
        return self._gram[key]

    @staticmethod
    def _vec(row) -> sympy.Matrix:
        return sympy.Matrix([[sympy.Rational(str(c)) for c in row]])

    def pair(self, g, x, y):
        return (self._vec(x) * g * self._vec(y).T)[0, 0]

    def twist(self, item: dict, rep) -> str:
        """<rep, rep + 2(1-r) rho> mod ell, rho = (1, ..., 1) in the omega basis."""
        g, shift = self.gram(item["series"], item["rank"]), 2 * (1 - r_of(item["ell"]))
        return _canon(self.pair(g, rep, [sympy.Rational(c) + shift for c in rep]), item["ell"])

    def monodromy(self, item: dict, a, b) -> str:
        """2<a, b> mod ell."""
        return _canon(2 * self.pair(self.gram(item["series"], item["rank"]), a, b), item["ell"])

    def check(self, workload: str, item: dict, digest) -> bool:
        if workload == "cli-mix":
            return self.cli(item, *digest)
        key = id(item)
        if key not in self._cache:
            self._cache[key] = getattr(self, workload.replace("-", "_"))(item)
        return self._cache[key] == digest

    # -- spec-level answers --------------------------------------------------

    def ribbon(self, series, rank, ell, lattice, mu) -> str:
        g = self.gram(series, rank)
        rho = [1] * rank
        factor = 2 * (1 - r_of(ell))
        bad = any(not _is_int(factor * self.pair(g, row, rho) / ell) for row in lattice)
        if mu is not None:
            bad = bad or not _is_int(factor * self.pair(g, mu, rho) / sympy.Rational(ell, 2))
        return "inconclusive" if bad else "ribbon"

    def verdict(self, item: dict) -> bool:
        s, n, ell, lattice, mu = item["series"], item["rank"], item["ell"], item["lattice"], item["mu"]
        g = self.gram(s, n)
        if len(lattice) <= 3:
            u = self.u
            datum = u.build_cartan_datum(s, n, ell)
            even = u.brute_commutativity(u.AlgebraSpec(datum, [u.weight(r) for r in lattice]), 1)
        else:
            even = all(
                _is_int(self.pair(g, a, a) / ell)
                and all(_is_int(2 * self.pair(g, a, b) / ell) for b in lattice[i + 1:])
                for i, a in enumerate(lattice)
            )
        if mu is None or not even:
            return even
        twice = 2 * self.pair(g, mu, mu)
        return (_is_int(twice / ell) and not _is_int(twice / (2 * ell))
                and all(_is_int(2 * self.pair(g, mu, b) / ell) for b in lattice))

    def alg(self, item: dict):
        s, n, ell, lattice, mu = item["series"], item["rank"], item["ell"], item["lattice"], item["mu"]
        half = sympy.Rational(ell, 2)
        if any(not _is_int(sympy.Rational(c) / half) for row in lattice + [mu or []] for c in row):
            return ("outside",)
        if not self.verdict(item):
            return ("invalid",)
        ribbon = self.ribbon(s, n, ell, lattice, mu)
        rows = sympy.Matrix([[sympy.Rational(c) for c in row] for row in lattice])
        rank = rows.rank()
        if rank < n:
            return ("infinite", n - rank, ribbon)
        # |L*/L| = |det(2 Gram_L / ell)| on a basis of L; adjoining mu
        # halves the covolume, so the census shrinks by 4.
        order = abs((2 * rows * self.gram(s, n) * rows.T / ell).det()) / (4 if mu else 1)
        zero = ",".join(["0"] * n)
        return ("finite", int(order), int(order), "0", ribbon, (zero,))

    def bq(self, item: dict):
        s, n, ell = item["series"], item["rank"], item["ell"]
        g = self.gram(s, n)
        ainv = sympy.Matrix(cartan(s, n)[0]).inv()
        r = ell // 2
        two_r = 2 * r
        ws = [([int(c) for c in w["qg"]], [int(c) for c in w["fock"]]) for w in item["weights"]]
        rows = []
        for q, t in ws:
            diff = sympy.Matrix([a - b for a, b in zip(q, t)])
            local = all(_is_int(c) for c in ainv * diff)
            twist = self.pair(g, q, [a + 2 * (1 - r) for a in q]) - self.pair(g, t, t)
            transparent = (q == t and all(c % r == 0 for c in q)) if local else None
            rows.append((_canon(twist, two_r), local, transparent))
        pairs = []
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                (q1, t1), (q2, t2) = ws[i], ws[j]
                mono = 2 * self.pair(g, q1, q2) - 2 * self.pair(g, t1, t2)
                eq = None
                if rows[i][1] and rows[j][1]:
                    dq = [b - a for a, b in zip(q1, q2)]
                    eq = dq == [b - a for a, b in zip(t1, t2)] and all(c % r == 0 for c in dq)
                pairs.append((_canon(mono, two_r), eq))
        return ("bq", True, tuple(rows), tuple(pairs))

    # -- workloads -----------------------------------------------------------

    def spec_stream(self, item: dict):
        return self.bq(item) if item["kind"] == "bq" else self.alg(item)

    def triplet_census(self, item: dict):
        s, n, r = item["series"], item["rank"], item["r"]
        order = int(sympy.Matrix(cartan(s, n)[0]).det()) * r ** n
        lattice = [[r * c for c in a] for a in roots(s, n)]
        ribbon = self.ribbon(s, n, 2 * r, lattice, None)
        return (order, order, True, True, ribbon, (",".join(["0"] * n),), "0", order)

    def cocycle_box(self, item: dict):
        """The normal form from its defining sum, a seeded single-entry
        perturbation that the library must reject, and the in-box pair count."""
        box, ell = item["box"], item["ell"]
        basis = item["lattice"] + ([item["mu"]] if item["mu"] is not None else [])
        g = self.gram(item["series"], item["rank"])
        pm = [[_fr(self.pair(g, a, b)) for b in basis] for a in basis]
        dims = len(basis)
        vecs = list(product(range(-box, box + 1), repeat=dims))
        entries = {}
        for v1 in vecs:
            for v2 in vecs:
                e = sum(v2[k] * sum(v1[i] * pm[i][k] for i in range(k + 1, dims)) for k in range(dims))
                entries[(v1, v2)] = Fraction(e) % ell
        expected_hash = hash(frozenset(entries.items()))

        u = self.u
        datum, spec = cocycle_spec(u, item)
        table = u.structure_constant_table(spec, box)
        in_box = lambda v: all(-box <= c <= box for c in v)
        # Any entry (a, b) with a, b nonzero, a != b and a + b in the box
        # sits in the associativity triple (x, a, b) for a unit vector x,
        # so changing it alone must break validity.
        candidates = sorted(
            (a, b) for a, b in table.entries
            if any(a) and any(b) and a != b and in_box(tuple(x + y for x, y in zip(a, b)))
        )
        key = random.Random(item["perturb_seed"]).choice(candidates)
        broken = dict(table.entries)
        broken[key] = u.exponent(broken[key].value + 1, ell)
        rejected = not u.cocycle_check(u.CocycleTable(table.generators, box, ell, broken), datum).valid
        per_axis = 3 * box * box + 3 * box + 1
        if not rejected:
            return ("perturbed table reported valid", key)
        return (True, item["mu"] is None, True, per_axis ** dims, expected_hash)

    # -- cli-mix -------------------------------------------------------------

    def cli(self, req: dict, code, out: str) -> bool:
        key = (id(req), code, out)
        if key not in self._cache:
            self._cache[key] = self._cli(req, code, out)
        return self._cache[key]

    def _cli(self, req: dict, code, out: str) -> bool:
        if code != req["exit"]:
            return False
        if code != 0:
            return out == ""
        item, cmd = req["item"], req["cmd"]
        if cmd == "census":
            exp = self.alg(item)
            n = item["rank"]
            lines = [line for line in out.splitlines() if line.strip()]
            return len(lines) == exp[1] and (",".join(["0"] * n) + "\t0\tq^{0}") in lines
        data = json.loads(out)
        if cmd == "datum":
            g = self.gram(item["series"], item["rank"])
            gram = [[str(_fr(x)) for x in g.row(i)] for i in range(g.rows)]
            return data["gram"] == gram and data["r"] == r_of(item["ell"])
        if cmd == "triplet":
            order, _, _, _, ribbon, _, _, _ = self.triplet_census(item)
            zero = ["0"] * item["rank"]
            return (data["order"] == order == data["expected_order"] and data["match"]
                    and data["commutative"] and data["ribbon"] == ribbon
                    and data["muger"]["transparent_reps"] == [zero]
                    and len(data["twists"]) == order
                    and {"rep": zero, "exponent": "0", "scalar": "q^{0}"} in data["twists"])
        if cmd == "bq":
            _, comm, rows, _ = self.bq(item)
            return data["commutative"] == comm and [
                (w["twist"]["exponent"], w["local"], w["transparent"]) for w in data["weights"]
            ] == [tuple(r) for r in rows]
        exp = self.alg(item)
        zero = ["0"] * item["rank"]
        if cmd == "check-algebra":
            key = "commutative" if item["mu"] is None else "supercommutative"
            return data[key] == (exp[0] != "invalid")
        if cmd == "ribbon":
            return data["verdict"] == exp[4]
        if cmd == "twists":
            return (data["order"] == exp[1] and len(data["twists"]) == exp[1]
                    and {"rep": zero, "exponent": "0", "scalar": "q^{0}"} in data["twists"]
                    and all(t["exponent"] == self.twist(item, t["rep"]) for t in data["twists"]))
        if cmd == "monodromy":
            return (len(data["pairs"]) == exp[1] * (exp[1] + 1) // 2
                    and all(p["exponent"] == self.monodromy(item, p["a"], p["b"]) for p in data["pairs"]))
        if cmd == "muger":
            return data["transparent_reps"] == [zero] and data["trivial"] is True
        raise ValueError(f"no known answer for command {cmd!r}")
