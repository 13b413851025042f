"""B_Q(r) on the algebra layer, and the integer forms of the exact tests.

pairing_matrix, in_root_lattice, check_ribbon, bq_check_commutative and
the twist and monodromy exponents run on integer numerators; each is
checked here against the Fraction formula it replaced, written out with
pairing and is_multiple.  Guards keep it that way: outside the oracle no
module calls is_multiple or is_integer, neither _linalg nor the CLI
imports anything from fractions, reading a rational string builds no
Fraction, and the passing paths build none either.
"""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from helpers import ALL_TYPES, alpha_coordinates, draw_commutativity_specs, draw_super_specs, fundamental_weight
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_weight import count_fractions, rational_strings

import uproll
from uproll import (
    AlgebraSpec,
    BqSpec,
    ExtWeight,
    RationalLattice,
    Weight,
    bq_check_commutative,
    bq_equivalent,
    bq_is_local,
    bq_monodromy_exponent,
    bq_twist_exponent,
    build_cartan_datum,
    census_twists,
    check_ribbon,
    in_root_lattice,
    monodromy_exponent,
    simple_census,
    twist_exponent,
    weight,
)
from uproll.cartan import pairing_matrix
from uproll.errors import DimensionMismatch, HypothesisViolated, OddEll
from uproll.oracle import is_multiple, pairing

SMALL_TYPES = [(s, n) for s, n in ALL_TYPES if n <= 4]


def ints(n, lo=-3, hi=3):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n)


def rational_rows(n):
    return st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=n, max_size=n
    )


def draw_datum(data, types, ells):
    series, rank = data.draw(st.sampled_from(types))
    try:
        return build_cartan_datum(series, rank, data.draw(st.sampled_from(ells)))
    except HypothesisViolated:
        assume(False)


def naive_bq_commutative(spec: BqSpec) -> bool:
    """The Fraction formula: c<g, g> in 2r*Z and c<g, h> in r*Z, c = 1 + r a**2."""
    datum, r = spec.algebra.datum, spec.algebra.datum.r
    c = 1 + r * spec.a_squared
    gens = spec.algebra.generators
    for i, g in enumerate(gens):
        if not is_multiple(c * pairing(datum, g, g), 2 * r):
            return False
        for h in gens[i + 1 :]:
            if not is_multiple(c * pairing(datum, g, h), r):
                return False
    return True


def naive_ribbon_witnesses(spec: AlgebraSpec) -> tuple:
    datum = spec.datum
    factor = 2 * (1 - datum.r)
    out = []
    for i, g in enumerate(spec.generators):
        val = factor * pairing(datum, g, datum.rho)
        if not is_multiple(val, datum.ell):
            out.append(("generator", i, val))
    return tuple(out)


class TestPairingMatrix:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_fraction_pairings_over_the_least_denominator(self, data):
        datum = draw_datum(data, ALL_TYPES, [7])
        count = data.draw(st.integers(0, 4))
        weights = [weight(data.draw(rational_rows(datum.rank))) for _ in range(count)]
        pairs, p = pairing_matrix(datum, weights)
        assert p >= 1 and gcd(p, *(x for row in pairs for x in row)) == 1
        assert [[Fraction(x, p) for x in row] for row in pairs] == [
            [pairing(datum, a, b) for b in weights] for a in weights
        ]

    def test_a_weight_of_the_wrong_length_is_refused(self):
        datum = build_cartan_datum("A", 2, 4)
        with pytest.raises(DimensionMismatch):
            pairing_matrix(datum, [weight([1, 0]), weight([1])])


class TestExponents:
    @pytest.mark.parametrize("series,rank", ALL_TYPES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_match_the_fraction_formulas(self, series, rank, data):
        # B, C, F4 and G2 have an asymmetric form on omega coordinates, so
        # they check the doubled off-diagonal terms of the twist form.
        datum = draw_datum(data, [(series, rank)], [5, 6, 7, 8, 12])
        lam, mu = (weight(data.draw(rational_rows(rank))) for _ in range(2))
        twist = pairing(datum, lam, lam + 2 * (1 - datum.r) * datum.rho)
        e = twist_exponent(datum, lam)
        assert (e.value, e.modulus) == (twist, datum.ell)
        m = monodromy_exponent(datum, lam, mu)
        assert (m.value, m.modulus) == (2 * pairing(datum, lam, mu), datum.ell)
        if datum.ell % 2 == 0:
            w = ExtWeight(lam, mu)
            assert bq_twist_exponent(datum, w).value == twist - pairing(datum, mu, mu)

    def test_the_exponent_paths_build_no_fractions(self, monkeypatch):
        datum = build_cartan_datum("B", 2, 8)
        spec = AlgebraSpec(datum, [4 * a for a in datum.simple_roots])
        census = simple_census(spec)
        reps = list(census.reps)
        assert len(reps) == 64
        ws = [ExtWeight(a, b) for a, b in zip(reps, reversed(reps))]
        made = count_fractions(monkeypatch)
        Fraction(1, 2)
        assert made == [(1, 2)]  # the counter sees constructions
        made.clear()

        twists = [twist_exponent(datum, lam) for lam in reps]
        assert list(census_twists(datum, census).values()) == twists
        # The twist's additivity defect is the monodromy, on both sides.
        for a, b in zip(reps, reps[1:]):
            t = [twist_exponent(datum, lam) for lam in (a + b, a, b)]
            assert t[0] - t[1] - t[2] == monodromy_exponent(datum, a, b)
        for x, y in zip(ws, ws[1:]):
            t = [bq_twist_exponent(datum, w) for w in (x + y, x, y)]
            assert t[0] - t[1] - t[2] == bq_monodromy_exponent(datum, x, y)
        assert made == []


class TestInRootLattice:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_integral_alpha_coordinates(self, data):
        datum = draw_datum(data, ALL_TYPES, [7])
        roots = data.draw(ints(datum.rank))
        lam = sum((k * a for k, a in zip(roots, datum.simple_roots)), Weight.zero(datum.rank))
        # Off the root lattice about half the time: a fundamental weight or a fraction.
        shift = data.draw(st.sampled_from(["none", "omega", "fraction"]))
        if shift == "omega":
            lam = lam + fundamental_weight(datum, data.draw(st.integers(0, datum.rank - 1)))
        elif shift == "fraction":
            lam = lam + weight(data.draw(rational_rows(datum.rank)))
        coords = alpha_coordinates(datum, lam)
        # The coordinates rebuild the weight, independently of how they are read.
        rebuilt = sum((c * a for c, a in zip(coords, datum.simple_roots)), Weight.zero(datum.rank))
        assert rebuilt == lam
        expected = all(c.denominator == 1 for c in coords)
        assert in_root_lattice(datum, lam) == expected
        if shift == "none":
            assert expected


class TestBqCommutative:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_fraction_formula_for_each_sign_of_c(self, data):
        datum = draw_datum(data, SMALL_TYPES, [4, 6, 8, 10, 12])
        sign = data.draw(st.sampled_from([-1, 0, 1]))
        c = sign * data.draw(st.fractions(min_value=1, max_value=12, max_denominator=6))
        a_squared = (c - 1) / datum.r
        generators = None  # r * P
        if data.draw(st.booleans()):
            half = datum.ell // 2
            count = data.draw(st.integers(0, 3))
            generators = [half * weight(data.draw(ints(datum.rank))) for _ in range(count)]
        spec = BqSpec(datum, generators, a_squared)
        assert 1 + datum.r * spec.a_squared == c
        assert bq_check_commutative(spec) == naive_bq_commutative(spec)

    def test_both_verdicts_occur(self):
        # On 3P for A2, <g, g> lies in 6Z and <g, h> in 3Z: c = 0 and c = 2
        # pass, c = 1/2 fails on the diagonal.
        datum = build_cartan_datum("A", 2, 6)
        assert bq_check_commutative(BqSpec(datum))
        assert bq_check_commutative(BqSpec(datum, a_squared=Fraction(1, 3)))
        assert not bq_check_commutative(BqSpec(datum, a_squared=Fraction(-1, 6)))


class TestBqLocality:
    def test_the_formula_is_refused_off_the_special_value(self):
        # a**2 = 1/3 on A1 at ell = 4: the formula's answer True would
        # contradict the failed commutativity check.
        spec = BqSpec(build_cartan_datum("A", 1, 4), a_squared=Fraction(1, 3))
        assert spec.algebra.lattice == RationalLattice(1, ((2,),), 1) and not spec.is_standard
        assert not bq_check_commutative(spec)
        with pytest.raises(ValueError, match="a\\*\\*2"):
            bq_is_local(spec, ExtWeight(weight([1]), weight([1])))

    @pytest.mark.parametrize(
        "series,rank,ell", [("A", 2, 4), ("A", 2, 6), ("D", 4, 4), ("D", 4, 6)]
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_trivial_monodromy_on_every_generator(self, series, rank, ell, data):
        datum = build_cartan_datum(series, rank, ell)
        spec = BqSpec(datum)
        qg = weight(data.draw(rational_rows(rank)))
        root = sum(
            (k * a for k, a in zip(data.draw(ints(rank)), datum.simple_roots)), Weight.zero(rank)
        )
        omegas = [fundamental_weight(datum, i) for i in range(rank)]
        off = data.draw(st.sampled_from([Weight.zero(rank), *omegas]))
        w = ExtWeight(qg, qg - root - off)
        trivial = all(
            bq_monodromy_exponent(datum, w, ExtWeight(g, g)).canonical == 0 for g in spec.algebra.generators
        )
        assert bq_is_local(spec, w) == trivial
        if off.is_zero:
            assert trivial


def test_bq_verdicts_leave_the_c_equals_one_verdict_unrun():
    # The currents' own verdict is the check at c = 1; the B_Q functions
    # scale by c = 1 + r a**2 instead and must not read it.
    datum = build_cartan_datum("A", 2, 4)
    spec = BqSpec(datum)
    w = ExtWeight(weight([1, 0]), weight([1, 0]))
    assert bq_check_commutative(spec) is True and bq_is_local(spec, w) and bq_equivalent(spec, w, w)
    assert spec.algebra.verdict.commutative is False
    assert len(spec.algebra.verdict.witnesses) == 3


def test_bq_monodromy_refuses_odd_ell():
    datum = build_cartan_datum("A", 1, 5)
    w = ExtWeight(weight([1]), weight([0]))
    with pytest.raises(OddEll):
        bq_monodromy_exponent(datum, w, w)


class TestRibbon:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_the_odd_condition_holds_on_half_ell_times_p(self, data):
        datum = draw_datum(data, ALL_TYPES, list(range(3, 15)))
        mu = Fraction(datum.ell, 2) * weight(data.draw(ints(datum.rank, -4, 4)))
        val = 2 * (1 - datum.r) * pairing(datum, mu, datum.rho)
        assert is_multiple(val, Fraction(datum.ell, 2))

    def test_generator_witnesses_match_the_fraction_scan(self):
        specs = draw_commutativity_specs(5, 300)
        specs += draw_super_specs(specs)
        valid = [spec for spec in specs if spec.verdict]
        seen = set()
        for spec in valid:
            verdict = check_ribbon(spec)
            naive = naive_ribbon_witnesses(spec)
            assert verdict.witnesses == naive
            assert verdict.status == ("inconclusive" if naive else "ribbon")
            seen.add((spec.mu is not None, bool(naive)))
        # The drawn superalgebras double their even generators, which are then
        # always ribbon: 2(1-r)<g, rho> lies in (ell/2)Z for g in (ell/2)P.
        assert seen == {(False, False), (False, True), (True, False)}


def test_only_the_oracle_calls_is_multiple_or_is_integer():
    src = Path(uproll.__file__).parent
    callers = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("is_multiple", "is_integer")
        ]
        if lines:
            callers[path.name] = lines
    assert "oracle.py" in callers  # the walk finds the calls it looks for
    assert set(callers) == {"oracle.py"}, callers


def fractions_imports(name: str) -> set:
    """The modules of the fractions package that the uproll file name imports."""
    tree = ast.parse((Path(uproll.__file__).parent / name).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "__future__" in modules  # the walk finds the imports it looks for
    return {m for m in modules if m and m.partition(".")[0] == "fractions"}


def test_linalg_imports_nothing_from_fractions():
    assert not fractions_imports("_linalg.py")


def test_cli_imports_nothing_from_fractions():
    # The CLI reads every rational through cartan._ratio.
    assert not fractions_imports("cli.py")


@settings(max_examples=200, deadline=None)
@given(strings=st.lists(rational_strings, min_size=1, max_size=4))
@example(["3/2", "-007/0140", "4.0", " 4", "4_0", "1e1", "+4", "\u0664", "3/0"])
def test_reading_strings_builds_no_fractions(strings):
    with pytest.MonkeyPatch.context() as patch:
        made = count_fractions(patch)
        for s in strings:
            try:
                weight([s])
            except (ValueError, ZeroDivisionError):
                pass
    assert made == []


def test_verdict_paths_build_no_fractions(monkeypatch):
    a2 = build_cartan_datum("A", 2, 6)
    a1, al2 = a2.simple_roots
    even = AlgebraSpec(a2, [3 * a1, 3 * al2])
    a1_4 = build_cartan_datum("A", 1, 4)
    odd = AlgebraSpec(a1_4, [weight([4])], mu=weight([2]))
    weights = [Weight([1, -2], 3), Weight([5, 7], 2), 3 * a1]
    bq = BqSpec(build_cartan_datum("D", 4, 6))
    g = bq.algebra.generators[0]
    locals_ = [ExtWeight(g, g), ExtWeight(weight([1, 0, 0, 0]), weight([1, 0, 0, 0]))]
    made = count_fractions(monkeypatch)

    assert even.verdict and odd.verdict
    assert check_ribbon(even) and check_ribbon(odd)
    pairing_matrix(a2, weights)
    for w in weights:
        in_root_lattice(a2, w)
    assert bq_check_commutative(bq)
    for w in locals_:
        assert bq_is_local(bq, w)
        assert bq_equivalent(bq, w, locals_[0]) == (w == locals_[0])
    assert made == []


def test_building_a_spec_and_its_verdict_builds_no_fractions(monkeypatch):
    # A spec takes its verdict when it is built, so the count starts first.
    a2 = build_cartan_datum("A", 2, 6)
    a1, al2 = a2.simple_roots
    a1_4 = build_cartan_datum("A", 1, 4)
    gens, odd_gens, mu = [3 * a1, 3 * al2], [weight([4])], weight([2])
    made = count_fractions(monkeypatch)
    even, odd = AlgebraSpec(a2, gens), AlgebraSpec(a1_4, odd_gens, mu=mu)
    assert even.verdict and odd.verdict
    assert made == []
