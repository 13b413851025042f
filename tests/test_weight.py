"""Weight as integer numerators over one denominator.

A Weight stores (row, den) in lowest terms; everything it offers is
checked against the plain model it replaced, a tuple of Fractions.  The
hot paths that read a weight's integers are guarded against building any
Fraction, and outside cartan and the oracle no module reads the derived
coords.
"""

import ast
import pickle
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uproll
from uproll import (
    AlgebraSpec,
    Weight,
    adjoin,
    build_cartan_datum,
    canonical_basis,
    coset_reduce,
    in_simple_current_lattice,
    is_local,
    simple_census,
    weight,
)
from uproll.cartan import scaled_coords

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
models = st.integers(0, 4).flatmap(lambda n: st.lists(rationals, min_size=n, max_size=n))
# Two models of one length.
pairs = st.integers(0, 4).flatmap(
    lambda n: st.tuples(*(st.lists(rationals, min_size=n, max_size=n),) * 2)
)

# Strings in and around the rational grammar -?[0-9]+(/[0-9]+)?: signs,
# leading zeros, empty parts, zero denominators, decimals, exponents,
# underscores, whitespace, and digits outside ASCII ('\u0663' is a digit to
# Fraction, '\u00b2' is not, though str.isdigit accepts both).
STRING_PIECES = ["-", "+", "/", " ", "\t", ".", "e", "E", "_", "0", "7",
                 "\u0663", "\u00b2", "\uff13"]
GRAMMAR = re.compile("-?[0-9]+(/[0-9]+)?")  # [0-9] is ASCII only
rational_strings = st.one_of(
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", "", "-", "+", "--", " "]),
            st.text("0123456789", max_size=4),
            st.sampled_from(["", "", "/", ".", "e", "_"]),
            st.text("0123456789", max_size=3),
        ),
    ),
    st.lists(st.sampled_from(STRING_PIECES + list("123")), max_size=6).map("".join),
)


class TestModel:
    @settings(max_examples=150, deadline=None)
    @given(model=models)
    def test_fields_coords_hash_repr_and_strings(self, model):
        model = tuple(model)
        w = Weight(model)
        assert w.den > 0 and gcd(w.den, *w.row) == 1
        assert tuple(Fraction(a, w.den) for a in w.row) == model
        assert w.coords == model
        assert all(type(c) is Fraction for c in w.coords)
        assert len(w) == len(model)
        assert hash(w) == hash((w.row, w.den))
        assert w.coord_strings() == [str(c) for c in model]
        assert repr(w) == "Weight(%s)" % ", ".join(str(c) for c in model)
        assert w.is_zero == (not any(model))
        assert weight([str(c) for c in model]) == w

    @settings(max_examples=150, deadline=None)
    @given(pair=pairs)
    def test_equality_follows_the_model(self, pair):
        a, b = (tuple(m) for m in pair)
        assert (Weight(a) == Weight(b)) == (a == b)
        assert Weight(a) == Weight(list(a))

    @settings(max_examples=150, deadline=None)
    @given(pair=pairs, k=rationals, n=st.integers(-6, 6))
    def test_arithmetic_follows_the_model(self, pair, k, n):
        a, b = (tuple(m) for m in pair)
        wa, wb = Weight(a), Weight(b)
        assert (wa + wb).coords == tuple(x + y for x, y in zip(a, b))
        assert (wa - wb).coords == tuple(x - y for x, y in zip(a, b))
        assert (-wa).coords == tuple(-x for x in a)
        assert (wa * k).coords == (k * wa).coords == tuple(x * k for x in a)
        assert (n * wa).coords == tuple(n * x for x in a)
        assert (wa * str(k)) == wa * k

    @settings(max_examples=150, deadline=None)
    @given(
        nums=st.lists(st.integers(-50, 50), max_size=4),
        den=st.integers(1, 24),
        scale=st.integers(1, 6),
    )
    def test_constructor_over_a_denominator(self, nums, den, scale):
        expected = tuple(Fraction(a, den) for a in nums)
        assert Weight(nums, den).coords == expected
        assert Weight.over(nums, den) == Weight(nums, den)
        # Fraction coordinates over a denominator: (a / scale) / den.
        assert Weight([Fraction(a, scale) for a in nums], den).coords == tuple(
            c / scale for c in expected
        )
        assert Weight(nums, den).coord_strings() == [str(c) for c in expected]

    @settings(max_examples=100, deadline=None)
    @given(model=models)
    def test_pickle_round_trip_keeps_the_canonical_fields(self, model):
        w = Weight(model)
        back = pickle.loads(pickle.dumps(w))
        assert back == w
        assert (back.row, back.den) == (w.row, w.den)
        assert hash(back) == hash(w)

    def test_negative_values_and_denominators_above_one(self):
        w = Weight([Fraction(-3, 4), Fraction(6, 4), 0, -2])
        assert (w.row, w.den) == ((-3, 6, 0, -8), 4)
        assert w.coord_strings() == ["-3/4", "3/2", "0", "-2"]
        assert (Weight([2, 4], 6).row, Weight([2, 4], 6).den) == ((1, 2), 3)
        assert (Weight.zero(3).row, Weight.zero(3).den) == ((0, 0, 0), 1)

    @settings(max_examples=400, deadline=None)
    @given(strings=st.lists(rational_strings, max_size=4))
    @example(["3/2", "-3", "0", "6"])
    @example(["-007/0140", "\u0663", "\u00b2"])
    @example(["+3", " 3", "1.5", "1e3", "1_0", "-", "", "3/", "/3", "3/0", "-0/00"])
    def test_strings_read_as_fraction_reads_them(self, strings):
        # A string of the grammar reads as Fraction reads it, and a zero
        # denominator raises ZeroDivisionError; every other string raises
        # ValueError, even one that Fraction reads.
        def outcome(build):
            try:
                return build()
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc)

        def expected(s):
            if not GRAMMAR.fullmatch(s):
                return ValueError
            if not int(s.partition("/")[2] or 1):
                return ZeroDivisionError
            return Weight([Fraction(s)])

        for s in strings:
            assert outcome(lambda: weight([s])) == expected(s)
        refused = [e for e in map(expected, strings) if isinstance(e, type)]
        whole = refused[0] if refused else Weight([Fraction(s) for s in strings])
        assert outcome(lambda: weight(strings)) == whole

    def test_a_denominator_below_one_is_refused(self):
        for den in (0, -2):
            with pytest.raises(ValueError, match=str(den)):
                Weight([1, 2], den)


def count_fractions(monkeypatch) -> list:
    """From now on, list the arguments of every Fraction construction."""
    made = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def test_hot_paths_build_no_fractions(monkeypatch):
    datum = build_cartan_datum("A", 2, 6)
    a1, a2 = datum.simple_roots
    spec = AlgebraSpec(datum, [3 * a1, 3 * a2])
    assert spec.verdict
    reps = simple_census(spec).reps
    probes = [Weight([1, -2], 3), Weight([5, 7], 2), Weight([3, 0]), reps[len(reps) // 2]]
    gens = [3 * a1, 3 * a2, Weight([3, 3], 2)]
    made = count_fractions(monkeypatch)
    Fraction(1, 2)
    assert made == [(1, 2)]  # the counter sees constructions
    made.clear()

    for w in probes:
        scaled_coords(datum, w)
        is_local(spec, w)
        in_simple_current_lattice(datum, w)
        coset_reduce(spec.lattice, w)
        adjoin(spec.lattice, w)
    canonical_basis(datum, gens)
    # The change of basis into the dual and the generator coefficients.
    assert simple_census(spec).order == len(reps)
    assert spec.coefficients(3 * a1 + 6 * a2) == (1, 2)
    assert list(reps)[3] == reps[3] == reps[3:4][0]
    assert reps[-1] in reps
    assert [reps.index(w) for w in reps] == list(range(len(reps)))
    # Hashing a weight, a set of weights and the census reps.
    w = weight(["1/2", 3, 0])
    hashes = [hash(w), len({*probes, *gens, w}), hash(reps)]
    assert made == []
    # Weights hash on their (row, den) fields.
    assert hashes == [hash(((1, 6, 0), 2)), len(probes) + len(gens) + 1, hash(tuple(reps))]


def coords_reads(source: str) -> list[int]:
    """The lines of the source that read an attribute named coords."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "coords"
    ]


def test_only_cartan_and_the_oracle_read_weight_coords():
    # The walk finds the reads it looks for, and not the property itself.
    assert coords_reads("def coords(self):\n    pass\nw.coords\n") == [3]
    src = Path(uproll.__file__).parent
    readers = {}
    for path in sorted(src.glob("*.py")):
        if lines := coords_reads(path.read_text(encoding="utf-8")):
            readers[path.name] = lines
    assert set(readers) <= {"cartan.py", "oracle.py"}, readers
