import itertools
from fractions import Fraction

import pytest

from tautilt import sttilt as st
from tautilt.fields import QQ, FieldError, PrimeField

from conftest import read_algebra


def normal(q):
    """An int when integral, a Fraction with denominator > 1 otherwise."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def test_integral_results_are_ints():
    for q in (QQ.div(4, 2), QQ.mul(Fraction(1, 2), 2), QQ.from_string("6/3"),
              QQ.add(Fraction(1, 3), Fraction(2, 3)), QQ.inv(Fraction(1, 3)),
              QQ.zero, QQ.one, QQ.from_int(5)):
        assert type(q) is int


def test_non_integral_results_are_fractions():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction


def test_no_operation_leaves_the_normal_form():
    values = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3),
              Fraction(5, 4), Fraction(3, 1)]
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: Fraction(a) / b}
    for a, b in itertools.product(values, repeat=2):
        for name, exact in ops.items():
            if name == "div" and b == 0:
                with pytest.raises(ZeroDivisionError):
                    QQ.div(a, b)
                continue
            q = getattr(QQ, name)(a, b)
            assert normal(q) and q == exact(a, b), (name, a, b, q)
        if normal(a):  # neg keeps the form it is given
            assert normal(QQ.neg(a)) and QQ.neg(a) == -a
        if a != 0:
            assert normal(QQ.inv(a)) and QQ.inv(a) == 1 / Fraction(a)
    for s in ("0", "-4", "6/3", "1/2", "-10/4"):
        assert normal(QQ.from_string(s)) and QQ.from_string(s) == Fraction(s)


def test_ints_and_fractions_print_and_hash_alike():
    for n in (0, -1, 12):
        assert QQ.to_string(n) == QQ.to_string(Fraction(n)) == str(n)
        assert hash(n) == hash(Fraction(n)) and n == Fraction(n)


def test_bad_literals_are_field_errors():
    F3 = PrimeField(3)
    for field, literal in ((QQ, "1/0"), (QQ, "x"), (F3, "1/3"),
                           (F3, "2/6"), (F3, "1.5"), (F3, "1/")):
        with pytest.raises(FieldError):
            field.from_string(literal)
    assert F3.from_string("1/2") == 2 and F3.from_string("-1") == 2


def _scalars(rep):
    for m in (rep.f1, rep.f0):
        for elem in m.entries.values():
            yield from elem.values()


def test_enumeration_scalars_stay_normal():
    alg = read_algebra("a4.alg")
    assert st.enumerate_sttilt(alg).node_count() == 42
    seen = 0
    for (shift, _, _), hs in alg.hom_memo.items():
        # at shifts +-1 the class rows are the only coordinates
        spaces = [hs.homotopies, hs.classes]
        reps = hs.reps if shift == 0 else ()
        for q in itertools.chain(
                *(_scalars(rep) for rep in reps),
                *(row.values() for s in spaces for row in s.reduced)):
            assert normal(q), q
            seen += 1
    assert seen
