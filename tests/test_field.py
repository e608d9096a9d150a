"""Fields: validation, labels, canonical plain values, sampling."""

from fractions import Fraction

import numpy as np
import pytest

from frozenrank.exactla import Matrix, field_array
from frozenrank.field import RATIONAL_POOL, FieldSpec, is_prime, sample_nonzero
from frozenrank.prf import Stream
from frozenrank.randgraph import WeightTemplate

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F31 = FieldSpec.prime(31)
Q = FieldSpec.rationals()


def test_prime_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31)  # above the 64-bit-intermediate bound
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31 - 2)
    assert FieldSpec.prime(2**31 - 1).p == 2147483647


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in range(2, 100):
        assert is_prime(n) == (n in primes or all(n % k for k in range(2, n)))


def test_canonical_residues():
    assert F5.element(12) == 2
    assert F5.element(-1) == 4
    assert Q.element(Fraction(2, -4)) == Fraction(-1, 2)
    assert Q.element(Fraction(2, -4)).denominator == 2


def test_labels_roundtrip():
    for spec in (F2, F5, FieldSpec.prime(101), Q):
        assert FieldSpec.parse_label(spec.label()) == spec
    assert FieldSpec.parse_label("Fp:2") == F2
    with pytest.raises(ValueError):
        FieldSpec.parse_label("F3")
    with pytest.raises(ValueError):
        FieldSpec.parse_label("Fp:nine")


def test_rendering():
    assert str(F7.element(5)) == "5"
    assert str(Q.element(Fraction(-1, 3))) == "-1/3"
    assert str(Q.element(2)) == "2"


def test_sample_nonzero_gf2_always_one():
    stream = Stream(9)
    assert all(sample_nonzero(stream, F2) == 1 for _ in range(50))


def test_sample_nonzero_reproducible():
    a = [sample_nonzero(Stream(1234), F3) for _ in range(3)]
    b = [sample_nonzero(Stream(1234), F3) for _ in range(3)]
    assert a == b and set(a) <= {1, 2}


def test_sample_nonzero_rational_pool():
    stream = Stream(7)
    seen = {sample_nonzero(stream, Q) for _ in range(500)}
    assert seen <= set(RATIONAL_POOL)
    assert len(seen) == len(RATIONAL_POOL)  # all pool members show up


def test_modular_arithmetic_matches_integers():
    # the dense kernel adds and multiplies residues in the storage of
    # field_array, so the product of two residues must not wrap; 46337 and
    # 2^31 - 1 are the largest primes held in int32 and in int64
    stream = Stream(31337)
    for p in (46337, 2**31 - 1):
        spec = FieldSpec.prime(p)
        xs = [stream.randbelow(p) for _ in range(10_000)] + [p - 1]
        ys = [stream.randbelow(p) for _ in range(10_000)] + [p - 1]
        a, b = field_array(spec, xs), field_array(spec, ys)
        assert ((a + b) % p).tolist() == [(x + y) % p for x, y in zip(xs, ys)]
        assert ((a * b) % p).tolist() == [(x * y) % p for x, y in zip(xs, ys)]
        assert ((a - b) % p).tolist() == [(x - y) % p for x, y in zip(xs, ys)]


@pytest.mark.parametrize("spec", [F2, FieldSpec.prime(2**31 - 1), Q], ids=lambda s: s.label())
def test_values_are_plain_ints_or_fractions(spec):
    # every value handed out is a Python int, never a numpy scalar, or over Q
    # a Fraction, never an int
    plain = Fraction if spec.kind == "rationals" else int
    A = Matrix.from_rows(spec, [[1, 0, 1], [0, 1, 1]])
    basis = A.kernel_basis()
    assert len(basis) == 1
    values = [spec.element(3), spec.element(Fraction(6, 2)), spec.one(),
              spec.parse_entry("-1/2" if plain is Fraction else "-1"),
              sample_nonzero(Stream(2), spec), A.entry(0, 2), A.entry(1, 0), *basis[0],
              WeightTemplate(spec, 5).entry(0, 1),
              WeightTemplate(spec, 5, "random", seed=3).entry(4, 1)]
    assert [type(x) for x in values] == [plain] * len(values)


@pytest.mark.parametrize("value", (Fraction(1, 2), 2.7, 3.0, "3"))
def test_prime_field_refuses_non_integers(value):
    with pytest.raises(ValueError, match="not an integer"):
        F3.element(value)
    with pytest.raises(ValueError, match="not an integer"):
        Matrix.from_rows(F3, [[value, 1]])


@pytest.mark.parametrize("value", (0.1, 2.0, "1/2", "3", True, False, None, 1j))
def test_rationals_take_only_ints_and_fractions(value):
    # the rule Graph applies to its Q weights: a float or a str is refused,
    # not converted
    with pytest.raises(ValueError, match="ints or Fractions"):
        Q.element(value)
    with pytest.raises(ValueError, match="ints or Fractions"):
        Matrix.from_rows(Q, [[value, Fraction(1, 2)]])
    A = Matrix.from_rows(Q, [[1, Fraction(1, 2)]])
    with pytest.raises(ValueError, match="ints or Fractions"):
        A.append_row([Fraction(1, 3), value])
    with pytest.raises(ValueError, match="ints or Fractions"):
        A.append_col([value])


def test_rationals_take_ints_of_any_type_and_parse_text():
    import numpy as np

    x = Q.element(np.int64(-4))
    assert x == -4 and type(x) is Fraction and type(x.numerator) is int
    assert Q.element(Fraction(6, -4)) == Fraction(-3, 2)
    assert Q.parse_entry("-6/4") == Fraction(-3, 2) and Q.parse_entry("7") == 7
    A = Matrix.from_rows(Q, [[1, Fraction(1, 2)]]).append_row([np.int64(2), 0])
    assert A.to_values() == [[1, Fraction(1, 2)], [2, 0]]


def test_prime_field_takes_integer_values_of_any_type():
    import numpy as np

    assert F5.element(Fraction(-6, 2)) == 2
    assert F5.element(np.int64(12)) == 2 and type(F5.element(np.int64(12))) is int
    assert F5.element(True) == 1


def test_rational_element_keeps_a_fraction_and_converts_ints():
    # a Fraction is immutable and already reduced, so it is returned as it
    # is; ints, numpy ints included, become Fractions of Python ints
    fr = Fraction(-6, 4)
    assert Q.element(fr) is fr
    for value, want in ((3, Fraction(3)), (np.int64(-7), Fraction(-7)),
                        (np.uint8(200), Fraction(200)), (2**70, Fraction(2**70))):
        got = Q.element(value)
        assert type(got) is Fraction and got == want
        assert type(got.numerator) is int and type(got.denominator) is int
    for value in (0.5, 2.0, "3", True, False):
        with pytest.raises(ValueError, match="ints or Fractions"):
            Q.element(value)


def test_prime_element_takes_ints_and_refuses_the_rest():
    for value, want in ((12, 2), (np.int64(-1), 4), (Fraction(10, 2), 0), (True, 1)):
        got = F5.element(value)
        assert type(got) is int and got == want
    for value in (2.7, 3.0, "3", Fraction(1, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            F5.element(value)
