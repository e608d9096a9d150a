"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

A :class:`FieldSpec` only names the field; it selects the storage and the
elimination kernel of a matrix (:mod:`frozenrank.exactla`).  Elements are
plain values in canonical form, so equality of values is equality of
representations: an int in ``[0, p)`` over F_p, a reduced ``Fraction`` over
Q.  The two-element field is an ordinary prime field here; matrices
eliminate over it on rows held as Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .prf import Stream

PRIME_LIMIT = 1 << 31  # products of residues must fit in 64-bit intermediates

#: Fixed pool of nonzero rationals used by random weight draws over Q.
#: Bounded numerators/denominators keep exact elimination affordable.
RATIONAL_POOL = (
    Fraction(1), Fraction(-1),
    Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2),
    Fraction(3), Fraction(-3),
    Fraction(1, 3), Fraction(-1, 3),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Selects the coefficient field: F_p (2 <= p < 2^31, prime) or Q."""

    kind: str  # "prime" | "rationals"
    p: int | None = None

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if not isinstance(p, int) or not (2 <= p < PRIME_LIMIT):
            raise ValueError(f"prime field characteristic must satisfy 2 <= p < 2^31, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return FieldSpec("prime", p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals", None)

    @property
    def is_gf2(self) -> bool:
        return self.kind == "prime" and self.p == 2

    def label(self) -> str:
        """Text label used in file formats and CSV: "F2", "Fp:<p>" or "Q"."""
        if self.kind == "rationals":
            return "Q"
        return "F2" if self.p == 2 else f"Fp:{self.p}"

    @staticmethod
    def parse_label(text: str) -> "FieldSpec":
        t = text.strip()
        if t == "Q":
            return FieldSpec.rationals()
        if t == "F2":
            return FieldSpec.prime(2)
        if t.startswith("Fp:"):
            try:
                return FieldSpec.prime(int(t[3:]))
            except ValueError as exc:
                raise ValueError(f"bad field label {text!r}: {exc}") from exc
        raise ValueError(f"unknown field label {text!r} (expected F2, Fp:<p> or Q)")

    def element(self, value) -> int | Fraction:
        """``value`` (an int or a Fraction) in canonical form: an int in
        ``[0, p)`` over F_p, a reduced ``Fraction`` of Python ints over Q.
        Over F_p a value that is not an integer raises ``ValueError``; over
        Q, so does one that is not an int (bools excluded) or a Fraction, so
        that no float or str is converted silently.  This is the one rule
        for entries and weights: :class:`~frozenrank.randgraph.Graph` checks
        its Q weights here too."""
        if self.kind == "prime":
            if type(value) is int:
                return value % self.p
            if isinstance(value, Integral) or (isinstance(value, Fraction)
                                               and value.denominator == 1):
                return int(value) % self.p
            raise ValueError(f"{value!r} is not an integer, so not an element of "
                             f"{self.label()}")
        if isinstance(value, Fraction):
            return value  # immutable, and Fraction(value) would normalise nothing
        if isinstance(value, Integral) and not isinstance(value, bool):
            return Fraction(int(value))  # not numpy's ints, which wrap round
        raise ValueError(f"Q takes ints or Fractions, not {value!r}")

    def one(self) -> int | Fraction:
        return self.element(1)

    def parse_entry(self, token: str) -> int | Fraction:
        """Parse a text entry: decimal residue, or "num/den" over Q."""
        return self.element(int(token) if self.kind == "prime" else Fraction(token))


def sample_nonzero(stream: Stream, spec: FieldSpec) -> int | Fraction:
    """Uniform nonzero element; over Q, uniform on RATIONAL_POOL."""
    if spec.kind == "prime":
        return 1 + stream.randbelow(spec.p - 1)
    return RATIONAL_POOL[stream.randbelow(len(RATIONAL_POOL))]
