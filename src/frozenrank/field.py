"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

The two-element field is an ordinary prime field here; matrices eliminate
over it on rows held as Python ints.  Elements are immutable and canonical,
so equality of values is equality of representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def element(self, value) -> "FieldElement":
        """Canonicalize an int/Fraction/FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if self.kind == "prime":
            return FieldElement(self, int(value) % self.p)
        return FieldElement(self, Fraction(value))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def parse_entry(self, token: str) -> "FieldElement":
        """Parse a text entry: decimal residue, or "num/den" over Q."""
        if self.kind == "prime":
            return self.element(int(token))
        return FieldElement(self, Fraction(token))


class FieldElement:
    """Immutable field element in canonical form.

    Prime fields store the residue in [0, p); rationals a reduced Fraction.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):  # pragma: no cover - defensive
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise ValueError("mixed-field operands")

    def __add__(self, other):
        self._check(other)
        if self.spec.kind == "prime":
            return FieldElement(self.spec, (self.value + other.value) % self.spec.p)
        return FieldElement(self.spec, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        if self.spec.kind == "prime":
            return FieldElement(self.spec, (self.value - other.value) % self.spec.p)
        return FieldElement(self.spec, self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        if self.spec.kind == "prime":
            return FieldElement(self.spec, (self.value * other.value) % self.spec.p)
        return FieldElement(self.spec, self.value * other.value)

    def __neg__(self):
        if self.spec.kind == "prime":
            return FieldElement(self.spec, (-self.value) % self.spec.p)
        return FieldElement(self.spec, -self.value)

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        if self.spec.kind == "prime":
            return FieldElement(self.spec, pow(self.value, self.spec.p - 2, self.spec.p))
        return FieldElement(self.spec, 1 / self.value)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.spec == self.spec
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.spec, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FieldElement({self.spec.label()}, {self.value})"


def sample_nonzero(stream: Stream, spec: FieldSpec) -> FieldElement:
    """Uniform nonzero element; over Q, uniform on RATIONAL_POOL."""
    if spec.kind == "prime":
        return FieldElement(spec, 1 + stream.randbelow(spec.p - 1))
    return FieldElement(spec, RATIONAL_POOL[stream.randbelow(len(RATIONAL_POOL))])
