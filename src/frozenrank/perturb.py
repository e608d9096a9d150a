"""Coupled unit-row/unit-column perturbations.

A perturbation attaches a few random unit rows below a matrix (explicitly
freezing the hit columns) and a few random unit columns to its right
(which can unfreeze coordinates, like row removals).  The position picks
are coupled across matrix sizes: the pick of row ``k`` restricted to the
first ``n1`` columns is ``max{level <= n1 : u(k, level) == level}`` for an
independent array of uniforms ``u(k, level)`` on ``{1..level}``.  That
construction makes the matrices nested in both dimensions, keeps each pick
exactly uniform, and gives agreement probability ``(n0/n1)**theta_r``
between the restrictions to ``n0`` and ``n1`` columns.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .exactla import Matrix, block
from .field import FieldSpec
from .prf import (
    TAG_COL_FAMILY,
    TAG_ROW_FAMILY,
    Stream,
    _mix64_array,
    derive_seed,
    prf,
)


class PerturbationFamily:
    """Lazily explored array ``u(k, level)``, one independent pick per level.

    ``index(k, n1)`` is the 0-based position of the single nonzero entry of
    perturbation row/column ``k`` when restricted to the first ``n1``
    coordinates; it is uniform on ``range(n1)`` and nondecreasing level
    records make it monotone under the nesting coupling.  Memoization is
    lock-protected so families can be shared across threads.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._records: dict[int, list[int]] = {}
        self._depth: dict[int, int] = {}
        self._lock = threading.Lock()

    def u(self, k: int, level: int) -> int:
        """Uniform pick in ``1..level`` (always 1 at level 1)."""
        if level < 1:
            raise ValueError("levels start at 1")
        return 1 + prf(self.seed, k, level) % level

    def index(self, k: int, n1: int) -> int:
        """0-based nonzero position of row/column ``k`` within ``range(n1)``."""
        if n1 < 1:
            raise ValueError("n1 must be >= 1")
        with self._lock:
            records = self._records.setdefault(k, [1])
            depth = self._depth.get(k, 1)
            if n1 > depth:
                for level in range(depth + 1, n1 + 1):
                    if self.u(k, level) == level:
                        records.append(level)
                self._depth[k] = n1
            pos = bisect_right(records, n1)
            return records[pos - 1] - 1


def indices_over_seeds(family_seeds: np.ndarray, k: int, n1: int) -> np.ndarray:
    """Vectorized twin of :meth:`PerturbationFamily.index` over many seeds."""
    seeds = np.asarray(family_seeds, dtype=np.uint64)
    best = np.zeros(seeds.shape, dtype=np.int64)  # level 1 record, 0-based
    with np.errstate(over="ignore"):
        base = _mix64_array(seeds)
        for level in range(2, n1 + 1):
            h = _mix64_array(_mix64_array(base ^ np.uint64(k)) ^ np.uint64(level))
            u = 1 + (h % np.uint64(level)).astype(np.int64)
            best = np.where(u == level, level - 1, best)
    return best


@dataclass(frozen=True)
class CoupledFamilies:
    """Independent row and column families derived from one master seed."""

    rows: PerturbationFamily
    cols: PerturbationFamily

    @staticmethod
    def from_seed(master_seed: int) -> "CoupledFamilies":
        return CoupledFamilies(
            rows=PerturbationFamily(derive_seed(master_seed, 0, TAG_ROW_FAMILY)),
            cols=PerturbationFamily(derive_seed(master_seed, 0, TAG_COL_FAMILY)),
        )


@dataclass(frozen=True)
class PerturbationSpec:
    """Dimensions of a perturbation: ``theta_r`` unit rows, ``theta_c`` unit
    columns, drawn uniformly from ``{1..P}**2`` when sampled canonically."""

    theta_r: int
    theta_c: int
    P: int
    theta_seed: int = 0

    def __post_init__(self):
        if self.theta_r < 0 or self.theta_c < 0 or self.P < 1:
            raise ValueError("perturbation dimensions must be nonnegative, P >= 1")

    @staticmethod
    def draw(P: int, theta_seed: int) -> "PerturbationSpec":
        """Canonical draw: (theta_r, theta_c) exactly uniform on {1..P}^2."""
        if P < 1:
            raise ValueError("P must be >= 1")
        stream = Stream(theta_seed)
        return PerturbationSpec(
            theta_r=1 + stream.randbelow(P),
            theta_c=1 + stream.randbelow(P),
            P=P,
            theta_seed=theta_seed,
        )


def theta_r_matrix(
    fam: PerturbationFamily, theta_r: int, n1: int, n2: int, field: FieldSpec
) -> Matrix:
    """``theta_r x n2`` zero/one matrix; row ``k`` has its single one at
    ``fam.index(k, n1)``, confined to the first ``n1`` of ``n2`` columns."""
    if n1 > n2:
        raise ValueError(f"n1={n1} must not exceed n2={n2}")
    if theta_r < 0:
        raise ValueError("theta_r must be nonnegative")
    rows = []
    one = field.one().value
    for k in range(theta_r):
        row = [0] * n2
        row[fam.index(k, n1)] = one
        rows.append(row)
    if not rows:
        return Matrix.zeros(field, 0, n2)
    return Matrix.from_rows(field, rows)


def theta_c_matrix(
    fam: PerturbationFamily, m1: int, m2: int, theta_c: int, field: FieldSpec
) -> Matrix:
    """``m2 x theta_c`` zero/one matrix; column ``k`` has its single one at
    ``fam.index(k, m1)``, confined to the first ``m1`` of ``m2`` rows."""
    if m1 > m2:
        raise ValueError(f"m1={m1} must not exceed m2={m2}")
    return theta_r_matrix(fam, theta_c, m1, m2, field).transpose()


def canonical_perturb(A: Matrix, spec: PerturbationSpec, fams: CoupledFamilies) -> Matrix:
    """Block matrix ``[[A, Theta_c], [Theta_r, 0]]``.

    The rank never drops and increases by at most ``theta_r + theta_c``;
    each column hit by a unit row is explicitly frozen in the result.
    """
    tr, tc = spec.theta_r, spec.theta_c
    if tr == 0 and tc == 0:
        return A
    Tc = theta_c_matrix(fams.cols, A.m, A.m, tc, A.field)
    Tr = theta_r_matrix(fams.rows, tr, A.n, A.n, A.field)
    Z = Matrix.zeros(A.field, tr, tc)
    return block([[A, Tc], [Tr, Z]])
