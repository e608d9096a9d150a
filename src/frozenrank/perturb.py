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

from dataclasses import dataclass

import numpy as np

from .exactla import Matrix, block, field_array
from .field import FieldSpec
from .prf import (
    TAG_COL_FAMILY,
    TAG_ROW_FAMILY,
    Stream,
    derive_seed,
    mix64_array,
    prf,
    prf_array,
)

# level-by-seed cells per mix64_array call in indices_over_seeds: enough to
# amortise numpy's per-call cost, few enough that temporaries stay at 0.5 MB.
# The grid is level-major, (n1 - 1, seeds), so each elementwise loop runs along
# the seeds, not along the few levels a verify check asks about
_PICK_CELLS = 1 << 16


class PerturbationFamily:
    """The array ``u(k, level)`` of one family seed, one independent pick per
    level.

    ``index(k, n1)`` is the 0-based position of the single nonzero entry of
    perturbation row/column ``k`` when restricted to the first ``n1``
    coordinates; it is uniform on ``range(n1)`` and, as the last level
    record up to ``n1``, monotone under the nesting coupling.  Nothing is
    stored but the seed, so a family can be shared freely.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def u(self, k: int, level: int) -> int:
        """Uniform pick in ``1..level`` (always 1 at level 1)."""
        if level < 1:
            raise ValueError("levels start at 1")
        return 1 + prf(self.seed, k, level) % level

    def index(self, k: int, n1: int) -> int:
        """0-based nonzero position of row/column ``k`` within ``range(n1)``."""
        return int(indices_over_seeds(self.seed, k, n1))


def indices_over_seeds(family_seeds, k, n1: int) -> np.ndarray:
    """:meth:`PerturbationFamily.index` for every seed in ``family_seeds``
    and row ``k`` (each an int or an array; they broadcast together), as
    int64 of the broadcast shape: the last level ``<= n1`` whose pick
    ``u(k, level)`` is the level itself, minus one.  This is the one
    implementation of the pick; ``u`` stays the literal definition.

    ``h = prf(seed, k)`` is mixed once, broadcast, and the pick at each
    level is one more round: ``prf(seed, k, level) = mix64(h ^ level)``.
    Level 1 always hits, at index 0, so only levels 2..n1 are mixed."""
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    # the picks are written over h (flat is a view of it unless h is not in
    # C order), so the call holds one array of the result's size
    h = prf_array(family_seeds, k)
    flat = h.reshape(-1)
    levels = np.arange(2, n1 + 1, dtype=np.uint64)[:, None]
    step = max(1, _PICK_CELLS // max(1, n1 - 1))
    for s0 in range(0, flat.size, step):
        part = slice(s0, s0 + step)
        hit = mix64_array(flat[None, part] ^ levels) % levels == levels - 1
        # the largest hit index is the last; level 1 always hits, at 0
        flat[part] = (hit * (levels - 1)).max(axis=0, initial=0)
    return flat.view(np.int64).reshape(h.shape)


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
    a = np.zeros((theta_r, n2), dtype=np.uint8)
    if theta_r:
        rows = np.arange(theta_r)
        a[rows, indices_over_seeds(fam.seed, rows, n1)] = 1
    return Matrix._from_array(field, field_array(field, a))


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
