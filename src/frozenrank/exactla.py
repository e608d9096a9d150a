"""Exact dense matrices with rank, kernel, frozen-variable and type machinery.

Terminology used throughout (0-based column indices everywhere):

* A column index ``i`` is *frozen* in ``A`` when every kernel vector of
  ``A`` has coordinate ``i`` equal to zero; equivalently, removing column
  ``i`` drops the rank by exactly one.
* A nonempty index set ``I`` is a *relation* of ``A`` when some nonzero
  vector of the row space of ``A`` has its support inside ``I``; it is a
  *proper relation* when ``I`` minus the frozen columns is still a relation.
* ``i`` is *firmly frozen* when it stays frozen after deleting row ``i``,
  and *frailly frozen* when it is frozen but not firmly.  The five types:

  - ``X``: frailly frozen (equivalently in the matrix and its transpose),
  - ``Y``: completely frozen (firmly frozen in both),
  - ``Z``: frozen in neither the matrix nor its transpose,
  - ``U``: not frozen in the matrix, firmly frozen in the transpose,
  - ``V``: firmly frozen in the matrix, not frozen in the transpose.

  When ``i`` is frozen in both ``A`` and ``A^T``, the system
  ``y^T A = e_i^T`` has solutions and they all share one ``y_i``: two
  differ by a left-kernel vector, which is 0 at ``i`` because ``i`` is
  frozen in ``A^T``.  Deleting row ``i`` keeps ``i`` frozen exactly when
  some solution has ``y_i = 0``, so ``i`` is ``Y`` when ``y_i = 0`` and
  ``X`` otherwise.

Matrices are immutable after construction; all operations are pure and
safe to call from concurrent workers.  Prime-field matrices are numpy
arrays of canonical residues (bit-packed words during elimination when
p = 2); rational matrices hold ``fractions.Fraction`` grids and are capped
in size because elimination suffers coefficient blow-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .field import FieldElement, FieldSpec

DEFAULT_RATIONAL_CAP = 64

# Largest dimension of a dense matrix built from a sampled graph: an int64
# 4096 x 4096 array takes 128 MB; larger runs stop before they sample.
DENSE_CAP = 4096

# Guards for row-space enumeration (exponential in rank).
DEFAULT_ENUM_MAX_N = 24
DEFAULT_ENUM_MAX_RANK = 14
DEFAULT_ENUM_MAX_VECTORS = 1 << 20


def _int_dtype(p: int):
    # products of residues must fit the dtype: (p-1)^2 < 2^31 for int32
    if p == 2:
        return np.uint8  # elimination runs on packed words, never on residues
    return np.int32 if p <= 46340 else np.int64


class Matrix:
    """Immutable exact matrix over a :class:`FieldSpec`.

    Construct via :meth:`from_rows`, :meth:`zeros`, :meth:`identity` or the
    trusted array fast path used by the samplers.
    """

    __slots__ = ("field", "m", "n", "symmetric", "_a", "_rows", "_rank", "_ksup")

    def __init__(self, field: FieldSpec, m: int, n: int, symmetric: bool, a, rows):
        self.field = field
        self.m = m
        self.n = n
        self.symmetric = symmetric
        self._a = a          # numpy residue array for prime fields, else None
        self._rows = rows    # tuple of tuples of Fraction for Q, else None
        self._rank: int | None = None
        self._ksup: frozenset | None = None

    # ---------------------------------------------------------------- build

    @staticmethod
    def from_rows(field: FieldSpec, rows, symmetric: bool = False) -> "Matrix":
        """Build from a nested sequence of ints/Fractions/FieldElements."""
        data = [[_raw_value(field, v) for v in row] for row in rows]
        m = len(data)
        n = len(data[0]) if m else 0
        if any(len(r) != n for r in data):
            raise ValueError("ragged rows")
        if field.kind == "prime":
            arr = np.array(data, dtype=_int_dtype(field.p)).reshape(m, n) % field.p
            return Matrix._from_array(field, arr, symmetric)
        grid = tuple(tuple(row) for row in data)
        if symmetric:
            _check_symmetric_grid(grid, m, n)
        return Matrix(field, m, n, symmetric, None, grid)

    @staticmethod
    def _from_array(field: FieldSpec, arr: np.ndarray, symmetric: bool = False) -> "Matrix":
        """Trusted fast path: ``arr`` must already hold canonical residues."""
        if field.kind != "prime":
            raise ValueError("array construction requires a prime field")
        arr = np.ascontiguousarray(arr, dtype=_int_dtype(field.p))
        m, n = arr.shape
        if symmetric and (m != n or not np.array_equal(arr, arr.T)):
            raise ValueError("symmetric flag set but matrix is not symmetric")
        arr.setflags(write=False)
        return Matrix(field, m, n, symmetric, arr, None)

    @staticmethod
    def zeros(field: FieldSpec, m: int, n: int) -> "Matrix":
        if field.kind == "prime":
            return Matrix._from_array(field, np.zeros((m, n), dtype=_int_dtype(field.p)))
        zero = Fraction(0)
        return Matrix(field, m, n, False, None, tuple(tuple([zero] * n) for _ in range(m)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        if field.kind == "prime":
            return Matrix._from_array(field, np.eye(n, dtype=_int_dtype(field.p)),
                                      symmetric=True)
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        return Matrix(field, n, n, True, None, rows)

    # ---------------------------------------------------------------- access

    def entry(self, i: int, j: int) -> FieldElement:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ValueError(f"entry ({i},{j}) out of range for {self.m}x{self.n}")
        if self._a is not None:
            return FieldElement(self.field, int(self._a[i, j]))
        return FieldElement(self.field, self._rows[i][j])

    def to_values(self) -> list[list]:
        """Raw canonical values (ints for F_p, Fractions for Q), row-major."""
        if self._a is not None:
            return [[int(v) for v in row] for row in self._a]
        return [list(row) for row in self._rows]

    def __eq__(self, other):
        if not isinstance(other, Matrix) or other.field != self.field:
            return False
        if (other.m, other.n) != (self.m, self.n):
            return False
        if self._a is not None:
            return bool(np.array_equal(self._a, other._a))
        return self._rows == other._rows

    def __hash__(self):  # pragma: no cover - matrices are not dict keys in hot paths
        return hash((self.field, self.m, self.n))

    def __repr__(self):
        return f"Matrix({self.field.label()}, {self.m}x{self.n})"

    # ------------------------------------------------------------- reshaping

    def transpose(self) -> "Matrix":
        if self._a is not None:
            return Matrix._from_array(self.field, self._a.T.copy(), self.symmetric)
        rows = tuple(tuple(self._rows[i][j] for i in range(self.m)) for j in range(self.n))
        return Matrix(self.field, self.n, self.m, self.symmetric, None, rows)

    def remove(self, rows=(), cols=()) -> "Matrix":
        """Matrix with the given row/column index sets deleted."""
        rset = _index_set(rows, self.m, "row")
        cset = _index_set(cols, self.n, "column")
        keep_r = [i for i in range(self.m) if i not in rset]
        keep_c = [j for j in range(self.n) if j not in cset]
        if self._a is not None:
            sub = self._a[np.ix_(keep_r, keep_c)] if keep_r and keep_c else \
                np.zeros((len(keep_r), len(keep_c)), dtype=self._a.dtype)
            return Matrix._from_array(self.field, sub)
        rows_out = tuple(tuple(self._rows[i][j] for j in keep_c) for i in keep_r)
        return Matrix(self.field, len(keep_r), len(keep_c), False, None, rows_out)

    def append_row(self, vec) -> "Matrix":
        vals = _vector_values(self.field, vec, self.n)
        if self._a is not None:
            arr = np.vstack([self._a, np.asarray(vals, dtype=self._a.dtype)[None, :]])
            return Matrix._from_array(self.field, arr)
        return Matrix(self.field, self.m + 1, self.n, False, None,
                      self._rows + (tuple(vals),))

    def append_col(self, vec) -> "Matrix":
        vals = _vector_values(self.field, vec, self.m)
        if self._a is not None:
            arr = np.hstack([self._a, np.asarray(vals, dtype=self._a.dtype)[:, None]])
            return Matrix._from_array(self.field, arr)
        rows = tuple(self._rows[i] + (vals[i],) for i in range(self.m))
        return Matrix(self.field, self.m, self.n + 1, False, None, rows)

    # ------------------------------------------------------------------ rank

    def rank(self, *, rational_cap: int | None = None) -> int:
        """Rank over the matrix's field (forward elimination, exact)."""
        if self._rank is None:
            self._check_rational_cap(rational_cap)
            if self.field.is_gf2:
                self._rank = _rank_gf2(self._a, self.n)
            elif self._a is not None:
                self._rank = _rank_modp(self._a, self.field.p)
            else:
                self._rank = _rref_fraction([list(r) for r in self._rows], self.n)[0]
        return self._rank

    def nullity(self, *, rational_cap: int | None = None) -> int:
        return self.n - self.rank(rational_cap=rational_cap)

    def kernel_basis(self, *, rational_cap: int | None = None) -> list[list[FieldElement]]:
        """Basis of the right kernel; length equals the nullity."""
        self._check_rational_cap(rational_cap)
        rank, pivots, rref_rows = self._rref()
        self._rank = rank
        free = [j for j in range(self.n) if j not in set(pivots)]
        basis = []
        for f in free:
            if self.field.kind == "prime":
                v = [0] * self.n
                v[f] = 1
                for i, pcol in enumerate(pivots):
                    v[pcol] = (-rref_rows[i][f]) % self.field.p
            else:
                v = [Fraction(0)] * self.n
                v[f] = Fraction(1)
                for i, pcol in enumerate(pivots):
                    v[pcol] = -rref_rows[i][f]
            basis.append([FieldElement(self.field, x) for x in v])
        return basis

    def kernel_support(self) -> frozenset[int]:
        """Columns carrying a nonzero coordinate in some kernel vector.

        Read off the RREF: the free columns, plus the pivot column of every
        reduced row that is nonzero on a free column.  The frozen columns
        are exactly the complement within ``range(n)``.
        """
        if self._ksup is None:
            self._check_rational_cap(None)
            if self.field.is_gf2:
                rank, pivots, R = _rref_gf2(self._a, self.n)
            elif self._a is not None:
                rank, pivots, R = _rref_modp(self._a.copy(), self.field.p)
            else:
                R = [list(r) for r in self._rows]
                rank, pivots = _rref_fraction(R, self.n)
            self._rank = rank
            pivset = set(pivots)
            free = [j for j in range(self.n) if j not in pivset]
            if not free:
                hit = ()
            elif self.field.is_gf2:
                mask = sum(1 << j for j in free).to_bytes(8 * R.shape[1], "little")
                hit = (R & np.frombuffer(mask, dtype=np.uint64)).any(axis=1).tolist()
            elif self._a is not None:
                hit = R[:rank][:, free].any(axis=1).tolist()
            else:
                hit = [any(R[i][f] for f in free) for i in range(rank)]
            self._ksup = frozenset(free + [c for c, h in zip(pivots, hit) if h])
        return self._ksup

    def _rref(self):
        """(rank, pivot columns, reduced rows as plain lists of values)."""
        self._check_rational_cap(None)
        if self.field.is_gf2:
            rank, pivots, W = _rref_gf2(self._a, self.n)
            return rank, pivots, [list(map(int, r)) for r in _unpack_gf2(W, self.n)]
        if self._a is not None:
            rank, pivots, arr = _rref_modp(self._a.copy(), self.field.p)
            return rank, pivots, [list(map(int, r)) for r in arr[:rank]]
        rows = [list(r) for r in self._rows]
        rank, pivots = _rref_fraction(rows, self.n)
        return rank, pivots, rows[:rank]

    def _check_rational_cap(self, override: int | None) -> None:
        if self.field.kind != "rationals":
            return
        cap = DEFAULT_RATIONAL_CAP if override is None else override
        if max(self.m, self.n) > cap:
            raise ResourceCapError(
                f"rational matrix is {self.m}x{self.n}, above the exact-elimination "
                f"cap of {cap}; use a prime field or raise rational_cap"
            )


# ------------------------------------------------------------------ helpers


def _raw_value(field: FieldSpec, v):
    if isinstance(v, FieldElement):
        if v.spec != field:
            raise ValueError("entry belongs to a different field")
        return v.value
    if field.kind == "prime":
        return int(v) % field.p
    return Fraction(v)


def _vector_values(field: FieldSpec, vec, expect_len: int) -> list:
    vals = [_raw_value(field, v) for v in vec]
    if len(vals) != expect_len:
        raise ValueError(f"vector length {len(vals)} != {expect_len}")
    return vals


def _index_set(indices, bound: int, what: str) -> set[int]:
    out = set()
    for i in indices:
        i = int(i)
        if not 0 <= i < bound:
            raise ValueError(f"{what} index {i} out of range [0, {bound})")
        out.add(i)
    return out


def _check_symmetric_grid(grid, m, n):
    if m != n:
        raise ValueError("symmetric flag set but matrix is not square")
    for i in range(m):
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i]:
                raise ValueError("symmetric flag set but matrix is not symmetric")


# ----------------------------------------------------- GF(2) packed kernels


def _pack_gf2(arr: np.ndarray, n: int) -> np.ndarray:
    """Rows of 0/1 uint8 packed into little-endian uint64 words."""
    m = arr.shape[0]
    nw = max(1, (n + 63) // 64)
    pad = nw * 64 - n
    a = arr.astype(np.uint8)
    if pad:
        a = np.concatenate([a, np.zeros((m, pad), np.uint8)], axis=1)
    if m == 0:
        return np.zeros((0, nw), dtype=np.uint64)
    return np.packbits(a, axis=1, bitorder="little").view(np.uint64).copy()


def _unpack_gf2(W: np.ndarray, n: int) -> np.ndarray:
    if W.shape[0] == 0:
        return np.zeros((0, n), dtype=np.uint8)
    return np.unpackbits(W.view(np.uint8), axis=1, bitorder="little")[:, :n]


def _forward_gf2(W: np.ndarray, n: int) -> tuple[int, list[int]]:
    """In-place forward elimination on packed words; returns (rank, pivots)."""
    m = W.shape[0]
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        w, b = divmod(c, 64)
        mask = np.uint64(1 << b)
        hits = np.nonzero((W[r:, w] & mask) != 0)[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            tmp = W[r].copy()
            W[r] = W[piv]
            W[piv] = tmp
        rows = r + hits[1:]
        if rows.size:
            W[rows] ^= W[r]
        pivots.append(c)
        r += 1
    return r, pivots


def _rank_gf2(arr: np.ndarray, n: int) -> int:
    W = _pack_gf2(arr, n)
    return _forward_gf2(W, n)[0]


def _rref_gf2(arr: np.ndarray, n: int):
    """(rank, pivots, reduced rows as packed words)."""
    W = _pack_gf2(arr, n)
    r, pivots = _forward_gf2(W, n)
    for i in range(r - 1, -1, -1):
        c = pivots[i]
        w, b = divmod(c, 64)
        mask = np.uint64(1 << b)
        above = np.nonzero((W[:i, w] & mask) != 0)[0]
        if above.size:
            W[above] ^= W[i]
    return r, pivots, W[:r]


# ------------------------------------------------------------ mod-p kernels


def _forward_modp(M: np.ndarray, p: int) -> tuple[int, list[int]]:
    """In-place forward elimination with normalized pivot rows."""
    m, n = M.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        hits = np.nonzero(M[r:, c])[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            tmp = M[piv].copy()
            M[piv] = M[r]
            M[r] = tmp
        inv = pow(int(M[r, c]), p - 2, p)
        M[r, c:] = (M[r, c:] * M.dtype.type(inv)) % p
        rows = r + 1 + np.nonzero(M[r + 1:, c])[0]
        if rows.size:
            f = M[rows, c][:, None]
            M[rows, c:] = (M[rows, c:] - f * M[r, c:][None, :]) % p
        pivots.append(c)
        r += 1
    return r, pivots


def _rank_modp(arr: np.ndarray, p: int) -> int:
    return _forward_modp(arr.copy(), p)[0]


def _rref_modp(M: np.ndarray, p: int):
    """In-place RREF; returns (rank, pivots, M)."""
    r, pivots = _forward_modp(M, p)
    for i in range(r - 1, -1, -1):
        c = pivots[i]
        rows = np.nonzero(M[:i, c])[0]
        if rows.size:
            f = M[rows, c][:, None]
            M[rows, c:] = (M[rows, c:] - f * M[i, c:][None, :]) % p
    return r, pivots, M


# --------------------------------------------------------- Fraction kernels


def _rref_fraction(rows: list[list[Fraction]], n: int) -> tuple[int, list[int]]:
    """In-place RREF over Q; returns (rank, pivot columns)."""
    m = len(rows)
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return r, pivots


# ------------------------------------------------------- frozen variables


@dataclass(frozen=True)
class FrozenReport:
    """Frozen columns of a matrix and the method that produced them."""

    frozen: tuple[int, ...]
    method: str  # "kernel" | "rankdrop"


def frozen_set(A: Matrix, method: str = "kernel") -> FrozenReport:
    """Columns frozen in ``A``.

    ``kernel`` (default, one elimination): complement of the union of
    kernel-basis supports.  ``rankdrop`` (n eliminations, kept as an
    oracle): columns whose removal drops the rank by exactly one.
    """
    if method == "kernel":
        support = A.kernel_support()
        frozen = tuple(j for j in range(A.n) if j not in support)
    elif method == "rankdrop":
        base = A.rank()
        frozen = tuple(
            j for j in range(A.n) if base - A.remove(cols=[j]).rank() == 1
        )
    else:
        raise ValueError(f"unknown method {method!r} (use 'kernel' or 'rankdrop')")
    return FrozenReport(frozen=frozen, method=method)


def is_frozen(A: Matrix, i: int) -> bool:
    if not 0 <= i < A.n:
        raise ValueError(f"column {i} out of range")
    return i not in A.kernel_support()


def is_relation(A: Matrix, I) -> bool:
    """Whether some row-space vector has nonempty support inside ``I``.

    Decided by a rank comparison: ``I`` is a relation iff deleting the
    columns ``I`` lowers the rank (the left kernel grows).
    """
    iset = _index_set(I, A.n, "column")
    if not iset:
        raise ValueError("relation index set must be nonempty")
    return A.remove(cols=iset).rank() < A.rank()


def row_in_span(A: Matrix, b) -> bool:
    """Whether the row vector ``b`` lies in the span of the rows of ``A``."""
    return A.append_row(b).rank() == A.rank()


def _row_space_supports(A: Matrix, max_vectors: int) -> set[frozenset[int]]:
    """Supports of all nonzero row-space vectors (exponential in rank)."""
    if A.field.kind != "prime":
        raise ValueError("row-space enumeration requires a finite field")
    rank, _, rows = A._rref()
    count = A.field.p ** rank
    if count > max_vectors:
        raise ResourceCapError(
            f"row space holds {count} vectors, above the enumeration cap of {max_vectors}"
        )
    p = A.field.p
    supports: set[frozenset[int]] = set()
    # odometer over coefficient vectors; maintain the running combination
    current = [0] * A.n
    digits = [0] * rank
    while True:
        k = 0
        while k < rank and digits[k] == p - 1:
            digits[k] = 0
            for j in range(A.n):
                current[j] = (current[j] - (p - 1) * rows[k][j]) % p
            k += 1
        if k == rank:
            break
        digits[k] += 1
        for j in range(A.n):
            current[j] = (current[j] + rows[k][j]) % p
        supports.add(frozenset(j for j in range(A.n) if current[j]))
    supports.discard(frozenset())
    return supports


def proper_relations(
    A: Matrix,
    ell: int,
    method: str = "enumeration",
    *,
    max_n: int = DEFAULT_ENUM_MAX_N,
    max_rank: int = DEFAULT_ENUM_MAX_RANK,
    max_vectors: int = DEFAULT_ENUM_MAX_VECTORS,
) -> list[tuple[int, ...]]:
    """All size-``ell`` proper relations of ``A``, sorted.

    ``enumeration`` lists the supports of every nonzero row-space vector
    and keeps the size-``ell`` sets that contain a support disjoint from
    the frozen columns.  It refuses matrices above the configured caps.
    ``rankdrop`` instead tests each candidate ``I`` by whether deleting
    the columns ``I`` minus the frozen set lowers the rank; it needs no
    enumeration cap and handles larger matrices.  Rational matrices have
    an infinite row space, so they always take the rankdrop route.
    """
    if ell < 1:
        raise ValueError("relation size must be >= 1")
    if A.field.kind == "rationals" and method == "enumeration":
        method = "rankdrop"
    frozen = set(frozen_set(A).frozen)
    if method == "enumeration":
        if A.n > max_n:
            raise ResourceCapError(f"n={A.n} above the enumeration cap max_n={max_n}")
        if A.rank() > max_rank:
            raise ResourceCapError(
                f"rank={A.rank()} above the enumeration cap max_rank={max_rank}"
            )
        supports = _row_space_supports(A, max_vectors)
        seeds = [s for s in supports if len(s) <= ell and not (s & frozen)]
        found: set[tuple[int, ...]] = set()
        universe = range(A.n)
        for s in seeds:
            rest = [j for j in universe if j not in s]
            for extra in itertools.combinations(rest, ell - len(s)):
                found.add(tuple(sorted(s | set(extra))))
        return sorted(found)
    if method == "rankdrop":
        base = A.rank()
        cache: dict[frozenset[int], bool] = {}
        out = []
        for combo in itertools.combinations(range(A.n), ell):
            core = frozenset(combo) - frozen
            if not core:
                continue
            hit = cache.get(core)
            if hit is None:
                hit = A.remove(cols=core).rank() < base
                cache[core] = hit
            if hit:
                out.append(combo)
        return out
    raise ValueError(f"unknown method {method!r}")


def is_delta_ell_free(A: Matrix, delta: float, ell: int, **caps) -> bool:
    """Whether ``A`` has at most ``delta * n**ell`` proper relations of size ``ell``."""
    return len(proper_relations(A, ell, **caps)) <= delta * A.n ** ell


# ----------------------------------------------------------- variable types

TYPES = ("X", "Y", "Z", "U", "V")


def classify_variable(A: Matrix, i: int) -> str:
    """Type of variable ``i`` from its four frozen memberships.

    Computes ``i in F(A)``, ``i in F(A^T)``, ``i in F(A minus row i)`` and
    ``i in F(A^T minus row i)`` literally and classifies:  frail on either
    side gives ``X`` (frailness is transpose-symmetric), firmly frozen on
    both sides gives ``Y``, neither side frozen gives ``Z``, and the mixed
    cases give ``U``/``V``.
    """
    if not 0 <= i < min(A.m, A.n):
        raise ValueError(f"variable {i} out of range [0, {min(A.m, A.n)})")
    AT = A.transpose()
    fa = is_frozen(A, i)
    fat = is_frozen(AT, i)
    firm_a = is_frozen(A.remove(rows=[i]), i)
    firm_at = is_frozen(AT.remove(rows=[i]), i)
    frail_a = fa and not firm_a
    frail_at = fat and not firm_at
    if frail_a != frail_at:
        raise AssertionError(
            "frail freezing must be transpose-symmetric; exact arithmetic bug"
        )
    if frail_a:
        return "X"
    if firm_a and firm_at:
        return "Y"
    if not fa and not fat:
        return "Z"
    if not fa and firm_at:
        return "U"
    if firm_a and not fat:
        return "V"
    raise AssertionError("variable type cases must be exhaustive")


@dataclass(frozen=True)
class TypeProfile:
    """Exact census of variable types over the first ``n`` columns.

    Proportions are counts over ``n``; ``alpha``/``alpha_hat`` are the
    frozen proportions of the matrix and of its transpose.  The identities
    ``x+y+z+u+v = 1``, ``alpha = x+y+v`` and ``alpha_hat = x+y+u`` hold
    exactly at the level of integer counts and are asserted on creation.
    """

    n: int
    count_x: int
    count_y: int
    count_z: int
    count_u: int
    count_v: int
    frozen_count: int
    frozen_count_t: int

    def __post_init__(self):
        total = self.count_x + self.count_y + self.count_z + self.count_u + self.count_v
        if total != self.n:
            raise ValueError("type counts must partition the census range")
        if self.frozen_count != self.count_x + self.count_y + self.count_v:
            raise ValueError("frozen count must equal x+y+v counts")
        if self.frozen_count_t != self.count_x + self.count_y + self.count_u:
            raise ValueError("transpose frozen count must equal x+y+u counts")

    @property
    def x(self) -> float:
        return self.count_x / self.n

    @property
    def y(self) -> float:
        return self.count_y / self.n

    @property
    def z(self) -> float:
        return self.count_z / self.n

    @property
    def u(self) -> float:
        return self.count_u / self.n

    @property
    def v(self) -> float:
        return self.count_v / self.n

    @property
    def alpha(self) -> float:
        return self.frozen_count / self.n

    @property
    def alpha_hat(self) -> float:
        return self.frozen_count_t / self.n

    def zeta(self) -> tuple[float, float, float, float, float]:
        return (self.x, self.y, self.z, self.u, self.v)

    @staticmethod
    def tally(types) -> "TypeProfile":
        """Census of a nonempty sequence of type letters."""
        c = dict.fromkeys(TYPES, 0)
        for t in types:
            c[t] += 1
        return TypeProfile(
            n=len(types),
            count_x=c["X"],
            count_y=c["Y"],
            count_z=c["Z"],
            count_u=c["U"],
            count_v=c["V"],
            frozen_count=c["X"] + c["Y"] + c["V"],
            frozen_count_t=c["X"] + c["Y"] + c["U"],
        )


def variable_types(A: Matrix, census_size: int | None = None) -> tuple[str, ...]:
    """Types of variables ``0..census_size-1``, as :func:`classify_variable`
    gives them; ``census_size`` defaults to ``min(m, n)``.

    Cost: three eliminations, whatever the census size.  The kernel
    supports of ``A`` and ``A^T`` give the frozen memberships.  A variable
    frozen on neither side is ``Z``; one frozen on one side only is firmly
    frozen there (frailness is transpose-symmetric), so ``V`` or ``U``.
    The set ``S`` of variables frozen on both sides is typed by the
    ``y_i`` of the module docstring, from one RREF of ``[A^T | E_S]``.
    """
    k = min(A.m, A.n) if census_size is None else census_size
    if not 0 <= k <= min(A.m, A.n):
        raise ValueError(f"census size {k} outside [0, min(m, n) = {min(A.m, A.n)}]")
    sup_a = A.kernel_support()
    sup_at = A.transpose().kernel_support()
    types = []
    for i in range(k):
        fa = i not in sup_a
        fat = i not in sup_at
        types.append(("Y" if fat else "V") if fa else ("U" if fat else "Z"))
    # frozen on both sides: Y unless the solve finds it frail
    both = [i for i in range(k) if types[i] == "Y"]
    for i, frail in zip(both, _frail_flags(A, both)):
        if frail:
            types[i] = "X"
    return tuple(types)


def _frail_flags(A: Matrix, S: list[int]) -> list[bool]:
    """``y_i != 0`` for each ``i`` of ``S`` (frozen in ``A`` and in ``A^T``):
    whether ``i`` is frail, by the identity in the module docstring.

    One RREF of the augmented system ``[A^T | E_S]`` solves
    ``A^T y = e_i`` for every ``i`` at once; ``y_i`` sits in the row
    pivoting on column ``i``, in the column of ``e_i``.  The system is
    consistent, so no pivot may fall inside the ``E_S`` block.
    """
    if not S:
        return []
    m, n, s = A.m, A.n, len(S)
    if A._a is not None:
        # built once and reduced in place: the largest array of a census
        aug = np.zeros((n, m + s), dtype=A._a.dtype)
        aug[:, :m] = A._a.T
        aug[S, m + np.arange(s)] = 1
        if A.field.is_gf2:
            _, pivots, W = _rref_gf2(aug, m + s)

            def entry(r, c):
                return int(W[r, c >> 6]) >> (c & 63) & 1
        else:
            _, pivots, M = _rref_modp(aug, A.field.p)

            def entry(r, c):
                return M[r, c]
    else:
        one, zero = Fraction(1), Fraction(0)
        rows = [[A._rows[r][c] for r in range(m)] + [one if c == i else zero for i in S]
                for c in range(n)]
        _, pivots = _rref_fraction(rows, m + s)

        def entry(r, c):
            return rows[r][c]
    if pivots and pivots[-1] >= m:
        raise AssertionError("[A^T | E_S] is inconsistent; exact arithmetic bug")
    row_of = {c: r for r, c in enumerate(pivots)}
    # a free column i would mean y_i = 0; frozen in A^T, i is always a pivot
    return [i in row_of and bool(entry(row_of[i], m + t)) for t, i in enumerate(S)]


def type_census(A: Matrix, census_size: int | None = None) -> TypeProfile:
    """Tally the five types of variables ``0..census_size-1``.

    ``census_size`` defaults to ``min(m, n)``; pass the unpadded dimension
    explicitly when ``A`` carries perturbation rows/columns so the
    artificial unit rows and columns stay outside the census.

    Cost: the three eliminations of :func:`variable_types`, whatever
    the census size.
    """
    k = min(A.m, A.n) if census_size is None else census_size
    if k <= 0:
        raise ValueError("census range is empty")
    return TypeProfile.tally(variable_types(A, k))


def symmetric_removal_rank_drop(A: Matrix, i: int) -> int:
    """Rank drop when row ``i`` and column ``i`` are removed together.

    Always in {0, 1, 2}: 2 exactly for completely frozen variables, 0
    exactly for variables frozen on neither side, 1 otherwise.
    """
    if A.m != A.n:
        raise ValueError("symmetric removal requires a square matrix")
    if not 0 <= i < A.n:
        raise ValueError(f"index {i} out of range")
    return A.rank() - A.remove(rows=[i], cols=[i]).rank()


def relabelled(A: Matrix, perm) -> Matrix:
    """Joint row/column relabelling: entry (perm[i], perm[j]) = A(i, j)."""
    if A.m != A.n:
        raise ValueError("joint relabelling requires a square matrix")
    perm = list(perm)
    if sorted(perm) != list(range(A.n)):
        raise ValueError("not a permutation of range(n)")
    inv = [0] * A.n
    for i, t in enumerate(perm):
        inv[t] = i
    if A._a is not None:
        return Matrix._from_array(A.field, A._a[np.ix_(inv, inv)], A.symmetric)
    rows = tuple(tuple(A._rows[inv[i]][inv[j]] for j in range(A.n)) for i in range(A.n))
    return Matrix(A.field, A.n, A.n, A.symmetric, None, rows)


def block(grid: list[list[Matrix]]) -> Matrix:
    """Assemble a block matrix; row heights and column widths must agree."""
    fields = {B.field for row in grid for B in row}
    if len(fields) != 1:
        raise ValueError("block assembly requires a single field")
    field = fields.pop()
    if field.kind == "prime":
        arr = np.block([[B._a for B in row] for row in grid])
        return Matrix._from_array(field, arr)
    rows_out = []
    for row in grid:
        height = {B.m for B in row}
        if len(height) != 1:
            raise ValueError("inconsistent block heights")
        for i in range(height.pop()):
            merged: tuple = ()
            for B in row:
                merged = merged + B._rows[i]
            rows_out.append(merged)
    n = len(rows_out[0]) if rows_out else 0
    if any(len(r) != n for r in rows_out):
        raise ValueError("inconsistent block widths")
    return Matrix(field, len(rows_out), n, False, None, tuple(rows_out))


# ------------------------------------------------------------- text format


def format_matrix(A: Matrix) -> str:
    """Text form: header "m n field", then one line of entries per row."""
    lines = [f"{A.m} {A.n} {A.field.label()}"]
    for row in A.to_values():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError('matrix header must be "m n field"')
    m, n = int(head[0]), int(head[1])
    field = FieldSpec.parse_label(head[2])
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} entry rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} entries per row, found {len(toks)}")
        rows.append([field.parse_entry(t).value for t in toks])
    return Matrix.from_rows(field, rows)
