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

  One RREF ``R`` of ``[A^T | E_k]``, with ``e_i`` in column ``m + i`` for
  each variable ``i < k``, types all ``k``.  Its left block, the RREF of
  ``A^T``, gives ``F(A^T)`` as :meth:`Matrix._reduce` reads a kernel
  support.  ``i`` is in ``F(A)`` exactly when ``A^T y = e_i`` is
  consistent: when no row of ``R`` with a zero left part is nonzero in
  column ``m + i``.  For ``i`` frozen on both sides, solutions differ by
  left-kernel vectors, 0 at ``i``, so share the ``y_i`` in column
  ``m + i`` of the row pivoting on ``i``.  Deleting row ``i`` keeps ``i``
  frozen exactly when some solution has ``y_i = 0``: ``i`` is ``Y`` when
  ``y_i = 0`` and ``X`` otherwise.

* Let ``K`` be the ``n x nullity`` matrix whose columns are a kernel basis,
  and ``K_C`` its rows in a column set ``C``.  The row space is the
  annihilator of the kernel, so deleting the columns ``C`` lowers the rank
  by ``|C| - rank(K_C)``, over any field.  Hence ``j`` is frozen iff
  ``K_j = 0``, and ``I`` is a relation iff the rows ``K_I`` are dependent.

Matrices are immutable after construction; all operations are pure and
safe to call from concurrent workers.  A matrix keeps its rank and kernel
support once computed, and its transpose, memoised both ways
(``A.transpose().transpose() is A``; a symmetric ``A`` is its own
transpose), so asking again about ``A`` or ``A^T`` repeats no
elimination.  It also keeps its latest :meth:`Matrix.remove` result, so
asking twice in a row about one row-deleted matrix eliminates it once.
Every matrix is one numpy array
(:func:`field_array`): canonical residues over F_p, ``Fraction`` objects in
a ``dtype=object`` array over Q.  Every F2 question (rank, kernel support,
kernel rows and bases, the census) runs on rows held as Python ints,
one bit per column, with XOR as row addition.  Over F_p (p > 2) and Q every
question but the F_p rank, which eliminates forward only, reads one reduced
form, :func:`_reduced`: the pivot columns of the RREF and its pivot rows on
the free columns.  One dense kernel, :func:`_dense_kernel`, eliminates over
F_p and returns the pivots and the eliminated rows; :func:`_reduced` is the
one reader that turns them into that form, and over Q
:func:`_rational_rref` lifts the form from it modulo primes, certified
exact: nothing is eliminated on Fractions.  The kernel runs an array of at
most :data:`ROW_LOOP_CELLS` cells on Python-int rows, as F2 rows are held,
and returns those rows, the array neither copied nor written: on so small
an array numpy's fixed cost per call outweighs a pivot's arithmetic.
Larger arrays take a numpy loop, which clears each column on an index
array of the rows that hold an entry there, with the same pivots and
result.  Entries are plain values, read back as Python ints or
``Fraction`` objects.

A sparse symmetric matrix given by its edges, such as the core of a
:class:`~frozenrank.randgraph.LeafRemoval`, is ranked without a
:class:`Matrix`.  Over F_p, :func:`sparse_rank` splits
symmetric 1 x 1 and 2 x 2 pivots off it, fewest entries first, which carries
leaf removal on into it, and hands only the block they leave to the dense
kernel.  :func:`rational_rank` gives the exact rank over Q, of any size,
from one sparse rank modulo a prime or else the lifted RREF.
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .field import PRIME_LIMIT, FieldSpec, is_prime

# Largest dimension of a dense matrix built from a sampled graph: an int64
# 4096 x 4096 array takes 128 MB; larger runs stop before they sample.
DENSE_CAP = 4096

# Share of the live block's area that its nonzeros may fill while
# sparse_rank takes pivots on vertices of more than 2 entries; past it, the
# block goes to the dense kernel.  Timed with _sparse_pivots, 0.1 ranked
# F_(2^31-1) cores 8-30% slower than 0.2 (n = 1000 to 16384, d = 3 to 30),
# and 0.3 ranked them 2-15% faster but a core dense from the start (n = 400,
# d = 100) 2.5% slower, in 3-6 alternating repeats each.
SPARSE_FILL = 0.2


def field_array(field: FieldSpec, values) -> np.ndarray:
    """``values`` (an array, or rows, of canonical values) as a new array in
    the storage of every :class:`Matrix` over ``field``.

    Prime fields hold residues in ``[0, p)``, in an integer dtype that holds
    the product of two of them (uint8 for p = 2).  Q holds a ``dtype=object``
    array whose entries are all ``Fraction`` objects, its zeros one shared
    ``Fraction(0)``, so that they cost a pointer each.
    """
    if field.kind == "rationals":
        a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
        out = np.full(a.shape, Fraction(0), dtype=object)
        nz = np.nonzero(a)
        out[nz] = np.frompyfunc(Fraction, 1, 1)(a[nz].astype(object))  # Python ints
        return out
    p = field.p
    return np.array(values, dtype=np.uint8 if p == 2 else np.int32 if p <= 46340 else np.int64)


class Matrix:
    """Immutable exact matrix over a :class:`FieldSpec`.

    Construct via :meth:`from_rows`, :meth:`zeros`, :meth:`identity` or the
    trusted array fast path used by the samplers.  The rank (``_rank``), the
    kernel support (``_ksup``) and the transpose (``_t``) are set lazily and
    kept; the transpose is memoised both ways.  ``_removed`` holds the
    latest :meth:`remove` call as ``(key, result)``: one slot, so a caller
    looping over the rows of a large matrix holds one copy at a time.
    """

    __slots__ = ("field", "m", "n", "_a", "_rank", "_ksup", "_t", "_removed",
                 "__weakref__")

    def __init__(self, field: FieldSpec, a: np.ndarray):
        self.field = field
        self.m, self.n = a.shape
        self._a = a          # read-only, in the storage of field_array
        self._rank: int | None = None
        self._ksup: frozenset | None = None
        self._t: Matrix | weakref.ref | None = None
        self._removed: tuple | None = None

    # ---------------------------------------------------------------- build

    @staticmethod
    def from_rows(field: FieldSpec, rows) -> "Matrix":
        """Build from a nested sequence of ints/Fractions."""
        data = [[field.element(v) for v in row] for row in rows]
        m = len(data)
        n = len(data[0]) if m else 0
        if any(len(r) != n for r in data):
            raise ValueError("ragged rows")
        return Matrix._from_array(field, field_array(field, data).reshape(m, n))

    @staticmethod
    def _from_array(field: FieldSpec, arr: np.ndarray) -> "Matrix":
        """Trusted fast path: ``arr`` must already be in the storage of
        :func:`field_array`."""
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        return Matrix(field, arr)

    @staticmethod
    def zeros(field: FieldSpec, m: int, n: int) -> "Matrix":
        return Matrix._from_array(field, field_array(field, np.zeros((m, n), dtype=np.uint8)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix._from_array(field, field_array(field, np.eye(n, dtype=np.uint8)))

    # ---------------------------------------------------------------- access

    def entry(self, i: int, j: int) -> int | Fraction:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ValueError(f"entry ({i},{j}) out of range for {self.m}x{self.n}")
        return self._a.item(i, j)

    def to_values(self) -> list[list]:
        """Raw canonical values (ints for F_p, Fractions for Q), row-major."""
        return self._a.tolist()

    def __eq__(self, other):
        if not isinstance(other, Matrix) or other.field != self.field:
            return False
        if (other.m, other.n) != (self.m, self.n):
            return False
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):  # pragma: no cover - matrices are not dict keys in hot paths
        return hash((self.field, self.m, self.n))

    def __repr__(self):
        return f"Matrix({self.field.label()}, {self.m}x{self.n})"

    def __reduce__(self):
        # pickle the entries only: the caches and the weak link of a
        # transpose stay behind, and the copy comes back read-only
        return Matrix._from_array, (self.field, self._a)

    # ------------------------------------------------------------- reshaping

    def transpose(self) -> "Matrix":
        """The transpose, built once and linked both ways, so that
        ``A.transpose().transpose() is A`` and each side keeps its own
        rank and kernel-support caches.  Its array is a read-only view of
        this one, so holding it costs no copy; and the link back is weak,
        as a cycle would keep the array until the cyclic garbage collector
        ran.  A symmetric matrix, found on the first call, is its own
        transpose (a weak link to itself), so it shares every cache."""
        t = self._t() if isinstance(self._t, weakref.ref) else self._t
        if t is None:
            if _is_symmetric(self._a):
                self._t = weakref.ref(self)
                return self
            t = Matrix(self.field, self._a.T)
            t._t = weakref.ref(self)
            self._t = t
        return t

    def remove(self, rows=(), cols=()) -> "Matrix":
        """Matrix with the given row/column index sets deleted.  The latest
        result is kept, and returned again for the same index sets."""
        rset = _index_set(rows, self.m, "row")
        cset = _index_set(cols, self.n, "column")
        key = (frozenset(rset), frozenset(cset))
        kept = self._removed  # read once: another thread may replace it
        if kept is not None and kept[0] == key:
            return kept[1]
        keep_r = [i for i in range(self.m) if i not in rset]
        keep_c = [j for j in range(self.n) if j not in cset]
        out = Matrix._from_array(self.field, self._a.take(keep_r, 0).take(keep_c, 1))
        self._removed = (key, out)
        return out

    def append_row(self, vec) -> "Matrix":
        vals = _vector_values(self.field, vec, self.n)
        arr = np.vstack([self._a, np.asarray(vals, dtype=self._a.dtype)[None, :]])
        return Matrix._from_array(self.field, arr)

    def append_col(self, vec) -> "Matrix":
        vals = _vector_values(self.field, vec, self.m)
        arr = np.hstack([self._a, np.asarray(vals, dtype=self._a.dtype)[:, None]])
        return Matrix._from_array(self.field, arr)

    # ------------------------------------------------------------------ rank

    def rank(self) -> int:
        """Rank over the matrix's field (forward elimination, exact)."""
        if self._rank is None:
            if self.field.is_gf2:
                self._rank = len(_echelon_gf2(_int_rows(self._a), self.n))
            elif self.field.kind == "rationals":
                self._reduce()
            else:
                self._rank = len(_dense_kernel(self._a, self.field.p, back=False)[0])
        return self._rank

    def nullity(self) -> int:
        return self.n - self.rank()

    def kernel_basis(self) -> list[list[int | Fraction]]:
        """Basis of the right kernel, one vector per free column in
        ascending order; length equals the nullity."""
        K = _kernel_rows(self)
        if not self.field.is_gf2:
            return K.T.tolist()
        # a free column's row of K is its own bit, a pivot column's has bits
        # on free columns only
        n = self.n
        return [[x >> (n - 1 - f) & 1 for x in K] for f in range(n) if K[f] == 1 << (n - 1 - f)]

    def kernel_support(self) -> frozenset[int]:
        """Columns carrying a nonzero coordinate in some kernel vector: the
        nonzero rows of ``K`` (module docstring), from one elimination.  The
        frozen columns are exactly the complement within ``range(n)``."""
        if self._ksup is None:
            if self.field.is_gf2:
                _kernel_rows(self)
            else:
                self._reduce()
        return self._ksup

    def _reduce(self) -> tuple[list[int], np.ndarray]:
        """:func:`_reduced` of this matrix over F_p (p > 2) or Q; sets the
        rank and the kernel support, read off the block without building
        ``K``: every free column, and each pivot column whose reduced row is
        nonzero on the free columns."""
        pivots, block = _reduced(self.field, self._a)
        self._rank = len(pivots)
        self._ksup = frozenset(_free_columns(pivots, self.n)).union(
            itertools.compress(pivots, block.any(axis=1).tolist()))
        return pivots, block


# ------------------------------------------------------------------ helpers


def _vector_values(field: FieldSpec, vec, expect_len: int) -> list:
    vals = [field.element(v) for v in vec]
    if len(vals) != expect_len:
        raise ValueError(f"vector length {len(vals)} != {expect_len}")
    return vals


def _is_symmetric(a: np.ndarray) -> bool:
    """Whether ``a`` is square and equals its transpose."""
    return a.shape[0] == a.shape[1] and np.array_equal(a, a.T)


def _free_columns(pivots: list[int], n: int) -> list[int]:
    pivset = set(pivots)
    return [j for j in range(n) if j not in pivset]


def _index(i, bound: int, what: str) -> int:
    """``i`` as an int in ``[0, bound)``, the one rule for every row, column
    and variable index: Python and numpy integers are taken, while a bool or
    a non-integer raises ``ValueError``, as an entry over Q does."""
    if type(i) is not int:
        if isinstance(i, bool) or not isinstance(i, Integral):
            raise ValueError(f"{what} index {i!r} is not an integer")
        i = int(i)
    if not 0 <= i < bound:
        raise ValueError(f"{what} index {i} out of range [0, {bound})")
    return i


def _index_set(indices, bound: int, what: str) -> set[int]:
    return {_index(i, bound, what) for i in indices}


# ------------------------------------------------------ F2 kernel on int rows
# A row of an n-column 0/1 matrix is one Python int holding column j in bit
# n - 1 - j, so the leading column of a row is its top set bit.


def _int_rows(arr: np.ndarray) -> list[int]:
    """Rows of a 0/1 array as ints in the F2 row format."""
    m, n = arr.shape
    if n == 0:
        return [0] * m
    pad = -n % 8
    packed = np.packbits(arr, axis=1)
    w, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i:i + w], "big") >> pad for i in range(0, len(buf), w)]


def _echelon_gf2(rows: list[int], n: int) -> dict[int, int]:
    """Echelon basis of the span of ``rows``: leading column -> row."""
    basis: dict[int, int] = {}
    for x in rows:
        while x:
            c = n - x.bit_length()
            b = basis.get(c)
            if b is None:
                basis[c] = x
                break
            x ^= b
    return basis


def _rref_gf2(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """(pivot columns ascending, their reduced rows)."""
    basis = _echelon_gf2(rows, n)
    pivots = sorted(basis)
    # from the rightmost pivot, so each XOR clears exactly one pivot bit
    done = 0
    for c in reversed(pivots):
        x = basis[c]
        t = x & done
        while t:
            k = t.bit_length()
            x ^= basis[n - k]
            t ^= 1 << (k - 1)
        basis[c] = x
        done |= 1 << (n - 1 - c)
    return pivots, [basis[c] for c in pivots]


# ------------------------------------------------------ F_p dense kernel
# One entry, _dense_kernel, eliminates an array ``M`` in the storage of
# field_array over F_p, forward only or on to the RREF.  An array of at most
# ROW_LOOP_CELLS cells runs on Python-int rows (_row_loop): there a pivot
# costs a few list operations, where the numpy loop pays several calls of
# fixed overhead per pivot, and the verify suites eliminate thousands of such
# arrays.  Both routes take the same pivots and leave the same forward form
# and RREF: the row loop as lists of Python ints, with no copy of the array
# and nothing written into it, the numpy loop as an array.  Callers read the
# rank as the number of pivots, and the RREF through _reduced.  In the numpy
# loop a pivot clears its column on an index array of the rows that hold an
# entry there (below the pivot, or above it in back substitution).  Rows are
# swapped and pivot rows normalised by basic indexing, and products are taken
# in place unless the storage dtype is a key of _WIDE.

# Largest array, in cells, that the dense kernel eliminates on Python-int
# rows.  Per RREF (numpy loop -> rows, 200 random arrays, best of 7, on a
# 2-vCPU x86-64 host): at p = 3 the rows win at every size timed, 10 x 10 at
# 50% density 102 -> 37 us and 24 x 24 306 -> 199 us.  At p = 2^31 - 1,
# whose products are multi-digit Python ints, 10 x 10 at 50% takes 115 -> 74
# us, but with no zero entry 10 x 10 ties (106 -> 100 us; forward only, 66 ->
# 91 us) and larger arrays lose (12 x 12 123 -> 147 us, 8 x 16 83 -> 148 us).
# The verify suites' arrays have at most 100 cells, a trial's dense blocks
# 625 or more.
ROW_LOOP_CELLS = 100


def _dense_kernel(M: np.ndarray, p: int, back: bool) -> tuple[list[int], np.ndarray | list]:
    """Forward elimination with normalized pivot rows, then back
    substitution to the RREF when ``back``; returns (pivots, the eliminated
    rows ``R``).  ``M``'s dtype holds the product of two residues, or is a
    key of ``_WIDE``.

    An array of at most :data:`ROW_LOOP_CELLS` cells is left as it is,
    neither copied nor written, and ``R`` is :func:`_row_loop`'s lists of
    Python ints.  A larger one is eliminated in the numpy loop, in place if
    writable, else in a copy, and ``R`` is that array."""
    if M.size <= ROW_LOOP_CELLS:
        return _row_loop(M, p, back)
    if not M.flags.writeable:
        M = M.copy()
    m, n = M.shape
    wide = _WIDE.get(M.dtype)
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        hits = M[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        # rows r.. are zero left of column c, so only columns c.. move
        piv = r + int(hits[0])
        if piv != r:
            row = M[r, c:].copy()
            M[r, c:] = M[piv, c:]
            M[piv, c:] = row
        inv = pow(int(M[r, c]), -1, p)
        if inv != 1:
            if wide is None:
                row = M[r, c:]
                row *= inv
                row %= p
            else:
                M[r, c:] = M[r, c:].astype(wide) * inv % p
        # the row swapped down to piv was zero in column c, so the rows left
        # to clear are the other hits
        if hits.size > 1:
            _eliminate(M, r + hits[1:], r, c, p, wide)
        pivots.append(c)
        r += 1
    if back:
        for i in range(r - 1, -1, -1):
            c = pivots[i]
            rows = M[:i, c].nonzero()[0]
            if rows.size:
                _eliminate(M, rows, i, c, p, wide)
    return pivots, M


def _row_loop(M: np.ndarray, p: int, back: bool) -> tuple[list[int], list[list[int]]]:
    """The dense kernel on ``M.tolist()``, ``M`` left as it is: forward
    elimination by the numpy loop's pivot rule (columns in order, the first
    nonzero row at or below the next pivot row, swap, normalise, clear
    below), then back substitution from the last pivot when ``back``.
    Returns (pivots, the eliminated rows)."""
    m, n = M.shape
    R = M.tolist()

    def clear(rows, c: int, row: list) -> None:
        # the pivot row is zero left of column c
        nz = [(j, row[j]) for j in range(c, n) if row[j]]
        for i in rows:
            Ri = R[i]
            if f := Ri[c]:
                for j, y in nz:
                    Ri[j] = (Ri[j] - f * y) % p

    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if R[piv][c]:
                break
        else:
            continue
        row = R[piv]
        R[piv] = R[r]  # zero in column c, as are the rows between r and piv
        inv = pow(row[c], -1, p)
        if inv != 1:
            row = [x * inv % p for x in row]
        R[r] = row
        clear(range(piv + 1, m), c, row)
        pivots.append(c)
        r += 1
    if back:
        for i in range(r - 1, -1, -1):
            clear(range(i), pivots[i], R[i])
    return pivots, R


# the dtype that products of residues are taken in, for a storage dtype that
# cannot hold them: the rational lift keeps residues below 2^31 as uint32, in
# half the bytes of int64, and its dense array is the largest a trial makes
# (8.4 MB as int64 for a core of 1025 vertices)
_WIDE = {np.dtype(np.uint32): np.int64}


def _eliminate(M: np.ndarray, rows: np.ndarray, r: int, c: int, p: int, wide) -> None:
    """Clear column ``c`` of the nonempty index array ``rows`` with the
    normalized pivot row ``r``.  Products are taken in the scalar type
    ``wide`` when there is one, else in place in the storage dtype, on a
    copy of the rows that is written back."""
    if wide is not None:
        M[rows, c:] = (M[rows, c:] - M[rows, c:c + 1].astype(wide) * M[r, c:]) % p
        return
    block = M[rows, c:]
    block -= block[:, :1] * M[r, c:]
    block %= p
    M[rows, c:] = block


# ------------------------------------------------- sparse rank from edges


def sparse_rank(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, p: int) -> int:
    """Rank over F_p of the symmetric ``n x n`` matrix with zero diagonal
    and ``A[i[k], j[k]] = A[j[k], i[k]] = w[k]`` for each edge ``k`` of the
    int arrays ``i``, ``j`` and ``w`` (distinct pairs, ``i[k] != j[k]``,
    ``w[k]`` a residue in ``[1, p)``), built without a :class:`Matrix`.

    Over F2 the rows are ints in the F2 row format, set straight from the
    edges.  For p > 2 the rows are dicts ``{column: residue}``, symmetric,
    with a diagonal entry of row ``v`` at ``rows[v][v]``.
    :func:`_sparse_pivots` splits symmetric pivots off them, and the square
    block they leave goes to the dense kernel.

    Each pivot is a congruence.  Order the symmetric ``A`` as ``[[P, B^T],
    [B, C]]``, with ``P`` a nonsingular principal block on the index set
    ``S``.  The invertible ``E = [[I, 0], [-B P^-1, I]]`` gives ``E A E^T =
    [[P, 0], [0, C - B P^-1 B^T]]``, so over every field the rank of ``A``
    is ``|S|`` plus the rank of the symmetric ``C - B P^-1 B^T``.  A pivot on
    a vertex ``v`` takes one of two blocks; ``u`` is row ``v`` outside
    ``S``, and ``k``, ``l`` range outside ``S``.

    * **1 x 1.** ``v`` has a diagonal entry ``d``: ``S = {v}``, ``A[k, l]
      -= u_k u_l / d``, and the pivot adds 1 to the rank.
    * **2 x 2.** ``v`` has none: ``S = {v, a}`` for a neighbour ``a``, with
      ``alpha = A[v, a]`` and ``t`` row ``a`` outside ``S``.  The block
      ``[[0, alpha], [alpha, A[a, a]]]`` has determinant ``-alpha^2`` and
      inverse ``[[c, 1/alpha], [1/alpha, 0]]``, where ``c = -A[a, a] /
      alpha^2``, so ``A[k, l] -= c u_k u_l + (u_k t_l + t_k u_l) / alpha``,
      and the pivot adds 2 to the rank.  At a leaf ``u`` is 0, and ``a``'s
      row and column just go: this is leaf removal
      (:class:`~frozenrank.randgraph.LeafRemoval`) carried on into the core.
      It is the "oxo" pivot of Duff, Gould, Reid, Scott and Turner (IMA J.
      Numer. Anal. 1991).
    """
    if p == 2:
        bits = [0] * n
        for a, b in zip(i.tolist(), j.tolist()):
            bits[a] |= 1 << (n - 1 - b)
            bits[b] |= 1 << (n - 1 - a)
        return len(_echelon_gf2(bits, n))
    rows: list[dict] = [{} for _ in range(n)]
    for a, b, v in zip(i.tolist(), j.tolist(), w.tolist()):
        rows[a][b] = rows[b][a] = v
    rank = _sparse_pivots(rows, p)
    left = [s for s in range(n) if rows[s]]
    if left:
        pos = {s: t for t, s in enumerate(left)}
        M = field_array(FieldSpec.prime(p), np.zeros((len(left),) * 2, dtype=np.uint8))
        at, to, val = [], [], []
        for t, s in enumerate(left):
            for k, v in rows[s].items():
                at.append(t)
                to.append(pos[k])
                val.append(v)
        M[at, to] = val
        rank += len(_dense_kernel(M, p, back=False)[0])
    return rank


def _sparse_pivots(rows: list[dict], p: int) -> int:
    """The pivots of :func:`sparse_rank`, in place on its symmetric row
    dicts.  Each pivot is on a vertex ``v`` with the fewest entries (from a
    heap of row lengths, with stale entries skipped): 1 x 1 on its diagonal
    entry if it has one, else 2 x 2 with a neighbour ``a`` that has the
    fewest entries.  Entries that cancel to 0 are deleted.  A vertex with at
    most 2 entries is always pivoted, any other only while the nonzeros fill
    at most :data:`SPARSE_FILL` of the live block's area.  Returns the rank
    split off; the rows left are a symmetric block on the vertices whose
    rows are not empty."""
    nnz = sum(map(len, rows))
    live = sum(1 for row in rows if row)
    heap = [(len(row), v) for v, row in enumerate(rows) if row]
    heapq.heapify(heap)
    rank = 0
    while heap:
        size, v = heapq.heappop(heap)
        u = rows[v]
        if len(u) != size:
            continue  # stale: v was pivoted or changed length since
        if size > 2 and nnz > SPARSE_FILL * live * live:
            break
        rows[v] = {}
        if d := u.pop(v, 0):
            t = {}
            c, ia = pow(d, -1, p), 0
            nnz -= size
            live -= 1
            rank += 1
        else:
            a = min(u, key=lambda k: len(rows[k]))
            t, rows[a] = rows[a], {}
            nnz -= size + len(t)
            alpha = u.pop(a)
            ia = pow(alpha, -1, p) if u else 0  # a leaf needs no update
            del t[v]
            c = -t.pop(a, 0) * ia * ia % p
            live -= 2
            rank += 2
        # A[k, l] -= x_k u_l + y_k t_l with x = c u + t / alpha, y = u / alpha
        # (1 x 1: x = u / d, y = 0).  Only a row k in u has y_k != 0; a row off
        # u changes only in the columns of u, and takes those entries from the
        # rows of u, by symmetry.
        ucols = [(l, ul, t.pop(l, 0), len(rows[l])) for l, ul in u.items()]
        cols = ucols + [(l, 0, tl, len(rows[l])) for l, tl in t.items()]
        for k, uk, tk, _ in ucols:
            krow = rows[k]
            x = (c * uk + ia * tk) % p
            y = ia * uk % p
            for l, ul, tl, _ in cols:
                if z := (krow.get(l, 0) - x * ul - y * tl) % p:
                    krow[l] = z
                    if not ul:
                        rows[l][k] = z
                else:
                    krow.pop(l, None)
                    if not ul:
                        rows[l].pop(k, None)
        for k, uk, tk, before in cols:
            krow = rows[k]
            if uk:
                del krow[v]
            if tk:
                del krow[a]
            nnz += len(krow) - before
            if not krow:
                live -= 1
            elif len(krow) != before:
                heapq.heappush(heap, (len(krow), k))
    return rank


# ----------------------------------------------------------- kernel rows


def _reduced(field: FieldSpec, a: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The RREF ``R`` of the array ``a`` over F_p (p > 2) or Q as ``(pivots,
    block)``: R's pivot columns and its pivot rows on the free columns.  Over
    F_p this is the one reader of a :func:`_dense_kernel` result, and the
    block is in ``a``'s dtype: built in one array from the row loop's lists,
    or moved within the numpy loop's array, which is ``a`` itself when
    ``a`` is writable.  Over Q :func:`_rational_rref` lifts R from ``a``'s
    nonzeros."""
    if field.kind == "rationals":
        i, j = np.nonzero(a)
        return _rational_rref(*a.shape, i, j, a[i, j])[:2]
    pivots, R = _dense_kernel(a, field.p, back=True)
    rank, free = len(pivots), _free_columns(pivots, a.shape[1])
    if isinstance(R, list):  # the row loop's lists
        return pivots, np.array([[row[j] for j in free] for row in R[:rank]],
                                dtype=a.dtype).reshape(rank, len(free))
    # the free columns move left within R, 256 rows at a time, so the block is
    # a view: a copy would add up to R's size to a census's peak memory
    for r in range(0, rank, 256):
        rows = slice(r, min(r + 256, rank))
        R[rows, :len(free)] = np.take(R[rows], free, axis=1)
    return pivots, R[:rank, :len(free)]


def _kernel_rows(A: Matrix):
    """The rows of ``K``, from one elimination of ``A``, which also sets its
    rank and kernel support (the nonzero rows).  Over F2, one int per column
    in the F2 row format, with bits on the free columns only; over other
    fields, an ``n x nullity`` array whose column ``k`` is the kernel vector
    of the ``k``-th free column."""
    n = A.n
    if not A.field.is_gf2:
        pivots, block = A._reduce()
        free = _free_columns(pivots, n)
        K = field_array(A.field, np.zeros((n, len(free)), dtype=np.uint8))
        K[free, range(len(free))] = A.field.one()
        K[pivots] = -block if A.field.p is None else -block % A.field.p
        return K
    pivots, R = _rref_gf2(_int_rows(A._a), n)
    free_mask = (1 << n) - 1
    for c in pivots:
        free_mask ^= 1 << (n - 1 - c)
    K = [1 << (n - 1 - j) for j in range(n)]  # a free column's own bit
    for c, x in zip(pivots, R):
        K[c] = x & free_mask
    A._rank = len(pivots)
    A._ksup = frozenset(j for j, x in enumerate(K) if x)
    return K


def _rank_of_rows(A: Matrix, K, rows) -> int:
    """``rank(K_rows)`` for the kernel rows ``K`` of ``A``."""
    if A.field.is_gf2:
        return len(_echelon_gf2([K[j] for j in rows], A.n))
    return len(_reduced(A.field, K[list(rows)])[0])


# ------------------------------------------------ exact rational elimination


@dataclass(frozen=True)
class RationalRank:
    """The rank over Q from :func:`rational_rank`, the certificate that
    settled it (``exit``), and the primes it reduced modulo, in order."""

    rank: int
    exit: str  # "full" | "lift"
    primes: tuple[int, ...]


def _primes_descending():
    """Every prime below ``PRIME_LIMIT`` (2^31), largest first."""
    q = PRIME_LIMIT - 1
    while q > 2:
        if is_prime(q):
            yield q
        q -= 2


def rational_rank(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> RationalRank:
    """Exact rank over Q of the symmetric ``n x n`` matrix ``A`` with zero
    diagonal and ``A[i[k], j[k]] = A[j[k], i[k]] = w[k]`` for each edge ``k``
    of the arrays ``i``, ``j`` (ints) and ``w`` (distinct pairs,
    ``i[k] != j[k]``, ``w[k]`` a nonzero ``Fraction``).

    Reduction modulo a prime p that divides no denominator is a ring map,
    so a minor that is nonzero mod p is nonzero over Q: rank_p <= rank_Q.
    :func:`sparse_rank` ranks ``A`` from its edges modulo the largest such
    prime, and settles it when that rank is ``n`` (exit ``full``, the common
    case).  Otherwise the rank is that of the RREF that
    :func:`_rational_rref` lifts from the edges in both orientations (exit
    ``lift``).
    """
    weights = w.tolist()
    scale = math.lcm(*(x.denominator for x in weights))
    p = next(q for q in _primes_descending() if scale % q)
    vals = np.array([x.numerator * pow(x.denominator, -1, p) % p for x in weights], np.int64)
    # a numerator that p divides is no entry of the matrix mod p
    entry = vals != 0
    if sparse_rank(n, i[entry], j[entry], vals[entry], p) == n:
        return RationalRank(n, "full", (p,))
    pivots, _, primes = _rational_rref(n, n, np.concatenate((i, j)), np.concatenate((j, i)),
                                       np.concatenate((w, w)))
    return RationalRank(len(pivots), "lift", primes)


def _rational_rref(m: int, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray):
    """The RREF ``R`` over Q of the ``m x n`` matrix ``A`` with
    ``A[i[k], j[k]] = w[k]`` for each ``k`` (int arrays ``i``, ``j`` of
    distinct positions, nonzero Fractions ``w``), as ``(pivots, block,
    primes)``: R's pivot columns, its pivot rows on the free columns (an
    object array of Fractions) and the primes reduced modulo, in order.

    Each row's denominators are cleared (row scaling keeps the RREF), and
    the integer matrix is reduced to its RREF by :func:`_reduced` modulo
    each prime of :func:`_primes_descending`: rank_p <= rank_Q, as reduction
    modulo p is a ring map.  The pivot rows of the latest run of primes that
    share the best rank and pivots are combined by CRT, reconstructed
    (:func:`_reconstruct`) and returned once the ``K`` they give (module
    docstring) satisfies ``A K = 0`` exactly.  Its ``n - best`` independent
    columns make the rank exact.  R is in reduced echelon form (a residue 0
    reconstructs to 0) and ``R K = 0``, so R's rows span the annihilator of
    the kernel, A's row space: R is A's RREF.  All but finitely many primes
    keep rank_Q and A's pivots, so the loop ends.
    """
    rows, weights = i.tolist(), w.tolist()
    scale = [1] * m
    for r, x in zip(rows, weights):
        scale[r] = math.lcm(scale[r], x.denominator)
    cleared = [x.numerator * (scale[r] // x.denominator) for r, x in zip(rows, weights)]
    # the nonzeros of the integer matrix by column, for the exact check
    by_col: list[list] = [[] for _ in range(n)]
    for r, c, x in zip(rows, j.tolist(), cleared):
        by_col[c].append((r, x))
    best, lift_pivots, primes = -1, None, []
    for p in _primes_descending():
        primes.append(p)
        M = np.zeros((m, n), dtype=np.uint32)  # every prime is below 2^31
        M[i, j] = [x % p for x in cleared]
        pivots, residues = _reduced(FieldSpec.prime(p), M)
        rank = len(pivots)
        if rank < best:
            continue
        residues = residues.astype(object)
        if rank == best and pivots == lift_pivots:
            lift = lift + modulus * ((residues - lift) * pow(modulus, -1, p) % p)
            modulus *= p
        else:
            # At rank_Q the pivots are A's RREF's, and the residues reduce
            # its pivot rows; another pivot list (rare at p ~ 2^31) reduces
            # other rows, so the CRT starts over.
            best, lift_pivots, lift, modulus = rank, pivots, residues, p
        block = _lifted_block(lift, modulus, pivots, by_col)
        if block is not None:
            return pivots, block, tuple(primes)
    raise AssertionError("no primes left below 2^31; the lift ends before")


def _lifted_block(residues, modulus: int, pivots: list[int], by_col) -> np.ndarray | None:
    """The pivot rows of an RREF on its free columns, reconstructed from
    ``residues`` modulo ``modulus``, if the ``K`` they give satisfies
    ``A K = 0`` exactly, else None.  Each column of ``K`` is scaled to
    integers and checked against the row-cleared integer matrix, whose
    nonzeros in column ``c`` are the ``(row, value)`` pairs ``by_col[c]``."""
    bound = math.isqrt((modulus - 1) // 2)
    block = np.full(residues.shape, Fraction(0), dtype=object)
    for k, free in enumerate(_free_columns(pivots, len(by_col))):
        # a residue 0 reconstructs to 0, and only a nonzero one to a nonzero
        at = np.flatnonzero(residues[:, k])
        column = [_reconstruct(a, modulus, bound) for a in residues[at, k].tolist()]
        if None in column:
            return None
        den = math.lcm(*(v for _, v in column))
        y = [(free, den)] + [(pivots[t], -u * (den // v)) for t, (u, v) in zip(at, column)]
        acc: dict[int, int] = {}
        for c, t in y:
            for r, x in by_col[c]:
                acc[r] = acc.get(r, 0) + x * t
        if any(acc.values()):
            return None
        block[at, k] = [Fraction(u, v) for u, v in column]
    return block


def _reconstruct(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """``(u, v)`` with ``u = v * a (mod m)``, ``|u| <= bound``,
    ``0 < v <= bound`` and ``gcd(u, v) = 1``, unique when
    ``2 * bound**2 < m``, or None: rational reconstruction by the extended
    Euclidean algorithm."""
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


# ------------------------------------------------------- frozen variables


def frozen_set(A: Matrix) -> tuple[int, ...]:
    """Columns frozen in ``A``, ascending: the complement of the kernel
    support, from one elimination.  The rank-drop route of the definition
    is the oracle :func:`frozenrank.verify.frozen_set_by_removal`."""
    support = A.kernel_support()
    return tuple(j for j in range(A.n) if j not in support)


def is_frozen(A: Matrix, i: int) -> bool:
    return _index(i, A.n, "column") not in A.kernel_support()


def is_relation(A: Matrix, I) -> bool:
    """Whether some row-space vector has nonempty support inside ``I``.

    By the identity in the module docstring: iff the kernel rows ``K_I``
    are dependent, so that deleting the columns ``I`` lowers the rank.
    """
    iset = _index_set(I, A.n, "column")
    if not iset:
        raise ValueError("relation index set must be nonempty")
    return _rank_of_rows(A, _kernel_rows(A), iset) < len(iset)


def row_in_span(A: Matrix, b) -> bool:
    """Whether the row vector ``b`` lies in the span of the rows of ``A``."""
    return A.append_row(b).rank() == A.rank()


def proper_relations(A: Matrix, ell: int) -> list[tuple[int, ...]]:
    """All size-``ell`` proper relations of ``A``, sorted, over any field.

    One elimination gives the kernel rows ``K``; a candidate ``I`` is kept
    when its unfrozen part ``core`` is nonempty and ``K_core`` is dependent
    (the identity in the module docstring).  The candidates are walked as a
    depth-first search over their prefixes, each prefix carrying an echelon
    basis of its core's rows of ``K``, so that a new column costs one
    reduction against that basis; a frozen column (a zero row) leaves it as
    it is.  A superset of a dependent core is dependent, so once a column's
    row reduces to zero every completion of the prefix is a relation and is
    listed without further work.  The search visits the prefixes in
    ascending order and lists completions by ``itertools.combinations``, so
    the output is in the order of ``combinations(range(n), ell)``, as when
    each candidate was ranked on its own.  The literal routes, row-space
    enumeration and remove-and-rank, are oracles in :mod:`frozenrank.verify`.
    """
    if ell < 1:
        raise ValueError("relation size must be >= 1")
    K = _kernel_rows(A)
    n, support, p = A.n, A._ksup, A.field.p
    if A.field.is_gf2:
        # an int XOR basis: each row is reduced by the rows before it, so it
        # is zero on their pivot bits, and reducing in order clears them all
        def reduced(x, basis):
            for bit, b in basis:
                if x & bit:
                    x ^= b
            return x

        def entry(x):
            return x & -x, x
    else:
        # residue or Fraction lists, each row 1 at its pivot position; a row
        # that reduces to zero comes back as None
        K = K.tolist()

        def reduced(x, basis):
            for c, b in basis:
                f = x[c]
                if f:
                    x = ([a - f * e for a, e in zip(x, b)] if p is None
                         else [(a - f * e) % p for a, e in zip(x, b)])
            return x if any(x) else None

        def entry(x):
            c = next(c for c, a in enumerate(x) if a)
            if p is None:
                return c, [a / x[c] for a in x]
            inv = pow(x[c], -1, p)
            return c, [a * inv % p for a in x]

    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], start: int, basis: list) -> None:
        left = ell - len(prefix) - 1  # columns still to pick after this one
        for j in range(start, n - left):
            if j not in support:
                if left:
                    walk(prefix + (j,), j + 1, basis)
                # else the core is the prefix's, independent
                continue
            x = reduced(K[j], basis)
            if not x:
                out.extend(prefix + (j,) + rest
                           for rest in itertools.combinations(range(j + 1, n), left))
            elif left:
                basis.append(entry(x))
                walk(prefix + (j,), j + 1, basis)
                basis.pop()

    walk((), 0, [])
    return out


def is_delta_ell_free(A: Matrix, delta: float, ell: int) -> bool:
    """Whether ``A`` has at most ``delta * n**ell`` proper relations of size
    ``ell``, as :func:`proper_relations` lists them."""
    return len(proper_relations(A, ell)) <= delta * A.n ** ell


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
    i = _index(i, min(A.m, A.n), "variable")
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

    Proportions are counts over ``n``, which the five counts must
    partition (asserted on creation).  The frozen counts of the matrix and
    of its transpose are ``x+y+v`` and ``x+y+u`` by definition of the
    types; ``alpha``/``alpha_hat`` are their proportions.
    """

    n: int
    count_x: int
    count_y: int
    count_z: int
    count_u: int
    count_v: int

    def __post_init__(self):
        total = self.count_x + self.count_y + self.count_z + self.count_u + self.count_v
        if total != self.n:
            raise ValueError("type counts must partition the census range")

    @property
    def frozen_count(self) -> int:
        return self.count_x + self.count_y + self.count_v

    @property
    def frozen_count_t(self) -> int:
        return self.count_x + self.count_y + self.count_u

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
        )


def variable_types(A: Matrix, census_size: int | None = None) -> tuple[str, ...]:
    """Types of variables ``0..census_size-1``, as :func:`classify_variable`
    gives them; ``census_size`` defaults to ``min(m, n)``.

    Cost: one elimination, of ``[A^T | E_k]`` (module docstring).
    """
    m, n = A.m, A.n
    k = min(m, n) if census_size is None else census_size
    if not 0 <= k <= min(m, n):
        raise ValueError(f"census size {k} outside [0, min(m, n) = {min(m, n)}]")
    if not k:
        return ()
    # the census's largest array, reduced in place over F_p
    aug = field_array(A.field, np.zeros((n, m + k), dtype=np.uint8))
    aug[:, :m] = A._a.T
    aug[range(k), range(m, m + k)] = A.field.one()
    if A.field.is_gf2:
        flags = _census_flags_gf2(*_rref_gf2(_int_rows(aug), m + k), m, k)
    else:
        flags = _census_flags(*_reduced(A.field, aug), m, k)
    # frozen on one side only is firmly frozen
    return tuple(("X" if frail else "Y") if fa and fat else "V" if fa else "U" if fat else "Z"
                 for fa, fat, frail in flags)


def _census_flags_gf2(pivots: list[int], R: list[int], m: int, k: int) -> list[tuple]:
    """``(i in F(A), i in F(A^T), y_i != 0)`` for each ``i < k``, read off
    the F2 RREF of ``[A^T | E_k]`` as int rows (column ``m + i`` is bit
    ``k - 1 - i``)."""
    hit = 0  # columns hit by a row with a zero left part
    for x in R:
        if not x >> k:
            hit |= x
    row_of = dict(zip(pivots, R))
    out = []
    for i in range(k):
        x, bit = row_of.get(i, 0), 1 << (k - 1 - i)
        # in F(A^T): the row's left part is its pivot bit alone
        out.append((not hit & bit, x >> k == 1 << (m - 1 - i), bool(x & bit)))
    return out


def _census_flags(pivots: list[int], block: np.ndarray, m: int, k: int) -> list[tuple]:
    """The flags of :func:`_census_flags_gf2`, read off the reduced form
    ``(pivots, block)`` of ``[A^T | E_k]`` (:func:`_reduced`)."""
    r = sum(c < m for c in pivots)  # the pivots and free columns of A^T come first
    zero_t = np.count_nonzero(block[:r, :m - r], axis=1) == 0
    hit = np.count_nonzero(block[r:], axis=0) > 0
    col = {c: t for t, c in enumerate(_free_columns(pivots, m + k))}
    row_of = {c: t for t, c in enumerate(pivots)}
    out = []
    for i in range(k):
        c, t = col.get(m + i), row_of.get(i)  # c is None: m + i is a pivot
        out.append((c is not None and not hit[c], t is not None and bool(zero_t[t]),
                    c is not None and t is not None and bool(block[t, c])))
    return out


def type_census(A: Matrix, census_size: int | None = None) -> TypeProfile:
    """Tally the five types of variables ``0..census_size-1``.

    ``census_size`` defaults to ``min(m, n)``; pass the unpadded dimension
    explicitly when ``A`` carries perturbation rows/columns so the
    artificial unit rows and columns stay outside the census.

    Cost: one elimination (:func:`variable_types`).
    """
    types = variable_types(A, census_size)
    if not types:
        raise ValueError("census range is empty")
    return TypeProfile.tally(types)


def symmetric_removal_rank_drop(A: Matrix, i: int) -> int:
    """Rank drop when row ``i`` and column ``i`` are removed together.

    Always in {0, 1, 2}: 2 exactly for completely frozen variables, 0
    exactly for variables frozen on neither side, 1 otherwise.
    """
    if A.m != A.n:
        raise ValueError("symmetric removal requires a square matrix")
    i = _index(i, A.n, "row and column")
    return A.rank() - A.remove(rows=[i], cols=[i]).rank()


def relabelled(A: Matrix, perm) -> Matrix:
    """Joint row/column relabelling: entry (perm[i], perm[j]) = A(i, j)."""
    if A.m != A.n:
        raise ValueError("joint relabelling requires a square matrix")
    perm = [_index(t, A.n, "permutation") for t in perm]
    if sorted(perm) != list(range(A.n)):
        raise ValueError("not a permutation of range(n)")
    inv = [0] * A.n
    for i, t in enumerate(perm):
        inv[t] = i
    return Matrix._from_array(A.field, A._a.take(inv, 0).take(inv, 1))


def block(grid: list[list[Matrix]]) -> Matrix:
    """Assemble a block matrix; row heights and column widths must agree."""
    fields = {B.field for row in grid for B in row}
    if len(fields) != 1:
        raise ValueError("block assembly requires a single field")
    return Matrix._from_array(fields.pop(), np.block([[B._a for B in row] for row in grid]))


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
    if m < 0 or n < 0:
        raise ValueError(f"matrix header {lines[0].strip()!r}: dimensions must be >= 0")
    field = FieldSpec.parse_label(head[2])
    # the rows of an m x 0 matrix are blank lines, which are skipped
    if len(lines) != (m + 1 if n else 1):
        raise ValueError(f"expected {m} entry rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} entries per row, found {len(toks)}")
        rows.append([field.parse_entry(t) for t in toks])
    return Matrix._from_array(field, field_array(field, rows).reshape(m, n))
