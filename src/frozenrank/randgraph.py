"""Coupled sampling of sparse weighted symmetric adjacency matrices, and
Karp-Sipser leaf removal.

Every random matrix here is a view of one sample.  :func:`sample_edges` is
the only place that evaluates the edge coupling: a :class:`CouplingSource`
gives each unordered pair a uniform ``q(i, j)`` that is a pure function of
``(seed, i, j)``, and ``{i, j}`` is an edge iff ``q(i, j) < p``.  So raising
``p`` with a fixed source only adds edges, and samples of different sizes
share the support of their common block.  :func:`sample_graph` weights the
sampled edges from a symmetric :class:`WeightTemplate` with nonzero entries;
the weights and the field decorate the support and never change it.  The
dense adjacency (:meth:`Graph.adjacency`) and the relabelled principal block
(:func:`sample_T`) are then built from that :class:`Graph`.  Leaf removal
(:func:`leaf_removal`, or :func:`karp_sipser` of a :class:`Graph`) reads
only the support, and its one record, :class:`LeafRemoval`, states the
vertex count and the rank identity; a core is weighted after it is found,
on its own edges.  Edges stay arrays from the sampler through leaf removal
to the core that is ranked.
"""

from __future__ import annotations

import heapq
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .exactla import DENSE_CAP, Matrix, field_array
from .field import RATIONAL_POOL, FieldSpec
from .prf import Stream, mix64_below, prf, prf_array

_TWO64 = float(1 << 64)

TEMPLATE_KINDS = ("allones", "random")


@dataclass(frozen=True)
class CouplingSource:
    """Uniform values ``q(i, j) in [0, 1)`` for unordered pairs, seeded."""

    seed: int

    def q(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("q is defined for distinct vertices only")
        lo, hi = (i, j) if i < j else (j, i)
        return prf(self.seed, lo, hi) / _TWO64


@dataclass(frozen=True)
class WeightTemplate:
    """Symmetric grid of nonzero weights prescribing edge values.

    ``allones`` uses the multiplicative identity everywhere; ``random``
    draws a seeded nonzero element per unordered pair (uniform residue for
    prime fields, uniform over the bounded pool for the rationals).
    """

    field: FieldSpec
    n: int
    kind: str = "allones"  # one of TEMPLATE_KINDS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TEMPLATE_KINDS:
            raise ValueError(f"unknown template kind {self.kind!r}")

    def entry(self, i: int, j: int) -> int | Fraction:
        if i == j:
            raise ValueError("templates carry off-diagonal entries only")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("template index out of range")
        return self._raw(min(i, j), max(i, j))

    def _raw(self, lo: int, hi: int):
        if self.kind == "allones":
            return Fraction(1) if self.field.kind == "rationals" else 1
        h = prf(self.seed, lo, hi)
        if self.field.kind == "prime":
            return 1 + h % (self.field.p - 1)
        return RATIONAL_POOL[h % len(RATIONAL_POOL)]

    def weights(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`_raw` of the pairs ``(lo[k], hi[k])`` with ``lo < hi``,
        computed as one vector: int64 residues for prime fields, an object
        array of Fractions for Q."""
        rational = self.field.kind == "rationals"
        if self.kind == "allones" or self.field.p == 2:
            return np.full(lo.shape, self.field.one(),
                           dtype=object if rational else np.int64)
        h = prf_array(self.seed, lo, hi)
        if rational:
            return np.array(RATIONAL_POOL, dtype=object)[h % np.uint64(len(RATIONAL_POOL))]
        return 1 + (h % np.uint64(self.field.p - 1)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple weighted graph: vertices ``0..n-1``, nonzero edge weights.

    Edge ``k`` joins ``i[k]`` and ``j[k]`` with weight ``w[k]``.  The graph
    holds read-only copies of its edge arrays: int64 endpoints, and weights
    that are canonical residues in ``[1, p)`` in an int64 array over F_p, or
    nonzero Fractions in an object array over Q, given as ints or Fractions.
    The constructor takes any sequences and checks every graph once, on the
    arrays: ``n >= 0``, no self-loops, endpoints in range, no pair twice (in
    either orientation) and the weights above.  :meth:`from_edges` builds
    one from ``(i, j, w)`` triples.
    """

    n: int
    field: FieldSpec
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n, p = self.n, self.field.p
        if n < 0:
            raise ValueError(f"graph size n must be >= 0, got {n}")
        i, j = _endpoints(self.i), _endpoints(self.j)
        w = np.array(self.w, dtype=object if p is None else None)
        if w.size == 0 and p is not None:
            w = np.zeros(0, dtype=np.int64)
        if i.ndim != 1 or not i.shape == j.shape == w.shape:
            raise ValueError("i, j and w must be 1-D sequences of one length")
        _check_support(n, i, j)
        if p is None:
            w = np.array([self.field.element(x) for x in w.tolist()], dtype=object)
            if not all(w):
                raise ValueError("edge weights over Q must be nonzero")
        elif w.dtype.kind not in "iu" or not np.all((0 < w) & (w < p)):
            raise ValueError(f"edge weights over {self.field.label()} must be nonzero "
                             f"canonical residues, ints in [1, {p})")
        else:
            w = w.astype(np.int64, copy=False)
        for name, a in (("i", i), ("j", j), ("w", w)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_edges(cls, n: int, field: FieldSpec, edges) -> "Graph":
        """The graph of a sequence of ``(i, j, w)`` triples."""
        edges = tuple(edges)
        i, j, w = zip(*edges) if edges else ((), (), ())
        return cls(n, field, i, j, w)

    @property
    def edges(self) -> tuple:
        """The edges as ``(i, j, w)`` triples of Python values, in order."""
        return tuple(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.field == other.field
                and all(np.array_equal(a, b) for a, b in
                        ((self.i, other.i), (self.j, other.j), (self.w, other.w))))

    @property
    def edge_count(self) -> int:
        return self.i.size

    def degrees(self) -> list[int]:
        return np.bincount(np.concatenate((self.i, self.j)), minlength=self.n).tolist()

    def adjacency(self) -> Matrix:
        """Weighted adjacency matrix (symmetric, zero diagonal).  A graph
        above ``DENSE_CAP`` is refused before the array is allocated."""
        if self.n > DENSE_CAP:
            raise ResourceCapError(
                f"dense adjacency of size {self.n} above the cap {DENSE_CAP}"
            )
        arr = field_array(self.field, np.zeros((self.n, self.n), dtype=np.uint8))
        arr[self.i, self.j] = arr[self.j, self.i] = field_array(self.field, self.w)
        return Matrix._from_array(self.field, arr)


def _check_support(n: int, i: np.ndarray, j: np.ndarray) -> None:
    """Refuse the edge support ``(i, j)`` of one length on ``n`` vertices
    unless it is simple: no self-loops, endpoints in range and no pair twice,
    in either orientation."""
    if np.any(i == j):
        raise ValueError("self-loops are not allowed")
    if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
        raise ValueError("edge endpoint out of range")
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    later = order[1:][key[order[1:]] == key[order[:-1]]]  # repeats of a pair
    if later.size:
        k = later.min()  # the first repeat in edge order
        raise ValueError(f"duplicate edge {(int(lo[k]), int(hi[k]))}")


def _endpoints(x) -> np.ndarray:
    """``x`` as a new int64 array; a sequence of non-integers is refused."""
    a = np.array(x)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError("edge endpoints must be integers")
    return a.astype(np.int64, copy=False)


# ------------------------------------------------------------------ sampling


def _validate_sample_args(n: int, template: WeightTemplate):
    # p is checked by edge_cut, before any pair is evaluated
    if n < 0:
        raise ValueError("n must be nonnegative")
    if template.n < n:
        raise ValueError(f"template size {template.n} smaller than n={n}")


# rows of the pair grid that sample_edges mixes per block: enough that the
# numpy calls of a block run long between the GIL hand-offs of the threads,
# few enough that a thread's two buffers (rows x n uint64 words each, 1 MB at
# n = 2000) stay small
_BLOCK_ROWS = 64

# pairs of the grid each sampler thread must get, or no helper is started:
# below this, starting a thread and handing the GIL over cost more than its
# share of the mixing saves (2-vCPU host, d = 3: two threads took 0.38 ms
# against 0.34 ms for one at n = 500, and 0.60 against 0.68 ms at n = 800)
_THREAD_PAIRS = 1 << 17

# most threads sample_edges runs on, whatever the CPU count: more were never
# timed, and each adds two buffers (at most 2 x 2 x 64 x 4096 words, 8 MB, in
# all at n = 4096)
_MAX_THREADS = 2


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_threads = available_cpus()


def set_sampler_threads(count: int) -> None:
    """Let :func:`sample_edges` use up to ``count`` threads (the calling one
    included, and never more than ``_MAX_THREADS``) in this process; a worker
    pool gives each process its share."""
    if count < 1:
        raise ValueError("the sampler needs at least one thread")
    global _threads
    _threads = count


def edge_cut(p: float) -> int:
    """Least integer ``q`` with ``q / 2**64 >= p`` in float arithmetic, for
    ``0 <= p <= 1``: a pair is an edge iff its 64-bit PRF value is below it.

    This is the test ``CouplingSource.q(i, j) < p`` on integers, found by an
    exact binary search on that same predicate (the conversion of ``q`` to
    float rounds, so for ``p = 1`` the values that round up to ``2**64`` are
    not edges).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    lo, hi = 0, (1 << 64) - 1  # the predicate holds at hi: q / 2**64 == 1.0
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / _TWO64 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sample_edges(n: int, p: float, coupling: CouplingSource) -> tuple[np.ndarray, np.ndarray]:
    """Edge support under the monotone coupling: pairs with q(i, j) < p,
    as int64 arrays ``(i, j)`` with ``i < j``, in row-major order.

    ``prf(seed, i, j)`` is ``mix64(prf(seed, i) ^ j)``, so ``prf(seed, i)``
    is computed once per row.  Each block of rows XORs in the column words
    in two buffers, where :func:`~frozenrank.prf.mix64_below` runs the last
    mixing round only on the pairs that can still fall below the cut.  The
    blocks are dealt out between ``t`` threads, the calling one and
    ``t - 1`` helpers (numpy releases the GIL in its loops): thread ``k``
    takes blocks ``k, k + t, ...``, with its own two buffers, and writes
    each block's edges to that block's slot.  ``t`` is at most the count set
    by :func:`set_sampler_threads` and at most ``_MAX_THREADS``, and only as
    large as gives each thread ``_THREAD_PAIRS`` pairs, so a small grid runs
    on the calling thread alone.  The helpers are joined before this returns, so none is alive at
    a later ``fork``, and the slots are joined in row order, so the arrays
    do not depend on the thread count.
    """
    cut = edge_cut(p)
    vertices = np.arange(n, dtype=np.uint64)
    row_words = prf_array(coupling.seed, vertices)
    blocks = range(0, n - 1, _BLOCK_ROWS)
    threads = max(1, min(_threads, _MAX_THREADS, n * (n - 1) // 2 // _THREAD_PAIRS))
    found = [None] * len(blocks)
    failed = []

    def run(k: int, buf: np.ndarray, scratch: np.ndarray) -> None:
        try:
            for b in range(k, len(blocks), threads):
                r0 = blocks[b]
                rows = row_words[r0:r0 + _BLOCK_ROWS, None]
                cols = vertices[None, r0 + 1:]
                shape = (rows.size, cols.size)
                q = np.bitwise_xor(rows, cols, out=buf[:rows.size * cols.size].reshape(shape))
                ii, jj = np.divmod(mix64_below(q, cut, scratch[:q.size].reshape(shape)),
                                   cols.size)
                ii += r0
                jj += r0 + 1
                upper = jj > ii
                found[b] = (ii[upper], jj[upper])
        except BaseException as exc:
            failed.append(exc)

    # every thread's buffers are allocated here, by the calling thread: once
    # freed they serve the trial's later allocations, where buffers that a
    # helper allocated stayed in its malloc arena (700 passes of the trials
    # benchmark at three seeds peaked 1.7-5.0 MB above the one-thread sampler
    # with 32-row blocks that way, and 0.1-0.3 MB above it this way)
    bufs = np.empty((threads, 2, min(_BLOCK_ROWS, n) * n), dtype=np.uint64)
    helpers = []
    try:
        for k in range(1, threads):
            t = threading.Thread(target=run, args=(k, *bufs[k]))
            t.start()
            helpers.append(t)
        run(0, *bufs[0])
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise failed[0]
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty] + [ii for ii, _ in found], dtype=np.int64),
            np.concatenate([empty] + [jj for _, jj in found], dtype=np.int64))


def sample_graph(
    n: int, p: float, template: WeightTemplate, coupling: CouplingSource
) -> Graph:
    """Weighted graph with independent edges at probability ``p``."""
    _validate_sample_args(n, template)
    ii, jj = sample_edges(n, p, coupling)
    return Graph(n, template.field, ii, jj, template.weights(ii, jj))


def sample_support(n: int, p: float, coupling: CouplingSource) -> tuple[np.ndarray, np.ndarray]:
    """The edge support that :func:`sample_graph` weights, without weights:
    :func:`sample_edges`, checked as every :class:`Graph` is checked."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ii, jj = sample_edges(n, p, coupling)
    _check_support(n, ii, jj)
    return ii, jj


def uniform_permutation(N: int, perm_seed: int) -> list[int]:
    """Seeded Fisher-Yates permutation of ``range(N)`` (exactly uniform)."""
    perm = list(range(N))
    Stream(perm_seed).shuffle(perm)
    return perm


def sample_T(G: Graph, n: int, perm_seed: int = 0) -> Matrix:
    """Principal ``n x n`` block of the adjacency of ``G`` after the uniform
    relabelling ``u = uniform_permutation(G.n, perm_seed)`` of its vertices:
    vertex ``u[k]`` of ``G`` becomes ``k``.

    With the same ``G`` and seed, the result for ``n`` is the leading
    principal submatrix of the result for ``n + 1``, and for ``n = G.n`` it
    has the rank of ``G.adjacency()``.
    """
    if n > G.n:
        raise ValueError(f"n={n} exceeds the graph size {G.n}")
    label = np.empty(G.n, dtype=np.int64)
    label[uniform_permutation(G.n, perm_seed)] = np.arange(G.n)
    a, b = label[G.i], label[G.j]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = hi < n
    return Graph(n, G.field, lo[keep], hi[keep], G.w[keep]).adjacency()


# ------------------------------------------------------------- leaf removal


@dataclass(frozen=True, eq=False)
class LeafRemoval:
    """Exhaustive leaf removal of an edge support on ``n`` vertices, as
    :func:`leaf_removal` gives it.  Every array is read-only and held in the
    least unsigned type that fits: vertex ids sized by ``n``, ``kept`` by the
    support's edge count.

    ``removed_pairs`` has one ``(leaf, neighbour)`` row per removed pair, in
    the order they were removed.  ``core_vertices`` are the original ids of
    the core's vertices (minimum degree two), ascending; the core numbers
    them ``0, 1, ...`` in that order.  Core edge ``k`` joins core vertices
    ``core_i[k] < core_j[k]`` and is edge ``kept[k]`` of the support, so a
    weight array ``w`` of the support gives the core's weights as
    ``w[kept]``.  Every vertex is accounted for: ``isolated_count +
    core_vertices.size + 2 * len(removed_pairs)`` equals ``n``.

    Rank identity: over any field and for any nonzero weights,
    ``rank(A(G)) = 2 * len(removed_pairs) + rank(A(core))``.  Removing a
    leaf with its neighbour lowers the rank by exactly 2: it is the leaf
    case of the 2 x 2 pivot that :func:`frozenrank.exactla.sparse_rank`
    states and proves.  Isolated vertices are zero rows.  Equivalently,
    ``nul(A(G)) = isolated_count + nul(A(core))``.
    """

    isolated_count: int
    core_vertices: np.ndarray
    removed_pairs: np.ndarray
    core_i: np.ndarray
    core_j: np.ndarray
    kept: np.ndarray


def leaf_removal(n: int, i: np.ndarray, j: np.ndarray) -> LeafRemoval:
    """Remove degree-one vertices with their unique neighbors from the
    simple graph with edges ``(i[k], j[k])`` on ``n`` vertices, until only
    isolated vertices and a minimum-degree-two core remain.  Weights play no
    part: the same support leaves the same core over every field.

    The lowest-index leaf is removed first.  The isolated count and core
    vertex set do not depend on the order, only ``removed_pairs`` may.

    The neighbour lists are CSR arrays read as Python lists.  Each vertex
    keeps its live degree and the XOR of its live neighbours, so the one
    neighbour of a leaf ``v`` is ``xor[v]``.  The core's edges are the
    support's edges with both ends left, relabelled as ``(lo, hi)`` pairs in
    order of ``lo`` and then of the support's edge order.
    """
    ends = np.concatenate((i, j))
    order = np.argsort(ends)
    nbr = np.concatenate((j, i))[order]
    degree = np.bincount(ends, minlength=n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=start[1:])
    xor = np.zeros(n, dtype=np.int64)
    has = degree > 0
    if nbr.size:
        xor[has] = np.bitwise_xor.reduceat(nbr, start[:-1][has])

    heap = np.flatnonzero(degree == 1).tolist()  # ascending: a heap
    nbrs, start, deg, xor = nbr.tolist(), start.tolist(), degree.tolist(), xor.tolist()
    alive = [True] * n
    pairs = []  # leaf, neighbour, leaf, neighbour, ...
    while heap:
        v = heapq.heappop(heap)
        if not alive[v] or deg[v] != 1:
            continue  # stale entry: degree changed since it was queued
        u = xor[v]
        alive[v] = alive[u] = False
        for x in nbrs[start[u]:start[u + 1]]:
            if alive[x]:
                deg[x] -= 1
                xor[x] ^= u
                if deg[x] == 1:
                    heapq.heappush(heap, x)
        pairs += v, u

    left, deg = np.array(alive, dtype=bool), np.array(deg)
    in_core = left & (deg > 0)
    core_vertices = np.flatnonzero(in_core)
    if np.any(deg[in_core] < 2):
        raise AssertionError("leaf removal left a low-degree core vertex")
    live = int(np.count_nonzero(left))
    if live + len(pairs) != n:
        raise AssertionError("leaf removal lost vertices")
    index = np.cumsum(in_core) - 1
    kept = np.flatnonzero(in_core[i] & in_core[j])
    a, b = index[i[kept]], index[j[kept]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    by_lo = np.argsort(lo, kind="stable")
    vertex = np.min_scalar_type(n)
    lr = LeafRemoval(
        isolated_count=live - core_vertices.size,
        core_vertices=core_vertices.astype(vertex),
        removed_pairs=np.array(pairs, dtype=vertex).reshape(-1, 2),
        core_i=lo[by_lo].astype(vertex),
        core_j=hi[by_lo].astype(vertex),
        kept=kept[by_lo].astype(np.min_scalar_type(i.size)),
    )
    for arr in (lr.core_vertices, lr.removed_pairs, lr.core_i, lr.core_j, lr.kept):
        arr.flags.writeable = False
    return lr


def karp_sipser(G: Graph) -> LeafRemoval:
    """:func:`leaf_removal` of ``G``'s support."""
    return leaf_removal(G.n, G.i, G.j)


# ------------------------------------------------------------- text format


def format_graph(G: Graph) -> str:
    """Text form: header "n m field", then one "i j weight" line per edge."""
    lines = [f"{G.n} {G.edge_count} {G.field.label()}"]
    lines += [f"{i} {j} {w}" for i, j, w in G.edges]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError('graph header must be "n m field"')
    n, m = int(head[0]), int(head[1])
    field = FieldSpec.parse_label(head[2])
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise ValueError('edge lines must be "i j weight"')
        i, j = int(toks[0]), int(toks[1])
        edges.append((min(i, j), max(i, j), field.parse_entry(toks[2])))
    return Graph.from_edges(n, field, edges)
