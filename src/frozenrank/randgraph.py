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
(:func:`sample_T`) are then built from that :class:`Graph`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .exactla import DENSE_CAP, Matrix, check_rational_size, field_array
from .field import RATIONAL_POOL, FieldSpec
from .prf import Stream, prf, prf_array

_TWO64 = float(1 << 64)


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
    kind: str = "allones"  # "allones" | "random"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("allones", "random"):
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


@dataclass(frozen=True)
class Graph:
    """Simple weighted graph: vertices ``0..n-1``, nonzero edge weights."""

    n: int
    field: FieldSpec
    edges: tuple  # ((i, j, weight), ...) with i < j, weight a nonzero field value

    def __post_init__(self):
        n = self.n
        seen = set()
        add = seen.add
        for i, j, _ in self.edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("edge endpoint out of range")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            add(key)
        p = self.field.p
        if p is None:
            if not all(w for _, _, w in self.edges):
                raise ValueError("edge weights must be nonzero")
        elif not all(isinstance(w, int) and 0 < w < p for _, _, w in self.edges):
            raise ValueError(f"edge weights over {self.field.label()} must be nonzero "
                             f"canonical residues, ints in [1, {p})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self) -> Matrix:
        """Weighted adjacency matrix (symmetric, zero diagonal).  A graph
        above ``DENSE_CAP``, or over Q above the exact-elimination cap, is
        refused before the array is allocated."""
        if self.n > DENSE_CAP:
            raise ResourceCapError(
                f"dense adjacency of size {self.n} above the cap {DENSE_CAP}"
            )
        check_rational_size(self.field, self.n, self.n)
        arr = field_array(self.field, np.zeros((self.n, self.n), dtype=np.uint8))
        if self.edges:
            i, j, w = zip(*self.edges)
            arr[i, j] = arr[j, i] = field_array(self.field, w)
        return Matrix._from_array(self.field, arr)


# ------------------------------------------------------------------ sampling


def _validate_sample_args(n: int, template: WeightTemplate):
    # p is checked by edge_cut, before any pair is evaluated
    if n < 0:
        raise ValueError("n must be nonnegative")
    if template.n < n:
        raise ValueError(f"template size {template.n} smaller than n={n}")


# rows of the pair grid that sample_edges evaluates per prf_array call: enough
# to amortise numpy's per-call cost, few enough that a block's temporaries
# (rows x n uint64 words, 0.5 MB at n = 2000) stay small
_BLOCK_ROWS = 32


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
    as int64 arrays ``(i, j)`` with ``i < j``, in row-major order."""
    cut = np.uint64(edge_cut(p))
    vertices = np.arange(n, dtype=np.uint64)
    empty = np.zeros(0, dtype=np.int64)
    ii_out, jj_out = [empty], [empty]
    for r0 in range(0, n - 1, _BLOCK_ROWS):
        rows = vertices[r0:r0 + _BLOCK_ROWS]
        q = prf_array(coupling.seed, rows[:, None], vertices[None, r0 + 1:])
        # divmod of the flat hits: np.nonzero of a 2-D mask is ~5x slower
        ii, jj = np.divmod(np.flatnonzero(q < cut), q.shape[1])
        ii += r0
        jj += r0 + 1
        upper = jj > ii
        ii_out.append(ii[upper])
        jj_out.append(jj[upper])
    return np.concatenate(ii_out, dtype=np.int64), np.concatenate(jj_out, dtype=np.int64)


def sample_graph(
    n: int, p: float, template: WeightTemplate, coupling: CouplingSource
) -> Graph:
    """Weighted graph with independent edges at probability ``p``."""
    _validate_sample_args(n, template)
    ii, jj = sample_edges(n, p, coupling)
    ww = template.weights(ii, jj)
    edges = tuple(zip(ii.tolist(), jj.tolist(), ww.tolist()))
    return Graph(n=n, field=template.field, edges=edges)


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
    label = [0] * G.n
    for k, v in enumerate(uniform_permutation(G.n, perm_seed)):
        label[v] = k
    edges = []
    for i, j, w in G.edges:
        a, b = sorted((label[i], label[j]))
        if b < n:
            edges.append((a, b, w))
    return Graph(n, G.field, tuple(edges)).adjacency()


# ------------------------------------------------------------- leaf removal


@dataclass(frozen=True)
class KSResult:
    """Outcome of exhaustive leaf removal.

    ``core_vertices`` are original vertex ids (min degree two in ``core``,
    which is reindexed compactly in that order); every vertex is accounted
    for: ``isolated_count + len(core_vertices) + 2 * len(removed_pairs)``
    equals ``n``.

    Rank identity: over any field and for any nonzero weights,
    ``rank(A(G)) = 2 * len(removed_pairs) + rank(A(core))``.  When a leaf
    ``v`` is removed with its neighbour ``u``, row and column ``v`` are
    ``w * e_u`` with ``w != 0``, so they clear the rest of column and row
    ``u`` and deleting both vertices lowers the rank by exactly 2; isolated
    vertices are zero rows.  Equivalently,
    ``nul(A(G)) = isolated_count + nul(A(core))``.
    """

    isolated_count: int
    core: Graph
    core_vertices: tuple
    removed_pairs: tuple


def karp_sipser(G: Graph) -> KSResult:
    """Remove degree-one vertices with their unique neighbors until only
    isolated vertices and a minimum-degree-two core remain.

    The lowest-index leaf is removed first.  The isolated count and core
    vertex set do not depend on the order, only ``removed_pairs`` may.
    """
    n = G.n
    adj: list[dict] = [dict() for _ in range(n)]
    for i, j, w in G.edges:
        adj[i][j] = w
        adj[j][i] = w
    alive = [True] * n
    pairs = []

    heap = [v for v in range(n) if len(adj[v]) == 1]  # ascending: a heap
    while heap:
        v = heapq.heappop(heap)
        if not alive[v] or len(adj[v]) != 1:
            continue  # stale entry: degree changed since it was queued
        u = next(iter(adj[v]))
        for x in list(adj[u]):
            del adj[x][u]
            if x != v and alive[x] and len(adj[x]) == 1:
                heapq.heappush(heap, x)
        adj[u].clear()
        adj[v].clear()
        alive[v] = alive[u] = False
        pairs.append((v, u))

    isolated = sum(1 for v in range(n) if alive[v] and not adj[v])
    core_vertices = tuple(v for v in range(n) if alive[v] and adj[v])
    index = {v: k for k, v in enumerate(core_vertices)}
    core_edges = tuple(
        (index[i], index[j], w)
        for i in core_vertices
        for j, w in adj[i].items()
        if i < j
    )
    core = Graph(n=len(core_vertices), field=G.field, edges=core_edges)
    if min((len(adj[v]) for v in core_vertices), default=2) < 2:
        raise AssertionError("leaf removal left a low-degree core vertex")
    if isolated + len(core_vertices) + 2 * len(pairs) != n:
        raise AssertionError("leaf removal lost vertices")
    return KSResult(
        isolated_count=isolated,
        core=core,
        core_vertices=core_vertices,
        removed_pairs=tuple(pairs),
    )


def nullity_invariance_check(G: Graph) -> bool:
    """Exact check of the rank identity of :class:`KSResult`, in its
    nullity form, against a dense elimination of the whole adjacency, which
    refuses an oversized graph first.
    """
    lhs = G.adjacency().nullity()
    ks = karp_sipser(G)
    rhs = ks.isolated_count + (ks.core.adjacency().nullity() if ks.core.n else 0)
    return lhs == rhs


# ------------------------------------------------------------- text format


def format_graph(G: Graph) -> str:
    """Text form: header "n m field", then one "i j weight" line per edge."""
    lines = [f"{G.n} {G.edge_count} {G.field.label()}"]
    for i, j, w in G.edges:
        lines.append(f"{i} {j} {w}")
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
        w = field.parse_entry(toks[2])
        edges.append((min(i, j), max(i, j), w))
    return Graph(n=n, field=field, edges=tuple(edges))
