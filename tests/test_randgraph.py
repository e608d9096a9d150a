"""Samplers, the monotone edge coupling, and leaf removal."""

import functools
import heapq
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from frozenrank import randgraph
from frozenrank.errors import ResourceCapError
from frozenrank.exactla import DENSE_CAP, Matrix, field_array, relabelled
from frozenrank.field import FieldSpec
from frozenrank.prf import Stream
from frozenrank.randgraph import (
    CouplingSource,
    Graph,
    WeightTemplate,
    edge_cut,
    format_graph,
    karp_sipser,
    leaf_removal,
    parse_graph,
    sample_support,
    sample_T,
    sample_graph,
    uniform_permutation,
)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def triangle(field=F2, w=1):
    return Graph.from_edges(3, field, ((0, 1, w), (0, 2, w), (1, 2, w)))


def path3(field=F2, w=1):
    return Graph.from_edges(3, field, ((0, 1, w), (1, 2, w)))


def core_graph(G: Graph) -> Graph:
    """The leaf-removal core of ``G`` as a graph, weighted by ``G``'s
    weights on the core's edges."""
    lr = karp_sipser(G)
    return Graph(lr.core_vertices.size, G.field, lr.core_i, lr.core_j, G.w[lr.kept])


def nullity_invariance(G: Graph) -> bool:
    """Exact check of the rank identity of ``LeafRemoval``, in its nullity
    form, against a dense elimination of the whole adjacency, which refuses
    an oversized graph first."""
    lhs = G.adjacency().nullity()
    core = core_graph(G)
    return lhs == karp_sipser(G).isolated_count + (core.adjacency().nullity() if core.n else 0)


# ----------------------------------------------------------------- sampling


def test_p_zero_gives_zero_matrix():
    A = sample_graph(8, 0.0, WeightTemplate(F2, 8), CouplingSource(1)).adjacency()
    assert A == Matrix.zeros(F2, 8, 8)


def test_p_one_gives_complete_graph():
    A = sample_graph(5, 1.0, WeightTemplate(F2, 5), CouplingSource(1)).adjacency()
    vals = A.to_values()
    assert all(vals[i][j] == (i != j) for i in range(5) for j in range(5))


def test_sampling_deterministic():
    tpl = WeightTemplate(F5, 50, "random", seed=3)
    cpl = CouplingSource(17)
    assert sample_graph(50, 0.1, tpl, cpl) == sample_graph(50, 0.1, tpl, cpl)


def _just_above(p: float) -> float:
    return float(np.nextafter(p, 1.0))


def _just_below(p: float) -> float:
    return float(np.nextafter(p, 0.0))


# Cuts on a multiple of 2**33 (p = k / 2**31) and next to one; the filter
# bound of mix64_below is 2**64 from p = 1 - 2**-32 up, so it is skipped.  At
# the last probability the cut lies just above the pair value q(0, 1) of the
# coupling below: a filter bound one step of 2**33 too low drops that edge.
_FILTER_PROBABILITIES = [f(k / 2**31) for k in (1, 3) for f in (_just_below, float, _just_above)] \
    + [1 - 2**-31, 1 - 2**-32, _just_below(1.0), _just_above(CouplingSource(41).q(0, 1))]


@functools.lru_cache(maxsize=None)
def _literal_edges(seed: int, n: int, p: float) -> list:
    """The pairs with ``q(i, j) < p``, in row-major order, from the scalar
    definition (cached: the templates below share them)."""
    cpl = CouplingSource(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if cpl.q(i, j) < p]


@pytest.mark.parametrize("tpl", [
    WeightTemplate(F2, 300),
    WeightTemplate(F5, 300, "random", seed=8),
    WeightTemplate(Q, 300, "random", seed=8),
], ids=["F2-allones", "F5-random", "Q-random"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0, "3/n"] + _FILTER_PROBABILITIES)
def test_sample_matches_literal_coupling(tpl, p, monkeypatch):
    # the blocked sampler against the scalar definition, pair by pair and in
    # row-major order: within one block of rows (n=25 and 65), across the
    # block boundaries at 64 and 128 rows, and at n=300, where two threads
    # share five blocks; the last probabilities put the cut on and next to
    # mix64_below's filter bound, or skip the filter
    monkeypatch.setattr(randgraph, "_threads", 2)
    monkeypatch.setattr(randgraph, "_THREAD_PAIRS", 1 << 12)  # n=300 has 44850
    cpl = CouplingSource(41)
    for n in (25, 64, 65, 66, 130, 300):
        pn = 3 / n if p == "3/n" else p
        G = sample_graph(n, pn, tpl, cpl)
        assert [(i, j) for i, j, _ in G.edges] == _literal_edges(41, n, pn)
        for i, j, w in G.edges:
            assert w == tpl.entry(i, j)


_SPLIT_SIZES = (0, 1, 2, 63, 64, 65, 129, 300, 2000)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", _SPLIT_SIZES)
def test_split_sampler_matches_one_thread(n, threads, monkeypatch):
    # the blocks shared among 1-3 threads (a helper started for every 64
    # pairs, so even one-block grids are split) give the one-thread arrays
    cpl = CouplingSource(5)
    monkeypatch.setattr(randgraph, "_THREAD_PAIRS", 64)
    monkeypatch.setattr(randgraph, "_MAX_THREADS", 3)
    for p in (0.0, min(1.0, 3 / max(n, 1)), 0.5, 1.0) if n <= 300 else (3 / n,):
        monkeypatch.setattr(randgraph, "_threads", 1)
        want = randgraph.sample_edges(n, p, cpl)
        monkeypatch.setattr(randgraph, "_threads", threads)
        got = randgraph.sample_edges(n, p, cpl)
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and np.array_equal(a, b)


def test_split_sampler_with_a_short_switch_interval(monkeypatch):
    # more threads than cores, handing the GIL over every microsecond
    cpl = CouplingSource(6)
    monkeypatch.setattr(randgraph, "_THREAD_PAIRS", 64)
    monkeypatch.setattr(randgraph, "_MAX_THREADS", 5)
    monkeypatch.setattr(randgraph, "_threads", 1)
    want = {n: randgraph.sample_edges(n, 3 / n, cpl) for n in (300, 2000)}
    monkeypatch.setattr(randgraph, "_threads", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = {n: randgraph.sample_edges(n, 3 / n, cpl) for n in want}
    finally:
        sys.setswitchinterval(interval)
    for n in want:
        assert all(np.array_equal(a, b) for a, b in zip(got[n], want[n])), n


def test_helpers_start_only_for_large_grids(monkeypatch):
    # each thread needs _THREAD_PAIRS = 2**17 pairs: none is started up to
    # n=724 (261,726 pairs), one at n=725, and no more than one on 8 or 64
    # CPUs (_MAX_THREADS); every helper is joined on return
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(randgraph, "_threads", 8)
    monkeypatch.setattr(threading, "Thread", Counted)
    alive = threading.active_count()
    for n, helpers in ((0, 0), (64, 0), (128, 0), (129, 0), (300, 0), (724, 0),
                       (725, 1), (2000, 1)):
        del started[:]
        randgraph.sample_edges(n, 3 / max(n, 3), CouplingSource(1))
        assert len(started) == helpers, n
        assert threading.active_count() == alive
    monkeypatch.setattr(randgraph, "_threads", 1)
    randgraph.sample_edges(2000, 3 / 2000, CouplingSource(1))
    assert len(started) == 1  # no new helper on one CPU
    # at n=4096 on 64 CPUs the buffers are two threads' two 64 x 4096-word
    # arrays (8.4 MB), not 64 threads' (268 MB)
    monkeypatch.setattr(randgraph, "_threads", 64)
    del started[:]
    tracemalloc.start()
    try:
        randgraph.sample_edges(4096, 3 / 4096, CouplingSource(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(started) == 1
    assert peak < 3 * 2 * 64 * 4096 * 8


def test_set_sampler_threads():
    before = randgraph._threads
    try:
        randgraph.set_sampler_threads(3)
        assert randgraph._threads == 3
        with pytest.raises(ValueError):
            randgraph.set_sampler_threads(0)
        assert randgraph._threads == 3
    finally:
        randgraph.set_sampler_threads(before)
    assert randgraph.available_cpus() >= 1


_CUT_PROBABILITIES = sorted(
    {0.0, 5e-324, 2.0**-70, 0.5, 1 - 2.0**-53, 1.0}
    | {d / n for d in (0.5, 1, math.e, 3, 5) for n in (2, 300, 2000, 4096) if d <= n}
)


@pytest.mark.parametrize("p", _CUT_PROBABILITIES)
def test_edge_cut_is_the_float_predicate(p):
    # q is an edge iff q < cut iff q / 2**64 < p in float64, the test the
    # scalar CouplingSource.q and numpy's uint64 -> float64 conversion make
    def is_edge(q):
        return q / 2.0**64 < p

    cut = edge_cut(p)
    assert 0 <= cut < 2**64
    assert not is_edge(cut)
    assert cut == 0 or is_edge(cut - 1)
    q = np.array([max(cut - 1, 0), cut], dtype=np.uint64)
    assert list(q.astype(np.float64) / 2.0**64 < p) == [cut > 0, False]


def test_edge_cut_rounding_at_p_one():
    # q rounds to 2**64 from the halfway point 2**64 - 1024 upwards (ties to
    # even), so q / 2**64 < 1.0 fails there: those pairs are not edges at p=1
    assert edge_cut(1.0) == 2**64 - 1024
    assert not (2**64 - 1) < edge_cut(1.0)
    assert edge_cut(0.0) == 0
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            edge_cut(p)


def test_monotone_coupling():
    tpl = WeightTemplate(F2, 80)
    cpl = CouplingSource(5)
    supports = []
    for p in (0.01, 0.05, 0.2, 0.8):
        G = sample_graph(80, p, tpl, cpl)
        supports.append({(i, j) for i, j, _ in G.edges})
    for small, large in zip(supports, supports[1:]):
        assert small <= large


def test_support_independent_of_field_and_weights():
    cpl = CouplingSource(77)
    base = {(i, j) for i, j, _ in sample_graph(60, 0.08, WeightTemplate(F2, 60), cpl).edges}
    for tpl in (WeightTemplate(F5, 60, "random", 9), WeightTemplate(Q, 60, "random", 9)):
        got = {(i, j) for i, j, _ in sample_graph(60, 0.08, tpl, cpl).edges}
        assert got == base


def test_sample_validation():
    tpl = WeightTemplate(F2, 5)
    with pytest.raises(ValueError):
        sample_graph(6, 0.5, tpl, CouplingSource(0))  # template too small
    with pytest.raises(ValueError):
        sample_graph(5, 1.5, tpl, CouplingSource(0))
    with pytest.raises(ValueError):
        WeightTemplate(F2, 5, "weird")


def test_template_entries_nonzero_and_symmetric():
    tpl = WeightTemplate(F5, 20, "random", seed=1)
    for i in range(5):
        for j in range(5):
            if i != j:
                w = tpl.entry(i, j)
                assert w != 0
                assert w == tpl.entry(j, i)
    with pytest.raises(ValueError):
        tpl.entry(2, 2)


# ----------------------------------------------------------- T-matrices


def test_T_full_size_is_the_relabelled_adjacency():
    tpl = WeightTemplate(F5, 30, "random", seed=2)
    cpl = CouplingSource(8)
    G = sample_graph(30, 0.1, tpl, cpl)
    for seed in range(5):
        # undoing the seeded relabelling gives the adjacency back
        u = uniform_permutation(30, seed)
        assert relabelled(sample_T(G, 30, perm_seed=seed), u) == G.adjacency()


def test_T_relabels_vertex_u_k_to_k():
    G = sample_graph(20, 0.3, WeightTemplate(F5, 20, "random", seed=3), CouplingSource(9))
    u = uniform_permutation(20, 4)
    A, T = G.adjacency(), sample_T(G, 12, perm_seed=4)
    assert all(T.entry(k, l) == A.entry(u[k], u[l]) for k in range(12) for l in range(12))


def test_T_nested_in_n():
    tpl = WeightTemplate(F3, 25, "random", seed=4)
    G = sample_graph(25, 0.15, tpl, CouplingSource(12))
    for n in (3, 9, 17):
        small = sample_T(G, n, perm_seed=6)
        bigger = sample_T(G, n + 1, perm_seed=6)
        assert bigger.remove(rows=[n], cols=[n]) == small


def test_T_full_size_rank_equals_A_rank():
    tpl = WeightTemplate(F2, 30)
    cpl = CouplingSource(3)
    G = sample_graph(30, 0.1, tpl, cpl)
    A = G.adjacency()
    for seed in range(20):
        T = sample_T(G, 30, perm_seed=seed)
        assert T.rank() == A.rank()


def test_T_validation():
    G = sample_graph(10, 0.5, WeightTemplate(F2, 10), CouplingSource(0))
    with pytest.raises(ValueError):
        sample_T(G, 11)


def test_T_rational_matches_prime_support():
    cpl = CouplingSource(31)
    TQ = sample_T(sample_graph(12, 0.3, WeightTemplate(Q, 12, "random", 5), cpl), 12,
                  perm_seed=2)
    T2 = sample_T(sample_graph(12, 0.3, WeightTemplate(F2, 12), cpl), 12, perm_seed=2)
    for i in range(12):
        for j in range(12):
            assert (TQ.entry(i, j) == 0) == (T2.entry(i, j) == 0)


# ------------------------------------------------------------ leaf removal


def test_ks_triangle():
    ks = karp_sipser(triangle())
    assert ks.isolated_count == 0
    assert ks.core_vertices.tolist() == [0, 1, 2]
    assert ks.removed_pairs.shape == (0, 2)


def test_ks_path3():
    ks = karp_sipser(path3())
    assert ks.isolated_count == 1
    assert ks.core_vertices.size == 0
    assert ks.removed_pairs.tolist() == [[0, 1]]  # lowest-index leaf first


def test_ks_empty_graph():
    ks = karp_sipser(Graph.from_edges(7, F2, ()))
    assert ks.isolated_count == 7 and ks.core_vertices.size == 0


def test_ks_accounting_invariant():
    stream = Stream(15)
    for trial in range(30):
        tpl = WeightTemplate(F2, 50)
        G = sample_graph(50, stream.randbelow(40) / 100, tpl, CouplingSource(trial))
        ks = karp_sipser(G)
        assert ks.isolated_count + ks.core_vertices.size + 2 * len(ks.removed_pairs) == 50
        assert min(core_graph(G).degrees(), default=2) >= 2


def _core_edges(G: Graph, original) -> set:
    """The core's edges, with each endpoint under its ``original`` label."""
    v = karp_sipser(G).core_vertices.tolist()
    return {(frozenset((original[v[i]], original[v[j]])), w)
            for i, j, w in core_graph(G).edges}


def test_ks_order_independence():
    # lowest-index-first removal sees the leaves of a relabelled graph in
    # another order; the isolated count and the core must not change
    for g_seed in range(50):
        G = sample_graph(60, 3 / 60, WeightTemplate(F5, 60, "random", seed=g_seed),
                         CouplingSource(1000 + g_seed))
        base = karp_sipser(G)
        for perm_seed in range(20):
            label = uniform_permutation(60, perm_seed)  # vertex v becomes label[v]
            H = Graph.from_edges(60, F5, [(min(label[i], label[j]), max(label[i], label[j]), w)
                                          for i, j, w in G.edges])
            ks = karp_sipser(H)
            back = {t: v for v, t in enumerate(label)}
            assert ks.isolated_count == base.isolated_count
            assert sorted(back[t] for t in ks.core_vertices.tolist()) == \
                base.core_vertices.tolist()
            assert _core_edges(H, back) == _core_edges(G, range(60))


def _karp_sipser_dicts(G: Graph) -> tuple:
    """Leaf removal on dict-of-dicts adjacency, the lowest-index leaf
    first: the literal route, as (isolated count, core, core vertices,
    removed pairs) with the core's edges as (lo, hi) pairs in order of lo."""
    n = G.n
    adj = [dict() for _ in range(n)]
    for i, j, w in G.edges:
        adj[i][j] = adj[j][i] = w
    alive = [True] * n
    pairs = []
    heap = [v for v in range(n) if len(adj[v]) == 1]
    while heap:
        v = heapq.heappop(heap)
        if not alive[v] or len(adj[v]) != 1:
            continue
        u = next(iter(adj[v]))
        for x in list(adj[u]):
            del adj[x][u]
            if x != v and alive[x] and len(adj[x]) == 1:
                heapq.heappush(heap, x)
        adj[u].clear()
        adj[v].clear()
        alive[v] = alive[u] = False
        pairs.append((v, u))
    core_vertices = tuple(v for v in range(n) if alive[v] and adj[v])
    index = {v: k for k, v in enumerate(core_vertices)}
    core = Graph.from_edges(len(core_vertices), G.field, [
        (index[i], index[j], w) for i in core_vertices for j, w in adj[i].items() if i < j])
    isolated = sum(1 for v in range(n) if alive[v] and not adj[v])
    return isolated, core, core_vertices, tuple(pairs)


def _ks_fields(G: Graph) -> tuple:
    """:func:`karp_sipser` of ``G``, with its core weighted from ``G``'s
    weights by ``kept``, in the form of :func:`_karp_sipser_dicts`."""
    ks = karp_sipser(G)
    return (ks.isolated_count, core_graph(G), tuple(ks.core_vertices.tolist()),
            tuple(map(tuple, ks.removed_pairs.tolist())))


@pytest.mark.parametrize("field,kind", [(F2, "allones"), (F2, "random"), (F5, "allones"),
                                        (F5, "random"), (Q, "allones"), (Q, "random")])
@pytest.mark.parametrize("d", (1.0, math.e, 3.0, 5.0))
def test_ks_matches_dict_leaf_removal_on_samples(field, kind, d):
    for k, n in enumerate((30, 120, 300)):
        G = sample_graph(n, d / n, WeightTemplate(field, n, kind, seed=k),
                         CouplingSource(700 + k))
        assert _ks_fields(G) == _karp_sipser_dicts(G)


@pytest.mark.parametrize("field,kind", [(F2, "allones"), (F5, "random"), (Q, "random")])
def test_ks_matches_dict_leaf_removal_on_shuffled_files(field, kind):
    # edge lines in a shuffled order, about half of them written "j i w";
    # the same edges also given to Graph reversed, as (j, i, w)
    for seed in range(6):
        n = 40 + 50 * seed
        G = sample_graph(n, 3.0 / n, WeightTemplate(field, n, kind, seed=seed),
                         CouplingSource(800 + seed))
        head, *lines = format_graph(G).splitlines()
        Stream(seed).shuffle(lines)
        flipped = [" ".join(ln.split()[1::-1] + ln.split()[2:]) if k % 2 else ln
                   for k, ln in enumerate(lines)]
        parsed = parse_graph("\n".join([head] + flipped) + "\n")
        reversed_edges = Graph.from_edges(n, field, [(j, i, w) for i, j, w in G.edges[::-1]])
        for H in (parsed, reversed_edges):
            ks, base = karp_sipser(H), karp_sipser(G)
            assert _ks_fields(H) == _karp_sipser_dicts(H)
            assert (ks.isolated_count, ks.core_vertices.tolist()) == \
                (base.isolated_count, base.core_vertices.tolist())


@pytest.mark.parametrize("field,kind", [(F5, "random"), (Q, "random")])
@pytest.mark.parametrize("d", (1.0, math.e, 3.0, 5.0))
def test_support_leaf_removal_matches_dict_leaf_removal(field, kind, d):
    # the support alone gives the dict route's core; the kept indices carry
    # each core edge's weight over from the whole graph
    for k, n in enumerate((30, 120, 300)):
        G = sample_graph(n, d / n, WeightTemplate(field, n, kind, seed=k),
                         CouplingSource(900 + k))
        assert _ks_fields(G) == _karp_sipser_dicts(G)
        lr = leaf_removal(G.n, G.i, G.j)
        assert np.all(lr.core_i < lr.core_j)
        assert np.array_equal(lr.core_vertices[lr.core_i], np.minimum(G.i, G.j)[lr.kept])
        assert np.array_equal(lr.core_vertices[lr.core_j], np.maximum(G.i, G.j)[lr.kept])


def test_support_leaf_removal_on_reversed_and_shuffled_edges():
    for seed in range(4):
        n = 60 + 40 * seed
        G = sample_graph(n, 3.0 / n, WeightTemplate(F5, n, "random", seed=seed),
                         CouplingSource(950 + seed))
        edges = [(j, i, w) if k % 2 else (i, j, w) for k, (i, j, w) in enumerate(G.edges)]
        Stream(seed).shuffle(edges)
        H = Graph.from_edges(n, F5, edges)
        assert _ks_fields(H) == _karp_sipser_dicts(H)


def test_sample_support_is_the_sampled_graphs_support():
    for n, p in ((0, 0.5), (1, 0.5), (50, 0.1), (300, 3 / 300)):
        G = sample_graph(n, p, WeightTemplate(Q, n, "random", 4), CouplingSource(11))
        i, j = sample_support(n, p, CouplingSource(11))
        assert np.array_equal(i, G.i) and np.array_equal(j, G.j)


@pytest.mark.parametrize("bad,message", [
    (([0, 1], [1, 1]), "self-loops"),
    (([0, 1], [1, 5]), "out of range"),
    (([0, 1, 0], [1, 2, 1]), r"duplicate edge \(0, 1\)"),
])
def test_sample_support_checks_the_support_as_a_graph(monkeypatch, bad, message):
    monkeypatch.setattr(randgraph, "sample_edges",
                        lambda n, p, c: tuple(np.array(a, dtype=np.int64) for a in bad))
    with pytest.raises(ValueError, match=message):
        sample_support(5, 0.5, CouplingSource(0))
    with pytest.raises(ValueError, match=message):
        sample_graph(5, 0.5, WeightTemplate(F2, 5), CouplingSource(0))


def test_two_leaves_one_neighbor():
    # star with two leaves: removing one pair isolates the other leaf
    star = Graph.from_edges(3, F2, ((0, 1, 1), (0, 2, 1)))
    ks = karp_sipser(star)
    assert ks.isolated_count == 1
    assert ks.core_vertices.size == 0
    assert len(ks.removed_pairs) == 1


# ------------------------------------------------------- nullity invariance


@pytest.mark.parametrize("field,w", [(F2, 1), (F3, 2), (F5, 4), (Q, 1)])
def test_nullity_invariance_examples(field, w):
    assert nullity_invariance(path3(field, w))
    assert nullity_invariance(triangle(field, w))
    assert nullity_invariance(Graph.from_edges(5, field, ()))


def test_nullity_invariance_random_graphs():
    for trial in range(25):
        for field, kind in ((F2, "allones"), (F5, "random")):
            tpl = WeightTemplate(field, 60, kind, seed=trial)
            G = sample_graph(60, 2.0 / 60, tpl, CouplingSource(500 + trial))
            assert nullity_invariance(G)


def test_leaf_removal_upper_bound():
    for trial in range(20):
        tpl = WeightTemplate(F3, 70, "random", seed=trial)
        G = sample_graph(70, 3.0 / 70, tpl, CouplingSource(900 + trial))
        assert G.adjacency().rank() <= 70 - karp_sipser(G).isolated_count


def test_dense_adjacency_cap():
    # refused before the n x n array is allocated
    with pytest.raises(ResourceCapError):
        Graph.from_edges(DENSE_CAP + 1, F2, ()).adjacency()
    with pytest.raises(ResourceCapError):
        nullity_invariance(Graph.from_edges(DENSE_CAP + 1, F2, ()))


def test_rational_adjacency_cap(monkeypatch):
    # a rational adjacency is bounded by DENSE_CAP alone, refused before its
    # n x n Fractions are built
    built = []
    monkeypatch.setattr(randgraph, "field_array",
                        lambda field, values: built.append(field) or field_array(field, values))
    one_edge = Graph.from_edges(DENSE_CAP + 1, Q, ((0, 1, Fraction(1, 2)),))
    for route in (one_edge.adjacency, lambda: nullity_invariance(one_edge)):
        with pytest.raises(ResourceCapError):
            route()
    assert built == []
    assert Graph.from_edges(1000, Q, ((0, 1, Fraction(1, 2)),)).adjacency().rank() == 2
    assert built  # the recorder sees the arrays of an adjacency within the cap


def test_rational_weights_are_ints_or_fractions():
    # stored as Fractions, like the sampler's; a float or a str is refused,
    # as F_p refuses a weight that is not an int
    G = Graph.from_edges(3, Q, ((0, 1, Fraction(1, 2)), (1, 2, 2), (0, 2, np.int64(-3))))
    assert G.w.tolist() == [Fraction(1, 2), Fraction(2), Fraction(-3)]
    assert all(type(x) is Fraction for x in G.w)
    assert all(type(x.numerator) is int for x in G.w)
    for bad in (0.5, "1/2", True, None):
        with pytest.raises(ValueError, match="ints or Fractions"):
            Graph.from_edges(3, Q, ((0, 1, bad), (1, 2, 2), (0, 2, 1)))
    with pytest.raises(ValueError, match="nonzero"):
        Graph.from_edges(3, Q, ((0, 1, 0),))


# ------------------------------------------------------------- text format


def test_graph_format_roundtrip():
    tpl = WeightTemplate(F5, 30, "random", seed=1)
    G = sample_graph(30, 0.1, tpl, CouplingSource(2))
    assert parse_graph(format_graph(G)) == G
    GQ = sample_graph(10, 0.4, WeightTemplate(Q, 10, "random", 2), CouplingSource(3))
    assert parse_graph(format_graph(GQ)) == GQ


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, F2, ((0, 0, 1),))  # self-loop
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph.from_edges(3, F2, ((0, 1, 1), (1, 2, 1), (1, 0, 1)))  # reversed duplicate
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        Graph.from_edges(4, F2, ((2, 3, 1), (1, 2, 1), (0, 1, 1), (2, 1, 1), (3, 2, 1)))
    for bad in ((-1, 2), (0, 3), (3, 0), (1, 7)):
        with pytest.raises(ValueError, match="^edge endpoint out of range$"):
            Graph.from_edges(3, F2, ((0, 1, 1), bad + (1,)))
    with pytest.raises(ValueError):
        Graph(3, F2, [0, 1], [1, 2], [1])  # arrays of unequal length
    with pytest.raises(ValueError):
        Graph(3, F2, [0.0], [1.0], [1])  # non-integer endpoints
    with pytest.raises(ValueError):
        Graph.from_edges(3, F2, ((0, 1, 0),))  # zero weight
    with pytest.raises(ValueError):
        parse_graph("2 1 F2\n0 1\n")


@pytest.mark.parametrize("w", (3, 4, -1, 0, Fraction(1, 2), Fraction(3, 1), 1.0))
def test_graph_refuses_non_canonical_prime_weights(w):
    # a weight of p is 0 in F_p, and any weight outside [1, p) would break the
    # storage of the adjacency and the edge-list rank, which read it as is
    with pytest.raises(ValueError):
        Graph.from_edges(3, F3, ((0, 1, 1), (1, 2, w)))


def test_graph_takes_reversed_edges_as_given():
    # an edge (1, 0) is the pair {0, 1}: kept in its given orientation, as
    # the tuple-of-edges graph did, and read alike by every consumer
    G = Graph.from_edges(3, F5, ((1, 0, 2), (2, 1, 3)))
    assert G.edges == ((1, 0, 2), (2, 1, 3))
    assert format_graph(G) == "3 2 Fp:5\n1 0 2\n2 1 3\n"
    assert G.adjacency() == Graph.from_edges(3, F5, ((0, 1, 2), (1, 2, 3))).adjacency()
    assert G.degrees() == [1, 2, 1]
    assert G != Graph.from_edges(3, F5, ((0, 1, 2), (1, 2, 3)))
    ks = karp_sipser(G)
    assert (ks.isolated_count, ks.core_vertices.tolist(), ks.removed_pairs.tolist()) == \
        (1, [], [[0, 1]])


def test_graph_holds_read_only_edge_arrays():
    i, j, w = [0, 1], np.array([1, 2]), [Fraction(1, 2), Fraction(-3)]
    G = Graph(3, Q, i, j, w)
    assert G.i.dtype == G.j.dtype == np.int64 and G.w.dtype == object
    assert G == Graph.from_edges(3, Q, ((0, 1, Fraction(1, 2)), (1, 2, Fraction(-3))))
    j[0] = 2  # the graph holds its own copies
    assert G.j.tolist() == [1, 2]
    for a in (G.i, G.j, G.w):
        with pytest.raises(ValueError):
            a[0] = 1
    H = Graph(3, F5, (0,), (2,), (4,))
    assert H.w.dtype == np.int64 and H.edges == ((0, 2, 4),)
    assert Graph.from_edges(0, F5, ()).w.dtype == np.int64


def test_graph_takes_canonical_weights():
    assert Graph.from_edges(3, F3, ((0, 1, 1), (1, 2, 2))).adjacency().rank() == 2
    assert Graph.from_edges(3, Q, ((0, 1, -2), (1, 2, Fraction(1, 3)))).adjacency().rank() == 2
