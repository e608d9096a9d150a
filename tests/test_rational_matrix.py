"""Rational matrices: two oracles for the elimination over Q, and the
storage invariant that every entry of a Q matrix is a ``Fraction``.

:func:`fraction_rref` is the literal route: Gauss-Jordan on ``Fraction``
objects, which the program itself no longer runs.  The lifted RREF of
``exactla._rational_rref``, and the reduced form ``exactla._reduced`` that
every question over Q reads, must equal it entry by entry.

The second oracle does not eliminate over Q.  A kernel basis ``K`` that
annihilates ``A`` exactly and is the identity on its free columns holds
``len(K)`` independent kernel vectors, so ``rank <= n - len(K)``.  Clearing
the denominators of each row keeps the rank, and reducing that integer
matrix modulo a prime cannot raise it, so ``rank >= rank_p``.  Equal bounds
pin the rank and make ``K`` a basis of the kernel.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from frozenrank import exactla
from frozenrank.exactla import Matrix, block, field_array, format_matrix, parse_matrix, relabelled
from frozenrank.field import FieldSpec
from frozenrank.perturb import CoupledFamilies, PerturbationSpec, canonical_perturb
from frozenrank.prf import Stream
from frozenrank.randgraph import CouplingSource, Graph, WeightTemplate, sample_graph
from frozenrank.verify import random_matrix
from test_randgraph import core_graph

Q = FieldSpec.rationals()
BIG = FieldSpec.prime(2**31 - 1)


def fraction_rref(rows, n: int) -> tuple[list[int], list[dict]]:
    """(pivot columns, RREF) of the matrix with ``n`` columns whose rows are
    ``rows``, each a dict ``{column: nonzero Fraction}``, by Gauss-Jordan
    elimination; the rows of the RREF come back in the same form."""
    R = [dict(row) for row in rows]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        hit = next((s for s in range(r, len(R)) if c in R[s]), None)
        if hit is None:
            continue
        R[r], R[hit] = R[hit], R[r]
        inv = 1 / R[r][c]
        R[r] = {k: x * inv for k, x in R[r].items()}
        for s, row in enumerate(R):
            if s != r and c in row:
                f = row[c]
                for k, x in R[r].items():
                    y = row.get(k, 0) - f * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        pivots.append(c)
    return pivots, R


def sparse_rows(values) -> list[dict]:
    """Rows of a matrix given as lists, as the dicts of :func:`fraction_rref`."""
    return [{k: x for k, x in enumerate(row) if x} for row in values]


def fraction_frozen_set(rows, n: int) -> set[int]:
    """Columns frozen in the matrix of ``rows``, from :func:`fraction_rref`:
    a pivot column whose row of the RREF is zero on every free column."""
    pivots, R = fraction_rref(rows, n)
    return {c for c, row in zip(pivots, R) if set(row) <= set(pivots)}


def _cycle_rows(weights) -> list[list[Fraction]]:
    """The adjacency of the cycle 0-1-...-(n-1)-0, weights[k] on the edge
    (k, k+1 mod n)."""
    n = len(weights)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, x in enumerate(weights):
        rows[k][(k + 1) % n] = rows[(k + 1) % n][k] = Fraction(x)
    return rows


def _random_q_matrices():
    stream = Stream(1968)
    for _ in range(120):
        m, n = 1 + stream.randbelow(12), 1 + stream.randbelow(12)
        yield random_matrix(stream, Q, m, n, density_percent=10 + stream.randbelow(80))
    for _ in range(30):
        n = 1 + stream.randbelow(12)
        yield random_matrix(stream, Q, n, n, density_percent=20 + stream.randbelow(60),
                            symmetric=True)


def _q_cores():
    cores = []
    seed = 0
    while len(cores) < 12:
        seed += 1
        n = 40 + 10 * (seed % 12)
        template = WeightTemplate(Q, n, "random" if seed % 4 else "allones", seed)
        core = core_graph(sample_graph(n, 2.9 / n, template, CouplingSource(seed)))
        if 0 < core.n <= 64:
            cores.append(core.adjacency())
    return cores


def _check_against_oracle(A: Matrix):
    K = A.kernel_basis()
    # A K = 0 exactly, in object arithmetic
    if K:
        product = np.array(A.to_values(), dtype=object).reshape(A.m, A.n) @ \
            np.array(K, dtype=object).T
        assert all(x == 0 for x in product.flat)
    # K is the identity on its free columns, so its vectors are independent;
    # a reduced kernel vector ends at its free column
    free = [max(j for j in range(A.n) if v[j] != 0) for v in K]
    assert free == sorted(set(free))
    for t, f in enumerate(free):
        assert [v[f] for v in K] == [int(s == t) for s in range(len(K))]
    assert all(type(x) is Fraction for v in K for x in v)
    # upper bound: len(K) independent kernel vectors
    assert A.rank() == A.n - len(K)
    # lower bound: the rank of the row-scaled integer matrix modulo a prime
    cleared = []
    for row in A.to_values():
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        cleared.append([int(x * scale) for x in row])
    reduced = Matrix.from_rows(BIG, cleared) if cleared else Matrix.zeros(BIG, 0, A.n)
    assert reduced.rank() == A.rank()


def test_rational_kernel_against_independent_bounds():
    for A in _random_q_matrices():
        _check_against_oracle(A)


def test_rational_graph_cores_against_independent_bounds():
    for A in _q_cores():
        assert A.n <= 64
        _check_against_oracle(A)


def _all_fractions(A: Matrix) -> bool:
    return A._a.dtype == object and all(type(x) is Fraction for x in A._a.flat)


def test_every_rational_constructor_stores_fractions():
    A = Matrix.from_rows(Q, [[0, 1, 2], [3, Fraction(1, 2), 0]])  # ints in, Fractions out
    fams = CoupledFamilies.from_seed(5)
    G = Graph.from_edges(4, Q, ((0, 1, 1), (1, 2, -2), (2, 3, Fraction(1, 3))))
    built = {
        "from_rows": A,
        "zeros": Matrix.zeros(Q, 3, 4),
        "identity": Matrix.identity(Q, 3),
        "block": block([[A, Matrix.zeros(Q, 2, 1)], [Matrix.identity(Q, 3), Matrix.zeros(Q, 3, 1)]]),
        "transpose": A.transpose(),
        "remove": A.remove(rows=[0], cols=[1]),
        "append_row": A.append_row([1, 0, -1]),
        "append_col": A.append_col([4, 0]),
        "relabelled": relabelled(Matrix.from_rows(Q, [[0, 1], [1, 0]]), [1, 0]),
        "adjacency": G.adjacency(),
        "parse_matrix": parse_matrix("2 2 Q\n1 -1/2\n0 3\n"),
        "canonical_perturb": canonical_perturb(A, PerturbationSpec(2, 3, P=3), fams),
    }
    for name, M in built.items():
        assert _all_fractions(M), name
        # and so is every value read back
        assert all(type(M.entry(i, j)) is Fraction for i in range(M.m) for j in range(M.n)), name
        assert all(type(x) is Fraction for v in M.kernel_basis() for x in v), name
    assert built["adjacency"] == parse_matrix(format_matrix(built["adjacency"]))
    assert all(type(x) is Fraction for x in field_array(Q, np.eye(2, dtype=np.uint8)).flat)


@pytest.mark.parametrize("kind", ["allones", "random"])
def test_rational_template_weights_are_the_scalar_definition(kind):
    template = WeightTemplate(Q, 300, kind, seed=7)
    lo, hi = np.triu_indices(300, k=1)
    weights = template.weights(lo, hi)
    assert weights.dtype == object
    assert weights.tolist() == [template._raw(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    assert all(type(w) is Fraction for w in weights)


def _oracle_cases():
    yield from _random_q_matrices()
    yield Matrix.zeros(Q, 0, 4)
    yield Matrix.zeros(Q, 3, 0)
    yield Matrix.zeros(Q, 3, 3)
    # det = (2^31 - 1)^2: singular modulo the first prime, not over Q
    yield Matrix.from_rows(Q, _cycle_rows([2 ** 31] + [1] * 67))
    # a kernel entry of 10^5, beyond the reconstruction bound of one prime
    yield Matrix.from_rows(Q, _cycle_rows([1, 10 ** 5, 10 ** 5] + [1] * 65))


def test_rational_rref_matches_the_fraction_oracle():
    lifted_over = set()
    for A in _oracle_cases():
        pivots, R = fraction_rref(sparse_rows(A.to_values()), A.n)
        R = [[row.get(k, 0) for k in range(A.n)] for row in R]
        i, j = np.nonzero(A._a)
        got_pivots, got_block, primes = exactla._rational_rref(A.m, A.n, i, j, A._a[i, j])
        free = [k for k in range(A.n) if k not in pivots]
        assert got_pivots == pivots
        assert got_block.tolist() == [[row[k] for k in free] for row in R[:len(pivots)]]
        assert all(type(x) is Fraction for x in got_block.flat)
        # the reduced form that every question over Q reads, with R's pivot
        # columns filled back in, is the oracle's RREF entry by entry
        got_pivots, got_block = exactla._reduced(Q, A._a)
        got_R = [[Fraction(0)] * A.n for _ in range(A.m)]
        for r, c in enumerate(got_pivots):
            got_R[r][c] = Fraction(1)
            for k, x in zip(free, got_block[r].tolist()):
                got_R[r][k] = x
        assert got_pivots == pivots and got_R == R
        # kernel_basis reads K off the same form: -R's pivot rows on the
        # free columns, and the identity on them
        basis = Matrix._from_array(Q, A._a).kernel_basis()
        assert basis == [[Fraction(int(k == f)) if k in free else -R[pivots.index(k)][f]
                          for k in range(A.n)] for f in free]
        lifted_over.add(len(primes))
    assert 1 in lifted_over and max(lifted_over) > 1

