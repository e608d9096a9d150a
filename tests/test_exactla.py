"""Exact matrices: rank/kernel, frozen variables, relations, variable types.

Expected values marked as derived were computed with independent oracles:
row-space enumeration for ranks, hand-solved kernels for small paths, and
brute-force membership checks for classifications.
"""

import itertools
import math
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frozenrank import exactla, harness
from frozenrank.errors import ResourceCapError
from frozenrank.exactla import (
    Matrix,
    TypeProfile,
    block,
    classify_variable,
    format_matrix,
    frozen_set,
    is_delta_ell_free,
    is_relation,
    parse_matrix,
    proper_relations,
    relabelled,
    row_in_span,
    symmetric_removal_rank_drop,
    type_census,
    variable_types,
)
from frozenrank.field import FieldSpec
from frozenrank.perturb import CoupledFamilies, PerturbationSpec, canonical_perturb
from frozenrank.prf import Stream, prf
from frozenrank.randgraph import Graph
from frozenrank.verify import (
    frozen_set_by_removal,
    proper_relations_by_enumeration,
    proper_relations_by_removal,
    random_matrix,
    rank_by_row_space_enumeration,
)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def path3(field=F2):
    return Matrix.from_rows(field, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def edge2(field=F2, w=1):
    return Matrix.from_rows(field, [[0, w], [w, 0]])


# ------------------------------------------------------------------- rank


def test_rank_empty():
    assert Matrix.zeros(F2, 0, 0).rank() == 0
    assert Matrix.zeros(F5, 0, 3).rank() == 0
    assert Matrix.zeros(F5, 3, 0).rank() == 0


def test_rank_path3():
    A = path3()
    assert A.rank() == 2  # row space {000,010,101,111}: 4 = 2^2 vectors
    assert A.rank() == rank_by_row_space_enumeration(A)
    assert A.nullity() == 1


@pytest.mark.parametrize("field,w", [(F2, 1), (F3, 2), (F5, 3), (Q, Fraction(-1, 2))])
def test_rank_single_edge_any_field(field, w):
    assert edge2(field, w).rank() == 2  # determinant -w^2 is nonzero


def test_rank_preserves_input():
    A = path3()
    _ = A.rank()
    assert A == path3()


# ----------------------------------------------------------------- kernel


def test_kernel_identity_f3():
    assert Matrix.identity(F3, 3).kernel_basis() == []


def test_kernel_path3():
    assert path3().kernel_basis() == [[1, 0, 1]]


def test_kernel_zero_matrix():
    basis = Matrix.zeros(F5, 2, 2).kernel_basis()
    assert len(basis) == 2
    vals = {tuple(v) for v in basis}
    assert vals == {(1, 0), (0, 1)}


def test_kernel_vectors_annihilate():
    stream = Stream(4)
    for field in (F2, F3, F5):
        for _ in range(25):
            A = random_matrix(stream, field, 1 + stream.randbelow(6), 1 + stream.randbelow(6))
            basis = A.kernel_basis()
            assert len(basis) == A.nullity()
            rows = A.to_values()
            for v in basis:
                for row in rows:
                    assert sum(r * x for r, x in zip(row, v)) % field.p == 0


# ----------------------------------------------------------------- remove


def test_remove_nothing():
    A = path3()
    assert A.remove() == A


def test_remove_edge_to_zero():
    B = edge2().remove(rows=[0], cols=[0])
    assert (B.m, B.n) == (1, 1) and B.entry(0, 0) == 0


def test_remove_middle_row_path3():
    B = path3().remove(rows=[1])
    assert B.to_values() == [[0, 1, 0], [0, 1, 0]]


def test_remove_bounds_checked():
    with pytest.raises(ValueError):
        path3().remove(rows=[3])
    with pytest.raises(ValueError):
        path3().remove(cols=[-1])


# ------------------------------------------------------------ frozen sets


def test_frozen_examples():
    assert frozen_set(edge2()) == (0, 1)  # trivial kernel: all frozen
    assert frozen_set(path3()) == (1,)
    assert frozen_set(Matrix.zeros(F3, 3, 3)) == ()


def test_frozen_methods_agree_on_examples():
    for A in (edge2(), path3(), Matrix.zeros(F2, 2, 4), Matrix.identity(F5, 4)):
        assert frozen_set(A) == frozen_set_by_removal(A)


# -------------------------------------------------------------- relations


def test_is_relation_examples():
    assert is_relation(edge2(), [0])  # y = (0,1) gives support {0}
    assert not is_relation(Matrix.zeros(F2, 2, 2), [0, 1])
    assert is_relation(path3(), [0, 2])  # middle row has support {0,2}


def test_is_relation_empty_set_rejected():
    with pytest.raises(ValueError):
        is_relation(path3(), [])


def test_proper_relations_examples():
    assert proper_relations(Matrix.zeros(F2, 3, 3), 2) == []
    assert proper_relations(edge2(), 2) == []  # all frozen: I minus frozen is empty
    assert proper_relations(path3(), 2) == [(0, 2)]


def test_proper_relations_caps():
    # no size caps, on shapes out of reach of row-space enumeration: 25
    # columns, rank 15, 5^10 row-space vectors
    assert proper_relations(Matrix.zeros(F2, 3, 25), 2) == []
    assert proper_relations(Matrix.identity(F2, 15), 2) == []
    assert proper_relations(Matrix.identity(F5, 10), 2) == []
    # one all-ones row of 30 columns: its support is the only relation
    ones = Matrix.from_rows(F2, [[1] * 30])
    assert proper_relations(ones, 29) == []
    assert proper_relations(ones, 30) == [tuple(range(30))]


def _oracle_cases(stream, field, count):
    """The empty shapes 0 x 4 and 3 x 0, then ``count`` random matrices of
    at most 5 x 6, empty shapes included."""
    yield random_matrix(stream, field, 0, 4)
    yield random_matrix(stream, field, 3, 0)
    for _ in range(count):
        m, n = stream.randbelow(6), stream.randbelow(7)
        yield random_matrix(stream, field, m, n, density_percent=20 + stream.randbelow(60))


def test_proper_relations_methods_agree():
    # the kernel-row route against both oracles of verify; row-space
    # enumeration needs a small finite field
    stream = Stream(71)
    for field in (F2, F3, F5, FieldSpec.prime(2**31 - 1), Q):
        for A in _oracle_cases(stream, field, 60):
            for ell in range(1, 5):
                found = proper_relations(A, ell)
                assert found == proper_relations_by_removal(A, ell), (A.to_values(), ell)
                if field.kind == "prime" and field.p < 10:
                    assert found == proper_relations_by_enumeration(A, ell), (A.to_values(), ell)


def test_proper_relations_of_perturbed_symmetric_matrices():
    # the matrices of the perturb suite's proper-relation check
    stream = Stream(105)
    for k in range(6):
        A = random_matrix(stream, F2, 14, 14, density_percent=20, symmetric=True)
        spec = PerturbationSpec.draw(8, prf(99, 6, k))
        M = canonical_perturb(A, spec, CoupledFamilies.from_seed(prf(99, 7, k)))
        for B in (A, M):
            assert proper_relations(B, 2) == proper_relations_by_removal(B, 2)
        assert proper_relations(A, 2) == proper_relations_by_enumeration(A, 2)


def _proper_relations_per_candidate(A, ell):
    """The reference for proper_relations: one rank of the core's kernel
    rows per candidate, in itertools.combinations order."""
    K = exactla._kernel_rows(A)
    out = []
    for combo in itertools.combinations(range(A.n), ell):
        core = [j for j in combo if j in A.kernel_support()]
        if core and exactla._rank_of_rows(A, K, core) < len(core):
            out.append(combo)
    return out


def test_proper_relations_match_the_per_candidate_reference():
    # the prefix search against ranking each candidate's core on its own, at
    # every size 1..min(n, 6): the perturb suite's symmetric 14 x 14 F2
    # matrices and their perturbations, F3 and F5 up to 8 x 10, Q up to 5 x 6
    stream = Stream(107)
    cases = [Matrix.zeros(F3, 4, 7), Matrix.identity(F2, 7), Matrix.identity(Q, 5),
             Matrix.from_rows(F5, [[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [0, 0, 0, 2]]),
             Matrix.from_rows(F2, [[1] * 8]), Matrix.zeros(F2, 0, 6)]
    for k in range(4):
        A = random_matrix(stream, F2, 14, 14, density_percent=20, symmetric=True)
        spec = PerturbationSpec.draw(8, prf(99, 6, k))
        cases += [A, canonical_perturb(A, spec, CoupledFamilies.from_seed(prf(99, 7, k)))]
    for field, shapes in ((F3, (8, 10)), (F5, (8, 10)), (Q, (5, 6))):
        for _ in range(25):
            m, n = 1 + stream.randbelow(shapes[0]), 1 + stream.randbelow(shapes[1])
            cases.append(random_matrix(stream, field, m, n,
                                       density_percent=10 + stream.randbelow(80)))
    frozen_all = relations = 0
    for A in cases:
        frozen_all += A.n > 0 and not A.kernel_support()
        for ell in range(1, min(A.n, 6) + 1):
            found = proper_relations(A, ell)
            assert found == _proper_relations_per_candidate(A, ell), (A.to_values(), ell)
            relations += len(found)
    assert frozen_all >= 3 and relations > 1000


def test_is_relation_matches_remove_and_rank():
    stream = Stream(12)
    for field in (F2, F3, Q):
        for A in _oracle_cases(stream, field, 30):
            for size in range(1, A.n + 1):
                for I in itertools.combinations(range(A.n), size):
                    assert is_relation(A, I) == (A.remove(cols=I).rank() < A.rank())


def test_is_delta_ell_free_examples():
    assert is_delta_ell_free(Matrix.zeros(F2, 3, 3), 0.1, 2)
    assert not is_delta_ell_free(path3(), 0.0, 2)  # one proper relation exists
    assert is_delta_ell_free(path3(), 1.0, 2)  # 1 <= 9


def test_row_in_span_examples():
    assert row_in_span(path3(), [0, 0, 0])
    assert row_in_span(edge2(), [1, 0])  # equals row 1
    assert row_in_span(path3(), [1, 1, 1])  # (0,1,0) + (1,0,1)
    assert not row_in_span(path3(), [1, 0, 0])
    with pytest.raises(ValueError):
        row_in_span(path3(), [1, 0])


# ---------------------------------------------------------- variable types


def test_classify_examples():
    assert classify_variable(edge2(), 0) == "Y"
    assert classify_variable(Matrix.zeros(F2, 1, 1), 0) == "Z"
    A = path3()
    assert classify_variable(A, 1) == "Y"
    assert classify_variable(A, 0) == "Z"
    with pytest.raises(ValueError):
        classify_variable(A, 3)


def test_census_examples():
    prof = type_census(Matrix.zeros(F5, 4, 4))
    assert prof.zeta() == (0.0, 0.0, 1.0, 0.0, 0.0)
    assert type_census(edge2()).zeta() == (0.0, 1.0, 0.0, 0.0, 0.0)
    prof = type_census(path3())
    assert prof.zeta() == (0.0, 1 / 3, 2 / 3, 0.0, 0.0)
    assert prof.alpha == prof.alpha_hat == 1 / 3


def test_census_empty_range_rejected():
    with pytest.raises(ValueError):
        type_census(Matrix.zeros(F2, 0, 0))
    with pytest.raises(ValueError):
        type_census(path3(), census_size=4)


def test_census_identities_are_exact_counts():
    stream = Stream(21)
    for _ in range(30):
        m = 1 + stream.randbelow(7)
        n = 1 + stream.randbelow(7)
        A = random_matrix(stream, F3, m, n)
        prof = type_census(A)
        assert prof.count_x + prof.count_y + prof.count_z + prof.count_u + prof.count_v == prof.n
        # x+y+v and x+y+u count the frozen columns of A and of A^T in range
        k = prof.n
        assert prof.frozen_count == sum(j < k for j in frozen_set(A))
        assert prof.frozen_count_t == sum(j < k for j in frozen_set(A.transpose()))


def test_census_of_rectangular_matrix():
    # only row 0 spans e_0, so deleting it unfreezes column 0 (frail, X);
    # column 1 is not frozen in A but frozen in A^T, whose columns are independent (U)
    A = Matrix.from_rows(F2, [[1, 0, 0], [0, 1, 1]])
    assert variable_types(A) == ("X", "U")
    # every census size, 0 included, and matrices with no rows or no columns
    B = Matrix.from_rows(Q, [[Fraction(1, 2), 0, 0, 1, 0], [0, 1, 1, 0, 0], [0, -3, -3, 0, 0],
                             [1, 0, 0, 2, 0]])
    for A in (A, A.transpose(), Matrix.from_rows(F5, [[1, 2, 0, 1], [0, 1, 4, 0]]), B,
              B.transpose(), Matrix.zeros(F2, 0, 3), Matrix.zeros(F5, 4, 0), Matrix.zeros(Q, 0, 0)):
        for k in range(min(A.m, A.n) + 1):
            assert variable_types(A, k) == tuple(classify_variable(A, i) for i in range(k))


def test_transpose_is_memoised_both_ways():
    A = random_matrix(Stream(3), F3, 3, 5)
    AT = A.transpose()
    assert AT is A.transpose() and AT.transpose() is A
    assert AT.to_values() == [list(col) for col in zip(*A.to_values())]
    # a transpose held without its matrix builds an equal one, linked back
    B = random_matrix(Stream(3), F3, 3, 5).transpose()
    assert B.transpose() == A and B.transpose().transpose() is B
    assert not B._a.flags.writeable
    for X in (A, AT):
        Y = pickle.loads(pickle.dumps(X))
        assert Y == X and not Y._a.flags.writeable


def test_symmetric_matrix_is_its_own_transpose():
    import gc

    S = random_matrix(Stream(4), F3, 6, 6, symmetric=True)
    assert S.transpose() is S and S.transpose().transpose() is S
    for A in (random_matrix(Stream(4), F3, 6, 6), Matrix.zeros(F3, 2, 3)):
        assert A.transpose() is not A and A.transpose().transpose() is A
    # the link to itself is weak: with the cyclic collector off, the matrix
    # goes with its last reference
    gc.disable()
    try:
        S = Matrix.identity(F5, 70)  # more rows than one compared block
        assert S.transpose() is S and S.remove(rows=[0]) is S.remove(rows=[0])
        gone = weakref.ref(S)
        del S
        assert gone() is None
    finally:
        gc.enable()


def test_remove_keeps_its_latest_result():
    A = random_matrix(Stream(6), F3, 4, 5)
    B = A.remove(rows=[1])
    assert B is A.remove(rows=[1]) and B is A.remove(rows=(1,), cols=[])
    assert A.remove(rows=[2, 0], cols=[4]) is A.remove(rows=[0, 2], cols=[4])
    # one slot: another index set replaces the kept result
    C = A.remove(rows=[1])
    assert C is not B and C == B
    assert A.remove(rows=[1]).to_values() == [r for k, r in enumerate(A.to_values()) if k != 1]
    with pytest.raises(ValueError):
        A.remove(rows=[4])


def test_classifying_every_variable_eliminates_A_and_its_transpose_once(monkeypatch):
    inputs, routes = [], []
    kernel, row_loop = exactla._dense_kernel, exactla._row_loop

    def counted(M, p, back, **kwargs):
        inputs.append(M.copy())
        return kernel(M, p, back, **kwargs)

    def recorded(M, p, back):
        routes.append((M.shape, back))
        return row_loop(M, p, back)

    monkeypatch.setattr(exactla, "_dense_kernel", counted)
    monkeypatch.setattr(exactla, "_row_loop", recorded)
    n = 6
    A = random_matrix(Stream(5), F3, n, n)
    assert A != A.transpose()
    for i in range(n):
        classify_variable(A, i)
        classify_variable(A.transpose(), i)

    def eliminations_of(X):
        return sum(M.shape == X.shape and (M == X).all() for M in inputs)

    assert eliminations_of(A._a) == 1 and eliminations_of(A._a.T) == 1
    # the rest are A and A^T with row i deleted: each keeps its latest
    # remove, so the second call eliminates neither again
    assert len(inputs) == 2 + 2 * n
    # every one is an RREF on Python-int rows, 36 cells or 30
    assert routes == [(M.shape, True) for M in inputs]
    assert all(M.size <= exactla.ROW_LOOP_CELLS for M in inputs)


def _count_eliminations(monkeypatch):
    calls = []
    for name in ("_rref_gf2", "_dense_kernel"):
        kernel = getattr(exactla, name)

        def counted(*args, _kernel=kernel, **kwargs):
            calls.append(_kernel)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(exactla, name, counted)
    return calls


@pytest.mark.parametrize("field", [F2, F5, Q])
def test_census_runs_one_elimination(monkeypatch, field):
    # every variable of I is frozen on both sides and frail, and the edge's
    # are complete; nothing is frozen in the last matrix but column 0 of A^T
    inputs = [
        Matrix.identity(field, 40),
        block([[edge2(field), Matrix.zeros(field, 2, 38)],
               [Matrix.zeros(field, 38, 2), Matrix.identity(field, 38)]]),
        Matrix.from_rows(field, [[1, 0, 0], [0, 1, 1], [0, 0, 0]]),
        Matrix.from_rows(field, [[1, 1, 0], [0, 0, 0]]),
    ]
    calls = _count_eliminations(monkeypatch)

    def refused(*args):
        raise AssertionError("the census reads no kernel support and no transpose")

    monkeypatch.setattr(Matrix, "kernel_support", refused)
    monkeypatch.setattr(Matrix, "transpose", refused)
    counts = []
    for A in inputs:
        calls.clear()
        prof = type_census(A)
        counts.append((prof.count_x, prof.count_y, prof.count_z, prof.count_u, prof.count_v))
        assert len(calls) == 1
    assert counts == [(40, 0, 0, 0, 0), (38, 2, 0, 0, 0), (1, 0, 1, 1, 0), (0, 0, 1, 1, 0)]
    calls.clear()
    assert variable_types(inputs[0], 0) == () and calls == []
    monkeypatch.undo()
    A = inputs[-1]
    assert variable_types(A) == ("U", "Z") == tuple(classify_variable(A, i) for i in range(2))


def test_type_profile_validates():
    with pytest.raises(ValueError):
        TypeProfile(n=3, count_x=1, count_y=1, count_z=1, count_u=1, count_v=0)


def test_symmetric_removal_examples():
    assert symmetric_removal_rank_drop(edge2(), 0) == 2
    A = path3()
    assert symmetric_removal_rank_drop(A, 0) == 0  # leaves a full-rank edge
    assert symmetric_removal_rank_drop(A, 1) == 2  # leaves the zero matrix
    with pytest.raises(ValueError):
        symmetric_removal_rank_drop(Matrix.zeros(F2, 2, 3), 0)


# -------------------------------------------------------------- structure


def test_block_assembly():
    A = edge2(F3, 2)
    B = block([[A, Matrix.zeros(F3, 2, 1)], [Matrix.zeros(F3, 1, 2), Matrix.identity(F3, 1)]])
    assert B.to_values() == [[0, 2, 0], [2, 0, 0], [0, 0, 1]]


def test_relabelled_requires_permutation():
    with pytest.raises(ValueError):
        relabelled(path3(), [0, 0, 1])


def _index_takers(A: Matrix) -> dict:
    """Every public way of naming a row, column or variable of the 3 x 3
    ``A`` by one index ``k``."""
    return {
        "is_frozen": lambda k: exactla.is_frozen(A, k),
        "classify_variable": lambda k: classify_variable(A, k),
        "symmetric_removal_rank_drop": lambda k: symmetric_removal_rank_drop(A, k),
        "remove rows": lambda k: A.remove(rows=[k]),
        "remove cols": lambda k: A.remove(cols=[k]),
        "is_relation": lambda k: is_relation(A, [k]),
        "relabelled": lambda k: relabelled(A, [k, 0, 2]),
    }


@pytest.mark.parametrize("k", [0.5, 1.7, 1.0, Fraction(1), True, np.bool_(True),
                               np.float64(1.0), "1", None],
                         ids=["0.5", "1.7", "1.0", "Fraction", "True", "np.bool_",
                              "np.float64", "str", "None"])
def test_an_index_that_is_no_integer_is_refused(k):
    # F3 path 0 - 1 - 2 with weights 1 and 2: its frozen set is (1,); a
    # float, bool or str must not be read as the integer it rounds to
    A = Matrix.from_rows(F3, [[0, 1, 0], [1, 0, 2], [0, 2, 0]])
    for name, take in _index_takers(A).items():
        with pytest.raises(ValueError, match="not an integer"):
            take(k)
            pytest.fail(f"{name} took {k!r}")


def test_numpy_integer_indices_are_python_ints():
    A = Matrix.from_rows(F3, [[0, 1, 0], [1, 0, 2], [0, 2, 0]])
    assert frozen_set(A) == (1,)
    for name, take in _index_takers(A).items():
        for k in (np.int64(1), np.uint8(1), np.int32(1)):
            assert take(k) == take(1), name


def test_rational_cap():
    # Q has no cap of its own: above 64 it is eliminated by the lifted route,
    # and a sampled adjacency is bounded by DENSE_CAP, as over every field
    eye = Matrix.identity(Q, 70)
    assert (eye.rank(), eye.nullity(), eye.kernel_basis()) == (70, 0, [])
    assert eye.kernel_support() == frozenset()
    zero = Matrix.zeros(Q, 65, 65)
    assert zero.rank() == 0 and zero.kernel_support() == frozenset(range(65))
    with pytest.raises(ResourceCapError):
        Graph.from_edges(exactla.DENSE_CAP + 1, Q, ()).adjacency()


@pytest.mark.parametrize("field", [F3, FieldSpec.prime(2147483647), Q])
def test_kernel_support_is_read_off_the_rref(field):
    # the support that kernel_support reads off the reduced form, without
    # building K, is the set of nonzero rows of the kernel basis K, and it
    # sets the rank too
    stream = Stream(83)
    cases = [Matrix.zeros(field, 4, 6), Matrix.identity(field, 5), Matrix.zeros(field, 0, 3)]
    for m, n in ((1, 1), (2, 5), (4, 4), (5, 3), (6, 6), (7, 9)):
        cases += [random_matrix(stream, field, m, n, percent) for percent in (10, 40, 100)]
    ranks = set()
    for A in cases:
        K = exactla._kernel_rows(Matrix._from_array(field, A._a))
        assert K.shape == (A.n, A.nullity())
        fresh = Matrix._from_array(field, A._a)
        assert fresh.kernel_support() == {j for j in range(A.n) if any(K[j])}
        assert fresh._rank == A.rank()
        ranks.add((A.rank() == 0, A.rank() == A.n))
    assert {(True, False), (False, True), (False, False)} <= ranks


def test_kernel_support_over_q_builds_no_dense_array(monkeypatch):
    # kernel_support reads the lifted pivot-row block: no m x n Fraction
    # array (an RREF or a K of A's shape) is assembled on the way
    shapes = []
    make = exactla.field_array

    def spy(field, values):
        out = make(field, values)
        shapes.append(out.shape)
        return out

    A = Matrix.from_rows(Q, [[1, Fraction(1, 2), 0, 3], [2, 1, 0, 6], [0, 0, Fraction(-1, 3), 1]])
    monkeypatch.setattr(exactla, "field_array", spy)
    assert 0 < A.rank() < A.n
    A = Matrix._from_array(Q, A._a)
    assert A.kernel_support() == {0, 1, 2, 3} and A._rank == 2
    assert (A.m, A.n) not in shapes


def test_entries_and_fields_validated():
    with pytest.raises(ValueError):
        path3().entry(5, 0)
    with pytest.raises(ValueError):
        Matrix.from_rows(F2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        block([[path3(), path3(F3)]])


# ------------------------------------------------------------ text format


def test_matrix_format_roundtrip():
    for A in (path3(), edge2(F5, 3), Matrix.from_rows(Q, [[Fraction(1, 3), -2]]),
              Matrix.zeros(FieldSpec.prime(7), 2, 5)):
        assert parse_matrix(format_matrix(A)) == A


@pytest.mark.parametrize("field", [F2, F5, Q])
@pytest.mark.parametrize("m,n", [(0, 3), (2, 0), (0, 0)])
def test_matrix_format_roundtrip_empty_dimension(field, m, n):
    # the header alone fixes the shape: an m x 0 matrix has m blank rows
    A = parse_matrix(format_matrix(Matrix.zeros(field, m, n)))
    assert (A.m, A.n) == (m, n) and A == Matrix.zeros(field, m, n)
    assert A.nullity() == n


def test_matrix_format_header():
    text = format_matrix(edge2(F5, 3))
    assert text.splitlines()[0] == "2 2 Fp:5"
    text = format_matrix(path3())
    assert text.splitlines()[0] == "3 3 F2"


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n0 0\n0 0\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2 F2\n0 0\n")
    with pytest.raises(ValueError):
        parse_matrix("1 2 F2\n0\n")


# ------------------------------------------- F2 kernel at byte boundaries
# The enumeration oracle only reaches n <= 6; this checks the int-row F2
# kernel, whose rows are packed a byte at a time, against the dense kernel at
# p = 2 across byte and 64-bit boundaries, on empty shapes included.


def _dense_kernel_basis(arr: np.ndarray, p: int) -> list[list[int]]:
    """Kernel basis over F_p read off the dense RREF, one vector per free
    column in ascending order: the oracle for the int-row F2 basis."""
    m, n = arr.shape
    rank, pivots, R = exactla._dense_kernel(arr.astype(np.int64), p, back=True)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = int(-R[r, f] % p)
        basis.append(v)
    return basis


def test_gf2_kernel_basis_runs_no_dense_kernel(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an F2 kernel basis runs on int rows")

    monkeypatch.setattr(exactla, "_dense_kernel", refused)
    A = random_matrix(Stream(9), F2, 12, 17, density_percent=30)
    assert len(A.kernel_basis()) == A.nullity() > 0


def test_gf2_int_rows_match_dense_kernel_at_byte_boundaries():
    import numpy as np

    from frozenrank.exactla import (_census_flags, _census_flags_gf2, _dense_kernel, _int_rows,
                                    _rref_gf2)

    rng = np.random.default_rng(61)
    sizes = (0, 1, 7, 8, 9, 63, 64, 65, 130)
    frail = []
    for percent, m, n in itertools.product((50, 3), sizes, sizes):
        arr = (rng.random((m, n)) < percent / 100).astype(np.uint8)
        A = Matrix._from_array(F2, arr)
        assert A.rank() == _dense_kernel(arr, 2, back=False)[0]
        basis = A.kernel_basis()
        assert basis == _dense_kernel_basis(arr, 2)
        union = {j for v in basis for j, x in enumerate(v) if x}
        assert A.kernel_support() == union
        # the census flags of the int rows against those read off the dense
        # RREF of the same [A^T | E_k]
        k = min(m, n)
        aug = np.zeros((n, m + k), dtype=np.uint8)
        aug[:, :m] = arr.T
        aug[range(k), range(m, m + k)] = 1
        got = _census_flags_gf2(*_rref_gf2(_int_rows(aug), m + k), m, k)
        rank, pivots, R = _dense_kernel(aug, 2, back=True)
        free = [j for j in range(m + k) if j not in pivots]
        assert got == _census_flags(pivots, R[:rank][:, free], m, k)
        assert [fa for fa, _, _ in got] == [i not in union for i in range(k)]
        frail += [y for fa, fat, y in got if fa and fat]
    assert True in frail and False in frail


# ------------------------------------------- the lift's uint32 residues
# _rational_rref keeps its residues, all below 2^31, as uint32 (half the
# bytes of int64) and the dense kernel takes their products in int64.


@pytest.mark.parametrize("p", (2147483647, 2147483629, 65537))
def test_dense_kernel_on_uint32_residues_matches_int64(p):
    import numpy as np

    from frozenrank.exactla import _dense_kernel

    rng = np.random.default_rng(p % 1000)
    for m, n, percent in ((1, 1, 100), (2, 3, 100), (7, 9, 60), (40, 40, 10), (33, 20, 30)):
        arr = np.where(rng.random((m, n)) < percent / 100, rng.integers(1, p, (m, n)), 0)
        arr[rng.random((m, n)) < 0.2] = p - 1  # its square overflows 32 bits
        arr[-1] = arr[0]  # rank deficient when m > 1
        want = _dense_kernel(arr.astype(np.int64), p, back=True)
        got = _dense_kernel(arr.astype(np.uint32), p, back=True)
        assert got[:2] == want[:2]
        assert got[2].dtype == np.uint32 and np.array_equal(got[2], want[2])


def _gauss_jordan(rows: list[list[int]], n: int, p: int, seen: set) -> tuple[list[int], list, list]:
    """Pivot columns, RREF and forward form mod p of ``rows``, by Gauss-Jordan
    elimination on Python ints in the dense kernel's two phases: forward
    elimination with normalized pivot rows, then back substitution from the
    last pivot.  The literal reference for the dense kernel.  ``seen``
    collects which kinds of pivot step ran: "swap", "unit", "scaled"."""
    R = [[x % p for x in row] for row in rows]
    pivots = []

    def clear(i: int, c: int, rows: range) -> None:
        for k in rows:
            f = R[k][c]
            if f:
                R[k] = [(x - f * y) % p for x, y in zip(R[k], R[i])]

    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(R)) if R[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            seen.add("swap")
            R[r], R[piv] = R[piv], R[r]
        seen.add("unit" if R[r][c] == 1 else "scaled")
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        clear(r, c, range(r + 1, len(R)))
        pivots.append(c)
    forward = [row[:] for row in R]
    for i in reversed(range(len(pivots))):
        clear(i, pivots[i], range(i))
    return pivots, R, forward


def _dense_kernel_cases(p: int):
    """Arrays of residues mod p: a swap at the first pivot, pivots that are 1
    and that are not, zero columns, rank-deficient rows, empty shapes,
    arrays with no zero entry, whose every row is cleared at each pivot of
    both phases, and arrays on both sides of ``exactla.ROW_LOOP_CELLS``."""
    q = p - 1
    yield [[0, 1, 2], [2, 1, 0], [2, 2, 2]]  # swap, then a pivot of 2
    yield [[1, 0, 2, 1], [2, 0, 1, 2], [0, 0, 0, 0], [1, 0, 2, 1]]  # zero column
    yield [[q, q], [1, q]]
    yield [[0, 0, 0], [0, 0, q], [0, 0, 1]]
    yield [[0] * 4] * 3
    yield [[q]]
    yield np.zeros((0, 3), dtype=np.int64)
    yield np.zeros((3, 0), dtype=np.int64)
    # every row hit below the first pivot; at the second a swap, with rows 2
    # and 3 hit and row 1 not; every row hit again at the third
    yield [[1, 1, 1, 1], [1, 1, 2, 1], [1, 2, 1, 2], [2, 1, 1, 1]]
    rng = np.random.default_rng(p % 1000)
    for m, n, percent in ((5, 5, 60), (6, 9, 40), (9, 6, 50), (12, 12, 25), (20, 30, 15)):
        a = np.where(rng.random((m, n)) < percent / 100, rng.integers(1, p, (m, n)), 0)
        a[rng.random((m, n)) < 0.2] = q  # its square overflows 32 bits at p = 2^31 - 1
        a[:, n // 2] = 0
        a[-1] = (a[0] + 2 * a[1]) % p  # rank deficient
        yield a
    for m, n in ((2, 2), (3, 5), (6, 6), (8, 5), (7, 12)):
        a = rng.integers(1, p, (m, n))
        a[rng.random((m, n)) < 0.2] = q
        yield a
    # exactly ROW_LOOP_CELLS cells, and one row more
    m, n = exactla.ROW_LOOP_CELLS // 10, 10
    for rows in (m, m + 1):
        a = np.where(rng.random((rows, n)) < 0.5, rng.integers(1, p, (rows, n)), 0)
        a[-1] = (a[0] + a[1]) % p
        yield a


# int32 storage holds the product of two residues only for p <= 46340
@pytest.mark.parametrize("dtype,p", [(np.int32, 3)] + [
    (dtype, p) for dtype in (np.int64, np.uint32) for p in (3, 65537, 2147483647)])
def test_dense_kernel_matches_literal_gauss_jordan(monkeypatch, dtype, p):
    # every case through the numpy loop (cut -1), the row loop (a cut above
    # every case) and the real cut, whose route is recorded
    seen = set()
    cases = [np.array(case, dtype=dtype) for case in _dense_kernel_cases(p)]
    wants = [_gauss_jordan(arr.tolist(), arr.shape[1], p, seen) for arr in cases]
    assert seen == {"swap", "unit", "scaled"}
    assert exactla.ROW_LOOP_CELLS in [arr.size for arr in cases]  # the boundary is covered
    on_rows = []
    rows = exactla._row_loop

    def recorded(M, p, back):
        on_rows.append((M.size, back))
        return rows(M, p, back)

    monkeypatch.setattr(exactla, "_row_loop", recorded)
    for cut in (-1, max(arr.size for arr in cases), exactla.ROW_LOOP_CELLS):
        monkeypatch.setattr(exactla, "ROW_LOOP_CELLS", cut)
        for arr, (want_pivots, want, want_forward) in zip(cases, wants):
            on_rows.clear()
            R, F = arr.copy(), arr.copy()
            rank, pivots, out = exactla._dense_kernel(R, p, back=True)
            assert (rank, pivots) == (len(want_pivots), want_pivots)
            assert out is R and R.dtype == dtype and R.tolist() == want
            assert exactla._dense_kernel(F, p, back=False) == (rank, pivots, F)
            assert F.dtype == dtype and F.tolist() == want_forward
            # with rows, the row loop hands back its lists and leaves the
            # array as it was; the numpy loop eliminates the array in place
            for back, form in ((True, want), (False, want_forward)):
                given = arr.copy()
                got = exactla._dense_kernel(given, p, back, rows=True)
                assert got[:2] == (rank, pivots)
                if arr.size <= cut:
                    assert got[2] == form and np.array_equal(given, arr)
                else:
                    assert got[2] is given and given.tolist() == form
            routes = [(arr.size, True), (arr.size, False)] * 2
            assert on_rows == (routes if arr.size <= cut else [])


_STORAGE = [(p, dtype) for p in (3, 5, 65537, 2147483647)
            for dtype in (np.int32, np.int64, np.uint32) if dtype != np.int32 or p <= 46340]


@st.composite
def residue_arrays(draw):
    """``(p, array)``: residues mod p in a storage dtype that the dense kernel
    takes, of up to about twice ``exactla.ROW_LOOP_CELLS`` cells, with
    entries 1 and p - 1 (whose square overflows 32 bits) drawn often, and
    a last row repeating a multiple of the first."""
    p, dtype = draw(st.sampled_from(_STORAGE))
    m = draw(st.integers(0, 20))
    n = draw(st.integers(0, min(20, 2 * exactla.ROW_LOOP_CELLS // max(m, 1))))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    a = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=np.int64).reshape(m, n)
    if m > 1 and draw(st.booleans()):
        a[-1] = a[0] * draw(st.integers(0, p - 1)) % p
    return p, a.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(residue_arrays())
@example((3, np.zeros((0, 7), dtype=np.int32)))
@example((65537, np.zeros((9, 0), dtype=np.int64)))
@example((5, np.zeros((6, 8), dtype=np.uint32)))
@example((2147483647, np.zeros((12, 15), dtype=np.uint32)))
@example((2147483647, np.full((5, 4), 2147483646, dtype=np.uint32)))
def test_dense_kernel_routes_agree(case):
    # the numpy loop (cut -1) and the row loop (a cut of the array's size)
    # leave the same rank, pivots, forward form and RREF, in the same dtype
    p, arr = case
    got = []
    with pytest.MonkeyPatch.context() as mp:
        for cut in (-1, arr.size):
            mp.setattr(exactla, "ROW_LOOP_CELLS", cut)
            F, R = arr.copy(), arr.copy()
            forward = exactla._dense_kernel(F, p, back=False)
            rank, pivots, out = exactla._dense_kernel(R, p, back=True)
            assert out is R and forward == (rank, pivots, F)
            assert F.dtype == R.dtype == arr.dtype
            got.append((rank, pivots, F.tolist(), R.tolist()))
            # the rows a caller reads off the row loop are the array's
            rows = exactla._dense_kernel(arr.copy(), p, back=True, rows=True)[2]
            assert (rows if cut == arr.size else rows.tolist()) == R.tolist()
    assert got[0] == got[1]


@pytest.mark.parametrize("back", (False, True))
@pytest.mark.parametrize("dtype,p", [(np.int32, 3), (np.int64, 2147483647),
                                     (np.uint32, 2147483647)])
def test_dense_kernel_reduces_a_read_only_array_in_a_copy(dtype, p, back):
    # at and one row above ROW_LOOP_CELLS, on a read-only array and on its
    # transposed view, as a Matrix and its transpose hold them: the input is
    # left as it was, and the result is that of a writable copy, which the
    # kernel reduces in place
    rng = np.random.default_rng(p % 1000 + back)
    m, n = exactla.ROW_LOOP_CELLS // 10, 10
    for rows in (m, m + 1):
        a = np.where(rng.random((rows, n)) < 0.5, rng.integers(1, p, (rows, n)), 0)
        a[-1] = (a[0] + a[1]) % p
        a = a.astype(dtype)
        a.setflags(write=False)
        for given in (a, a.T):
            before = given.copy()
            writable = given.copy()
            want = exactla._dense_kernel(writable, p, back)
            got = exactla._dense_kernel(given, p, back)
            assert want[2] is writable and got[2] is not given
            assert got[:2] == want[:2] and got[2].dtype == dtype
            assert np.array_equal(got[2], want[2])
            assert not given.flags.writeable and np.array_equal(given, before)


def _small_matrices(p: int, dtype):
    """Arrays of residues mod p in ``dtype``, of at most
    ``exactla.ROW_LOOP_CELLS`` cells: empty shapes, all-zero and full-rank
    arrays, and random ones, some rank deficient."""
    rng = np.random.default_rng(p % 1000 + np.dtype(dtype).itemsize)
    yield np.zeros((0, 5), dtype=dtype)
    yield np.zeros((4, 0), dtype=dtype)
    yield np.zeros((3, 4), dtype=dtype)
    yield np.eye(6, dtype=dtype)
    full = np.triu(rng.integers(1, p, (7, 7))) % p
    yield full.astype(dtype)  # upper triangular, nonzero diagonal
    yield full[:, ::-1].T.astype(dtype)
    for m, n in ((1, 1), (2, 5), (5, 2), (5, 6), (6, 5), (7, 7), (10, 10), (4, 25), (25, 4)):
        for percent in (30, 70):
            a = np.where(rng.random((m, n)) < percent / 100, rng.integers(1, p, (m, n)), 0)
            a[rng.random((m, n)) < 0.2] = p - 1
            if m > 2 and percent == 70:
                a[-1] = (a[0] + a[1]) % p
            yield a.astype(dtype)


# a Matrix holds F_p residues in its field's storage dtype; int64 also holds
# the products at p = 3 and 5, so the kernel takes it there too (the uint32
# residues are the rational lift's alone, never a Matrix's)
@pytest.mark.parametrize("p,dtype", [(p, dtype) for p, dtype in _STORAGE if dtype != np.uint32])
def test_small_matrices_answer_alike_on_rows_and_on_the_numpy_loop(monkeypatch, p, dtype):
    # every question a Matrix answers from an array of at most ROW_LOOP_CELLS
    # cells, on the row loop's lists and with ROW_LOOP_CELLS at -1 (the numpy
    # loop) as the oracle; each side asks its own Matrix, so no cache is shared
    field = FieldSpec.prime(p)
    assert exactla.field_array(field, [[1]]).dtype == dtype or dtype == np.int64

    def answers(arr):
        A = Matrix._from_array(field, arr.copy())
        k = min(A.m, A.n)
        got = [A.rank(), A.kernel_support(), A.kernel_basis(), frozen_set(A)]
        got += [classify_variable(A, i) for i in range(k)]
        return got + [type_census(A)] if k else got

    for arr in _small_matrices(p, dtype):
        assert arr.size <= exactla.ROW_LOOP_CELLS
        on_rows = answers(arr)
        monkeypatch.setattr(exactla, "ROW_LOOP_CELLS", -1)
        assert answers(arr) == on_rows, arr.tolist()
        monkeypatch.undo()


@pytest.mark.parametrize("p", (7, 2147483647))
def test_reduced_block_is_the_rrefs_free_columns(p):
    # _reduced moves the free columns left within the reduced array, 256 rows
    # at a time; a rank above 256 takes two chunks
    import numpy as np

    field = FieldSpec.prime(p)
    rng = np.random.default_rng(p % 1000)
    arr = exactla.field_array(field, np.where(rng.random((300, 330)) < 0.5,
                                              rng.integers(1, p, (300, 330)), 0))
    arr[-1] = arr[0]
    arr[:, 5] = 0
    rank, pivots, R = exactla._dense_kernel(arr.copy(), p, back=True)
    free = [j for j in range(330) if j not in pivots]
    assert rank == 299 and 5 in free
    arr.setflags(write=False)
    got_pivots, block = exactla._reduced(field, arr)
    assert got_pivots == pivots and np.array_equal(block, R[:rank][:, free])


def test_rational_lift_reduces_uint32_residues(monkeypatch):
    import numpy as np

    dtypes = []
    kernel = exactla._dense_kernel

    def spy(M, p, back):
        dtypes.append(M.dtype)
        return kernel(M, p, back)

    monkeypatch.setattr(exactla, "_dense_kernel", spy)
    # the path on three vertices has rank 2, so its rank is lifted
    w = np.array([Fraction(3, 7), Fraction(-5, 2)], dtype=object)
    got = exactla.rational_rank(3, np.array([0, 1]), np.array([1, 2]), w)
    assert (got.rank, got.exit) == (2, "lift")
    assert dtypes and set(dtypes) == {np.dtype(np.uint32)}


def test_rank_struct_invariances_at_scale():
    stream = Stream(62)
    for field in (F2, F5):
        A = random_matrix(stream, field, 150, 150, density_percent=3)
        r = A.rank()
        assert A.transpose().rank() == r
        doubled = block([[A, A], [A, A]])  # 300 columns: several words
        assert doubled.rank() == r
        perm = list(range(150))
        stream.shuffle(perm)
        assert relabelled(A, perm).rank() == r


def test_kernel_and_frozen_dual_route_at_scale():
    stream = Stream(63)
    for field in (F2, F5):
        for n in (100, 150):
            A = random_matrix(stream, field, n, n, density_percent=2)
            basis = A.kernel_basis()
            assert len(basis) == A.nullity()
            rows = A.to_values()
            for v in basis[:10]:
                for row in rows:
                    assert sum(r * x for r, x in zip(row, v)) % field.p == 0
            # kernel-support route (RREF backward pass) against the
            # rank-drop route (forward eliminations only)
            assert frozen_set(A) == frozen_set_by_removal(A)


# ------------------------------------------------------- property checks


@st.composite
def small_matrix(draw):
    field = draw(st.sampled_from([F2, F3, F5]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n),
        min_size=m, max_size=m))
    return Matrix.from_rows(field, rows)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_bounds_and_transpose(A):
    r = A.rank()
    assert 0 <= r <= min(A.m, A.n)
    assert A.transpose().rank() == r
    assert A.rank() == rank_by_row_space_enumeration(A)


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.integers(0, 10**9))
def test_appending_rows_never_unfreezes(A, seed):
    stream = Stream(seed)
    extra = [stream.randbelow(A.field.p) for _ in range(A.n)]
    before = set(frozen_set(A))
    after = set(frozen_set(A.append_row(extra)))
    assert before <= after


@settings(max_examples=40, deadline=None)
@given(small_matrix(), st.integers(0, 10**9))
def test_relabelling_invariance(A, seed):
    if A.m != A.n:
        A = A.remove(rows=range(min(A.m, A.n), A.m), cols=range(min(A.m, A.n), A.n))
    perm = list(range(A.n))
    Stream(seed).shuffle(perm)
    B = relabelled(A, perm)
    assert A.rank() == B.rank()
    assert {perm[i] for i in frozen_set(A)} == set(frozen_set(B))
    if A.n:
        assert type_census(A) == type_census(B)


# ------------------------------------------------ sparse rank from edges
# sparse_rank against Matrix.rank of the dense adjacency, the literal route.

SPARSE_PRIMES = (2, 3, 5, 2147483647)


def _adjacency_rank(n, edges, p):
    return Graph.from_edges(n, FieldSpec.prime(p), edges).adjacency().rank()


def _sparse_rank(n, edges, p):
    """sparse_rank of the edge arrays of a checked :class:`Graph`."""
    G = Graph.from_edges(n, FieldSpec.prime(p), edges)
    return exactla.sparse_rank(n, G.i, G.j, G.w, p)


def _count_blocks(monkeypatch):
    """Shapes of the arrays the dense kernel eliminates from now on."""
    shapes = []
    dense = exactla._dense_kernel

    def counted(M, p, back, **kwargs):
        shapes.append(M.shape)
        return dense(M, p, back, **kwargs)

    monkeypatch.setattr(exactla, "_dense_kernel", counted)
    return shapes


@st.composite
def sparse_graphs(draw):
    p = draw(st.sampled_from(SPARSE_PRIMES))
    n = draw(st.integers(0, 80))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=2 * n))
    pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
    if draw(st.booleans()):
        weights = [1] * len(pairs)
    else:
        weights = draw(st.lists(st.integers(1, p - 1), min_size=len(pairs),
                                max_size=len(pairs)))
    return n, [(i, j, w) for (i, j), w in zip(pairs, weights)], p


@st.composite
def triangle_graphs(draw):
    """Graphs over F3 or F5 made of planted triangles, some sharing a vertex
    or an edge, plus pendant edges: the 2 x 2 pivots make diagonal entries,
    and at small p they and the fill the pivots add cancel often."""
    p = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(3, 60))
    vertex = st.integers(0, n - 1)
    pairs = set()
    for a, b, c in draw(st.lists(st.tuples(vertex, vertex, vertex), min_size=1,
                                 max_size=n // 3 + 1)):
        pairs |= {(min(x, y), max(x, y)) for x, y in ((a, b), (b, c), (a, c)) if x != y}
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    weights = draw(st.lists(st.integers(1, p - 1), min_size=len(pairs), max_size=len(pairs)))
    return n, [(i, j, w) for (i, j), w in zip(pairs, weights)], p


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_graphs(), triangle_graphs()))
def test_sparse_rank_matches_dense_adjacency(graph):
    n, edges, p = graph
    assert _sparse_rank(n, edges, p) == _adjacency_rank(n, edges, p)


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_sparse_rank_of_an_edgeless_graph(p):
    for n in (0, 1, 5):
        assert _sparse_rank(n, (), p) == 0


@pytest.mark.parametrize("p", SPARSE_PRIMES)
@pytest.mark.parametrize("ones", (True, False))
def test_sparse_rank_of_cycles_with_a_kernel(p, ones):
    # the 4m-cycle has rank 4m - 2 exactly when its two perfect matchings
    # have equal weight products; the last weight is set so that they do,
    # and the fill-in of the last pivots must cancel to reach that rank
    stream = Stream(p)
    for n in (8, 68, 200):
        w = [1 if ones else 1 + stream.randbelow(p - 1) for _ in range(n)]
        even, odd = math.prod(w[0::2]) % p, math.prod(w[1:-1:2]) % p
        w[-1] = even * pow(odd, -1, p) % p
        edges = [(k, k + 1, w[k]) for k in range(n - 1)] + [(0, n - 1, w[-1])]
        assert _sparse_rank(n, edges, p) == _adjacency_rank(n, edges, p) == n - 2


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:])
def test_sparse_rank_when_fill_in_cancels(p):
    # ten disjoint 4-cycles with w01 * w23 = w12 * w30, each of rank 2:
    # pivoting on a cycle's column leaves fill-in that cancels to 0
    edges = []
    for b in range(0, 40, 4):
        a, c, d = 2, 1 + b // 4 % (p - 1), p - 1
        edges += [(b, b + 1, a), (b + 1, b + 2, a * c * pow(d, -1, p) % p),
                  (b + 2, b + 3, c), (b, b + 3, d)]
    assert _sparse_rank(40, edges, p) == _adjacency_rank(40, edges, p) == 20


def test_sparse_rank_of_a_dense_core_skips_the_sparse_phase(monkeypatch):
    # K_12 fills 11/12 of its area, above SPARSE_FILL, and has no vertex of
    # degree 2 or less: no pivot is taken, and it goes to one 12 x 12 block
    p = 5
    edges = [(i, j, 1 + (i + j) % (p - 1)) for i in range(12) for j in range(i + 1, 12)]
    want = _adjacency_rank(12, edges, p)
    shapes = _count_blocks(monkeypatch)
    assert _sparse_rank(12, edges, p) == want
    assert shapes == [(12, 12)]


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:])
def test_sparse_rank_crosses_to_the_dense_block_midway(monkeypatch, p):
    # a Hamiltonian cycle and a random perfect matching (3/n of the area)
    # leave degree 2 only at the ends of the one to three matching edges
    # that repeat a cycle edge: pivots of degree 3 and up are taken until
    # the live block is dense enough, then that smaller block goes dense
    n = 300
    stream = Stream(p + 1)
    cycle, match = list(range(n)), list(range(n))
    stream.shuffle(cycle)
    stream.shuffle(match)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    pairs |= {(min(a, b), max(a, b)) for a, b in zip(match[0::2], match[1::2])}
    edges = [(a, b, 1 + stream.randbelow(p - 1)) for a, b in sorted(pairs)]
    assert 2 * len(edges) <= exactla.SPARSE_FILL * n * n
    shapes = _count_blocks(monkeypatch)
    got = _sparse_rank(n, edges, p)
    assert len(shapes) == 1 and 0 < shapes[0][0] < n
    assert got == _adjacency_rank(n, edges, p)


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:3])
def test_sparse_rank_contracts_a_sparse_random_graph_whole(monkeypatch, p):
    # mean degree 3 on 300 vertices, the input that crossed to a dense block
    # before degree-2 vertices were pivoted 2 x 2: over F3 and F5 these draws
    # pivot to nothing (at 2^31 - 1 the draw leaves a 7-vertex block, which
    # is dense)
    n = 300
    stream = Stream(p + 1)
    edges = [(i, j, 1 + stream.randbelow(p - 1)) for i in range(n)
             for j in range(i + 1, n) if stream.randbelow(n) < 3]
    want = _adjacency_rank(n, edges, p)
    shapes = _count_blocks(monkeypatch)
    assert _sparse_rank(n, edges, p) == want
    assert shapes == []


# ------------------------------------------------- the sparse pivots
# exactla._sparse_pivots splits 1 x 1 and 2 x 2 blocks off by congruence: the
# rank it returns plus the rank of the rows it leaves is the rank of the rows
# it was given, diagonals included.


def _rows_rank(rows, p):
    """Rank over F_p of the matrix whose row ``r`` is the dict ``rows[r]``."""
    M = exactla.field_array(FieldSpec.prime(p), np.zeros((len(rows),) * 2, dtype=np.uint8))
    for r, row in enumerate(rows):
        for c, v in row.items():
            M[r, c] = v
    return exactla._dense_kernel(M, p, back=False)[0]


def _check_pivots(rows, p):
    """Pivot on a copy of ``rows`` and check the rank split; returns the
    rows left."""
    left = [dict(row) for row in rows]
    split = exactla._sparse_pivots(left, p)
    assert split + _rows_rank(left, p) == _rows_rank(rows, p)
    assert all(left[c][r] == v for r, row in enumerate(left) for c, v in row.items())
    return left


def _symmetric_rows(n, entries):
    """Symmetric row dicts from ``(i, j, value)`` entries, ``i == j`` for a
    diagonal."""
    rows = [{} for _ in range(n)]
    for i, j, v in entries:
        rows[i][j] = rows[j][i] = v
    return rows


@pytest.mark.parametrize("p,rank", [(2, 2), (3, 3), (2147483647, 3)])
def test_sparse_rank_of_a_triangle_keeps_the_diagonal_it_makes(monkeypatch, p, rank):
    # a 2 x 2 pivot on a vertex of K_3 and one neighbour leaves the other
    # with a diagonal entry -2 * A[a, b] * A[v, b] / A[v, a], and a 1 x 1
    # pivot takes it: the rank is 2 + 1 over an odd field, as det A(K_3) = 2,
    # and no block is left for the dense kernel.  Ten isolated vertices keep
    # the matrix sparse.
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    want = _adjacency_rank(13, edges, p)
    shapes = _count_blocks(monkeypatch)
    assert _sparse_rank(13, edges, p) == want == rank
    assert shapes == []
    if p > 2:
        assert _check_pivots(_symmetric_rows(3, edges), p) == [{}, {}, {}]


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_sparse_rank_of_a_triangle_with_a_pendant_path(p):
    stream = Stream(p + 7)
    for length in range(1, 7):
        n = 13 + length  # ten isolated vertices, as above
        edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)] + \
            [(k, k + 1, 1) for k in range(2, 2 + length)]
        weighted = [(a, b, 1 + stream.randbelow(p - 1)) for a, b, _ in edges]
        for e in (edges, weighted):
            assert _sparse_rank(n, e, p) == _adjacency_rank(n, e, p)
            if p > 2:
                _check_pivots(_symmetric_rows(n, e), p)


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:])
def test_contract_a_leaf_whose_neighbour_carries_a_diagonal(p):
    # vertex 0 is a leaf of 1, which has a diagonal and two more neighbours
    stream = Stream(p)
    for _ in range(20):
        w = [1 + stream.randbelow(p - 1) for _ in range(5)]
        rows = _symmetric_rows(4, [(0, 1, w[0]), (1, 1, w[1]), (1, 2, w[2]),
                                   (1, 3, w[3]), (2, 3, w[4])])
        left = _check_pivots(rows, p)
        assert left[0] == left[1] == {}


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:])
def test_contract_folds_a_neighbour_with_a_diagonal_into_the_other(p):
    # the first pivot is on vertex 0 (no leaf, and the lowest of the two
    # vertices with 2 entries) and its lighter neighbour 1, which has a
    # diagonal and is joined to 0's other neighbour 2: 2 gains 1's entries
    # and a change of its own diagonal through c = -A[1, 1] / A[0, 1]^2,
    # which may cancel
    stream = Stream(p + 1)
    for _ in range(40):
        w = [1 + stream.randbelow(p - 1) for _ in range(9)]
        _check_pivots(_symmetric_rows(5, [(0, 1, w[0]), (0, 2, w[1]), (1, 1, w[2]),
                                          (1, 2, w[3]), (1, 3, w[4]), (2, 2, w[5]),
                                          (2, 3, w[6]), (2, 4, w[7]), (3, 4, w[8])]), p)


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:])
def test_a_1x1_pivot_divides_by_its_diagonal_entry(p):
    # w w^T / d with w = (d, x) has rank 1: a 1 x 1 pivot on either diagonal
    # entry leaves the other at x^2 / d - x^2 / d = 0
    stream = Stream(p + 2)
    for _ in range(20):
        d, x = (1 + stream.randbelow(p - 1) for _ in range(2))
        rows = _symmetric_rows(2, [(0, 0, d), (0, 1, x), (1, 1, x * x * pow(d, -1, p) % p)])
        assert _check_pivots(rows, p) == [{}, {}]


@st.composite
def symmetric_rows(draw):
    """Sparse symmetric row dicts over F3, F5 or F_(2^31-1), with diagonals."""
    p = draw(st.sampled_from(SPARSE_PRIMES[1:]))
    n = draw(st.integers(1, 30))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, st.integers(1, p - 1)), max_size=2 * n))
    return _symmetric_rows(n, entries), p


@settings(max_examples=150, deadline=None)
@given(symmetric_rows())
def test_contract_keeps_the_rank(case):
    rows, p = case
    _check_pivots(rows, p)


@pytest.mark.parametrize("p", SPARSE_PRIMES)
def test_sparse_rank_of_cycles_with_random_weights(p):
    # each on ten more vertices than the cycle, all isolated, so that the
    # short cycles are sparse enough for the sparse phases too
    stream = Stream(p + 3)
    for k in range(3, 40):
        edges = [(t, t + 1, 1 + stream.randbelow(p - 1)) for t in range(k - 1)]
        edges.append((0, k - 1, 1 + stream.randbelow(p - 1)))
        assert _sparse_rank(k + 10, edges, p) == _adjacency_rank(k + 10, edges, p)


@pytest.mark.parametrize("p", SPARSE_PRIMES[1:])
def test_sparse_rank_of_paths_trees_and_even_cycles_needs_no_dense_block(monkeypatch, p):
    # from 10 vertices up, a path, tree or cycle fills at most 2/10 of its area
    stream = Stream(p + 5)
    graphs = []
    for n in (10, 11, 51, 200):
        graphs.append((n, [(k, k + 1) for k in range(n - 1)]))  # a path
        # a random tree: each vertex joins one of the vertices before it
        graphs.append((n, [(stream.randbelow(k), k) for k in range(1, n)]))
    for n in (10, 12, 20, 64):
        graphs.append((n, [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]))
    for n, pairs in graphs:
        edges = [(a, b, 1 + stream.randbelow(p - 1)) for a, b in pairs]
        want = _adjacency_rank(n, edges, p)
        shapes = _count_blocks(monkeypatch)
        assert _sparse_rank(n, edges, p) == want
        assert shapes == []
        monkeypatch.undo()


@pytest.mark.parametrize("field", ("Fp:3", "Fp:2147483647"))
def test_sparse_rank_of_trial_cores_matches_the_dense_kernel(field):
    # the cores a simulate trial ranks, at n = 2000, d = 3 with random
    # weights, against one dense elimination of each core's adjacency
    spec = FieldSpec.parse_label(field)
    for index in range(3):
        trial_seed = harness.derive_trial_seed(0, index)
        support = harness.trial_support(trial_seed, 2000, 3.0)
        template = harness._weight_template(trial_seed, 2000, spec, "random")
        v, i, j = support.core_vertices, support.core_i, support.core_j
        w = template.weights(v[i], v[j])
        M = exactla.field_array(spec, np.zeros((v.size, v.size), dtype=np.uint8))
        M[i, j] = M[j, i] = w
        assert exactla.sparse_rank(v.size, i, j, w, spec.p) == \
            exactla._dense_kernel(M, spec.p, back=False)[0]


def test_sparse_rank_gf2_rows_across_word_boundaries():
    stream = Stream(64)
    for n in (7, 8, 9, 63, 64, 65, 130):
        edges = [(i, j, 1) for i in range(n) for j in range(i + 1, n)
                 if stream.randbelow(n) < 3]
        assert _sparse_rank(n, edges, 2) == _adjacency_rank(n, edges, 2)
