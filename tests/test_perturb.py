"""Coupled perturbation families and the canonical block perturbation."""

import math

import numpy as np
import pytest

from frozenrank import perturb
from frozenrank.exactla import Matrix, frozen_set
from frozenrank.field import FieldSpec
from frozenrank.perturb import (
    CoupledFamilies,
    PerturbationFamily,
    PerturbationSpec,
    canonical_perturb,
    indices_over_seeds,
    theta_c_matrix,
    theta_r_matrix,
)
from frozenrank.prf import TAG_COL_FAMILY, TAG_ROW_FAMILY, Stream, prf, prf_array

F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)


def test_u_levels():
    fam = PerturbationFamily(3)
    assert fam.u(0, 1) == 1  # only one choice at level 1
    for level in range(1, 30):
        assert 1 <= fam.u(5, level) <= level
    with pytest.raises(ValueError):
        fam.u(0, 0)


def test_index_is_pure_and_monotone_in_queries():
    fam = PerturbationFamily(9)
    first = [fam.index(2, n1) for n1 in (1, 4, 2, 8, 4)]
    again = [fam.index(2, n1) for n1 in (1, 4, 2, 8, 4)]
    assert first == again
    assert first[0] == 0  # n1 = 1 forces position 0
    fresh = PerturbationFamily(9)
    assert [fresh.index(2, n1) for n1 in (1, 4, 2, 8, 4)] == first  # order-free


def _literal_index(fam: PerturbationFamily, k: int, n1: int) -> int:
    # the definition: the last level up to n1 whose pick is the level itself
    return max(level for level in range(1, n1 + 1) if fam.u(k, level) == level) - 1


def test_scalar_vector_index_agreement(monkeypatch):
    seeds = prf_array(1, np.arange(300))
    assert seeds.tolist() == [prf(1, k) for k in range(300)]
    fams = [PerturbationFamily(int(s)) for s in seeds]
    budgets = (perturb._PICK_CELLS, 50)
    for k in (0, 1, 4):
        for n1 in (1, 2, 5, 12, 40):
            literal = [_literal_index(fam, k, n1) for fam in fams]
            assert [fam.index(k, n1) for fam in fams[:30]] == literal[:30]
            # a 50-cell budget splits the seeds into blocks of 50 // (n1 - 1)
            for cells in budgets:
                monkeypatch.setattr(perturb, "_PICK_CELLS", cells)
                assert indices_over_seeds(seeds, k, n1).tolist() == literal
    grid = seeds.reshape(20, 15)
    assert np.array_equal(indices_over_seeds(grid, 4, 12),
                          indices_over_seeds(seeds, 4, 12).reshape(20, 15))
    # a transposed grid, whose hashes come back in Fortran order
    assert np.array_equal(indices_over_seeds(grid.T, 4, 12), indices_over_seeds(grid, 4, 12).T)
    # k broadcasts with the seeds: a seeds x k grid, as one array of k and as
    # one row of k per seed, against the scalar u at every budget
    ks = np.arange(6)
    for n1 in (1, 3, 12):
        literal = [[_literal_index(fam, k, n1) for k in range(6)] for fam in fams[:40]]
        for cells in budgets:
            monkeypatch.setattr(perturb, "_PICK_CELLS", cells)
            assert indices_over_seeds(seeds[:40, None], ks, n1).tolist() == literal
            assert indices_over_seeds(seeds[:40, None], np.tile(ks, (40, 1)), n1).tolist() \
                == literal
    assert indices_over_seeds(int(seeds[0]), ks, 12).tolist() == literal[0]


def test_pick_matches_the_literal_index_at_its_edges(monkeypatch):
    # levels 1 and 2 alone; an int seed with an int k, negative and beyond 64
    # bits, read mod 2^64 as prf reads them, through the 0-d result of
    # PerturbationFamily.index; an int64 array of k with negatives; and the
    # census's shape, 8 rows at n1 = 2000, with budgets that split the seeds
    # into uneven blocks
    seeds = prf_array(2, np.arange(23))
    fams = [PerturbationFamily(int(s)) for s in seeds]
    for n1 in (1, 2):
        for k in (0, 3, -1, 2**64 + 3):
            literal = [_literal_index(fam, k, n1) for fam in fams]
            for cells in (perturb._PICK_CELLS, 5, 1):
                monkeypatch.setattr(perturb, "_PICK_CELLS", cells)
                assert indices_over_seeds(seeds, k, n1).tolist() == literal
    monkeypatch.undo()
    for seed in (0, 5, -7, 2**64 - 1, 2**70 + 11):
        fam = PerturbationFamily(seed)
        for k in (0, 4, -2, 2**66 + 1):
            for n1 in (1, 2, 3, 9, 40):
                got = indices_over_seeds(seed, k, n1)
                assert got.shape == () and got.dtype == np.int64
                assert fam.index(k, n1) == int(got) == _literal_index(fam, k, n1)
                assert fam.index(k, n1) == PerturbationFamily(seed % 2**64).index(k % 2**64, n1)
    ks = np.array([-3, -1, 0, 2, 2**62, -(2**63)], dtype=np.int64)
    for n1 in (2, 7, 30):
        literal = [[_literal_index(fam, int(k), n1) for k in ks] for fam in fams[:5]]
        for cells in (perturb._PICK_CELLS, 4 * (n1 - 1)):
            monkeypatch.setattr(perturb, "_PICK_CELLS", cells)
            assert indices_over_seeds(seeds[:5, None], ks, n1).tolist() == literal
    fam = fams[0]
    rows = np.arange(8)
    literal = [_literal_index(fam, k, 2000) for k in range(8)]
    for cells in (perturb._PICK_CELLS, 3 * 1999, 1):  # blocks 8; 3, 3, 2; 1 each
        monkeypatch.setattr(perturb, "_PICK_CELLS", cells)
        assert indices_over_seeds(fam.seed, rows, 2000).tolist() == literal


def test_index_rejects_empty_range():
    fam = PerturbationFamily(9)
    seeds = prf_array(1, np.arange(10))
    for n1 in (0, -3):
        with pytest.raises(ValueError):
            indices_over_seeds(seeds, 0, n1)
        with pytest.raises(ValueError):
            fam.index(0, n1)


def test_theta_r_zero_rows():
    T = theta_r_matrix(PerturbationFamily(1), 0, 3, 5, F2)
    assert (T.m, T.n) == (0, 5)


def test_theta_r_one_column_when_n1_is_one():
    T = theta_r_matrix(PerturbationFamily(4), 6, 1, 9, F2)
    for k in range(6):
        assert [T.entry(k, j) for j in range(9)] == [1] + [0] * 8


def test_theta_r_validation():
    fam = PerturbationFamily(2)
    with pytest.raises(ValueError):
        theta_r_matrix(fam, 1, 5, 4, F2)
    with pytest.raises(ValueError):
        theta_c_matrix(fam, 5, 4, 1, F2)


def test_theta_c_shape_and_rows():
    T = theta_c_matrix(PerturbationFamily(4), 1, 7, 3, F2)
    assert (T.m, T.n) == (7, 3)
    for k in range(3):
        col = [T.entry(i, k) for i in range(7)]
        assert col == [1] + [0] * 6


def test_nesting_exact():
    fam = PerturbationFamily(123)
    for theta_r in (1, 2, 5):
        for n1 in (1, 3, 6):
            for n2 in (n1, n1 + 2, n1 + 7):
                small = theta_r_matrix(fam, theta_r, n1, n2, F2)
                wider = theta_r_matrix(fam, theta_r, n1, n2 + 1, F2)
                assert wider.remove(cols=[n2]) == small
                taller = theta_r_matrix(fam, theta_r + 1, n1, n2, F2)
                assert taller.remove(rows=[theta_r]) == small


def test_agreement_frequency_matches_coupling_law():
    samples = 100_000
    for n0, n1, theta_r in ((2, 4, 1), (3, 5, 2), (5, 10, 3)):
        seeds = prf_array(42, n0, n1, theta_r, np.arange(samples))
        assert seeds[:100].tolist() == [prf(42, n0, n1, theta_r, s) for s in range(100)]
        agree = np.ones(samples, dtype=bool)
        for k in range(theta_r):
            agree &= indices_over_seeds(seeds, k, n0) == indices_over_seeds(seeds, k, n1)
        freq = float(np.mean(agree))
        want = (n0 / n1) ** theta_r
        sigma = math.sqrt(want * (1 - want) / samples)
        assert abs(freq - want) <= 3 * sigma, (n0, n1, theta_r, freq, want)


def test_index_uniform():
    samples = 100_000
    n1 = 11
    seeds = prf_array(7, np.arange(samples))
    assert seeds[:100].tolist() == [prf(7, s) for s in range(100)]
    counts = np.bincount(indices_over_seeds(seeds, 0, n1), minlength=n1)
    expected = samples / n1
    stat = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2
    assert stat <= chi2.ppf(0.999, df=n1 - 1)


def test_row_col_families_independent():
    samples = 50_000
    fams = [CoupledFamilies.from_seed(prf(13, s)) for s in range(4)]
    assert len({f.rows.seed for f in fams} | {f.cols.seed for f in fams}) == 8
    masters = prf_array(13, np.arange(samples))
    row_seeds = prf_array(masters, 0, TAG_ROW_FAMILY)
    col_seeds = prf_array(masters, 0, TAG_COL_FAMILY)
    assert row_seeds[:4].tolist() == [f.rows.seed for f in fams]
    assert col_seeds[:4].tolist() == [f.cols.seed for f in fams]
    jr = indices_over_seeds(row_seeds, 0, 16).astype(float)
    jc = indices_over_seeds(col_seeds, 0, 16).astype(float)
    assert abs(float(np.corrcoef(jr, jc)[0, 1])) < 0.02


def test_theta_draw_uniform_and_deterministic():
    assert PerturbationSpec.draw(8, 5) == PerturbationSpec.draw(8, 5)
    seen = {(PerturbationSpec.draw(4, s).theta_r, PerturbationSpec.draw(4, s).theta_c)
            for s in range(2000)}
    assert seen == {(r, c) for r in range(1, 5) for c in range(1, 5)}
    with pytest.raises(ValueError):
        PerturbationSpec.draw(0, 1)


def test_canonical_perturb_identity():
    A = Matrix.from_rows(F2, [[0, 1], [1, 0]])
    spec = PerturbationSpec(0, 0, P=8)
    assert canonical_perturb(A, spec, CoupledFamilies.from_seed(1)) is A


def test_canonical_perturb_unit_row_rank():
    A = Matrix.zeros(F2, 2, 2)
    M = canonical_perturb(A, PerturbationSpec(1, 0, P=8), CoupledFamilies.from_seed(3))
    assert (M.m, M.n) == (3, 2)
    assert M.rank() == 1


def test_canonical_perturb_block_layout():
    A = Matrix.from_rows(F5, [[0, 3], [3, 0]])
    fams = CoupledFamilies.from_seed(11)
    spec = PerturbationSpec(2, 3, P=8)
    M = canonical_perturb(A, spec, fams)
    assert (M.m, M.n) == (4, 5)
    # top-left block is A; bottom-right is zero
    assert M.remove(rows=[2, 3], cols=[2, 3, 4]) == A
    for i in (2, 3):
        for j in (2, 3, 4):
            assert M.entry(i, j) == 0
    # unit rows land where the row family says, confined to A's columns
    for k in range(spec.theta_r):
        j = fams.rows.index(k, A.n)
        assert M.entry(2 + k, j) == 1


def test_census_of_perturbed_matrix_matches_per_variable_classification():
    from frozenrank.exactla import classify_variable, type_census
    from frozenrank.verify import random_matrix

    stream = Stream(71)
    for trial in range(15):
        field = (F2, F5)[trial % 2]
        n = 4 + stream.randbelow(5)
        A = random_matrix(stream, field, n, n, symmetric=True,
                          density_percent=25 + stream.randbelow(40))
        spec = PerturbationSpec.draw(6, trial)
        M = canonical_perturb(A, spec, CoupledFamilies.from_seed(trial * 31))
        prof = type_census(M, census_size=n)
        tally = {t: 0 for t in "XYZUV"}
        for i in range(n):
            tally[classify_variable(M, i)] += 1
        assert (prof.count_x, prof.count_y, prof.count_z, prof.count_u, prof.count_v) \
            == (tally["X"], tally["Y"], tally["Z"], tally["U"], tally["V"])


def test_canonical_perturb_freezes_hit_columns():
    stream = Stream(5)
    fams = CoupledFamilies.from_seed(17)
    for trial in range(20):
        rows = [[stream.randbelow(2) for _ in range(6)] for _ in range(6)]
        A = Matrix.from_rows(F2, rows)
        spec = PerturbationSpec.draw(8, trial)
        M = canonical_perturb(A, spec, fams)
        hit = {fams.rows.index(k, A.n) for k in range(spec.theta_r)}
        assert hit <= set(frozen_set(M))
        assert A.rank() <= M.rank() <= A.rank() + spec.theta_r + spec.theta_c
