"""Counter-based PRF: purity, scalar/vector agreement, exact uniformity."""

import numpy as np
import pytest

from frozenrank.prf import (
    _C1,
    _C2,
    _C3,
    Stream,
    mix64_array,
    derive_seed,
    last_round_bound,
    mix64,
    mix64_below,
    prf,
    prf_array,
)


def test_prf_is_pure():
    assert prf(1, 2, 3) == prf(1, 2, 3)
    assert prf(1, 2, 3) != prf(1, 3, 2)
    assert prf(1, 2) != prf(2, 2)
    assert 0 <= mix64(2**64 - 1) < 2**64


def test_scalar_vector_agreement():
    a = np.arange(0, 1000, 7, dtype=np.uint64)
    b = np.arange(3, 1003, 7, dtype=np.uint64)
    vec = prf_array(123456789, a, b)
    for k in (0, 1, 50, 142):
        assert int(vec[k]) == prf(123456789, int(a[k]), int(b[k]))


def test_prf_array_broadcasts():
    # (R, 1) x (1, C): each element is the scalar prf, the same values as on
    # full-size arrays, and neither input is modified
    seed = 2**63 + 12345
    rows = np.array([0, 1, 7, 2**32, 2**64 - 1], dtype=np.uint64)[:, None]
    cols = np.arange(3, 14, dtype=np.uint64)[None, :]
    rows_before, cols_before = rows.copy(), cols.copy()
    grid = prf_array(seed, rows, cols)
    assert grid.shape == (5, 11)
    for (r, c), v in np.ndenumerate(grid):
        assert int(v) == prf(seed, int(rows[r, 0]), int(cols[0, c]))
    full_rows = np.repeat(rows, 11, axis=1)
    full_cols = np.repeat(cols, 5, axis=0)
    full_before = full_rows.copy(), full_cols.copy()
    assert np.array_equal(prf_array(seed, full_rows, full_cols), grid)
    assert np.array_equal(rows, rows_before) and np.array_equal(cols, cols_before)
    assert np.array_equal(full_rows, full_before[0]) and np.array_equal(full_cols, full_before[1])


def test_prf_array_takes_any_words():
    # three to five words, some scalar and some arrays, broadcasting together
    a = np.arange(4, dtype=np.uint64)[:, None]
    b = np.arange(10, 13, dtype=np.uint64)[None, :]
    for words in ((a, 7, b), (3, a, b, 2**40), (a, 1, 2, b, 5)):
        grid = prf_array(99, *words)
        assert grid.shape == (4, 3)
        for (r, c), v in np.ndenumerate(grid):
            scalar = [w if isinstance(w, int) else int(w[min(r, w.shape[0] - 1),
                                                         min(c, w.shape[1] - 1)])
                      for w in words]
            assert int(v) == prf(99, *scalar)


def test_prf_array_array_seed():
    seeds = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    vec = prf_array(seeds, 3, np.arange(4))
    assert [int(v) for v in vec] == [prf(int(s), 3, k) for k, s in enumerate(seeds)]
    assert [int(v) for v in prf_array(seeds)] == [prf(int(s)) for s in seeds]


def test_prf_array_int64_arrays_and_wide_ints():
    # int64 arrays wrap two's complement, as Python ints masked to 64 bits do
    words = np.array([-1, -2**63, 0, 2**63 - 1], dtype=np.int64)
    assert [int(v) for v in prf_array(-5, words)] == [prf(-5, int(w)) for w in words]
    for seed, word in ((2**63, 2**64 - 1), (2**64 + 7, -1), (-2**63, 2**70 + 3)):
        assert int(prf_array(seed, word, np.array([4]))[0]) == prf(seed, word, 4)
        assert int(prf_array(np.array([seed & (2**64 - 1)]), word)[0]) == prf(seed, word)


def test_prf_array_all_scalar():
    for args in ((0,), (5, 1), (2**64 - 1, -1, 2**63, 9)):
        out = prf_array(*args)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert int(out) == prf(*args)


def test_mix64_array_leaves_its_input():
    x = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    before = x.copy()
    with np.errstate(over="ignore"):
        mixed = mix64_array(x)
    assert [int(v) for v in mixed] == [mix64(int(v)) for v in before]
    assert np.array_equal(x, before)


def _unshift(y: int, s: int) -> int:
    """The x with x ^ (x >> s) == y."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _unmix64(r: int) -> int:
    """The x with mix64(x) == r: each round of mix64 inverted."""
    x = _unshift(r, 31) * pow(_C3, -1, 2**64) % 2**64
    x = _unshift(x, 27) * pow(_C2, -1, 2**64) % 2**64
    return (_unshift(x, 30) - _C1) % 2**64


# on and next to a multiple of 2**33, the top cuts (the bound is 2**64 from
# 2**64 - 2**33 + 1 up, and the filter is skipped) and the least ones
_BELOW_CUTS = sorted({c + e for c in (2**33, 3 * 2**33) for e in (-2048, -1, 0, 1, 2048)}
                     | {2**64 - 2**33, 2**64 - 2**33 + 1, 2**64 - 1024, 0, 1})


@pytest.mark.parametrize("cut", _BELOW_CUTS)
def test_mix64_below_is_the_literal_test(cut):
    # values whose last round starts just below, on and above the bound, and
    # values just below, on and above the cut, each from its unmixed input
    bound = last_round_bound(cut)
    assert bound % 2**33 == 0 and (bound == 2**64) == (cut > 2**64 - 2**33)
    starts = [y for b in (bound - 2**33, bound) for y in (b - 1, b, b + 1) if 0 <= y < 2**64]
    values = sorted({y ^ (y >> 31) for y in starts}
                    | {v for v in (cut - 2, cut - 1, cut, cut + 1, 0, 2**64 - 1)
                       if 0 <= v < 2**64})
    x = np.array([_unmix64(v) for v in values], dtype=np.uint64)
    assert [mix64(int(v)) for v in x] == values
    got = mix64_below(x.copy(), cut, np.empty_like(x))
    assert got.tolist() == [k for k, v in enumerate(values) if v < cut]
    assert cut in (0, 1) or got.size  # some value lies below each cut
    grid = np.arange(6, dtype=np.uint64).reshape(2, 3) * np.uint64(_C2)
    assert mix64_below(grid.copy(), cut, np.empty_like(grid)).tolist() == \
        [k for k, v in enumerate(grid.flat) if mix64(int(v)) < cut]


def test_derive_seed_separates_domains():
    seeds = {derive_seed(5, i, tag) for i in range(10) for tag in (0x1, 0x2, 0x3)}
    assert len(seeds) == 30


def test_stream_deterministic():
    assert [Stream(9).next64() for _ in range(5)] == [Stream(9).next64() for _ in range(5)]


def test_randbelow_exact_range():
    stream = Stream(4)
    seen = {stream.randbelow(6) for _ in range(500)}
    assert seen == set(range(6))
    with pytest.raises(ValueError):
        stream.randbelow(0)


def test_randbelow_takes_n_up_to_2_to_the_64():
    # 2**64 takes every 64-bit value as drawn; above it no 64-bit value is
    # below the rejection limit, so the draw raises instead of looping
    from frozenrank.perturb import PerturbationSpec

    stream = Stream(3)
    assert stream.randbelow(2**64) == Stream(3).next64()
    with pytest.raises(ValueError, match="2\\*\\*64"):
        stream.randbelow(2**64 + 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        PerturbationSpec.draw(2**64 + 1, 0)


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(20))
    Stream(8).shuffle(items)
    assert sorted(items) == list(range(20))
    again = list(range(20))
    Stream(8).shuffle(again)
    assert again == items


class _LiteralStream:
    """Counter mode by its definition: value ``k`` is ``prf(seed, k)``,
    computed one at a time."""

    def __init__(self, seed):
        self.seed, self.counter = seed, 0

    def next64(self):
        self.counter += 1
        return prf(self.seed, self.counter - 1)

    def randbelow(self, n):
        limit = 2**64 - 2**64 % n
        while (v := self.next64()) >= limit:
            pass
        return v % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", (0, 9, 2**64 - 1))
def test_stream_is_counter_mode_across_its_blocks(seed):
    # blocks of 8, 16, ..., 1024 values end at 8, 24, ..., 1016 and 2040, so
    # 3000 values cross every boundary, one between two 1024-value blocks too;
    # randbelow(2**63 + 1) rejects about half its draws, so it often reads
    # past the end of a block
    stream, literal = Stream(seed), _LiteralStream(seed)
    step = 0
    while literal.counter < 3000:
        if step % 3 == 0:
            assert stream.next64() == literal.next64()
        elif step % 3 == 1:
            assert stream.randbelow(2**63 + 1) == literal.randbelow(2**63 + 1)
        else:
            got, want = list(range(2 + step % 9)), list(range(2 + step % 9))
            stream.shuffle(got)
            literal.shuffle(want)
            assert got == want
        assert stream._counter == literal.counter
        step += 1
    assert len(stream._block) == Stream._BLOCK_MAX


# randbelow(n) takes a value v at once when v <= 2**64 - 1 - n, and else
# against the exact limit 2**64 - 2**64 % n; these bounds reach both sides:
# at 3 * 2**62 a quarter of the values are rejected, and at 2**64 - 1 nearly
# every value is checked against the exact limit
_RANDBELOW_BOUNDS = (1, 2, 3, 2**32 + 1, 3 * 2**62, 2**64 - 1, 2**64)


@pytest.mark.parametrize("seed", (0, 9, 2**64 - 1))
def test_randbelow_matches_the_literal_stream_on_both_sides_of_its_fast_bound(seed):
    # 2100 values cross every block boundary, up to the one at 2040
    stream, literal = Stream(seed), _LiteralStream(seed)
    seen = set()
    while literal.counter < 2100:
        for n in _RANDBELOW_BOUNDS:
            start = literal.counter
            assert stream.randbelow(n) == literal.randbelow(n)
            assert stream._counter == literal.counter
            for k in range(start, literal.counter):
                v = prf(seed, k)
                seen.add("fast" if v <= 2**64 - 1 - n else
                         "exact" if v < 2**64 - 2**64 % n else "rejected")
    assert seen == {"fast", "exact", "rejected"}
    assert len(stream._block) == Stream._BLOCK_MAX
