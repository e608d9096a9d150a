"""Counter-based 64-bit pseudorandom functions and seed derivation.

Every random quantity in this package is a pure function of a seed and a
few integer coordinates (splitmix64-style mixing, no stored state).  That
gives O(1) memory, exact reproducibility, and coupling of samples across
matrix sizes and edge probabilities for free: querying ``(seed, i, j)``
twice, or from two differently sized matrices, returns the same value.

Scalar :func:`prf` is the literal definition; :func:`prf_array` is the same
function mixed over numpy arrays.  It takes a seed and any number of words,
each a Python int or an array, broadcasts them together, and runs each
mixing round over the broadcast shape of the arguments mixed so far, so a
block of rows against a run of columns costs one mixing round per pair.
Each word is one round, ``prf(seed, *words, w) = mix64(prf(seed, *words) ^
w)``, so :func:`mix64_array` carries a stored ``prf_array`` on by one word.
Where only the values below a cut are wanted, :func:`mix64_below` skips
the last round of the entries that :func:`last_round_bound` rules out.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB

# Domain-separation tags so no two random sources ever share a stream.
TAG_TRIAL = 0x7472696C
TAG_EDGES = 0x65646765
TAG_PERM = 0x7065726D
TAG_WEIGHTS = 0x77656967
TAG_THETA = 0x74686574
TAG_ROW_FAMILY = 0x726F7766
TAG_COL_FAMILY = 0x636F6C66


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x = (x + _C1) & _M64
    x = ((x ^ (x >> 30)) * _C2) & _M64
    x = ((x ^ (x >> 27)) * _C3) & _M64
    return x ^ (x >> 31)


def prf(seed: int, *words: int) -> int:
    """Pseudorandom 64-bit value, a pure function of (seed, words)."""
    h = mix64(seed & _M64)
    for w in words:
        h = mix64(h ^ (w & _M64))
    return h


def prf_array(seed, *words) -> np.ndarray:
    """Vectorized ``prf(seed, *words)`` over arguments that broadcast together.

    Each argument is a Python int or an array, read by :func:`to_uint64`.
    Round ``r`` runs over the broadcast shape of the seed and the first ``r``
    words; integer overflow wraps (mod 2^64), matching the scalar path.  The
    result is a new array, 0-d when every argument is an int.
    """
    with np.errstate(over="ignore"):
        h = (np.asarray(mix64(seed & _M64), dtype=np.uint64) if isinstance(seed, int)
             else mix64_array(to_uint64(seed)))
        for w in words:
            h = mix64_array(h ^ to_uint64(w))
    return h


def to_uint64(x) -> np.ndarray:
    """``x`` as uint64, read as :func:`prf` reads a word: an int masked to 64
    bits, an array converted elementwise (int64 wraps two's complement), so
    numpy's promotion rules never pick the dtype."""
    if isinstance(x, int):
        return np.uint64(x & _M64)
    return np.asarray(x).astype(np.uint64, copy=False)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` of each entry of the uint64 array ``x``, on a new
    array; ``x`` is left as it is.  The rounds run in place on that copy,
    with one scratch array for the shifts.  Products wrap mod 2^64; numpy
    warns of that only for a 0-d ``x``, which :func:`prf_array` mixes under
    ``np.errstate(over="ignore")``."""
    x = np.asarray(np.add(x, np.uint64(_C1), dtype=np.uint64))
    t = np.empty_like(x)
    _rounds_before_last(x, t)
    _last_round(x, t)
    return x


def _rounds_before_last(x: np.ndarray, t: np.ndarray) -> None:
    """In place, the two xor-shift-multiply rounds of :func:`mix64` that
    follow its add, with ``t`` (the shape of ``x``) for the shifts."""
    for shift, mul in ((30, _C2), (27, _C3)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        x *= np.uint64(mul)


def _last_round(x: np.ndarray, t: np.ndarray) -> None:
    """In place, the last round of :func:`mix64`, with ``t`` for the shift."""
    x ^= np.right_shift(x, np.uint64(31), out=t)


def last_round_bound(cut: int) -> int:
    """Least multiple ``b`` of ``2**33`` with ``x ^ (x >> 31) < cut`` only if
    ``x < b``, for ``0 <= cut < 2**64``; ``b`` may be ``2**64``.

    Bits 63..33 of ``x ^ (x >> 31)`` are those of ``x``, since ``x >> 31``
    has none of them set, so the two agree on ``>> 33``.  The last round of
    :func:`mix64` is that xor-shift, so a value can fall below ``cut`` only
    if the input to its last round is below ``b``.
    """
    return (((cut - 1) >> 33) + 1) << 33


def mix64_below(x: np.ndarray, cut: int, t: np.ndarray) -> np.ndarray:
    """Flat indices ``k``, ascending, with ``mix64(x.flat[k]) < cut``.

    ``x`` is a C-contiguous uint64 array, mixed in place up to the last
    round, and ``t`` a scratch array of its shape.  Only the entries below
    :func:`last_round_bound` run the last round; when that bound is
    ``2**64`` the filter is skipped and every entry does.
    """
    with np.errstate(over="ignore"):
        x += np.uint64(_C1)
        _rounds_before_last(x, t)
        bound = last_round_bound(cut)
        hits = np.flatnonzero(x < np.uint64(bound)) if bound <= _M64 else np.arange(x.size)
        y = x.ravel()[hits]
        _last_round(y, t.ravel()[:y.size])
        return hits[y < np.uint64(cut)]


def derive_seed(seed: int, index: int, tag: int) -> int:
    """Child seed for (trial, purpose); distinct tags never collide."""
    return prf(seed, index, tag)


class Stream:
    """Sequential 64-bit stream over the PRF (counter mode): value ``k`` is
    ``prf(seed, k)``, and ``_counter`` is the number of values consumed.

    Used where a sampling order exists (shuffles, rejection sampling).  The
    values are computed in blocks, by one :func:`prf_array` call each, whose
    sizes double from ``_BLOCK_FIRST`` up to ``_BLOCK_MAX``: a stream of a
    few draws pays for one small call, a long one about one call per 1024.
    A draw reads the next value of ``_block``, a list of Python ints, off one
    iterator over it, so that it costs one ``next`` and a counter increment.
    """

    _BLOCK_FIRST = 8
    _BLOCK_MAX = 1024

    def __init__(self, seed: int):
        self._seed = seed & _M64
        self._counter = 0
        self._block: list[int] = []
        self._values = iter(self._block)

    def next64(self) -> int:
        self._counter += 1
        try:
            return next(self._values)
        except StopIteration:
            k = self._counter - 1
            size = min(self._BLOCK_MAX, max(self._BLOCK_FIRST, 2 * len(self._block)))
            self._block = prf_array(self._seed, np.arange(k, k + size, dtype=np.uint64)).tolist()
            self._values = iter(self._block)
            return next(self._values)

    def randbelow(self, n: int) -> int:
        """Exactly uniform integer in [0, n), for ``1 <= n <= 2**64``, via
        rejection sampling on 64-bit values: ``v`` is kept when it is below
        ``limit = 2**64 - 2**64 % n``, a multiple of ``n``.  As ``2**64 % n <
        n``, every ``v <= 2**64 - 1 - n`` is below it, so the limit is only
        computed for a ``v`` above that, rare unless ``n`` is near 2**64."""
        if not 1 <= n <= _M64 + 1:
            raise ValueError(f"randbelow requires 1 <= n <= 2**64, got {n}")
        v = self.next64()
        if v > _M64 - n:
            limit = _M64 + 1 - ((_M64 + 1) % n)
            while v >= limit:
                v = self.next64()
        return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
