"""64-bit primitives shared by the hashing and sampling layers.

The mixer is the published SplitMix64 finalizer.  The scalar and the numpy
paths must stay bit-identical; tests assert this on random inputs.  Its
first step p(x) = x ^ (x >> 30) (``premix_np``) is GF(2)-linear, so
mix64(k ^ c) is the finalizer's tail on p(k) ^ p(c): sampling keeps its
keys premixed and pays p once per key, not once per (key, configuration)
cell.
``_Streams`` draws from many ``np.random.default_rng([seed, i])`` streams
at once, bit for bit, without a generator: raw outputs, 32-bit halves and
numpy's bounded integers and ``choice``; tests compare it with numpy's own
generators.
"""
from __future__ import annotations

import operator
import threading

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

HASH_VERSION = "splitmix64-v1"
VERSION = "0.1.0"  # the package version, stamped on every CSV and summary


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (bijective)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & MASK64
    return x ^ (x >> 31)


_A64 = np.uint64(_MIX_A)
_B64 = np.uint64(_MIX_B)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def premix_np(x: np.ndarray) -> np.ndarray:
    """The finalizer's first step p(x) = x ^ (x >> 30) on a uint64 array, as
    a new array: p(a ^ b) is p(a) ^ p(b)."""
    return x ^ (x >> _S30)


_scratch = threading.local()


def _tail_np(x: np.ndarray) -> np.ndarray:
    # the finalizer after its first step, in place in x, with one scratch
    # array kept per thread: a fresh one per call doubles what each sampling
    # slab allocates and frees, and malloc can then hand it back to the
    # system and fault it in again on every slab
    t = getattr(_scratch, "t", None)
    if t is None or t.size < x.size:
        t = _scratch.t = np.empty(x.size, dtype=np.uint64)
    t = t[:x.size].reshape(x.shape)
    x *= _A64
    x ^= np.right_shift(x, _S27, out=t)
    x *= _B64
    x ^= np.right_shift(x, _S31, out=t)
    return x


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, computed in place in the uint64 array
    ``x`` (which is returned)."""
    x ^= x >> _S30
    return _tail_np(x)


TWO_NEG_64 = 2.0 ** -64


def words_from_premixed(keys: np.ndarray, cfg: np.ndarray) -> np.ndarray:
    """Hashed 64-bit words, one row per cfg word and one column per cell key,
    from premixed keys and cfgs (``premix_np``): word (c, k) is mix64(k ^ c) of
    the keys before premixing.  ``keys`` is one row shared by every cfg or
    one row per cfg.  Word w reads as the uniform w * 2**-64 (see
    ``uniform_from_key``)."""
    return _tail_np(keys ^ cfg[:, None])


def uniform_from_key(key: int, cfg: int) -> float:
    """The word of (key, cfg) as a float in [0, 1]: the words from
    2**64 - 1024 up round to 1.0."""
    return mix64(key ^ cfg) * TWO_NEG_64


# numpy's SeedSequence (a fixed uint32 hash network) and PCG64 (a 128-bit LCG
# with the XSL-RR output, O'Neill 2014), computed for many entropies at once
_M32 = np.uint64(0xFFFFFFFF)
_S1, _S16, _S32, _S58, _S63 = (np.uint64(s) for s in (1, 16, 32, 58, 63))
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a * b, summed from 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> _S32, b & _M32, b >> _S32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _S32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc on 128-bit states held as (hi, lo) uint64 limbs."""
    hi = _mulhi(lo, _PCG_LO) + lo * _PCG_HI + hi * _PCG_LO
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg64_states(seed: int, idx: np.ndarray) -> tuple:
    """(hi, lo, inc_hi, inc_lo): the PCG64 state and increment, as uint64 limbs,
    that ``np.random.default_rng([seed, i])`` starts from for each i of ``idx``:
    SeedSequence's mixing and ``generate_state(4, uint64)``, PCG64's seeding."""
    if (seed := operator.index(seed)) < 0:
        raise ValueError("expected non-negative integer")
    idx = np.asarray(idx, dtype=np.uint64)
    entropy = [np.full(len(idx), (seed >> s) & 0xFFFFFFFF, dtype=np.uint64)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [idx & _M32, idx >> _S32]
    wide = idx > _M32  # only these indices have a high word, the last entropy word
    const = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal const
        v = v ^ np.uint64(const)
        const = (const * mult) & 0xFFFFFFFF
        v = (v * np.uint64(const)) & _M32
        return v ^ (v >> _S16)

    def mix(x, y):
        r = (np.uint64(0xCA01F9DD) * x - np.uint64(0x4973F715) * y) & _M32
        return r ^ (r >> _S16)

    # inside the 4-word pool a missing word hashes as a zero word does; past
    # it, the pool keeps its value where the word is missing
    pool = [hashmix(entropy[i] if i < len(entropy) else 0 * idx) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for j in range(4, len(entropy)):
        for dst in range(4):
            mixed = mix(pool[dst], hashmix(entropy[j]))
            pool[dst] = mixed if j + 1 < len(entropy) else np.where(wide, mixed, pool[dst])
    const = 0x8B51F9DD
    half = [hashmix(pool[j % 4], 0x58F38DED) for j in range(8)]
    s_hi, s_lo, i_hi, i_lo = (half[2 * j] | (half[2 * j + 1] << _S32) for j in range(4))
    inc_hi, inc_lo = (i_hi << _S1) | (i_lo >> _S63), (i_lo << _S1) | _S1
    lo = inc_lo + s_lo  # state 0, one step (to inc), plus the seed state
    return (*_pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


class _Streams:
    """Stream j draws what ``np.random.default_rng([seed, idx[j]])`` would: raw
    outputs ``block`` at a time, one more block when a cursor reaches the end,
    and PCG64's buffered 32-bit half.  A draw takes a boolean mask of the
    streams that draw and returns a uint64 for each stream, 0 off the mask."""

    def __init__(self, seed: int, idx, block: int = 8):
        self._state, self._block, n = _pcg64_states(seed, idx), block, len(idx)
        self._raw, self._half = np.empty((n, 0), np.uint64), np.zeros(n, np.uint64)
        self._at, self._has, self.all = np.zeros(n, np.intp), np.zeros(n, bool), np.ones(n, bool)

    def next64(self, mask: np.ndarray) -> np.ndarray:
        """The next raw output; the buffered half stays."""
        if self._at.max(initial=0) == self._raw.shape[1]:
            hi, lo, inc_hi, inc_lo = self._state
            out = np.empty((len(hi), self._block), dtype=np.uint64)
            for j in range(self._block):
                hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
                v, rot = hi ^ lo, hi >> _S58  # the XSL-RR output
                out[:, j] = (v >> rot) | (v << ((np.uint64(64) - rot) & _S63))
            self._state, self._raw = (hi, lo, inc_hi, inc_lo), np.hstack((self._raw, out))
        self._at += mask  # a stream off the mask reads a value it discards
        return np.where(mask, self._raw[np.arange(len(mask)), self._at - 1], np.uint64(0))

    def next32(self, mask: np.ndarray) -> np.ndarray:
        """The low half of a new output, or else the buffered high half."""
        new = self.next64(fresh := mask & ~self._has)
        out = np.where(self._has, self._half, new & _M32) * mask
        self._half, self._has = np.where(fresh, new >> _S32, self._half), self._has ^ mask
        return out

    def bounded(self, r, mask: np.ndarray) -> np.ndarray:
        """``integers(0, r + 1)`` by Lemire's rule, r < 2**64 - 1 per stream or shared:
        nothing drawn if r = 0, else ``next32`` if r < 2**32, else ``next64``, until accepted."""
        r = np.array(r, dtype=np.uint64, ndmin=1)  # an array: its arithmetic wraps silently
        wide, excl, out = r > _M32, r + _S1, np.zeros(len(mask), dtype=np.uint64)
        # a 32-bit draw x is read as x * 2**32, its leftover and threshold too
        cut = np.where(wide, (0 - excl) % excl, ((_M32 + _S1 - excl) % excl) << _S32)
        todo = mask & (r > 0)
        while todo.any():
            x = np.where(wide, self.next64(todo & wide), self.next32(todo & ~wide) << _S32)
            out = np.where(todo, _mulhi(x, excl) if wide.any() else (x >> _S32) * excl >> _S32, out)
            todo &= x * excl < cut
        return out

    def choice(self, n: int, k: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``choice(n, k[j], replace=False)`` on stream j, as rows padded with -1:
        Floyd's algorithm (v on [0, j] for j = n - k ... n - 1, v unless taken,
        else j), then a shuffle; for n > 10,000 and k > n // 50, the tail of
        a shuffled arange(n)."""
        k, rows = np.where(mask, k, 0).astype(np.int64), np.arange(len(mask))
        tail, width = (n > 10_000) & (k > n // 50), k.max(initial=0)
        perm = np.tile(np.arange(n if tail.any() else width), (len(mask), 1))
        taken = np.zeros((len(mask), n), dtype=bool)
        for s in range(width):
            on, j = ~tail & (k > s), n - k + s
            v = self.bounded(j, on).astype(np.int64)
            perm[on, s] = v = np.where(taken[rows, v], j, v)[on]
            taken[rows[on], v] = True
        # swap position i and a draw on [0, i], for i = top - 1 down to first
        top, first = np.where(tail, n, k), np.where(tail, np.maximum(n - k, 1), 1)
        for s in range((top - first).max(initial=0)):
            on = (i := top - 1 - s) >= first
            j = self.bounded(np.where(on, i, 0), on).astype(np.int64)
            r, i, j = rows[on], i[on], j[on]
            perm[r, i], perm[r, j] = perm[r, j], perm[r, i]
        at = np.minimum((top - k)[:, None] + np.arange(width), perm.shape[1] - 1)
        return np.where(np.arange(width) < k[:, None], perm[rows[:, None], at], -1)
