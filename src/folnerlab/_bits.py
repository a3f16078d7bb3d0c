"""64-bit primitives shared by the hashing and sampling layers.

The mixer is the published SplitMix64 finalizer.  The scalar and the numpy
paths must stay bit-identical; tests assert this on random inputs.  Its
first step p(x) = x ^ (x >> 30) (``premix_np``) is GF(2)-linear, so
mix64(k ^ c) is the finalizer's tail on p(k) ^ p(c): sampling keeps its
keys premixed and pays p once per key, not once per (key, configuration)
cell.
``pcg64_outputs`` computes the raw outputs of many
``np.random.default_rng([seed, i])`` generators at once, bit for bit; tests
compare it with numpy's own generators.
"""
from __future__ import annotations

import operator

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


def _tail_np(x: np.ndarray) -> np.ndarray:
    # the finalizer after its first step, in place in x, with one scratch array
    t = np.empty_like(x)
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
_PCG_LO0, _PCG_LO1 = _PCG_LO & _M32, _PCG_LO >> _S32


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc on 128-bit states held as (hi, lo) uint64 limbs;
    the high word of lo * MULT's low word is summed from 32-bit halves."""
    x0, x1 = lo & _M32, lo >> _S32
    p01, p10 = x0 * _PCG_LO1, x1 * _PCG_LO0
    mid = ((x0 * _PCG_LO0) >> _S32) + (p01 & _M32) + (p10 & _M32)
    hi = (x1 * _PCG_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
          + lo * _PCG_HI + hi * _PCG_LO)
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def pcg64_outputs(seed: int, idx: np.ndarray, k: int) -> np.ndarray:
    """The first k raw outputs of ``np.random.default_rng([seed, i])`` for each
    i of ``idx``, as a (len(idx), k) uint64 array: SeedSequence's entropy
    mixing and ``generate_state(4, uint64)``, PCG64's seeding, then k steps."""
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
    del entropy, pool, half  # a smaller peak while the states step
    inc_hi, inc_lo = (i_hi << _S1) | (i_lo >> _S63), (i_lo << _S1) | _S1
    lo = inc_lo + s_lo  # state 0, one step (to inc), plus the seed state
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(idx), k), dtype=np.uint64)
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        v, rot = hi ^ lo, hi >> _S58
        out[:, j] = (v >> rot) | (v << ((np.uint64(64) - rot) & _S63))
    return out
