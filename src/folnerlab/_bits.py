"""64-bit mixing primitives shared by the hashing and sampling layers.

The mixer is the published SplitMix64 finalizer.  The scalar and the numpy
paths must stay bit-identical; tests assert this on random inputs.
"""
from __future__ import annotations

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


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, computed in place in the uint64 array
    ``x`` (which is returned) with one scratch array of its shape."""
    t = np.empty_like(x)
    x ^= np.right_shift(x, _S30, out=t)
    x *= _A64
    x ^= np.right_shift(x, _S27, out=t)
    x *= _B64
    x ^= np.right_shift(x, _S31, out=t)
    return x


TWO_NEG_64 = 2.0 ** -64


def words_from_keys(keys: np.ndarray, cfg: np.ndarray) -> np.ndarray:
    """Hashed 64-bit words, one row per cfg word and one column per cell key;
    ``keys`` is one row shared by every cfg or one row per cfg.  Word w reads
    as the uniform w * 2**-64 (see ``uniform_from_key``)."""
    return mix64_np(keys ^ cfg[:, None])


def uniform_from_key(key: int, cfg: int) -> float:
    """The word of (key, cfg) as a float in [0, 1]: the words from
    2**64 - 1024 up round to 1.0."""
    return mix64(key ^ cfg) * TWO_NEG_64
