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
    """Vectorized SplitMix64 finalizer; input must be uint64."""
    x = x ^ (x >> _S30)
    x = x * _A64
    x = x ^ (x >> _S27)
    x = x * _B64
    return x ^ (x >> _S31)


TWO_NEG_64 = 2.0 ** -64


def uniforms_from_keys(keys: np.ndarray, cfg: np.ndarray) -> np.ndarray:
    """Uniform [0,1) matrix, one row per cfg word, one column per cell key;
    ``keys`` is one row shared by every cfg or one row per cfg."""
    u = mix64_np(keys ^ cfg[:, None])
    return u.astype(np.float64) * TWO_NEG_64


def uniform_from_key(key: int, cfg: int) -> float:
    return mix64(key ^ cfg) * TWO_NEG_64
