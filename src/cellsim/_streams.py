"""Every episode's random streams, seeded in one array pass per block.

An episode seed derives numpy's ``SeedSequence(seed).spawn(3)`` children
(mobility, fading, policy) and the mobility child's ``spawn(n_ues)``
children, one per user.  ``stream_words`` runs numpy's seed hash over all
seeds of a block at once, and ``generator`` feeds one stream's words to
``PCG64``: each stream is ``default_rng`` of its child, state for state.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream_words", "generator"]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, unchanged since
# numpy 1.17): a 4-word uint32 pool, its hash constants and mixing multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d arrays: as operands they cost half what numpy scalars do.
_MIX_L, _MIX_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_SHIFT = np.array(16, np.uint32)
# The pass that mixes every pool word into every other: source word s is
# hashed into word d (d != s) by hashmix call _PAIR[s, d]; the diagonal is
# a placeholder whose result is discarded.
_PAIR = np.array([[0 if d == s else 4 + 3 * s + d - (d > s) for d in range(4)]
                  for s in range(4)])


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k = 0..n, as uint32; built once per
    argument triple, shared and read-only."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFF_FFFF)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False
    return out


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value, consts, n: int, k: int):
    """Hashmix calls n..n+k-1 of ``value`` (..., k) or broadcast against k."""
    value = (value ^ consts[n:n + k]) * consts[n + 1:n + k + 1]
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _SHIFT)


def stream_words(seeds, n_ues: int) -> np.ndarray:
    """PCG64 seed words of every episode's streams, (B, 2 + n_ues, 4) uint64:
    fading, policy, then users 0..n_ues-1.

    Entry [b, k] is ``SeedSequence(seeds[b], spawn_key=key).generate_state(4,
    np.uint64)`` with key (1,), (2,), then (0, j): the streams that
    ``SeedSequence(seed).spawn(3)`` and its first child's ``spawn(n_ues)``
    would seed.  The hash is numpy's own, run over every seed at once.  A seed
    becomes its little-endian uint32 words, zero-padded to the 4-word pool
    because a spawn key follows; words past the pool and the key words are
    mixed into the pool one by one.  The hash constants advance with every
    word, so seeds are hashed in groups of equal word count.
    """
    seeds = [operator.index(s) for s in seeds]
    counts = [max(4, -(-s.bit_length() // 32)) for s in seeds]
    out = np.empty((len(seeds), 2 + n_ues, 4), dtype=np.uint64)
    for n_words in set(counts):
        group = [b for b, c in enumerate(counts) if c == n_words]
        words = np.frombuffer(b"".join(seeds[b].to_bytes(4 * n_words, "little")
                                       for b in group), dtype="<u4")
        words = words.reshape(len(group), n_words)
        consts = _hash_constants(_INIT_A, _MULT_A, 4 * n_words + 8)
        pool = _hashmix(words[:, :4], consts, 0, 4)
        pair_xor, pair_mult = consts[_PAIR], consts[_PAIR + 1]
        for s in range(4):
            h = (pool[:, s, None] ^ pair_xor[s]) * pair_mult[s]
            own = pool[:, s].copy()
            pool = _mix(pool, h ^ (h >> _SHIFT))
            pool[:, s] = own
        # Each later word takes four hashmix calls: word c calls 4c..4c+3.
        for col in range(4, n_words):
            pool = _mix(pool, _hashmix(words[:, col, None], consts, 4 * col, 4))
        # Spawn keys (k,), then (0, j) from the pool of (0,).
        n = 4 * n_words
        children = _mix(pool[:, None], _hashmix(np.arange(3, dtype=np.uint32)[:, None],
                                                consts, n, 4))
        users = _mix(children[:, :1], _hashmix(np.arange(n_ues, dtype=np.uint32)[:, None],
                                               consts, n + 4, 4))
        pools = np.concatenate([children[:, 1:], users], axis=1)
        # generate_state: eight uint32 words cycling over the pool, read as
        # four little-endian uint64.
        state = np.concatenate([pools, pools], axis=-1) ^ _STATE_CONSTANTS[:8]
        state *= _STATE_CONSTANTS[1:]
        state ^= state >> _SHIFT
        out[group] = state.astype("<u4", copy=False).view("<u8")
    return out


class _SeedWords(ISeedSequence):
    """The four uint64 words a ``PCG64`` seeds from, precomputed by
    ``stream_words``; it generates nothing else."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream's seed holds only the 4 uint64 words of PCG64")
        return self.words


def generator(words) -> np.random.Generator:
    """The stream seeded by one row of ``stream_words``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
