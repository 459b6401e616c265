"""Deterministic random-stream management.

Every stochastic draw in the simulator comes from a substream derived from
(master seed, realization index, link tag).  Substreams are independent of
each other and of evaluation order, so campaigns parallelize without
changing results.

A substream is numpy's `PCG64` seeded by `SeedSequence(master_seed,
spawn_key=(tag, realization, *extra))`.  `block_rngs` returns the
substreams of a range of realizations bit for bit: it evaluates the
`SeedSequence` hash (which numpy documents as stable) for the whole range
at once, reusing the part that only depends on the seed and tag, and
seeds each `PCG64` with the resulting words.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

import numpy as np


class LinkTag(IntEnum):
    """Identifies which part of a realization a substream feeds."""

    TX_RIS = 0   # transmitter -> surface link
    RIS_RX = 1   # surface -> receiver link
    DIRECT = 2   # transmitter -> receiver link
    RX_FRAME = 3  # receiver orientation draw
    PHASES = 4   # random phase baselines / idle surfaces


def spawn_rng(master_seed: int, realization: int, link_tag: LinkTag | int,
              *extra: int) -> np.random.Generator:
    """Return the deterministic generator for one (realization, link) unit.

    Identical arguments always produce an identical draw sequence; any
    change to the realization index, tag, or extra keys (e.g. the RIS
    index in multi-surface scenes) yields an independent stream.
    """
    key = (int(link_tag), int(realization)) + tuple(int(x) for x in extra)
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(seq)


# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, mixed with these constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """`value` as SeedSequence reads an integer: 32-bit words, least significant first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed keys must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _constants(start: int, mult: int, count: int) -> np.ndarray:
    """`start` and the `count` hash constants that follow it, as a (count + 1, 1) array."""
    out = [start]
    for _ in range(count):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# generate_state(4, np.uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3
# into eight 32-bit words, paired little-endian into four 64-bit ones.
_STATE_SOURCE = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
_STATE_CONSTANTS = _constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _pcg64_seed_words(prefix: np.random.SeedSequence, tail: list) -> np.ndarray:
    """The words `SeedSequence.generate_state(4, np.uint64)` returns, per stream.

    The entropy is that of `prefix` (shared by every stream) followed by
    `tail`, whose entries are ints or uint32 arrays with one word per
    stream.  numpy hashes the prefix once; from the first tail word on, each
    word is mixed into all four pool words of every stream at once.
    Returns a (streams, 4) uint64 array.
    """
    # mixing n entropy words into the pool takes 4 n hash-constant steps
    # (SeedSequence pads the seed's words to the pool size ahead of a spawn key)
    words = (max(_POOL_SIZE, len(_uint32_words(prefix.entropy)))
             + sum(len(_uint32_words(key)) for key in prefix.spawn_key))
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 2**32) & _MASK32
    pool = prefix.pool[:, None]
    for word in tail:
        consts = _constants(hash_const, _MULT_A, _POOL_SIZE)
        hash_const = int(consts[-1, 0])
        hashed = (word ^ consts[:-1]) * consts[1:]
        hashed ^= hashed >> 16
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        pool ^= pool >> 16
    state = (pool[_STATE_SOURCE] ^ _STATE_CONSTANTS[:-1]) * _STATE_CONSTANTS[1:]
    state ^= state >> 16
    state = state.astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T.copy()


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """A seed-sequence type that hands `PCG64` state words computed ahead.

    Made on first use: numpy loads `numpy.random` lazily, and importing
    rislink should not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):   # what PCG64 asks for
                raise ValueError(f"precomputed seed words cannot serve {n_words} x {dtype}")
            return self.words

    return SeedWords


def block_rngs(master_seed: int, realizations: range, link_tag: LinkTag | int,
               *extra: int) -> list[np.random.Generator]:
    """`spawn_rng(master_seed, r, link_tag, *extra)` for each r in `realizations`.

    Each generator draws exactly the sequence `spawn_rng` would give and is
    independent of the others.  Realization indices must lie in
    [0, 2**32): one 32-bit word each, as the vectorised hash assumes.
    """
    if len(realizations) and (min(realizations) < 0 or max(realizations) > _MASK32):
        raise ValueError(f"block seeding covers realization indices 0 .. 2**32 - 1, "
                         f"got {realizations}")
    prefix = np.random.SeedSequence(int(master_seed), spawn_key=(int(link_tag),))
    tail = [np.array(realizations, dtype=np.uint32)] + [
        w for x in extra for w in _uint32_words(x)]
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(words)))
            for words in _pcg64_seed_words(prefix, tail)]
