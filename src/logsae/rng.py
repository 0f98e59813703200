"""Keyed random streams.

Every stochastic routine draws from a counter-based generator keyed by
``(seed, purpose, replicate)``.  Streams are therefore independent of
worker count, execution order, and of each other across purposes, and any
replicate's draws can be regenerated in isolation.

``stream`` is the reference: a ``Philox`` generator seeded by numpy's
``SeedSequence`` of the key.  ``standard_normals`` is the batch form of
``stream(seed, purpose, r).standard_normal(shape)`` over many replicates,
with the same bits: it computes every replicate's Philox key at once with
a vectorised copy of ``SeedSequence``'s mixing, and draws each replicate
from one reused generator whose state it resets to that key.
"""

from __future__ import annotations

import operator

import numpy as np

# purpose keys; never reuse a value
GENERATE = 1
BOOTSTRAP = 2
DERIVE = 3

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)


def stream(seed: int, purpose: int, replicate: int) -> np.random.Generator:
    """Generator for one (seed, purpose, replicate) key."""
    entropy = (check_seed(seed), purpose, replicate)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, replicate: int) -> int:
    """A stable sub-seed, for handing to a nested seeded routine."""
    entropy = (check_seed(seed), DERIVE, replicate)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits an integer into;
    0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _chain(init: int, mult: int):
    """The hash constant before and after each multiplication.  The chain
    does not depend on the data, so it runs on Python ints."""
    while True:
        after = init * mult & _MASK32
        yield np.uint32(init), np.uint32(after)
        init = after


def _philox_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(2, np.uint64)`` for a batch of
    entropy word lists; ``entropy[j]`` holds word j of every list."""
    consts = _chain(_INIT_A, _MULT_A)

    def hashmix(value):
        before, after = next(consts)
        value = (value ^ before) * after
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(entropy[-1])
    padded = entropy + [zero] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): one word from each pool word, read as
    # little-endian pairs
    state = np.empty((len(zero), _POOL_SIZE), dtype=np.uint32)
    for i, (before, after) in zip(range(_POOL_SIZE), _chain(_INIT_B, _MULT_B)):
        value = (pool[i] ^ before) * after
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def standard_normals(seed: int, purpose: int, replicates, shape) -> np.ndarray:
    """Standard normals of shape ``(len(replicates), *shape)``; row i holds
    ``stream(seed, purpose, replicates[i]).standard_normal(shape)``, bit for
    bit.  Replicates are integers in [0, 2**64)."""
    prefix = _words(check_seed(seed)) + _words(purpose)
    try:
        reps = np.array([operator.index(r) for r in replicates], dtype=np.uint64)
    except (TypeError, OverflowError):
        raise ValueError("replicates must be integers in [0, 2**64)") from None
    out = np.empty((len(reps), *shape))
    keys = np.empty((len(reps), 2), dtype=np.uint64)
    high = (reps >> np.uint64(32)).astype(np.uint32)
    low = (reps & np.uint64(_MASK32)).astype(np.uint32)
    # a replicate below 2**32 is one entropy word, any other is two
    for rows, rep_words in (
        (high == 0, [low]),
        (high != 0, [low, high]),
    ):
        if rows.any():
            words = [np.full(np.count_nonzero(rows), w, np.uint32) for w in prefix]
            keys[rows] = _philox_keys(words + [w[rows] for w in rep_words])
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    zeros = np.zeros(4, dtype=np.uint64)
    for i, key in enumerate(keys):
        # the state of a fresh Philox seeded with this key
        bit_gen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=out[i])
    return out
