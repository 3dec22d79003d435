"""Seeded sample streams in plain Python ints.

``stream(seed, key).random()`` gives, bit for bit, the doubles of
``numpy.random.default_rng(numpy.random.SeedSequence(entropy=seed,
spawn_key=(key,))).random()``: numpy's ``SeedSequence`` hash mixing, the
``PCG64`` generator (XSL-RR output on a 128-bit LCG; O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905), and ``Generator.random``'s
top 53 bits of each 64-bit output. So sampled runs need no numpy, and
their reports match what numpy's streams gave them.

The streams of one run share their seed and differ in the spawn key
only, which numpy mixes in last; the seed's part of the mixing is done
once per seed (:func:`_seed_pool`).
"""

from __future__ import annotations

import functools
import operator

_M32 = 0xFFFF_FFFF
_M64 = 0xFFFF_FFFF_FFFF_FFFF
_M128 = (1 << 128) - 1

# numpy's SeedSequence constants (uint32 arithmetic throughout)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, as numpy reads an int seed."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> _XSHIFT)


class _Hash:
    """``SeedSequence``'s running ``hashmix``: its constant advances on
    every call, whatever the value."""

    __slots__ = ("const",)

    def __init__(self, const: int):
        self.const = const

    def __call__(self, value: int) -> int:
        value ^= self.const
        self.const = self.const * _MULT_A & _M32
        value = value * self.const & _M32
        return value ^ (value >> _XSHIFT)


def _mix_in(pool: list[int], hashmix: _Hash, words: list[int]) -> list[int]:
    """Mix each of ``words`` into every pool word, in order."""
    for w in words:
        pool = [_mix(p, hashmix(w)) for p in pool]
    return pool


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The entropy pool once ``seed``'s words are mixed in, and the hash
    constant the spawn key's words continue from.

    With a spawn key, numpy pads the seed's words to the pool size and
    mixes the spawn key's words in after every seed word.
    """
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _Hash(_INIT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    return tuple(_mix_in(pool, hashmix, words[_POOL_SIZE:])), hashmix.const


def _state_consts() -> tuple[tuple[int, int], ...]:
    """``generate_state``'s hash constant before and after each of its 8
    steps: a word is xored with the first and multiplied by the second."""
    consts, const = [], _INIT_B
    for _ in range(8):
        consts.append((const, const * _MULT_B & _M32))
        const = consts[-1][1]
    return tuple(consts)


_STATE_CONSTS = _state_consts()
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53


class Stream:
    """One PCG64 stream; :meth:`random` is ``Generator.random()``."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc

    def random(self) -> float:
        """The next double in [0, 1), from the top 53 bits of the next output."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _M64) >> 11) * _DOUBLE_UNIT


def stream(seed: int, key: int) -> Stream:
    """The stream numpy seeds with ``SeedSequence(entropy=seed,
    spawn_key=(key,))``; a negative seed or key is a ``ValueError``."""
    pool, const = _seed_pool(seed)
    pool = _mix_in(list(pool), _Hash(const), _words(key))
    # generate_state(4, uint64): 8 uint32 words hashed from the pool, read
    # as 4 little-endian uint64 words
    lanes = []
    for value, (xor, mul) in zip(pool * 2, _STATE_CONSTS):
        value = (value ^ xor) * mul & _M32
        lanes.append(value ^ value >> _XSHIFT)
    w0, w1, w2, w3 = (lo | hi << 32 for lo, hi in zip(lanes[::2], lanes[1::2]))
    # pcg64_set_seed (seed w0:w1, increment w2:w3, high:low), then PCG's
    # srandom: state 0, step, add the seed, step
    inc = (w2 << 64 | w3) << 1 & _M128 | 1
    return Stream(((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _M128, inc)
