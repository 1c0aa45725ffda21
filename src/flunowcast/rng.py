"""Deterministic pseudo-random numbers with a fully specified algorithm.

Everything stochastic in this package (synthetic data, forest bootstrap,
MCMC draws) runs on the xorshift64* generator below rather than a library
RNG, so that a given seed reproduces the exact same stream on any platform
and in any reimplementation.

State update (64-bit unsigned arithmetic, wrapping):

    s ^= s >> 12
    s ^= s << 25
    s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) mod 2^64

Uniform doubles take the top 53 bits of the output: ``(output >> 11) * 2^-53``.
Seeds are expanded into a nonzero starting state with the splitmix64
finalizer, also given below.

``Xorshift64Star`` is the reference: one stream, one Python integer state.
``stream_states`` and ``next_u64s`` step many streams at once, with one numpy
``uint64`` array holding a state per stream and the same equations; ``uint64``
arithmetic wraps exactly as the masks above do. ``multiply_shift`` turns
outputs into ``randint`` draws. It forms the high word of the 64x64-bit
product from the 32-bit halves of each output, which is exact for bounds
below 2^32. Each stream's outputs and draws are bit for bit those of its
``Xorshift64Star``; the forest grows all of its trees on one such array.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_INV53 = 1.0 / (1 << 53)


def _splitmix64(z: int) -> int:
    """splitmix64 finalizer: z += 0x9E3779B97F4A7C15, then two xor-multiply mixes."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, index: int) -> int:
    """Deterministic child seed for stream ``index`` of a base seed.

    Defined as splitmix64 applied to ``base + (index + 1) * 0x9E3779B97F4A7C15``,
    so distinct indices yield statistically independent streams.
    """
    return _splitmix64((base + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64)


class Xorshift64Star:
    """xorshift64* stream seeded via splitmix64 (never a zero state)."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK64)
        if state == 0:
            state = 0x9E3779B97F4A7C15
        self._state = state

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * _MULT) & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV53

    def randoms(self, count: int) -> np.ndarray:
        """The next ``count`` uniform doubles, as ``count`` calls to
        ``random`` give them, in a float64 array.

        The state update is linear over GF(2), so the state k + 1 steps
        ahead is the XOR of the jump-table entries (see ``_jump_table``) of
        the current state's set bits. The states, the multiply and the
        top-53-bit scaling run on all ``count`` draws at once in ``uint64``.
        """
        s = self._state
        bits = [b for b in range(64) if s >> b & 1]
        states = np.bitwise_xor.reduce(_jump_table(count)[bits, :count], axis=0)
        if count:
            self._state = int(states[-1])
        states *= _U64_MULT
        return (states >> _U11) * _INV53

    def randint(self, n: int) -> int:
        """Integer in [0, n) by the multiply-shift reduction (n up to 2^53)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw by the Marsaglia polar method (second value discarded)."""
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                return mean + sd * u * math.sqrt(-2.0 * math.log(s) / s)

    def normals(self, count: int, mean: float = 0.0, sd: float = 1.0) -> list[float]:
        return [self.normal(mean, sd) for _ in range(count)]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """First k entries of a partial Fisher-Yates shuffle of range(n)."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


_U11, _U12, _U25, _U27, _U32 = (np.uint64(shift) for shift in (11, 12, 25, 27, 32))
_U64_MULT = np.uint64(_MULT)
_LOW32 = np.uint64(0xFFFFFFFF)
_BYTE = np.uint64(255)
_BASIS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # the 64 single-bit states


def stream_states(seeds) -> np.ndarray:
    """Starting states of ``Xorshift64Star(seed)`` for each seed, as one
    ``uint64`` array for ``next_u64s``."""
    return np.array([Xorshift64Star(seed)._state for seed in seeds], dtype=np.uint64)


def _walk(states: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` states of every stream, one row per stream;
    ``states`` steps in place."""
    walked = np.empty((states.size, count), dtype=np.uint64)
    for i in range(count):
        states ^= states >> _U12
        states ^= states << _U25
        states ^= states >> _U27
        walked[:, i] = states
    return walked


def next_u64s(states: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` outputs of every stream, one row per stream, as
    ``Xorshift64Star.next_u64`` gives them; ``states`` steps in place."""
    outputs = _walk(states, count)
    outputs *= _U64_MULT
    return outputs


def _apply(image: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map that takes the state with only bit b set to
    ``image[b]``, applied to each of ``states``: the XOR of the images of
    a state's set bits, looked up a byte at a time."""
    table = np.zeros((8, 256), dtype=np.uint64)  # [byte i, value]: its bits' images
    for bit in range(8):
        table[:, 1 << bit:2 << bit] = table[:, :1 << bit] ^ image[bit::8, None]
    out = table[0][states & _BYTE]
    for i in range(1, 8):
        out ^= table[i][(states >> np.uint64(8 * i)) & _BYTE]
    return out


def samples_without_replacement(states: np.ndarray, n: int, k: int, count: int) -> np.ndarray:
    """The next ``count`` results of ``Xorshift64Star.sample_without_replacement(n, k)``
    of every stream, in an array (stream, result, k) of the smallest
    unsigned dtype that holds n - 1; ``states`` steps in place.

    Result r of a stream takes that stream's outputs r k + 1 to (r + 1) k.
    The state update is linear over GF(2), so every result's starting state
    is found first: the map of k steps, and by squaring that of 2k, 4k, ...
    steps, each applied to all the starting states found so far, doubles
    them. Then all of them step together k times, and each step's outputs
    make one column swap of their partial Fisher-Yates shuffles.
    """
    dtype = np.min_scalar_type(max(n - 1, 0))
    if not k:
        return np.empty((states.size, count, 0), dtype)
    firsts = states[:, None]
    image = _walk(_BASIS.copy(), k)[:, -1]  # k steps on from each single-bit state
    while firsts.shape[1] < count:
        firsts = np.hstack([firsts, _apply(image, firsts)])
        image = _apply(image, image)
    firsts = np.ascontiguousarray(firsts[:, :count]).reshape(-1)
    pool = np.tile(np.arange(n, dtype=dtype), (firsts.size, 1))
    flat, row = pool.reshape(-1), np.arange(firsts.size) * n
    for i in range(k):
        j = multiply_shift(next_u64s(firsts, 1)[:, 0], n - i)
        j += row + i  # j's place in the flat pool
        held = pool[:, i].copy()
        pool[:, i] = flat[j]
        flat[j] = held
    states[:] = firsts[count - 1::count]  # k steps past the last result's start
    return pool[:, :k].reshape(states.size, count, k)


_jumps = _walk(_BASIS.copy(), 1)  # grown on demand


def _jump_table(count: int) -> np.ndarray:
    """Entry [b, k] is the state k + 1 steps after the state with only bit b
    set. The entries do not depend on ``count``: the one table grows to the
    longest count asked for, and a shorter count reads a prefix."""
    global _jumps
    if count > _jumps.shape[1]:
        _jumps = np.hstack([_jumps, _walk(_jumps[:, -1].copy(), count - _jumps.shape[1])])
    return _jumps


def multiply_shift(outputs: np.ndarray, n) -> np.ndarray:
    """``(output * n) >> 64`` for each output, as ``Xorshift64Star.randint``
    reduces one, for 0 < n < 2^32 (an int or an array broadcast against
    ``outputs``); returns an ``intp`` array."""
    bound = np.asarray(n)
    if bound.size and (bound.min() <= 0 or bound.max() >= 1 << 32):
        raise ValueError(f"need 0 < n < 2^32, got {n}")
    bound = bound.astype(np.uint64)
    # outputs = hi * 2^32 + lo; neither partial product nor their sum below
    # exceeds 2^64 - 1 while n < 2^32
    high = (outputs >> _U32) * bound + (((outputs & _LOW32) * bound) >> _U32)
    return (high >> _U32).astype(np.intp)

