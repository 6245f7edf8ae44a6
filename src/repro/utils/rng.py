"""Reproducible random-number streams.

The Monte-Carlo simulation study of the paper averages 10 000 independent
random grid instances.  To make every figure regenerable bit-for-bit we wrap
:class:`numpy.random.Generator` in a tiny :class:`RandomStream` facade that

* always derives from an explicit integer seed,
* can *spawn* independent child streams (one per iteration, per cluster-count,
  per benchmark) without correlations, and
* exposes only the handful of draw primitives the library needs, which keeps
  the experiment code easy to audit.

:func:`open_generators` opens many such streams at once: a batch of noisy
simulator runs seeds one stream per task, and building each one through
:class:`numpy.random.SeedSequence` costs more than the draws it feeds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

DEFAULT_SEED = 20060331
"""Default seed: the HAL submission date of the paper (2006-03-31)."""


@dataclass
class RandomStream:
    """A seeded random stream with independent spawnable children.

    Parameters
    ----------
    seed:
        Integer seed.  Two streams built from the same seed produce identical
        draw sequences.
    """

    seed: int = DEFAULT_SEED
    _generator: np.random.Generator = field(init=False, repr=False)
    _spawn_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        self._generator = np.random.default_rng(np.random.SeedSequence(self.seed))

    # -- draw primitives ---------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Draw a single float uniformly from ``[low, high)``."""
        if high < low:
            raise ValueError(f"uniform bounds out of order: low={low}, high={high}")
        return float(self._generator.uniform(low, high))

    def uniform_array(self, low: float, high: float, size: int | tuple[int, ...]) -> np.ndarray:
        """Draw an array of floats uniformly from ``[low, high)``."""
        if high < low:
            raise ValueError(f"uniform bounds out of order: low={low}, high={high}")
        return self._generator.uniform(low, high, size=size)

    def integers(self, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high)``."""
        return int(self._generator.integers(low, high))

    def choice(self, options: Sequence) -> object:
        """Pick one element of ``options`` uniformly at random."""
        if len(options) == 0:
            raise ValueError("cannot choose from an empty sequence")
        index = int(self._generator.integers(0, len(options)))
        return options[index]

    def shuffle(self, items: list) -> list:
        """Return a new list with ``items`` in a random order."""
        permutation = self._generator.permutation(len(items))
        return [items[int(i)] for i in permutation]

    def lognormal(self, mean: float, sigma: float) -> float:
        """Draw a log-normally distributed float (used for jitter models)."""
        check_positive(sigma, "sigma")
        return float(self._generator.lognormal(mean, sigma))

    def lognormal_array(self, mean: float, sigma: float, count: int) -> np.ndarray:
        """Draw ``count`` log-normal floats in one call.

        The array is filled element by element from the same underlying
        stream, so ``lognormal_array(m, s, n)[i]`` equals the value the
        ``i``-th sequential :meth:`lognormal` call would have produced — the
        batched simulator relies on this to stay bit-identical to the scalar
        one.
        """
        check_positive(sigma, "sigma")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._generator.lognormal(mean, sigma, size=count)

    def normal(self, loc: float, scale: float) -> float:
        """Draw a normally distributed float."""
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        return float(self._generator.normal(loc, scale))

    # -- stream management ---------------------------------------------------

    def spawn(self) -> "RandomStream":
        """Create an independent child stream.

        Children are derived deterministically from the parent seed and the
        number of children already spawned, so a fixed program always receives
        the same family of streams.
        """
        return RandomStream(seed=self.spawn_seed())

    def spawn_seed(self) -> int:
        """The seed of the next child stream, without building the stream.

        Consumes a spawn slot exactly like :meth:`spawn` (so mixing the two
        is safe).  Useful when child streams must be materialised elsewhere —
        e.g. shipping plain integer seeds to multiprocessing workers instead
        of generator objects.
        """
        self._spawn_count += 1
        return self._mix(self.seed, self._spawn_count)

    @staticmethod
    def _mix(seed: int, index: int) -> int:
        """Deterministically combine a seed and a child index (SplitMix-like)."""
        value = (seed * 6364136223846793005 + index * 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 33
        value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 33
        return int(value)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator` (read-only access)."""
        return self._generator

    @property
    def state(self) -> dict:
        """The bit-generator state, for save/restore around probe draws."""
        return self._generator.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self._generator.bit_generator.state = value


def derive_seed(seed: int, *labels: object) -> int:
    """A deterministic child seed keyed by stable labels.

    Uses the same SplitMix-style mixing as :meth:`RandomStream.spawn_seed`,
    but keyed by a CRC of the given labels instead of a spawn counter, so the
    derived seed depends only on ``(seed, labels)`` — not on how many other
    seeds were derived first.  This is how the practical study assigns each
    (curve label, message size) measurement its own noise stream: reordering
    the heuristics tuple, shuffling execution order or fanning out over
    workers cannot change any individual measurement.
    """
    digest = zlib.crc32("|".join(str(label) for label in labels).encode())
    return RandomStream._mix(seed, digest)


def spawn_streams(seed: int, count: int) -> list[RandomStream]:
    """Create ``count`` independent streams derived from ``seed``.

    This is the canonical way the experiment harness assigns one stream per
    Monte-Carlo iteration so that iterations can be reordered or parallelised
    without changing the results.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = RandomStream(seed=seed)
    return [parent.spawn() for _ in range(count)]


# -- bulk stream opening ---------------------------------------------------------
#
# ``SeedSequence(seed)`` hashes the seed's 32-bit words into a four-word pool
# and stretches the pool into the PCG64 seed words; NEP 19 keeps both steps
# stable.  The constants below are those of ``numpy/random/bit_generator.pyx``.

_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_SEED_LIMIT = 1 << 64


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``(xor, multiplier)`` pair of each of ``count`` successive hashes.

    A ``(2, count, 1)`` uint32 array, so one :func:`_hashmix` call applies
    ``count`` hashes to a row of seeds at once.
    """
    constants = []
    for _ in range(count):
        following = (init * mult) & _MASK32
        constants.append((init, following))
        init = following
    return np.array(constants, dtype=np.uint32).T[:, :, None].copy()


#: Four pool fills, then each pool word mixed into the other three, in turn.
_FILL_HASHES, *_CROSS_HASHES = np.split(
    _hash_constants(0x43B0D7E5, 0x931E8875, 16), [4, 7, 10, 13], axis=1
)
#: The pool rows each pool word is mixed into.
_CROSS_TARGETS = [
    [target for target in range(4) if target != source] for source in range(4)
]
#: Eight 32-bit output words, hashed from pool words 0-3, 0-3: four uint64
#: PCG64 seed words.
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    value = (value ^ constants[0]) * constants[1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` is a uint64 array; the result has one row of four uint64 words
    per seed.  A seed's entropy is its little-endian 32-bit words, hashed into
    a four-word pool that a short entropy pads with hashed zeros — so a seed
    under 2**32 pools exactly like its two-word form ``[low, 0]``, and every
    seed below 2**64 runs the same uint32 pass.  The pool is a ``(4, K)``
    array: each source word is hashed three ways and mixed into its three
    targets in one step, and the eight state words are hashed in one call.
    """
    words = np.zeros((4, seeds.size), dtype=np.uint32)
    words[0] = seeds & _MASK32
    words[1] = seeds >> 32
    pool = _hashmix(words, _FILL_HASHES)
    for source, targets in enumerate(_CROSS_TARGETS):
        hashed = _hashmix(pool[source], _CROSS_HASHES[source])
        pool[targets] = _mix(pool[targets], hashed)
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_HASHES)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands a bit generator the seed words :func:`_seed_words` computed."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype: DTypeLike = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words only seed PCG64's state")
        return self._words


def open_generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """One generator per seed, each drawing exactly like ``RandomStream(seed)``.

    Every plain ``int`` seed in ``[0, 2**64)`` is hashed in one vectorised
    pass (:func:`_seed_words`) instead of one ``SeedSequence`` per seed; any
    other seed opens through :class:`RandomStream`, so its draws — or the
    exception it raises — are unchanged.
    """
    bulk = [type(seed) is int and 0 <= seed < _SEED_LIMIT for seed in seeds]
    words = iter(
        _seed_words(
            np.array([seed for seed, fast in zip(seeds, bulk) if fast], dtype=np.uint64)
        )
    )
    # numpy's stubs type the seed as a SeedSequence; any ISeedSequence seeds
    # the bit generator at run time.
    return [
        np.random.default_rng(_SeedWords(next(words)))  # type: ignore[arg-type]
        if fast
        else RandomStream(seed=seed).generator
        for seed, fast in zip(seeds, bulk)
    ]
