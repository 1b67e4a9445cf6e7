"""Weight initialization (Kaiming fan-in, matching torchvision defaults).

Draws are deferred (:class:`Draw`): a layer's weights are computed on
their first read, so a compile that reads only shapes allocates none.
"""

from __future__ import annotations

import math

import numpy as np

_INIT_RNG = np.random.default_rng(0)


def seed_init(seed: int) -> None:
    """Reset the initialization stream (deterministic model builds)."""
    global _INIT_RNG
    _INIT_RNG = np.random.default_rng(seed)


class Draw:
    """``uniform(-bound, bound, size=shape)`` at a fixed place in the init stream.

    Construction copies the stream's PCG64 state and advances the stream
    past ``prod(shape)`` outputs; calling replays the copy.
    ``Generator.uniform`` uses exactly one 64-bit output per double, so
    the values are byte-equal to an eager draw's, whatever order the
    draws are replayed in.
    """

    __slots__ = ("shape", "bound", "state")

    def __init__(self, shape, bound: float):
        self.shape = tuple(int(d) for d in shape) if np.iterable(shape) else (int(shape),)
        self.bound = bound
        bit_generator = _INIT_RNG.bit_generator
        self.state = bit_generator.state
        bit_generator.advance(math.prod(self.shape))

    def __call__(self) -> np.ndarray:
        bit_generator = np.random.PCG64()
        bit_generator.state = self.state
        return np.random.Generator(bit_generator).uniform(-self.bound, self.bound, size=self.shape)


def kaiming_uniform(shape, fan_in: int) -> Draw:
    return Draw(shape, np.sqrt(6.0 / fan_in))


def uniform_bias(shape, fan_in: int) -> Draw:
    return Draw(shape, 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0)
