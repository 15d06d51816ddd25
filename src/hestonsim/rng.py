"""Reproducible random number streams for parallel Monte Carlo.

A stream is identified by a root seed and an index key.  Substreams obtained
with distinct keys are statistically independent, and the sequence produced by
a substream depends only on ``(root seed, key)`` -- never on thread scheduling
or the order in which sibling substreams are created.

Every stream is an SFC64 generator whose 256-bit state
:class:`numpy.random.SeedSequence` hashes from ``(root seed, key)``.  SFC64
makes the schemes' Poisson, gamma, normal and uniform draws cheaper than
Philox does.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, check_count


class RngStream:
    """A seed-derived random stream with cheap, independent substreams.

    Built on :class:`numpy.random.SFC64` seeded through
    :class:`numpy.random.SeedSequence` so that ``substream(i, j)`` is a pure
    function of ``(seed, parent key, i, j)``.

    Parameters
    ----------
    seed : int
        Root seed shared by the whole experiment, >= 0.
    key : tuple of int, optional
        Index of this stream in the substream tree, each element >= 0.  The
        root stream has an empty key; typical layouts use
        ``(experiment_id, batch_id)``.

    Raises ParameterError for a seed or key element that is not a
    nonnegative integer (numpy integers pass): a float or string is not
    truncated.
    """

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        check_count(ParameterError, "seed", seed, 0)
        for k in key:
            check_count(ParameterError, "substream key", k, 0)
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        """The stream's generator, built on first use: many streams only hand out substreams."""
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
            self._gen = np.random.Generator(np.random.SFC64(ss))
        return self._gen

    def substream(self, *key: int) -> "RngStream":
        """Return the independent stream indexed by ``self.key + key``."""
        return RngStream(self.seed, self.key + key)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"
