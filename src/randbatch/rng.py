"""Reproducible random-number streams.

Batch divisions, Brownian increments (``noise``, Langevin thermostat noise
included), Andersen collisions (``thermostat``) and Monte Carlo proposals each
get their own substream so that they are mutually independent and results do
not depend on evaluation order.  A stream is addressed by
``(seed, stream_id)``; identical addresses produce bit-identical sequences.
"""

from dataclasses import dataclass

import numpy as np

# Fixed substream labels.  Replica r uses ``base + STRIDE * r``.
DIVISION = 0
NOISE = 1
THERMOSTAT = 2
PROPOSAL = 3
INIT = 4
STRIDE = 16


@dataclass(frozen=True)
class RngStream:
    """Address of one logical random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


class SimStreams:
    """The bundle of generators one simulation (or one replica) consumes."""

    def __init__(self, seed: int, replica: int = 0):
        self.seed = seed
        self.replica = replica
        base = STRIDE * replica
        self.division = RngStream(seed, base + DIVISION).generator()
        self.noise = RngStream(seed, base + NOISE).generator()
        self.thermostat = RngStream(seed, base + THERMOSTAT).generator()
        self.proposal = RngStream(seed, base + PROPOSAL).generator()
        self.init = RngStream(seed, base + INIT).generator()
