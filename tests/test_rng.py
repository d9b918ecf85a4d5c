"""Random-number streams: addresses, and generators built on first access."""

import itertools

import numpy as np
import pytest

from randbatch.rng import DIVISION, INIT, NOISE, PROPOSAL, STRIDE, THERMOSTAT, RngStream, SimStreams

STREAMS = {"division": DIVISION, "noise": NOISE, "thermostat": THERMOSTAT,
           "proposal": PROPOSAL, "init": INIT}


@pytest.mark.parametrize("replica", [0, 1])
def test_each_stream_draws_as_an_eagerly_built_one_in_any_access_order(replica):
    seed = 21
    eager = {name: RngStream(seed, STRIDE * replica + label).generator()
             for name, label in STREAMS.items()}
    want = {name: [gen.standard_normal(5), gen.integers(0, 10**9, 3)] for name, gen in eager.items()}
    for order in itertools.permutations(STREAMS):
        streams = SimStreams(seed, replica)
        assert not set(STREAMS) & set(vars(streams))  # no generator is built up front
        for k, name in enumerate(order):
            first = getattr(streams, name).standard_normal(5)
            # the generator is kept: a later access continues its stream
            second = getattr(streams, name).integers(0, 10**9, 3)
            assert np.array_equal(first.view(np.int64), want[name][0].view(np.int64))
            assert np.array_equal(second, want[name][1])
            assert set(vars(streams)) & set(STREAMS) == set(order[: k + 1])


def test_replicas_draw_from_distinct_streams_and_other_names_are_not_streams():
    draws = [SimStreams(21, r).noise.standard_normal(4) for r in (0, 1)]
    assert not np.array_equal(draws[0], draws[1])
    streams = SimStreams(21)
    with pytest.raises(AttributeError, match="thermostats"):
        streams.thermostats
    assert (streams.seed, streams.replica) == (21, 0)
