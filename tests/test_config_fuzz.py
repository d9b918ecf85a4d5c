"""Configs drawn from the registry: ``validate`` refuses one, or it runs what it says.

Each drawn config sets a few fields of a model's schema in ``runner.MODELS``,
of its run section, schedule and thermostat, to an edge value; every other
field keeps its default.  A config that ``validate_dict`` accepts must
resolve to itself through its YAML echo, and run, cut to 3 loop steps (a
chain to 2000 moves), into a temporary directory.  It may fail only loudly:
with an ``IntegrationError`` at a step, or with ``run``'s refusal to write a
non-finite metric.  The second shows when a run blows up in its last step:
the electrolyte under Nose-Hoover at beta = 1e-12 moves its ions up to 1.6e17
in the third step, the wrap into the box puts 130 of the 300 on another ion,
and the momentum diagnostic then sums infinite forces.
"""

import copy
import math
import tempfile

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randbatch.integrators import IntegrationError
from randbatch.runner import (MODELS, _SCHEDULE_FIELDS, _THERMOSTAT_FIELDS, ConfigError,
                              _ConfigLoader, _n_steps, run, validate_dict)

EDGES = (0, 1, -1, 1e-12, 0.5, 1e6, 1e300, math.nan, True, None, "x", [1, 2])


def _some(fields):
    """Up to two of ``fields``, each set to an edge value."""
    if not fields:
        return st.just({})
    return st.dictionaries(st.sampled_from(sorted(fields)), st.sampled_from(EDGES), max_size=2)


@st.composite
def configs(draw):
    model_id = draw(st.sampled_from(sorted(MODELS)))
    spec = MODELS[model_id]
    raw = {"model": {"id": model_id, **draw(_some(spec.fields))}, "run": draw(_some(spec.run))}
    if "schedule" in spec.run and draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(_SCHEDULE_FIELDS)))
        raw["run"]["schedule"] = {"kind": kind, **draw(_some(_SCHEDULE_FIELDS[kind]))}
    if spec.thermostats and draw(st.booleans()):
        kind = draw(st.sampled_from(("none", *spec.thermostats)))
        raw["thermostat"] = {"kind": kind, **draw(_some(_THERMOSTAT_FIELDS[kind]))}
    # a direct step sums all N^2 pairs: at wealth's default N = 10^4 it takes 1.2 s, so
    # the fuzz leaves it to the tests of the direct step at small N
    methods = [m for m in spec.steppers if m != "direct" or spec.fields["N"] <= 1000]
    method = draw(st.sampled_from((None, *methods)))
    if method is not None:
        raw["method"] = method
    # the toy's convergence study is a fixed experiment of about 2 s that no run field
    # reaches, so it is left to its own tests
    diagnostics = [d for d in spec.diagnostics if d != "convergence"]
    raw["diagnostics"] = draw(st.lists(st.sampled_from(diagnostics), unique=True)
                              if diagnostics else st.just([]))
    return raw


def _cut(cfg: dict) -> dict:
    """``cfg`` run for at most 3 loop steps, or a chain for at most 2000 moves, with
    its warmup cut to fit."""
    run_ = dict(cfg["run"])
    if "sweeps" in run_:
        n = run_["sweeps"] = min(run_["sweeps"], 2000)
    else:
        n = run_["steps"] = min(_n_steps(run_), 3)
        run_.pop("T", None)
    if "warmup" in run_:
        run_["warmup"] = min(run_["warmup"], n - 1)
    return {**cfg, "run": run_}


@settings(max_examples=350, deadline=None, derandomize=True, database=None)
@example({"model": {"id": "wealth", "N": 40}, "run": {"T": 1.0e300, "dt": 1.0e-12}})
@example({"model": {"id": "lj-fluid", "N": 27},
          "run": {"schedule": {"kind": "log-decay"}, "steps": 20}})
@example({"model": {"id": "electrolyte"}, "thermostat": {"kind": "nose-hoover", "beta": 1e-12},
          "diagnostics": ["momentum"]})
@given(configs())
def test_a_config_validate_accepts_repeats_from_its_echo_and_runs(raw):
    try:
        cfg = validate_dict(copy.deepcopy(raw))
    except ConfigError:
        return
    echo = yaml.load(yaml.safe_dump(cfg, sort_keys=True), Loader=_ConfigLoader)
    assert validate_dict(echo) == cfg
    with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"):
        try:
            run(_cut(cfg), out)
        except IntegrationError:
            pass
        except ValueError as exc:  # a metric that a blow-up made non-finite, refused by name
            if not str(exc).startswith("metrics.json: non-finite value at "):
                raise
