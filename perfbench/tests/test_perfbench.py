"""Tests of the benchmark's own logic (run with ``pytest perfbench/tests``)."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import layers
import measure
import probe
import tracing
from randbatch import forces, integrators, runner
from workloads import CONFIG_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_normalise_rescales_to_reference_speed():
    assert probe.normalise(2.0, probe_s=0.02, probe_ref_s=0.01) == pytest.approx(1.0)
    assert probe.normalise(0.5, probe_s=0.01, probe_ref_s=0.01) == 0.5
    with pytest.raises(ValueError):
        probe.normalise(1.0, probe_s=0.0, probe_ref_s=0.01)


def test_pieces_are_normalised_by_the_mean_of_nearby_probes():
    ref = probe.PROBE_REF_S["interpreted"]
    s = measure.Samples(probe_kind="interpreted", probes=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                        pieces=[measure.Piece("step", 0, i, 1, 1.0, i) for i in range(6)])
    assert s.normalised() == pytest.approx([ref / 2.0, ref / 2.5, ref / 3.0, ref / 4.0,
                                            ref / 4.5, ref / 5.0])


def test_summarise_arithmetic_at_reference_speed():
    ref = probe.PROBE_REF_S["vector"]
    s = measure.Samples(probe_kind="vector", particles=10, episodes=2)

    def add(kind, episode, group, units, raw):
        s.probes.append(ref)
        s.pieces.append(measure.Piece(kind, episode, group, units, raw, len(s.probes) - 1))

    for e in range(2):
        add("setup", e, 0, 4, 0.4)           # 0.1 s per set-up
        add("setup", e, 1, 4, 0.8)           # 0.2 s per set-up
        add("step", e, 0, 2, 0.2 + 0.2 * e)  # 0.1 then 0.2 s per step
        add("step", e, 1, 1, 0.3)
        add("analysis", e, 0, 1, 0.5)        # two pieces of one repeat add up
        add("analysis", e, 0, 1, 0.25)
    add("step", 2, 0, 1, 99.0)               # an episode that never completed
    m = measure.summarise(s, rss_mb=12.0)
    assert m["setup_s"][0] == pytest.approx(0.15) and m["setup_s"][2] == pytest.approx(0.15)
    assert m["step_ms"][0] == pytest.approx(1e3 * 0.25)
    assert m["particle_steps_per_s"][0] == pytest.approx(10 * 6 / 1.2)
    assert m["analysis_s"][0] == pytest.approx(0.75)
    assert m["run_s"][0] == pytest.approx(0.15 + 0.6 + 0.75)
    assert m["peak_rss_mb"] == (12.0, "MB", 12.0)


@pytest.mark.parametrize("n, pct", [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0),
                                    (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                    (1000, 99.0), (10_000, 99.9)])
def test_tail_takes_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = np.arange(n, dtype=float)
    got_pct, value, count = probe.tail(samples)
    assert (got_pct, count) == (pct, n)
    assert value == pytest.approx(np.percentile(samples, pct))
    assert round(n * (100 - got_pct) / 100, 9) >= 10 or got_pct == 50.0


@pytest.mark.parametrize("kind", sorted(probe.PROBE_REF_S))
def test_probe_is_positive_and_short(kind):
    assert 0 < probe.probe(kind) < 1.0
    assert {w.probe_kind for w in WORKLOADS.values()} <= set(probe.PROBE_REF_S)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_validate(name):
    raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    cfg = runner.validate_dict(raw, name=name)
    assert cfg["name"] == name
    assert WORKLOADS[name].config(seed=5)["seed"] == 5


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_trace_wrappers_are_removed_after_the_pass():
    snapshot = layers._snapshot()
    original = forces.division_forces
    tracer = tracing.Tracer()
    layers._install_tracer(tracer)
    try:
        # the integrators module imported the name; it must see the wrapper too
        assert integrators.division_forces is forces.division_forces
        assert integrators.division_forces is not original
        wl = WORKLOADS["wealth-rbm"]
        ep = wl.setup(_small(wl.config(0), N=20, T=0.002))
        ep.step_fn(ep)
    finally:
        tracer.uninstall()
    assert layers._all_restored(snapshot)
    assert forces.division_forces is original and integrators.division_forces is original
    assert tracer.summary()["forces.division_forces"]["calls"] == 1


def test_self_times_add_up_to_the_enclosing_span():
    tracer = tracing.Tracer()
    leaf = tracer.span("leaf", lambda: sum(range(2000)))
    mid = tracer.span("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.span("top", lambda: (mid(), leaf(), sum(range(5000))))
    for _ in range(4):
        top()
    assert tracer.subtree_mismatch("top") < 1e-12
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 16 and summary["top"]["calls"] == 4
    assert summary["leaf"]["self"] == pytest.approx(summary["leaf"]["total"])
    assert tracer.count_within("top", "leaf") == 16
    assert summary["top"]["self"] < summary["top"]["total"]


def test_pair_oracle_counts_minimum_image_pairs():
    pos = np.array([[0.1, 0.0, 0.0], [9.95, 0.0, 0.0], [5.0, 5.0, 5.0]])
    assert layers.pairs_within(pos, 10.0, 0.5) == 1
    assert layers.batch_pairs(np.array([0, 0, 1, 1, 1])) == 1 + 3


# --- output checks ---------------------------------------------------------------


def _small(cfg, **model):
    cfg = copy.deepcopy(cfg)
    run_keys = {"T", "steps", "warmup", "record_every"}
    for key, value in model.items():
        (cfg["run"] if key in run_keys else cfg["model"])[key] = value
    return cfg


def _episode(name, cfg):
    wl = WORKLOADS[name]
    ep = wl.setup(cfg)
    while ep.k < ep.steps:
        ep.step_fn(ep)
    return wl, ep


def _failed(wl, ep, results=None):
    results = wl.analyse(ep) if results is None else results
    return {c.name for c in wl.checks(ep, results) if not c.ok}


def _with_state(ep, positions=None, velocities=None):
    ep = copy.copy(ep)
    ep.state = ep.state.replace(positions=positions, velocities=velocities)
    return ep


def test_wealth_checks_fail_on_corrupted_state():
    wl, ep = _episode("wealth-rbm", _small(WORKLOADS["wealth-rbm"].config(1), N=2000, T=0.01))
    pos = ep.state.positions

    nan = copy.copy(ep)
    nan.state = copy.copy(ep.state)
    nan.state.positions = pos.copy()
    nan.state.positions[3] = np.nan
    assert "wealth_positive_min" in _failed(wl, nan, {"w1": 0.0})

    negative = copy.copy(ep)
    negative.state = copy.copy(ep.state)
    negative.state.positions = pos.copy()
    negative.state.positions[0] = -0.1
    assert "wealth_positive_min" in _failed(wl, negative, {"w1": 0.0})

    shifted = _with_state(ep, positions=pos + 0.5)
    assert "mean_wealth_rel_drift" in _failed(wl, shifted)

    # same mean, wrong shape: every particle at the mean wealth
    flat = _with_state(ep, positions=np.full_like(pos, pos.mean()))
    assert _failed(wl, flat) == {"w1_equilibrium_excess"}


def test_electrolyte_checks_fail_on_corrupted_output():
    cfg = _small(WORKLOADS["electrolyte-rbe"].config(2), N=64, L=6.0, steps=12, warmup=2,
                 record_every=5)
    wl, ep = _episode("electrolyte-rbe", cfg)
    results = wl.analyse(ep)
    assert "momentum_at_roundoff" not in _failed(wl, ep, results)

    offset = dict(results, f_rbe=results["f_rbe"] + 1e-3)
    assert "momentum_at_roundoff" in _failed(wl, ep, offset)

    f_nan = results["f_exact"].copy()
    f_nan[5, 1] = np.nan
    assert "momentum_at_roundoff" in _failed(wl, ep, dict(results, f_exact=f_nan))

    # a NaN position makes the analysis itself raise, which the run counts as failed
    nan = copy.copy(ep)
    nan.extra = dict(ep.extra)
    bad_state = copy.copy(ep.extra["system"].state)
    bad_state.positions = bad_state.positions.copy()
    bad_state.positions[0, 0] = np.nan
    nan.extra["system"] = ep.extra["system"].replace_state(bad_state)
    with pytest.raises(ValueError):
        wl.analyse(nan)

    off_energy = copy.copy(ep)
    off_energy.extra = dict(ep.extra, rbe_u=[2.0 * u for u in ep.extra["rbe_u"]])
    assert "fourier_energy_rel_err" in _failed(wl, off_energy, results)

    hot = copy.copy(ep)
    hot.extra = dict(ep.extra, t_inst=ep.extra["t_inst"][:-1] + [math.nan])
    assert "mean_T_inst" in _failed(wl, hot, results)


def test_lj_checks_fail_on_corrupted_state():
    cfg = _small(WORKLOADS["lj-split"].config(3), N=64, steps=4)
    wl, ep = _episode("lj-split", cfg)
    for bad in ([math.nan] * 4, [3.0 * k for k in ep.extra["kinetic"]]):
        corrupt = copy.copy(ep)
        corrupt.extra = dict(ep.extra, kinetic=bad)
        assert "mean_temperature" in _failed(wl, corrupt)


def test_determinism_check_compares_final_state_bytes():
    wl = WORKLOADS["wealth-rbm"]
    cfg = _small(wl.config(4), N=500, T=0.005)
    tally, samples = measure.Tally(), measure.Samples()
    done = measure.run_episodes(wl, cfg, seconds=0.0, samples=samples, tally=tally)
    assert len(done) == 2
    assert not [f for f in tally.failures if "identical" in f]
    a, b = done[0].episode, done[1].episode
    assert a.final_bytes() == b.final_bytes()
    b.state = b.state.replace(positions=b.state.positions * (1 + 1e-15) + 1e-12)
    assert a.final_bytes() != b.final_bytes()


def test_failed_operation_is_counted_not_raised():
    wl = WORKLOADS["wealth-rbm"]
    cfg = _small(wl.config(0), N=200, T=0.002)
    cfg["run"]["p"] = 500  # larger than N: the first step raises
    tally = measure.Tally()
    assert measure.run_episode(wl, cfg, measure.Samples(), tally) is None
    assert tally.failed == 1 and tally.attempted == wl.setup_blocks + 1
