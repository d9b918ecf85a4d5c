"""The registry-driven experiment loop: schema strictness, range checks, determinism."""

import copy
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from randbatch import __version__
from randbatch.cli import main
from randbatch.integrators import IntegrationError
from randbatch.rng import SimStreams
from randbatch.runner import (
    MODEL_METHODS,
    MODELS,
    ConfigError,
    _run_replica,
    _schedule,
    _take_step,
    run,
    validate,
    validate_dict,
)

# One tiny config per model.  The toy's convergence study is a fixed
# experiment of its own that no run field reaches, and it is slow, so the toy
# runs without it; every other model keeps its default diagnostics.
TINY = {
    "toy": {"model": {"id": "toy", "N": 6}, "diagnostics": []},
    "wealth": {"model": {"id": "wealth", "N": 40}, "run": {"T": 0.01}},
    "cucker-smale": {"model": {"id": "cucker-smale", "N": 8}, "run": {"steps": 10}},
    "consensus": {"model": {"id": "consensus", "N": 8}, "run": {"steps": 10}},
    "lj-fluid": {"model": {"id": "lj-fluid", "N": 27}, "run": {"steps": 8}},
    "electrolyte": {"model": {"id": "electrolyte", "N": 20, "L": 8.0},
                    "run": {"p": 10, "steps": 20, "warmup": 2}},
    "dyson": {"model": {"id": "dyson", "N": 20}, "run": {"sweeps": 400}},
    "gaussian": {"model": {"id": "gaussian", "N": 8}, "run": {"steps": 10}},
}
KINDS = ("none", "andersen", "langevin", "nose-hoover")
# collisions at the default rate nu = 1 are too rare to show in a tiny run
THERMOSTAT_PARAMS = {"andersen": {"nu": 50.0}}


def _tiny(model, method=None, kind="none", **run_fields):
    raw = copy.deepcopy(TINY[model])
    raw.update(name=model, seed=5)
    if method is not None:
        raw["method"] = method
    if kind != "none":
        raw["thermostat"] = {"kind": kind, **THERMOSTAT_PARAMS.get(kind, {})}
    raw.setdefault("run", {}).update(run_fields)
    return raw


def _tiny_model(model, **fields):
    raw = _tiny(model)
    raw["model"].update(fields)
    return raw


def _outputs(outdir):
    """The files a run's results live in: metrics.json and every CSV."""
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir())
            if f.name == "metrics.json" or f.suffix == ".csv"}


def _non_default(field, run):
    """A valid value other than the resolved default, or a filler where the
    model has no such field (the config must then be rejected)."""
    if field == "p":
        return 4
    if field == "dt":
        return run["dt"] / 2 if run.get("dt") else 1e-3
    if field == "schedule":
        return {"kind": "log-decay", "c": 2e-3}
    if field == "T":
        return 0.1 if run.get("T") is None else 2 * run["T"]
    if field == "replicas":
        return 2
    if field == "trajectory_every":
        return 5
    default = {"steps": 5, "sweeps": 100, "warmup": 1, "record_every": 2}[field]
    return run[field] + 1 if run.get(field) is not None else default


_RUN_FIELDS = ("p", "dt", "schedule", "T", "steps", "sweeps", "warmup", "replicas",
               "record_every")
# every (model, method, kind, field) but the default config itself (no field, kind none)
_CASES = [(model, method, kind, field)
          for model, methods in MODEL_METHODS.items() for method in methods
          for kind in KINDS for field in (None, *_RUN_FIELDS, "trajectory_every")
          if field is not None or kind != "none"]


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Outputs of each (model, method, kind) tiny config, run once; None if invalid."""
    cache = {}
    root = tmp_path_factory.mktemp("baselines")

    def get(model, method, kind):
        key = (model, method, kind)
        if key not in cache:
            try:
                cfg = validate_dict(_tiny(model, method, kind))
            except ConfigError:
                cache[key] = None
            else:
                cache[key] = _outputs(run(cfg, out_root=root / "-".join(key)))
        return cache[key]

    return get


@pytest.mark.parametrize("model, method, kind, field", _CASES)
def test_every_accepted_field_changes_the_output(model, method, kind, field, baselines,
                                                 tmp_path):
    """A thermostat kind or a non-default run/output field is either rejected
    or changes metrics.json or a CSV.  ``output.directory`` is left out: it
    moves the files rather than changing them."""
    if field is None:
        raw, reference = _tiny(model, method, kind), baselines(model, method, "none")
    else:
        raw, reference = _tiny(model, method, kind), baselines(model, method, kind)
        resolved = validate_dict(_tiny(model, method)) if reference is not None else None
        value = _non_default(field, resolved["run"] if resolved else {})
        if field == "trajectory_every":
            raw["output"] = {field: value}
        else:
            raw["run"][field] = value
    try:
        cfg = validate_dict(raw)
    except ConfigError:
        return
    assert reference is not None, "a variant of a rejected config was accepted"
    assert _outputs(run(cfg, out_root=tmp_path)) != reference


@pytest.mark.parametrize("raw, message", [
    (_tiny("electrolyte", record_every=0), "run.record_every: must be an integer >= 1"),
    (_tiny("wealth", replicas=0), "run.replicas: must be an integer >= 1"),
    (_tiny("electrolyte", steps=-3), "run.steps: must be an integer >= 1"),
    (_tiny("dyson", sweeps=0), "run.sweeps: must be an integer >= 1"),
    (_tiny("electrolyte", warmup=20), "run.warmup: must be below run.steps"),
    (_tiny("dyson", warmup=400), "run.warmup: must be below run.sweeps"),
    (_tiny("electrolyte", warmup=-1), "run.warmup: must be an integer >= 0"),
    (_tiny("wealth", T=-1), "run.T: must be positive"),
    (_tiny("wealth", T=1e-4), "run.T: must span at least one step of run.dt"),
    (_tiny("toy", T=0.5, steps=10), "run.T: set run.steps or run.T, not both"),
    (_tiny("toy", dt=0.0), "run.dt: must be positive"),
    (_tiny("lj-fluid", schedule={"kind": "constant"}), "run.schedule.kind: must be one of"),
    (_tiny("lj-fluid", schedule={"kind": "inverse", "k0": 0}),
     "run.schedule.k0: must be positive"),
    (_tiny("lj-fluid", dt=1e-3, schedule={"kind": "inverse"}),
     "run.dt: not used when run.schedule is set"),
    (_tiny("wealth", steps=10), "run.steps: not used by model 'wealth'"),
    (_tiny("lj-fluid", record_every=2), "run.record_every: not used by model 'lj-fluid'"),
    (_tiny("toy", method="direct", p=4), "method 'direct' sums over all N particles"),
    (_tiny("dyson", p=2), "run.p: not used by model 'dyson'"),
    (_tiny("toy", kind="langevin"), "thermostat: model 'toy' takes no thermostat"),
    ({**_tiny("lj-fluid"), "thermostat": {"kind": "andersen", "gamma": 2.0}},
     "thermostat.gamma: not used by thermostat kind 'andersen'"),
    ({**_tiny("wealth"), "output": {"trajectory_every": 5}},
     "output.trajectory_every: not used by model 'wealth'"),
    ({**_tiny("electrolyte"), "output": {"trajectory_every": -1}},
     "output.trajectory_every: must be an integer >= 0"),
    ({**_tiny("toy"), "run": [1, 2]}, "run: expected a mapping"),
    ({**_tiny("lj-fluid"), "thermostat": {"kind": "andersen", "nu": -1}},
     "thermostat: need nu >= 0 and temperature > 0"),
    ({**_tiny("lj-fluid"), "thermostat": {"kind": "langevin", "gamma": 0.0}},
     "thermostat: need gamma > 0 and beta > 0"),
    ({**_tiny("electrolyte"), "thermostat": {"kind": "nose-hoover", "Q": "big"}},
     "thermostat: '<=' not supported"),
    ({**_tiny("electrolyte", record_every=2), "diagnostics": ["momentum"]},
     "run.record_every: not used by model 'electrolyte' without a diagnostic"),
    ({**_tiny("lj-fluid"), "diagnostics": []},
     "diagnostics: model 'lj-fluid' writes no results without 'temperature'"),
    # model fields that would fail mid-run, or run wrong, if accepted
    (_tiny_model("electrolyte", lj_sigma=0), "model.lj_sigma: must be positive"),
    (_tiny_model("electrolyte", lj_sigma=-0.2), "model.lj_sigma: must be positive"),
    (_tiny_model("electrolyte", temperature=-1), "model.temperature: must be positive"),
    (_tiny_model("electrolyte", alpha=-1), "model.alpha: must be positive"),
    (_tiny_model("electrolyte", r_c=0), "model.r_c: must be positive"),
    (_tiny_model("electrolyte", L=-10), "model.L: must be positive"),
    (_tiny_model("electrolyte", lj_sigma=0.9, L=4),
     "model: the LJ cutoff 2.5 lj_sigma must be below L/2"),
    (_tiny_model("lj-fluid", N=64, split_radius=3.5),
     "model: split_radius must be below L/2 = 2.9876, L = (N / density)^(1/3)"),
    (_tiny_model("lj-fluid", density=-0.3), "model.density: must be positive"),
    (_tiny_model("lj-fluid", beta=0), "model.beta: must be positive"),
    (_tiny_model("lj-fluid", beta=-0.5), "model.beta: must be positive"),
    (_tiny_model("lj-fluid", sigma=-1), "model.sigma: must be positive"),
    (_tiny_model("lj-fluid", epsilon=-1), "model.epsilon: must be positive"),
    (_tiny_model("dyson", split_radius="wide"), "model.split_radius: must be positive"),
    (_tiny_model("consensus", kappa=-1), "model.kappa: must be positive"),
    (_tiny_model("consensus", dim=0), "model.dim: must be an integer >= 1"),
    (_tiny_model("cucker-smale", kappa=-1), "model: kappa must be nonnegative"),
    (_tiny_model("cucker-smale", beta=1.5), "model: beta must lie in [0, 1)"),
    (_tiny_model("wealth", D=-1), "model.D: must be positive"),
    (_tiny_model("wealth", kappa=0), "model.kappa: must be positive"),
    (_tiny_model("toy", sigma=-1), "model: sigma must be nonnegative"),
    (_tiny_model("gaussian", bandwidth="wide"), "model: bandwidth must be 'median' or a positive"),
    (_tiny_model("gaussian", bandwidth=-1.0), "model: bandwidth must be 'median' or a positive"),
    (_tiny_model("gaussian", dim=0), "model.dim: must be an integer >= 1"),
    (_tiny_model("gaussian", init_std="wide"), "model.init_std: must be positive"),
    (_tiny_model("gaussian", init_std=0.0), "model.init_std: must be positive"),
    (_tiny_model("gaussian", init_mean=None), "model.init_mean: must be a finite number"),
    (_tiny_model("gaussian", init_mean="far"), "model.init_mean: must be a finite number"),
    (_tiny_model("dyson", m="x"), "model: m must be an integer >= 1"),
    (_tiny_model("dyson", m=0), "model: m must be an integer >= 1"),
    ({**_tiny_model("toy", N=2), "diagnostics": ["convergence"]},
     "model.N: the 'convergence' diagnostic needs N >= 4; at N = 2"),
    ({**_tiny_model("toy", N=3), "diagnostics": ["convergence"]},
     "model.N: the 'convergence' diagnostic needs N >= 4; at N = 3"),
    (_tiny_model("electrolyte", alpha=0.001),
     "model: alpha L^2 = 0.064 leaves P(m != 0) = 0.0e+00: too little frequency mass"),
    (_tiny_model("electrolyte", L=1e300), "model: "),  # L^3 overflows
    ({**_tiny("toy"), "seed": -1}, "seed: must be an integer >= 0"),
    ({**_tiny("toy"), "seed": True}, "seed: must be an integer >= 0"),
    # the exact Fourier sums' half cube, refused before it is allocated
    (_tiny_model("electrolyte", alpha=1e6),
     "model: the exact Fourier sums' half cube at m_max = 13386 holds 9.6e+12 frequencies, "
     "more than 2^24: lower alpha"),
    ({"model": {"id": "electrolyte", "alpha": 100}},
     "model: the exact Fourier sums' half cube at m_max = 168 holds 1.92e+07 frequencies, "
     "more than 2^24: lower alpha"),
    # true ran with h = 1, and .inf validated
    (_tiny_model("gaussian", bandwidth=True), "model: bandwidth must be 'median' or a positive "
                                              "finite number"),
    (_tiny_model("gaussian", bandwidth=math.inf), "model: bandwidth must be 'median' or a "
                                                  "positive finite number"),
    (_tiny_model("gaussian", bandwidth=math.nan), "model: bandwidth must be 'median' or a "
                                                  "positive finite number"),    # a run takes whole steps, so T = 0.07 would stop at t = 0.05
    (_tiny("toy", T=0.07, dt=0.05), "run.T: must be a whole number of run.dt steps, "
                                    "not T / dt = 1.4"),
    (_tiny("wealth", T=0.0105), "run.T: must be a whole number of run.dt steps, "
                                "not T / dt = 10.5"),
    # no frame in (2, 20] would be recorded, so no dh_* or fourier_energy_* metric written
    ({"model": {"id": "electrolyte", "N": 20, "L": 8.0},
      "run": {"p": 10, "steps": 20, "warmup": 2, "record_every": 50}},
     "run.record_every: no multiple of 50 lies in (run.warmup, run.steps] = (2, 20], so "
     "dh_screening and fourier_energy_error would read no recorded frame"),
    ({**_tiny("electrolyte", steps=20, warmup=15, record_every=12),
      "diagnostics": ["dh_screening"]},
     "run.record_every: no multiple of 12 lies in (run.warmup, run.steps] = (15, 20], so "
     "dh_screening would read no recorded frame"),
    # a bool or a non-finite number either failed part way, ran something other than
    # the echoed config (sigma: true ran as 1, beta: .inf as T = 0) or stopped validate
    (_tiny_model("toy", sigma=math.nan), "model.sigma: must be a finite number"),
    (_tiny("toy", dt=math.inf), "run.dt: must be a finite number"),
    (_tiny_model("wealth", kappa=math.inf), "model.kappa: must be a finite number"),
    (_tiny_model("cucker-smale", kappa=math.nan), "model.kappa: must be a finite number"),
    (_tiny_model("lj-fluid", beta=math.inf), "model.beta: must be a finite number"),
    (_tiny_model("toy", sigma=True), "model.sigma: must be a finite number"),
    ({**_tiny("lj-fluid"), "thermostat": {"kind": "andersen", "nu": True}},
     "thermostat.nu: must be a finite number"),
    ({**_tiny("electrolyte"), "thermostat": {"kind": "nose-hoover", "Q": True}},
     "thermostat.Q: must be a finite number"),
    (_tiny_model("gaussian", init_mean=math.inf), "model.init_mean: must be a finite number"),
    (_tiny("wealth", T=math.inf), "run.T: must be a finite number"),
    # T / dt overflowed to inf, and validate raised OverflowError rounding it
    (_tiny("wealth", T=1e300, dt=1e-12), "run.T: T / dt = 1e+300 / 1e-12 overflows"),
    # a run's echo names the version that wrote it
    ({**_tiny("toy"), "version": "0.0.1"},
     f"config.version: '0.0.1' is not this randbatch's {__version__!r}"),
])
def test_out_of_range_or_unused_fields_are_rejected(raw, message):
    with pytest.raises(ConfigError) as info:
        validate_dict(raw)
    assert any(message in e for e in info.value.errors), info.value.errors


@pytest.mark.parametrize("raw", [*TINY.values(), {
    "model": {"id": "lj-fluid", "N": 27}, "run": {"steps": 8, "schedule": {"kind": "inverse"}}}],
    ids=[*TINY, "lj-fluid-scheduled"])
def test_a_resolved_config_resolves_to_itself(raw):
    """What ``run`` writes to config.resolved.yaml validates, to the same config; a
    scheduled run's echo holds no run.dt, as no step reads it."""
    cfg = validate_dict(copy.deepcopy(raw))
    assert validate_dict(yaml.safe_load(yaml.safe_dump(cfg, sort_keys=True))) == cfg


def test_hidden_defaults_are_echoed():
    cfg = validate_dict({"model": {"id": "electrolyte"}})
    assert cfg["run"] == {"p": 2, "dt": 2e-3, "steps": 5000, "warmup": 1000,
                          "record_every": 10, "replicas": 1}
    assert cfg["thermostat"] == {"kind": "none"}
    assert cfg["output"] == {"directory": "out", "trajectory_every": 0}
    wealth = validate_dict({"model": {"id": "wealth"}})
    assert wealth["run"] == {"p": 2, "dt": 1e-3, "T": 3.0, "replicas": 1}
    assert "thermostat" not in wealth


def test_the_wealth_model_runs_rbm_by_default():
    # the direct step is O(N^2): at the default N = 10^4 about 1.4 s per step
    assert validate_dict({"model": {"id": "wealth"}})["method"] == "rbm"
    assert MODEL_METHODS["wealth"] == ("rbm", "direct")


@pytest.mark.parametrize("model", ["toy", "wealth", "cucker-smale"])
def test_each_replica_writes_its_own_csvs_as_a_lone_run_of_its_streams(model, tmp_path):
    cfg = validate_dict({**_tiny(model), "run": {**_tiny(model)["run"], "replicas": 2}})
    outdir = run(cfg, out_root=tmp_path / "run")
    assert not list(outdir.glob("*.csv"))  # only one replica's would fit here
    per_replica = json.loads((outdir / "metrics.json").read_text())["replicas"]
    for rep in range(2):
        lone = tmp_path / f"lone{rep}"
        lone.mkdir()
        metrics = _run_replica(cfg, SimStreams(cfg["seed"], replica=rep), lone)
        csvs = sorted(f.name for f in lone.glob("*.csv"))
        assert csvs and csvs == sorted(f.name for f in (outdir / f"replica{rep}").iterdir())
        for name in csvs:
            assert (outdir / f"replica{rep}" / name).read_bytes() == (lone / name).read_bytes()
        assert json.loads(json.dumps(metrics)) == per_replica[rep]
    assert ((outdir / "replica0" / csvs[0]).read_bytes()
            != (outdir / "replica1" / csvs[0]).read_bytes())


def test_a_rerun_removes_the_earlier_runs_artifacts_and_nothing_else(tmp_path):
    outdir = run(validate_dict(_tiny("toy")), out_root=tmp_path)
    assert (outdir / "samples.csv").exists()
    (outdir / "notes.txt").write_text("kept\n")
    run(validate_dict({**_tiny("toy"), "run": {"replicas": 2}}), out_root=tmp_path)
    assert not (outdir / "samples.csv").exists()  # one replica's, from the lone run
    assert (outdir / "replica1" / "samples.csv").exists()
    (outdir / "replica1" / "notes.txt").write_text("kept\n")
    run(validate_dict(_tiny("toy")), out_root=tmp_path)
    assert sorted(f.name for f in outdir.iterdir()) == [
        "config.resolved.yaml", "log.txt", "metrics.json", "notes.txt", "replica1", "samples.csv"]
    assert [f.name for f in (outdir / "replica1").iterdir()] == ["notes.txt"]
    assert (outdir / "notes.txt").read_text() == "kept\n"


def test_a_rerun_without_a_trajectory_leaves_no_trajectory_csv(tmp_path):
    raw = _tiny("electrolyte")
    outdir = run(validate_dict({**raw, "output": {"trajectory_every": 5}}), out_root=tmp_path)
    assert (outdir / "trajectory.csv").exists()
    run(validate_dict({**raw, "output": {"trajectory_every": 0}}), out_root=tmp_path)
    assert not (outdir / "trajectory.csv").exists()
    assert (outdir / "energy.csv").exists()


def test_electrolyte_records_no_frames_when_no_diagnostic_reads_them():
    cfg = validate_dict({**_tiny("electrolyte"), "diagnostics": ["momentum"]})
    assert "record_every" not in cfg["run"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def test_cli_overrides_are_validated(tmp_path, capsys):
    cfg_file = _write(tmp_path, "w.yaml", _tiny("wealth"))
    assert main(["run", str(cfg_file), "--replicas", "0", "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert any("run.replicas" in d for d in err["details"])


def test_cli_rejects_a_negative_seed_before_writing_anything(tmp_path, capsys):
    cfg_file = _write(tmp_path, "w.yaml", _tiny("wealth"))
    assert main(["run", str(cfg_file), "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "invalid-config", "details": ["seed: must be an integer >= 0"]}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("written, value", [("1e-3", 1e-3), ("1.0e-3", 1e-3), ("2.0e-3", 2e-3),
                                            ("1E-3", 1e-3), ("+5e-4", 5e-4)])
def test_a_config_file_reads_exponent_floats_in_either_spelling(written, value, tmp_path):
    # YAML 1.1 reads 1e-3 (no dot, unsigned exponent) as a string
    path = tmp_path / "w.yaml"
    path.write_text(f"model:\n  id: wealth\nrun:\n  dt: {written}\n")
    cfg = validate(path)
    assert cfg["run"]["dt"] == value and isinstance(cfg["run"]["dt"], float)


def test_an_exponent_alpha_in_a_config_file_is_refused_by_its_half_cube(tmp_path):
    path = tmp_path / "e.yaml"
    path.write_text("model:\n  id: electrolyte\n  alpha: 1e6\n")
    with pytest.raises(ConfigError) as info:
        validate(path)
    assert info.value.errors == ["model: the exact Fourier sums' half cube at m_max = 16733 "
                                 "holds 1.87e+13 frequencies, more than 2^24: lower alpha"]


def test_an_alpha_whose_cube_is_too_big_validates_without_the_exact_sums():
    # alpha = 100 at the default N and L gives m_max = 168, past the exact sums' cap,
    # but the screening profile alone never builds their cube
    cfg = validate_dict({"model": {"id": "electrolyte", "alpha": 100},
                         "diagnostics": ["dh_screening"]})
    assert cfg["model"]["alpha"] == 100


# every model field of each tiny config takes each of these values in turn; alpha
# stays at most 3, where the exact Fourier sums' cube is small even without its cap
# (at alpha = 1e3 on the tiny box it would hold 3e8 frequencies)
_SWEEP_VALUES = (0, -1, 1e-3, 0.5, 3.0, 1e3, "x", None, True)
_SWEEP_N = (2, 3, 4, 5, 7, 0, "x", True)


@pytest.mark.parametrize("model", sorted(TINY))
def test_every_accepted_model_field_runs(model, tmp_path):
    """A config that validates runs: it fails, if at all, only by blowing up."""
    failures, accepted = [], 0
    for field in MODELS[model].fields:
        values = _SWEEP_N if field == "N" else _SWEEP_VALUES
        for value in values:
            if field == "alpha" and isinstance(value, float) and value > 3:
                continue
            try:
                cfg = validate_dict(_tiny_model(model, **{field: value}))
            except ConfigError:
                continue
            accepted += 1
            try:
                with np.errstate(all="ignore"):
                    run(cfg, out_root=tmp_path)
            except IntegrationError:
                pass
            except Exception as exc:  # any other failure is a config validate should refuse
                failures.append(f"{field}={value!r}: {type(exc).__name__}: {exc}")
    assert accepted > 0
    assert failures == []


@pytest.mark.parametrize("text", [
    yaml.safe_dump({**_tiny("lj-fluid"), "thermostat": {"kind": "andersen", "nu": -1}}),
    "model: {id: wealth\nrun: [\n",
    yaml.safe_dump({**_tiny("lj-fluid"), "diagnostics": []}),
], ids=["thermostat-range", "yaml-syntax", "lj-fluid-without-temperature"])
def test_cli_reports_bad_thermostat_values_and_yaml_syntax_as_invalid_config(text, tmp_path,
                                                                             capsys):
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(text)
    assert main(["validate", str(cfg_file)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"


# Changes to each model's tiny config that make its run blow up part way
_DIVERGING = {
    # x -> x + 3 (-x + ...) doubles |x| every step, overflowing after ~1000 steps
    "toy": {"method": "rbm", "run": {"dt": 3.0, "steps": 3000}},
    # the exchange drift multiplies a wealth's distance from the mean by about 1 - dt each step
    "wealth": {"run": {"dt": 50.0, "T": 50_000.0}},
    # with constant communication (beta = 0) a pair's velocity difference grows by 1 - 2 dt
    "cucker-smale": {"model": {"beta": 0.0}, "run": {"dt": 100.0, "steps": 1000}},
    "consensus": {"run": {"dt": 400, "steps": 200}},
    # friction at gamma dt = 10 multiplies the velocities by about -9 each step
    "lj-fluid": {"thermostat": {"kind": "langevin", "gamma": 1000.0},
                 "run": {"dt": 0.01, "steps": 1000}},
    # eta = 100 overshoots the -x/N pull toward the Gaussian's mean by a factor of about 11
    "gaussian": {"run": {"dt": 100.0, "steps": 100}},
}


@pytest.mark.parametrize("model", sorted(_DIVERGING))
def test_diverging_run_names_step_and_particle(model, tmp_path, capsys):
    raw = _tiny(model)
    for key, value in _DIVERGING[model].items():
        raw[key] = {**raw.get(key, {}), **value} if isinstance(value, dict) else value
    run_section = validate_dict(raw)["run"]
    steps = run_section.get("steps") or round(run_section["T"] / run_section["dt"])
    cfg_file = _write(tmp_path, "boom.yaml", raw)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    (detail,) = err["details"]
    assert "at particle" in detail and "at step" in detail
    step = int(detail.rsplit("at step ", 1)[1])
    assert 1 < step < steps
    assert not list(tmp_path.rglob("metrics.json"))


def test_a_diverging_dyson_chain_exits_1_naming_step_and_particle(tmp_path, capsys):
    # at dt = 1000 the proposals fling particles out to about 1e300 within the first sweeps;
    # the 2000 moves run in 400 steps of 5
    raw = {"model": {"id": "dyson", "N": 50}, "run": {"dt": 1000, "sweeps": 2000}}
    assert main(["run", str(_write(tmp_path, "boom.yaml", raw)), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    (detail,) = err["details"]
    assert "beyond 1e6" in detail and "at particle" in detail and "at step" in detail
    assert 0 < int(detail.rsplit("at step ", 1)[1]) <= 400
    assert not list(tmp_path.rglob("metrics.json"))


def test_a_run_that_leaves_ions_on_one_another_in_its_last_step_exits_1_naming_them(
    tmp_path, capsys
):
    # the Nose-Hoover friction at beta = 1e-12 flings the ions up to 1.6e17 in the third
    # step, and the wrap into the box puts 130 of them on another ion: the state is finite,
    # the final exact forces are not
    raw = {"model": {"id": "electrolyte"}, "run": {"steps": 3},
           "thermostat": {"kind": "nose-hoover", "beta": 1.0e-12}, "diagnostics": ["momentum"]}
    with np.errstate(all="ignore"):
        status = main(["run", str(_write(tmp_path, "boom.yaml", raw)), "--out", str(tmp_path / "o")])
    assert status == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    assert err["details"] == ["non-finite exact force at particle 0 at step 3"]
    assert not list(tmp_path.rglob("metrics.json"))


# Dyson runs at the edges of the chain's blocks of max(sweeps // 400, 1) moves: 1001
# moves go in 500 blocks of 2 and a last block of 1, with the warmup ending inside a
# block; 399 moves go one to a block; and CI's dyson-small takes 3000 in blocks of 7
@pytest.mark.parametrize("raw, metrics, samples_sha256", [
    ({"model": {"id": "dyson", "N": 50}, "run": {"sweeps": 1001, "warmup": 333}},
     {"acceptance_rate": 0.9600399600399601, "clamp_count": 0, "density_at_zero": 0.0,
      "pooled_samples": 16750, "w1_semicircle": 0.07475134599437838},
     "d22dba7a0f77f4448ada2c5a5eed80d27977d5e18d38e85b8eff591084ce1740"),
    ({"model": {"id": "dyson", "N": 20}, "run": {"sweeps": 399}},
     {"acceptance_rate": 0.9849624060150376, "clamp_count": 0, "density_at_zero": 0.0,
      "pooled_samples": 5320, "w1_semicircle": 0.13823125153390037},
     "cff66da15a5fbcad14d33f16cbef5e8aa8d30b6de9d20e1232d014045439a720"),
    ({"seed": 1, "model": {"id": "dyson", "N": 100}, "run": {"sweeps": 3000}},
     {"acceptance_rate": 0.9116666666666666, "clamp_count": 0,
      "density_at_zero": 0.4179442508710801, "pooled_samples": 28700,
      "w1_semicircle": 0.11685314243572426},
     "d4de38b0f8e03d262950c81b3561c524d5e25249f18a8968c13bfc8bba80754c"),
], ids=["sweeps1001-warmup333", "sweeps399", "sweeps3000"])
def test_dyson_runs_at_the_block_edges_are_pinned(raw, metrics, samples_sha256, tmp_path):
    outdir = run(validate_dict(raw), out_root=tmp_path)
    written = json.loads((outdir / "metrics.json").read_text())
    assert {k: written[k] for k in metrics} == metrics
    assert written["density_at_zero_reference"] == 0.4501581580785531
    assert hashlib.sha256((outdir / "samples.csv").read_bytes()).hexdigest() == samples_sha256


@pytest.mark.parametrize("model", sorted(TINY))
def test_runs_are_deterministic_for_every_model(model, tmp_path):
    out = [run(validate_dict(_tiny(model)), out_root=tmp_path / side) for side in "ab"]
    first, second = (_outputs(o) for o in out)
    assert "metrics.json" in first and len(first) >= 1
    assert first == second


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("model, method", [(model, method) for model, methods
                                           in MODEL_METHODS.items() for method in methods])
def test_metrics_json_is_strict_json(model, method, baselines):
    json.loads(baselines(model, method, "none")["metrics.json"], parse_constant=_reject_constant)


def test_a_screening_profile_with_too_few_bins_to_fit_writes_null(baselines):
    metrics = json.loads(baselines("electrolyte", "rbe", "andersen")["metrics.json"])
    assert metrics["dh_slope"] is None and metrics["dh_intercept"] is None


def test_a_toy_convergence_study_at_the_smallest_accepted_n_measures_an_error(tmp_path):
    # at N = 4 the p = 2 division has two batches, so RBM leaves the direct step
    raw = {**_tiny_model("toy", N=4), "diagnostics": ["convergence"]}
    metrics = json.loads((run(validate_dict(raw), out_root=tmp_path) / "metrics.json").read_text())
    assert all(e > 0 for e in metrics["convergence"]["errors"].values())


def test_an_alpha_just_above_the_sampler_floor_validates_and_runs(tmp_path):
    # alpha L^2 = 1.28 leaves P(m != 0) = 2.7e-3, above the sampler's 1e-4
    cfg = validate_dict(_tiny_model("electrolyte", alpha=0.02))
    assert (run(cfg, out_root=tmp_path) / "metrics.json").is_file()


@pytest.mark.parametrize("fields, rho, temperature",
                         [({}, 0.3, 1.0), ({"N": 40, "temperature": 2.0}, 0.04, 2.0)],
                         ids=["default", "N40-T2"])
def test_electrolyte_reports_the_debye_hueckel_slope_of_its_config(fields, rho, temperature,
                                                                  tmp_path):
    # the reference line ln(r rho(r)) has slope -kappa = -sqrt(4 pi beta rho), beside the fit;
    # the default N = 300 ions in L = 10 give rho = 0.3 and kappa = 1.941
    raw = {"model": {"id": "electrolyte", **fields},
           "run": {"p": 10, "steps": 20, "warmup": 2, "record_every": 10}}
    metrics = json.loads((run(validate_dict(raw), out_root=tmp_path) / "metrics.json").read_text())
    kappa = math.sqrt(4 * math.pi * rho / temperature)
    assert metrics["dh_slope_reference"] == pytest.approx(-kappa, rel=1e-14)
    if not fields:
        assert metrics["dh_slope_reference"] == pytest.approx(-1.941, abs=1e-3)


def test_non_finite_metrics_fail_the_run_and_write_no_metrics_json(tmp_path):
    # after 600 steps at dt = 3 the toy's coordinates are finite, but their squares overflow
    cfg = validate_dict(_tiny("toy", dt=3.0, steps=600))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
        run(cfg, out_root=tmp_path)
    assert str(info.value) == "metrics.json: non-finite value at final_second_moment"
    assert not list(tmp_path.rglob("metrics.json"))


@pytest.mark.parametrize("model", ["toy", "cucker-smale", "consensus"])
def test_integer_dt_writes_the_same_outputs_as_float_dt(model, tmp_path):
    """YAML ``dt: 1`` is an int; every value but an index column is still a float."""
    as_int, as_float = (_outputs(run(validate_dict(_tiny(model, dt=dt)), out_root=tmp_path / side))
                        for dt, side in ((1, "int"), (1.0, "float")))
    assert as_int == as_float
    if model != "toy":
        assert as_int["functionals.csv"].splitlines()[2].startswith(b"1.0,")


def test_schedules():
    const = _schedule({"dt": 0.01, "schedule": None})
    assert const(1) == const(100) == 0.01
    log = _schedule({"dt": None, "schedule": {"kind": "log-decay", "c": 0.001}})
    vals = [log(k) for k in range(1, 50)]
    assert all(v > 0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert log(1) == pytest.approx(0.001 / np.log(2))
    inv = _schedule({"dt": None, "schedule": {"kind": "inverse", "k0": 2.0}})
    assert inv(1) == pytest.approx(1 / 3)


def test_one_step_runs_the_stepper_then_each_hook_in_order():
    calls = []
    sim = SimpleNamespace(state="x0", hooks=[lambda s, k, dt: calls.append(("a", s.state, k, dt)),
                                             lambda s, k, dt: calls.append(("b", s.state, k, dt))])
    _take_step(sim, lambda s, k, dt: f"{s.state}+{k}", 3, 0.5)
    assert sim.state == "x0+3"
    assert calls == [("a", "x0+3", 3, 0.5), ("b", "x0+3", 3, 0.5)]
