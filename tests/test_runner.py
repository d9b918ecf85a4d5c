"""The registry-driven experiment loop: schema strictness, range checks, determinism."""

import copy
import json

import numpy as np
import pytest
import yaml

from randbatch.cli import main
from randbatch.runner import MODEL_METHODS, ConfigError, run, validate_dict

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
    (_tiny("dyson", p=4), "the RBMC chain moves pairs; p must be 2"),
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
])
def test_out_of_range_or_unused_fields_are_rejected(raw, message):
    with pytest.raises(ConfigError) as info:
        validate_dict(raw)
    assert any(message in e for e in info.value.errors), info.value.errors


def test_hidden_defaults_are_echoed():
    cfg = validate_dict({"model": {"id": "electrolyte"}})
    assert cfg["run"] == {"p": 2, "dt": 2e-3, "steps": 5000, "warmup": 1000,
                          "record_every": 10, "replicas": 1}
    assert cfg["thermostat"] == {"kind": "none"}
    assert cfg["output"] == {"directory": "out", "trajectory_every": 0}
    wealth = validate_dict({"model": {"id": "wealth"}})
    assert wealth["run"] == {"p": 2, "dt": 1e-3, "T": 3.0, "replicas": 1}
    assert "thermostat" not in wealth


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


def test_diverging_run_names_step_and_particle(tmp_path, capsys):
    # x -> x + 3 (-x + ...) doubles |x| every step, overflowing after ~1000 steps
    cfg_file = _write(tmp_path, "boom.yaml", _tiny("toy", method="rbm", dt=3.0, steps=3000))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    (detail,) = err["details"]
    assert "at particle" in detail and "at step" in detail
    step = int(detail.rsplit("at step ", 1)[1])
    assert 1 < step < 3000


@pytest.mark.parametrize("model", sorted(TINY))
def test_runs_are_deterministic_for_every_model(model, tmp_path):
    out = [run(validate_dict(_tiny(model)), out_root=tmp_path / side) for side in "ab"]
    first, second = (_outputs(o) for o in out)
    assert "metrics.json" in first and len(first) >= 1
    assert first == second


@pytest.mark.parametrize("model", ["toy", "cucker-smale", "consensus"])
def test_integer_dt_writes_the_same_outputs_as_float_dt(model, tmp_path):
    """YAML ``dt: 1`` is an int; every value but an index column is still a float."""
    as_int, as_float = (_outputs(run(validate_dict(_tiny(model, dt=dt)), out_root=tmp_path / side))
                        for dt, side in ((1, "int"), (1.0, "float")))
    assert as_int == as_float
    if model != "toy":
        assert as_int["functionals.csv"].splitlines()[2].startswith(b"1.0,")
