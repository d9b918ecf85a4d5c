"""Config validation, the run command, and the determinism contract."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import randbatch
from randbatch.backend import _openblas
from randbatch.cli import main
from randbatch.runner import ConfigError, run, validate, validate_dict

EXAMPLE_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


@pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda path: path.name)
def test_example_configs_validate(path):
    assert validate(path)["name"]


@pytest.mark.parametrize("build, loads", [
    ("", False),
    ("ewald.PeriodicChargeSystem(state=ParticleState(positions=np.zeros((2, 3)), box_length=1.0),"
     " charges=[1.0, -1.0])", True),
    ("models.WealthModel(N=4)", True),
], ids=["package", "charge-system", "wealth-model"])
def test_scipy_is_imported_by_the_objects_that_use_it_not_by_the_package(build, loads):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
            "import randbatch.cli, randbatch.runner; from randbatch import ewald, models; "
            "from randbatch.state import ParticleState; "
            "before = 'scipy' in sys.modules; " + (build or "None") + "; "
            "print(before, 'scipy.special' in sys.modules)")
    src = str(Path(randbatch.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["False", str(loads)]


def test_minimal_dyson_config_gets_defaults():
    cfg = validate_dict({"model": {"id": "dyson"}}, name="mini")
    assert cfg["method"] == "rbmc"
    assert cfg["model"]["N"] == 500
    assert cfg["model"]["split_radius"] == 0.01
    assert "p" not in cfg["run"]  # the RBMC chain moves pairs by construction
    assert cfg["diagnostics"] == ["w1_semicircle", "density_at_zero"]
    assert cfg["seed"] == 0


def test_batch_size_below_two_rejected():
    with pytest.raises(ConfigError, match="batch size must be >= 2"):
        validate_dict({"model": {"id": "wealth"}, "run": {"p": 0}})
    with pytest.raises(ConfigError, match="batch size must be >= 2"):
        validate_dict({"model": {"id": "wealth"}, "run": {"p": 1}})


def test_electroneutrality_violation_rejected():
    with pytest.raises(ConfigError, match="electroneutrality"):
        validate_dict({"model": {"id": "electrolyte", "N": 301}})


def test_wide_real_space_cutoff_rejected():
    with pytest.raises(ConfigError, match="below L/2"):
        validate_dict({"model": {"id": "electrolyte", "N": 10, "L": 6.0, "r_c": 3.0}})


def test_unknown_keys_rejected_with_field_paths():
    with pytest.raises(ConfigError, match="model.bogus: unknown key"):
        validate_dict({"model": {"id": "wealth", "bogus": 1}})
    with pytest.raises(ConfigError, match="config.extra: unknown key"):
        validate_dict({"model": {"id": "wealth"}, "extra": {}})
    with pytest.raises(ConfigError, match="run.dtt: unknown key"):
        validate_dict({"model": {"id": "wealth"}, "run": {"dtt": 0.1}})


def test_incompatible_method_rejected():
    with pytest.raises(ConfigError, match="not available"):
        validate_dict({"model": {"id": "wealth"}, "method": "rbe"})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"model": {"id": "wealth"}, "method": "rbm-r"}, "not available"),
        ({"model": {"id": "lj-fluid"}, "thermostat": {"kind": "nose-hoover"}},
         "lj-fluid supports"),
    ],
)
def test_configs_the_runner_would_ignore_are_rejected(raw, message):
    with pytest.raises(ConfigError, match=message):
        validate_dict(raw)


def test_unknown_diagnostic_rejected():
    with pytest.raises(ConfigError, match="unknown for model"):
        validate_dict({"model": {"id": "wealth"}, "diagnostics": ["dh_screening"]})


def _tiny_wealth_cfg():
    return {
        "name": "tiny",
        "seed": 3,
        "model": {"id": "wealth", "N": 200},
        "run": {"p": 2, "dt": 1e-3, "T": 0.05},
    }


def test_run_outputs_and_determinism(tmp_path):
    cfg = validate_dict(_tiny_wealth_cfg())
    out1 = run(cfg, out_root=tmp_path / "a")
    out2 = run(validate_dict(_tiny_wealth_cfg()), out_root=tmp_path / "b")
    for fname in ("config.resolved.yaml", "metrics.json", "log.txt", "samples.csv"):
        assert (out1 / fname).exists()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    resolved = yaml.safe_load((out1 / "config.resolved.yaml").read_text())
    assert resolved["seed"] == 3
    assert resolved["version"]
    metrics = json.loads((out1 / "metrics.json").read_text())
    assert metrics["w1_equilibrium"] >= 0.0


def test_direct_and_full_batch_rbm_produce_identical_trajectories(tmp_path):
    for model, artifact in (("toy", "samples.csv"), ("cucker-smale", "functionals.csv"),
                            ("consensus", "functionals.csv")):
        base = {
            "name": model,
            "seed": 11,
            "model": {"id": model, "N": 8},
            "run": {"p": 8, "dt": 0.05, "steps": 10},
            "diagnostics": [],
        }
        rbm_cfg = validate_dict({**base, "method": "rbm"})
        direct_cfg = validate_dict({**base, "method": "direct", "name": f"{model}-direct"})
        out_rbm = run(rbm_cfg, out_root=tmp_path)
        out_direct = run(direct_cfg, out_root=tmp_path)
        assert (out_rbm / artifact).read_bytes() == (out_direct / artifact).read_bytes()
        if model != "toy":
            # direct ignores p: at p = 2 it must not run the random-batch step
            p2 = {**base, "run": {**base["run"], "p": 2}}
            out_rbm2 = run(validate_dict({**p2, "method": "rbm", "name": f"{model}-rbm2"}),
                           out_root=tmp_path)
            out_direct2 = run(validate_dict({**p2, "method": "direct", "name": f"{model}-direct2"}),
                              out_root=tmp_path)
            assert (out_rbm2 / artifact).read_bytes() != (out_direct2 / artifact).read_bytes()


def test_cli_validate_and_error_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.yaml", _tiny_wealth_cfg())
    assert main(["validate", str(good)]) == 0
    resolved = yaml.safe_load(capsys.readouterr().out)
    assert resolved["model"]["id"] == "wealth"

    bad = _write(tmp_path, "bad.yaml", {"model": {"id": "wealth"}, "run": {"p": 0}})
    assert main(["validate", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"
    assert any("batch size" in d for d in err["details"])

    assert main(["validate", str(tmp_path / "missing.yaml")]) == 2


def test_cli_run_with_overrides(tmp_path, capsys):
    cfg_file = _write(tmp_path, "w.yaml", _tiny_wealth_cfg())
    code = main(["run", str(cfg_file), "--seed", "99", "--out", str(tmp_path / "o")])
    assert code == 0
    outdir = capsys.readouterr().out.strip()
    metrics = json.loads((tmp_path / "o" / "tiny-seed99" / "metrics.json").read_text())
    assert metrics["seed"] == 99
    assert outdir.endswith("tiny-seed99")


def test_cli_replicas_aggregate(tmp_path):
    cfg = validate_dict({**_tiny_wealth_cfg(), "run": {"p": 2, "dt": 1e-3, "T": 0.02,
                                                       "replicas": 2}})
    outdir = run(cfg, out_root=tmp_path)
    metrics = json.loads((outdir / "metrics.json").read_text())
    assert len(metrics["replicas"]) == 2
    assert "w1_equilibrium" in metrics["aggregate"]


def test_cli_threads_caps_the_bundled_openblas(tmp_path, capsys):
    lib = _openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy bundles no OpenBLAS with a thread-count call")
    before = lib.scipy_openblas_get_num_threads64_()
    cfg_file = _write(tmp_path, "w.yaml", _tiny_wealth_cfg())
    try:
        for n in (2, 1):
            assert main(["run", str(cfg_file), "--threads", str(n),
                         "--out", str(tmp_path / f"t{n}")]) == 0
            assert lib.scipy_openblas_get_num_threads64_() == n
            log = (tmp_path / f"t{n}" / "tiny-seed3" / "log.txt").read_text()
            assert f"blas_threads={n}" in log
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    capsys.readouterr()


def test_electrolyte_without_thermostat_runs_nve(tmp_path):
    # the Andersen run matches what `none` used to be replaced by
    base = {"seed": 3, "model": {"id": "electrolyte", "N": 20, "L": 8.0},
            "run": {"p": 10, "steps": 30, "warmup": 1}, "diagnostics": []}
    energies = []
    for kind in ("none", "andersen"):
        thermostat = {"kind": kind, "nu": 3.0, "temperature": 1.0}
        cfg = validate_dict({**base, "name": kind, "thermostat": thermostat})
        energies.append((run(cfg, out_root=tmp_path) / "energy.csv").read_bytes())
    assert energies[0] != energies[1]


def test_consensus_nu_off_the_model_is_an_invalid_config(tmp_path, capsys):
    rows = "intrinsic velocities nu must be N = 4 rows of dim = 1 numbers"
    for nu, message in (([1, 2, 3, 4], "intrinsic velocities nu must sum to zero"),
                        ([1, -1, 0], rows), ([[1, -1], [-1, 1], [0, 0], [0, 0]], rows)):
        cfg_file = _write(tmp_path, "nu.yaml", {"model": {"id": "consensus", "N": 4, "nu": nu}})
        assert main(["validate", str(cfg_file)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"
        (detail,) = err["details"]
        assert detail == f"model: {message}"
    ok = {"model": {"id": "consensus", "N": 4, "dim": 2, "nu": [[1, -1], [-1, 1], [0, 0], [0, 0]]}}
    assert main(["validate", str(_write(tmp_path, "ok.yaml", ok))]) == 0
    capsys.readouterr()


def test_a_blow_up_reports_its_warnings_in_one_json_document(tmp_path, capsys):
    # consensus at dt = 400 overflows on its way to a non-finite state
    raw = {"model": {"id": "consensus"}, "run": {"dt": 400, "steps": 200}}
    assert main(["run", str(_write(tmp_path, "boom.yaml", raw)), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    assert err["warnings"] and all("RuntimeWarning: overflow" in w for w in err["warnings"])


def test_a_run_that_succeeds_emits_its_warnings(tmp_path, capsys, monkeypatch):
    import randbatch.cli

    def warn_and_run(cfg, out_root, threads):
        np.exp(np.array([1e3]))  # overflow: inf, with a RuntimeWarning
        return run(cfg, out_root=out_root, threads=threads)

    monkeypatch.setattr(randbatch.cli, "run", warn_and_run)
    cfg_file = _write(tmp_path, "w.yaml", _tiny_wealth_cfg())
    overflow = pytest.warns(RuntimeWarning, match="overflow encountered in exp")
    with np.errstate(over="warn"), overflow:
        assert main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.strip().endswith("tiny-seed3")
