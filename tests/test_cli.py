import json
import math
import time

import numpy as np
import pytest
import yaml

from selfjump import cli, config, sim, varsolve

UNIT_FIELD = {"family": "constant", "q0": [[-1.0, 1.0], [1.0, -1.0]]}
FAST_SOLVER = {"n_starts": 2, "grid_cells": 16, "penalty_rounds": 4}


def write_cfg(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


def only_run_dir(out_root, command):
    dirs = list((out_root / command).iterdir())
    assert len(dirs) == 1
    return dirs[0]


def test_validate_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD, "seed": 3})
    assert run(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "states: 2" in out


def test_validate_unknown_key(tmp_path, capsys):
    doc = {"field": {"family": "autochemotaxis", "q0": [[-1.0, 1.0], [1.0, -1.0]],
                     "strenght": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "strenght" in err
    assert "field" in err


def test_missing_config_file(tmp_path, capsys):
    assert run(["validate", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "simulate" in capsys.readouterr().err


def test_dv_rate_anchor_value(tmp_path, capsys):
    doc = {"field": UNIT_FIELD,
           "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 1.0], [1.0, 0.0]]}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["dv-rate", "--config", cfg, "--out", str(out_root)]) == 0
    stdout = capsys.readouterr().out
    value = float(stdout.splitlines()[0])
    assert value == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)
    rd = only_run_dir(out_root, "dv-rate")
    assert (rd / "results.json").exists()
    assert (rd / "value.csv").read_text().startswith("value\n")
    assert (rd / "manifest.json").exists()


def test_dv_rate_infeasible(tmp_path, capsys):
    doc = {"field": UNIT_FIELD,
           "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 1.0], [0.5, 0.0]]}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["dv-rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "infeasible: flux balance violated" in capsys.readouterr().err


def test_dv_rate_rejects_interacting_field(tmp_path, capsys):
    doc = {"field": {"family": "autochemotaxis", "q0": [[-1.0, 1.0], [1.0, -1.0]],
                     "strength": 1.0},
           "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 1.0], [1.0, 0.0]]}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["dv-rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "family" in capsys.readouterr().err


def test_simulate_artifacts_and_determinism(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 5,
           "simulate": {"x0": 1, "horizon": 10.0, "n_paths": 6}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root)]) == 0
    rd = only_run_dir(out_root, "simulate")
    kept = {name: (rd / name).read_bytes()
            for name in ("batch.csv", "trajectory.csv", "results.json")}
    capsys.readouterr()
    # rerun lands in the same directory with byte-identical results
    assert run(["simulate", "--config", cfg, "--out", str(out_root)]) == 0
    assert only_run_dir(out_root, "simulate") == rd
    for name, blob in kept.items():
        assert (rd / name).read_bytes() == blob
    # worker threads cannot change any artifact
    capsys.readouterr()
    assert run(["simulate", "--config", cfg, "--out", str(out_root),
                "--threads", "3"]) == 0
    assert (rd / "batch.csv").read_bytes() == kept["batch.csv"]
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert "batch.csv" in manifest["outputs"]


def test_simulate_threads_flag_is_deprecated_no_op(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 5,
           "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert "deprecated" not in capsys.readouterr().err
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
                "--threads", "4"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if "--threads is deprecated" in line]) == 1
    for name in ("batch.csv", "trajectory.csv"):
        assert ((only_run_dir(tmp_path / "a", "simulate") / name).read_bytes()
                == (only_run_dir(tmp_path / "b", "simulate") / name).read_bytes())


def test_manifest_wall_time_covers_computation(tmp_path, capsys, monkeypatch):
    spans = []
    batch_simulate = sim.batch_simulate

    def timed(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return batch_simulate(*args, **kwargs)
        finally:
            spans.append(time.monotonic() - t0)

    monkeypatch.setattr(sim, "batch_simulate", timed)
    doc = {"field": UNIT_FIELD, "seed": 5,
           "simulate": {"x0": 1, "horizon": 200.0, "n_paths": 200}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads(
        (only_run_dir(tmp_path / "out", "simulate") / "manifest.json").read_text())
    assert len(spans) == 1
    assert manifest["wall_time_s"] >= spans[0] > 0.0


def test_unknown_family_is_config_error(tmp_path, capsys):
    doc = {"field": {"family": "custom", "q0": [[-1.0, 1.0], [1.0, -1.0]]},
           "seed": 1, "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root)]) == 2
    err = capsys.readouterr().err
    assert "config error: field.family:" in err
    assert "Traceback" not in err
    assert not out_root.exists()


def test_simulate_seed_override_changes_run_dir(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 5,
           "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root)]) == 0
    assert run(["simulate", "--config", cfg, "--out", str(out_root),
                "--seed", "6"]) == 0
    assert len(list((out_root / "simulate").iterdir())) == 2


def test_simulate_csv_format_streams_batch(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 1,
           "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 3}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root),
                "--format", "csv"]) == 0
    cap = capsys.readouterr()
    rd = only_run_dir(out_root, "simulate")
    assert cap.out == (rd / "batch.csv").read_text()
    assert "wrote" in cap.err


def test_rate_matches_library_exactly(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 0,
           "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 1.0], [1.0, 0.0]]},
           "solver": dict(FAST_SOLVER)}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["rate", "--config", cfg, "--out", str(out_root)]) == 0
    rd = only_run_dir(out_root, "rate")
    results = json.loads((rd / "results.json").read_text())
    parsed = config.parse_config(doc)
    ref = varsolve.solve_rate([0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]]),
                              config.build_field(parsed.field),
                              parsed.solve_options(0))
    assert results["value"] == ref.value
    assert results["status"] == ref.status == "converged"
    assert (rd / "path.csv").read_text().startswith("s_left,")
    assert (rd / "value.csv").read_text().startswith("value,status\n")


def test_rate_infeasible_exit_code(tmp_path, capsys):
    doc = {"field": UNIT_FIELD,
           "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 1.0], [0.5, 0.0]]},
           "solver": dict(FAST_SOLVER)}
    cfg = write_cfg(tmp_path, doc)
    assert run(["rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "infeasible: flux balance violated" in capsys.readouterr().err


def test_occupation_rate_runs(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 0,
           "target": {"gamma": [0.6, 0.4]},
           "solver": dict(FAST_SOLVER)}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["occupation-rate", "--config", cfg, "--out", str(out_root)]) == 0
    results = json.loads(
        (only_run_dir(out_root, "occupation-rate") / "results.json").read_text())
    closed = (math.sqrt(0.6) - math.sqrt(0.4)) ** 2
    assert results["value"] == pytest.approx(closed, rel=0.05)


def test_current_rate_zero_current(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 0,
           "target": {"current": [[0.0, 0.0], [0.0, 0.0]]},
           "solver": dict(FAST_SOLVER)}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["current-rate", "--config", cfg, "--out", str(out_root)]) == 0
    results = json.loads(
        (only_run_dir(out_root, "current-rate") / "results.json").read_text())
    assert abs(results["value"]) <= 1e-6


def test_fixed_point_output(tmp_path, capsys):
    doc = {"field": {"family": "autochemotaxis",
                     "q0": [[-2.0, 2.0], [1.0, -1.0]], "strength": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["fixed-point", "--config", cfg, "--out", str(out_root)]) == 0
    out = capsys.readouterr().out
    assert "pi = [" in out
    rd = only_run_dir(out_root, "fixed-point")
    results = json.loads((rd / "results.json").read_text())
    assert results["converged"]
    assert results["pi"][0] == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-8)
    assert (rd / "value.csv").read_text().startswith("pi_1,pi_2,converged\n")


def test_mc_ldp_with_config_rate(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 7,
           "mc": {"x0": 1, "times": [5.0, 10.0], "n_paths": 60,
                  "center": [0.5, 0.5], "radius": 0.3, "rate": 0.02}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["mc-ldp", "--config", cfg, "--out", str(out_root)]) == 0
    rd = only_run_dir(out_root, "mc-ldp")
    results = json.loads((rd / "results.json").read_text())
    assert results["rate"] == 0.02
    assert results["rate_source"] == "config"
    assert len(results["points"]) == 2
    decay = (rd / "decay.csv").read_text().splitlines()
    assert decay[0] == "t,p_hat,ci_low,ci_high,n,censored,neg_log_rate"
    assert len(decay) == 3


def test_config_round_trip():
    doc = {"field": {"family": "congestion", "q0": [[-1.0, 1.0], [2.0, -2.0]],
                     "alpha": [0.1, 0.2], "beta": [0.3, 0.4]},
           "seed": 11,
           "simulate": {"x0": 2, "horizon": 3.0, "n_paths": 4,
                        "sampler": "exact-affine"},
           "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 0.5], [0.5, 0.0]]},
           "solver": {"n_starts": 3, "grid_cells": 8, "tol_flux": 1e-4},
           "mc": {"x0": 1, "times": [1.0, 2.0], "n_paths": 5,
                  "center": [0.5, 0.5], "radius": 0.2},
           "fixed_point": {"tol": 1e-9, "n_starts": 2}}
    cfg = config.parse_config(doc)
    cfg2 = config.parse_config(config.serialize(cfg))
    assert cfg2.field == cfg.field
    assert cfg2.seed == cfg.seed
    assert cfg2.simulate == cfg.simulate
    assert cfg2.target == cfg.target
    assert cfg2.solver == cfg.solver
    assert cfg2.mc == cfg.mc
    assert cfg2.fixed_point == cfg.fixed_point
