import contextlib
import copy
import csv
import dataclasses
import importlib
import inspect
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from selfjump import cli, config, core, errors, ldp, mc, sim, varsolve

UNIT_FIELD = {"family": "constant", "q0": [[-1.0, 1.0], [1.0, -1.0]]}
FAST_SOLVER = {"n_starts": 2, "grid_cells": 16}


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


SYMMETRIC_FLUX = [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("command, doc, missing", [
    ("dv-rate", {"target": {"flux": SYMMETRIC_FLUX}}, "target: missing 'gamma'"),
    ("dv-rate", {"target": {"gamma": [0.5, 0.5]}}, "target: missing 'flux'"),
    ("rate", {"target": {"flux": SYMMETRIC_FLUX}}, "target: missing 'gamma'"),
    ("rate", {"target": {"gamma": [0.5, 0.5]}}, "target: missing 'flux'"),
    ("occupation-rate", {"target": {"flux": SYMMETRIC_FLUX}}, "target: missing 'gamma'"),
    ("occupation-rate", {}, "target: missing 'gamma'"),
    ("current-rate", {"target": {"gamma": [0.5, 0.5]}}, "target: missing 'current'"),
    ("simulate", {}, "config: this command needs the 'simulate' section"),
    ("mc-ldp", {}, "config: this command needs the 'mc' section"),
], ids=["dv-rate-gamma", "dv-rate-flux", "rate-gamma", "rate-flux", "occupation-rate-gamma",
        "occupation-rate-no-target", "current-rate-current", "simulate", "mc-ldp"])
def test_missing_target_key_or_section_exits_2_in_one_line(tmp_path, capsys, command, doc,
                                                           missing):
    # a missing key is named at its section, as the parser names missing
    # 'x0' at simulate; a missing section is named at config
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD, **doc})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {missing}\n"
    assert not (tmp_path / "out").exists()


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


def test_dv_rate_flux_out_of_unoccupied_state_is_infeasible(tmp_path, capsys):
    doc = {"field": UNIT_FIELD,
           "target": {"gamma": [1.0, 0.0], "flux": [[0.0, 1.0], [1.0, 0.0]]}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["dv-rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "infeasible: flux leaves a state with zero occupation" in err


ONE_WAY_Q0 = [[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]]
NEAR_ZERO_Q0 = [[-1.0, 1.0, -1e-13], [0.5, -1.0, 0.5], [1.0, 0.0, -1.0]]
INTERIOR = [0.3, 0.3, 0.4]
FACE = [0.5, 0.5, 0.0]
CYCLE_FLUX = [[0.0, 0.3, 0.0], [0.2, 0.0, 0.1], [0.1, 0.0, 0.0]]


# q0, gamma, flux and the reason both commands give, None when feasible
@pytest.mark.parametrize("q0, gamma, flux, reason", [
    pytest.param(ONE_WAY_Q0, INTERIOR, CYCLE_FLUX, None, id="interior"),
    pytest.param(ONE_WAY_Q0, FACE, [[0.0, 0.4, 0.0], [0.4, 0.0, 0.0], [0.0, 0.0, 0.0]],
                 None, id="face"),
    pytest.param(ONE_WAY_Q0, INTERIOR, [[0.0, 0.3, 0.0], [0.2, 0.0, 0.1], [0.2, 0.0, 0.0]],
                 "flux balance violated", id="imbalanced"),
    pytest.param(ONE_WAY_Q0, INTERIOR, [[0.0, 0.0, 0.1], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
                 "flux charges edges off the support", id="off-support"),
    pytest.param(ONE_WAY_Q0, FACE, [[0.0, 0.1, 0.0], [0.0, 0.0, 0.1], [0.1, 0.0, 0.0]],
                 "flux leaves a state with zero occupation", id="empty-state"),
    # flux of at most 1e-12 on edges the field cannot charge counts as zero
    pytest.param(ONE_WAY_Q0, INTERIOR,
                 [[0.0, 0.3, 1e-13], [0.2, 0.0, 0.1], [0.1000000000001, 0.0, 0.0]],
                 None, id="tiny-off-support"),
    # an off-diagonal entry of -1e-13 passes as a rate of 0
    pytest.param(NEAR_ZERO_Q0, INTERIOR,
                 [[0.0, 0.3, 1e-13], [0.2, 0.0, 0.1], [0.1000000000001, 0.0, 0.0]],
                 None, id="tiny-negative-rate"),
])
def test_dv_rate_and_rate_share_one_feasibility_gate(tmp_path, capsys, q0, gamma, flux,
                                                    reason):
    dv = ldp.dv_rate(np.array(q0), gamma, flux)
    solved = varsolve.solve_rate(gamma, flux, core.RateField.constant(np.array(q0)))
    assert (dv == math.inf) == (solved.value == math.inf) == (reason is not None)
    assert solved.detail == (reason or "")
    cfg = write_cfg(tmp_path, {"field": {"family": "constant", "q0": q0},
                               "target": {"gamma": gamma, "flux": flux}})
    values = []
    for command in ("dv-rate", "rate"):
        code = run([command, "--config", cfg, "--out", str(tmp_path / "out"),
                    "--format", "csv"])
        out, err = capsys.readouterr()
        if reason is None:
            assert code == 0
            values.append(float(out.splitlines()[1].split(",")[0]))
        else:
            assert (code, err) == (1, f"infeasible: {reason}\n")
    if reason is None:
        assert solved.status == "converged"
        assert values == [dv, solved.value]
        assert solved.value == pytest.approx(dv, rel=1e-6)


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
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert "batch.csv" in manifest["outputs"]


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"field": UNIT_FIELD, "simulate": {"x0": 1, "horizon": 5.0,
                                                    "n_paths": 2}}),
    ("dv-rate", {"field": UNIT_FIELD,
                 "target": {"gamma": [0.5, 0.5], "flux": [[0.0, 1.0], [1.0, 0.0]]}}),
])
def test_out_naming_a_file_exits_1_in_one_line(tmp_path, capsys, command, doc):
    cfg = write_cfg(tmp_path, doc)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert run([command, "--config", cfg, "--out", str(blocker)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {blocker}{os.sep}{command}{os.sep}")
    assert lines[0].endswith(": Not a directory")
    assert blocker.read_text() == ""


def test_out_naming_a_file_fails_before_sampling(tmp_path, capsys, monkeypatch):
    calls = []
    batch_simulate = sim.batch_simulate

    def spy(*args, **kwargs):
        calls.append(args)
        return batch_simulate(*args, **kwargs)

    monkeypatch.setattr(sim, "batch_simulate", spy)
    doc = {"field": UNIT_FIELD, "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}
    cfg = write_cfg(tmp_path, doc)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert run(["simulate", "--config", cfg, "--out", str(blocker)]) == 1
    assert calls == []
    assert capsys.readouterr().err.endswith(": Not a directory\n")


def test_out_of_memory_exits_1_in_one_line(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(sim, "batch_simulate", no_memory)
    doc = {"field": UNIT_FIELD, "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 1.46 TiB for an array\n"


def test_out_of_memory_in_a_sampling_worker_exits_1_in_one_line(tmp_path, capsys,
                                                                monkeypatch):
    simulate = sim._SAMPLERS["thinning"]

    def no_memory_in_workers(field, x0, horizon, seed, path_index=0):
        if path_index > 0:
            raise MemoryError("Unable to allocate 1.46 TiB for an array")
        return simulate(field, x0, horizon, seed, path_index=path_index)

    monkeypatch.setitem(sim._SAMPLERS, "thinning", no_memory_in_workers)
    monkeypatch.setattr(sim, "_cpus", lambda: 3)
    monkeypatch.setattr(sim, "_BLOCK_DRAWS", 5)  # one path per task
    doc = {"field": UNIT_FIELD, "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 4}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1.46 TiB for an array\n"
    assert multiprocessing.active_children() == []


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 5,
           "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--config", cfg, "--out", str(out_root), "--threads", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --threads 4" in err
    assert "Traceback" not in err
    assert not out_root.exists()


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


@pytest.mark.parametrize("command, section", [
    ("fixed-point", {"fixed_point": {"n_starts": 3}}),
    ("simulate", {"simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}}),
])
def test_negative_seed_exits_2_in_one_line(tmp_path, capsys, command, section):
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD, "seed": 1, **section})
    out_root = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out_root), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: --seed: must be >= 0, got -1"]
    assert not out_root.exists()


@pytest.mark.parametrize("doc_seed, flag, location", [
    (2 ** 64, [], "config.seed"),
    (1, ["--seed", str(2 ** 64)], "--seed"),
])
def test_seed_beyond_64_bits_exits_2(tmp_path, capsys, doc_seed, flag, location):
    # taken mod 2**64, seed 2**64 would rerun seed 0's paths in another run dir
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD, "seed": doc_seed,
                               "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2}})
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root)] + flag) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {location}: must be < 2**64, got {2 ** 64}"]
    assert not out_root.exists()


def test_simulate_csv_format_streams_batch(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 1,
           "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 3}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root),
                "--format", "csv"]) == 0
    cap = capsys.readouterr()
    rd = only_run_dir(out_root, "simulate")
    assert cap.out.encode() == (rd / "batch.csv").read_bytes()
    assert "\r\n" in cap.out
    assert "wrote" in cap.err


def test_simulate_results_count_jumps_and_candidates(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 6,
           "simulate": {"x0": 1, "horizon": 12.0, "n_paths": 5}}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out_root)]) == 0
    res = json.loads((only_run_dir(out_root, "simulate") / "results.json").read_text())
    field = config.build_field(config.load_config(cfg).field)
    paths = [sim.simulate_thinning(field, 1, 12.0, 6, path_index=i) for i in range(5)]
    assert res["jumps"] == sum(p.n_jumps for p in paths)
    assert res["candidates"] == sum(p.candidates for p in paths)
    assert res["accept_ratio"] == res["jumps"] / res["candidates"]
    assert 0.0 < res["accept_ratio"] <= 1.0
    assert "sampler" not in res


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
                              parsed.solve_options())
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
    [found] = json.loads((rd / "results.json").read_text())["fixed_points"]
    assert found["converged"]
    assert found["pi"][0] == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-8)
    assert (rd / "value.csv").read_text().startswith("index,pi_1,pi_2,converged\n0,")


@pytest.mark.parametrize("fixed_point, converged", [
    ({"n_starts": 3}, True), ({"max_iter": 1}, False)])
def test_fixed_point_lists_one_entry_per_distinct_limit(tmp_path, capsys, fixed_point,
                                                        converged):
    # the chemotaxis field has one root, so three starts list it once; one
    # iteration converges nowhere and lists the best iterate
    cfg = write_cfg(tmp_path, {"field": CHEMO_FIELD, "fixed_point": fixed_point})
    out_root = tmp_path / "out"
    assert run(["fixed-point", "--config", cfg, "--out", str(out_root)]) == 0
    out = capsys.readouterr().out
    rd = only_run_dir(out_root, "fixed-point")
    [found] = json.loads((rd / "results.json").read_text())["fixed_points"]
    assert found["converged"] is converged
    assert (rd / "value.csv").read_text().splitlines()[1].endswith(f",{int(converged)}")
    assert f"converged={converged} " in out
    assert out.count("residual=") == 1
    assert ("warning: not converged to tolerance; best iterate shown" in out) \
        is not converged


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


EVERY_COMMAND_RUN = {
    "field": UNIT_FIELD, "seed": 2,
    "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 3},
    "target": {"gamma": [0.6, 0.4], "flux": [[0.0, 0.5], [0.5, 0.0]],
               "current": [[0.0, 0.0], [0.0, 0.0]]},
    "solver": dict(FAST_SOLVER),
    "mc": {"x0": 1, "times": [2.0, 4.0], "n_paths": 20, "center": [0.5, 0.5],
           "radius": 0.3, "rate": 0.02},
}


@pytest.mark.parametrize("command, primary, mc_rate", [
    ("simulate", "batch.csv", True), ("dv-rate", "value.csv", True),
    ("rate", "value.csv", True), ("occupation-rate", "value.csv", True),
    ("current-rate", "value.csv", True), ("fixed-point", "value.csv", True),
    pytest.param("mc-ldp", "decay.csv", True, id="mc-ldp-config-rate"),
    pytest.param("mc-ldp", "decay.csv", False, id="mc-ldp-solved-rate"),
])
def test_every_command_writes_its_outputs_and_streams_its_csv(tmp_path, capsys, command,
                                                              primary, mc_rate):
    doc = copy.deepcopy(EVERY_COMMAND_RUN)
    if not mc_rate:
        del doc["mc"]["rate"]
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    for fmt in ("pretty", "csv"):
        assert run([command, "--config", cfg, "--out", str(out_root), "--format", fmt]) == 0
        out, err = capsys.readouterr()
        rd = only_run_dir(out_root, command)
        manifest = json.loads((rd / "manifest.json").read_text())
        assert sorted(manifest["outputs"] + ["manifest.json"]) == \
            sorted(p.name for p in rd.iterdir())
        assert primary in manifest["outputs"]
        phases = manifest["phases"]
        assert sorted(phases) == ["build_field_s", "compute_s", "write_s"]
        assert min(phases.values()) >= 0.0
        assert sum(phases.values()) <= manifest["wall_time_s"]
        if fmt == "csv":
            assert (out.encode(), err) == ((rd / primary).read_bytes(), f"wrote {rd}\n")
        else:
            assert out.endswith(f"\nwrote {rd}\n") and err == ""


def test_manifest_compute_phase_covers_the_command(tmp_path, capsys, monkeypatch):
    batch_simulate = sim.batch_simulate

    def slow_batch(*args, **kwargs):
        time.sleep(0.05)
        return batch_simulate(*args, **kwargs)

    monkeypatch.setattr(sim, "batch_simulate", slow_batch)
    cfg = write_cfg(tmp_path, EVERY_COMMAND_RUN)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rd = only_run_dir(tmp_path / "out", "simulate")
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["phases"]["compute_s"] >= 0.05
    assert "phases" not in json.loads((rd / "results.json").read_text())


CSV_RUN = {
    "field": {"family": "constant",
              "q0": [[-1.5, 1.0, 0.5], [0.6, -1.2, 0.6], [0.4, 0.8, -1.2]]},
    "seed": 12,
    "simulate": {"x0": 2, "horizon": 30.0, "n_paths": 5},
    "target": {"gamma": INTERIOR},
    "solver": dict(FAST_SOLVER),
    "mc": {"x0": 1, "times": [3.0, 1.0], "n_paths": 50, "center": INTERIOR, "radius": 0.4,
           "rate": 0.1},
}
EDGES_3 = core.edge_pairs(3)


def batch_rows(field, parsed):
    b = sim.batch_simulate(field, seed=parsed.seed, **parsed.sections["simulate"])
    return [[i, i, *b.occupations[i], *(b.fluxes[i, x, y] for x, y in EDGES_3)]
            for i in range(len(b.occupations))]


def trajectory_rows(field, parsed):
    traj = sim.batch_simulate(field, seed=parsed.seed,
                              **parsed.sections["simulate"]).first_trajectory
    assert traj.n_jumps > 10
    return [list(row) for row in zip(traj.times, traj.sources, traj.targets)]


def path_rows(field, parsed):
    path = varsolve.occupation_rate(parsed.sections["target"]["gamma"], field,
                                    parsed.solve_options()).path
    nodes = list(path.grid.nodes) + [math.inf]
    return [[nodes[c], nodes[c + 1], *path.rho[c], *(path.H[c, x, y] for x, y in EDGES_3)]
            for c in range(len(path.rho))]


def decay_rows(field, parsed):
    m = parsed.sections["mc"]
    points = mc.decay_curve(field, m["x0"], mc.BallTarget(m["center"], m["radius"]),
                            m["times"], m["n_paths"], seed=parsed.seed)
    return [[p.t, p.p_hat, p.ci_low, p.ci_high, p.n, int(p.censored), p.neg_log_rate]
            for p in points]


def same_bits(cell, value):
    if isinstance(value, (int, np.integer)):
        return cell == str(int(value))
    return np.float64(float(cell)).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("command, name, header, rows", [
    ("simulate", "batch.csv",
     "path,seed_index,L_1,L_2,L_3,R_edge1,R_edge2,R_edge3,R_edge4,R_edge5,R_edge6",
     batch_rows),
    ("simulate", "trajectory.csv", "time,from,to", trajectory_rows),
    ("occupation-rate", "path.csv",
     "s_left,s_right,rho_1,rho_2,rho_3,H_edge1,H_edge2,H_edge3,H_edge4,H_edge5,H_edge6",
     path_rows),
    ("mc-ldp", "decay.csv", "t,p_hat,ci_low,ci_high,n,censored,neg_log_rate", decay_rows),
], ids=["batch.csv", "trajectory.csv", "path.csv", "decay.csv"])
def test_csv_artifacts_hold_the_library_records(tmp_path, capsys, command, name, header,
                                                rows):
    # each cell reads back bit for bit as the library's record, and the file
    # is what csv.writer writes for those records
    cfg = write_cfg(tmp_path, CSV_RUN)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rd = only_run_dir(tmp_path / "out", command)
    raw = (rd / name).read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    with open(rd / name, newline="") as fh:
        got = list(csv.reader(fh))
    parsed = config.parse_config(CSV_RUN)
    want = rows(config.build_field(parsed.field), parsed)
    assert ",".join(got[0]) == header
    assert len(got) == len(want) + 1
    for got_row, want_row in zip(got[1:], want):
        assert len(got_row) == len(want_row)
        assert all(same_bits(c, v) for c, v in zip(got_row, want_row)), (got_row, want_row)
    ref = io.StringIO()
    writer = csv.writer(ref)
    writer.writerow(header.split(","))
    writer.writerows([v if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
                     for row in want)
    assert raw == ref.getvalue().encode()
    if command == "occupation-rate":
        # path.csv is the control path; results.json holds every other field
        assert sorted(json.loads((rd / "results.json").read_text())) == \
            ["best_start", "detail", "residuals", "status", "value"]


SOLVER_MODULES = ("scipy.optimize", "scipy.sparse", "scipy.special")

# Runs in a fresh interpreter: which solver modules each stage leaves loaded,
# whether the import loads multiprocessing (which only sampling needs), and
# the occupation-rate value written by the last stage.
IMPORT_PROBE = """
import contextlib, json, sys
out, cfg = sys.argv[1], sys.argv[2]
heavy = %r
loaded = lambda: [m for m in heavy if m in sys.modules]
from selfjump import cli
report = {"import": loaded(), "multiprocessing": "multiprocessing" in sys.modules}
with contextlib.redirect_stdout(sys.stderr):
    codes = [cli.main([c, "--config", cfg, "--out", out])
             for c in ("validate", "simulate", "fixed-point", "mc-ldp")]
    report["sampling"] = loaded()
    codes.append(cli.main(["occupation-rate", "--config", cfg, "--out", out]))
report["solve"] = loaded()
report["codes"] = codes
print(json.dumps(report))
""" % (SOLVER_MODULES,)


def test_sampling_commands_do_not_load_the_solver_modules(tmp_path, capsys):
    doc = {"field": {"family": "autochemotaxis", "q0": [[-2.0, 2.0], [1.0, -1.0]],
                     "strength": 1.0},
           "seed": 3,
           "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 3},
           "mc": {"x0": 1, "times": [2.0, 4.0], "n_paths": 20,
                  "center": [0.5, 0.5], "radius": 0.3, "rate": 0.02},
           "target": {"gamma": [0.6, 0.4]}, "solver": dict(FAST_SOLVER)}
    cfg = write_cfg(tmp_path, doc)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "fresh"), cfg],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 5
    assert report["import"] == [] and report["sampling"] == []
    assert report["multiprocessing"] is False
    assert report["solve"] == list(SOLVER_MODULES)
    # the lazily imported solver gives the in-process value bit for bit
    assert run(["occupation-rate", "--config", cfg, "--out", str(tmp_path / "here")]) == 0
    fresh, here = (json.loads((only_run_dir(tmp_path / root, "occupation-rate")
                               / "results.json").read_text())["value"]
                   for root in ("fresh", "here"))
    assert fresh.hex() == here.hex()


def test_rate_rerun_is_byte_identical(tmp_path, capsys):
    doc = {"field": UNIT_FIELD, "seed": 0,
           "target": {"gamma": [0.6, 0.4]}, "solver": dict(FAST_SOLVER)}
    cfg = write_cfg(tmp_path, doc)
    out_root = tmp_path / "out"
    assert run(["occupation-rate", "--config", cfg, "--out", str(out_root)]) == 0
    rd = only_run_dir(out_root, "occupation-rate")
    kept = {name: (rd / name).read_bytes()
            for name in ("results.json", "path.csv", "value.csv")}
    assert run(["occupation-rate", "--config", cfg, "--out", str(out_root)]) == 0
    for name, blob in kept.items():
        assert (rd / name).read_bytes() == blob


CHEMO_FIELD = {"family": "autochemotaxis", "q0": [[-2.0, 2.0], [1.0, -1.0]],
               "strength": 1.0}
NAN = float("nan")
# rates that overflow: a vertex entry of strength + 1 times 2, and a d = 3
# field with finite vertices whose candidate rate (d - 1) * rate_upper is inf
OVERFLOWING_FIELDS = [
    dict(CHEMO_FIELD, strength=1.0e308),
    {"family": "constant",
     "q0": [[-1.7e308, 1.7e308, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]},
]


@pytest.mark.parametrize("doc, location", [
    ({"simulate": {"x0": 1, "horizon": NAN}}, "simulate.horizon"),
    ({"simulate": {"x0": 1, "horizon": float("inf")}}, "simulate.horizon"),
    ({"target": {"gamma": [0.5, 0.6]}}, "target.gamma"),
    ({"target": {"gamma": [1.2, -0.2]}}, "target.gamma"),
    ({"mc": {"x0": 1, "times": [1.0], "n_paths": 2, "center": [0.7, 0.7],
             "radius": 0.1}}, "mc.center"),
    ({"mc": {"x0": 1, "times": [NAN], "n_paths": 2, "center": [0.5, 0.5],
             "radius": 0.1}}, "mc.times[0]"),
    ({"solver": {"grid_horizon": 0.5}}, "solver.grid_horizon"),
    ({"solver": {"grid_cells": 1}}, "solver.grid_cells"),
    ({"solver": {"n_starts": 0}}, "solver.n_starts"),
    ({"solver": {"seed": 3}}, "solver: unknown key 'seed'"),
    ({"solver": {"h_floor": 1e-8}}, "solver: unknown key 'h_floor'"),
    ({"target": {"current": [[0.0, 1.0], [0.5, 0.0]]}}, "target.current"),
    ({"target": {"flux": [[0.0, -1.0], [1.0, 0.0]]}}, "target.flux"),
    ({"field": dict(CHEMO_FIELD, q0=[[-2.0, NAN], [1.0, -1.0]])}, "field.q0[0][1]"),
    ({"field": dict(CHEMO_FIELD, strength=NAN)}, "field.strength"),
    ({"field": dict(CHEMO_FIELD, strength=-1.0)}, "field"),
    ({"field": dict(CHEMO_FIELD, family=["constant"])}, "field.family"),
    # e^-800, the solver grid's tail weight, underflows to 0
    ({"solver": {"grid_horizon": 800, "grid_cells": 8}}, "solver.grid_horizon"),
    ({"field": OVERFLOWING_FIELDS[0]}, "field"),
    ({"field": OVERFLOWING_FIELDS[1]}, "field"),
])
def test_invalid_run_file_exits_2_at_location(tmp_path, capsys, doc, location):
    full = {"field": CHEMO_FIELD, **doc}
    cfg = write_cfg(tmp_path, full)
    assert run(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {location}")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", OVERFLOWING_FIELDS, ids=["vertex", "candidate-rate"])
def test_simulate_on_overflowing_rates_exits_2_in_one_line(tmp_path, field):
    # in a fresh process, so numpy's overflow warnings would reach stderr
    cfg = write_cfg(tmp_path, {"field": field, "simulate": {"x0": 1, "horizon": 5.0}})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "selfjump.cli", "simulate", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("config error: field: ")
    assert not (tmp_path / "out").exists()


def test_library_input_error_exits_1_in_one_line(tmp_path, capsys, monkeypatch):
    # a rule the run file does not restate still ends in one line, not a traceback
    def reject(*args, **kwargs):
        raise errors.InvalidInput("n_paths must be >= 1, got 0")

    monkeypatch.setattr(sim, "batch_simulate", reject)
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD, "simulate": {"x0": 1, "horizon": 5.0}})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: n_paths must be >= 1, got 0"]


def test_results_json_is_strict_json(tmp_path, capsys, monkeypatch):
    # RFC 8259 has no Infinity or NaN, so a solve that ends at +inf writes null
    solve = varsolve.occupation_rate
    monkeypatch.setattr(varsolve, "occupation_rate", lambda *args: dataclasses.replace(
        solve(*args), value=math.inf))
    cfg = write_cfg(tmp_path, {"field": UNIT_FIELD, "target": {"gamma": [0.6, 0.4]},
                               "solver": dict(FAST_SOLVER)})
    out_root = tmp_path / "out"
    assert run(["occupation-rate", "--config", cfg, "--out", str(out_root)]) == 0
    rd = only_run_dir(out_root, "occupation-rate")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert json.loads((rd / "results.json").read_text(), parse_constant=reject)["value"] \
        is None
    assert (rd / "value.csv").read_text().splitlines()[1].startswith("inf,")


MC_RUN = {"x0": 1, "times": [1.0, 2.0], "n_paths": 5, "center": [0.5, 0.5], "radius": 0.2}
BALL = mc.BallTarget([0.5, 0.5], 0.2)
NEGATIVE_FLUX = [[0.0, -1.0], [1.0, 0.0]]
SYMMETRIC_CURRENT = [[0.0, 1.0], [1.0, 0.0]]


# One row per input rule that a run-file key feeds to the library: the
# library call that breaks it on the CHEMO_FIELD field, the run-file fragment
# with the same bad value, and the key's location.
@pytest.mark.parametrize("call, doc, location", [
    pytest.param(lambda f: sim.simulate_thinning(f, 1, 1.0, -1), {"seed": -1},
                 "config.seed", id="seed-negative"),
    pytest.param(lambda f: sim.simulate_thinning(f, 1, 1.0, 2 ** 64), {"seed": 2 ** 64},
                 "config.seed", id="seed-64-bits"),
    pytest.param(lambda f: sim.batch_simulate(f, 3, 1.0, 1, 0),
                 {"simulate": {"x0": 3, "horizon": 1.0}}, "simulate.x0", id="x0"),
    pytest.param(lambda f: mc.decay_curve(f, 0, BALL, [1.0], 5),
                 {"mc": dict(MC_RUN, x0=0)}, "mc.x0", id="mc-x0"),
    pytest.param(lambda f: sim.batch_simulate(f, 1, 0.0, 1, 0),
                 {"simulate": {"x0": 1, "horizon": 0.0}}, "simulate.horizon", id="horizon"),
    pytest.param(lambda f: mc.decay_curve(f, 1, BALL, [2.0, 0.0], 5),
                 {"mc": dict(MC_RUN, times=[2.0, 0.0])}, "mc.times", id="times"),
    pytest.param(lambda f: sim.batch_simulate(f, 1, 1.0, 0, 0),
                 {"simulate": {"x0": 1, "horizon": 1.0, "n_paths": 0}}, "simulate.n_paths",
                 id="n_paths"),
    pytest.param(lambda f: mc.decay_curve(f, 1, BALL, [1.0], 0),
                 {"mc": dict(MC_RUN, n_paths=0)}, "mc.n_paths", id="mc-n_paths"),
    pytest.param(lambda f: mc.BallTarget([0.5, 0.5], 2.5),
                 {"mc": dict(MC_RUN, radius=2.5)}, "mc.radius", id="radius"),
    pytest.param(lambda f: mc.BallTarget([0.7, 0.7], 0.2),
                 {"mc": dict(MC_RUN, center=[0.7, 0.7])}, "mc.center", id="center"),
    pytest.param(lambda f: varsolve.occupation_rate([1.2, -0.2], f),
                 {"target": {"gamma": [1.2, -0.2]}}, "target.gamma", id="gamma"),
    pytest.param(lambda f: varsolve.solve_rate([0.5, 0.5], NEGATIVE_FLUX, f),
                 {"target": {"flux": NEGATIVE_FLUX}}, "target.flux", id="flux"),
    pytest.param(lambda f: varsolve.current_rate(SYMMETRIC_CURRENT, f),
                 {"target": {"current": SYMMETRIC_CURRENT}}, "target.current", id="current"),
    pytest.param(lambda f: varsolve.SolveOptions(grid_horizon=800.0),
                 {"solver": {"grid_horizon": 800.0}}, "solver.grid_horizon",
                 id="grid_horizon"),
    pytest.param(lambda f: varsolve.SolveOptions(grid_cells=1),
                 {"solver": {"grid_cells": 1}}, "solver.grid_cells", id="grid_cells"),
    pytest.param(lambda f: varsolve.SolveOptions(n_starts=0),
                 {"solver": {"n_starts": 0}}, "solver.n_starts", id="n_starts"),
    pytest.param(lambda f: ldp.fixed_point_pi_star(f, tol=-1.0),
                 {"fixed_point": {"tol": -1.0}}, "fixed_point.tol", id="fixed_point-tol"),
    pytest.param(lambda f: ldp.fixed_point_pi_star(f, max_iter=0),
                 {"fixed_point": {"max_iter": 0}}, "fixed_point.max_iter",
                 id="fixed_point-max_iter"),
    pytest.param(lambda f: ldp.fixed_point_multistart(f, n_starts=0),
                 {"fixed_point": {"n_starts": 0}}, "fixed_point.n_starts",
                 id="fixed_point-n_starts"),
    pytest.param(lambda f: core.RateField.autochemotaxis(np.array(CHEMO_FIELD["q0"]),
                                                         1.0e308),
                 {"field": OVERFLOWING_FIELDS[0]}, "field", id="vertex-overflow"),
    pytest.param(lambda f: core.RateField.constant(np.array(OVERFLOWING_FIELDS[1]["q0"])),
                 {"field": OVERFLOWING_FIELDS[1]}, "field", id="candidate-rate-overflow"),
])
def test_library_and_run_file_apply_one_rule(tmp_path, capsys, call, doc, location):
    field = config.build_field(config.parse_config({"field": CHEMO_FIELD}).field)
    with np.errstate(over="ignore"), pytest.raises(errors.InvalidInput) as exc:
        call(field)
    cfg = write_cfg(tmp_path, {"field": CHEMO_FIELD, **doc})
    assert run(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {location}: {exc.value}\n"


def test_run_file_fields_match_their_classmethods(family_params, family_fields):
    for name, params in family_params.items():
        fc = config.parse_config({"field": {"family": name, **params}}).field
        built, ref = config.build_field(fc), family_fields[name]
        assert (built.family, built.d, fc.d) == (name, ref.d, ref.d)
        assert np.array_equal(built.vertices, ref.vertices)
        assert np.array_equal(built.support, ref.support)
        assert built.rate_upper == ref.rate_upper
        assert built.rate_lower_coeff == ref.rate_lower_coeff


VALID_RUN = {
    "field": CHEMO_FIELD,
    "seed": 3,
    "simulate": {"x0": 1, "horizon": 5.0, "n_paths": 2},
    "target": {"gamma": [0.6, 0.4], "flux": [[0.0, 0.5], [0.5, 0.0]],
               "current": [[0.0, 0.0], [0.0, 0.0]]},
    "solver": {"grid_horizon": 8.0, "grid_cells": 8, "n_starts": 1},
    "mc": {"x0": 1, "times": [1.0, 2.0], "n_paths": 5, "center": [0.5, 0.5],
           "radius": 0.2, "rate": 0.1},
    "fixed_point": {"tol": 1e-9, "max_iter": 20, "n_starts": 2},
}


def test_valid_run_covers_every_section_key():
    assert {name: sorted(VALID_RUN[name]) for name in config.SECTIONS} == \
        {name: sorted(keys) for name, keys in config.SECTIONS.items()}


@pytest.mark.parametrize("section, callee, kept", [
    ("simulate", sim.batch_simulate, ()),
    ("solver", varsolve.SolveOptions, ()),
    ("fixed_point", ldp.fixed_point_multistart, ()),
], ids=lambda v: getattr(v, "__name__", None))
def test_forwarded_section_keys_are_parameters_of_their_callee(section, callee, kept):
    # the CLI passes these sections on by keyword (less the keys it keeps),
    # so a renamed parameter fails here rather than in a run
    params = inspect.signature(callee).parameters
    assert sorted(set(config.SECTIONS[section]) - set(kept) - set(params)) == []

@pytest.mark.parametrize("section, key, value", [
    ("solver", "penalty_init", 100.0), ("solver", "penalty_factor", 10.0),
    ("solver", "penalty_rounds", 6), ("solver", "inner_maxiter", 300),
    ("solver", "tol_marginal", 1e-5), ("solver", "tol_stationarity", 1e-5),
    ("solver", "tol_flux", 1e-5), ("solver", "balance_tol", 1e-10),
    ("solver", "rho_floor", 1e-6), ("solver", "early_stop_value", 1e-8),
    ("mc", "sampler", "thinning"), ("simulate", "sampler", "thinning"),
])
def test_removed_knobs_exit_2(tmp_path, capsys, section, key, value):
    full = copy.deepcopy(VALID_RUN)
    full[section][key] = value
    cfg = write_cfg(tmp_path, full)
    assert run(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: unknown key '{key}'")
    assert "Traceback" not in err


_numbers = st.one_of(
    st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 1.5, -1.0, 1e300, 10 ** 400]))
_scalars = st.one_of(_numbers, _numbers, st.none(), st.booleans(), st.text(max_size=4),
                     st.sampled_from(["constant", "affine", "congestion", "thinning"]))
_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=2)),
    max_leaves=6)


def _leaves(doc, prefix=()):
    """Every key path into a nested mapping/list document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, prefix + (key,))


_PATHS = list(_leaves(VALID_RUN))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.sampled_from(_PATHS), st.booleans(), _values),
                      min_size=1, max_size=3))
def test_validate_never_raises_on_mutated_run_files(edits):
    doc = copy.deepcopy(VALID_RUN)
    for path, delete, value in edits:
        node = doc
        for key in path[:-1]:
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                node = None
                break
        if not isinstance(node, (dict, list)):
            continue
        try:
            if delete:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["validate", "--config", str(cfg)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("tiny", [False, True])
def test_benchmark_run_files_validate(tmp_path, capsys, monkeypatch, tiny):
    # every run file the benchmark writes must stay a valid run file
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        job = workloads.make_job(name, workloads.DEFAULT_SEED, workdir, tiny=tiny)
        config_path = job.argv[job.argv.index("--config") + 1]
        assert run(["validate", "--config", config_path]) == 0, name
        assert "config OK" in capsys.readouterr().out


def test_benchmark_selftest_passes():
    # the benchmark's hooks into sim, varsolve and cli must survive refactors
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "17 of 17 cases as expected" in proc.stdout, proc.stdout


def test_benchmark_mc_decay_meets_its_seeded_references(tmp_path, monkeypatch):
    # the benchmark's mc-decay run at its default seed: hits (479, 84, 3)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    job = workloads.make_job("mc-decay", workloads.DEFAULT_SEED, tmp_path)
    assert run(job.argv + ["--out", str(tmp_path / "out")]) == 0
    assert job.check(job.run_dir(tmp_path / "out")) == []
