"""Sweep orchestration, persistence, resume, determinism and the CLI."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import emitpair as ep
from emitpair import liouville, sweep
from emitpair.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, EXIT_RUNTIME, main
from emitpair.config import load_config, parse_overrides
from emitpair.sweep import (
    SweepInterrupted,
    effective_workers,
    read_result,
    run_sweep,
    write_result,
)

SMALL_MAP = """
[emitter]
kr12 = 0.05
rabi = 30.0

[sensors]
linewidth = 1.0

[task]
kind = g2map

[grid]
omega_min = 20.0
omega_max = 30.0
count = 3
omega2_min = -30.0
omega2_max = -20.0
omega2_count = 3
"""

# every point is far off resonance, so each row is flagged with NaN values
FLAGGED_MAP = """
[task]
kind = g2map

[grid]
omega_min = 49000
omega_max = 51000
count = 2
omega2_min = -51000
omega2_max = -49000
omega2_count = 2
"""


def _load_at(text, path):
    """``text`` with ``output.path = path``, so the sweep checkpoints to ``path.ckpt``."""
    return load_config(text, parse_overrides([f"output.path={path}"]))


def test_dressed_task_values(tmp_path):
    cfg = load_config("[task]\nkind = dressed\n")
    table = run_sweep(cfg, timestamp=False)
    assert table.columns == ["delta12", "gamma12", "e1", "e2", "e3", "d12", "d23", "d13"]
    assert len(table.rows) == 1
    row = dict(zip(table.columns, table.rows[0]))
    oracle = ep.dipole_coefficients(cfg.emitter)
    tri = ep.dressed_triplet(cfg.emitter, oracle)
    assert row["delta12"] == pytest.approx(oracle.delta12)
    assert row["gamma12"] == pytest.approx(oracle.gamma12)
    assert row["e2"] == 0.0
    assert row["d13"] == pytest.approx(tri.d13)
    assert row["d13"] == pytest.approx(row["d12"] + row["d23"])


def test_g2map_rows_in_grid_order():
    cfg = load_config(SMALL_MAP)
    table = run_sweep(cfg, timestamp=False)
    assert table.columns == ["omega1", "omega2", "g2", "status"]
    assert len(table.rows) == 9
    omegas = [(row[0], row[1]) for row in table.rows]
    expected = [(a, b) for a in (20.0, 25.0, 30.0) for b in (-30.0, -25.0, -20.0)]
    assert omegas == expected
    assert all(row[3] == "ok" for row in table.rows)
    assert table.flagged_count == 0


def test_spectrum_sensor_task_matches_library():
    cfg = load_config(
        "[task]\nkind = spectrum\nmethod = sensor\n\n"
        "[grid]\nomega_min = -5\nomega_max = 5\ncount = 3\n"
    )
    table = run_sweep(cfg, timestamp=False)
    assert table.columns == ["omega", "value"]
    scan = ep.spectrum_sensor_scan(
        cfg.emitter,
        omega_grid=np.array([-5.0, 0.0, 5.0]),
        sensor_linewidth=1.0,
        normalize=False,
    )
    values = [row[1] for row in table.rows]
    np.testing.assert_allclose(values, scan.values, rtol=1e-12)


def test_sensor_spectrum_refuses_undriven():
    cfg = load_config(
        "[emitter]\nrabi = 0\n\n[task]\nkind = spectrum\nmethod = sensor\n\n"
        "[grid]\nomega_min = -5\nomega_max = 5\ncount = 3\n"
    )
    with pytest.raises(ValueError, match="zero emitted intensity"):
        ep.spectrum_sensor_scan(cfg.emitter, omega_grid=np.array([-5.0, 0.0, 5.0]))
    with pytest.raises(ValueError, match="zero emitted intensity"):
        run_sweep(cfg, timestamp=False)


def test_g2tau_task_columns():
    cfg = load_config(
        "[emitter]\nkr12 = 0.05\nrabi = 30.0\n\n"
        "[task]\nkind = g2tau\nomega1 = d12\nomega2 = -d12\n\n"
        "[tau]\nmin = -1\nmax = 1\ncount = 5\n"
    )
    table = run_sweep(cfg, timestamp=False)
    assert table.columns == ["tau", "g2"]
    assert [row[0] for row in table.rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(row[1] > 0 for row in table.rows)


def test_flagged_rows_instead_of_abort():
    cfg = load_config(FLAGGED_MAP)
    table = run_sweep(cfg, timestamp=False)
    assert len(table.rows) == 4
    assert table.flagged_count == 4
    statuses = {row[3] for row in table.rows}
    assert statuses == {"undefined_correlation"}
    assert all(math.isnan(row[2]) for row in table.rows)


def test_point_tasks_compute_on_the_configured_emitter(tmp_path):
    # a point must see every emitter field, not a rebuilt copy
    cfg = _load_at(SMALL_MAP, tmp_path / "map.csv")
    emitter = dataclasses.replace(cfg.emitter, laser_direction=(1.0, 0.0, 0.0))
    cfg = dataclasses.replace(
        cfg, emitter=emitter, omega_axis=(25.0, 25.0, 1), omega2_axis=(-25.0, -25.0, 1)
    )
    table = run_sweep(cfg, timestamp=False)
    assert table.rows[0][2] == ep.sensor_g2(emitter, 25.0, -25.0, 1.0).g2


def test_csv_round_trip_zero_diff(tmp_path):
    cfg = load_config(SMALL_MAP)
    table = run_sweep(cfg, timestamp=False)
    path = tmp_path / "map.csv"
    write_result(table, path, "csv")
    reloaded = read_result(path)
    assert reloaded.columns == table.columns
    assert reloaded.rows == table.rows
    second = tmp_path / "map2.csv"
    write_result(reloaded, second, "csv")
    assert path.read_bytes() == second.read_bytes()


def test_json_round_trip(tmp_path):
    cfg = load_config("[task]\nkind = dressed\n")
    table = run_sweep(cfg, timestamp=False)
    path = tmp_path / "dressed.json"
    write_result(table, path, "json")
    payload = json.loads(path.read_text())
    assert payload["format"] == "emitpair-result"
    reloaded = read_result(path)
    assert reloaded.columns == table.columns
    assert reloaded.rows == table.rows


def test_header_echoes_defaults(tmp_path):
    cfg = load_config(SMALL_MAP)
    table = run_sweep(cfg, timestamp=False)
    assert table.header["engine_version"] == ep.__version__
    assert table.header["sensors.epsilon"] == 1e-4  # default, echoed
    assert table.header["emitter.kr12"] == 0.05
    assert "generated_at" not in table.header


def test_determinism_identical_bytes(tmp_path):
    cfg = load_config(SMALL_MAP)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_result(run_sweep(cfg, timestamp=False), a, "csv")
    write_result(run_sweep(cfg, timestamp=False), b, "csv")
    assert a.read_bytes() == b.read_bytes()


def test_parallel_matches_serial(tmp_path):
    cfg = load_config(SMALL_MAP)
    serial = run_sweep(cfg, workers=1, timestamp=False)
    parallel = run_sweep(cfg, workers=2, timestamp=False)
    assert serial.rows == parallel.rows


def _interrupt_on_call(monkeypatch, n, task="g2map"):
    """Make the ``task`` kernel raise KeyboardInterrupt on its ``n``-th call."""
    columns, kernel = sweep._POINT_TASKS[task]
    calls = 0

    def interrupting(*args):
        nonlocal calls
        calls += 1
        if calls == n:
            raise KeyboardInterrupt
        return kernel(*args)

    monkeypatch.setitem(sweep._POINT_TASKS, task, (columns, interrupting))


def test_interrupt_and_resume_reproduces_full_table(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "CHECKPOINT_EVERY", 2)
    cfg = _load_at(SMALL_MAP, tmp_path / "map.csv")
    ckpt = tmp_path / "map.csv.ckpt"
    full = run_sweep(cfg, workers=1, timestamp=False)
    with monkeypatch.context() as patch:
        _interrupt_on_call(patch, 6)
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(cfg, workers=1, timestamp=False)
    assert info.value.checkpoint_path == str(ckpt)
    # the interrupt saves the fifth point too, past the periodic checkpoint at four
    assert len(json.loads(ckpt.read_text())["completed"]) == 5
    resumed = run_sweep(cfg, workers=1, resume_from=str(ckpt), timestamp=False)
    assert resumed.rows == full.rows
    assert not ckpt.exists()  # consumed on success


def test_resume_rejects_other_config(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "CHECKPOINT_EVERY", 1)
    cfg = _load_at(SMALL_MAP, tmp_path / "x.csv")
    ckpt = tmp_path / "x.csv.ckpt"
    _interrupt_on_call(monkeypatch, 3)
    with pytest.raises(SweepInterrupted):
        run_sweep(cfg, workers=1, timestamp=False)
    other = load_config(SMALL_MAP, parse_overrides(["emitter.rabi=25"]))
    with pytest.raises(ValueError, match="different configuration"):
        run_sweep(other, resume_from=str(ckpt), timestamp=False)


def test_resume_rejects_a_checkpoint_of_another_engine_version(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "CHECKPOINT_EVERY", 1)
    bell = "[task]\nkind = bell\nline_sum = 0\n\n[grid]\ncount = 3\n"
    cfg = _load_at(bell, tmp_path / "bell.csv")
    ckpt = tmp_path / "bell.csv.ckpt"
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "__version__", "0.1.0")  # the four-sensor engine
        _interrupt_on_call(patch, 2, task="bell")
        with pytest.raises(SweepInterrupted):
            run_sweep(cfg, workers=1, timestamp=False)
    assert len(json.loads(ckpt.read_text())["completed"]) == 1
    with pytest.raises(ValueError, match="engine version"):
        run_sweep(cfg, workers=1, resume_from=str(ckpt), timestamp=False)


def test_resume_on_a_table_task_is_refused(tmp_path):
    # a table task keeps no checkpoint, so a resume request cannot be honoured
    missing = tmp_path / "nonexist.ckpt"
    with pytest.raises(ValueError, match="keeps no checkpoint"):
        run_sweep(load_config("[task]\nkind = dressed\n"), resume_from=str(missing))
    out = tmp_path / "fig1b.csv"
    assert main(["run", "fig1b", "--resume", str(missing), "--out", str(out)]) == EXIT_RUNTIME
    assert not out.exists()


def test_bell_line_solves_the_atomic_steady_state_once_per_emitter(monkeypatch):
    original = liouville.steady_state
    calls = []

    def counted(superoperator, *args, **kwargs):
        calls.append(superoperator.csr.shape[0])
        return original(superoperator, *args, **kwargs)

    monkeypatch.setattr(liouville, "steady_state", counted)
    liouville.atomic_model.cache_clear()
    for kr12 in (0.05, 0.3):
        cfg = load_config(
            f"[emitter]\nkr12 = {kr12}\n\n[task]\nkind = bell\nline_sum = 0\n\n"
            "[grid]\ncount = 4\n"
        )
        table = run_sweep(cfg, workers=1, timestamp=False)
        assert len(table.rows) == 4
    assert calls == [16, 16]


def _strict_json(text):
    """Parse standard JSON only: NaN and Infinity tokens raise."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_flagged_rows_are_strict_json(tmp_path):
    cfg = load_config(FLAGGED_MAP)
    table = run_sweep(cfg, timestamp=False)
    path = tmp_path / "flagged.json"
    write_result(table, path, "json")

    payload = _strict_json(path.read_text())
    assert all(row[2] is None for row in payload["rows"])
    reloaded = read_result(path)
    assert [row[:2] + row[3:] for row in reloaded.rows] == [
        row[:2] + row[3:] for row in table.rows
    ]
    assert all(math.isnan(row[2]) for row in reloaded.rows)


def test_checkpoint_with_flagged_row_resumes(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "CHECKPOINT_EVERY", 1)
    cfg = _load_at(FLAGGED_MAP, tmp_path / "flagged.csv")
    ckpt = tmp_path / "flagged.csv.ckpt"
    with monkeypatch.context() as patch:
        _interrupt_on_call(patch, 3)
        with pytest.raises(SweepInterrupted):
            run_sweep(cfg, workers=1, timestamp=False)
    payload = _strict_json(ckpt.read_text())
    assert [row for row, _ in payload["completed"].values()] == [
        [49000.0, -51000.0, None],
        [49000.0, -49000.0, None],
    ]
    resumed = run_sweep(cfg, workers=1, resume_from=str(ckpt), timestamp=False)
    assert resumed.flagged_count == 4
    assert all(math.isnan(row[2]) for row in resumed.rows)
    assert not ckpt.exists()


def test_effective_workers_bell_cap():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert effective_workers("g2map", 0) == cores
    assert effective_workers("bell", 0) <= max(1, cores // 2)
    assert effective_workers("g2map", 3) == 3


def test_effective_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert effective_workers("g2map", 0) == 1
    assert effective_workers("bell", 0) == 1
    assert effective_workers("g2map", 3) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert effective_workers("g2map", 0) == 64
    assert effective_workers("bell", 0) == 32


# ---------------------------------------------------------------------------
# CLI

def test_cli_validate_preset(capsys):
    assert main(["validate", "fig1b"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "emitter.kr12 = 0.05" in out
    assert "sensors.epsilon = 0.0001" in out


def test_cli_presets_list(capsys):
    assert main(["presets", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in (
        "fig1b",
        "fig2a",
        "fig2c",
        "fig3b",
        "fig3c",
        "fig4a",
        "fig4b",
        "fig4c",
        "mollow-single-atom",
        "independent-atoms",
    ):
        assert name in out


def test_cli_unknown_config_is_config_error(capsys):
    assert main(["validate", "no-such-config"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_validate_refuses_an_emitter_the_solver_cannot_certify(capsys):
    # the dressed triplet is finite, but the atomic steady state fails its check
    assert main(["validate", "fig2c", "--set", "emitter.kr12=1e-100"]) == EXIT_CONFIG
    assert "config error: emitter: steady-state residual" in capsys.readouterr().err


@pytest.mark.parametrize("preset, extra", [
    ("fig1b", []), ("fig3c", []), ("fig2a", ["--set", "grid.count=2"]),
], ids=["spectrum", "bell", "map"])
def test_cli_run_refuses_an_emitter_the_solver_cannot_certify(preset, extra, tmp_path, capsys):
    # run certifies the emitter as validate does: a config error, and no output
    out = tmp_path / f"{preset}.csv"
    argv = ["run", preset, "--set", "emitter.kr12=1e-100", *extra, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "config error: emitter: steady-state residual" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_near_contact_pair_is_not_a_traceback(capsys):
    # gamma12 rounds to 1 + 2e-16 here; clamped, the model builds and only
    # the atomic steady state fails its check
    argv = ["validate", "fig1b", "--set", "emitter.kr12=1e-12",
            "--set", "emitter.cos_theta12=-0.55"]
    assert main(argv) == EXIT_CONFIG
    assert "config error: emitter: " in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe[emitter]\n"),  # not UTF-8
], ids=["directory", "not-utf8"])
def test_cli_unreadable_config_is_config_error(make, tmp_path, capsys):
    path = tmp_path / "config.cfg"
    make(path)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert f"config error: cannot read config {path}: " in capsys.readouterr().err


def test_cli_bad_override_is_config_error(capsys):
    assert main(["validate", "fig1b", "--set", "emitter.kr12=-2"]) == EXIT_CONFIG
    assert "emitter.kr12" in capsys.readouterr().err


def test_cli_non_finite_override_is_config_error(capsys):
    assert main(["validate", "fig1b", "--set", "emitter.kr12=inf"]) == EXIT_CONFIG
    assert "config error: emitter.kr12" in capsys.readouterr().err


def test_cli_normalizes_extreme_directions(capsys):
    for raw, echoed in (
        ("1e300,1e300,0", "0.7071067811865475,0.7071067811865475,0.0"),
        ("1e-200,0,0", "1.0,0.0,0.0"),
    ):
        argv = ["validate", "fig1b", "--set", f"emitter.laser_direction={raw}"]
        assert main(argv) == EXIT_OK
        assert f"emitter.laser_direction = {echoed}" in capsys.readouterr().out
    argv = ["validate", "fig1b", "--set", "emitter.laser_direction=0,0,0"]
    assert main(argv) == EXIT_CONFIG
    assert "laser_direction must be finite and nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["fig3c", "fig4c"])
def test_bell_presets_run_whole(preset, tmp_path, capsys):
    # the shipped 81-point Bell lines, twice, through the CLI at one worker; one
    # path for both runs, since the header echoes it
    path = tmp_path / f"{preset}.csv"
    argv = ["run", preset, "--no-timestamp", "--set", "run.workers=1", "--out", str(path)]
    runs = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]
    table = read_result(path)
    assert len(table.rows) == 81
    assert table.flagged_count == 0
    omega1 = [row[0] for row in table.rows]
    bell = [row[2] for row in table.rows]
    # the grid is symmetric, so row i holds (w, -w) and row 80 - i (-w, w)
    for i in range(81):
        assert omega1[i] == pytest.approx(-omega1[80 - i], abs=1e-12)
        assert bell[i] == pytest.approx(bell[80 - i], abs=1e-6)


def test_cli_run_small_map(tmp_path, capsys):
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text(SMALL_MAP)
    out_file = tmp_path / "small.csv"
    code = main(
        ["run", str(cfg_file), "--out", str(out_file), "--no-timestamp"]
    )
    assert code == EXIT_OK
    table = read_result(out_file)
    assert len(table.rows) == 9
    assert "generated_at" not in table.header


def test_cli_run_partial_exit_code(tmp_path):
    cfg_file = tmp_path / "far.cfg"
    cfg_file.write_text(
        "[task]\nkind = g2map\n\n"
        "[grid]\nomega_min = 49000\nomega_max = 51000\ncount = 2\n"
        "omega2_min = -51000\nomega2_max = -49000\nomega2_count = 2\n"
    )
    out_file = tmp_path / "far.csv"
    assert main(["run", str(cfg_file), "--out", str(out_file)]) == EXIT_PARTIAL


def test_cli_set_override_changes_output(tmp_path):
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text("[emitter]\nkr12 = 0.05\nrabi = 30.0\n\n[task]\nkind = dressed\n")
    out_file = tmp_path / "d.csv"
    code = main(
        [
            "run",
            str(cfg_file),
            "--set",
            "emitter.kr12=0.1",
            "--out",
            str(out_file),
            "--no-timestamp",
        ]
    )
    assert code == EXIT_OK
    table = read_result(out_file)
    assert table.columns[0] == "delta12"
    assert table.header["emitter.kr12"] == 0.1


def test_cli_rejects_stale_sections_on_task_switch(tmp_path, capsys):
    # switching task via --set keeps validation strict about leftover sections
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text(SMALL_MAP)
    assert main(["validate", str(cfg_file), "--set", "task.kind=dressed"]) == EXIT_CONFIG
    assert "grid" in capsys.readouterr().err


def test_cli_json_format(tmp_path):
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text("[task]\nkind = dressed\n")
    out_file = tmp_path / "d.json"
    code = main(
        ["run", str(cfg_file), "--set", "output.format=csv", "--out", str(out_file),
         "--format", "json", "--no-timestamp"]
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["format"] == "emitpair-result"
    # the flags are the output keys: they win over --set and the header echoes them
    assert payload["header"]["output.format"] == "json"
    assert payload["header"]["output.path"] == str(out_file)


@pytest.mark.parametrize(
    "flag, value, key", [("--workers", "-3", "run.workers"), ("--format", "hdf5", "output.format")]
)
def test_cli_flags_are_validated_as_config_keys(flag, value, key, tmp_path, capsys):
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text("[task]\nkind = dressed\n")
    out_file = tmp_path / "d.csv"
    assert main(["run", str(cfg_file), "--out", str(out_file), flag, value]) == EXIT_CONFIG
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out_file.exists()
