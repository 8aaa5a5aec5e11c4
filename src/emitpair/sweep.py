"""Parallel sweep execution, checkpointing and result persistence.

A sweep is an immutable list of independent grid points dispatched to a pool
of stateless workers; rows are emitted in grid order regardless of completion
order, so identical configurations reproduce identical tables bit for bit.
Per-point failures become flagged rows with a reason code instead of aborting
the sweep.  Completed points are checkpointed periodically so an interrupted
sweep resumes without recomputation.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from . import __version__
from .config import RunConfig
from .dipole import dipole_coefficients, dressed_triplet, effective_coefficients
from .nonclassicality import bell_quantifier, csi_ratio
from .observables import (
    UndefinedCorrelationError,
    sensor_g2,
    sensor_g2_tau,
    spectrum_fourier,
    spectrum_sensor_scan,
)

__all__ = [
    "ResultTable",
    "SweepInterrupted",
    "run_sweep",
    "write_result",
    "read_result",
    "effective_workers",
]

STATUS_OK = "ok"
# completed grid points between two checkpoint writes
CHECKPOINT_EVERY = 500


class SweepInterrupted(RuntimeError):
    """A sweep stopped early; the checkpoint path is in ``.checkpoint_path``."""

    def __init__(self, message, checkpoint_path):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass
class ResultTable:
    """Named numeric columns in deterministic grid order, plus a header echo."""

    header: dict
    columns: list
    rows: list = field(default_factory=list)

    @property
    def flagged_count(self):
        if "status" not in self.columns:
            return 0
        idx = self.columns.index("status")
        return sum(1 for row in self.rows if row[idx] != STATUS_OK)


def effective_workers(task, requested):
    """Resolve the worker count; Bell sweeps use at most half the CPUs.

    ``requested = 0`` means one worker per CPU this process may run on (its
    affinity set, where the platform has one).  The Bell cap dates from the
    4096-dim four-sensor solves (about 280 MB each); it stays because a Bell
    point costs about 2.2 ms on the cached atomic model and a 2-worker pool
    about 16 ms to start (2 cores): a short Bell line runs faster serially.
    A negative or non-integer request raises ``ValueError``.
    """
    try:
        requested = operator.index(requested)
    except TypeError:
        raise ValueError(f"worker count must be an integer, not {requested!r}") from None
    if requested < 0:
        raise ValueError(f"worker count must be nonnegative, not {requested}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = cpus if requested == 0 else requested
    if task == "bell":
        workers = min(workers, max(1, cpus // 2))
    return max(1, workers)


# ---------------------------------------------------------------------------
# Point tasks: one steady solve per (omega1, omega2) grid point

def _g2_values(emitter, w1, w2, linewidth, epsilon):
    return (sensor_g2(emitter, w1, w2, linewidth, epsilon),)


def _csi_values(emitter, w1, w2, linewidth, epsilon):
    point = csi_ratio(emitter, w1, w2, linewidth, epsilon)
    return point.ratio, point.g11, point.g22, point.g12


def _bell_values(emitter, w1, w2, linewidth, epsilon):
    point = bell_quantifier(emitter, w1, w2, linewidth, epsilon)
    b1111, b2222, b1221, b1122, _ = point.b_terms
    return point.quantifier, b1111.real, b2222.real, b1221.real, b1122.real, b1122.imag


# task -> (value columns between omega1, omega2 and status; kernel).  Each
# adapter calls the library through this module's own name for it, so that a
# tracer rebinding that name sees every call; a library function stored here
# directly would escape it.
_POINT_TASKS = {
    "g2map": (["g2"], _g2_values),
    "csi": (["ratio", "g11", "g22", "g12"], _csi_values),
    "bell": (["bell", "b1111", "b2222", "b1221", "b1122_re", "b1122_im"], _bell_values),
}


def _eval_point(task, emitter, linewidth, epsilon, point):
    """Evaluate ``point = (index, (w1, w2))``; returns (index, row_values, status).

    The run's task, emitter, linewidth and epsilon come first, so a sweep binds
    them once with :func:`functools.partial` and sends each point only its
    index and frequencies.  A failed point keeps its frequencies and fills its
    value columns with NaN.
    """
    index, (w1, w2) = point
    value_columns, kernel = _POINT_TASKS[task]
    try:
        return index, (w1, w2) + kernel(emitter, w1, w2, linewidth, epsilon), STATUS_OK
    except UndefinedCorrelationError:
        status = "undefined_correlation"
    except Exception as exc:  # isolate the point, record the reason
        status = f"error:{type(exc).__name__}"
    return index, (w1, w2) + (math.nan,) * len(value_columns), status


def _frequency_pairs(cfg: RunConfig):
    """The grid points in row order: along ``line_sum`` or the full product."""
    w1s = [float(w) for w in np.linspace(*cfg.omega_axis)]
    if cfg.line_sum is not None:
        return [(w1, float(cfg.line_sum - w1)) for w1 in w1s]
    return [(w1, float(w2)) for w1 in w1s for w2 in np.linspace(*cfg.omega2_axis)]


# ---------------------------------------------------------------------------
# Table tasks: one computation per run, returning (columns, rows, header extra)

def _dressed_table_rows(cfg: RunConfig):
    emitter = cfg.emitter
    coeffs = effective_coefficients(emitter)
    geometric = dipole_coefficients(emitter) if emitter.atom_count == 2 else coeffs
    triplet = dressed_triplet(emitter, coeffs)
    e1, e2, e3 = triplet.energies
    columns = ["delta12", "gamma12", "e1", "e2", "e3", "d12", "d23", "d13"]
    row = (
        geometric.delta12,
        geometric.gamma12,
        e1,
        e2,
        e3,
        triplet.d12,
        triplet.d23,
        triplet.d13,
    )
    return columns, [row], {}


def _spectrum_rows(cfg: RunConfig):
    grid = np.linspace(*cfg.omega_axis)
    if cfg.method == "sensor":
        result = spectrum_sensor_scan(
            cfg.emitter,
            omega_grid=grid,
            sensor_linewidth=cfg.sensor_linewidth,
            normalize=False,
        )
        extra = {}
    else:
        result = spectrum_fourier(cfg.emitter, omega_grid=grid)
        extra = {"spectrum.elastic_weight": result.elastic_weight}
        if result.narrow_line is not None:
            weight, center, hwhm = result.narrow_line
            extra["spectrum.narrow_line_weight"] = weight
            extra["spectrum.narrow_line_center"] = center
            extra["spectrum.narrow_line_hwhm"] = hwhm
    rows = [(float(w), float(v)) for w, v in zip(result.omega_grid, result.values)]
    return ["omega", "value"], rows, extra


def _g2tau_rows(cfg: RunConfig):
    taus = np.linspace(*cfg.tau_axis)
    values = sensor_g2_tau(
        cfg.emitter, cfg.omega1, cfg.omega2, cfg.sensor_linewidth, taus, cfg.epsilon
    )
    return ["tau", "g2"], list(zip(taus.tolist(), values.tolist())), {}


_TABLE_TASKS = {
    "dressed": _dressed_table_rows,
    "spectrum": _spectrum_rows,
    "g2tau": _g2tau_rows,
}


# ---------------------------------------------------------------------------
# JSON cells: JSON has no NaN, so the NaN cells of flagged rows are null

def _json_row(row):
    return [None if isinstance(v, float) and math.isnan(v) else v for v in row]


def _row_from_json(row):
    return tuple(math.nan if v is None else v for v in row)


# ---------------------------------------------------------------------------
# Checkpointing

def _config_fingerprint(cfg: RunConfig):
    """Hash of the engine version and every config key that changes values.

    A checkpoint written by another engine version does not resume: the
    engines may differ in the last digits of every row.
    """
    relevant = {
        k: v
        for k, v in cfg.echo.items()
        if not k.startswith(("output.", "run."))
    }
    relevant["engine_version"] = __version__
    blob = json.dumps(relevant, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_checkpoint(path, fingerprint, done):
    payload = {
        "format": "emitpair-checkpoint",
        "version": 1,
        "config_fingerprint": fingerprint,
        "completed": {
            str(i): [_json_row(row), status] for i, (row, status) in done.items()
        },
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, allow_nan=False)
    os.replace(tmp, path)


def _load_checkpoint(path, fingerprint):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "emitpair-checkpoint":
        raise ValueError(f"{path} is not a sweep checkpoint")
    if payload.get("config_fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint {path} belongs to a different configuration "
            "or engine version"
        )
    return {
        int(i): (_row_from_json(row), status)
        for i, (row, status) in payload.get("completed", {}).items()
    }


# ---------------------------------------------------------------------------
# Sweep driver

def _base_header(cfg: RunConfig, timestamp):
    header = {"engine_version": __version__}
    header.update(cfg.echo)
    if timestamp:
        header["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    return header


def run_sweep(
    cfg: RunConfig,
    workers: int | None = None,
    resume_from: str | None = None,
    timestamp: bool = True,
) -> ResultTable:
    """Execute a run configuration and return its result table.

    Grid tasks are dispatched to ``workers`` processes (default from the
    config; 0 means one per CPU) with rows emitted in grid order.  One worker,
    or one point left to compute, runs in this process instead; either way
    the results pass through the same loop, which checkpoints the completed
    points to ``<cfg.output_path>.ckpt`` every ``CHECKPOINT_EVERY`` results.
    Pass ``resume_from`` to continue an interrupted sweep.  A keyboard
    interrupt writes the checkpoint and raises :class:`SweepInterrupted`.
    Table tasks keep no checkpoint, so ``resume_from`` raises ``ValueError``
    for them.
    """
    start = time.monotonic()
    header = _base_header(cfg, timestamp)

    if cfg.task in _TABLE_TASKS:
        if resume_from:
            raise ValueError(f"task {cfg.task!r} keeps no checkpoint to resume from")
        columns, rows, extra = _TABLE_TASKS[cfg.task](cfg)
        header.update(extra)
        return _finish(header, columns, rows, start, timestamp)

    pairs = _frequency_pairs(cfg)
    columns = ["omega1", "omega2", *_POINT_TASKS[cfg.task][0], "status"]
    fingerprint = _config_fingerprint(cfg)
    done = {}
    if resume_from:
        done = _load_checkpoint(resume_from, fingerprint)
    ckpt = cfg.output_path + ".ckpt"

    pending = [(i, pair) for i, pair in enumerate(pairs) if i not in done]
    evaluate = functools.partial(
        _eval_point, cfg.task, cfg.emitter, cfg.sensor_linewidth, cfg.epsilon
    )
    n_workers = effective_workers(cfg.task, cfg.workers if workers is None else workers)
    pooled = n_workers > 1 and len(pending) > 1
    chunk = max(1, len(pending) // (n_workers * 8))
    results = map(evaluate, pending)  # lazy: a serial run computes in the loop

    try:
        with Pool(n_workers) if pooled else contextlib.nullcontext() as pool:
            if pooled:
                results = pool.imap_unordered(evaluate, pending, chunk)
            for count, (index, row, status) in enumerate(results, 1):
                done[index] = (row, status)
                if count % CHECKPOINT_EVERY == 0:
                    _write_checkpoint(ckpt, fingerprint, done)
    except KeyboardInterrupt:
        _write_checkpoint(ckpt, fingerprint, done)
        raise SweepInterrupted("sweep interrupted; checkpoint written", ckpt)

    rows = [done[i][0] + (done[i][1],) for i in range(len(pairs))]
    if os.path.exists(ckpt):
        os.remove(ckpt)
    return _finish(header, columns, rows, start, timestamp)


def _finish(header, columns, rows, start, timestamp):
    if timestamp:
        header["elapsed_seconds"] = round(time.monotonic() - start, 3)
    header["rows"] = len(rows)
    return ResultTable(header=header, columns=columns, rows=[tuple(r) for r in rows])


# ---------------------------------------------------------------------------
# Persistence

def _format_cell(value):
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_result(table: ResultTable, path, fmt="csv"):
    """Write a table as commented-header CSV or as JSON (NaN cells as null)."""
    if fmt == "csv":
        lines = ["# emitpair-result v1"]
        for key, value in table.header.items():
            lines.append(f"# {key} = {value}")
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "format": "emitpair-result",
            "version": 1,
            "header": {k: v for k, v in table.header.items()},
            "columns": table.columns,
            "rows": [_json_row(row) for row in table.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=_format_cell, allow_nan=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _parse_cell(text):
    if text in ("True", "False"):  # a header echoes booleans as written
        return text == "True"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_result(path) -> ResultTable:
    """Reload a table written by :func:`write_result` (either format)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        fh.seek(0)
        if first.lstrip().startswith("{"):
            payload = json.load(fh)
            if payload.get("format") != "emitpair-result":
                raise ValueError(f"{path} is not an emitpair result file")
            return ResultTable(
                header=payload["header"],
                columns=list(payload["columns"]),
                rows=[_row_from_json(row) for row in payload["rows"]],
            )
        header = {}
        columns = None
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if " = " in body:
                    key, value = body.split(" = ", 1)
                    header[key] = _parse_cell(value)
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
            else:
                rows.append(tuple(_parse_cell(c) for c in cells))
        if columns is None:
            raise ValueError(f"{path} contains no column header")
        return ResultTable(header=header, columns=columns, rows=rows)
