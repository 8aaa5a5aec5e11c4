"""Parallel sweep execution, checkpointing and result persistence.

A sweep is an immutable list of independent grid points dispatched to a pool
of stateless workers; rows are emitted in grid order regardless of completion
order, so identical configurations reproduce identical tables bit for bit.
Per-point failures become flagged rows with a reason code instead of aborting
the sweep.  Completed points are checkpointed periodically so an interrupted
sweep resumes without recomputation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from . import __version__
from .config import RunConfig, axis_points
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
    """Resolve the worker count; four-sensor solves are memory-capped.

    ``requested = 0`` means one worker per CPU this process may run on (its
    affinity set, where the platform has one).
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = cpus if requested == 0 else requested
    if task == "bell":
        workers = min(workers, max(1, cpus // 2))
    return max(1, workers)


# ---------------------------------------------------------------------------
# Point evaluation (module-level and picklable for worker processes)

def _emitter_kwargs(cfg: RunConfig):
    em = cfg.emitter
    return {
        "kr12": em.kr12,
        "cos_theta12": em.cos_theta12,
        "rabi": em.rabi,
        "laser_direction": em.laser_direction,
        "detection_direction": em.detection_direction,
        "atom_count": em.atom_count,
        "force_independent": em.force_independent,
    }


def _rebuild_emitter(kwargs):
    from .dipole import EmitterPairConfig

    return EmitterPairConfig(**kwargs)


def _eval_point(payload):
    """Evaluate one grid point; returns (index, row_values, status)."""
    index, task, em_kwargs, linewidth, epsilon, params = payload
    emitter = _rebuild_emitter(em_kwargs)
    try:
        if task == "g2map":
            w1, w2 = params
            point = sensor_g2(emitter, w1, w2, linewidth, epsilon)
            return index, (w1, w2, point.g2), STATUS_OK
        if task == "csi":
            w1, w2 = params
            point = csi_ratio(emitter, w1, w2, linewidth, epsilon)
            return (
                index,
                (w1, w2, point.ratio, point.g11, point.g22, point.g12),
                STATUS_OK,
            )
        if task == "bell":
            w1, w2 = params
            point = bell_quantifier(emitter, w1, w2, linewidth, epsilon)
            b1111, b2222, b1221, b1122, b2211 = point.b_terms
            return (
                index,
                (
                    w1,
                    w2,
                    point.quantifier,
                    b1111.real,
                    b2222.real,
                    b1221.real,
                    b1122.real,
                    b1122.imag,
                ),
                STATUS_OK,
            )
        raise ValueError(f"unknown point task {task!r}")
    except UndefinedCorrelationError:
        return index, _failure_row(task, params), "undefined_correlation"
    except Exception as exc:  # isolate the point, record the reason
        return index, _failure_row(task, params), f"error:{type(exc).__name__}"


def _failure_row(task, params):
    """The point's parameters padded with NaN to its value columns."""
    width = len(_POINT_COLUMNS[task]) - 1  # every column but status
    return tuple(params) + (math.nan,) * (width - len(params))


_POINT_COLUMNS = {
    "g2map": ["omega1", "omega2", "g2", "status"],
    "csi": ["omega1", "omega2", "ratio", "g11", "g22", "g12", "status"],
    "bell": [
        "omega1",
        "omega2",
        "bell",
        "b1111",
        "b2222",
        "b1221",
        "b1122_re",
        "b1122_im",
        "status",
    ],
}


def _point_list(cfg: RunConfig):
    """The immutable task list: (point_task, params) per grid point."""
    if cfg.task == "g2map":
        w1s = axis_points(cfg.omega_axis)
        w2s = axis_points(cfg.omega2_axis)
        return "g2map", [(float(a), float(b)) for a in w1s for b in w2s]
    if cfg.task in ("csi", "bell"):
        w1s = axis_points(cfg.omega_axis)
        if cfg.line_sum is not None:
            pairs = [(float(a), float(cfg.line_sum - a)) for a in w1s]
        else:
            w2s = axis_points(cfg.omega2_axis)
            pairs = [(float(a), float(b)) for a in w1s for b in w2s]
        return cfg.task, pairs
    raise ValueError(f"task {cfg.task!r} is not a per-point sweep")


# ---------------------------------------------------------------------------
# Whole-table tasks (single computations)

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
    return columns, [row]


def _spectrum_rows(cfg: RunConfig):
    grid = axis_points(cfg.omega_axis)
    if cfg.method == "sensor":
        result = spectrum_sensor_scan(
            cfg.emitter,
            omega_grid=grid,
            sensor_linewidth=cfg.sensor_linewidth,
            normalize=False,
        )
        columns = ["omega", "value", "status"]
        rows = [(float(w), float(v), STATUS_OK) for w, v in zip(result.omega_grid, result.values)]
        return columns, rows, {}
    result = spectrum_fourier(cfg.emitter, omega_grid=grid)
    columns = ["omega", "value"]
    rows = [(float(w), float(v)) for w, v in zip(result.omega_grid, result.values)]
    extra = {"spectrum.elastic_weight": result.elastic_weight}
    if result.narrow_line is not None:
        weight, center, hwhm = result.narrow_line
        extra["spectrum.narrow_line_weight"] = weight
        extra["spectrum.narrow_line_center"] = center
        extra["spectrum.narrow_line_hwhm"] = hwhm
    return columns, rows, extra


def _g2tau_rows(cfg: RunConfig):
    taus = axis_points(cfg.tau_axis)
    points = sensor_g2_tau(
        cfg.emitter, cfg.omega1, cfg.omega2, cfg.sensor_linewidth, taus, cfg.epsilon
    )
    columns = ["tau", "g2"]
    return columns, [(p.tau, p.g2) for p in points]


# ---------------------------------------------------------------------------
# Checkpointing

def _config_fingerprint(cfg: RunConfig):
    relevant = {
        k: v
        for k, v in cfg.echo.items()
        if not k.startswith(("output.", "run."))
    }
    blob = json.dumps(relevant, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_checkpoint(path, fingerprint, done):
    payload = {
        "format": "emitpair-checkpoint",
        "version": 1,
        "config_fingerprint": fingerprint,
        "completed": {str(i): [row, status] for i, (row, status) in done.items()},
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _load_checkpoint(path, fingerprint):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "emitpair-checkpoint":
        raise ValueError(f"{path} is not a sweep checkpoint")
    if payload.get("config_fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint {path} belongs to a different configuration"
        )
    return {
        int(i): (tuple(row), status)
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
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
    stop_after: int | None = None,
    timestamp: bool = True,
) -> ResultTable:
    """Execute a run configuration and return its result table.

    Grid tasks are dispatched to ``workers`` processes (default from the
    config; 0 means one per CPU) with rows emitted in grid order.  Completed
    points are checkpointed every ``cfg.checkpoint_every`` results; pass
    ``resume_from`` to continue an interrupted sweep.  ``stop_after`` halts
    after that many newly computed points (used to exercise resume paths) by
    raising :class:`SweepInterrupted` after writing the checkpoint.
    """
    start = time.monotonic()
    header = _base_header(cfg, timestamp)

    if cfg.task == "dressed":
        columns, rows = _dressed_table_rows(cfg)
        return _finish(header, columns, rows, start, timestamp)
    if cfg.task == "g2tau":
        columns, rows = _g2tau_rows(cfg)
        return _finish(header, columns, rows, start, timestamp)
    if cfg.task == "spectrum":
        columns, rows, extra = _spectrum_rows(cfg)
        header.update(extra)
        return _finish(header, columns, rows, start, timestamp)

    point_task, param_list = _point_list(cfg)
    columns = list(_POINT_COLUMNS[point_task])
    fingerprint = _config_fingerprint(cfg)
    done = {}
    if resume_from:
        done = _load_checkpoint(resume_from, fingerprint)
    ckpt = checkpoint_path or (cfg.output_path + ".ckpt")

    pending = [
        (i, point_task, _emitter_kwargs(cfg), cfg.sensor_linewidth, cfg.epsilon, params)
        for i, params in enumerate(param_list)
        if i not in done
    ]
    n_workers = effective_workers(cfg.task, cfg.workers if workers is None else workers)

    new_done = 0
    since_checkpoint = 0

    def _record(index, row, status):
        nonlocal new_done, since_checkpoint
        done[index] = (row, status)
        new_done += 1
        since_checkpoint += 1
        if since_checkpoint >= cfg.checkpoint_every:
            _write_checkpoint(ckpt, fingerprint, done)
            since_checkpoint = 0
        if stop_after is not None and new_done >= stop_after:
            _write_checkpoint(ckpt, fingerprint, done)
            raise SweepInterrupted(
                f"sweep stopped after {new_done} new points", ckpt
            )

    try:
        if n_workers == 1 or len(pending) <= 1:
            for payload in pending:
                index, row, status = _eval_point(payload)
                _record(index, row, status)
        else:
            chunk = max(1, len(pending) // (n_workers * 8))
            with Pool(processes=n_workers) as pool:
                for index, row, status in pool.imap_unordered(
                    _eval_point, pending, chunksize=chunk
                ):
                    _record(index, row, status)
    except KeyboardInterrupt:
        _write_checkpoint(ckpt, fingerprint, done)
        raise SweepInterrupted("sweep interrupted; checkpoint written", ckpt)

    rows = [done[i][0] + (done[i][1],) for i in range(len(param_list))]
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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_result(table: ResultTable, path, fmt="csv"):
    """Write a table as commented-header CSV or as JSON."""
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
            "rows": [list(row) for row in table.rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=_format_cell)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _parse_cell(text):
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
                rows=[tuple(row) for row in payload["rows"]],
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
