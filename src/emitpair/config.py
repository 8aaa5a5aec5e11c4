"""Run configuration: INI-style files with sections, validation and presets.

Grammar (all keys optional unless noted; unknown keys are rejected):

    [emitter]
    atoms = 2                    # 1 or 2
    kr12 = 0.05                  # dimensionless separation, > 0
    cos_theta12 = 0.57735...     # dipole angle cosine, |c| <= 1
    rabi = 30.0                  # drive strength, >= 0
    laser_direction = 0,0,1      # 3-vector, normalized on load
    detection_direction = 0,0,1
    force_independent = false    # zero both couplings (control runs)

    [sensors]
    linewidth = 1.0              # > 0
    epsilon = 1e-4               # > 0; sensor spectra take the epsilon -> 0 limit

    [task]
    kind = spectrum              # spectrum | g2map | g2tau | csi | bell | dressed
    method = fourier             # spectrum only: fourier | sensor
    omega1 = d13                 # g2tau only; frequency token, see below
    omega2 = -d23                # g2tau only
    line_sum = 0                 # csi/bell: restrict to omega2 = line_sum - omega1

    [grid]
    omega_min = -70.0            # omega1 axis; defaults to -(d13 + 10)
    omega_max = 70.0
    count = 401                  # default depends on task (401/101/81)
    omega2_min = ...             # full maps only; mirrors omega1 axis if absent
    omega2_max = ...
    omega2_count = ...

    [tau]
    min = -3.0                   # g2tau only
    max = 3.0
    count = 121

    [output]
    path = out.csv
    format = csv                 # csv | json

    [run]
    workers = 1                  # 0 = one per available CPU
    checkpoint_every = 500

Frequency tokens are either plain floats or signed dressed-gap names
(``d12``, ``d23``, ``d13``, e.g. ``-d23``), resolved from the emitter
configuration at load time and echoed numerically.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .dipole import EmitterPairConfig, dressed_triplet, effective_coefficients

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_overrides"]

TASKS = ("spectrum", "g2map", "g2tau", "csi", "bell", "dressed")

_DEFAULT_COUNTS = {"spectrum": 401, "g2map": 101, "csi": 81, "bell": 81}

_ALLOWED_KEYS = {
    "emitter": {
        "atoms",
        "kr12",
        "cos_theta12",
        "rabi",
        "laser_direction",
        "detection_direction",
        "force_independent",
    },
    "sensors": {"linewidth", "epsilon"},
    "task": {"kind", "method", "omega1", "omega2", "line_sum"},
    "grid": {
        "omega_min",
        "omega_max",
        "count",
        "omega2_min",
        "omega2_max",
        "omega2_count",
    },
    "tau": {"min", "max", "count"},
    "output": {"path", "format"},
    "run": {"workers", "checkpoint_every"},
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key path."""


@dataclass
class RunConfig:
    """Fully validated sweep configuration with defaults applied."""

    emitter: EmitterPairConfig
    sensor_linewidth: float
    epsilon: float
    task: str
    method: str | None
    omega1: float | None
    omega2: float | None
    line_sum: float | None
    omega_axis: tuple | None  # (min, max, count)
    omega2_axis: tuple | None
    tau_axis: tuple | None
    output_path: str
    output_format: str
    workers: int
    checkpoint_every: int
    echo: dict = field(default_factory=dict)


def _err(path, message):
    raise ConfigError(f"{path}: {message}")


def _get_float(section, sect_name, key, default=None):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        _err(f"{sect_name}.{key}", f"not a number: {raw!r}")


def _get_int(section, sect_name, key, default=None):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        _err(f"{sect_name}.{key}", f"not an integer: {raw!r}")


def _get_bool(section, sect_name, key, default=False):
    raw = section.get(key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    _err(f"{sect_name}.{key}", f"not a boolean: {raw!r}")


def _get_vector(section, sect_name, key, default):
    raw = section.get(key)
    if raw is None:
        return default
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        _err(f"{sect_name}.{key}", f"expected three comma-separated numbers: {raw!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        _err(f"{sect_name}.{key}", f"not a numeric vector: {raw!r}")


def _resolve_frequency(token, triplet, path):
    """A float, or a signed dressed-gap name (d12/d23/d13), or 0."""
    text = token.strip().lower()
    sign = 1.0
    if text.startswith(("+", "-")):
        if text[0] == "-":
            sign = -1.0
        text = text[1:]
    gaps = {"d12": triplet.d12, "d13": triplet.d13, "d23": triplet.d23}
    if text in gaps:
        return sign * gaps[text]
    try:
        return sign * float(text)
    except ValueError:
        _err(path, f"not a frequency (number or signed d12/d13/d23): {token!r}")


def parse_overrides(pairs):
    """Parse ``--set section.key=value`` strings into a nested dict."""
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        key_path, value = item.split("=", 1)
        if "." not in key_path:
            raise ConfigError(
                f"override key {key_path!r} must be qualified as section.key"
            )
        sect, key = key_path.split(".", 1)
        out.setdefault(sect.strip(), {})[key.strip()] = value.strip()
    return out


def load_config(source, overrides=None) -> RunConfig:
    """Load, override, validate and resolve a run configuration.

    ``source`` is a file path or a string of config text.  ``overrides`` is a
    nested ``{section: {key: value}}`` dict (see :func:`parse_overrides`)
    applied before validation.  Every effective value, defaults included, ends
    up in ``RunConfig.echo``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if isinstance(source, str) and "\n" in source:
            parser.read_file(io.StringIO(source))
        else:
            with open(source, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    data = {s: dict(parser.items(s)) for s in parser.sections()}
    for sect, values in (overrides or {}).items():
        data.setdefault(sect, {}).update(values)

    for sect, values in data.items():
        if sect not in _ALLOWED_KEYS:
            _err(sect, "unknown section")
        for key in values:
            if key not in _ALLOWED_KEYS[sect]:
                _err(f"{sect}.{key}", "unknown key")

    em = data.get("emitter", {})
    atoms = _get_int(em, "emitter", "atoms", 2)
    if atoms not in (1, 2):
        _err("emitter.atoms", f"must be 1 or 2, got {atoms}")
    kr12 = _get_float(em, "emitter", "kr12", 0.05)
    if kr12 is not None and kr12 <= 0:
        _err("emitter.kr12", f"must be positive, got {kr12}")
    cos_theta = _get_float(em, "emitter", "cos_theta12", 1.0 / math.sqrt(3.0))
    if abs(cos_theta) > 1.0:
        _err("emitter.cos_theta12", f"must lie in [-1, 1], got {cos_theta}")
    rabi = _get_float(em, "emitter", "rabi", 30.0)
    if rabi < 0:
        _err("emitter.rabi", f"must be nonnegative, got {rabi}")
    laser_dir = _get_vector(em, "emitter", "laser_direction", (0.0, 0.0, 1.0))
    det_dir = _get_vector(em, "emitter", "detection_direction", (0.0, 0.0, 1.0))
    force_ind = _get_bool(em, "emitter", "force_independent", False)
    try:
        emitter = EmitterPairConfig(
            kr12=kr12,
            cos_theta12=cos_theta,
            rabi=rabi,
            laser_direction=laser_dir,
            detection_direction=det_dir,
            atom_count=atoms,
            force_independent=force_ind,
        )
    except ValueError as exc:
        raise ConfigError(f"emitter: {exc}") from exc

    sens = data.get("sensors", {})
    linewidth = _get_float(sens, "sensors", "linewidth", 1.0)
    if linewidth <= 0:
        _err("sensors.linewidth", f"must be positive, got {linewidth}")
    epsilon = _get_float(sens, "sensors", "epsilon", 1e-4)
    if epsilon <= 0:
        _err("sensors.epsilon", f"must be positive, got {epsilon}")

    task_sect = data.get("task", {})
    task = task_sect.get("kind", "spectrum").strip().lower()
    if task not in TASKS:
        _err("task.kind", f"must be one of {'/'.join(TASKS)}, got {task!r}")

    method = None
    if task == "spectrum":
        method = task_sect.get("method", "fourier").strip().lower()
        if method not in ("fourier", "sensor"):
            _err("task.method", f"must be fourier or sensor, got {method!r}")
    elif "method" in task_sect:
        _err("task.method", f"only valid for the spectrum task, not {task}")

    triplet = dressed_triplet(emitter, effective_coefficients(emitter))

    omega1 = omega2 = None
    if task == "g2tau":
        for key in ("omega1", "omega2"):
            if key not in task_sect:
                _err(f"task.{key}", "required for the g2tau task")
        omega1 = _resolve_frequency(task_sect["omega1"], triplet, "task.omega1")
        omega2 = _resolve_frequency(task_sect["omega2"], triplet, "task.omega2")
    elif "omega1" in task_sect or "omega2" in task_sect:
        _err("task.omega1", "only valid for the g2tau task")

    line_sum = None
    if "line_sum" in task_sect:
        if task not in ("csi", "bell"):
            _err("task.line_sum", "only valid for csi and bell tasks")
        line_sum = _resolve_frequency(task_sect["line_sum"], triplet, "task.line_sum")

    grid = data.get("grid", {})
    omega_axis = omega2_axis = None
    if task in ("spectrum", "g2map", "csi", "bell"):
        half = triplet.spectrum_window
        omega_min = _get_float(grid, "grid", "omega_min", -half)
        omega_max = _get_float(grid, "grid", "omega_max", half)
        count = _get_int(grid, "grid", "count", _DEFAULT_COUNTS[task])
        if omega_min >= omega_max:
            _err("grid.omega_min", f"empty range [{omega_min}, {omega_max}]")
        if count < 2:
            _err("grid.count", f"need at least 2 points, got {count}")
        omega_axis = (omega_min, omega_max, count)
        if task in ("g2map",) or (task == "csi" and line_sum is None):
            omega2_min = _get_float(grid, "grid", "omega2_min", omega_min)
            omega2_max = _get_float(grid, "grid", "omega2_max", omega_max)
            omega2_count = _get_int(grid, "grid", "omega2_count", count)
            if omega2_min >= omega2_max:
                _err("grid.omega2_min", f"empty range [{omega2_min}, {omega2_max}]")
            if omega2_count < 2:
                _err("grid.omega2_count", f"need at least 2 points, got {omega2_count}")
            omega2_axis = (omega2_min, omega2_max, omega2_count)
        if task == "bell" and line_sum is None:
            _err("task.line_sum", "required for the bell task (maps are per-line)")
    elif grid:
        _err("grid", f"grid section is not used by the {task} task")

    tau_sect = data.get("tau", {})
    tau_axis = None
    if task == "g2tau":
        tau_min = _get_float(tau_sect, "tau", "min", -3.0)
        tau_max = _get_float(tau_sect, "tau", "max", 3.0)
        tau_count = _get_int(tau_sect, "tau", "count", 121)
        if tau_min > tau_max:
            _err("tau.min", f"empty range [{tau_min}, {tau_max}]")
        if tau_count < 1:
            _err("tau.count", f"need at least 1 point, got {tau_count}")
        tau_axis = (tau_min, tau_max, tau_count)
    elif tau_sect:
        _err("tau", f"tau section is only used by the g2tau task, not {task}")

    out = data.get("output", {})
    output_path = out.get("path", "result.csv")
    output_format = out.get("format", "csv").strip().lower()
    if output_format not in ("csv", "json"):
        _err("output.format", f"must be csv or json, got {output_format!r}")

    run = data.get("run", {})
    workers = _get_int(run, "run", "workers", 1)
    if workers < 0:
        _err("run.workers", f"must be >= 0 (0 = auto), got {workers}")
    checkpoint_every = _get_int(run, "run", "checkpoint_every", 500)
    if checkpoint_every < 1:
        _err("run.checkpoint_every", f"must be >= 1, got {checkpoint_every}")

    echo = {
        "emitter.atoms": atoms,
        "emitter.kr12": kr12,
        "emitter.cos_theta12": cos_theta,
        "emitter.rabi": rabi,
        "emitter.laser_direction": ",".join(repr(v) for v in emitter.laser_direction),
        "emitter.detection_direction": ",".join(
            repr(v) for v in emitter.detection_direction
        ),
        "emitter.force_independent": force_ind,
        "sensors.linewidth": linewidth,
        "sensors.epsilon": epsilon,
        "task.kind": task,
        "dressed.d12": triplet.d12,
        "dressed.d23": triplet.d23,
        "dressed.d13": triplet.d13,
    }
    if method is not None:
        echo["task.method"] = method
    if omega1 is not None:
        echo["task.omega1"] = omega1
        echo["task.omega2"] = omega2
    if line_sum is not None:
        echo["task.line_sum"] = line_sum
    if omega_axis is not None:
        echo["grid.omega_min"], echo["grid.omega_max"], echo["grid.count"] = omega_axis
    if omega2_axis is not None:
        (
            echo["grid.omega2_min"],
            echo["grid.omega2_max"],
            echo["grid.omega2_count"],
        ) = omega2_axis
    if tau_axis is not None:
        echo["tau.min"], echo["tau.max"], echo["tau.count"] = tau_axis
    echo["output.path"] = output_path
    echo["output.format"] = output_format
    echo["run.workers"] = workers
    echo["run.checkpoint_every"] = checkpoint_every

    return RunConfig(
        emitter=emitter,
        sensor_linewidth=linewidth,
        epsilon=epsilon,
        task=task,
        method=method,
        omega1=omega1,
        omega2=omega2,
        line_sum=line_sum,
        omega_axis=omega_axis,
        omega2_axis=omega2_axis,
        tau_axis=tau_axis,
        output_path=output_path,
        output_format=output_format,
        workers=workers,
        checkpoint_every=checkpoint_every,
        echo=echo,
    )


def axis_points(axis):
    """Materialize an (min, max, count) axis as a float array."""
    lo, hi, count = axis
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)
