"""Run configuration: INI-style files with sections, validation and presets.

Grammar (all keys optional unless noted; unknown keys, keys the task does not
use and numbers that are not finite are rejected):

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

Frequency tokens are either plain floats or signed dressed-gap names
(``d12``, ``d23``, ``d13``, e.g. ``-d23``), resolved from the emitter
configuration at load time and echoed numerically.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass, field

from .dipole import EmitterPairConfig, dressed_triplet, effective_coefficients

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_overrides"]

TASKS = ("spectrum", "g2map", "g2tau", "csi", "bell", "dressed")

_DEFAULT_COUNTS = {"spectrum": 401, "g2map": 101, "csi": 81, "bell": 81}


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
    echo: dict = field(default_factory=dict)


def _err(path, message):
    raise ConfigError(f"{path}: {message}")


def _number(raw, kind=float):
    """A finite ``float`` (or ``int``) from config text."""
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"not {noun}: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


_integer = functools.partial(_number, kind=int)


def _vector(raw):
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers: {raw!r}")
    return tuple(_number(p) for p in parts)


_TRUE, _FALSE = ("true", "yes", "on", "1"), ("false", "no", "off", "0")


def _boolean(raw):
    text = raw.strip().lower()
    if text not in _TRUE + _FALSE:
        raise ValueError(f"not a boolean: {raw!r}")
    return text in _TRUE


def _word(raw):
    return raw.strip().lower()


def _frequency(token, triplet):
    """A number, or a signed dressed-gap name (d12/d23/d13)."""
    text = token.strip().lower()
    sign = -1.0 if text.startswith("-") else 1.0
    gap = text[1:] if text.startswith(("+", "-")) else text
    gaps = {"d12": triplet.d12, "d13": triplet.d13, "d23": triplet.d23}
    if gap in gaps:
        return sign * gaps[gap]
    try:
        return _number(text)
    except ValueError as exc:
        raise ValueError(f"{exc}, nor a signed d12/d13/d23") from None


def _choice(options):
    return (lambda v: v in options, f"must be one of {'/'.join(map(str, options))}")


_POSITIVE = (lambda v: v > 0, "must be positive")
_TWO_POINTS = (lambda v: v >= 2, "need at least 2 points")
_GRID_TASKS = tuple(_DEFAULT_COUNTS)
_FULL_MAPS = ("g2map", "csi")  # csi only without task.line_sum; see load_config

# The grammar, one entry per key: parser (config text -> value), default,
# (check, message) or None, and the tasks that use the key (None: every task).
# The order is the echo's, and so the result header's; task.kind precedes every
# entry that names tasks.  A None default is filled in by load_config from the
# task and the emitter, or leaves an optional key unset.
_KEYS = {
    "emitter.atoms": (_integer, 2, _choice((1, 2)), None),
    "emitter.kr12": (_number, 0.05, _POSITIVE, None),
    "emitter.cos_theta12": (
        _number, 1.0 / math.sqrt(3.0), (lambda v: abs(v) <= 1.0, "must lie in [-1, 1]"), None
    ),
    "emitter.rabi": (_number, 30.0, (lambda v: v >= 0, "must be nonnegative"), None),
    "emitter.laser_direction": (_vector, (0.0, 0.0, 1.0), None, None),
    "emitter.detection_direction": (_vector, (0.0, 0.0, 1.0), None, None),
    "emitter.force_independent": (_boolean, False, None, None),
    "sensors.linewidth": (_number, 1.0, _POSITIVE, None),
    "sensors.epsilon": (_number, 1e-4, _POSITIVE, None),
    "task.kind": (_word, "spectrum", _choice(TASKS), None),
    "task.method": (_word, "fourier", _choice(("fourier", "sensor")), ("spectrum",)),
    "task.omega1": (str, None, None, ("g2tau",)),
    "task.omega2": (str, None, None, ("g2tau",)),
    "task.line_sum": (str, None, None, ("csi", "bell")),
    "grid.omega_min": (_number, None, None, _GRID_TASKS),
    "grid.omega_max": (_number, None, None, _GRID_TASKS),
    "grid.count": (_integer, None, _TWO_POINTS, _GRID_TASKS),
    "grid.omega2_min": (_number, None, None, _FULL_MAPS),
    "grid.omega2_max": (_number, None, None, _FULL_MAPS),
    "grid.omega2_count": (_integer, None, _TWO_POINTS, _FULL_MAPS),
    "tau.min": (_number, -3.0, None, ("g2tau",)),
    "tau.max": (_number, 3.0, None, ("g2tau",)),
    "tau.count": (_integer, 121, (lambda v: v >= 1, "need at least 1 point"), ("g2tau",)),
    "output.path": (str, "result.csv", (lambda v: v != "", "must not be empty"), None),
    "output.format": (_word, "csv", _choice(("csv", "json")), None),
    "run.workers": (_integer, 1, (lambda v: v >= 0, "must be >= 0 (0 = auto)"), None),
}


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


def _parse(path, parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _axis(values, keys, defaults, strict=True):
    """Fill unset (min, max, count) keys; reject min > max, or min == max if strict."""
    for path, default in zip(keys, defaults):
        if values[path] is None:
            values[path] = default
    lo, hi, count = (values[path] for path in keys)
    if lo > hi or (strict and lo == hi):
        _err(keys[0], f"empty range [{lo}, {hi}]")
    return lo, hi, count


def load_config(text, overrides=None) -> RunConfig:
    """Parse, override, validate and resolve a run configuration.

    ``text`` is config text (the CLI reads files and presets).  ``overrides``
    is a nested ``{section: {key: text}}`` dict (see :func:`parse_overrides`)
    applied before validation, so its values are parsed and checked like the
    file's.  Every effective value, defaults included, ends up in
    ``RunConfig.echo``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    data = {s: dict(parser.items(s)) for s in parser.sections()}
    for sect, values in (overrides or {}).items():
        data.setdefault(sect, {}).update(values)

    sections = {path.split(".")[0] for path in _KEYS}
    for sect, keys in data.items():
        if sect not in sections:
            _err(sect, "unknown section")
        for key in keys:
            if f"{sect}.{key}" not in _KEYS:
                _err(f"{sect}.{key}", "unknown key")

    values = dict.fromkeys(_KEYS)  # a key the task does not use stays None
    for path, (parse, default, check, tasks) in _KEYS.items():
        sect, key = path.split(".")
        raw = data.get(sect, {}).get(key)
        if tasks is not None and values["task.kind"] not in tasks:
            if raw is not None:
                _err(path, f"not used by the {values['task.kind']} task")
        elif raw is None:
            values[path] = default
        else:
            values[path] = _parse(path, parse, raw)
            if check is not None and not check[0](values[path]):
                _err(path, f"{check[1]}, got {values[path]!r}")

    task = values["task.kind"]
    try:
        emitter = EmitterPairConfig(
            kr12=values["emitter.kr12"],
            cos_theta12=values["emitter.cos_theta12"],
            rabi=values["emitter.rabi"],
            laser_direction=values["emitter.laser_direction"],
            detection_direction=values["emitter.detection_direction"],
            atom_count=values["emitter.atoms"],
            force_independent=values["emitter.force_independent"],
        )
        triplet = dressed_triplet(emitter, effective_coefficients(emitter))
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"emitter: {exc}") from exc
    # the directions are echoed normalized
    values["emitter.laser_direction"] = ",".join(map(repr, emitter.laser_direction))
    values["emitter.detection_direction"] = ",".join(map(repr, emitter.detection_direction))

    # g2tau needs both frequencies, bell its line; csi maps the full plane without one
    for path in ("task.omega1", "task.omega2", "task.line_sum"):
        if values[path] is not None:
            values[path] = _parse(path, _frequency, values[path], triplet)
        elif task in ("g2tau", "bell") and task in _KEYS[path][3]:
            _err(path, f"required for the {task} task")

    omega_axis = omega2_axis = tau_axis = None
    if task in _DEFAULT_COUNTS:
        half = triplet.spectrum_window
        omega_axis = _axis(
            values,
            ("grid.omega_min", "grid.omega_max", "grid.count"),
            (-half, half, _DEFAULT_COUNTS[task]),
        )
        omega2_keys = ("grid.omega2_min", "grid.omega2_max", "grid.omega2_count")
        if task == "g2map" or (task == "csi" and values["task.line_sum"] is None):
            omega2_axis = _axis(values, omega2_keys, omega_axis)
        for path in omega2_keys:
            if omega2_axis is None and values[path] is not None:
                _err(path, f"not used by the {task} task on a line")
    if task == "g2tau":
        tau_axis = _axis(values, ("tau.min", "tau.max", "tau.count"), (), strict=False)

    echo = {}
    for path, value in values.items():
        if value is not None:
            echo[path] = value
        if path == "task.kind":
            echo["dressed.d12"] = triplet.d12
            echo["dressed.d23"] = triplet.d23
            echo["dressed.d13"] = triplet.d13

    return RunConfig(
        emitter=emitter,
        sensor_linewidth=values["sensors.linewidth"],
        epsilon=values["sensors.epsilon"],
        task=task,
        method=values["task.method"],
        omega1=values["task.omega1"],
        omega2=values["task.omega2"],
        line_sum=values["task.line_sum"],
        omega_axis=omega_axis,
        omega2_axis=omega2_axis,
        tau_axis=tau_axis,
        output_path=values["output.path"],
        output_format=values["output.format"],
        workers=values["run.workers"],
        echo=echo,
    )
