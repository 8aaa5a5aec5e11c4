"""Configuration grammar: validation, defaults, tokens, overrides."""

import math

import pytest

from emitpair.config import ConfigError, load_config, parse_overrides

PAIR_SPECTRUM = """
[emitter]
kr12 = 0.05
cos_theta12 = 0.5773502691896258
rabi = 30.0

[sensors]
linewidth = 1.0
epsilon = 1e-4

[task]
kind = spectrum
method = sensor

[grid]
count = 401
"""


def test_paper_preset_loads_with_defaults(recwarn):
    cfg = load_config(PAIR_SPECTRUM)
    assert cfg.task == "spectrum"
    assert cfg.method == "sensor"
    assert cfg.emitter.kr12 == 0.05
    assert cfg.sensor_linewidth == 1.0
    assert cfg.epsilon == 1e-4
    assert cfg.omega_axis[2] == 401
    # default window tracks the outermost sideband
    assert cfg.omega_axis[1] == pytest.approx(cfg.echo["dressed.d13"] + 10.0)
    assert not recwarn.list


def test_single_line_text_is_config_text():
    # config text, never a file name, even without a newline
    assert load_config("[task]").task == "spectrum"


def test_defaults_echoed():
    cfg = load_config("[task]\nkind = spectrum\n")
    assert cfg.echo["sensors.epsilon"] == 1e-4
    assert cfg.echo["emitter.kr12"] == 0.05
    assert cfg.echo["emitter.cos_theta12"] == pytest.approx(1 / math.sqrt(3))
    assert cfg.echo["run.workers"] == 1


def test_negative_separation_names_key():
    with pytest.raises(ConfigError, match=r"emitter\.kr12"):
        load_config("[emitter]\nkr12 = -1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"emitter\.coupling"):
        load_config("[emitter]\ncoupling = 3\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        load_config("[detector]\nkind = spectrum\n")


def test_bad_task_kind():
    with pytest.raises(ConfigError, match=r"task\.kind"):
        load_config("[task]\nkind = spectra\n")


def test_frequency_tokens_resolved():
    cfg = load_config(
        "[task]\nkind = g2tau\nomega1 = d13\nomega2 = -d23\n"
    )
    assert cfg.omega1 == pytest.approx(cfg.echo["dressed.d13"])
    assert cfg.omega2 == pytest.approx(-cfg.echo["dressed.d23"])


def test_numeric_frequency_accepted():
    cfg = load_config("[task]\nkind = g2tau\nomega1 = 12.5\nomega2 = -3\n")
    assert (cfg.omega1, cfg.omega2) == (12.5, -3.0)


def test_bad_frequency_token():
    with pytest.raises(ConfigError, match=r"task\.omega1"):
        load_config("[task]\nkind = g2tau\nomega1 = d14\nomega2 = 0\n")
    # a sign is stripped only in front of a gap name, so a number keeps both
    for token in ("--5", "+-5", "-+5", "--d23"):
        with pytest.raises(ConfigError, match=r"task\.omega1"):
            load_config(f"[task]\nkind = g2tau\nomega1 = {token}\nomega2 = 0\n")


def test_g2tau_requires_frequencies():
    with pytest.raises(ConfigError, match=r"task\.omega1"):
        load_config("[task]\nkind = g2tau\n")


def test_line_sum_only_for_csi_bell():
    with pytest.raises(ConfigError, match=r"task\.line_sum"):
        load_config("[task]\nkind = spectrum\nline_sum = 0\n")


def test_bell_requires_line():
    with pytest.raises(ConfigError, match=r"task\.line_sum"):
        load_config("[task]\nkind = bell\n")


def test_method_only_for_spectrum():
    with pytest.raises(ConfigError, match=r"task\.method"):
        load_config("[task]\nkind = g2map\nmethod = sensor\n")


def test_tau_section_only_for_g2tau():
    with pytest.raises(ConfigError, match="tau"):
        load_config("[task]\nkind = spectrum\n\n[tau]\nmin = 0\n")


def test_grid_defaults_per_task():
    assert load_config("[task]\nkind = spectrum\n").omega_axis[2] == 401
    g2map = load_config("[task]\nkind = g2map\n")
    assert g2map.omega_axis[2] == 101
    assert g2map.omega2_axis[2] == 101
    csi = load_config("[task]\nkind = csi\n")
    assert csi.omega_axis[2] == 81
    assert csi.omega2_axis[2] == 81


def test_csi_line_mode_skips_second_axis():
    cfg = load_config("[task]\nkind = csi\nline_sum = d12\n")
    assert cfg.omega2_axis is None
    assert cfg.line_sum == pytest.approx(cfg.echo["dressed.d12"])


def test_empty_ranges_rejected():
    with pytest.raises(ConfigError, match=r"grid\.omega_min"):
        load_config("[task]\nkind = spectrum\n\n[grid]\nomega_min = 5\nomega_max = -5\n")


def test_parse_overrides():
    out = parse_overrides(["sensors.linewidth=0.1", "task.kind=csi", "task.line_sum=0"])
    assert out == {
        "sensors": {"linewidth": "0.1"},
        "task": {"kind": "csi", "line_sum": "0"},
    }
    with pytest.raises(ConfigError):
        parse_overrides(["linewidth=0.1"])
    with pytest.raises(ConfigError):
        parse_overrides(["sensors.linewidth"])


def test_overrides_applied_before_validation():
    cfg = load_config(PAIR_SPECTRUM, parse_overrides(["sensors.linewidth=0.1"]))
    assert cfg.sensor_linewidth == 0.1
    with pytest.raises(ConfigError, match=r"sensors\.linewidth"):
        load_config(PAIR_SPECTRUM, parse_overrides(["sensors.linewidth=-1"]))


def test_force_independent_parsed():
    cfg = load_config("[emitter]\nforce_independent = true\n\n[task]\nkind = spectrum\n")
    assert cfg.emitter.force_independent
    with pytest.raises(ConfigError, match="boolean"):
        load_config("[emitter]\nforce_independent = maybe\n")


def test_direction_vector_parsing():
    cfg = load_config(
        "[emitter]\nlaser_direction = 0,3,4\n\n[task]\nkind = spectrum\n"
    )
    assert cfg.emitter.laser_direction == pytest.approx((0.0, 0.6, 0.8))
    with pytest.raises(ConfigError, match=r"emitter\.laser_direction"):
        load_config("[emitter]\nlaser_direction = 1,2\n")


def test_single_atom_task():
    cfg = load_config("[emitter]\natoms = 1\n\n[task]\nkind = spectrum\n")
    assert cfg.emitter.atom_count == 1
    with pytest.raises(ConfigError, match=r"emitter\.atoms"):
        load_config("[emitter]\natoms = 3\n")


def test_output_and_run_sections():
    cfg = load_config(
        "[task]\nkind = dressed\n\n[output]\npath = out.json\nformat = json\n"
        "\n[run]\nworkers = 4\n"
    )
    assert cfg.output_path == "out.json"
    assert cfg.output_format == "json"
    assert cfg.workers == 4
    with pytest.raises(ConfigError, match=r"output\.format"):
        load_config("[task]\nkind = dressed\n\n[output]\nformat = hdf5\n")
    with pytest.raises(ConfigError, match=r"run\.checkpoint_every: unknown key"):
        load_config("[run]\ncheckpoint_every = 10\n")


@pytest.mark.parametrize(
    "text, path",
    [
        ("[emitter]\nrabi = nan\n", r"emitter\.rabi"),
        ("[sensors]\nlinewidth = nan\n", r"sensors\.linewidth"),
        ("[grid]\nomega_min = nan\n", r"grid\.omega_min"),
        ("[emitter]\nkr12 = inf\n", r"emitter\.kr12"),
        ("[emitter]\nlaser_direction = 0,nan,1\n", r"emitter\.laser_direction"),
        ("[task]\nkind = g2tau\nomega1 = nan\nomega2 = d12\n", r"task\.omega1"),
    ],
)
def test_non_finite_numbers_rejected(text, path):
    with pytest.raises(ConfigError, match=path + ": not a finite number"):
        load_config(text)


@pytest.mark.parametrize(
    "text, path",
    [
        ("[task]\nkind = spectrum\n\n[grid]\nomega2_count = 5\n", r"grid\.omega2_count"),
        ("[task]\nkind = csi\nline_sum = 0\n\n[grid]\nomega2_min = -5\n", r"grid\.omega2_min"),
        ("[task]\nkind = bell\nline_sum = 0\n\n[grid]\nomega2_max = 5\n", r"grid\.omega2_max"),
    ],
)
def test_second_axis_only_for_full_maps(text, path):
    with pytest.raises(ConfigError, match=path + ": not used"):
        load_config(text)


@pytest.mark.parametrize("override", ["emitter.rabi=1e200", "emitter.kr12=1e-200"])
def test_overflowing_emitter_is_a_config_error(override):
    # the dressed triplet overflows; that is bad input, not a crash
    with pytest.raises(ConfigError, match="emitter"):
        load_config(PAIR_SPECTRUM, parse_overrides([override]))


_HEAD = [
    "emitter.atoms",
    "emitter.kr12",
    "emitter.cos_theta12",
    "emitter.rabi",
    "emitter.laser_direction",
    "emitter.detection_direction",
    "emitter.force_independent",
    "sensors.linewidth",
    "sensors.epsilon",
    "task.kind",
    "dressed.d12",
    "dressed.d23",
    "dressed.d13",
]
_GRID = ["grid.omega_min", "grid.omega_max", "grid.count"]
_GRID2 = ["grid.omega2_min", "grid.omega2_max", "grid.omega2_count"]
_TAIL = ["output.path", "output.format", "run.workers"]


@pytest.mark.parametrize(
    "task, keys",
    [
        ("kind = spectrum\nmethod = fourier", ["task.method"] + _GRID),
        ("kind = spectrum\nmethod = sensor", ["task.method"] + _GRID),
        ("kind = g2map", _GRID + _GRID2),
        ("kind = g2tau\nomega1 = d13\nomega2 = -d23",
         ["task.omega1", "task.omega2", "tau.min", "tau.max", "tau.count"]),
        ("kind = csi", _GRID + _GRID2),
        ("kind = csi\nline_sum = 0", ["task.line_sum"] + _GRID),
        ("kind = bell\nline_sum = d12", ["task.line_sum"] + _GRID),
        ("kind = dressed", []),
    ],
)
def test_echo_order_is_the_header_order(task, keys):
    # the echo's order is the result header's, so it is part of the file format
    assert list(load_config(f"[task]\n{task}\n").echo) == _HEAD + keys + _TAIL
