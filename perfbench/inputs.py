"""Seeded workload inputs: the config texts the package receives.

Inputs depend on ``seed % VARIANTS`` only, so ``reference.json`` holds the
seed-commit values for every seed.  The seed moves grid windows and picks the
extra sample points; point counts never change, so the cost of a run does not
depend on the seed.  Building inputs needs no package import, so the parent
process can hand the same texts to the set-up probes and the workload.
"""

from __future__ import annotations

import random

VARIANTS = 16

# Dressed gaps of the presets' pair (kr12 = 0.05, cos_theta12 = 1/sqrt(3),
# rabi = 30) as the package resolves them; the workload checks them against
# the config echo before it runs.
D12 = 25.41903469447698
D23 = 35.40653729842664
D13 = 60.82557199290362
PAIR_HALF_WINDOW = D13 + 10.0  # the presets' default omega window

PAIR = {"atoms": 2, "kr12": 0.05, "cos_theta12": 0.5773502691896258, "rabi": 30.0}
ASYM = {"atoms": 2, "kr12": 0.006, "cos_theta12": 0.5773502691896258, "rabi": 250.0}

G2MAP_COUNT = 10
CSI_COUNT = 7
SPECTRUM_COUNT = 401
TAU_COUNT = 241
# Map windows keep their width and move by up to this much inside the
# presets' window.
WINDOW_SLACK = 2.0


def _ini(sections):
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def _config(out, label, emitter, task, grid=None, tau=None, linewidth=1.0, workers=1):
    sections = {
        "emitter": emitter,
        "sensors": {"linewidth": linewidth, "epsilon": 1e-4},
        "task": task,
    }
    if grid is not None:
        lo, hi, count = grid
        sections["grid"] = {"omega_min": repr(lo), "omega_max": repr(hi), "count": count}
    if tau is not None:
        lo, hi, count = tau
        sections["tau"] = {"min": repr(lo), "max": repr(hi), "count": count}
    sections["output"] = {"path": f"{out}/{label}.csv", "format": "csv"}
    sections["run"] = {"workers": workers}
    return _ini(sections)


def _map_axis(rng, count):
    lo = -PAIR_HALF_WINDOW + rng.uniform(0.0, WINDOW_SLACK)
    return lo, lo + 2.0 * PAIR_HALF_WINDOW - WINDOW_SLACK, count


def _shifted(half, count, rng):
    """A centred ``[-half, half]`` grid moved by up to half a step."""
    step = 2.0 * half / (count - 1)
    shift = rng.uniform(-0.5 * step, 0.5 * step)
    return -half + shift, half + shift, count


def _g2map(rng, nproc, out):
    # fig2a: a square sub-grid of the preset window, one worker per core
    return {
        "g2map": _config(
            out, "g2map", PAIR, {"kind": "g2map"},
            grid=_map_axis(rng, G2MAP_COUNT), workers=nproc,
        )
    }


def _csi_map(rng, nproc, out):
    # fig3b: a full CSI sub-map; the omega2 axis mirrors the omega1 axis
    return {
        "csi-map": _config(
            out, "csi-map", PAIR, {"kind": "csi"},
            grid=_map_axis(rng, CSI_COUNT), workers=nproc,
        )
    }


def _bell_line(rng, nproc, out):
    # fig3c: the criterion-07 anchors on omega1 + omega2 = 0, plus one seeded
    # point between d23 and d13 per linewidth; run_sweep caps the pool
    task = {"kind": "bell", "line_sum": 0}
    seeded = [rng.uniform(D23 + 2.0, D13 - 2.0) for _ in range(2)]
    return {
        "bell-d12-d23": _config(
            out, "bell-d12-d23", PAIR, task, grid=(D12, D23, 2), workers=nproc
        ),
        "bell-d13": _config(
            out, "bell-d13", PAIR, task, grid=(seeded[0], D13, 2), workers=nproc
        ),
        "bell-d13-narrow": _config(
            out, "bell-d13-narrow", PAIR, task, grid=(seeded[1], D13, 2),
            linewidth=0.1, workers=nproc,
        ),
    }


def _spectra(rng, nproc, out):
    # fig1b by both routes, the two three-peak controls, and the fig2c trace
    pair_grid = _shifted(PAIR_HALF_WINDOW, SPECTRUM_COUNT, rng)
    return {
        "fig1b-sensor": _config(
            out, "fig1b-sensor", PAIR, {"kind": "spectrum", "method": "sensor"},
            grid=pair_grid,
        ),
        "fig1b-fourier": _config(
            out, "fig1b-fourier", PAIR, {"kind": "spectrum", "method": "fourier"},
            grid=pair_grid,
        ),
        "mollow-single-atom": _config(
            out, "mollow-single-atom", {"atoms": 1, "rabi": 30.0},
            {"kind": "spectrum", "method": "fourier"},
            grid=_shifted(40.0, SPECTRUM_COUNT, rng),
        ),
        "independent-atoms": _config(
            out, "independent-atoms", dict(PAIR, force_independent="true"),
            {"kind": "spectrum", "method": "fourier"},
            grid=_shifted(70.0, SPECTRUM_COUNT, rng),
        ),
        "fig2c-g2tau": _config(
            out, "fig2c-g2tau", ASYM, {"kind": "g2tau", "omega1": "d13", "omega2": "-d23"},
            tau=_shifted(3.0, TAU_COUNT, rng), linewidth=5.0,
        ),
    }


BUILDERS = {
    "g2map": _g2map,
    "csi-map": _csi_map,
    "bell-line": _bell_line,
    "spectra": _spectra,
}


def workload_configs(workload, seed, nproc, out):
    """Label -> config text for one workload; outputs are written under ``out``."""
    rng = random.Random(seed % VARIANTS)
    return BUILDERS[workload](rng, nproc, out)
