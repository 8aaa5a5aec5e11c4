"""One workload in a fresh process: timed passes, output checks, traced pass.

``run.py`` starts this script once per workload run, because ``ru_maxrss``
only ever rises within a process.  It drives the package the way the CLI
presets do (``config.load_config``, ``sweep.run_sweep``,
``sweep.write_result``) plus library calls for the checks, and writes its
result as JSON to the ``--result`` file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, spans, spec  # noqa: E402

for _var in spec.BLAS_THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import emitpair  # noqa: E402
from emitpair import config, nonclassicality, observables, sweep  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"


# ---------------------------------------------------------------------------
# Running the package


def load_configs(workload, seed, out):
    nproc = len(os.sched_getaffinity(0))
    texts = inputs.workload_configs(workload, seed, nproc, out)
    return texts, {label: config.load_config(text) for label, text in texts.items()}


def sweep_pass(cfgs, workers):
    """run_sweep then write_result per config, as ``emitpair run`` does.

    ``workers=None`` uses each config's own worker count.
    """
    tables = {}
    sweep_s = write_s = 0.0
    for label, cfg in cfgs.items():
        t0 = time.perf_counter()
        table = sweep.run_sweep(cfg, workers=workers)
        t1 = time.perf_counter()
        sweep.write_result(table, cfg.output_path, cfg.output_format)
        t2 = time.perf_counter()
        tables[label] = table
        sweep_s += t1 - t0
        write_s += t2 - t1
    return tables, sweep_s, write_s


def pool_size(cfgs):
    return max(sweep.effective_workers(c.task, c.workers) for c in cfgs.values())


def timed_passes(cfgs, seconds):
    """Repeat whole passes while another one fits in ``seconds`` (at least one).

    Where the sweep uses a pool, each pass also runs the same grid at one
    worker, the single-process baseline.
    """
    pooled = pool_size(cfgs) > 1
    passes = []
    start = time.perf_counter()
    while True:
        tables, sweep_s, write_s = sweep_pass(cfgs, None)
        record = {"tables": tables, "sweep_s": sweep_s, "wall_s": sweep_s + write_s}
        if pooled:
            tables, sweep_s, write_s = sweep_pass(cfgs, 1)
        record.update(serial_tables=tables, serial_sweep_s=sweep_s, serial_wall_s=sweep_s + write_s)
        passes.append(record)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Traced pass


def _sensor_g2_info(original):
    signature = inspect.signature(original)

    def info(args, kwargs, _result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        context = (hash(a["config"]), a["sensor_linewidth"], a["epsilon"])
        return context, float(a["omega1"]), float(a["omega2"])

    return info


def _residual_info(_original):
    return lambda _args, _kwargs, result: None if result is None else result.residual


def _bytes_info(_original):
    # sweep_pass passes the path positionally; a failed write leaves no file
    return lambda args, _kwargs, _result: os.path.getsize(args[1]) if os.path.exists(args[1]) else 0


# (module, qualname, extra span info); the span is named module-tail.qualname
TRACED = [
    ("emitpair.config", "load_config", None),
    ("emitpair.sweep", "run_sweep", None),
    ("emitpair.sweep", "write_result", _bytes_info),
    ("emitpair.liouville", "build_assembly", None),
    ("emitpair.liouville", "steady_state", _residual_info),
    ("emitpair.liouville", "two_time_correlator", None),
    ("emitpair.liouville", "Propagator.__init__", None),
    ("emitpair.liouville", "Propagator.propagate_vec", None),
    ("emitpair.operators", "expectation", None),
    ("emitpair.observables", "sensor_g2", _sensor_g2_info),
    ("emitpair.observables", "sensor_g2_tau", None),
    ("emitpair.observables", "spectrum_fourier", None),
    ("emitpair.nonclassicality", "csi_ratio", None),
    ("emitpair.nonclassicality", "bell_quantifier", None),
]
CONSTRUCTED = "operators.SparseComplexMatrix"


def tracing(tracer):
    targets = []
    for module, qualname, info in TRACED:
        name = f"{module.rsplit('.', 1)[-1]}.{qualname}"

        def make(original, name=name, info=info):
            return tracer.wrap(name, original, info(original) if info else None)

        targets.append((module, qualname, make))
    targets.append(
        ("emitpair.operators", "SparseComplexMatrix.__init__",
         lambda original: tracer.count(CONSTRUCTED, original))
    )
    return spans.Installed(targets)


def traced_pass(texts, cfgs):
    """Load the configs and run every sweep at one worker with spans on."""
    tracer = spans.Tracer()
    with tracing(tracer):
        for text in texts.values():
            config.load_config(text)
        start = time.perf_counter()
        tables, _, _ = sweep_pass(cfgs, 1)
        wall = time.perf_counter() - start
    return tracer, tables, wall


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(st, counts, traced_wall, serial_wall, pool_overhead):
    """Per-layer metrics from ``spans.layer_stats`` of the traced pass."""
    build = st["liouville.build_assembly"]
    steady = st["liouville.steady_state"]
    g2 = st["observables.sensor_g2"]
    csi = st["nonclassicality.csi_ratio"]
    bell = st["nonclassicality.bell_quantifier"]
    prop_init = st["liouville.Propagator.__init__"]
    prop_apply = st["liouville.Propagator.propagate_vec"]
    writes = st["sweep.write_result"]
    repeat, mirror = spans.repeat_mirror_shares(g2["infos"])
    residuals = [r for r in steady["infos"] if r is not None]
    return {
        "liouville.build_assembly.calls": build["calls"],
        "liouville.build_assembly.self_s": build["self_s"],
        "liouville.build_assembly.share": build["self_s"] / traced_wall,
        "operators.SparseComplexMatrix.constructed": counts[CONSTRUCTED],
        "liouville.steady_state.calls": steady["calls"],
        "liouville.steady_state.self_s": steady["self_s"],
        "liouville.steady_state.share": steady["self_s"] / traced_wall,
        "liouville.steady_state.max_residual": max(residuals, default=0.0),
        "liouville.Propagator.calls": prop_init["calls"],
        "liouville.Propagator.self_s": prop_init["self_s"] + prop_apply["self_s"],
        "liouville.two_time_correlator.self_s": st["liouville.two_time_correlator"]["self_s"],
        "operators.expectation.calls": st["operators.expectation"]["calls"],
        "operators.expectation.self_s": st["operators.expectation"]["self_s"],
        "observables.sensor_g2.calls": g2["calls"],
        "observables.sensor_g2.self_s": g2["self_s"],
        "observables.sensor_g2.p50_ms": 1e3 * _percentile(g2["durations"], 50),
        "observables.sensor_g2.p90_ms": 1e3 * _percentile(g2["durations"], 90),
        "observables.sensor_g2.repeat_share": repeat,
        "observables.sensor_g2.mirror_share": mirror,
        "observables.spectrum_fourier.s": st["observables.spectrum_fourier"]["total_s"],
        "observables.sensor_g2_tau.s": st["observables.sensor_g2_tau"]["total_s"],
        "nonclassicality.csi_ratio.calls": csi["calls"],
        "nonclassicality.csi_ratio.p50_ms": 1e3 * _percentile(csi["durations"], 50),
        "nonclassicality.bell_quantifier.calls": bell["calls"],
        "nonclassicality.bell_quantifier.p50_s": _percentile(bell["durations"], 50),
        "sweep.pool_overhead_s": pool_overhead,
        "sweep.write_result.s": writes["total_s"],
        "sweep.write_result.bytes": sum(writes["infos"]),
        "config.load_config.s": st["config.load_config"]["total_s"],
        "trace.overhead_s": traced_wall - serial_wall,
    }


def write_spans(tracer, path):
    origin = min((s.start for s in tracer.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            record = s._asdict()
            record["start"] -= origin
            record["end"] -= origin
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Per-workload output checks and implied call counts


def _gaps(cfg):
    return cfg.echo["dressed.d12"], cfg.echo["dressed.d23"], cfg.echo["dressed.d13"]


def _check_g2map(cfgs, tables, serial):
    return {
        "g2map.parallel_equals_serial": checks.identical("g2map", tables["g2map"], serial["g2map"]),
        "g2map.swap_symmetry": checks.swap_symmetric("g2map", tables["g2map"]),
    }


def _check_csi(cfgs, tables, serial):
    # criterion 06's real-pair signs, through the library call
    emitter = cfgs["csi-map"].emitter
    d12, d23, d13 = _gaps(cfgs["csi-map"])

    def ratio(w1, w2, linewidth):
        return nonclassicality.csi_ratio(emitter, w1, w2, linewidth).ratio

    signs = (
        checks.sign("csi(d13, 0)", ratio(d13, 0.0, 1.0), at_most=1.0)
        + checks.sign("csi(d13, -d23), linewidth 1", ratio(d13, -d23, 1.0), above=1.0)
        + checks.sign("csi(d13, -d23), linewidth 0.1", ratio(d13, -d23, 0.1), at_most=1.0)
        + checks.sign("csi(d12, d23), linewidth 1", ratio(d12, d23, 1.0), at_most=1.0)
        + checks.sign("csi(d12, d23), linewidth 0.1", ratio(d12, d23, 0.1), at_most=1.0)
    )
    return {
        "csi-map.parallel_equals_serial": checks.identical("csi-map", tables["csi-map"], serial["csi-map"]),
        "csi-map.ratio_identity": checks.csi_identity("csi-map", tables["csi-map"]),
        "csi-map.criterion06_signs": signs,
    }


def _check_bell(cfgs, tables, serial):
    # criterion 07's anchors: rows are (seeded or d12, d23 or d13) per config
    real, broad, narrow = (
        checks.column(tables[label], "bell")
        for label in ("bell-d12-d23", "bell-d13", "bell-d13-narrow")
    )
    return {
        "bell-line.criterion07_signs": (
            checks.sign("bell(d12), linewidth 1", real[0], at_most=2.0)
            + checks.sign("bell(d23), linewidth 1", real[1], at_most=2.0)
            + checks.sign("bell(d13), linewidth 1", broad[1], above=2.0)
            + checks.sign("bell(d13), linewidth 0.1", narrow[1], at_most=2.0)
        ),
    }


def _peaks(table):
    found = observables.find_local_maxima(checks.column(table, "omega"), checks.column(table, "value"))
    return [w for w, _ in found]


def _check_spectra(cfgs, tables, serial):
    d12, d23, d13 = _gaps(cfgs["fig1b-sensor"])
    seven = [0.0, d12, -d12, d23, -d23, d13, -d13]
    three = [-30.0, 0.0, 30.0]
    tau = checks.column(tables["fig2c-g2tau"], "tau")
    g2 = checks.column(tables["fig2c-g2tau"], "g2")
    return {
        "spectra.seven_peaks": (
            checks.peaks_near("fig1b sensor scan", _peaks(tables["fig1b-sensor"]), seven)
            + checks.peaks_near("fig1b fourier", _peaks(tables["fig1b-fourier"]), seven)
        ),
        "spectra.control_peaks": (
            checks.peaks_near("mollow-single-atom", _peaks(tables["mollow-single-atom"]), three)
            + checks.peaks_near("independent-atoms", _peaks(tables["independent-atoms"]), three)
        ),
        "spectra.criterion05_asymmetry": (
            checks.sign("max g2 at tau > 0", max(v for t, v in zip(tau, g2) if t > 0), above=1.5)
            + checks.sign("min g2 at tau < 0", min(v for t, v in zip(tau, g2) if t < 0), at_most=0.9)
        ),
    }


def _implied_counts(workload, cfgs, tables):
    """Calls the inputs imply for the traced pass."""
    rows = sum(len(t.rows) for t in tables.values())
    implied = {
        "config.load_config": len(cfgs),
        "sweep.run_sweep": len(cfgs),
        "sweep.write_result": len(cfgs),
    }
    if workload == "g2map":
        implied.update({
            "observables.sensor_g2": rows,
            "liouville.build_assembly": rows,
            "liouville.steady_state": rows,
        })
    elif workload == "csi-map":
        implied.update({"observables.sensor_g2": 3 * rows, "nonclassicality.csi_ratio": rows})
    elif workload == "bell-line":
        implied["nonclassicality.bell_quantifier"] = rows
    else:
        methods = [c.method for c in cfgs.values()]
        implied["observables.spectrum_fourier"] = methods.count("fourier")
        implied["observables.sensor_g2_tau"] = sum(c.task == "g2tau" for c in cfgs.values())
    return implied


WORKLOAD_CHECKS = {
    "g2map": _check_g2map,
    "csi-map": _check_csi,
    "bell-line": _check_bell,
    "spectra": _check_spectra,
}

# Rows kept in the reference: every row, except every tenth of the long
# spectra tables.
REFERENCE_STRIDE = {"spectra": 10}


def output_checks(workload, cfgs, tables, serial):
    found = WORKLOAD_CHECKS[workload](cfgs, tables, serial)
    gaps = []
    for label, cfg in cfgs.items():
        if cfg.echo["emitter.kr12"] == 0.05 and cfg.echo["emitter.rabi"] == 30.0 and (
            cfg.echo["emitter.atoms"] == 2 and not cfg.echo["emitter.force_independent"]
        ):
            for got, want in zip(_gaps(cfg), (inputs.D12, inputs.D23, inputs.D13)):
                if abs(got - want) > 1e-9 * want:
                    gaps.append(f"{label}: dressed gap {got!r}, inputs assume {want!r}")
    found["inputs.dressed_gaps"] = gaps
    return found


def reference_checks(workload, seed, tables):
    if not REFERENCE.exists():
        return {"reference": [f"{REFERENCE.name} is missing"]}
    with open(REFERENCE, encoding="utf-8") as fh:
        entries = json.load(fh)["workloads"].get(workload, {}).get(str(seed % inputs.VARIANTS))
    if entries is None:
        return {"reference": [f"no reference for {workload} variant {seed % inputs.VARIANTS}"]}
    failures = []
    for label, table in tables.items():
        failures += checks.matches_reference(label, table, entries[label])
    return {"reference": failures}


# ---------------------------------------------------------------------------
# Host facts


def _openblas_threads():
    """Threads numpy's bundled OpenBLAS will use, or None if it cannot say."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return int(getter())
    return None


def host_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": _openblas_threads(),
        "blas_env": {var: os.environ.get(var) for var in spec.BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "emitpair": emitpair.__version__,
    }


# ---------------------------------------------------------------------------
# Modes


def measure(args):
    texts, cfgs = load_configs(args.workload, args.seed, args.out)
    passes = timed_passes(cfgs, args.seconds)
    rusage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rusage_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    first = passes[0]
    wall = statistics.median(p["wall_s"] for p in passes)
    serial_wall = statistics.median(p["serial_wall_s"] for p in passes)
    rows = sum(len(t.rows) for t in first["tables"].values())
    end_to_end = {
        "wall_s": wall,
        "points_per_s": rows / wall,
        "peak_rss_mb": max(rusage_self, rusage_workers),
        "serial_wall_s": serial_wall,
        "parallel_speedup": serial_wall / wall,
    }
    attempted = flagged = 0
    for p in passes:
        runs = [p["tables"]] + ([p["serial_tables"]] if p["serial_tables"] is not p["tables"] else [])
        for tables in runs:
            attempted += sum(len(t.rows) for t in tables.values())
            flagged += sum(checks.flagged_rows(t) for t in tables.values())

    found = output_checks(args.workload, cfgs, first["tables"], first["serial_tables"])
    found.update(reference_checks(args.workload, args.seed, first["tables"]))

    layers = None
    if args.trace:
        tracer, traced_tables, traced_wall = traced_pass(texts, cfgs)
        found["trace.identical_tables"] = [
            msg
            for label in cfgs
            for msg in checks.identical(label, traced_tables[label], first["serial_tables"][label])
        ]
        stats = spans.layer_stats(tracer.spans)
        found["trace.implied_counts"] = [
            f"{name}: {stats[name]['calls']} calls traced, inputs imply {want}"
            for name, want in _implied_counts(args.workload, cfgs, first["tables"]).items()
            if stats[name]["calls"] != want
        ]
        workers = pool_size(cfgs)
        sweep_s = statistics.median(p["sweep_s"] for p in passes)
        serial_sweep_s = statistics.median(p["serial_sweep_s"] for p in passes)
        pool_overhead = sweep_s - serial_sweep_s / workers if workers > 1 else 0.0
        layers = per_layer(stats, tracer.counts, traced_wall, serial_wall, pool_overhead)
        if args.spans:
            write_spans(tracer, args.spans)

    return {
        "end_to_end": end_to_end,
        "per_layer": layers,
        "checks": found,
        "attempted": attempted,
        "flagged": flagged,
        "passes": {
            "wall_s": [p["wall_s"] for p in passes],
            "serial_wall_s": [p["serial_wall_s"] for p in passes],
        },
        "peak_rss": {"process_mb": rusage_self, "largest_worker_mb": rusage_workers},
        "host": host_facts(),
    }


def record_reference(args):
    """One serial pass per input variant; every check but the reference runs."""
    variants = {}
    failures = {}
    for variant in range(inputs.VARIANTS):
        _, cfgs = load_configs(args.workload, variant, args.out)
        tables, _, _ = sweep_pass(cfgs, 1)
        found = output_checks(args.workload, cfgs, tables, tables)
        bad = {name: msgs for name, msgs in found.items() if msgs}
        flagged = {label: checks.flagged_rows(t) for label, t in tables.items()}
        if any(flagged.values()):
            bad["flagged_rows"] = flagged
        if bad:
            failures[variant] = bad
        stride = REFERENCE_STRIDE.get(args.workload, 1)
        variants[str(variant)] = {
            label: checks.sample_reference(t, stride) for label, t in tables.items()
        }
    return {"variants": variants, "failures": failures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for result files")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--spans", help="JSONL file for the traced spans")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    source = Path(emitpair.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"emitpair was imported from {source}, not from this checkout")
    os.makedirs(args.out, exist_ok=True)
    result = record_reference(args) if args.record_reference else measure(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
