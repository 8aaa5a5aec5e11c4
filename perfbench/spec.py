"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --all --record``, so names, units and bounds have a
single source.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# Set to 1 before numpy is imported, in every process the benchmark starts,
# so BLAS threads never push the load past one core per worker.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Why each workload is in the benchmark.  Each one stresses layers the
# others leave alone, so an optimisation of one layer has a workload that
# exercises it and one that bypasses it.
WORKLOADS = {
    "g2map": (
        "Each point is a distinct two-sensor solve of about 15 ms, 60% of it "
        "build_assembly; the only workload where pool dispatch matters; no "
        "propagation, no 4096-dim solves."
    ),
    "csi-map": (
        "Same per-solve layers as g2map, but about two of every three "
        "sensor_g2 calls repeat a solve already done in the run, so a sharing "
        "or caching change shows its gain here."
    ),
    "bell-line": (
        "Each point is one 4096-dim SuperLU factorisation, about 4.8 s and "
        "300 MB peak, nearly all in steady_state; assembly and dispatch are "
        "negligible and memory binds."
    ),
    "spectra": (
        "Mostly propagation: Propagator, two_time_correlator, about 24k "
        "per-tau expectation calls and the direct DFT, which no other "
        "workload runs; the two spectrum routes cross-check."
    ),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  On a
# shared 2-core host the CPU speed seen by one process drifts by up to +-15%
# over seconds to minutes, so the timing bounds sit at the largest allowed value;
# the speed-up is a ratio of interleaved runs and drifts less.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("serial_wall_s", "s", "lower", 0.25),
    ("parallel_speedup", "x", "higher", 0.2),
]

# (name, unit, better).  Each names the layer it measures; which end-to-end
# metric it should move, and where, is listed in ``LAYER_EFFECTS`` below.
PER_LAYER = [
    ("liouville.build_assembly.calls", "count", "lower"),
    ("liouville.build_assembly.self_s", "s", "lower"),
    ("liouville.build_assembly.share", "fraction", "lower"),
    ("operators.SparseComplexMatrix.constructed", "count", "lower"),
    ("liouville.steady_state.calls", "count", "lower"),
    ("liouville.steady_state.self_s", "s", "lower"),
    ("liouville.steady_state.share", "fraction", "lower"),
    ("liouville.steady_state.max_residual", "norm", "lower"),
    ("liouville.Propagator.calls", "count", "lower"),
    ("liouville.Propagator.self_s", "s", "lower"),
    ("liouville.two_time_correlator.self_s", "s", "lower"),
    ("operators.expectation.calls", "count", "lower"),
    ("operators.expectation.self_s", "s", "lower"),
    ("observables.sensor_g2.calls", "count", "lower"),
    ("observables.sensor_g2.self_s", "s", "lower"),
    ("observables.sensor_g2.p50_ms", "ms", "lower"),
    ("observables.sensor_g2.p90_ms", "ms", "lower"),
    ("observables.sensor_g2.repeat_share", "fraction", "lower"),
    ("observables.sensor_g2.mirror_share", "fraction", "lower"),
    ("observables.spectrum_fourier.s", "s", "lower"),
    ("observables.sensor_g2_tau.s", "s", "lower"),
    ("nonclassicality.csi_ratio.calls", "count", "lower"),
    ("nonclassicality.csi_ratio.p50_ms", "ms", "lower"),
    ("nonclassicality.bell_quantifier.calls", "count", "lower"),
    ("nonclassicality.bell_quantifier.p50_s", "s", "lower"),
    ("sweep.pool_overhead_s", "s", "lower"),
    ("sweep.write_result.s", "s", "lower"),
    ("sweep.write_result.bytes", "B", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Layer metric prefix -> the end-to-end metric it should move, and where.
LAYER_EFFECTS = {
    "liouville.build_assembly": "points_per_s on g2map and csi-map, a little on spectra, not on bell-line",
    "operators.SparseComplexMatrix": "points_per_s on g2map and csi-map, a little on spectra, not on bell-line",
    "liouville.steady_state": "wall_s and peak_rss_mb on bell-line; about 30% of a g2map point",
    "liouville.Propagator": "wall_s on spectra; no change on g2map and bell-line",
    "liouville.two_time_correlator": "wall_s on spectra; no change on g2map and bell-line",
    "operators.expectation": "wall_s on spectra; no change on g2map and bell-line",
    "observables.sensor_g2": "points_per_s on g2map and csi-map",
    "observables.spectrum_fourier": "wall_s on spectra",
    "observables.sensor_g2_tau": "wall_s on spectra",
    "nonclassicality.csi_ratio": "wall_s on csi-map",
    "nonclassicality.bell_quantifier": "wall_s on bell-line",
    "sweep.pool_overhead_s": "parallel_speedup and wall_s on g2map and csi-map",
    "sweep.write_result": "wall_s",
    "config.load_config": "setup_s",
    "trace.overhead_s": "none: the cost of tracing itself",
}

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json():
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
