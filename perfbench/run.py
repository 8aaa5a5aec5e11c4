"""Benchmark command for emitpair.

One workload run, the way ``BENCHMARK.json``'s command is called (from the
repository root)::

    python3 perfbench/run.py --workload g2map --seed 1 --seconds 20 --trace 0

prints host facts, every metric by name with its unit and the output checks,
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced pass with ``--trace 1``.  It exits non-zero when a check fails.

Other modes::

    python3 perfbench/run.py --all [--record]     # every workload, traced
    python3 perfbench/run.py --record-reference   # seed-commit reference values

``--record`` writes ``BENCHMARK.json`` from ``spec.py`` and the measured
numbers to ``perfbench/baseline.json``.  Workloads, metrics and bounds live in
``spec.py``; the seeded inputs in ``inputs.py``.

This process stays light: it imports no numpy.  It times the set-up probes
(fresh interpreters that import emitpair and load the workload's configs) and
starts each workload in a fresh process (``workload.py``), with BLAS pinned to
one thread and this checkout's ``src`` on the path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import inputs, spec  # noqa: E402

WORK = Path(".bench_build") / "perfbench"  # relative to ROOT; outputs and spans
REFERENCE = ROOT / "perfbench" / "reference.json"
BASELINE = ROOT / "perfbench" / "baseline.json"

SETUP_PROBES = 4  # timed; one more untimed probe first fills the bytecode caches
PROBE = (
    "import json, sys\n"
    "import emitpair\n"
    "from emitpair import config\n"
    "for text in json.load(sys.stdin):\n"
    "    config.load_config(text)\n"
)
# A run must end within 180 s; stop a stuck workload before that.
WORKLOAD_TIMEOUT = 170.0
REFERENCE_TIMEOUT = 1800.0


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in spec.BLAS_THREAD_VARS})
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(cmd, timeout):
    """Run ``cmd`` in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def measure_setup(texts):
    """Median time for a fresh interpreter to import emitpair and load ``texts``."""
    payload = json.dumps(list(texts.values()))
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", PROBE],
            input=payload, text=True, cwd=ROOT, env=child_env(),
            check=True, timeout=60, capture_output=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def source_facts():
    """The git commit when there is one, and a digest of the package source."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    package = ROOT / "src" / "emitpair"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(package).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(workload, seed, seconds, trace):
    """One workload run; returns the child's result plus ``setup_s``."""
    work = WORK / workload
    fresh_dir(ROOT / work)
    texts = inputs.workload_configs(workload, seed, len(os.sched_getaffinity(0)), work.as_posix())
    setup_s = measure_setup(texts)
    result_file = work / "result.json"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--out", work.as_posix(), "--result", result_file.as_posix(),
    ]
    if trace:
        cmd += ["--spans", (WORK / f"spans-{workload}.jsonl").as_posix()]
    code = run_child(cmd, WORKLOAD_TIMEOUT)
    if code != 0:
        raise RuntimeError(f"workload {workload} exited with code {code}")
    with open(ROOT / result_file, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(ROOT / work, ignore_errors=True)
    result["end_to_end"]["setup_s"] = setup_s
    return result


def summarise(result):
    failed_checks = sum(1 for msgs in result["checks"].values() if msgs)
    failed = result["flagged"] + failed_checks
    return failed == 0, result["attempted"], failed


def report(workload, seed, result, facts):
    """Print host facts, every metric with its unit, and the checks."""
    correct, attempted, failed = summarise(result)
    host = dict(result["host"], **facts)
    print(f"# {workload} seed={seed} host={json.dumps(host)}")
    for name, walls in result["passes"].items():
        print(f"# {workload} {name} per pass: {' '.join(f'{w:.4f}' for w in walls)}")
    for name, value in result["end_to_end"].items():
        print(f"{workload} {name} = {value!r} {spec.UNITS[name]}")
    print(f"{workload} failed_share = {failed / attempted!r} fraction ({failed} of {attempted})")
    rss = result["peak_rss"]
    print(
        f"{workload} peak_rss_mb parts: process {rss['process_mb']!r} MB, "
        f"largest pool worker {rss['largest_worker_mb']!r} MB"
    )
    for name, value in (result["per_layer"] or {}).items():
        layer = max((p for p in spec.LAYER_EFFECTS if name.startswith(p)), key=len)
        print(f"{workload} {name} = {value!r} {spec.UNITS[name]}  [moves {spec.LAYER_EFFECTS[layer]}]")
    for name, msgs in result["checks"].items():
        print(f"{workload} check {name}: {'FAIL' if msgs else 'PASS'}")
        for msg in msgs:
            print(f"    {msg}")
    return correct, attempted, failed


def workload_run(args):
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    correct, attempted, failed = report(args.workload, args.seed, result, source_facts())
    names = [n for n, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {n: {"value": values[n], "unit": spec.UNITS[n]} for n in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def all_workloads(args):
    facts = source_facts()
    baseline = {"seed": args.seed, "seconds": args.seconds, "source": facts, "workloads": {}}
    status = 0
    for workload in spec.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, 1)
        correct, attempted, failed = report(workload, args.seed, result, facts)
        status |= 0 if correct else 1
        baseline["host"] = result["host"]
        baseline["workloads"][workload] = {
            "end_to_end": result["end_to_end"],
            "failed_share": failed / attempted,
            "per_layer": result["per_layer"],
        }
    if args.record:
        write_json(ROOT / "BENCHMARK.json", spec.benchmark_json())
        write_json(BASELINE, baseline)
    return status


def record_reference():
    """Run every input variant of every workload, two workloads at a time."""

    def one(workload):
        work = fresh_dir(ROOT / WORK / f"reference-{workload}")
        result_file = work / "result.json"
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "workload.py"), "--record-reference",
            "--workload", workload, "--out", work.relative_to(ROOT).as_posix(),
            "--result", result_file.as_posix(),
        ]
        if run_child(cmd, REFERENCE_TIMEOUT) != 0:
            raise RuntimeError(f"reference run of {workload} failed")
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
        shutil.rmtree(work, ignore_errors=True)
        return workload, result

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(pool.map(one, spec.WORKLOADS))
    failures = {w: r["failures"] for w, r in results.items() if r["failures"]}
    if failures:
        print(json.dumps(failures, indent=1), file=sys.stderr)
        return 1
    reference = {
        "format": "perfbench-reference",
        "source": source_facts(),
        "variants": inputs.VARIANTS,
        "workloads": {w: r["variants"] for w, r in results.items()},
    }
    write_json(REFERENCE, reference, indent=None)
    return 0


def write_json(path, payload, indent=1):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(spec.WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload, traced")
    mode.add_argument("--record-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="with --all: write BENCHMARK.json and the baseline")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emitpair" / "__init__.py").is_file():
        print(f"no emitpair package under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.all:
        return all_workloads(args)
    return workload_run(args)


if __name__ == "__main__":
    sys.exit(main())
