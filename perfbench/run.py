"""Benchmark of gefdesign: cold CLI calls, design audits and signal rendering.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs the workload half
untraced and half with every layer's public functions wrapped, and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Lines before
it give the workload's metrics under workload-specific names (cli_call_ms_p50,
audit_case_ms_p50, fft_audio_x_realtime, ...), the failed operations with
their causes, CLI output digests and the run's provenance.
Spans of a traced run go to .perfbench_out/.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every process the benchmark starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
INTERP_REPEATS = 5
SPEED_PROBES = 3  # machine-speed probes before and after each timed process
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli-cold", "audit", "signal"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe(args) -> None:
    """Set-up as a fresh process pays it: import the library, then build the
    workload's inputs.  Prints the import time; the parent times the process."""
    start = time.perf_counter()
    import workloads

    lib = workloads.Lib()
    import_s = time.perf_counter() - start
    workloads.WORKLOADS[args.workload](lib, ROOT).setup(args.seed, Path(args.workdir))
    print(json.dumps({"import_s": import_s}))


def measure_setup(args, workdir: Path, speed) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_REPEATS set-up processes and their import times, each
    normalized by the machine-speed factor around it."""
    walls, imports = [], []
    for k in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(probe_dir)]
        before = [speed.probe() for _ in range(SPEED_PROBES)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        factor = statistics.median(before + [speed.probe() for _ in range(SPEED_PROBES)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        walls.append(wall / factor)
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"] / factor)
        shutil.rmtree(probe_dir)
    return walls, imports


def interpreter_start_ms(speed) -> float:
    """Median normalized wall time of `python -c pass`."""
    times = []
    for _ in range(INTERP_REPEATS):
        before = [speed.probe() for _ in range(SPEED_PROBES)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        times.append(wall / statistics.median(before + [speed.probe() for _ in range(SPEED_PROBES)]))
    return 1e3 * statistics.median(times)


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
    except OSError:
        git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "gefdesign").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "processes": "one benchmark process; set-up probes and CLI calls run one at a time",
    }


def e2e_metrics(wl, samples, setup_walls) -> tuple[dict, dict]:
    from workloads import median

    m = wl.metrics(samples)
    rss_kb = m.get("peak_rss_kb") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "op_ms_p50": 1e3 * median(m["op"]),
        "op_ms_tail": 1e3 * m["op_tail"][0],
        "work_per_s": m["work_per_s"],
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    named = dict(m["named"])
    named["setup_s"] = (values["setup_s"], f"s (median of {len(setup_walls)})")
    named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    named["raw_op_ms_p50"] = (1e3 * median(m["op_raw"]), "ms, wall time before normalizing")
    factors = wl.speed.factors
    named["speed_factor_p50"] = (statistics.median(factors), f"(of {len(factors)} probes, "
                                 f"{min(factors):.3f} to {max(factors):.3f})")
    return values, named


def traced_run(wl, args, import_times) -> tuple[dict, list]:
    """A quarter of the time untraced, half traced, a quarter untraced, all in
    this process; the untraced quarters on both sides cancel a steady drift
    from the overhead figure."""
    import spans
    from workloads import median

    quarter = args.seconds / 4.0
    plain = [wl.run(quarter, in_process=True)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = wl.run(2.0 * quarter, in_process=True, tracer=tracer)
    finally:
        tracer.uninstall()
    plain.append(wl.run(quarter, in_process=True))
    metrics = spans.layer_metrics(tracer)
    metrics["cli.interp_start_ms"] = interpreter_start_ms(wl.speed)
    metrics["cli.import_ms"] = 1e3 * statistics.median(import_times)
    kinds = [k for k in traced.kinds() if all(p.lat(k) for p in plain)]
    untraced = sum(median([t for p in plain for t in p.lat(k)]) for k in kinds)
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(median(traced.lat(k)) for k in kinds) / untraced - 1.0
    )
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return metrics, [*plain, traced]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gefdesign" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'gefdesign'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    # one CPU for the benchmark and every process it starts, so the speed
    # probes run where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        lib = workloads.Lib()
        wl = workloads.WORKLOADS[args.workload](lib, ROOT)
        setup_walls, import_times = measure_setup(args, workdir, wl.speed)
        (workdir / "main").mkdir()
        wl.setup(args.seed, workdir / "main")

        if args.trace:
            metrics, runs = traced_run(wl, args, import_times)
            named = {}
        else:
            samples = wl.run(args.seconds)
            metrics, named = e2e_metrics(wl, samples, setup_walls)
            runs = [samples]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    prov = provenance(args.seed)
    digests = {k: h.hexdigest() for r in runs[-1:] for k, h in sorted(r.digests.items())}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:14.6g} {unit}")
    print(f"  {'error_ratio':<24} {len(failures) / attempted:14.6g} "
          f"({len(failures)} failed of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for kind, digest in digests.items():
        print(f"  sha256 {kind:<16} {digest}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        import spans

        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        units = E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, named={k: list(v) for k, v in named.items()}, failures=failures,
                  digests=digests, provenance=prov)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
