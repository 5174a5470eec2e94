"""dropattack benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs building).  Workloads, metric names and units are
listed in ``BENCHMARK.json``:

  mc-compare       ``compare --attacks none,iid,nonstat`` on both demo configs
  synth-sweep      ``synthesize`` over d = N*m in {5, 16, 20, 40, 160}, udp and tcp
  receding-attack  ``simulate`` with per-step resynthesis on the two-channel plant
  horizon-check    ``analyze --empirical`` at d in {10, 160}

Every workload process runs single-threaded (BLAS pinned to one thread) and
calls ``dropattack.cli.main`` once per operation, so the timings cover
config parsing, model and gain builds, synthesis, simulation and report
writing, but not interpreter start-up.  Operations run in whole cycles over
the workload's seeded config family.  The host's speed swings by 1.5x and
more within seconds, so each operation's wall time is divided by the
host's slowdown measured by a fixed probe just before and after it (see
``calibrate.py``): times read as on the quiet host.  Each config's latency
is the median of its normalized repeats, and ops_per_s, op_p50_ms and
op_p90_ms are taken over the family, each config counted once.  Set-up (start-up, imports, config generation, first
``load_experiment``) does not follow that probe; it is timed in
``SETUP_PROBES`` extra processes plus the measured one, each right after a
reference process that only imports numpy and scipy.linalg, and reported
as the median of set-up over reference times ``REFERENCE_NOMINAL_S``, the
reference's time on the quiet host.  Every report is checked outside the
timed region; see ``checks.py``.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` a separate process runs the same operations untraced and then
traced (every public dropattack function wrapped, see ``tracing.py``) and
the result holds the per-layer metrics.  A readable table goes to standard
output, the full record (machine, sample counts, per-function table) to
``.bench_work/results/``, and the last line of standard output is the
result as JSON.  Exits non-zero, printing no result, when the package or a
workload process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-compare", "synth-sweep", "receding-attack", "horizon-check")
SETUP_PROBES = 5
# The reference process for set-up: the package's third-party imports at
# the commit that defined the benchmark, and its wall time on the quiet
# host (2-vCPU Xeon, 2.0 GHz, Python 3.11, numpy 2.4, scipy 1.17).  Fixed,
# so set-up work the package adds or removes still shows.
REFERENCE_IMPORTS = "import numpy, scipy.linalg"
REFERENCE_NOMINAL_S = 0.40
DEADLINE_S = 170.0
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# name and unit of each workload's own work rate, printed beside the metrics
WORK_RATE = {
    "mc-compare": ("mc_steps_per_s", "realization-steps/s"),
    "receding-attack": ("mc_steps_per_s", "realization-steps/s"),
    "synth-sweep": ("synth_per_s", "ops/s"),
    "horizon-check": ("horizon_samples_per_s", "samples/s"),
}


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--quick", action="store_true",
        help="tiny sizes, one cycle, one set-up probe (self-test only)",
    )
    return p.parse_args(argv)


def _run_process(cmd, what, deadline):
    """Run ``cmd`` single-threaded from the checkout root; its stdout."""
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("DROPATTACK_LOG", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before starting the {what} process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} process killed after the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} process exited with code {proc.returncode}")
    return proc.stdout


def _spawn(args, mode, workdir, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir,
    ] + (["--quick"] if args.quick else [])
    lines = _run_process(
        cmd + ["--spawned-at", repr(time.monotonic())], mode, deadline
    ).strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def _reference(deadline):
    """Wall seconds of a process that only makes the package's third-party
    imports, the bulk of set-up; it never loads dropattack."""
    t0 = time.monotonic()
    _run_process([sys.executable, "-c", REFERENCE_IMPORTS], "reference", deadline)
    return time.monotonic() - t0


def _quantile(values, q):
    """Linear-interpolation quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _normalized(latencies):
    """Each config's median latency at nominal host speed, by operation index.

    An operation's wall time is divided by the host's slowdown measured
    around it (see ``calibrate.py``); each config runs many times and keeps
    the median of its normalized repeats.
    """
    repeats = {}
    for i, dt, slowdown in latencies:
        repeats.setdefault(i, []).append(dt / slowdown)
    return {i: statistics.median(times) for i, times in repeats.items()}


def end_to_end(args, workload_out, setups):
    """Rate and latency quantiles over the workload's family of configs,
    each config counted once at its normalized latency."""
    by_op = _normalized(workload_out["latencies"])
    latency = list(by_op.values())
    work = [workload_out["ops"][i]["work"] for i in by_op]
    busy = sum(latency)
    metrics = {
        "setup_s": statistics.median(
            setup / reference for setup, reference in setups
        ) * REFERENCE_NOMINAL_S,
        "ops_per_s": len(latency) / busy,
        "op_p50_ms": _quantile(latency, 0.5) * 1e3,
        "op_p90_ms": _quantile(latency, 0.9) * 1e3,
        "peak_rss_mb": workload_out["peak_rss_mb"],
    }
    timed = f"{len(latency)} configs x {workload_out['cycles']} repeats"
    samples = {name: timed for name in metrics}
    samples["setup_s"] = f"{len(setups)} processes, each after a reference"
    samples["peak_rss_mb"] = "1 process"
    rate_name, rate_unit = WORK_RATE[args.workload]
    named = {rate_name: (sum(work) / busy, rate_unit, timed)}
    if args.workload == "synth-sweep":
        named["synth_p50_ms"] = (metrics["op_p50_ms"], "ms", timed)
        named["synth_p90_ms"] = (metrics["op_p90_ms"], "ms", timed)
    # what the normalization removed: raw wall time and the host slowdown
    ops = workload_out["latencies"]
    named["wall_op_p50_ms"] = (
        _quantile([dt for _, dt, _ in ops], 0.5) * 1e3, "ms",
        f"{len(ops)} operations, not normalized",
    )
    named["host_slowdown_p50"] = (
        _quantile([h for _, _, h in ops], 0.5), "x", f"{len(ops)} probe pairs",
    )
    return metrics, samples, named


def per_layer(workload_out):
    """Per-layer metrics of the traced cycles, plus the tracing overhead:
    the traced cycles' time over the interleaved untraced cycles', minus 1."""
    metrics = {k: m["value"] for k, m in workload_out["layers"]["metrics"].items()}
    untraced = sum(_normalized(workload_out["latencies"]).values())
    traced = sum(_normalized(workload_out["traced"]).values())
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def _table(args, result, samples, named, detail):
    machine = detail["machine"]
    blas = ", ".join(
        f"{lib['config'].split()[1] if lib['config'] else lib['library']}"
        f" x{lib['threads']}"
        for lib in machine["openblas"]
    )
    print(
        f"dropattack benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
        f"python={machine['python']} numpy={machine['numpy']} "
        f"scipy={machine['scipy']} openblas=[{blas}] "
        f"commit={machine['git_commit'][:12]} "
        f"source={machine['source_sha256'][:12]}"
    )
    print(f"{'metric':44} {'value':>14}  {'unit':20} samples")
    for name, entry in result["metrics"].items():
        print(
            f"{name:44} {entry['value']:14.6g}  {entry['unit']:20} "
            f"{samples.get(name, '')}"
        )
    for name, (value, unit, count) in named.items():
        print(f"{name:44} {value:14.6g}  {unit:20} {count}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':44} {failed / attempted:14.6g}  "
          f"{'failed/attempted':20} {failed}/{attempted}")
    for problem in detail["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        for name, entry in sorted(detail["layers"].items()):
            if name not in result["metrics"]:
                print(f"{name:44} {entry['value']:14.6g}  {entry['unit']:20} (detail)")


def main(argv=None):
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        if not os.path.isdir(os.path.join(ROOT, "src", "dropattack")):
            raise BenchError(f"no dropattack sources under {ROOT}/src")
        work_root = os.path.join(ROOT, ".bench_work")
        workdir = os.path.join(work_root, f"run-{os.getpid()}")
        try:
            # each set-up process follows a reference process, so the two
            # see the same host conditions
            setups = []
            probes = 1 if args.quick else SETUP_PROBES
            for _ in range(probes):
                reference = _reference(deadline)
                setup = _spawn(args, "setup", workdir, deadline)["setup_s"]
                setups.append((setup, reference))
            reference = _reference(deadline)
            out = _spawn(args, "trace" if args.trace else "run", workdir, deadline)
            setups.append((out["setup_s"], reference))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, samples, named = per_layer(out), {}, {}
        wanted = spec["per_layer"]
    else:
        values, samples, named = end_to_end(args, out, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": out["machine"],
        "setup_samples_s": [setup for setup, _ in setups],
        "reference_samples_s": [reference for _, reference in setups],
        "cycles": out["cycles"],
        "operations": out["ops"],
        "problems": out["problems"],
        "samples": samples,
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "result": result,
    }
    detail["latencies"] = out["latencies"]
    if args.trace:
        detail["traced_latencies"] = out["traced"]
        detail["layers"] = out["layers"]["metrics"]
        detail["functions"] = out["layers"]["functions"]
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(detail, handle, indent=1)

    _table(args, result, samples, named, detail)
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
