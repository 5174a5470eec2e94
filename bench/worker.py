"""One benchmark process: set up, run a workload's CLI operations, check.

Started by ``run.py`` with BLAS pinned to one thread.  ``--spawned-at`` is
the parent's monotonic clock just before it started this process, so the
reported set-up time runs from process start until the first operation
could run: interpreter start, imports, config generation and
``load_experiment`` of the first config.

Modes:
  setup  stop once set up and report the set-up time only;
  run    a warm-up cycle, then whole cycles of operations for --seconds
         of wall time, each operation between two host-speed probes;
  trace  as run, but every untraced cycle is followed by a traced one,
         with every public dropattack function wrapped; reports
         per-function spans.

Prints one JSON line with raw measurements; ``run.py`` turns them into
metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import calibrate
import machine
import workloads
from checks import check_operation, report_files
from tracing import Tracer, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import dropattack
    import dropattack.cli

    location = os.path.dirname(os.path.abspath(dropattack.__file__))
    if location != os.path.join(SRC, "dropattack"):
        raise ImportError(f"dropattack imported from {location}, not {SRC}")
    return dropattack


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--quick", action="store_true")
    return p.parse_args(argv)


class Runner:
    """Runs operations, times them and checks every report they write."""

    def __init__(self, ops, sizes, da):
        self.ops = ops
        self.sizes = sizes
        self.da = da
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._verdicts = {}  # (op index, report digest) -> problems
        self._digest = {}    # op index -> first report digest seen

    def cycle(self, latencies=None, tracer=None):
        """One pass over the operations.

        Each operation's entry in ``latencies`` is (operation index, wall
        seconds, host slowdown): the slowdown is the mean of the host-speed
        probes just before and just after the operation over their nominal
        time (see ``calibrate.py``).  Probes run untraced and untimed.
        """
        before = calibrate.probe()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.install()
                tracer.mark_operation()
            t0 = time.perf_counter()
            try:
                rc = self.da.cli.main(op["argv"])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rc = -1
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
            after = calibrate.probe()
            if latencies is not None:
                slowdown = 0.5 * (before + after) / calibrate.PROBE_NOMINAL_S
                latencies.append((i, elapsed, slowdown))
            before = after
            self.attempted += 1
            if rc != 0:
                self._fail(op, f"exit code {rc}")
                continue
            # untimed: the report must match the first one written for this
            # config byte for byte, and pass the checks once
            digest = hashlib.sha256()
            for path in report_files(op):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            key = (i, digest.hexdigest())
            first = self._digest.setdefault(i, key[1])
            if key not in self._verdicts:
                try:
                    self._verdicts[key] = check_operation(op, self.sizes, self.da)
                except Exception as exc:
                    self._verdicts[key] = [f"check raised {exc!r}"]
                if key[1] != first:
                    self._verdicts[key].append("report differs from an earlier run")
            if self._verdicts[key]:
                self._fail(op, "; ".join(self._verdicts[key]))

    def _fail(self, op, why):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op['name']}: {why}")

    def timed(self, seconds, tracer=None):
        """Whole cycles for ``seconds`` of wall time, probes included.

        A cycle starts only if one more as long as the last still ends
        within ``seconds``.  With a tracer, untraced and traced cycles
        alternate, so both see the same machine conditions; returns
        (untraced, traced, cycles), each list as described in :meth:`cycle`.
        """
        untraced, traced = [], []
        cycles = 0
        start = time.monotonic()
        cycle_s = 0.0
        while not cycles or time.monotonic() - start + cycle_s <= seconds:
            begun = time.monotonic()
            self.cycle(untraced)
            if tracer is not None:
                try:
                    self.cycle(traced, tracer)
                finally:
                    tracer.remove()
            cycles += 1
            cycle_s = time.monotonic() - begun
        return untraced, traced, cycles


def main(argv=None):
    args = _parse(argv)
    try:
        da = _import_package()
    except ImportError as exc:
        print(f"cannot import dropattack from {SRC}: {exc}", file=sys.stderr)
        return 2

    sizes = workloads.QUICK if args.quick else workloads.FULL
    ops = workloads.build(args.workload, args.seed, args.workdir, ROOT, sizes)
    da.load_experiment(ops[0]["config"])
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    runner = Runner(ops, sizes, da)
    runner.cycle()  # warm-up: lazy imports, first checks of every report
    seconds = 0.0 if args.quick else args.seconds
    if args.mode == "run":
        out["latencies"], _, out["cycles"] = runner.timed(seconds)
    else:
        tracer = Tracer()
        out["latencies"], out["traced"], out["cycles"] = runner.timed(seconds, tracer)
        spans = tracer.arrays()
        slowdowns = [slowdown for _, _, slowdown in out["traced"]]
        out["layers"] = summarize(tracer, spans, slowdowns)
        trace_dir = os.path.join(ROOT, ".bench_work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"{args.workload}.npz"), spans)
    out["ops"] = [{"name": op["name"], "work": op["work"]} for op in ops]
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["problems"] = runner.problems
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine.describe(ROOT, SRC, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
