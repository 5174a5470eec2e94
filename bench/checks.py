"""Output checks for every report a benchmark operation writes.

Each check returns a list of problems (empty when the report passes).
They run outside the timed region.  Tolerances are fixed here, before
any measurement, and are not tuned per seed:

* ``OBJ_RTOL``: a reported objective must equal ``schedule_objective`` of
  the reported schedule to 1e-10 relative.  Both are the same quadratic
  form on the same numbers, so only summation order could differ.
* ``TIE_RTOL``: the schedule optimum may fall below the per-channel iid
  optimum by no more than the solver's own 1e-12 tie tolerance.
* ``MOVE_RTOL``: moving one coordinate of the schedule to either edge of
  its band may not raise the objective by more than 1e-6 relative.  This
  sits well above the projected-gradient stopping tolerance (1e-8 scaled)
  and well below the 1e-3 relative misses a heuristic solver can make.
* ``EMPIRICAL_SE``: an empirical cost increase must lie within 4 standard
  errors of its analytic value.
* ``BAND_ATOL``: schedules may leave their bands by rounding only.
"""

import csv
import json
import math
import os

import numpy as np

OBJ_RTOL = 1e-10
TIE_RTOL = 1e-12
MOVE_RTOL = 1e-6
EMPIRICAL_SE = 4.0
BAND_ATOL = 1e-12
AGG_RTOL = 1e-9

REPORTS = {
    "synthesize": ("synthesis.json",),
    "analyze": ("cost_report.json",),
    "compare": ("comparison.json", "realizations.csv"),
    "simulate": ("aggregate.json", "trace_mean.csv", "realizations.csv"),
}


def report_files(op):
    return [os.path.join(op["out"], name) for name in REPORTS[op["kind"]]]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * (1.0 + abs(a) + abs(b))


def _numbers(obj, path, null_ok, problems):
    """Every number finite; null only where ``null_ok(path)`` allows."""
    if obj is None:
        if not null_ok(path):
            problems.append(f"{'.'.join(path)} is null")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _numbers(value, path + (key,), null_ok, problems)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _numbers(value, path + (str(i),), null_ok, problems)
    elif isinstance(obj, float) and not math.isfinite(obj):
        problems.append(f"{'.'.join(path)} is {obj}")


def _read_csv(path, problems):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    if not np.all(np.isfinite(values)):
        problems.append(f"{os.path.basename(path)} holds non-finite values")
    return rows[0], values


def _bands(exp):
    lo, hi = exp.detection.bounds(exp.channel)
    return np.asarray(lo), np.asarray(hi)


def _no_alpha_peak(protocol, char):
    """The stationary characterization has an interior peak only for a
    concave udp-like objective."""
    return protocol == "tcp" or char.get("convexity") != "concave"


def _build_qp(exp, da):
    ens = da.build_prediction_ensemble(exp.model)
    gain = da.control_gain(ens, exp.model, exp.channel.mean_diag, exp.protocol)
    ctx = da.attack_context(
        ens, exp.model, exp.channel, exp.detection, exp.protocol,
        exp.model.init_mean, gain,
    )
    udp = exp.protocol is da.Protocol.UDP_LIKE
    return da.build_qp_udp(ctx) if udp else da.build_qp_tcp(ctx)


def check_synthesis(doc, exp, da):
    problems = []
    lo, hi = _bands(exp)
    common = float(np.max(lo)) <= float(np.min(hi))

    def null_ok(path):
        if path in (("region", "scalar_lo"), ("region", "scalar_hi"), ("iid_scalar",)):
            return not common
        if path == ("iid_scalar", "alpha_peak"):
            return _no_alpha_peak(doc["protocol"], doc["iid_scalar"])
        return False

    _numbers(doc, (), null_ok, problems)
    if problems:
        return problems

    qp = _build_qp(exp, da)
    sched = np.asarray(doc["nonstationary"]["schedule"], dtype=float)
    if sched.shape != (qp.horizon, qp.m):
        return [f"schedule shape {sched.shape}, expected {(qp.horizon, qp.m)}"]
    if np.any(sched < lo - BAND_ATOL) or np.any(sched > hi + BAND_ATOL):
        problems.append("schedule leaves its per-channel band")
    iid_means = np.asarray(doc["iid_per_channel"]["means"], dtype=float)
    if np.any(iid_means < lo - BAND_ATOL) or np.any(iid_means > hi + BAND_ATOL):
        problems.append("per-channel iid rates leave their bands")

    reported = doc["nonstationary"]["objective"]
    recomputed = da.schedule_objective(qp, sched)
    if not _close(reported, recomputed, OBJ_RTOL):
        problems.append(
            f"reported objective {reported!r} != schedule_objective {recomputed!r}"
        )
    iid = doc["iid_per_channel"]["objective"]
    if reported < iid - TIE_RTOL * (1.0 + abs(iid)):
        problems.append(f"schedule objective {reported!r} < iid objective {iid!r}")

    # one coordinate to either band edge must not beat the reported optimum
    z = sched.reshape(-1)
    d = z.size
    moved = np.tile(z, (2 * d, 1))
    idx = np.arange(d)
    moved[idx, idx] = qp.lo
    moved[d + idx, idx] = qp.hi
    values = np.einsum("sd,de,se->s", moved, qp.H, moved) + moved @ qp.c
    best = float(values.max())
    if best > recomputed + MOVE_RTOL * (1.0 + abs(recomputed)):
        problems.append(
            f"a single-coordinate move raises the objective from "
            f"{recomputed!r} to {best!r}"
        )
    return problems


def check_analysis(doc, exp, samples):
    problems = []
    lo, hi = _bands(exp)
    common = float(np.max(lo)) <= float(np.min(hi))

    def null_ok(path):
        if path == ("optimal_iid",):
            return not common
        if path == ("optimal_iid", "characterization", "alpha_peak"):
            return _no_alpha_peak(
                doc["protocol"], doc["optimal_iid"]["characterization"]
            )
        return False

    _numbers(doc, (), null_ok, problems)
    if problems:
        return problems
    empirical = doc["empirical"]
    expected = {"nonstationary"} | ({"optimal_iid"} if common else set())
    if set(empirical) != expected:
        problems.append(f"empirical entries {sorted(empirical)}")
    for name, entry in empirical.items():
        gap = abs(entry["empirical_increase"] - entry["analytic_increase"])
        se = entry["standard_error"]
        if entry["samples"] != samples or not se > 0.0:
            problems.append(f"{name}: bad samples or standard error")
        elif gap > EMPIRICAL_SE * se:
            problems.append(
                f"{name}: empirical increase off by {gap / se:.2f} standard errors"
            )
    return problems


def _null_first_detection(aggregate):
    return lambda path: (
        path[-1:] == ("mean_first_detection",) and aggregate(path)["detection_rate"] == 0
    )


def _check_aggregate(agg, realizations, costs, where, problems):
    if agg["realizations"] != realizations:
        problems.append(f"{where}: {agg['realizations']} realizations")
    if not 0.0 <= agg["detection_rate"] <= 1.0:
        problems.append(f"{where}: detection rate {agg['detection_rate']}")
    if costs.size != realizations or not _close(
        agg["mean_terminal_cost"], float(np.mean(costs)), AGG_RTOL
    ):
        problems.append(f"{where}: mean terminal cost disagrees with realizations.csv")


def check_comparison(doc, csv_path, realizations):
    problems = []
    _numbers(
        doc, (),
        _null_first_detection(lambda path: doc["attacks"][path[1]]),
        problems,
    )
    header, values = _read_csv(csv_path, problems)
    if problems:
        return problems
    kinds = list(doc["attacks"])
    if header[1:] != [f"terminal_cost_{k}" for k in kinds]:
        return [f"realizations.csv header {header}"]
    for j, kind in enumerate(kinds):
        _check_aggregate(
            doc["attacks"][kind], realizations, values[:, j + 1], kind, problems
        )
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            diff = doc["paired_differences"][f"{b}_minus_{a}"]["mean"]
            arms = (
                doc["attacks"][b]["mean_terminal_cost"]
                - doc["attacks"][a]["mean_terminal_cost"]
            )
            if not _close(diff, arms, AGG_RTOL):
                problems.append(f"{b}_minus_{a}: paired mean {diff!r} != {arms!r}")
    return problems


def check_simulation(doc, trace_path, csv_path, realizations, steps):
    problems = []
    _numbers(doc, (), _null_first_detection(lambda path: doc), problems)
    _, trace = _read_csv(trace_path, problems)
    _, values = _read_csv(csv_path, problems)
    if problems:
        return problems
    _check_aggregate(doc, realizations, values[:, 1], "simulate", problems)
    if trace.shape[0] != steps + 1:
        problems.append(f"trace_mean.csv has {trace.shape[0]} rows")
    elif not _close(trace[-1, -1], doc["mean_terminal_cost"], AGG_RTOL):
        problems.append("trace_mean.csv final cost disagrees with the aggregate")
    return problems


def check_operation(op, sizes, da):
    """All problems with the reports ``op`` wrote (the files must exist)."""
    paths = report_files(op)
    with open(paths[0]) as handle:
        doc = json.load(handle)
    kind = op["kind"]
    if kind == "synthesize":
        return check_synthesis(doc, da.load_experiment(op["config"]), da)
    if kind == "analyze":
        return check_analysis(
            doc, da.load_experiment(op["config"]), sizes["horizon_samples"]
        )
    if kind == "compare":
        return check_comparison(doc, paths[1], sizes["compare_realizations"])
    exp = da.load_experiment(op["config"])
    return check_simulation(
        doc, paths[1], paths[2], sizes["receding_realizations"], exp.T
    )
