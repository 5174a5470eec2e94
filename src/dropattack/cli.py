"""Command-line front end.

Subcommands:

    synthesize  characterize and synthesize attacks at the initial mean
    simulate    Monte-Carlo closed-loop runs under the configured attack
    analyze     closed-form cost reports, optionally cross-checked by
                paired horizon sampling (--empirical N)
    compare     Monte-Carlo comparison across attack kinds with shared
                random numbers

All subcommands read one JSON experiment file (--config) and write their
outputs into --out (default: current directory), which the first report
creates.  Every report of a run is formatted before the first is
written, so a rejected or failed run leaves no directory behind.
Outputs are deterministic for a fixed config and BLAS thread count:
floats are serialized with %.17g and no timestamps are emitted, and a
non-finite number in any report is a numerical failure.  Exit codes: 0 success, 2 configuration problem, 3
numerical failure, 4 a library InfeasibleRegionError; no subcommand
raises it, since synthesize and analyze report a missing common rate band
as null.  Log verbosity comes from the DROPATTACK_LOG environment variable
(DEBUG, INFO, WARNING, ...); any other name is a configuration problem.
"""

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .attack_iid import Convexity, attack_context, flooding_condition, optimal_alpha
from .attack_qp import solve_box_qp_max, solve_iid_constrained
from .config import load_experiment
from .costs import cost_regimes, expected_attacked_cost, feedback_benefit
from .errors import ConfigError, DimensionError, InfeasibleRegionError, NumericalError
from .model import build_prediction_ensemble
from .simulate import _KINDS, _standard_error, empirical_increases
from .simulate import monte_carlo, monte_carlo_arms

__all__ = ["main"]

log = logging.getLogger("dropattack.cli")


# ------------------------------------------------------------- serializers

def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v, indent) for v in obj) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_reports(out: str, reports: dict) -> None:
    """Write each named report text of ``reports`` into the directory ``out``.

    Every text is formatted before this call, so a run that fails on a
    non-finite value writes no report; the first file creates ``out``.
    Files are written without newline translation: JSON lines end in LF
    and the csv module's rows in CRLF on every platform.
    """
    for name, text in reports.items():
        path = os.path.join(out, name)
        try:
            os.makedirs(out or ".", exist_ok=True)
            handle = open(path, "w", newline="")
        except OSError as exc:  # a path that cannot be made is the user's
            raise ConfigError(
                f"--out: cannot write {path}: {exc.strerror}"
            ) from exc
        with handle:
            handle.write(text)
        log.info("wrote %s", path)


def _json_report(obj) -> str:
    return _json_text(obj) + "\n"


def _fmt(value: float) -> str:
    """A report number: %.17g, and a non-finite value fails the run."""
    value = float(value)
    if not np.isfinite(value):
        raise NumericalError(f"non-finite value {value} in a report")
    return format(value, ".17g")


def _csv_report(header: list, rows: list) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _trace_csv(mean_states, mean_cumulative) -> str:
    n = mean_states.shape[1]
    rows = [
        [k] + [_fmt(v) for v in mean_states[k]]
        + [_fmt(0.0 if k == 0 else mean_cumulative[k - 1])]
        for k in range(mean_states.shape[0])
    ]
    return _csv_report(
        ["step"] + [f"x{i + 1}" for i in range(n)] + ["cost"], rows
    )


def _realizations_csv(reports: dict) -> str:
    """One row per realization, one terminal-cost column per attack kind."""
    kinds = list(reports)
    count = max(report.realizations for report in reports.values())
    rows = [
        [r] + [_fmt(reports[k].terminal_costs[r]) for k in kinds]
        for r in range(count)
    ]
    return _csv_report(
        ["realization"] + [f"terminal_cost_{kind}" for kind in kinds], rows
    )


def _report_json(report) -> dict:
    return {
        "regime": report.regime,
        "protocol": report.protocol.value,
        "baseline": report.baseline,
        "attacked": report.attacked,
        "increase": report.increase,
        "details": report.details,
    }


def _characterization_json(char) -> dict:
    return {
        "protocol": char.protocol.value,
        "convexity": char.convexity.name.lower(),
        "alpha_star": char.alpha_star,
        "objective_star": char.objective_star,
        "candidates": [
            {"alpha": alpha, "objective": value}
            for alpha, value in char.candidates
        ],
        "alpha_peak": char.alpha_peak,
        "curvature": char.curvature,
        "degenerate": char.degenerate,
    }


def _aggregate_json(report) -> dict:
    return {
        "realizations": report.realizations,
        "mean_terminal_cost": report.mean_terminal,
        "se_terminal_cost": report.se_terminal,
        "detection_rate": report.detection_rate,
        "mean_first_detection": report.mean_first_detection,
        "attack": report.attack_info,
    }


# ------------------------------------------------------------- subcommands

def _initial_attack(args):
    """The experiment, its attack context at the initial mean, and the
    shared-rate optimum there (None when the bands share no rate)."""
    exp = load_experiment(args.config)
    model = exp.model
    ctx = attack_context(
        build_prediction_ensemble(model), model, exp.channel, exp.detection,
        exp.protocol, model.init_mean,
    )
    char = optimal_alpha(ctx) if ctx.region is not None else None
    return exp, ctx, char


def _realizations(args, exp) -> int:
    """``--realizations`` when given, else the config's count."""
    return exp.realizations if args.realizations is None else args.realizations


def _cmd_synthesize(args) -> int:
    exp, ctx, char = _initial_attack(args)

    out = {
        "protocol": exp.protocol.value,
        "state": ctx.x,
        "nominal_rates": exp.channel.mean_diag,
        "region": {
            "per_channel_lo": ctx.box.channel_lo,
            "per_channel_hi": ctx.box.channel_hi,
            "scalar_lo": None if ctx.region is None else ctx.region[0],
            "scalar_hi": None if ctx.region is None else ctx.region[1],
        },
        "iid_scalar": None if char is None else _characterization_json(char),
    }

    qp = ctx.qp
    iid_sol = solve_iid_constrained(qp)
    sched_sol = solve_box_qp_max(qp, iid=iid_sol)
    out["iid_per_channel"] = {
        "means": iid_sol.means[0],
        "objective": iid_sol.objective,
        "winner": iid_sol.winner,
    }
    out["nonstationary"] = {
        "schedule": sched_sol.means,
        "objective": sched_sol.objective,
        "winner": sched_sol.winner,
        "stationarity": sched_sol.stationarity,
    }

    flooding = flooding_condition(ctx)
    out["perfect_channel"] = {
        "state_positive": flooding.state_positive,
        "objective_at_one": flooding.objective_at_one,
        "matrix_definite": flooding.matrix_definite,
        "min_eigenvalue": flooding.min_eigenvalue,
    }

    baseline = expected_attacked_cost(ctx)
    q0 = feedback_benefit(ctx)
    out["cost"] = {
        "baseline": baseline,
        "feedback_benefit": q0,
        "attacked_iid_per_channel": baseline + (iid_sol.objective + q0),
        "attacked_nonstationary": baseline + (sched_sol.objective + q0),
    }

    _write_reports(args.out, {"synthesis.json": _json_report(out)})
    return 0


def _cmd_simulate(args) -> int:
    exp = load_experiment(args.config)
    report = monte_carlo(exp, _realizations(args, exp))
    _write_reports(args.out, {
        "aggregate.json": _json_report(_aggregate_json(report)),
        "trace_mean.csv": _trace_csv(
            report.mean_states, report.mean_cumulative
        ),
        "realizations.csv": _realizations_csv({exp.plan.kind: report}),
    })
    return 0


def _cmd_analyze(args) -> int:
    exp, ctx, char = _initial_attack(args)
    regimes = cost_regimes(ctx)
    q0 = feedback_benefit(ctx)
    out = {
        "protocol": exp.protocol.value,
        "state": ctx.x,
        "baseline_expected_cost": regimes["alpha_0"].baseline,
        "feedback_benefit": q0,
        "regimes": {key: _report_json(rep) for key, rep in regimes.items()},
    }

    if char is not None:
        optimal = {
            "characterization": _characterization_json(char),
            "expected_cost": expected_attacked_cost(ctx, char.alpha_star),
        }
        if char.convexity is Convexity.CONVEX:
            optimal["trough_alpha"] = ctx.line.stationary
        out["optimal_iid"] = optimal
    else:
        out["optimal_iid"] = None

    if args.empirical is not None:
        samples = args.empirical
        sched = solve_box_qp_max(ctx.qp)
        laws = [sched.means] if char is None else [char.alpha_star, sched.means]
        # every law is paired with the nominal one on one shared rollout
        increases = empirical_increases(
            ctx.ens, ctx.model, ctx.gain, ctx.x, laws, samples, exp.seed
        )
        empirical = {}
        if char is not None:
            mean, se = increases[0]
            empirical["optimal_iid"] = {
                "alpha": char.alpha_star,
                "analytic_increase": char.objective_star + q0,
                "empirical_increase": mean,
                "standard_error": se,
                "samples": samples,
            }
        mean, se = increases[-1]
        empirical["nonstationary"] = {
            "analytic_increase": sched.objective + q0,
            "empirical_increase": mean,
            "standard_error": se,
            "samples": samples,
        }
        out["empirical"] = empirical
    else:
        out["empirical"] = None

    _write_reports(args.out, {"cost_report.json": _json_report(out)})
    return 0


def _attack_kinds(text):
    """The kinds of a ``--attacks`` list: at least one, known and distinct."""
    kinds = [kind.strip() for kind in text.split(",") if kind.strip()]
    problems = [] if kinds else ["--attacks: no attack kind given"]
    for i, kind in enumerate(kinds):
        if kind not in _KINDS:
            problems.append(f"--attacks: unknown kind '{kind}'")
        elif kinds.index(kind) < i:
            problems.append(f"--attacks: kind '{kind}' is repeated")
    if problems:
        raise ConfigError(problems)
    return kinds


def _cmd_compare(args) -> int:
    kinds = _attack_kinds(args.attacks)
    exp = load_experiment(args.config)
    realizations = _realizations(args, exp)

    # one lockstep batch: the arms share the set-up and every random draw;
    # each arm is the attack section read as its kind
    plans = [replace(exp.plan, kind=kind) for kind in kinds]
    arms = monte_carlo_arms(exp, plans, realizations)
    reports = dict(zip(kinds, arms))
    for kind in kinds:
        log.info(
            "%s: mean terminal cost %.6g (se %.2g)",
            kind, reports[kind].mean_terminal, reports[kind].se_terminal,
        )

    out = {
        "protocol": exp.protocol.value,
        "realizations": realizations,
        "horizon_steps": exp.T,
        "attacks": {kind: _aggregate_json(reports[kind]) for kind in kinds},
    }
    # paired differences: arms share noise and loss uniforms per realization
    diffs = {}
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            delta = reports[b].terminal_costs - reports[a].terminal_costs
            diffs[f"{b}_minus_{a}"] = {
                "mean": float(np.mean(delta)),
                "se": _standard_error(delta),
            }
    out["paired_differences"] = diffs

    _write_reports(args.out, {
        "comparison.json": _json_report(out),
        "realizations.csv": _realizations_csv(reports),
    })
    return 0


# ------------------------------------------------------------------ driver

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="dropattack",
        description=(
            "Simulation and attack synthesis for linear control over "
            "lossy actuation channels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, realizations=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if realizations:
            p.add_argument(
                "--realizations", type=int, default=None,
                help="override the config's realization count",
            )
        p.set_defaults(func=func)
        return p

    command(
        "synthesize", _cmd_synthesize, "characterize and synthesize attacks"
    )
    command(
        "simulate", _cmd_simulate, "Monte-Carlo closed-loop runs",
        realizations=True,
    )
    command("analyze", _cmd_analyze, "closed-form cost reports").add_argument(
        "--empirical", type=int, default=None, metavar="SAMPLES",
        help="cross-check increases with paired horizon sampling",
    )
    command(
        "compare", _cmd_compare, "Monte-Carlo comparison across attack kinds",
        realizations=True,
    ).add_argument(
        "--attacks", default="none,iid,nonstat",
        help="comma-separated attack kinds (none, iid, nonstat)",
    )
    return parser


def _configure_logging():
    """Log at the level DROPATTACK_LOG names (default WARNING)."""
    name = os.environ.get("DROPATTACK_LOG", "WARNING").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        raise ConfigError(
            f"DROPATTACK_LOG: unknown log level {name!r} "
            "(use DEBUG, INFO, WARNING, ERROR or CRITICAL)"
        )
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (ConfigError, DimensionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InfeasibleRegionError as exc:
        print(f"infeasible attack region: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
