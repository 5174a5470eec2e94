"""Command-line entry points, file formats, and exit codes."""

import csv
import importlib.util
import json
import logging
import pathlib
import re

import numpy as np
import pytest

from dropattack import (
    Convexity,
    InfeasibleRegionError,
    NumericalError,
    attack_context,
    build_prediction_ensemble,
    load_experiment,
)
from dropattack.cli import _fmt, main

from test_attack_iid import peak_doc
from test_config import base_doc
from test_demos import run_python

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_CONFIGS = ROOT / "demos" / "configs"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(base_doc()))
    return str(path)


def read_json(tmp_path, name):
    with open(tmp_path / name) as handle:
        return json.load(handle)


def test_synthesize_writes_report(tmp_path, config_path):
    rc = main(["synthesize", "--config", config_path, "--out", str(tmp_path)])
    assert rc == 0
    doc = read_json(tmp_path, "synthesis.json")
    assert doc["protocol"] == "udp"
    region = doc["region"]
    assert region["scalar_lo"] == pytest.approx(0.6)
    assert region["scalar_hi"] == pytest.approx(0.8)
    char = doc["iid_scalar"]
    assert region["scalar_lo"] <= char["alpha_star"] <= region["scalar_hi"]
    assert {"alpha", "objective"} <= set(char["candidates"][0])
    sched = np.array(doc["nonstationary"]["schedule"])
    assert sched.shape == (5, 2)
    assert (
        doc["nonstationary"]["objective"]
        >= doc["iid_per_channel"]["objective"] - 1e-9
    )
    cost = doc["cost"]
    assert cost["feedback_benefit"] > 0
    assert cost["attacked_nonstationary"] >= cost["attacked_iid_per_channel"] - 1e-9


def test_synthesize_solves_iid_restriction_once(
    tmp_path, config_path, monkeypatch
):
    from dropattack import attack_qp, cli

    calls = []

    def counted(qp):
        calls.append(qp)
        return solve(qp)

    solve = attack_qp.solve_iid_constrained
    monkeypatch.setattr(attack_qp, "solve_iid_constrained", counted)
    monkeypatch.setattr(cli, "solve_iid_constrained", counted)
    rc = main(["synthesize", "--config", config_path, "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1


def test_synthesize_without_common_scalar_band(tmp_path):
    doc = base_doc()
    doc["channel"]["M_diag"] = [0.2, 0.9]
    doc["channel"]["L_diag"] = [0.05, 0.05]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    rc = main(["synthesize", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0  # per-channel synthesis still works
    out = read_json(tmp_path, "synthesis.json")
    assert out["region"]["scalar_lo"] is None
    assert out["iid_scalar"] is None
    assert out["iid_per_channel"] is not None
    np.testing.assert_allclose(out["region"]["per_channel_lo"], [0.15, 0.85])


def test_simulate_writes_trace_and_aggregate(tmp_path, config_path):
    rc = main([
        "simulate", "--config", config_path, "--out", str(tmp_path),
        "--realizations", "50",
    ])
    assert rc == 0
    agg = read_json(tmp_path, "aggregate.json")
    assert agg["realizations"] == 50
    assert agg["mean_terminal_cost"] > 0
    assert agg["attack"]["alpha"] == pytest.approx(0.6)
    with open(tmp_path / "trace_mean.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "x1", "x2", "cost"]
    assert len(rows) == 1 + 51  # header + rows for steps 0..T
    assert float(rows[1][3]) == 0.0  # no cost accrued before the first step
    # cumulative-cost column is nondecreasing (stage costs are nonnegative)
    costs = [float(r[3]) for r in rows[1:]]
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    with open(tmp_path / "realizations.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["realization", "terminal_cost_iid"]
    assert len(rows) == 1 + 50
    terminal = np.array([float(r[1]) for r in rows[1:]])
    assert terminal.mean() == pytest.approx(agg["mean_terminal_cost"])


def test_analyze_reports_regimes(tmp_path, config_path):
    rc = main([
        "analyze", "--config", config_path, "--out", str(tmp_path),
        "--empirical", "4000",
    ])
    assert rc == 0
    doc = read_json(tmp_path, "cost_report.json")
    regimes = doc["regimes"]
    assert regimes["alpha_0"]["increase"] > 0
    assert regimes["alpha_0"]["increase"] == pytest.approx(
        doc["feedback_benefit"], rel=1e-12
    )
    for regime in regimes.values():
        assert regime["attacked"] == pytest.approx(
            regime["baseline"] + regime["increase"], rel=1e-9
        )
    char = doc["optimal_iid"]["characterization"]
    assert 0.6 <= char["alpha_star"] <= 0.8
    emp = doc["empirical"]["optimal_iid"]
    assert emp["samples"] == 4000
    assert abs(emp["empirical_increase"] - emp["analytic_increase"]) <= (
        5 * emp["standard_error"]
    )
    emp = doc["empirical"]["nonstationary"]
    assert abs(emp["empirical_increase"] - emp["analytic_increase"]) <= (
        5 * emp["standard_error"]
    )


@pytest.mark.parametrize("samples", ["0", "1", "-5"])
def test_empirical_needs_two_samples(tmp_path, config_path, samples):
    # a standard error needs at least two samples; 0 asks for a cross-check
    # of no samples, not for none
    rc = main([
        "analyze", "--config", config_path, "--out", str(tmp_path),
        "--empirical", samples,
    ])
    assert rc == 2
    assert not (tmp_path / "cost_report.json").exists()


@pytest.mark.parametrize("config, channel, laws", [
    ("scalar_udp.json", None, {"optimal_iid", "nonstationary"}),
    ("two_channel_schedule.json", None, {"nonstationary"}),
    # overlapping bands give the two-channel plant a stationary optimum
    ("two_channel_schedule.json", [0.7, 0.6], {"optimal_iid", "nonstationary"}),
])
def test_analyze_draws_one_horizon_rollout(
    tmp_path, monkeypatch, config, channel, laws
):
    from dropattack import simulate

    calls = []

    def counted(*args):
        calls.append(args)
        return rollout(*args)

    rollout = simulate._horizon_rollout
    monkeypatch.setattr(simulate, "_horizon_rollout", counted)
    with open(DEMO_CONFIGS / config) as handle:
        doc = json.load(handle)
    if channel is not None:
        doc["channel"]["M_diag"] = channel
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    rc = main([
        "analyze", "--config", str(path), "--out", str(tmp_path),
        "--empirical", "200",
    ])
    assert rc == 0
    assert len(calls) == 1
    assert set(read_json(tmp_path, "cost_report.json")["empirical"]) == laws


def test_non_finite_report_value_fails(tmp_path, config_path, monkeypatch):
    # a non-finite number fails the run instead of becoming a silent null
    import dropattack.cli as cli

    monkeypatch.setattr(cli, "feedback_benefit", lambda ctx: float("nan"))
    rc = main(["analyze", "--config", config_path, "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "cost_report.json").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_csv_value_fails(tmp_path, bad):
    # the CSV reports follow the JSON report's rule, and are formatted
    # before any file is opened
    from types import SimpleNamespace

    import dropattack.cli as cli

    states = np.array([[1.0, 2.0], [bad, 0.5]])
    with pytest.raises(NumericalError, match="non-finite"):
        cli._trace_csv(states, np.array([1.0]))
    with pytest.raises(NumericalError, match="non-finite"):
        cli._trace_csv(np.ones((2, 2)), np.array([bad]))
    report = SimpleNamespace(realizations=2, terminal_costs=np.array([1.0, bad]))
    with pytest.raises(NumericalError, match="non-finite"):
        cli._realizations_csv({"none": report})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "bad", [float("nan"), np.inf, -np.inf, np.float64(np.nan), np.float32(-np.inf)]
)
def test_report_number_rejects_non_finite_values(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        _fmt(bad)
    assert _fmt(np.float64(0.1)) == "0.10000000000000001"
    assert _fmt(np.float32(0.1)) == "0.10000000149011612"
    assert _fmt(np.int64(3)) == _fmt(3) == "3"


def test_simulate_with_non_finite_trace_exits_3(
    tmp_path, config_path, monkeypatch
):
    import dropattack.cli as cli
    from dataclasses import replace

    real = cli.monte_carlo

    def poisoned(exp, realizations):
        report = real(exp, realizations)
        states = report.mean_states.copy()
        states[-1, 0] = np.nan
        return replace(report, mean_states=states)

    monkeypatch.setattr(cli, "monte_carlo", poisoned)
    rc = main([
        "simulate", "--config", config_path, "--out", str(tmp_path / "out"),
        "--realizations", "3",
    ])
    assert rc == 3
    # the trace fails before aggregate.json, formatted first, is written
    assert not (tmp_path / "out").exists()


def test_analyze_tcp_carries_trough(tmp_path):
    doc = base_doc()
    doc["protocol"] = "tcp"
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    out = read_json(tmp_path, "cost_report.json")
    assert out["protocol"] == "tcp"
    assert out["optimal_iid"]["characterization"]["convexity"] == "convex"
    assert out["optimal_iid"]["trough_alpha"] > 0.7


def concave_udp_doc():
    """A udp plant whose shared-rate curve is concave inside its band."""
    return {
        "system": {
            "A": [[-0.29, -0.59], [-0.49, 0.64]],
            "B": [[-0.81], [-0.03]],
            "Sigma_W": [0.01, 0.01],
            "Sigma_X": [0.01, 0.01],
            "X_bar": [1.77, -1.17],
            "Q_diag": [1, 1],
            "Omega_diag": [0.88, 2.65],
            "Psi_diag": [0.265],
            "N": 3,
        },
        "channel": {"M_diag": [0.5], "L_diag": [0.45]},
        "protocol": "udp",
        "simulation": {"T": 50, "R": 10, "seed": 101},
    }


def demo_doc(name, protocol):
    with open(DEMO_CONFIGS / name) as handle:
        doc = json.load(handle)
    doc["protocol"] = protocol
    return doc


@pytest.mark.parametrize("doc, convexity", [
    (concave_udp_doc(), Convexity.CONCAVE),
    # a band reaching below mu - 1/2 holds the peak
    (peak_doc(), Convexity.CONCAVE),
    (demo_doc("scalar_udp.json", "udp"), Convexity.CONVEX),
    (demo_doc("scalar_udp.json", "tcp"), Convexity.CONVEX),
    # disjoint bands: no characterization, so no trough either
    (demo_doc("two_channel_schedule.json", "udp"), Convexity.CONVEX),
    (demo_doc("two_channel_schedule.json", "tcp"), Convexity.CONVEX),
], ids=[
    "concave-udp", "peak-udp", "scalar-udp", "scalar-tcp", "two-channel-udp",
    "two-channel-tcp",
])
def test_reports_read_one_shared_rate_line(tmp_path, doc, convexity):
    # synthesize's characterization, analyze's regimes and its trough all
    # come from the context's one shared-rate line
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    for command in ("synthesize", "analyze"):
        argv = [command, "--config", str(path), "--out", str(tmp_path)]
        assert main(argv) == 0
    synth = read_json(tmp_path, "synthesis.json")
    report = read_json(tmp_path, "cost_report.json")
    exp = load_experiment(path)
    model = exp.model
    ctx = attack_context(
        build_prediction_ensemble(model), model, exp.channel, exp.detection,
        exp.protocol, model.init_mean,
    )
    line = ctx.line
    assert line.convexity is convexity
    optimal = report["optimal_iid"]
    char = synth["iid_scalar"]
    if ctx.region is None:
        assert char is None and optimal is None
    else:
        assert char == optimal["characterization"]
        assert char["convexity"] == convexity.value
        assert char["curvature"] == line.curvature
    regimes = report["regimes"]
    if convexity is Convexity.CONCAVE:
        peak = regimes["alpha_peak"]["details"]["alpha_peak"]
        assert peak == line.stationary == char["alpha_peak"]
        assert "trough_alpha" not in optimal
        if ctx.region[0] <= peak <= ctx.region[1]:
            assert len(char["candidates"]) == 3
            assert char["alpha_star"] == peak
    else:
        assert "alpha_peak" not in regimes
        if optimal is not None:
            assert optimal["trough_alpha"] == line.stationary


def test_compare_pairs_attacks(tmp_path, config_path):
    rc = main([
        "compare", "--config", config_path, "--out", str(tmp_path),
        "--attacks", "none,iid", "--realizations", "60",
    ])
    assert rc == 0
    doc = read_json(tmp_path, "comparison.json")
    assert set(doc["attacks"]) == {"none", "iid"}
    diff = doc["paired_differences"]["iid_minus_none"]
    assert diff["mean"] == pytest.approx(
        doc["attacks"]["iid"]["mean_terminal_cost"]
        - doc["attacks"]["none"]["mean_terminal_cost"],
        rel=1e-9, abs=1e-9,
    )
    assert diff["se"] > 0
    with open(tmp_path / "realizations.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["realization", "terminal_cost_none", "terminal_cost_iid"]
    assert len(rows) == 1 + 60


@pytest.mark.parametrize(
    "command, files",
    [
        (["simulate"], ["aggregate.json", "trace_mean.csv", "realizations.csv"]),
        (["compare"], ["comparison.json", "realizations.csv"]),
    ],
    ids=["simulate", "compare"],
)
def test_outputs_are_deterministic(tmp_path, config_path, command, files):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(command + [
            "--config", config_path, "--out", str(out),
            "--realizations", "20",
        ])
        assert rc == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_float_format_round_trips(tmp_path, config_path):
    main(["simulate", "--config", config_path, "--out", str(tmp_path),
          "--realizations", "5"])
    doc = read_json(tmp_path, "aggregate.json")
    # %.17g representation preserves the double exactly
    val = doc["mean_terminal_cost"]
    assert float(format(val, ".17g")) == val


def test_exit_code_for_bad_config(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    doc = base_doc()
    doc["protocol"] = "смтп"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("level", ["LOUD", "bogus", "10"])
def test_unknown_log_level_is_a_config_error(
    tmp_path, config_path, monkeypatch, capsys, level
):
    # exit 2 with a message naming the variable, and nothing written
    monkeypatch.setenv("DROPATTACK_LOG", level)
    out = tmp_path / "out"
    rc = main(["synthesize", "--config", config_path, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: DROPATTACK_LOG: ")
    assert not out.exists()
    # a known name in any case is the level: recorded, not installed, so
    # the root logger of the test process is left as it was
    levels = []
    monkeypatch.setattr(
        "logging.basicConfig", lambda **kw: levels.append(kw["level"])
    )
    monkeypatch.setenv("DROPATTACK_LOG", "debug")
    assert main(["synthesize", "--config", config_path, "--out", str(out)]) == 0
    assert levels == [logging.DEBUG]


@pytest.mark.parametrize(
    "command", [["simulate"], ["analyze", "--empirical", "20"], ["compare"]]
)
def test_negative_seed_is_a_config_error(tmp_path, command):
    doc = base_doc()
    doc["simulation"]["seed"] = -3
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    argv = command[:1] + ["--config", str(path), "--out", str(tmp_path)]
    assert main(argv + command[1:]) == 2


@pytest.mark.parametrize(
    "command",
    [["synthesize"], ["simulate"], ["analyze"], ["compare"]],
    ids=["synthesize", "simulate", "analyze", "compare"],
)
def test_onset_beyond_T_is_a_config_error(tmp_path, command):
    doc = base_doc()
    doc["attack"]["onset"] = 60
    doc["simulation"]["T"] = 50
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(command + ["--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def key_tree(obj):
    """The keys of a report, nested, with every value dropped."""
    if isinstance(obj, dict):
        return {key: key_tree(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [key_tree(value) for value in obj if isinstance(value, dict)]
    return None


@pytest.mark.parametrize(
    "command, report, shared",
    [
        (["synthesize"], "synthesis.json", ("perfect_channel", "min_eigenvalue")),
        (
            ["analyze", "--empirical", "50"], "cost_report.json",
            ("optimal_iid", "trough_alpha"),
        ),
    ],
    ids=["synthesize", "analyze"],
)
def test_reports_have_one_key_tree_for_both_protocols(
    tmp_path, command, report, shared
):
    # the protocol changes numbers, never which fields a report carries;
    # base_doc's shared-rate curve is convex for both protocols
    trees = {}
    for protocol in ("udp", "tcp"):
        doc = base_doc()
        doc["protocol"] = protocol
        path = tmp_path / f"{protocol}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / protocol
        argv = command[:1] + ["--config", str(path), "--out", str(out)]
        assert main(argv + command[1:]) == 0
        trees[protocol] = key_tree(read_json(out, report))
    assert trees["udp"] == trees["tcp"]
    outer, inner = shared
    assert inner in trees["udp"][outer]


@pytest.mark.parametrize(
    "attack",
    [
        {"kind": "nonstat", "onset": 2.5},
        {"kind": "nonstat", "resynthesize": "no"},
        {"kind": "nonstat", "schedule": [[0.5, 0.5]], "resynthesize": True},
        # pairs that form no law are rejected whatever the kind
        {
            "kind": "iid", "alpha": 0.6, "schedule": [[0.5, 0.5]],
            "resynthesize": True,
        },
        {"kind": "iid", "alpha": 0.6, "means": [0.5, 0.05]},
        {"kind": "nonstat", "state_mode": "mean", "resynthesize": True},
        # Python's json reads the NaN literal; no uniform is below a NaN
        # rate, so every packet would drop
        {"kind": "iid", "means": [float("nan"), 0.5]},
        {"kind": "nonstat", "schedule": [[float("nan"), 0.5]]},
        {"kind": "iid", "alpha": True},
    ],
)
def test_malformed_attack_keys_are_config_errors(tmp_path, attack, capsys):
    doc = base_doc()
    doc["attack"] = attack
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    # compare reads the same section, so it rejects it the same way
    for command in ("simulate", "compare"):
        argv = [command, "--config", str(path), "--out", str(tmp_path)]
        assert main(argv + ["--realizations", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: attack")


def test_compare_arms_share_one_attack_section(tmp_path):
    # alpha and means set up the iid arm; schedule and resynthesize the
    # nonstat arm, which synthesizes from each episode's own state
    with open(DEMO_CONFIGS / "scalar_udp.json") as handle:
        doc = json.load(handle)
    doc["attack"] = {
        "kind": "iid", "alpha": 0.6, "onset": 7, "resynthesize": True,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    rc = main([
        "compare", "--config", str(path), "--out", str(tmp_path),
        "--realizations", "3",
    ])
    assert rc == 0
    attacks = read_json(tmp_path, "comparison.json")["attacks"]
    assert attacks["none"]["attack"] == {
        "kind": "none", "per_episode_synthesis": False,
    }
    assert attacks["iid"]["attack"] == {
        "kind": "iid", "alpha": 0.6, "fixed": True,
    }
    assert attacks["nonstat"]["attack"] == {
        "kind": "nonstat", "per_episode_synthesis": True,
    }


@pytest.mark.parametrize("config", ["scalar_udp.json", "two_channel_schedule.json"])
@pytest.mark.parametrize("kind, other", [
    ("nonstat", "alpha"),
    ("iid", "schedule"),
])
def test_simulate_equals_compare_arm(tmp_path, config, kind, other):
    # another kind's keys leave the plan's own law alone: simulate runs
    # exactly compare's arm of the same kind
    with open(DEMO_CONFIGS / config) as handle:
        doc = json.load(handle)
    m = len(doc["channel"]["M_diag"])
    keys = {"alpha": 0.6, "schedule": [[0.65] * m]}
    doc["attack"] = {"kind": kind, other: keys[other], "onset": 7}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    reports = {}
    for command in ("simulate", "compare"):
        out = tmp_path / command
        rc = main([
            command, "--config", str(path), "--out", str(out),
            "--realizations", "20",
        ])
        assert rc == 0
        with open(out / "realizations.csv") as handle:
            reports[command] = list(csv.DictReader(handle))
    column = f"terminal_cost_{kind}"
    assert [row[column] for row in reports["simulate"]] == [
        row[column] for row in reports["compare"]
    ]
    arm = read_json(tmp_path / "compare", "comparison.json")["attacks"][kind]
    assert read_json(tmp_path / "simulate", "aggregate.json") == arm
    assert arm["attack"] == {"kind": kind, "per_episode_synthesis": True}


def test_error_exit_code_mapping(tmp_path, config_path, monkeypatch):
    # library errors that escape a command map to stable exit codes
    import dropattack.cli as cli

    def boom_numerical(path):
        raise NumericalError("factorization failed")

    monkeypatch.setattr(cli, "load_experiment", boom_numerical)
    assert main(["analyze", "--config", config_path, "--out", str(tmp_path)]) == 3

    def boom_region(path):
        raise InfeasibleRegionError("no common rate")

    monkeypatch.setattr(cli, "load_experiment", boom_region)
    assert main(["analyze", "--config", config_path, "--out", str(tmp_path)]) == 4


def bench_workloads():
    """``bench/workloads.py``, the benchmark's config generator."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("horizon, code", [(160, 0), (320, 3)])
def test_numerically_singular_gain_exits_3(tmp_path, capsys, horizon, code):
    # synth-sweep's d160-tcp-0 at seed 101 (spectral radius about 1.034)
    # over N = 320 steps has a kernel rcond of 4.7e-19, below d eps =
    # 1.4e-13; at N = 160 it is 1.6e-10, and the run goes through
    workloads = bench_workloads()
    ops = workloads.build(
        "synth-sweep", 101, str(tmp_path / "work"), str(ROOT), workloads.FULL
    )
    (op,) = [op for op in ops if op["name"] == "d160-tcp-0"]
    with open(op["config"]) as handle:
        doc = json.load(handle)
    doc["system"]["N"] = horizon
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        found = re.search(r"condition estimate (\S+) is below d eps = (\S+)", err)
        assert float(found[1]) < 1e-15
        assert float(found[2]) == pytest.approx(640 * np.finfo(float).eps, rel=1e-2)
        assert not out.exists()
    else:
        assert (out / "synthesis.json").exists()


def test_cli_runs_import_no_scipy(tmp_path):
    # the package's one runtime dependency is numpy: a synthesis and a
    # sampled analysis leave no scipy module loaded
    config = str(DEMO_CONFIGS / "two_channel_schedule.json")
    script = "\n".join([
        "import sys",
        "from dropattack.cli import main",
        f"assert main(['synthesize', '--config', {config!r}, "
        f"'--out', {str(tmp_path / 'synth')!r}]) == 0",
        f"assert main(['analyze', '--config', {config!r}, "
        f"'--out', {str(tmp_path / 'analyze')!r}, '--empirical', '50']) == 0",
        "loaded = [name for name in sys.modules",
        "          if name == 'scipy' or name.startswith('scipy.')]",
        "assert not loaded, loaded",
    ])
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "analyze" / "cost_report.json").exists()


def test_compare_rejects_unknown_attack_kind(tmp_path, config_path):
    rc = main([
        "compare", "--config", config_path, "--out", str(tmp_path),
        "--attacks", "none,ddos",
    ])
    assert rc == 2


@pytest.mark.parametrize("attacks", [",", "", "iid,iid", "none,iid,none"])
def test_compare_rejects_empty_or_repeated_attack_list(
    tmp_path, config_path, attacks
):
    out = tmp_path / "out"
    rc = main([
        "compare", "--config", config_path, "--out", str(out),
        "--attacks", attacks,
    ])
    assert rc == 2
    assert not (out / "comparison.json").exists()
    assert not (out / "realizations.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_zero_realizations_are_rejected(tmp_path, config_path, command):
    # an explicit 0 is a count for the validator, not the config's R
    out = tmp_path / "out"
    rc = main([
        command, "--config", config_path, "--out", str(out),
        "--realizations", "0",
    ])
    assert rc == 2
    assert not out.exists()


def test_out_directory_is_made_only_by_a_report(tmp_path, config_path):
    # runs rejected with exit 2 leave no --out directory behind
    out = tmp_path / "rejected"
    rc = main([
        "compare", "--config", config_path, "--out", str(out),
        "--attacks", "iid,iid",
    ])
    assert rc == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["simulate", "--config", str(empty), "--out", str(out)]) == 2
    assert not out.exists()
    # a successful run still creates a nested --out
    nested = tmp_path / "a" / "b"
    rc = main(["synthesize", "--config", config_path, "--out", str(nested)])
    assert rc == 0
    assert (nested / "synthesis.json").exists()


@pytest.mark.parametrize("command, extra", [
    ("synthesize", []),
    ("simulate", ["--realizations", "2"]),
    ("analyze", []),
    ("compare", ["--realizations", "2"]),
])
def test_unwritable_out_is_a_config_error(tmp_path, command, extra, capsys):
    # an --out below a regular file cannot be made: exit 2, naming the
    # path, and nothing written
    config = str(DEMO_CONFIGS / "scalar_udp.json")
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    rc = main([command, "--config", config, "--out", str(out)] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out: cannot write")
    assert str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == ""
