"""Closed-loop episodes, Monte-Carlo aggregation, horizon estimators."""

import dataclasses
import functools
import gc
import importlib
import os
import pkgutil
import sys
import threading
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dropattack import (
    AttackPlan,
    ChannelSpec,
    DetectionSpec,
    DimensionError,
    EpisodeConfig,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    control_gain,
    empirical_increase,
    empirical_increases,
    expected_attacked_cost,
    horizon_cost_samples,
    monte_carlo,
    resolve_attack,
    run_episode,
)
from dropattack import attack_qp, simulate

from conftest import (
    gramian_horizon_costs,
    make_model,
    random_model,
    shared_channel,
    shared_detection,
    slow_episode,
    slow_horizon_costs,
    slow_stage_cost,
    slow_step,
)


def small_cfg(**kw):
    model = kw.pop("model", None)
    if model is None:
        model = make_model(
            [[1.03, 0.005], [0.35, 0.5]], np.eye(2), horizon=5,
            noise=[0.01, 0.01],
        )
    defaults = dict(
        model=model,
        channel=shared_channel(model.m, 0.7),
        detection=shared_detection(model.m, 0.1),
        protocol=Protocol.UDP_LIKE,
        T=20,
        seed=3,
    )
    defaults.update(kw)
    return EpisodeConfig(**defaults)


def test_attack_plan_validation():
    with pytest.raises(DimensionError):
        AttackPlan(kind="replay")
    with pytest.raises(DimensionError):
        AttackPlan(kind="iid", onset=-1)
    with pytest.raises(DimensionError):
        AttackPlan(kind="iid", alpha=1.5)
    with pytest.raises(DimensionError):
        AttackPlan(kind="iid", state_mode="final")
    with pytest.raises(DimensionError):
        AttackPlan(kind="nonstat", schedule=np.full((2, 2), 2.0))
    with pytest.raises(DimensionError):
        AttackPlan(kind="nonstat", schedule=np.full(4, 0.5))  # needs 2-d
    with pytest.raises(DimensionError, match="at least one step"):
        AttackPlan(kind="nonstat", schedule=np.zeros((0, 2)))  # nothing to cycle
    # NaN fails every comparison: a NaN delivery rate drops every packet
    for rates in ({"alpha": np.nan}, {"means": [np.nan]}, {"schedule": [[np.nan]]}):
        with pytest.raises(DimensionError):
            AttackPlan(kind="iid", **rates)
    with pytest.raises(DimensionError):
        # resynthesis would never play the fixed schedule
        AttackPlan(
            kind="nonstat", schedule=np.full((2, 2), 0.5), resynthesize=True
        )
    # one plan reads as every kind, so no kind takes a pair that forms
    # no law
    with pytest.raises(DimensionError):
        AttackPlan(kind="iid", schedule=np.full((2, 2), 0.5), resynthesize=True)
    with pytest.raises(DimensionError):
        AttackPlan(kind="iid", alpha=0.3, means=[0.5, 0.5])
    # resynthesis synthesizes from the state every step, "mean" once from
    # the initial mean
    for kind in ("none", "iid", "nonstat"):
        with pytest.raises(DimensionError, match="state_mode 'mean'"):
            AttackPlan(kind=kind, state_mode="mean", resynthesize=True)

    assert not AttackPlan().needs_state
    assert AttackPlan(kind="iid").needs_state
    assert not AttackPlan(kind="iid", alpha=0.3).needs_state
    assert not AttackPlan(kind="iid", state_mode="mean").needs_state
    assert AttackPlan(kind="nonstat").needs_state
    assert not AttackPlan(kind="nonstat", schedule=np.full((3, 1), 0.5)).needs_state
    # each kind reads only its own keys
    assert AttackPlan(kind="nonstat", alpha=0.3).needs_state
    assert AttackPlan(kind="iid", schedule=[[0.5]]).needs_state


def test_attack_plan_rejects_flags_and_rates_of_the_wrong_type():
    # a truthy string would resynthesize at every step, and a string or
    # bool rate would be stored as given; numpy numbers stay accepted
    for resynthesize in ("no", 1, None):
        with pytest.raises(DimensionError, match="resynthesize must be a bool"):
            AttackPlan(kind="nonstat", resynthesize=resynthesize)
    for alpha in ("0.3", True, np.True_, [0.3]):
        with pytest.raises(DimensionError, match="alpha must be a number"):
            AttackPlan(kind="iid", alpha=alpha)
    assert AttackPlan(kind="nonstat", resynthesize=np.True_).resynthesize
    for alpha in (np.float32(0.25), np.float64(0.3), np.int64(1), 0, 0.5):
        assert AttackPlan(kind="iid", alpha=alpha).alpha == alpha


def test_episode_config_validation():
    with pytest.raises(DimensionError):
        small_cfg(T=0)
    with pytest.raises(DimensionError):
        small_cfg(T=5, plan=AttackPlan(kind="iid", alpha=0.2, onset=9))
    with pytest.raises(DimensionError):
        small_cfg(channel=shared_channel(3, 0.7))


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_counts_must_be_integers(value):
    # a bool would run as 0 or 1, a float would fail deep inside a run
    with pytest.raises(DimensionError, match="attack onset must be an integer >= 0"):
        AttackPlan(kind="iid", onset=value)
    with pytest.raises(DimensionError, match="T must be an integer >= 1"):
        small_cfg(T=value)
    cfg = small_cfg(T=5)
    with pytest.raises(DimensionError, match="T must be an integer >= 1"):
        replace(cfg, T=value)
    with pytest.raises(DimensionError, match="realizations must be an integer >= 1"):
        monte_carlo(cfg, value)
    with pytest.raises(DimensionError, match="realizations must be an integer >= 1"):
        simulate.monte_carlo_arms(cfg, [cfg.plan], value)
    # numpy integers are integers
    assert AttackPlan(kind="iid", onset=np.int64(2)).onset == 2
    assert monte_carlo(replace(cfg, T=np.int64(3)), np.int64(2)).realizations == 2


@pytest.mark.parametrize("value", [2.5, 0, -3, True, "3"])
def test_detector_min_steps_must_be_a_positive_integer(value):
    # 2.5 would fail deep inside monte_carlo's monitor slice, and 0, -3 or
    # True would arm at step 1 in silence
    with pytest.raises(
        DimensionError, match="detector_min_steps must be an integer >= 1"
    ):
        small_cfg(T=5, detector_min_steps=value)
    assert small_cfg(T=5, detector_min_steps=np.int64(4)).detector_min_steps == 4


@pytest.mark.parametrize(
    "plan",
    [
        # one column would be broadcast over both channels
        AttackPlan(kind="nonstat", schedule=[[0.5]]),
        AttackPlan(kind="iid", means=[0.5, 0.5, 0.5]),
        AttackPlan(kind="nonstat", schedule=np.full((2, 3), 0.5)),
    ],
    ids=["schedule-1-column", "means-3-entries", "schedule-3-columns"],
)
def test_episode_config_rejects_plan_that_does_not_fit(plan):
    with pytest.raises(DimensionError):
        small_cfg(plan=plan)


def test_episode_reproducible_and_consistent():
    cfg = small_cfg()
    a = run_episode(cfg, realization=7)
    b = run_episode(cfg, realization=7)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.losses, b.losses)
    np.testing.assert_array_equal(a.cumulative, b.cumulative)
    # a different realization re-keys every stream
    c = run_episode(cfg, realization=8)
    assert not np.array_equal(a.noises, c.noises)
    assert not np.array_equal(a.losses, c.losses)

    # internal consistency: recursion, costs, shapes
    model = cfg.model
    T = cfg.T
    assert a.states.shape == (T + 1, model.n)
    np.testing.assert_allclose(a.cumulative, np.cumsum(a.stage_costs), atol=0)
    assert a.terminal_cost == a.cumulative[-1]
    for k in range(T):
        want = slow_step(
            model, a.states[k], a.inputs[k], a.losses[k], a.noises[k]
        )
        np.testing.assert_allclose(a.states[k + 1], want, atol=1e-12)
        want_cost = slow_stage_cost(
            model, a.states[k], a.inputs[k], a.losses[k], a.states[k + 1]
        )
        assert a.stage_costs[k] == pytest.approx(want_cost, rel=1e-12)


def test_attacks_share_noise_via_stream_split():
    # common random numbers: the attack changes losses, never the noises
    base = small_cfg()
    hit = small_cfg(plan=AttackPlan(kind="iid", alpha=0.1))
    a = run_episode(base, realization=5)
    b = run_episode(hit, realization=5)
    np.testing.assert_array_equal(a.noises, b.noises)
    assert not np.array_equal(a.losses, b.losses)


BLOCK = simulate._BLOCK
BIG_SEED = 2 ** 64 + 1

# (kind, protocol, onset, flags, detector_min_steps, realizations): every
# attack kind on both protocols at onset 0 and later, each flag and both
# arming delays more than once, and a block boundary crossed by every kind
LOCKSTEP_CASES = [
    ("none", "udp", 0, {}, 1, 1),
    ("none", "tcp", 5, {"zero_input": True}, 10, BLOCK + 2),
    ("none", "udp", 0, {"sample_x0": True}, 10, 3),
    ("iid", "udp", 0, {}, 1, BLOCK + 2),
    ("iid", "tcp", 6, {"sample_x0": True}, 1, 3),
    ("iid", "udp", 4, {}, 1, 3),
    ("iid", "tcp", 0, {"zero_input": True, "sample_x0": True}, 10, BLOCK + 2),
    ("iid", "udp", 5, {"state_mode": "mean"}, 10, 3),
    ("nonstat", "udp", 0, {}, 10, BLOCK + 2),
    ("nonstat", "tcp", 7, {"sample_x0": True}, 1, BLOCK + 2),
    ("nonstat", "udp", 12, {"resynthesize": True}, 1, 3),
    ("nonstat", "tcp", 0, {"resynthesize": True, "sample_x0": True}, 10, 1),
    ("nonstat", "udp", 3, {"zero_input": True}, 1, 3),
    ("nonstat", "tcp", 8, {"resynthesize": True}, 10, 3),
    # another kind's keys leave the plan's own law alone
    ("nonstat", "udp", 7, {"alpha": 0.6}, 1, BLOCK + 2),
    ("nonstat", "tcp", 7, {"means": [0.6, 0.6]}, 10, 3),
    ("iid", "tcp", 6, {"schedule": [[0.6, 0.6]]}, 1, 3),
    # a seed of three 32-bit words: five entropy words per stream key
    ("nonstat", "udp", 7, {"sample_x0": True, "seed": BIG_SEED}, 1, BLOCK + 2),
    ("nonstat", "tcp", 5, {"resynthesize": True, "seed": BIG_SEED}, 10, 3),
    # per-step resynthesis across a block boundary
    ("nonstat", "udp", 9, {"resynthesize": True}, 1, BLOCK + 2),
]


def _close(a, b):
    """Agreement to 1e-12 relative to the largest entry."""
    np.testing.assert_allclose(
        a, b, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(b)))
    )


@pytest.mark.parametrize(
    "kind, protocol, onset, flags, min_steps, realizations", LOCKSTEP_CASES
)
def test_lockstep_matches_slow_episode(
    kind, protocol, onset, flags, min_steps, realizations
):
    flags = dict(flags)
    plan = AttackPlan(
        kind=kind, onset=onset,
        alpha=flags.pop("alpha", None),
        means=flags.pop("means", None),
        schedule=flags.pop("schedule", None),
        state_mode=flags.pop("state_mode", "onset"),
        resynthesize=flags.pop("resynthesize", False),
    )
    cfg = small_cfg(
        plan=plan,
        protocol=Protocol(protocol),
        # band [0.5, 1]: runs of deliveries stay inside, so detection
        # steps vary from realization to realization
        channel=shared_channel(2, 0.75),
        detection=shared_detection(2, 0.25),
        detector_min_steps=min_steps,
        seed=flags.pop("seed", 11),
        **flags,
    )
    slow = [slow_episode(cfg, r) for r in range(realizations)]
    rep = monte_carlo(cfg, realizations)
    for r, want in enumerate(slow):
        got = run_episode(cfg, r)
        # one set-up and one law: the batch runs exactly this episode
        assert rep.terminal_costs[r] == got.terminal_cost
        np.testing.assert_array_equal(got.losses, want.losses)
        np.testing.assert_array_equal(got.noises, want.noises)
        np.testing.assert_array_equal(got.monitor_means, want.monitor_means)
        _close(got.states, want.states)
        _close(got.inputs, want.inputs)
        _close(got.stage_costs, want.stage_costs)
        _close(got.cumulative, want.cumulative)
        assert got.detected == want.detected
        assert got.first_detection == want.first_detection
    _close(rep.terminal_costs, [t.terminal_cost for t in slow])
    _close(rep.mean_states, np.mean([t.states for t in slow], axis=0))
    _close(rep.mean_cumulative, np.mean([t.cumulative for t in slow], axis=0))
    hits = [t.first_detection for t in slow if t.detected]
    assert rep.detection_rate == len(hits) / realizations
    assert rep.mean_first_detection == (np.mean(hits) if hits else None)


# (0/1 schedule, detector_min_steps, first detection): every delivery is
# certain, so at the arming step the running mean sits exactly on an edge
# of 0.7 +- 0.1; both edges lie inside the band, so the monitor fires only
# once the cycle restarts above it, and never on the lower edge
EDGE_CASES = [
    ([1, 1, 1, 1, 0], 5, 5),  # 4/5 on the upper edge
    ([1] * 24 + [0] * 6, 30, 30),  # 24/30 on the upper edge
    ([1, 1, 1, 0, 0], 5, None),  # 3/5 on the lower edge
]


@pytest.mark.parametrize("pattern, min_steps, first", EDGE_CASES)
def test_running_mean_on_a_band_edge_is_inside(pattern, min_steps, first):
    schedule = np.repeat(np.array(pattern, dtype=float)[:, None], 2, axis=1)
    cfg = small_cfg(
        plan=AttackPlan(kind="nonstat", schedule=schedule),
        T=40,
        detector_min_steps=min_steps,
    )
    edge = sum(pattern) / len(pattern)
    for trace in (run_episode(cfg), slow_episode(cfg, 0)):
        np.testing.assert_array_equal(trace.monitor_means[min_steps - 1], edge)
        assert trace.first_detection == first
        assert trace.detected == (first is not None)


def test_zero_input_matches_all_drop_attack():
    # criterion-6 identity at unit-test scale: blackout = open loop
    drop = small_cfg(plan=AttackPlan(kind="iid", alpha=0.0))
    off = small_cfg(zero_input=True)
    for r in range(3):
        a = run_episode(drop, realization=r)
        b = run_episode(off, realization=r)
        np.testing.assert_array_equal(a.states, b.states)
        # delivered inputs (v * u) match even though commands differ
        np.testing.assert_array_equal(a.losses * a.inputs, b.losses * b.inputs)
    # the identity holds for whole batches too, across a block boundary
    a = monte_carlo(drop, BLOCK + 2)
    b = monte_carlo(off, BLOCK + 2)
    np.testing.assert_array_equal(a.terminal_costs, b.terminal_costs)
    np.testing.assert_array_equal(a.mean_states, b.mean_states)
    np.testing.assert_array_equal(a.mean_cumulative, b.mean_cumulative)


def test_resynthesis_synthesizes_once_per_row_and_step(monkeypatch):
    # the schedule resolved at onset would be replaced by the step's own
    # synthesis, so set-up resolves no law: it checks the attack table
    # once, by one table read and one per-state solve at the initial
    # mean, whatever the number of blocks; from onset every row
    # synthesizes once per step, the rows of a step in one table product
    rows, solves = [], []

    def counted_schedules(table, states):
        rows.append(len(states))
        return schedules(table, states)

    def counted_solve(*args):
        solves.append(args)
        return resolve(*args)

    schedules, resolve = attack_qp._AttackTable.schedules, simulate._resolve
    monkeypatch.setattr(attack_qp._AttackTable, "schedules", counted_schedules)
    monkeypatch.setattr(simulate, "_resolve", counted_solve)
    monkeypatch.setattr(simulate, "resolve_attack", None)  # not at set-up
    cfg = small_cfg(
        T=12, plan=AttackPlan(kind="nonstat", onset=7, resynthesize=True)
    )
    for realizations in (1, 3, BLOCK + 2):
        rows.clear(), solves.clear()
        rep = monte_carlo(cfg, realizations)
        starts = range(0, realizations, BLOCK)
        sizes = [min(BLOCK, realizations - start) for start in starts]
        assert rows == [1] + [size for size in sizes for _ in range(12 - 7)]
        assert len(solves) == 1
    for r in (0, 1, BLOCK + 1):
        rows.clear(), solves.clear()
        got = run_episode(cfg, r)
        assert rows == [1] * (1 + 12 - 7) and len(solves) == 1
        assert got.terminal_cost == rep.terminal_costs[r]
        np.testing.assert_array_equal(got.losses, slow_episode(cfg, r).losses)


def count_solves(monkeypatch):
    """The list that every per-state resolution of the engine appends to."""
    solves = []

    def counted(*args):
        solves.append(args)
        return resolve(*args)

    resolve = simulate._resolve
    monkeypatch.setattr(simulate, "_resolve", counted)
    return solves


def assert_episodes_match_slow_ones(cfg, realizations):
    rep = monte_carlo(cfg, realizations)
    for r in range(realizations):
        want = slow_episode(cfg, r)
        np.testing.assert_array_equal(
            run_episode(cfg, r).losses, want.losses
        )
        _close(rep.terminal_costs[r], want.terminal_cost)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_resynthesis_beyond_the_table_cap_runs_the_solver(
    protocol, monkeypatch
):
    # two channels over N = 8 steps: d = 16, so 2^16 vertex values for
    # each of the three pair products of the state exceed the table's cap,
    # and every row resolves its schedule with the per-state solver
    model = make_model(
        [[1.03, 0.005], [0.35, 0.5]], np.eye(2), horizon=8, noise=[0.01, 0.01]
    )
    cfg = small_cfg(
        model=model, protocol=protocol, T=9,
        plan=AttackPlan(kind="nonstat", onset=6, resynthesize=True),
    )
    ens = build_prediction_ensemble(model)
    gain = control_gain(ens, model, cfg.channel.mean_diag, protocol)
    box = simulate._attack_box(cfg.channel, cfg.detection, ens.horizon)
    assert 2 ** 16 * 3 > attack_qp._TABLE_CAP
    assert attack_qp._attack_table(gain, box) is None
    solves = count_solves(monkeypatch)
    monte_carlo(cfg, 2)
    assert len(solves) == 2 * (9 - 6)
    assert_episodes_match_slow_ones(cfg, 2)


@pytest.mark.parametrize("plan", [
    AttackPlan(kind="nonstat", onset=7, resynthesize=True),
    AttackPlan(kind="nonstat", onset=7),
])
def test_a_table_that_disagrees_with_its_check_falls_back(plan, monkeypatch):
    # a table that scores every point 0 keeps the nominal rates; the
    # set-up's solve at the initial mean picks a vertex, so the arm drops
    # the table and resolves every row of every block with the solver
    def nominal_table(gain, box):
        table = build(gain, box)
        return dataclasses.replace(table, values=np.zeros_like(table.values))

    build = simulate._attack_table
    monkeypatch.setattr(simulate, "_attack_table", nominal_table)
    solves = count_solves(monkeypatch)
    cfg = small_cfg(T=12, plan=plan)
    monte_carlo(cfg, BLOCK + 2)
    steps = len(range(7, 12)) if plan.resynthesize else 1
    assert len(solves) == 1 + (BLOCK + 2) * steps
    assert_episodes_match_slow_ones(cfg, BLOCK + 2)


def test_a_finished_operation_holds_no_state(monkeypatch):
    # once a resynthesizing two-channel monte_carlo returns, nothing in
    # the package keeps its gain, its channel and detection specs or its
    # attack table alive
    refs = []

    def recorded(build):
        def call(*args):
            result = build(*args)
            refs.append(weakref.ref(result))
            return result
        return call

    for name in ("control_gain", "_attack_table"):
        monkeypatch.setattr(simulate, name, recorded(getattr(simulate, name)))
    cfg = small_cfg(
        T=12, plan=AttackPlan(kind="nonstat", onset=7, resynthesize=True)
    )
    assert cfg.channel.m == 2
    refs += [weakref.ref(cfg.channel), weakref.ref(cfg.detection)]
    monte_carlo(cfg, 3)
    assert len(refs) == 4  # one gain and one table
    del cfg
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


# (protocol, onset, flags, detector_min_steps): the flags of
# LOCKSTEP_CASES, each mixed with onset > 0 or 0 and both arming delays
ARM_CASES = [
    ("udp", 0, {}, 1),
    ("tcp", 6, {"sample_x0": True}, 10),
    ("udp", 5, {"state_mode": "mean", "zero_input": True}, 1),
    ("tcp", 0, {"zero_input": True, "sample_x0": True}, 10),
    ("udp", 12, {"resynthesize": True}, 10),
    ("tcp", 0, {"resynthesize": True, "sample_x0": True}, 1),
]


@pytest.mark.parametrize("protocol, onset, flags, min_steps", ARM_CASES)
def test_arms_match_single_arm_runs(
    protocol, onset, flags, min_steps, monkeypatch
):
    flags = dict(flags)
    plan_flags = {
        "state_mode": flags.pop("state_mode", "onset"),
        "resynthesize": flags.pop("resynthesize", False),
    }
    plans = [
        AttackPlan(kind=kind, onset=onset, **plan_flags)
        for kind in ("none", "iid", "nonstat")
    ]
    cfg = small_cfg(
        protocol=Protocol(protocol),
        channel=shared_channel(2, 0.75),
        detection=shared_detection(2, 0.25),
        detector_min_steps=min_steps,
        seed=11,
        **flags,
    )
    realizations = BLOCK + 2
    derived = []

    def counted(seed, block, purposes):
        derived.extend((r, p) for r in block for p in purposes)
        return keys(seed, block, purposes)

    keys = simulate.philox_keys
    monkeypatch.setattr(simulate, "philox_keys", counted)
    arms = simulate.monte_carlo_arms(cfg, plans, realizations)
    # each stream's key is derived once per realization, whatever the arm
    # count
    assert len(derived) == (3 if cfg.sample_x0 else 2) * realizations
    assert len(set(derived)) == len(derived)

    for plan, got in zip(plans, arms):
        want = monte_carlo(replace(cfg, plan=plan), realizations)
        np.testing.assert_array_equal(got.terminal_costs, want.terminal_costs)
        np.testing.assert_array_equal(got.mean_states, want.mean_states)
        np.testing.assert_array_equal(
            got.mean_cumulative, want.mean_cumulative
        )
        assert got.detection_rate == want.detection_rate
        assert got.mean_first_detection == want.mean_first_detection
        assert got.attack_info == want.attack_info


def test_iid_plan_ignores_resynthesize(monkeypatch):
    # per-step resynthesis is nonstat-only: an iid plan with the flag is
    # resolved once, like the same plan without it
    calls = []

    def counted(*args):
        calls.append(args)
        return resolve(*args)

    resolve = simulate.resolve_attack
    monkeypatch.setattr(simulate, "resolve_attack", counted)
    flagged = monte_carlo(
        small_cfg(plan=AttackPlan(kind="iid", resynthesize=True)), 100
    )
    assert len(calls) == 1
    plain = monte_carlo(small_cfg(plan=AttackPlan(kind="iid")), 100)
    assert flagged.attack_info == plain.attack_info
    assert {"objective", "means"} <= set(flagged.attack_info)
    np.testing.assert_array_equal(flagged.terminal_costs, plain.terminal_costs)


def test_arms_need_a_plan():
    with pytest.raises(DimensionError):
        simulate.monte_carlo_arms(small_cfg(), [], 3)
    with pytest.raises(DimensionError):
        simulate.monte_carlo_arms(
            small_cfg(T=5), [AttackPlan(kind="iid", alpha=0.2, onset=9)], 3
        )


def test_arms_take_plans_from_a_generator():
    # the plans are read once, so a generator gives the list's reports
    cfg = small_cfg(T=8)
    plans = [
        AttackPlan(kind=kind, onset=2) for kind in ("none", "iid", "nonstat")
    ]
    want = simulate.monte_carlo_arms(cfg, plans, 3)
    got = simulate.monte_carlo_arms(cfg, (plan for plan in plans), 3)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in (field.name for field in dataclasses.fields(a)):
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(x, y)
            else:
                assert x == y, name


def test_covariances_are_factored_once_with_the_model(monkeypatch):
    # the model factors each covariance when it is built; the ensemble,
    # the lockstep engine's blocks and the horizon rollout read the factors
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    noise = [[0.02, 0.005], [0.005, 0.01]]
    model = make_model(
        [[1.03, 0.005], [0.35, 0.5]], np.eye(2), horizon=5, noise=noise,
    )
    assert len(calls) == 2
    assert np.array_equal(calls[0], model.noise_cov)
    assert np.array_equal(calls[1], model.init_cov)
    calls.clear()
    ens = build_prediction_ensemble(model)
    plan = AttackPlan(kind="nonstat", onset=3)
    cfg = small_cfg(model=model, plan=plan, sample_x0=True)
    monte_carlo(cfg, BLOCK + 2)
    gain = control_gain(ens, model, cfg.channel.mean_diag, cfg.protocol)
    empirical_increases(ens, model, gain, model.init_mean, [0.65, 0.8], 50)
    assert calls == []


def test_stage_cost_blocks():
    model = make_model([[1.0]], [[1.0]], horizon=3, q=[2.0], psi=[0.5, 1, 1])
    # x=2, u=3 delivered, next state 1: 2*4 + 0.5*9 + 1*1
    x, u, x_next = np.array([2.0]), np.array([3.0]), np.array([1.0])
    got = slow_stage_cost(model, x, u, np.array([1.0]), x_next)
    assert got == pytest.approx(8.0 + 4.5 + 1.0)
    # dropped packet erases the input charge
    got = slow_stage_cost(model, x, u, np.array([0.0]), x_next)
    assert got == pytest.approx(8.0 + 0.0 + 1.0)


def test_detector_sees_loss_rate_shift():
    # empirical loss mean over a long window approaches the attack rate
    cfg = small_cfg(T=1000, plan=AttackPlan(kind="iid", alpha=0.3))
    trace = run_episode(cfg, realization=2)
    assert abs(trace.losses.mean() - 0.3) < 0.05
    assert trace.detected
    # nominal run stays close to the channel mean
    quiet = small_cfg(T=1000)
    trace = run_episode(quiet, realization=2)
    assert abs(trace.losses.mean() - 0.7) < 0.05


def test_resolve_attack_paths(rng):
    model = random_model(rng, n=2, m=2, horizon=4)
    ens = build_prediction_ensemble(model)
    channel = shared_channel(2, 0.6)
    detection = shared_detection(2, 0.15)
    x = rng.normal(size=2)
    args = (model, ens, channel, detection, Protocol.UDP_LIKE, x)

    table, info = resolve_attack(AttackPlan(), *args)
    assert table is None and info == {"kind": "none"}

    # fixed laws ignore onset: it says when the table starts, not its rows
    table, info = resolve_attack(
        AttackPlan(kind="iid", alpha=0.2, onset=3), *args
    )
    np.testing.assert_array_equal(table, [[0.2, 0.2]])
    assert info == {"kind": "iid", "alpha": 0.2, "fixed": True}

    table, _ = resolve_attack(
        AttackPlan(kind="iid", means=np.array([0.5, 0.45])), *args
    )
    np.testing.assert_array_equal(table, [[0.5, 0.45]])

    synth, info = resolve_attack(AttackPlan(kind="iid"), *args)
    assert synth.shape == (1, 2)
    assert "objective" in info
    lo, hi = detection.bounds(channel)
    assert np.all(synth >= lo - 1e-12)
    assert np.all(synth <= hi + 1e-12)

    sched = np.array([[0.45, 0.75], [0.55, 0.65], [0.5, 0.7]])
    cyc, _ = resolve_attack(
        AttackPlan(kind="nonstat", schedule=sched, onset=2), *args
    )
    np.testing.assert_array_equal(cyc, sched)

    qp_synth, info = resolve_attack(AttackPlan(kind="nonstat"), *args)
    assert qp_synth.shape == (4, 2)
    assert "stationarity" in info


def test_monte_carlo_aggregates():
    cfg = small_cfg(T=12)
    single = run_episode(cfg, realization=0)
    rep = monte_carlo(cfg, 1)
    assert rep.realizations == 1
    assert rep.mean_terminal == single.terminal_cost
    assert rep.se_terminal == 0.0
    np.testing.assert_array_equal(rep.mean_states, single.states)

    rep = monte_carlo(cfg, 40)
    assert rep.terminal_costs.shape == (40,)
    assert rep.mean_terminal == pytest.approx(np.mean(rep.terminal_costs))
    assert rep.se_terminal > 0
    assert 0.0 <= rep.detection_rate <= 1.0
    # deterministic reruns
    rep2 = monte_carlo(cfg, 40)
    np.testing.assert_array_equal(rep.terminal_costs, rep2.terminal_costs)

    with pytest.raises(DimensionError):
        monte_carlo(cfg, 0)


def test_monte_carlo_attack_info_modes():
    # fixed attack resolved once, shared across realizations
    cfg = small_cfg(plan=AttackPlan(kind="iid", alpha=0.62))
    rep = monte_carlo(cfg, 3)
    assert rep.attack_info.get("alpha") == pytest.approx(0.62)
    # state-dependent synthesis at onset 0 with deterministic x0 also shares
    cfg = small_cfg(plan=AttackPlan(kind="iid"))
    rep = monte_carlo(cfg, 3)
    assert "objective" in rep.attack_info
    # sampled initial state forces per-episode synthesis
    cfg = small_cfg(plan=AttackPlan(kind="iid"), sample_x0=True)
    rep = monte_carlo(cfg, 3)
    assert rep.attack_info.get("per_episode_synthesis") is True


def test_detection_rate_grows_with_deviation():
    rates = []
    for alpha in (0.7, 0.55, 0.45, 0.3):
        cfg = small_cfg(
            T=200,
            plan=AttackPlan(kind="iid", alpha=alpha),
            detector_min_steps=100,
        )
        rep = monte_carlo(cfg, 120)
        rates.append(rep.detection_rate)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.03  # monotone up to Monte-Carlo slack
    assert rates[0] < 0.1 and rates[-1] > 0.95


def test_consecutive_resyntheses_equal_independent_ones(rng):
    # one arm resolves its law at every step from the same set-up, so the
    # calls share the gain and one box; each must be the call made alone,
    # on specs, ensemble and gain of its own.  Two bands about the same
    # rates take turns, so a box shared across them shows.
    model = random_model(rng, n=2, m=2, horizon=5)
    channel = ChannelSpec(rng.uniform(0.5, 0.9, 2))
    bands = [DetectionSpec(rng.uniform(0.05, 0.2, 2)) for _ in range(2)]
    states = [rng.normal(size=2) * rng.uniform(0.1, 3.0) for _ in range(12)]
    plans = [
        AttackPlan(kind="nonstat", onset=3, resynthesize=True),
        AttackPlan(kind="iid", onset=3),
    ]
    for protocol in Protocol:
        ens = build_prediction_ensemble(model)
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        for plan in plans:
            for run in range(2):
                shared = [
                    resolve_attack(
                        plan, model, ens, channel, bands[k % 2 if run else 0],
                        protocol, x, gain,
                    )
                    for k, x in enumerate(states)
                ]
                for k, (x, (table, info)) in enumerate(zip(states, shared)):
                    band = bands[k % 2 if run else 0]
                    alone, alone_info = resolve_attack(
                        plan, model, build_prediction_ensemble(model),
                        ChannelSpec(channel.mean_diag),
                        DetectionSpec(band.tol_diag), protocol, x,
                    )
                    np.testing.assert_array_equal(table, alone)
                    assert info == alone_info


def test_horizon_estimator_is_unbiased(rng):
    for protocol in Protocol:
        model = random_model(rng, n=2, m=2, horizon=4)
        ens = build_prediction_ensemble(model)
        channel = shared_channel(2, 0.7)
        detection = shared_detection(2, 0.1)
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        x = np.array([1.0, -0.8])
        ctx = attack_context(
            ens, model, channel, detection, protocol, x, gain=gain
        )

        # nominal law
        samples = horizon_cost_samples(
            ens, model, gain, x, channel.mean_diag, 60000, seed=9
        )
        want = expected_attacked_cost(ctx)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - want) < 5 * se

        # attacked schedule
        sched = rng.uniform(0.35, 0.85, (4, 2))
        samples = horizon_cost_samples(ens, model, gain, x, sched, 60000, seed=10)
        want = expected_attacked_cost(ctx, sched)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - want) < 5 * se


def test_empirical_increase_pairs_draws(rng):
    model = random_model(rng, n=2, m=1, horizon=4)
    ens = build_prediction_ensemble(model)
    channel = shared_channel(1, 0.7)
    detection = shared_detection(1, 0.1)
    x = np.array([1.2, -0.4])
    for protocol in Protocol:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        ctx = attack_context(
            ens, model, channel, detection, protocol, x, gain=gain
        )
        alpha = 0.5
        mean, se = empirical_increase(ens, model, gain, x, alpha, 40000, seed=1)
        want = expected_attacked_cost(ctx, alpha) - expected_attacked_cost(
            ctx, None
        )
        assert se > 0
        assert abs(mean - want) < 5 * se
        # pairing helps: paired SE beats the two-run subtraction SE
        a = horizon_cost_samples(ens, model, gain, x, alpha, 40000, seed=2)
        b = horizon_cost_samples(ens, model, gain, x, channel.mean_diag, 40000, seed=3)
        unpaired_se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert se < unpaired_se


def test_empirical_increases_are_each_the_one_law_estimate(rng):
    # one shared rollout for several laws changes no bit of any estimate;
    # the laws are read once, so an iterator gives the list's estimates
    # and an empty one is rejected as an empty list is
    model = random_model(rng, n=2, m=2, horizon=4)
    ens = build_prediction_ensemble(model)
    channel = shared_channel(2, 0.7)
    x = np.array([0.9, -1.1])
    laws = [0.55, np.array([0.6, 0.8]), rng.uniform(0.5, 0.9, (4, 2))]
    for protocol in Protocol:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        got = empirical_increases(ens, model, gain, x, laws, 500, seed=4)
        assert len(got) == len(laws)
        for law, pair in zip(laws, got):
            alone = empirical_increase(ens, model, gain, x, law, 500, seed=4)
            assert np.array_equal(pair, alone)
            assert np.array_equal(np.signbit(pair), np.signbit(alone))
        once = empirical_increases(ens, model, gain, x, iter(laws), 500, seed=4)
        assert _bitwise(once, got)
        for empty in ([], iter(())):
            with pytest.raises(DimensionError):
                empirical_increases(ens, model, gain, x, empty, 500, seed=4)


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_sample_blocks_are_near_equal_and_bounded():
    for samples, width in [(1645, 80), (4000, 160), (4000, 10), (2, 3),
                           (2 ** 16 + 1, 1), (7, 2 ** 17)]:
        rows = max(1, simulate._ROLLOUT_VALUES // width)
        blocks = simulate._sample_blocks(samples, width)
        sizes = [block.stop - block.start for block in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == samples
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
        assert len(blocks) == -(-samples // rows)
        if len(blocks) > 1:
            assert min(sizes) >= rows // 2


def _rollout_case(rng, m, horizon):
    # n = 2: at horizon 40 the samples are two blocks' worth and 7 rows,
    # three blocks of unequal size (a plain split would leave a 7-row
    # tail); at horizon 4 they fit in one block
    rows = simulate._ROLLOUT_VALUES // (horizon * m)
    samples = 2 * rows + 7 if horizon == 40 else 500
    assert (samples > 2 * rows) == (horizon == 40) and samples % rows
    model = random_model(rng, n=2, m=m, horizon=horizon, spread=0.9)
    ens = build_prediction_ensemble(model)
    channel = shared_channel(m, 0.7)
    x = rng.normal(size=2)
    laws = [0.55, np.linspace(0.5, 0.9, m), rng.uniform(0.4, 0.9, (horizon, m))]
    stacked = [
        np.broadcast_to(np.asarray(law, float), (horizon, m)).reshape(-1)
        for law in laws
    ]
    return model, ens, channel, x, laws, stacked, samples


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("horizon", [40, 4])
def test_blocked_rollout_is_bitwise_the_one_shot_rollout(rng, m, horizon):
    model, ens, channel, x, laws, stacked, samples = _rollout_case(
        rng, m, horizon
    )
    for protocol in Protocol:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        _, nominal = gramian_horizon_costs(
            ens, model, gain, x, gain.mean_stack, samples, 5
        )
        got = empirical_increases(ens, model, gain, x, laws, samples, seed=5)
        for law, thresholds, pair in zip(laws, stacked, got):
            free, costs = gramian_horizon_costs(
                ens, model, gain, x, thresholds, samples, 5
            )
            want = float(x @ (np.diag(model.Q) @ x)) + (costs + free)
            assert _bitwise(
                horizon_cost_samples(ens, model, gain, x, law, samples, 5),
                want,
            )
            diffs = costs - nominal
            se = np.std(diffs, ddof=1) / np.sqrt(samples)
            assert _bitwise(pair, (float(np.mean(diffs)), float(se)))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("horizon", [40, 4])
def test_gramian_rollout_is_the_stacked_rollout(rng, m, horizon):
    # The Gramian form expands chi_0' W chi_1 about the law-free state a,
    # so it adds terms of size |a|^2 where the stacked form adds |chi|^2,
    # and a sample's rounding error grows by (|a| / |chi|)^2: a few ulps
    # of |cost| while the inputs do not nearly cancel a, which the bound
    # 1e-8 (1 + |cost|) leaves ample room for.  A paired difference drops
    # a'Wa and subtracts two costs that share every draw, so its error is
    # a few ulps of the law terms against a spread of their own size over
    # sqrt(samples): far below 1e-10 s.e.  These spread-0.9 plants gave
    # at most 8.0e-16 (1 + |cost|) and 8.3e-14 s.e.
    model, ens, channel, x, laws, stacked, samples = _rollout_case(
        rng, m, horizon
    )
    for protocol in Protocol:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        nominal = slow_horizon_costs(
            ens, model, gain, x, gain.mean_stack, samples, 5
        )
        got = empirical_increases(ens, model, gain, x, laws, samples, seed=5)
        for law, thresholds, (mean, se) in zip(laws, stacked, got):
            costs = slow_horizon_costs(
                ens, model, gain, x, thresholds, samples, 5
            )
            want = float(x @ (np.diag(model.Q) @ x)) + costs
            sampled = horizon_cost_samples(
                ens, model, gain, x, law, samples, 5
            )
            assert np.all(np.abs(sampled - want) <= 1e-8 * (1 + np.abs(want)))
            diffs = costs - nominal
            want_se = np.std(diffs, ddof=1) / np.sqrt(samples)
            assert abs(mean - np.mean(diffs)) <= 1e-10 * want_se
            assert abs(se - want_se) <= 1e-10 * want_se


def test_loss_draws_are_the_one_shot_stream():
    # any rows of the loss stream, from any offset and with a numpy
    # integer offset too, are bitwise the one-shot draw's
    key = simulate.philox_keys(5, [0], [simulate.STREAM_LOSS])[0, 0]
    gen = np.random.Generator(np.random.Philox(key=0))
    whole = simulate._rekey(gen, key).random((2, 37, 7))
    flat = whole.reshape(-1)
    for offset in (0, 1, 2, 3, 4, 5, 259, 37 * 7, 37 * 7 + 3, flat.size - 7):
        for rows in (1, 3):
            size = min(rows * 7, flat.size - offset)
            got = simulate._loss_draws(key, np.int64(offset), (size,))
            assert _bitwise(got, flat[offset : offset + size])
    assert _bitwise(simulate._loss_draws(key, 37 * 7, (37, 7)), whole[1])


def _pools(monkeypatch, cpus):
    # the rollout sees ``cpus`` CPUs; returns the worker count of every
    # thread pool it makes
    made = []

    class Counted(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    return made


def _rollouts(ens, model, gain, x, laws, samples):
    return (
        empirical_increases(ens, model, gain, x, laws, samples, seed=5),
        horizon_cost_samples(ens, model, gain, x, laws[-1], samples, 5),
    )


@pytest.mark.parametrize("cpus", [2, 8])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_multi_block_rollout_runs_on_one_pool_per_call(
    rng, monkeypatch, m, cpus
):
    # three law blocks on 2 or 8 CPUs: one pool of min(blocks, CPUs)
    # threads per call, gone when the call returns, and every row bitwise
    # the one-shot rollout's.  n = 2, so each block's rows of the noise
    # are twice as wide as its law rows at m = 1, as wide at m = 2 and
    # narrower at m = 3
    model, ens, channel, x, laws, stacked, samples = _rollout_case(
        rng, m, 40
    )
    blocks = len(simulate._sample_blocks(samples, ens.horizon * m))
    assert blocks == 3
    made = _pools(monkeypatch, cpus)
    for protocol in Protocol:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        before = threading.active_count()
        made.clear()
        got, sampled = _rollouts(ens, model, gain, x, laws, samples)
        assert made == [min(blocks, cpus)] * 2
        assert threading.active_count() == before
        _, nominal = gramian_horizon_costs(
            ens, model, gain, x, gain.mean_stack, samples, 5
        )
        for thresholds, pair in zip(stacked, got):
            _, costs = gramian_horizon_costs(
                ens, model, gain, x, thresholds, samples, 5
            )
            diffs = costs - nominal
            se = np.std(diffs, ddof=1) / np.sqrt(samples)
            assert _bitwise(pair, (float(np.mean(diffs)), float(se)))
        free, costs = gramian_horizon_costs(
            ens, model, gain, x, stacked[-1], samples, 5
        )
        want = float(x @ (np.diag(model.Q) @ x)) + (costs + free)
        assert _bitwise(sampled, want)


def test_many_threads_on_many_blocks_change_no_bit(rng, monkeypatch):
    # more threads than cores, switching every microsecond, on blocks of
    # 25 rows: the blocks write disjoint rows, so no interleaving moves a
    # bit of the serial result on the same blocks
    model, ens, channel, x, laws, _, samples = _rollout_case(rng, 2, 40)
    monkeypatch.setattr(simulate, "_ROLLOUT_VALUES", 2 ** 11)
    assert len(simulate._sample_blocks(samples, ens.horizon * 2)) > 60
    gains = [
        control_gain(ens, model, channel.mean_diag, protocol)
        for protocol in Protocol
    ]
    made = _pools(monkeypatch, 1)
    serial = [_rollouts(ens, model, g, x, laws, samples) for g in gains]
    assert made == []
    made = _pools(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [_rollouts(ens, model, g, x, laws, samples) for g in gains]
    finally:
        sys.setswitchinterval(interval)
    assert made == [8] * 2 * len(gains)
    for (got, sampled), (want, want_sampled) in zip(threaded, serial):
        assert _bitwise(got, want)
        assert _bitwise(sampled, want_sampled)


def test_one_block_rollout_starts_no_thread(rng, monkeypatch):
    model, ens, channel, x, laws, _, samples = _rollout_case(rng, 2, 4)
    assert len(simulate._sample_blocks(samples, ens.horizon * 2)) == 1
    made = _pools(monkeypatch, 8)
    before = threading.active_count()
    for protocol in Protocol:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        _rollouts(ens, model, gain, x, laws, samples)
    assert made == []
    assert threading.active_count() == before


@pytest.mark.parametrize("affinity", [True, False])
def test_one_cpu_rollout_is_serial_and_bitwise_the_threaded_one(
    rng, monkeypatch, affinity
):
    # one CPU, by the affinity mask or, on a platform without one, by the
    # CPU count: no pool, and every estimate and sample bitwise the
    # threaded rollout's
    model, ens, channel, x, laws, _, samples = _rollout_case(rng, 2, 40)
    made = _pools(monkeypatch, 2)
    gains = [
        control_gain(ens, model, channel.mean_diag, protocol)
        for protocol in Protocol
    ]
    threaded = [_rollouts(ens, model, g, x, laws, samples) for g in gains]
    assert made == [2] * 2 * len(gains)
    made.clear()
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    before = threading.active_count()
    for gain, (got, sampled) in zip(gains, threaded):
        serial, serial_sampled = _rollouts(ens, model, gain, x, laws, samples)
        assert _bitwise(serial, got)
        assert _bitwise(serial_sampled, sampled)
    assert made == []
    assert threading.active_count() == before


def test_unknown_cpu_count_counts_as_one_cpu(rng, monkeypatch):
    # no affinity mask and a CPU count that cannot be told (None): one
    # CPU, so a multi-block rollout starts no pool, and every estimate
    # and sample is bitwise the threaded rollout's
    model, ens, channel, x, laws, _, samples = _rollout_case(rng, 2, 40)
    made = _pools(monkeypatch, 2)
    gain = control_gain(ens, model, channel.mean_diag, Protocol.UDP_LIKE)
    threaded = _rollouts(ens, model, gain, x, laws, samples)
    assert made == [2] * 2
    made.clear()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._cpus() == 1
    before = threading.active_count()
    serial, serial_sampled = _rollouts(ens, model, gain, x, laws, samples)
    assert _bitwise(serial, threaded[0])
    assert _bitwise(serial_sampled, threaded[1])
    assert made == []
    assert threading.active_count() == before


def test_rollout_threads_call_no_public_function(rng, monkeypatch):
    # wrap every public function of every module, in its module and in
    # each module that imported it by name, as bench/tracing.py does: a
    # tracer keeps one span stack, so a public call from a rollout thread
    # would corrupt it
    import dropattack

    modules = [
        importlib.import_module(f"dropattack.{info.name}")
        for info in pkgutil.iter_modules(dropattack.__path__)
    ]
    holders = [dropattack] + modules
    calls = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrapper

    for module in modules:
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not isinstance(fn, types.FunctionType):
                continue
            if fn.__module__ != module.__name__:
                continue
            wrapper = wrap(f"{module.__name__}.{attr}", fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        monkeypatch.setattr(holder, key, wrapper)

    model, ens, channel, x, laws, _, samples = _rollout_case(rng, 2, 40)
    made = _pools(monkeypatch, 2)
    gain = control_gain(ens, model, channel.mean_diag, Protocol.TCP_LIKE)
    calls.clear()
    simulate.empirical_increases(ens, model, gain, x, laws, samples, seed=5)
    assert made == [2]
    names = {name for name, _ in calls}
    assert {
        "dropattack.simulate.empirical_increases",
        "dropattack.controller.optimal_input_sequence",
        "dropattack.channel.philox_keys",
    } <= names
    assert all(thread is threading.main_thread() for _, thread in calls)


@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_seed_must_be_a_nonnegative_integer(rng, seed):
    model = random_model(rng, n=2, m=2, horizon=3)
    ens = build_prediction_ensemble(model)
    gain = control_gain(
        ens, model, np.array([0.5, 0.5]), Protocol.UDP_LIKE
    )
    x = np.zeros(2)
    with pytest.raises(DimensionError, match="seed must be an integer >= 0"):
        small_cfg(seed=seed)
    with pytest.raises(DimensionError, match="seed must be an integer >= 0"):
        horizon_cost_samples(ens, model, gain, x, 0.5, 10, seed)
    with pytest.raises(DimensionError, match="seed must be an integer >= 0"):
        empirical_increase(ens, model, gain, x, 0.5, 10, seed)
    with pytest.raises(DimensionError, match="seed must be an integer >= 0"):
        empirical_increases(ens, model, gain, x, [0.5], 10, seed)
    # a numpy integer is an integer
    assert small_cfg(seed=np.int64(3)).seed == 3
    assert _bitwise(
        horizon_cost_samples(ens, model, gain, x, 0.5, 10, np.int64(3)),
        horizon_cost_samples(ens, model, gain, x, 0.5, 10, 3),
    )


def test_step_means_validation(rng):
    model = random_model(rng, n=2, m=2, horizon=3)
    ens = build_prediction_ensemble(model)
    gain = control_gain(
        ens, model, np.array([0.5, 0.5]), Protocol.UDP_LIKE
    )
    x = np.zeros(2)
    with pytest.raises(DimensionError):
        horizon_cost_samples(ens, model, gain, x, np.full(3, 0.5), 10)
    with pytest.raises(DimensionError):
        horizon_cost_samples(ens, model, gain, x, np.full((2, 2), 0.5), 10)
    with pytest.raises(DimensionError):
        horizon_cost_samples(ens, model, gain, x, 1.2, 10)


@pytest.mark.parametrize("samples", [100.0, True, 1])
def test_horizon_samples_must_be_an_integer_of_at_least_two(rng, samples):
    model = random_model(rng, n=2, m=2, horizon=3)
    ens = build_prediction_ensemble(model)
    gain = control_gain(
        ens, model, np.array([0.5, 0.5]), Protocol.UDP_LIKE
    )
    x = np.zeros(2)
    with pytest.raises(DimensionError, match="integer >= 2"):
        empirical_increase(ens, model, gain, x, 0.5, samples)
    with pytest.raises(DimensionError, match="integer >= 2"):
        horizon_cost_samples(ens, model, gain, x, 0.5, samples)
    # a numpy integer is an integer
    assert horizon_cost_samples(ens, model, gain, x, 0.5, np.int64(2)).shape == (2,)
