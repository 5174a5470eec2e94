"""Closed-loop simulation and Monte-Carlo estimation.

Two kinds of experiment live here.

Closed-loop episodes (:func:`run_episode`, :func:`monte_carlo`,
:func:`monte_carlo_arms`) run the receding-horizon loop for T steps: the
controller transmits the first block of its optimal sequence, the channel
drops packets and the plant steps; the monitor's running means and first
detections follow from the realized outcomes.  The realized cost ledger
charges, per step, the current-state weight, the first input-penalty
block on the delivered input, and the first state-penalty block on the
successor state.  Detection never interrupts an episode: every episode runs all T
steps and records its first detection step.  One engine steps a batch in
lockstep as one (rows, n) state array, whose rows are (attack arm,
realization) pairs: :func:`monte_carlo_arms` runs several attack plans
as one batch on one set of draws, :func:`monte_carlo` is its one-plan
case and :func:`run_episode` its batch of one.  All share one set-up,
which decides once per call how each arm gets its channel law: the
(T, m) delivery means its episodes start from, the steps at which each
episode synthesizes from its own state instead (none, onset, or every
step from onset under per-step resynthesis), and the law it synthesizes
there.  A nonstat arm within its attack table's cap
(``attack_qp._attack_table``) reads one step's schedules off the table,
the solver's exact schedule of every state, in one product; the set-up
checks the table once against the per-state solver at the model's
initial mean.  Every other synthesizing arm, and a nonstat arm beyond
the cap or failing its check, resolves each row with the per-state
solver.  So :func:`run_episode` for realization r is bitwise the episode
:func:`monte_carlo` runs for r, and every arm of
:func:`monte_carlo_arms` is bitwise the plan's :func:`monte_carlo` run.
A block of 64 realizations holds O(arms * 64 * T * (n + m)) floats.  The
package keeps no per-step version of this loop: the tests gate the
engine against an independent one-step-at-a-time episode of their own.

Horizon experiments (:func:`horizon_cost_samples`,
:func:`empirical_increases` and its one-law case
:func:`empirical_increase`) estimate the expected horizon cost that the
closed-form attack formulas talk about: the operator computes its sequence
once at a fixed state, the whole horizon is rolled out under a given
channel law, and the stacked quadratic cost is accumulated.  One rollout's
draws serve every law of an :func:`empirical_increases` call, and its
nominal law is evaluated once.  The cost is evaluated through the
ensemble's Gramians, not the predicted states: the noise and the state
enter once per rollout, as the law-free state's cross term with the
inputs, and each law costs one product with ``input_gram``.  The
law-free state's own cost is the same under every law, so it cancels in
every paired difference and only :func:`horizon_cost_samples` forms it.
The rollout works in one partition of its samples: near-equal blocks of
consecutive samples, each holding at most ``_ROLLOUT_VALUES`` (2^16)
values of a stacked (samples, N m) array, so a d = 160 rollout of 4000
samples passes over ten cache-sized blocks instead of 5 MB arrays per
stream and per law.  For each block the caller draws the block's rows of
the noise, and the block draws its own loss uniforms and evaluates every
law.  The blocks are also the units of parallel work: a rollout of two
or more blocks, in a process allowed two or more CPUs, runs them on a
pool of threads that lives for the call, and any other rollout starts
no thread.  Every step of the evaluation is row-wise and no block is a
short remainder that the BLAS would multiply with another kernel, so
each block's costs are bitwise the same rows of the one-shot
evaluation, whichever thread computes them.  For the udp-like loop the
realized cost is an unbiased sample of the closed form.
The tcp-like accounting treats packet fates as known by the time the
predicted-state penalty is charged (acknowledgements plus re-planning), so
its closed form carries no delivery-variance term; sampling that
conditional quadratic without bias requires decorrelating the two loss
factors of the state penalty, hence the tcp estimator draws two independent
delivery sequences per sample and bridges the quadratic across them.

Randomness: every (seed, realization, purpose) triple owns an independent
counter-based stream, so runs that differ only in the attack share noise
and loss uniforms (common random numbers) and aggregation order cannot
change any draw.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .attack_iid import _attack_box, _beats_nominal, attack_context
from .attack_qp import _attack_table, solve_box_qp_max, solve_iid_constrained
from .channel import (
    STREAM_INIT,
    STREAM_LOSS,
    STREAM_NOISE,
    ChannelSpec,
    DetectionSpec,
    _rekey,
    philox_keys,
)
from .controller import ControllerGain, Protocol, _expand_step_means, control_gain
from .controller import optimal_input_sequence
from .errors import DimensionError
from .model import PredictionEnsemble, SystemModel, build_prediction_ensemble
from .model import _count

__all__ = [
    "AttackPlan",
    "EpisodeConfig",
    "SimulationTrace",
    "AggregateReport",
    "resolve_attack",
    "run_episode",
    "monte_carlo",
    "monte_carlo_arms",
    "horizon_cost_samples",
    "empirical_increase",
    "empirical_increases",
]

_KINDS = ("none", "iid", "nonstat")
# Realizations that monte_carlo_arms steps together; bounds the pre-drawn
# and recorded arrays of a batch to O(arms * _BLOCK * T * (n + m)) floats.
_BLOCK = 64
# Most values of one stacked input array that a block of horizon samples
# holds (see _sample_blocks): 4000 samples are ten blocks of 400 rows at
# N m = 160, and one block at N m = 10.
_ROLLOUT_VALUES = 2 ** 16


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """What the attacker does and when.

    One plan carries every kind's keys, and each kind reads only its own,
    so a plan with ``kind`` replaced is that kind's plan for the same
    section.  kind "none" leaves the channel nominal.  kind "iid" holds
    one rate per channel from ``onset`` on: either ``alpha`` (shared
    scalar), ``means`` (per-channel vector), or, when both are None, the
    rate is synthesized at onset from the state ("onset" mode) or from the
    model's initial mean ("mean" mode).  kind "nonstat" plays a per-step
    schedule: a fixed ``schedule`` array replayed cyclically, or one
    synthesized at onset by the box-QP solver; with ``resynthesize`` the
    solver reruns every step and applies the first row, mirroring the
    controller's receding horizon.  ``alpha`` with ``means``,
    ``schedule`` with ``resynthesize``, and ``resynthesize`` with
    ``state_mode`` "mean" (every step from the state, or once from the
    initial mean) form no law and are rejected whatever the kind.
    """

    kind: str = "none"
    onset: int = 0
    alpha: float | None = None
    means: np.ndarray | None = None
    schedule: np.ndarray | None = None
    state_mode: str = "onset"
    resynthesize: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DimensionError(f"attack kind must be one of {_KINDS}")
        _count(self.onset, "attack onset", 0)
        if self.state_mode not in ("onset", "mean"):
            raise DimensionError("state_mode must be 'onset' or 'mean'")
        if self.alpha is not None and not 0.0 <= float(self.alpha) <= 1.0:
            raise DimensionError("attack alpha must lie in [0, 1]")
        if self.means is not None:
            means = np.array(self.means, dtype=float)
            if means.ndim != 1 or not np.all((0.0 <= means) & (means <= 1.0)):
                raise DimensionError(
                    "attack means must be a per-channel vector in [0, 1]"
                )
            means.setflags(write=False)
            object.__setattr__(self, "means", means)
        if self.schedule is not None:
            sched = np.array(self.schedule, dtype=float)
            if sched.ndim != 2 or not np.all((0.0 <= sched) & (sched <= 1.0)):
                raise DimensionError(
                    "attack schedule must be a (steps, channels) array in [0, 1]"
                )
            if not sched.shape[0]:
                raise DimensionError("attack schedule needs at least one step")
            sched.setflags(write=False)
            object.__setattr__(self, "schedule", sched)
        if self.alpha is not None and self.means is not None:
            raise DimensionError("attack alpha and means exclude each other")
        if self.schedule is not None and self.resynthesize:
            raise DimensionError(
                "attack schedule and resynthesize exclude each other"
            )
        if self.state_mode == "mean" and self.resynthesize:
            raise DimensionError(
                "attack state_mode 'mean' and resynthesize exclude each other"
            )

    @property
    def needs_state(self) -> bool:
        """True when synthesis happens at onset from the realized state."""
        if self.kind == "none":
            return False
        own = (self.alpha, self.means) if self.kind == "iid" else (self.schedule,)
        return self.state_mode == "onset" and all(key is None for key in own)


def resolve_attack(
    plan: AttackPlan,
    model: SystemModel,
    ens: PredictionEnsemble,
    channel: ChannelSpec,
    detection: DetectionSpec,
    protocol: Protocol,
    x: np.ndarray,
    gain: ControllerGain | None = None,
) -> tuple[np.ndarray | None, dict]:
    """Turn a plan into a concrete channel law, synthesizing if needed.

    Returns ``(table, info)``: ``table`` holds the (period, m) delivery
    means played cyclically from the step the law starts at, one row for
    a stationary law, and is None for a plan of kind "none"; ``info`` is
    the report's attack info.  Synthesis reads the state ``x``; the
    quadratic's state-free coupling and load come from ``gain``, so the
    calls of one set-up that pass the same gain rebuild neither.
    """
    table, info, schedule = _resolve(
        plan, model, ens, channel, detection, protocol, x, gain
    )
    if schedule is not None:
        info["stationarity"] = schedule.stationarity
    return table, info


def _resolve(plan, model, ens, channel, detection, protocol, x, gain):
    """:func:`resolve_attack`'s table and info, the info without the
    synthesized schedule's residual, and that schedule (None unless the
    box QP synthesized the law), whose residual is scored only if read."""
    if plan.kind == "none":
        return None, {"kind": "none"}, None
    if plan.kind == "iid":
        if plan.alpha is not None:
            return (
                np.full((1, ens.m), float(plan.alpha)),
                {"kind": "iid", "alpha": float(plan.alpha), "fixed": True},
                None,
            )
        if plan.means is not None:
            return plan.means[None, :], {"kind": "iid", "fixed": True}, None
        ctx = attack_context(ens, model, channel, detection, protocol, x, gain)
        sol = solve_iid_constrained(ctx.qp)
        return (
            sol.means[:1].copy(),
            {
                "kind": "iid",
                "objective": sol.objective,
                "winner": sol.winner,
                "means": [float(v) for v in sol.means[0]],
            },
            None,
        )
    # nonstat
    if plan.schedule is not None:
        return plan.schedule, {"kind": "nonstat", "fixed": True}, None
    ctx = attack_context(ens, model, channel, detection, protocol, x, gain)
    sol = solve_box_qp_max(ctx.qp)
    info = {
        "kind": "nonstat", "objective": sol.objective, "winner": sol.winner,
    }
    return sol.means.copy(), info, sol


@dataclass(frozen=True, eq=False)
class EpisodeConfig:
    """Everything one closed-loop run needs (attack aside from its seed)."""

    model: SystemModel
    channel: ChannelSpec
    detection: DetectionSpec
    protocol: Protocol
    plan: AttackPlan = AttackPlan()
    T: int = 50
    seed: int = 0
    sample_x0: bool = False
    zero_input: bool = False
    detector_min_steps: int = 1

    def __post_init__(self):
        _count(self.T, "T", 1)
        _count(self.seed, "seed", 0)
        _count(self.detector_min_steps, "detector_min_steps", 1)
        if self.plan.onset > self.T:
            raise DimensionError(
                f"attack onset {self.plan.onset} exceeds episode length {self.T}"
            )
        if self.channel.m != self.model.m:
            raise DimensionError(
                f"channel has {self.channel.m} entries for "
                f"{self.model.m} actuator channels"
            )
        self.detection.bounds(self.channel)  # raises on length mismatch
        m, means, schedule = self.model.m, self.plan.means, self.plan.schedule
        if means is not None and means.size != m:
            raise DimensionError(
                f"attack means have {means.size} entries for {m} channels"
            )
        if schedule is not None and schedule.shape[1] != m:
            raise DimensionError(
                f"attack schedule has {schedule.shape[1]} columns for "
                f"{m} channels"
            )


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Full record of one episode; arrays are step-indexed."""

    states: np.ndarray        # (T+1, n)
    inputs: np.ndarray        # (T, m) commanded inputs
    losses: np.ndarray        # (T, m) realized 0/1 deliveries
    noises: np.ndarray        # (T, n)
    stage_costs: np.ndarray   # (T,)
    cumulative: np.ndarray    # (T,)
    monitor_means: np.ndarray  # (T, m)
    detected: bool
    first_detection: int | None
    terminal_cost: float


def _matvec(M, X):
    """``M @ x`` for every row x of X, bitwise the unbatched product."""
    return (M @ X[..., None])[..., 0]


def _quad(w, X):
    """``x @ (w * x)`` for every row x of X, bitwise the unbatched form."""
    return (X[..., None, :] @ (w * X)[..., None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class _Arm:
    """One attack plan of a batch, with what its set-up decided."""

    means: np.ndarray  # (T, m) delivery means before per-episode synthesis
    info: dict         # the report's attack info
    synthesis: range   # steps at which each episode synthesizes from its state
    law: object = None  # states -> (rows, period, m) laws synthesized there


def _arm(cfg, plan, ens, gain) -> _Arm:
    """Decide once how every episode of ``plan`` gets its channel law.

    The means are nominal before onset.  After onset they are the law
    resolved once, at the initial mean, and cycled from onset, whenever no
    episode can change it: fixed parameters, ``state_mode`` "mean", or
    onset 0 without a sampled initial state.  Otherwise each episode
    synthesizes from its own state: at onset, or at every step from onset
    under per-step resynthesis (nonstat only), which never plays a law
    resolved at onset.  Such an arm's ``law`` maps the states of its rows
    to their laws.  A nonstat arm's law is its attack table's
    ``schedules``, when the table is within its cap and its schedule at
    the initial mean agrees with the per-state solver's there: equal
    means, or values that neither beats the other by (``_beats_nominal``).
    Every other synthesizing arm resolves the plan row by row.
    """
    T = cfg.T
    means = np.tile(cfg.channel.mean_diag, (T, 1))
    steps = range(0)
    if plan.kind == "nonstat" and plan.resynthesize:
        steps = range(plan.onset, T)
    elif plan.needs_state and (plan.onset > 0 or cfg.sample_x0):
        steps = range(plan.onset, plan.onset + 1)
    elif plan.kind != "none":
        table, info = resolve_attack(
            plan, cfg.model, ens, cfg.channel, cfg.detection,
            cfg.protocol, cfg.model.init_mean, gain,
        )
        means[plan.onset :] = _cycled(table, plan.onset, T)
        return _Arm(means, info, steps)
    info = {"kind": plan.kind, "per_episode_synthesis": plan.kind != "none"}
    if not steps:
        return _Arm(means, info, steps)

    def solve(x):
        # the law, its report info without a residual, and the schedule
        return _resolve(
            plan, cfg.model, ens, cfg.channel, cfg.detection, cfg.protocol,
            x, gain,
        )

    def per_row(states):
        return np.stack([solve(x)[0] for x in states])

    if plan.kind == "nonstat":
        box = _attack_box(cfg.channel, cfg.detection, ens.horizon)
        table = _attack_table(gain, box)
        if table is not None:
            x = cfg.model.init_mean
            schedule, law = solve(x)[2], table.schedules(x[None])[0]
            best = schedule.objective
            value = schedule.qp.objective(law.reshape(-1))
            if np.array_equal(law, schedule.means) or not (
                _beats_nominal(best, value) or _beats_nominal(value, best)
            ):
                return _Arm(means, info, steps, table.schedules)
    return _Arm(means, info, steps, per_row)


def _prepare(cfg, plans):
    """Each plan's arm, and the feedback map u = feedback @ x of the
    sequence gain's first input block, which every arm shares."""
    model = cfg.model
    ens = build_prediction_ensemble(model)
    gain = control_gain(ens, model, cfg.channel.mean_diag, cfg.protocol)
    feedback = -gain.solve(ens.cross_gram)[: model.m]
    return [_arm(cfg, plan, ens, gain) for plan in plans], feedback


def _cycled(table, onset, T):
    """The rows of ``table`` played cyclically from step ``onset`` to T;
    a stack of tables, (count, period, m), is cycled table by table."""
    return table[..., np.arange(T - onset) % table.shape[-2], :]


def _lockstep(cfg, arms, realizations, feedback) -> dict:
    """The episodes of every arm on ``realizations``, stepped together.

    ``arms`` and ``feedback`` are :func:`_prepare`'s; the rows of the
    batch are (arm, realization) pairs, arm-major.  Each realization draws
    its whole loss-uniform and noise blocks up front from its own streams,
    the same values step-by-step draws give, and every arm replays them:
    the streams are keyed without the attack.  Every product is the
    unbatched matrix-vector product applied per row, so each episode is
    bitwise the one it would be alone.

    Every row starts from its arm's delivery means.  At each of the arm's
    synthesis steps k, the arm's ``law`` gives every row's law at its own
    state, played cycled from k; under per-step resynthesis the next step
    overwrites all but its first row.  The monitor's running means and
    first detections follow from the losses afterwards.

    Returns the array fields of :class:`SimulationTrace` by name, each
    with the row as a leading axis, and ``first_detection`` of shape
    (rows,), -1 where the monitor never fired.
    """
    model = cfg.model
    n, m, T = model.n, model.m, cfg.T
    size = len(realizations)
    rows = size * len(arms)

    x = np.empty((size, n))
    uniforms = np.empty((size, T, m))
    normals = np.empty((size, T, n))
    purposes = [STREAM_LOSS, STREAM_NOISE]
    if cfg.sample_x0:
        purposes.append(STREAM_INIT)
    # every key of the block in one pass, and one generator reset per stream
    keys = philox_keys(cfg.seed, realizations, purposes)
    gen = np.random.Generator(np.random.Philox(key=0))
    for b, (loss, noise, *init) in enumerate(keys):
        uniforms[b] = _rekey(gen, loss).random((T, m))
        normals[b] = _rekey(gen, noise).standard_normal((T, n))
        x[b] = model.init_mean
        if init:
            z = _rekey(gen, init[0]).standard_normal(n)
            x[b] = model.init_mean + model.init_chol @ z
    noises = _matvec(model.noise_chol, normals)
    # every arm replays the same draws
    x = np.tile(x, (len(arms), 1))
    uniforms = np.tile(uniforms, (len(arms), 1, 1))
    noises = np.tile(noises, (len(arms), 1, 1))

    means = np.repeat(np.stack([arm.means for arm in arms]), size, axis=0)

    states = np.empty((rows, T + 1, n))
    inputs = np.zeros((rows, T, m))
    losses = np.empty((rows, T, m))
    states[:, 0] = x

    for k in range(T):
        for a, arm in enumerate(arms):
            if k in arm.synthesis:
                block = slice(a * size, (a + 1) * size)
                means[block, k:] = _cycled(arm.law(x[block]), k, T)

        if not cfg.zero_input:
            inputs[:, k] = _matvec(feedback, x)
        v = (uniforms[:, k] < means[:, k]).astype(float)
        x = (
            _matvec(model.A, x)
            + _matvec(model.B, v * inputs[:, k])
            + noises[:, k]
        )
        losses[:, k] = v
        states[:, k + 1] = x

    monitor_means, first_detection = cfg.detection.monitor(
        cfg.channel, losses, cfg.detector_min_steps
    )

    stage_costs = (
        _quad(model.Q, states[:, :T])
        + _quad(model.input_penalty[:m], losses * inputs)
        + _quad(model.state_penalty[:n], states[:, 1:])
    )
    return dict(
        states=states, inputs=inputs, losses=losses, noises=noises,
        stage_costs=stage_costs, cumulative=np.cumsum(stage_costs, axis=1),
        monitor_means=monitor_means, first_detection=first_detection,
    )


def run_episode(cfg: EpisodeConfig, realization: int = 0) -> SimulationTrace:
    """One closed-loop episode: the lockstep engine on a batch of one.

    Shares :func:`monte_carlo`'s set-up, so it is bitwise the episode
    :func:`monte_carlo` runs for the same realization.
    """
    arms, feedback = _prepare(cfg, [cfg.plan])
    batch = _lockstep(cfg, arms, [realization], feedback)
    first = int(batch.pop("first_detection")[0])
    row = {name: values[0] for name, values in batch.items()}
    return SimulationTrace(
        **row,
        detected=first >= 0,
        first_detection=first if first >= 0 else None,
        terminal_cost=float(row["cumulative"][-1]),
    )


@dataclass(frozen=True, eq=False)
class AggregateReport:
    """Monte-Carlo summary over R independent realizations."""

    realizations: int
    mean_states: np.ndarray     # (T+1, n)
    mean_cumulative: np.ndarray  # (T,)
    terminal_costs: np.ndarray  # (R,)
    mean_terminal: float
    se_terminal: float
    detection_rate: float
    mean_first_detection: float | None
    attack_info: dict = field(default_factory=dict)


def _standard_error(values) -> float:
    """The standard error of the mean of 1-D ``values``; 0 for one value."""
    size = len(values)
    return float(np.std(values, ddof=1) / math.sqrt(size)) if size > 1 else 0.0


def monte_carlo_arms(
    cfg: EpisodeConfig, plans, realizations: int
) -> list[AggregateReport]:
    """Run ``realizations`` episodes of every plan in ``plans``.

    ``cfg`` gives everything but the attack: each arm plays ``cfg`` with
    its plan in place of ``cfg.plan``.  All arms run as one lockstep
    batch, ``_BLOCK`` realizations at a time, so memory stays
    O(len(plans) * _BLOCK * T * (n + m)) whatever ``realizations`` is.
    They share one ensemble, one gain and one draw of every
    (seed, realization, purpose) stream, so the arms are compared on
    common random numbers and each report is bitwise the one
    ``monte_carlo`` gives for its plan alone.  An arm's channel law is
    decided once per call (see :func:`_arm`): resolved once and shared
    across episodes whenever no episode can change it, and otherwise
    synthesized by each episode from its own state.
    """
    _count(realizations, "realizations", 1)
    plans = list(plans)
    if not plans:
        raise DimensionError("at least one attack plan is needed")
    for plan in plans:
        replace(cfg, plan=plan)  # validates the plan against the episode
    arms, feedback = _prepare(cfg, plans)

    count, T, n = len(arms), cfg.T, cfg.model.n
    sum_states = np.zeros((count, T + 1, n))
    sum_cumulative = np.zeros((count, T))
    terminal = np.empty((count, realizations))
    first_hits = [[] for _ in arms]
    for start in range(0, realizations, _BLOCK):
        block = range(start, min(start + _BLOCK, realizations))
        size = len(block)
        batch = _lockstep(cfg, arms, block, feedback)
        states = batch["states"].reshape(count, size, T + 1, n)
        cumulative = batch["cumulative"].reshape(count, size, T)
        first = batch["first_detection"].reshape(count, size)
        # one realization at a time, in order, as a single episode adds up
        for b in range(size):
            sum_states += states[:, b]
            sum_cumulative += cumulative[:, b]
        terminal[:, block.start : block.stop] = cumulative[:, :, -1]
        for hits, arm_first in zip(first_hits, first):
            hits.extend(arm_first[arm_first >= 0].tolist())

    reports = []
    for a, arm in enumerate(arms):
        hits = first_hits[a]
        reports.append(AggregateReport(
            realizations=realizations,
            mean_states=sum_states[a] / realizations,
            mean_cumulative=sum_cumulative[a] / realizations,
            terminal_costs=terminal[a],
            mean_terminal=float(np.mean(terminal[a])),
            se_terminal=_standard_error(terminal[a]),
            detection_rate=len(hits) / realizations,
            mean_first_detection=float(np.mean(hits)) if hits else None,
            attack_info=dict(arm.info),
        ))
    return reports


def monte_carlo(cfg: EpisodeConfig, realizations: int) -> AggregateReport:
    """Run ``realizations`` episodes with per-realization derived streams.

    The one-plan case of :func:`monte_carlo_arms`: the episodes run in
    lockstep, ``_BLOCK`` realizations at a time, on ``cfg.plan``.
    """
    return monte_carlo_arms(cfg, [cfg.plan], realizations)[0]


# ----------------------------------------------------- horizon experiments

def _sample_blocks(samples, width):
    """Near-equal blocks of consecutive rows of a (samples, width) array.

    Each block holds at most ``_ROLLOUT_VALUES`` values (one block when
    all rows fit), and the block sizes differ by at most one.  So no block
    is a short remainder: a block of a few rows could send its product to
    a small-matrix or matrix-vector BLAS kernel, which sums in another
    order than the one-shot product (OpenBLAS rounds a 7-row tail of a
    (samples, 80) x (80, 80) product differently).  Once the samples span
    two or more blocks, each block has at least half the rows the bound
    allows, rounded down; so a split block has one row, which numpy
    multiplies as a matrix-vector product, only at widths above 2^14.
    The horizon rollout partitions its samples once, by the width N m of
    its inputs; each block is also a unit of parallel work, and the
    thread does not choose the kernel: a block's product is the same BLAS
    call on the same rows whichever thread makes it.
    """
    rows = max(1, _ROLLOUT_VALUES // width)
    count = -(-samples // rows)
    bounds = [samples * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _loss_draws(key, offset, shape):
    """Uniforms of ``key``'s stream from its ``offset``-th value on.

    Each uniform takes one 64-bit output and Philox makes four per counter
    step, so the counter moves ``offset // 4`` steps and the rest are
    drawn: bitwise the values a one-shot draw puts there.
    """
    offset = int(offset)  # advance takes no numpy integer
    gen = _rekey(np.random.Generator(np.random.Philox(key=0)), key)
    gen.bit_generator.advance(offset // 4)
    gen.random(offset % 4)
    return gen.random(shape)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _noise_to(model, ens, M):
    """The map from the noise stream's standard normals through ``M``.

    The stacked noise is xi = z C' for standard normal (samples, N n)
    draws z, with C the block diagonal of N Cholesky factors of the
    per-step covariance, so xi M = z (C' M) and C' folds into M.
    """
    N, n = ens.horizon, ens.n
    return (model.noise_chol.T @ M.reshape(N, n, -1)).reshape(N * n, -1)


def _horizon_rollout(ens, model, gain, x, thresholds, samples, seed):
    """The costs of ``samples`` horizon rollouts from ``x`` under each law.

    ``thresholds`` lists stacked delivery rates, one per law.  Returns a
    (laws, samples) array: each law's per-sample predicted-state and input
    cost of the operator's sequence planned at ``x``, net of x'Qx and of
    the law-free term a'Wa.  Every law is evaluated on the same noise and
    loss uniforms, so different channel laws are compared on common
    random numbers, and a'Wa cancels in each paired difference.

    The cost is evaluated through the ensemble's Gramians rather than the
    predicted states.  With W and P the diagonal matrices of
    ``state_penalty`` and ``input_penalty`` and M = ``input_map``, draw
    j's state stack is chi_j = a + M delta_j:
    a = ``state_map`` x + ``noise_map`` xi is the law-free state and
    delta_j = (U_j < thresholds) * u* the inputs draw j delivers
    (delta_1 = delta_0 with one draw).  So chi_0' W chi_1 + delta_0' P
    delta_0 is a'Wa plus

        c = L (delta_0 + delta_1) + (delta_0 G) delta_1 + delta_0' P delta_0,

    with G = ``input_gram`` and L = a'WM = ``cross_gram`` x +
    xi (``noise_map``' W M), one (samples, N n) x (N n, N m) product for
    every law (see :func:`_noise_to`).  A law then costs one product with
    G per block, summed as (delta_0 G + L) delta_1 + (delta_0 P + L)
    delta_0, or with one draw as (delta_0 (G + P) + 2 L) delta_0.  The
    expanded form adds terms of size |a|^2 where the stacked form adds
    |chi|^2, so its rounding error grows by (|a| / |chi|)^2, most where
    the inputs nearly cancel the law-free state.

    The rollout works in the blocks of :func:`_sample_blocks` of its
    (samples, N m) arrays, which are also its units of parallel work.  For
    each block in turn the caller draws the block's rows of the noise
    stream into its rows of L and releases them before it hands the block
    on; the block draws its own rows of the loss uniforms (see
    :func:`_loss_draws`) and evaluates every law on them.  So no whole
    noise or uniform stack is kept.  With two or more blocks and two or
    more CPUs, the blocks run on a pool of min(blocks, CPUs) threads that
    lives for the call; otherwise the rollout starts no thread.  The
    threads call numpy and private helpers only, so a tracer that wraps
    the public functions sees every call on the caller's thread.  A stream
    drawn a block at a time is the one-shot draw, and every operation on a
    block is row-wise, so each block's costs are bitwise the rows of the
    one-shot evaluation, whichever thread computes them, as long as the
    BLAS computes every row of a block's product with the one-shot
    product's kernel; see :func:`_sample_blocks` for why it does.
    """
    _count(samples, "samples", 2)
    _count(seed, "seed", 0)
    x = np.asarray(x, dtype=float)
    u_star = optimal_input_sequence(gain, ens, x)
    om = model.state_penalty
    purposes = [STREAM_NOISE, STREAM_LOSS]
    noise_key, loss_key = philox_keys(seed, [0], purposes)[0]
    n, N, m = ens.n, ens.horizon, ens.m
    to_cross = _noise_to(
        model, ens, ens.noise_map.T @ (om[:, None] * ens.input_map)
    )
    cross_x = ens.cross_gram @ x
    cross = np.empty((samples, N * m))
    # a gain that pays no delivery variance (tcp-like) bridges the state
    # penalty across two independent delivery draws
    draws = 1 if gain.paid_variance.any() else 2
    ps = model.input_penalty
    gram = ens.input_gram
    if draws == 1:  # delta_1 = delta_0: P joins G, and L counts twice
        gram = gram + np.diag(ps)
    costs = np.empty((len(thresholds), samples))

    def filled(blocks):
        # each block's rows of the one noise stream, straight into L
        gen = _rekey(np.random.Generator(np.random.Philox(key=0)), noise_key)
        for block in blocks:
            z = gen.standard_normal((block.stop - block.start, N * n))
            rows = np.matmul(z, to_cross, out=cross[block])
            del z  # released before the next block's normals are drawn
            rows += cross_x
            if draws == 1:
                rows *= 2.0
            yield block

    def evaluate(block):
        uniforms = [
            _loss_draws(loss_key, (j * samples + block.start) * N * m,
                        (block.stop - block.start, N * m))
            for j in range(draws)
        ]
        for law, stacked in enumerate(thresholds):
            delivered = [
                np.multiply(uni < stacked, u_star) for uni in uniforms
            ]
            head = delivered[0] @ gram
            head += cross[block]
            row = np.einsum("ij,ij->i", head, delivered[-1])
            if draws == 2:
                tail = np.multiply(delivered[0], ps, out=head)
                tail += cross[block]
                row += np.einsum("ij,ij->i", tail, delivered[0])
            costs[law, block] = row

    blocks = _sample_blocks(samples, N * m)
    workers = min(len(blocks), _cpus())
    if workers == 1:
        list(map(evaluate, filled(blocks)))
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(evaluate, filled(blocks)))
    return costs


def horizon_cost_samples(
    ens: PredictionEnsemble,
    model: SystemModel,
    gain: ControllerGain,
    x: np.ndarray,
    step_means,
    samples: int,
    seed: int = 0,
) -> np.ndarray:
    """Monte-Carlo samples of the expected horizon cost at ``x``.

    ``step_means`` is a scalar, per-channel vector, or (N, m) schedule
    giving the channel law the horizon is rolled out under.  The mean of
    the returned array is an unbiased estimate of the closed-form expected
    cost for the gain's protocol (see the module docstring for why the
    tcp-like estimator uses two delivery draws per sample).
    """
    x = np.asarray(x, dtype=float)
    thresholds = _expand_step_means(ens, step_means).reshape(-1)
    costs = _horizon_rollout(ens, model, gain, x, [thresholds], samples, seed)
    # the rollout's costs net of x'Qx and of the law-free a'Wa, which is
    # formed here from the whole noise stream of the same key
    noise_key = philox_keys(seed, [0], [STREAM_NOISE])[0, 0]
    gen = _rekey(np.random.Generator(np.random.Philox(key=0)), noise_key)
    z = gen.standard_normal((samples, ens.horizon * ens.n))
    a = z @ _noise_to(model, ens, ens.noise_map.T) + ens.state_map @ x
    free = np.einsum("ij,ij->i", a * model.state_penalty, a)
    return float(x @ (model.Q * x)) + (costs[0] + free)


def empirical_increases(
    ens: PredictionEnsemble,
    model: SystemModel,
    gain: ControllerGain,
    x: np.ndarray,
    laws,
    samples: int,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Paired common-random-number estimates of several attack cost increases.

    ``laws`` lists channel laws, each a scalar, per-channel vector or
    (N, m) schedule.  One horizon rollout is drawn and the nominal law is
    evaluated on it once; every law's attacked rollout shares its noise and
    loss uniforms, and only the thresholds differ.  Returns one (mean
    difference, standard error of the mean difference) per law, each
    bitwise what :func:`empirical_increase` gives for that law alone.
    """
    laws = list(laws)
    if not laws:
        raise DimensionError("at least one channel law is needed")
    thresholds = [_expand_step_means(ens, law).reshape(-1) for law in laws]
    # x'Qx and the law-free a'Wa cancel in the pairing
    nominal, *attacked = _horizon_rollout(
        ens, model, gain, x, [gain.mean_stack] + thresholds, samples, seed
    )
    out = []
    for costs in attacked:
        diffs = costs - nominal
        out.append((float(np.mean(diffs)), _standard_error(diffs)))
    return out


def empirical_increase(
    ens: PredictionEnsemble,
    model: SystemModel,
    gain: ControllerGain,
    x: np.ndarray,
    step_means,
    samples: int,
    seed: int = 0,
):
    """Paired common-random-number estimate of the attack cost increase.

    The one-law case of :func:`empirical_increases`: attacked and nominal
    horizon rollouts share noise and loss uniforms; only the thresholds
    differ.  Returns (mean difference, standard error of the mean
    difference).
    """
    return empirical_increases(
        ens, model, gain, x, [step_means], samples, seed
    )[0]
