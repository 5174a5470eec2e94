"""Closed-form expected-cost effects of packet-drop attacks.

Every formula here is an exact consequence of the quadratic horizon cost:
``baseline`` is the operator's expected cost under the nominal channel,
``attacked`` the expectation under the attacker's law with the operator's
gain unchanged, and ``increase`` their difference.  The single recurring
constant is the feedback benefit

    q0 = -u' (nu * cross_gram x)   ( > 0 whenever actuation helps )

which is exactly what a total blackout (attack rate -> 0) costs the
operator: with no packets delivered, the loop runs open and forfeits q0.
Every other regime's increase equals its attack objective plus q0, a
structural identity the tests pin down numerically.
"""

from dataclasses import dataclass, field

import numpy as np

from .attack_iid import AttackContext, objective_coeffs
from .attack_qp import AttackSchedule, schedule_objective
from .controller import Protocol, nominal_expected_cost
from .errors import DimensionError
from .model import SystemModel

__all__ = [
    "CostReport",
    "feedback_benefit",
    "cost_increase_alpha0",
    "cost_increase_alpha1_udp",
    "cost_increase_alphamax_udp",
    "cost_increase_alpha1_tcp",
    "expected_attacked_cost",
]


@dataclass(frozen=True)
class CostReport:
    """Analytic cost comparison for one attack regime at one state."""

    regime: str
    protocol: Protocol
    baseline: float
    attacked: float
    increase: float
    details: dict = field(default_factory=dict)


def feedback_benefit(ctx: AttackContext) -> float:
    """q0: expected-cost advantage of the delivered feedback at this state."""
    fx = ctx.ens.cross_gram @ ctx.x
    return -float(ctx.u_star @ (ctx.gain.mean_stack * fx))


def _baseline(ctx: AttackContext, model: SystemModel) -> float:
    return nominal_expected_cost(ctx.ens, model, ctx.gain, ctx.x)


def _report(ctx, model, regime, increase, details=None) -> CostReport:
    base = _baseline(ctx, model)
    return CostReport(
        regime=regime,
        protocol=ctx.protocol,
        baseline=base,
        attacked=base + increase,
        increase=increase,
        details=details or {},
    )


def cost_increase_alpha0(ctx: AttackContext, model: SystemModel) -> CostReport:
    """Blackout regime: delivery rate driven to zero (both protocols).

    The increase is exactly q0, strictly positive whenever the nominal
    sequence is nonzero and every channel has positive nominal rate.
    """
    return _report(ctx, model, "alpha0", feedback_benefit(ctx))


def cost_increase_alpha1_udp(ctx: AttackContext, model: SystemModel) -> CostReport:
    """Flooding regime for the udp-like loop: every packet delivered.

    increase = u'(G_in + P)u + u'((2 I - Nu) cross_gram x) ; delivering
    everything can HURT the operator because the udp gain hedges against
    losses that no longer happen.  ``details`` carries the two sides of
    the state-dependent condition under which the first objective term is
    itself positive.
    """
    ctx.require_protocol(Protocol.UDP_LIKE, "cost_increase_alpha1_udp")
    u = ctx.u_star
    nu = ctx.gain.mean_stack
    fx = ctx.ens.cross_gram @ ctx.x
    increase = float(
        u @ ((ctx.ens.input_gram + ctx.input_penalty) @ u)
    ) + float(u @ ((2.0 - nu) * fx))
    off = ctx.ens.input_gram - np.diag(ctx.ens.input_gram_diag)
    lhs = float(u @ (((1.0 - 2.0 * nu)[:, None] * off) @ u))
    rhs = float(u @ (ctx.input_penalty @ u)) + float(
        u @ (ctx.ens.input_gram_diag * u)
    )
    return _report(
        ctx,
        model,
        "alpha1",
        increase,
        details={
            "objective_condition_lhs": lhs,
            "objective_condition_rhs": rhs,
            "cost_increasing": bool(increase > 0.0),
        },
    )


def cost_increase_alphamax_udp(ctx: AttackContext, model: SystemModel) -> CostReport:
    """Interior-peak regime for a concave udp objective.

    increase = q0 - linear^2 / (4 curvature); the second term is the
    strictly positive bonus of sitting at the peak (curvature < 0 here).
    """
    ctx.require_protocol(Protocol.UDP_LIKE, "cost_increase_alphamax_udp")
    coeffs = objective_coeffs(ctx)
    if coeffs.curvature >= 0.0:
        raise ValueError(
            "interior-peak regime needs a concave objective; curvature is "
            f"{coeffs.curvature:.3e}"
        )
    bonus = -(coeffs.linear ** 2) / (4.0 * coeffs.curvature)
    peak = -coeffs.linear / (2.0 * coeffs.curvature)
    return _report(
        ctx,
        model,
        "alpha_peak",
        feedback_benefit(ctx) + bonus,
        details={"alpha_peak": peak, "peak_bonus": bonus},
    )


def cost_increase_alpha1_tcp(ctx: AttackContext, model: SystemModel) -> CostReport:
    """Flooding regime for the tcp-like loop.

    increase = u'(G_in (I - 2 Nu) - P)u + q0.  The first term's sign is
    exactly the state-dependent perfect-channel condition: when positive,
    a perfect channel is WORSE for the operator than the nominal lossy one.
    """
    ctx.require_protocol(Protocol.TCP_LIKE, "cost_increase_alpha1_tcp")
    u = ctx.u_star
    nu = ctx.gain.mean_stack
    scaled = ctx.ens.input_gram * (1.0 - 2.0 * nu)[None, :]
    first = float(u @ ((scaled - ctx.input_penalty) @ u))
    return _report(
        ctx,
        model,
        "alpha1",
        first + feedback_benefit(ctx),
        details={"flooding_term": first, "flooding_term_positive": bool(first > 0.0)},
    )


def expected_attacked_cost(
    ctx: AttackContext,
    model: SystemModel,
    attack=None,
) -> float:
    """Expected horizon cost at ``ctx.x`` under an attacked channel law.

    ``attack`` may be None (nominal law), a scalar rate, a per-channel rate
    vector, an (N, m) schedule array, or an :class:`AttackSchedule`.  The
    value is the attack objective plus the state- and noise-dependent
    constant, so attack=None reproduces ``nominal_expected_cost`` exactly
    (a consistency check the tests exercise).
    """
    const = float(ctx.x @ ((model.Q + ctx.ens.state_gram) @ ctx.x))
    const += ctx.ens.noise_cost_trace()
    qp = ctx.qp
    if attack is None:
        # nominal law == constant schedule at the nominal means
        return const + qp.objective(qp.nominal)

    if isinstance(attack, AttackSchedule):
        schedule = attack.means
    else:
        schedule = np.asarray(attack, dtype=float)
        if schedule.ndim == 0:
            schedule = np.full(ctx.ens.m, float(schedule))
        if schedule.ndim == 1:
            if schedule.size != ctx.ens.m:
                raise DimensionError(
                    f"per-channel attack must have {ctx.ens.m} entries, "
                    f"got {schedule.size}"
                )
            schedule = np.tile(schedule, (ctx.ens.horizon, 1))
    return const + schedule_objective(qp, schedule)


def initial_state_average(model: SystemModel, cost_at_state) -> float:
    """Average a per-state expected cost over the initial-state law.

    Every expected-cost expression here is a quadratic form in the state
    plus a state-independent constant, so for an initial state with mean
    X-bar and covariance S the average is value(X-bar) + tr(S H) with H the
    quadratic's matrix.  H is recovered by polarization from evaluations at
    the basis vectors, which keeps this helper valid for any of the
    per-state cost closures (baseline or attacked) without duplicating
    their algebra.
    """
    n = model.n
    offset = float(cost_at_state(np.zeros(n)))
    basis = np.eye(n)
    diag_vals = np.array([cost_at_state(basis[i]) - offset for i in range(n)])
    quad = np.diag(diag_vals)
    for i in range(n):
        for j in range(i + 1, n):
            pair = float(cost_at_state(basis[i] + basis[j])) - offset
            quad[i, j] = quad[j, i] = 0.5 * (pair - diag_vals[i] - diag_vals[j])
    return float(cost_at_state(model.init_mean)) + float(
        np.sum(quad * model.init_cov)
    )
