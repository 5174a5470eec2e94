"""Closed-form expected-cost effects of packet-drop attacks.

Every formula here is an exact consequence of the quadratic horizon cost:
``baseline`` is the operator's expected cost under the nominal channel,
``attacked`` the expectation under the attacker's law with the operator's
gain unchanged, and ``increase`` their difference.  The single recurring
constant is the feedback benefit

    q0 = -u' (nu * cross_gram x)   ( > 0 whenever actuation helps )

which is exactly what a total blackout (attack rate -> 0) costs the
operator: with no packets delivered, the loop runs open and forfeits q0.
Every regime's increase is its attack objective plus q0, which is how
:func:`cost_regimes` evaluates it; the tests check the identity against
the independent Bernoulli-moment oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .attack_iid import (
    AttackContext,
    Convexity,
    _convexity,
    objective_coeffs,
    stationary_alpha,
)
from .attack_qp import AttackSchedule, schedule_objective
from .controller import Protocol, _expand_step_means, nominal_expected_cost
from .model import SystemModel

__all__ = [
    "CostReport",
    "feedback_benefit",
    "cost_regimes",
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


def cost_regimes(ctx: AttackContext, model: SystemModel) -> dict[str, CostReport]:
    """Expected cost increase of the named stationary attack regimes.

    Each regime is the shared-rate objective evaluated at one rate, plus
    q0: ``alpha_0`` (blackout, a = 0, increase exactly q0), ``alpha_1``
    (flooding, a = 1: every packet delivered) and, when the objective is
    concave, ``alpha_peak`` (its interior stationary point; the bonus over
    the blackout is the objective there, strictly positive).

    Flooding can HURT the operator, and ``alpha_1.details`` carries the
    protocol's condition for it.  udp: the two sides of
    u'(I - 2 Nu)(G_in - D_in)u > u'(P + D_in)u, whose difference is
    the objective at a = 1.  tcp: that objective itself; when positive, a
    perfect channel is WORSE for the operator than the nominal lossy one.
    """
    coeffs = objective_coeffs(ctx)
    q0 = feedback_benefit(ctx)
    baseline = nominal_expected_cost(ctx.ens, model, ctx.gain, ctx.x)

    def report(regime, alpha, details=None):
        increase = coeffs.value(alpha) + q0
        return CostReport(
            regime=regime,
            protocol=ctx.protocol,
            baseline=baseline,
            attacked=baseline + increase,
            increase=increase,
            details=details or {},
        )

    flooding = coeffs.value(1.0)
    if ctx.protocol is Protocol.UDP_LIKE:
        u, nu = ctx.u_star, ctx.gain.mean_stack
        diag = ctx.ens.input_gram_diag
        off = ctx.ens.input_gram - np.diag(diag)
        details = {
            "objective_condition_lhs": float(
                u @ (((1.0 - 2.0 * nu)[:, None] * off) @ u)
            ),
            "objective_condition_rhs": float(u @ (ctx.input_penalty @ u))
            + float(u @ (diag * u)),
            "cost_increasing": bool(flooding + q0 > 0.0),
        }
    else:
        details = {
            "flooding_term": flooding,
            "flooding_term_positive": bool(flooding > 0.0),
        }
    regimes = {
        "alpha_0": report("alpha0", 0.0),
        "alpha_1": report("alpha1", 1.0, details),
    }
    if _convexity(ctx, coeffs) is Convexity.CONCAVE:
        peak = stationary_alpha(ctx, coeffs)
        regimes["alpha_peak"] = report(
            "alpha_peak", peak,
            {"alpha_peak": peak, "peak_bonus": coeffs.value(peak)},
        )
    return regimes


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
    (a consistency check the tests exercise).  Rates outside [0, 1] or of
    the wrong shape raise :class:`DimensionError`.
    """
    const = float(ctx.x @ ((model.Q + ctx.ens.state_gram) @ ctx.x))
    const += ctx.ens.noise_cost_trace()
    qp = ctx.qp
    if attack is None:
        # nominal law == constant schedule at the nominal means
        return const + qp.objective(qp.nominal)

    if isinstance(attack, AttackSchedule):
        attack = attack.means
    return const + schedule_objective(qp, _expand_step_means(ctx.ens, attack))


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
