"""Closed-form expected-cost effects of packet-drop attacks.

Every cost here is one quadratic, the attack objective that
:func:`~dropattack.attack_iid.build_qp` builds, evaluated at some rates
and added to the state- and noise-dependent constant.  ``baseline`` is
the operator's expected cost under the nominal channel (the quadratic at
the nominal rates), ``attacked`` the expectation under the attacker's law
with the operator's gain unchanged, and ``increase`` their difference.
The single recurring constant is the feedback benefit

    q0 = -u' (nu * cross_gram x)   ( > 0 whenever actuation helps )

which is exactly what a total blackout (attack rate -> 0) costs the
operator: with no packets delivered, the loop runs open and forfeits q0.
Every regime's increase is its attack objective plus q0, which is how
:func:`cost_regimes` evaluates it; the tests check the identity against
the independent Bernoulli-moment oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .attack_iid import AttackContext, Convexity, flooding_condition
from .attack_qp import AttackSchedule, schedule_objective
from .controller import Protocol, _expand_step_means

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


def cost_regimes(ctx: AttackContext) -> dict[str, CostReport]:
    """Expected cost increase of the named stationary attack regimes.

    Each regime is the shared-rate objective evaluated at one rate, plus
    q0: ``alpha_0`` (blackout, a = 0, increase exactly q0), ``alpha_1``
    (flooding, a = 1: every packet delivered) and, when the objective is
    concave, ``alpha_peak`` (its interior stationary point; the bonus over
    the blackout is the objective there, strictly positive).

    Flooding can HURT the operator, and ``alpha_1.details`` carries the
    condition for it (:func:`~dropattack.attack_iid.flooding_condition`):
    the two sides of u'(I - 2 Nu)(G_in - V)u > u'(P + V)u and their
    difference, the objective at a = 1 (``flooding_term``).  When that is
    positive a perfect channel is WORSE for the operator than a blackout,
    let alone the nominal lossy channel; ``cost_increasing`` says whether
    it is worse than the nominal channel.
    """
    line = ctx.line
    q0 = feedback_benefit(ctx)
    baseline = expected_attacked_cost(ctx)

    def report(regime, alpha, details=None):
        increase = line.value(alpha) + q0
        return CostReport(
            regime=regime,
            protocol=ctx.protocol,
            baseline=baseline,
            attacked=baseline + increase,
            increase=increase,
            details=details or {},
        )

    flooding = flooding_condition(ctx)
    details = {
        "objective_condition_lhs": flooding.lhs,
        "objective_condition_rhs": flooding.rhs,
        "flooding_term": flooding.objective_at_one,
        "flooding_term_positive": flooding.state_positive,
        "cost_increasing": bool(flooding.objective_at_one + q0 > 0.0),
    }
    regimes = {
        "alpha_0": report("alpha0", 0.0),
        "alpha_1": report("alpha1", 1.0, details),
    }
    if line.convexity is Convexity.CONCAVE:
        peak = line.stationary
        regimes["alpha_peak"] = report(
            "alpha_peak", peak,
            {"alpha_peak": peak, "peak_bonus": line.value(peak)},
        )
    return regimes


def expected_attacked_cost(ctx: AttackContext, attack=None) -> float:
    """Expected horizon cost at ``ctx.x`` under an attacked channel law.

    ``attack`` may be None (nominal law), a scalar rate, a per-channel rate
    vector, an (N, m) schedule array, or an :class:`AttackSchedule`.  The
    value is the attack objective plus the state- and noise-dependent
    constant; attack=None gives the operator's nominal expected cost, the
    baseline of every regime in :func:`cost_regimes`.  Rates outside
    [0, 1] or of the wrong shape raise :class:`DimensionError`.
    """
    weight = np.diag(ctx.model.Q) + ctx.ens.state_gram
    const = float(ctx.x @ (weight @ ctx.x))
    const += ctx.ens.noise_cost
    qp = ctx.qp
    if attack is None:
        # nominal law == constant schedule at the nominal means
        return const + qp.objective(ctx.gain.mean_stack)

    if isinstance(attack, AttackSchedule):
        attack = attack.means
    return const + schedule_objective(qp, _expand_step_means(ctx.ens, attack))
