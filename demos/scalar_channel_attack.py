"""Walk the single-channel attack story end to end.

A two-state plant is actuated through one packet channel that delivers
with probability 0.7, and the loss monitor tolerates empirical rates
within 0.1 of nominal.  The script characterizes the attacker's best
stationary rate under both acknowledgement regimes, evaluates the
closed-form cost increases, checks every formula against a paired
common-random-number Monte-Carlo estimate, and asks whether a perfect
channel would raise the cost.  The two loops differ only in the delivery
variance V their cost pays (the input Gramian's diagonal for udp, none
for tcp).

    python3 demos/scalar_channel_attack.py
"""

import numpy as np

from dropattack import (
    ChannelSpec,
    DetectionSpec,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    cost_regimes,
    empirical_increases,
    expected_attacked_cost,
    feedback_benefit,
    flooding_condition,
    optimal_alpha,
    SystemModel,
)

HORIZON = 5

model = SystemModel(
    A=np.array([[1.03, 0.005], [0.35, 0.5]]),
    B=np.array([[1.0], [1.0]]),
    Q=np.ones(2),                        # weight diagonals, as vectors
    state_penalty=np.ones(HORIZON * 2),  # stacked over the horizon
    input_penalty=np.ones(HORIZON * 1),
    noise_cov=0.01 * np.eye(2),
    init_cov=0.01 * np.eye(2),
    init_mean=np.array([1.0, 1.0]),
    horizon=HORIZON,
)
channel = ChannelSpec(mean_diag=np.array([0.7]))
detection = DetectionSpec(tol_diag=np.array([0.1]))
x = np.array([1.0, 1.0])


def describe(protocol):
    print(f"\n=== {protocol.value}-like loop " + "=" * 40)
    ens = build_prediction_ensemble(model)
    ctx = attack_context(ens, model, channel, detection, protocol, x)
    lo, hi = ctx.require_region()
    baseline = expected_attacked_cost(ctx)  # the nominal law
    print(f"admissible rate band      [{lo:.2f}, {hi:.2f}]")
    print(f"nominal expected cost     {baseline:.4f}")
    print(f"feedback benefit          {feedback_benefit(ctx):.4f}")

    char = optimal_alpha(ctx)
    print(f"objective curvature class {char.convexity.value}")
    print(f"best stationary rate      {char.alpha_star:.4f}"
          f"   (objective {char.objective_star:+.4f})")

    # closed-form increases at the band edges and notable interior points
    regimes = cost_regimes(ctx)
    print("\nclosed-form cost increases")
    for report in regimes.values():
        print(f"  {report.regime:<10} increase {report.increase:+9.4f}")

    attacked = expected_attacked_cost(ctx, char.alpha_star)
    print(f"\nexpected cost at the best stationary rate  {attacked:.4f}"
          f"  (+{attacked - baseline:.4f})")

    # paired Monte-Carlo check of the same closed forms
    print("\npaired Monte-Carlo validation (1e5 samples)")
    checks = [
        ("all-drop", 0.0, regimes["alpha_0"].increase),
        ("flooding", 1.0, regimes["alpha_1"].increase),
        ("optimum", char.alpha_star, attacked - baseline),
    ]
    increases = empirical_increases(
        ens, model, ctx.gain, x, [alpha for _, alpha, _ in checks],
        samples=100_000, seed=7)
    for (name, alpha, analytic), (mean, se) in zip(checks, increases):
        z = (mean - analytic) / se if se > 0 else 0.0
        print(f"  {name:<10} alpha={alpha:5.3f}  analytic {analytic:+9.4f}"
              f"  empirical {mean:+9.4f} +- {se:.4f}  (z {z:+.2f})")

    report = flooding_condition(ctx)
    print("\nflooding check: does a perfect channel raise the cost here?")
    print(f"  u'(I - 2 nu)(G - V)u    {report.lhs:+.4f}")
    print(f"  u'(P + V)u              {report.rhs:+.4f}")
    print(f"  objective at rate 1     {report.objective_at_one:+.4f}")
    print(f"  state-independent part  "
          f"{'positive definite' if report.matrix_definite else 'not definite'}"
          f"  (min eigenvalue {report.min_eigenvalue:+.4f})")


def main():
    print("plant: two states, one lossy actuation channel, horizon", HORIZON)
    print("channel delivery rate 0.7, monitor tolerance 0.1")
    for protocol in (Protocol.UDP_LIKE, Protocol.TCP_LIKE):
        describe(protocol)


if __name__ == "__main__":
    main()
