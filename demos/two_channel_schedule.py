"""Per-step attack schedules versus the best stationary attack.

Two stories.  First, a two-channel plant whose second channel is nearly
dead (delivery rate 0.01): the stationary per-channel attack already
sits on the box corner the schedule solver picks, so schedules add
nothing, and closed-loop Monte-Carlo shows the resulting ordering of
mean terminal costs.  Second, a three-state plant with memory where the
solver finds a genuine burst schedule that no stationary attack matches.

    python3 demos/two_channel_schedule.py
"""

import numpy as np

from dropattack import (
    AttackPlan,
    ChannelSpec,
    DetectionSpec,
    EpisodeConfig,
    Protocol,
    SystemModel,
    attack_context,
    build_prediction_ensemble,
    build_qp,
    monte_carlo,
    solve_box_qp_max,
    solve_iid_constrained,
)


def reference_plant():
    N = 5
    return SystemModel(
        A=np.array([[1.03, 0.005], [0.35, 0.5]]),
        B=np.eye(2),
        Q=np.ones(2),  # the weights' diagonals
        state_penalty=np.ones(N * 2),
        input_penalty=np.ones(N * 2),
        noise_cov=0.01 * np.eye(2),
        init_cov=0.01 * np.eye(2),
        init_mean=np.array([1.0, 1.0]),
        horizon=N,
    )


def memory_plant():
    # drawn once from a fixed stream; kept because the schedule solver
    # finds a strict improvement on it
    rng = np.random.default_rng(37)
    n, m, N = 3, 2, 6
    return SystemModel(
        A=rng.normal(size=(n, n)) / np.sqrt(n),
        B=rng.normal(size=(n, m)),
        Q=np.ones(n),
        state_penalty=np.ones(N * n),
        input_penalty=np.full(N * m, 0.1),
        noise_cov=0.01 * np.eye(n),
        init_cov=0.01 * np.eye(n),
        init_mean=np.ones(n),
        horizon=N,
    )


def closed_loop_ordering():
    print("=== story 1: two-channel plant, closed loop " + "=" * 24)
    model = reference_plant()
    channel = ChannelSpec(mean_diag=np.array([0.7, 0.01]))
    detection = DetectionSpec(tol_diag=np.array([0.1, 0.1]))
    print("delivery rates (0.70, 0.01), tolerance 0.1 per channel")

    ens = build_prediction_ensemble(model)
    ctx = attack_context(
        ens, model, channel, detection, Protocol.UDP_LIKE, model.init_mean)
    qp = build_qp(ctx)
    stationary = solve_iid_constrained(qp)
    schedule = solve_box_qp_max(qp, iid=stationary)
    print(f"stationary rates  {np.round(stationary.means[0], 3)}"
          f"   objective {stationary.objective:+.4f}")
    print(f"schedule winner   {schedule.winner}"
          f"            objective {schedule.objective:+.4f}")
    print("the schedule optimum is the constant-rate corner itself, so the")
    print("two attacks coincide on this plant\n")

    for protocol in (Protocol.UDP_LIKE, Protocol.TCP_LIKE):
        print(f"{protocol.value}-like loop, 1000 episodes of 50 steps")
        rows = []
        for kind in ("none", "iid", "nonstat"):
            plan = AttackPlan() if kind == "none" else AttackPlan(kind=kind)
            cfg = EpisodeConfig(
                model, channel, detection, protocol,
                plan=plan, T=50, seed=20260816,
            )
            rows.append((kind, monte_carlo(cfg, 1000)))
        for kind, agg in rows:
            label = {"none": "nominal", "iid": "stationary",
                     "nonstat": "schedule"}[kind]
            print(f"  {label:<11} mean terminal cost "
                  f"{agg.mean_terminal:7.3f} +- {agg.se_terminal:.3f}")
        print()


def burst_schedule():
    print("=== story 2: a plant with memory rewards bursts " + "=" * 20)
    model = memory_plant()
    channel = ChannelSpec(mean_diag=np.array([0.7, 0.5]))
    detection = DetectionSpec(tol_diag=np.array([0.1, 0.15]))
    ens = build_prediction_ensemble(model)
    ctx = attack_context(
        ens, model, channel, detection, Protocol.UDP_LIKE, np.ones(model.n))

    qp = build_qp(ctx)
    stationary = solve_iid_constrained(qp)
    schedule = solve_box_qp_max(qp, iid=stationary)
    margin = schedule.objective - stationary.objective
    print(f"stationary rates  {np.round(stationary.means[0], 3)}"
          f"   objective {stationary.objective:+.4f}")
    print(f"best schedule     objective {schedule.objective:+.4f}"
          f"   (margin +{margin:.4f})")
    print("per-step delivery rates the schedule plays:")
    for k, row in enumerate(schedule.means):
        print(f"  step {k}: {np.round(row, 3)}")
    print("the second channel opens at the top of its band for one step,")
    print("then starves; a stationary attack cannot express that burst")


def main():
    closed_loop_ordering()
    burst_schedule()


if __name__ == "__main__":
    main()
