"""Shared helpers: random instances and slow independent oracles.

The slow oracles rebuild every stacked operator with explicit loops and
evaluate expected costs from first and second Bernoulli moments directly.
They share no code with the package internals beyond the model dataclass,
so agreement is evidence, not tautology.  ``slow_episode``, the closed
loop one step at a time, is the reference for the lockstep engine: it
steps the plant, draws the losses and bills the stage cost with its own
one-line helpers below, and takes from the package only the set-up the
engine also takes (ensemble, gain, attack resolution, monitor).
``slow_horizon_costs`` is the horizon rollout evaluated from the stacked
predicted states on all samples at once, the independent reference the
Gramian-form rollout is gated against within rounding;
``gramian_horizon_costs`` is the package's Gramian form on all samples
at once, the reference the sample-blocked rollout is gated against
bitwise.  All three build their random streams with numpy's own
``SeedSequence`` (:func:`seeded_stream`), so they also gate the
package's batched key derivation.
"""

import itertools

import numpy as np
import pytest

from dropattack import (
    STREAM_INIT,
    STREAM_LOSS,
    STREAM_NOISE,
    ChannelSpec,
    DetectionSpec,
    Protocol,
    SimulationTrace,
    SystemModel,
    attack_context,
    build_prediction_ensemble,
    control_gain,
    fresh_monitor,
    in_safe_region,
    optimal_input_sequence,
    resolve_attack,
    solve_box_qp_max,
    update_monitor,
)


def make_model(
    A, B, *, horizon, q=None, omega=None, psi=None,
    noise=None, init_cov=None, init_mean=None,
):
    """SystemModel with sensible defaults for scalar test data."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = A.shape[0], B.shape[1]
    return SystemModel(
        A=A,
        B=B,
        Q=np.full(n, 1.0) if q is None else np.asarray(q, float),
        state_penalty=(
            np.tile(np.full(n, 1.0) if omega is None else np.asarray(omega, float), horizon)
            if (omega is None or np.asarray(omega).size == n)
            else np.asarray(omega, float)
        ),
        input_penalty=(
            np.tile(np.full(m, 1.0) if psi is None else np.asarray(psi, float), horizon)
            if (psi is None or np.asarray(psi).size == m)
            else np.asarray(psi, float)
        ),
        noise_cov=np.diag(np.full(n, 0.01) if noise is None else np.asarray(noise, float))
        if (noise is None or np.asarray(noise).ndim == 1)
        else np.asarray(noise, float),
        init_cov=np.eye(n) * 0.01 if init_cov is None else np.asarray(init_cov, float),
        init_mean=np.ones(n) if init_mean is None else np.asarray(init_mean, float),
        horizon=horizon,
    )


def random_model(rng, n=None, m=None, horizon=None, spread=1.1):
    """Random instance; `spread` scales A (values above 1 allow instability)."""
    n = n or int(rng.integers(1, 5))
    m = m or int(rng.integers(1, 5))
    horizon = horizon or int(rng.integers(2, 9))
    A = rng.normal(size=(n, n)) * spread / np.sqrt(n)
    B = rng.normal(size=(n, m))
    return SystemModel(
        A=A,
        B=B,
        Q=rng.uniform(0.5, 2.0, n),
        state_penalty=rng.uniform(0.5, 2.0, horizon * n),
        input_penalty=rng.uniform(0.5, 2.0, horizon * m),
        noise_cov=np.diag(rng.uniform(0.02, 0.2, n)),
        init_cov=np.diag(rng.uniform(0.02, 0.2, n)),
        init_mean=rng.normal(size=n),
        horizon=horizon,
    )


def rotation_model(rng, horizon=None, scale=None):
    """Planar rotation plants; their cross terms oscillate in sign, which
    makes the rate objective's curvature flip across instances."""
    theta = rng.uniform(0.6, 2.4)
    scale = scale if scale is not None else rng.uniform(0.8, 1.25)
    A = scale * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    B = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
    horizon = horizon or int(rng.integers(3, 9))
    return SystemModel(
        A=A,
        B=B,
        Q=rng.uniform(0.5, 2.0, 2),
        state_penalty=rng.uniform(0.5, 2.0, horizon * 2),
        input_penalty=rng.uniform(0.1, 0.6, horizon * 2),
        noise_cov=np.diag(rng.uniform(0.02, 0.2, 2)),
        init_cov=np.diag(rng.uniform(0.02, 0.2, 2)),
        init_mean=rng.normal(size=2) * 2.0,
        horizon=horizon,
    )


def memoryless_model(rng, n=None, horizon=None):
    """A = 0 with diagonal B: drops at different steps never interact, so
    the shared-rate objective is exactly linear."""
    n = n or int(rng.integers(1, 4))
    horizon = horizon or int(rng.integers(2, 7))
    B = np.diag(rng.uniform(0.5, 2.0, n))
    return SystemModel(
        A=np.zeros((n, n)),
        B=B,
        Q=rng.uniform(0.5, 2.0, n),
        state_penalty=rng.uniform(0.5, 2.0, horizon * n),
        input_penalty=rng.uniform(0.1, 1.0, horizon * n),
        noise_cov=np.diag(rng.uniform(0.02, 0.2, n)),
        init_cov=np.diag(rng.uniform(0.02, 0.2, n)),
        init_mean=rng.normal(size=n) * 2.0,
        horizon=horizon,
    )


def random_channel(rng, m, lo=0.25, hi=0.85):
    return ChannelSpec(mean_diag=rng.uniform(lo, hi, m))


def shared_channel(m, mean=0.7):
    return ChannelSpec(mean_diag=np.full(m, mean))


def random_detection(rng, m, lo=0.05, hi=0.3):
    return DetectionSpec(tol_diag=rng.uniform(lo, hi, m))


def shared_detection(m, tol=0.1):
    return DetectionSpec(tol_diag=np.full(m, tol))


# ------------------------------------------------------------ slow oracles

def slow_step(model, x, u, v, w):
    """One plant step, A x + B (v * u) + w: a dropped packet (v = 0)
    zeroes its input entry exactly."""
    return model.A @ x + model.B @ (v * u) + w


def slow_stage_cost(model, x, u, v, x_next):
    """Realized per-step cost: x'Qx, the first input-penalty block on the
    delivered input v * u and the first state-penalty block on x_next, so
    each step is billed once for where it lands."""
    m, n, delivered = model.m, model.n, v * u
    P, W = np.diag(model.input_penalty), np.diag(model.state_penalty)
    return (
        float(x @ (np.diag(model.Q) @ x))
        + float(delivered @ (P[:m, :m] @ delivered))
        + float(x_next @ (W[:n, :n] @ x_next))
    )


def reachable(model):
    """Whether [B, AB, ..., A^(N-1) B] has the largest rank it could,
    min(n, N*m), at numpy's default rank tolerance."""
    blocks, power = [], np.eye(model.n)
    for _ in range(model.horizon):
        blocks.append(power @ model.B)
        power = model.A @ power
    rank = np.linalg.matrix_rank(np.hstack(blocks))
    return rank == min(model.n, model.horizon * model.m)


def slow_stack(model):
    """Prediction operators assembled block by block with matrix powers."""
    n, m, N = model.n, model.m, model.horizon
    Phi = np.zeros((N * n, n))
    Gamma = np.zeros((N * n, N * m))
    Lam = np.zeros((N * n, N * n))
    for i in range(1, N + 1):
        Phi[(i - 1) * n : i * n] = np.linalg.matrix_power(model.A, i)
        for j in range(1, i + 1):
            power = np.linalg.matrix_power(model.A, i - j)
            Gamma[(i - 1) * n : i * n, (j - 1) * m : j * m] = power @ model.B
            Lam[(i - 1) * n : i * n, (j - 1) * n : j * n] = power
    return Phi, Gamma, Lam


def slow_ensemble(model):
    """Every field of ``PredictionEnsemble``, assembled one block at a time.

    The maps are written block by block with one ``A^(i-j) B`` product
    per block and the Gramians weight by the dense diagonal matrix of
    ``state_penalty``: the same floating-point operations as the package's
    build, so the two must agree bit for bit, signs of zero included.
    """
    A, B, W = model.A, model.B, np.diag(model.state_penalty)
    n, m, N = model.n, model.m, model.horizon
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    state_map = np.vstack(powers[1:])
    input_map = np.zeros((N * n, N * m))
    noise_map = np.zeros((N * n, N * n))
    for i in range(N):
        for j in range(i + 1):
            input_map[i * n:(i + 1) * n, j * m:(j + 1) * m] = powers[i - j] @ B
            noise_map[i * n:(i + 1) * n, j * n:(j + 1) * n] = powers[i - j]
    w_state = W @ state_map
    return {
        "state_map": state_map,
        "input_map": input_map,
        "noise_map": noise_map,
        "state_gram": state_map.T @ w_state,
        "input_gram": input_map.T @ (W @ input_map),
        "cross_gram": input_map.T @ w_state,
    }


def slow_expected_cost(model, x, u, thresholds, protocol):
    """Expected horizon cost from Bernoulli moments, no package formulas.

    `u` is the commanded stacked sequence, `thresholds` the stacked
    delivery rates.  The fire-and-forget loop pays the full second moment
    of the deliveries in the predicted-state quadratic; the acknowledged
    loop pays only the product of first moments (delivery outcomes are
    known to its accounting by the time that penalty is charged).  Both
    pay the realized-input penalty, linear in the rates.
    """
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    nb = np.asarray(thresholds, float)
    Phi, Gamma, Lam = slow_stack(model)
    Om = np.diag(model.state_penalty)
    psi_diag = model.input_penalty
    Sigma = np.kron(np.eye(model.horizon), model.noise_cov)

    base = Phi @ x
    const = (
        float(x @ np.diag(model.Q) @ x)
        + float(base @ Om @ base)
        + float(np.trace(Lam.T @ Om @ Lam @ Sigma))
    )
    gram = Gamma.T @ Om @ Gamma
    cross = Gamma.T @ Om @ base
    second = np.outer(nb, nb)
    if protocol is Protocol.UDP_LIKE:
        np.fill_diagonal(second, nb)
    state_quad = float(np.sum(gram * second * np.outer(u, u)))
    state_cross = 2.0 * float((nb * u) @ cross)
    input_term = float(np.sum(psi_diag * nb * u * u))
    return const + state_cross + state_quad + input_term


def udp_objective(ctx, alpha):
    """The paper's scalar closed form of the udp-like cost shift at rate
    ``alpha``: a u'(a G_in + (1-a) D_in + P - 2 K) u."""
    assert ctx.protocol is Protocol.UDP_LIKE
    u = ctx.u_star
    M = (
        alpha * ctx.ens.input_gram
        + np.diag((1.0 - alpha) * np.diagonal(ctx.ens.input_gram))
        + np.diag(ctx.model.input_penalty)
        - 2.0 * ctx.gain.kernel
    )
    return alpha * float(u @ (M @ u))


def tcp_objective(ctx, alpha):
    """The paper's scalar closed form of the tcp-like cost shift at rate
    ``alpha``: -a u'(G_in (2 nu - a I) + P) u."""
    assert ctx.protocol is Protocol.TCP_LIKE
    u = ctx.u_star
    scaled = ctx.ens.input_gram * (2.0 * ctx.gain.mean_stack - alpha)[None, :]
    P = np.diag(ctx.model.input_penalty)
    return -alpha * float(u @ ((scaled + P) @ u))


def seeded_stream(seed, realization, purpose):
    """The generator of a (seed, realization, purpose) stream, built from
    its ``SeedSequence`` as numpy documents it."""
    entropy = [int(seed), int(realization), int(purpose)]
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=entropy))
    )


def slow_episode(cfg, realization=0):
    """One closed-loop episode stepped one realization and one step at a
    time, with the helpers above: the reference the lockstep engine behind
    ``run_episode`` and ``monte_carlo`` is gated against.

    Draws step by step from the same per-realization streams, resolves the
    attack at onset from the episode's own state, and re-solves the
    schedule every step from onset on under ``resynthesize``.
    """
    model, plan = cfg.model, cfg.plan
    n, m = model.n, model.m
    ens = build_prediction_ensemble(model)
    gain = control_gain(ens, model, cfg.channel.mean_diag, cfg.protocol)
    noise_rng = seeded_stream(cfg.seed, realization, STREAM_NOISE)
    loss_rng = seeded_stream(cfg.seed, realization, STREAM_LOSS)
    init_rng = seeded_stream(cfg.seed, realization, STREAM_INIT)

    noise_chol = np.linalg.cholesky(model.noise_cov)
    x = model.init_mean.copy()
    if cfg.sample_x0:
        x = x + np.linalg.cholesky(model.init_cov) @ init_rng.standard_normal(n)
    feedback = -gain.solve(ens.cross_gram)[:m, :]
    nominal = cfg.channel.mean_diag

    states, inputs, losses, noises, costs, means = [x], [], [], [], [], []
    monitor = fresh_monitor(m)
    first_detection = None
    table = None
    for k in range(cfg.T):
        if k == plan.onset and plan.kind != "none":
            x_syn = x if plan.state_mode == "onset" else model.init_mean
            table, _ = resolve_attack(
                plan, model, ens, cfg.channel, cfg.detection,
                cfg.protocol, x_syn, gain,
            )
        if plan.kind == "nonstat" and plan.resynthesize and k >= plan.onset:
            ctx = attack_context(
                ens, model, cfg.channel, cfg.detection, cfg.protocol, x, gain
            )
            means_k = solve_box_qp_max(ctx.qp).means[0]
        elif table is not None:
            means_k = table[(k - plan.onset) % len(table)]
        else:
            means_k = nominal

        u = np.zeros(m) if cfg.zero_input else feedback @ x
        v = (loss_rng.random(m) < means_k).astype(float)
        w = noise_chol @ noise_rng.standard_normal(n)
        x_next = slow_step(model, x, u, v, w)
        costs.append(slow_stage_cost(model, x, u, v, x_next))
        inputs.append(u)
        losses.append(v)
        noises.append(w)
        states.append(x_next)

        monitor = update_monitor(monitor, v)
        means.append(monitor.means)
        if (
            first_detection is None
            and monitor.steps >= cfg.detector_min_steps
            and not in_safe_region(monitor.means, cfg.channel, cfg.detection)
        ):
            first_detection = k
        x = x_next

    cumulative = np.cumsum(costs)
    return SimulationTrace(
        states=np.array(states),
        inputs=np.array(inputs),
        losses=np.array(losses),
        noises=np.array(noises),
        stage_costs=np.array(costs),
        cumulative=cumulative,
        monitor_means=np.array(means),
        detected=first_detection is not None,
        first_detection=first_detection,
        terminal_cost=float(cumulative[-1]),
    )


def slow_horizon_costs(ens, model, gain, x, thresholds, samples, seed):
    """Per-sample horizon costs (x'Qx excluded), all samples in one shot.

    The rollout of ``simulate.horizon_cost_samples`` from the stacked
    predicted states chi = S x + M delta + noise_map xi, without the
    Gramians: the same streams, each predicted state formed and weighted
    on the whole (samples, N n) arrays.  ``thresholds`` are the stacked
    delivery rates.
    """
    x = np.asarray(x, dtype=float)
    u_star = optimal_input_sequence(gain, ens, x)
    base = ens.state_map @ x
    om = model.state_penalty
    ps = model.input_penalty
    noise_rng = seeded_stream(seed, 0, STREAM_NOISE)
    loss_rng = seeded_stream(seed, 0, STREAM_LOSS)
    n, N = ens.n, ens.horizon
    chol = np.linalg.cholesky(model.noise_cov)
    xi = noise_rng.standard_normal((samples, N, n)) @ chol.T
    noise_part = xi.reshape(samples, N * n) @ ens.noise_map.T
    draws = 1 if gain.paid_variance.any() else 2
    uniforms = [loss_rng.random((samples, N * ens.m)) for _ in range(draws)]
    delivered = [
        (uni < thresholds[None, :]).astype(float) * u_star[None, :]
        for uni in uniforms
    ]
    chi = [
        base[None, :] + inputs @ ens.input_map.T + noise_part
        for inputs in delivered
    ]
    state_cost = np.sum(chi[0] * om[None, :] * chi[-1], axis=1)
    input_cost = np.sum(delivered[0] * ps[None, :] * delivered[0], axis=1)
    return state_cost + input_cost


def gramian_horizon_costs(ens, model, gain, x, thresholds, samples, seed):
    """The Gramian-form horizon costs, all samples in one shot.

    The rollout of ``simulate.horizon_cost_samples`` written out without
    sample blocks: the same streams, Gramians and operations, each on the
    whole (samples, N n) or (samples, N m) arrays.  Returns the law-free
    term a'Wa of each sample and its cost net of that term (x'Qx excluded
    from both); ``thresholds`` are the stacked delivery rates.
    """
    x = np.asarray(x, dtype=float)
    u_star = optimal_input_sequence(gain, ens, x)
    om = model.state_penalty
    ps = model.input_penalty
    n, N, m = ens.n, ens.horizon, ens.m
    chol_t = np.linalg.cholesky(model.noise_cov).T

    def from_draws(noise_to):
        return (chol_t @ noise_to.reshape(N, n, -1)).reshape(N * n, -1)

    z = seeded_stream(seed, 0, STREAM_NOISE).standard_normal((samples, N, n))
    z = z.reshape(samples, N * n)
    cross = z @ from_draws(ens.noise_map.T @ (om[:, None] * ens.input_map))
    cross = cross + ens.cross_gram @ x
    a = z @ from_draws(ens.noise_map.T) + ens.state_map @ x
    free = np.einsum("ij,ij->i", a * om, a)
    loss_rng = seeded_stream(seed, 0, STREAM_LOSS)
    draws = 1 if gain.paid_variance.any() else 2
    delivered = [
        (loss_rng.random((samples, N * m)) < thresholds[None, :]).astype(float)
        * u_star[None, :]
        for _ in range(draws)
    ]
    first = delivered[0]
    if draws == 1:
        gram = ens.input_gram + np.diag(model.input_penalty)
        cost = np.einsum("ij,ij->i", first @ gram + 2.0 * cross, first)
    else:
        cost = np.einsum(
            "ij,ij->i", first @ ens.input_gram + cross, delivered[1]
        ) + np.einsum("ij,ij->i", first * ps + cross, first)
    return free, cost


def grid_argmax(fn, lo, hi, num=20001):
    """Dense-grid argmax of a scalar function on [lo, hi]."""
    grid = np.linspace(lo, hi, num)
    values = np.array([fn(a) for a in grid])
    k = int(np.argmax(values))
    return float(grid[k]), float(values[k])


def repeat_map_restriction(qp):
    """The QP restricted to constant schedules through the repeat map.

    R is the d x m 0/1 matrix that repeats each channel's rate over the
    horizon, z = R a; the restriction is R'HR, symmetrized, and R'c.
    """
    R = np.tile(np.eye(qp.m), (qp.horizon, 1))
    Hr = R.T @ qp.H @ R
    return 0.5 * (Hr + Hr.T), R.T @ qp.c


def slow_vertex_max(H, c, lo, hi):
    """Largest z'Hz + c'z over the box's vertices, one vertex at a time."""
    best = -np.inf
    for corner in itertools.product((False, True), repeat=len(c)):
        z = np.where(corner, hi, lo)
        best = max(best, float(z @ H @ z + c @ z))
    return best


def blockwise_vertex_max(H, c, lo, hi, rows=2 ** 16):
    """Largest z'Hz + c'z over the box's vertices, and its first index.

    Vertex j puts coordinate i at hi_i when bit i of j is set.  The
    vertices are materialized ``rows`` at a time and scored with an
    unoptimized einsum; a later block wins only on a strictly larger
    value, so the index is the first maximizer's.
    """
    d = len(c)
    best, first = -np.inf, 0
    for start in range(0, 2 ** d, rows):
        j = np.arange(start, min(start + rows, 2 ** d))
        Z = np.where((j[:, None] >> np.arange(d)) & 1, hi, lo)
        values = np.einsum("sd,de,se->s", Z, H, Z) + Z @ c
        k = int(np.argmax(values))
        if values[k] > best:
            best, first = float(values[k]), int(j[k])
    return best, first


def slow_box_max(H, c, lo, hi):
    """Largest z'Hz + c'z over the box, one lo/hi/free pattern at a time.

    Each of the 3^d patterns puts every coordinate at its lower bound, at
    its upper bound or free; the free ones solve the stationarity
    condition given the others.  Patterns with a singular free block or a
    free value outside the box are skipped.
    """
    d = len(c)
    best = -np.inf
    for pattern in itertools.product(("lo", "hi", "free"), repeat=d):
        z = np.array([hi[i] if p == "hi" else lo[i] for i, p in enumerate(pattern)])
        free = [i for i, p in enumerate(pattern) if p == "free"]
        fixed = [i for i, p in enumerate(pattern) if p != "free"]
        if free:
            rhs = c[free] + 2.0 * H[np.ix_(free, fixed)] @ z[fixed]
            try:
                z[free] = np.linalg.solve(-2.0 * H[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(z[free] < lo[free]) or np.any(z[free] > hi[free]):
                continue
        best = max(best, float(z @ H @ z + c @ z))
    return best


# the projected-gradient ascent's step rule, kept as a reference solver
ASCENT_STARTS = 32
ASCENT_ITERATIONS = 500
ASCENT_BACKTRACK = 0.5
ASCENT_TOL = 1e-8


def plain_ascent(H, c, lo, hi, Z0):
    """Monotone projected gradient ascent, batched over the rows of Z0.

    The spectral norm of H fixes the initial step.  Each step forms the
    gradient 2 Z H + c from the iterate, scores the clipped trial points
    with their own product, keeps the accepted rows and halves the step
    of the rejected ones; a row stops once its unit-step projected
    residual is below ``ASCENT_TOL`` (1 + |c|).  Returns the final points
    and their values.
    """

    def objective(Z):
        return ((Z @ H) * Z).sum(axis=1) + Z @ c

    def gradient(Z):
        return 2.0 * Z @ H + c

    Z = Z0.copy()
    vals = objective(Z)
    lipschitz = 2.0 * max(float(np.abs(np.linalg.eigvalsh(H)).max()), 1e-300)
    t = np.full(Z.shape[0], 1.0 / lipschitz)
    tol = ASCENT_TOL * (1.0 + float(np.linalg.norm(c)))
    for _ in range(ASCENT_ITERATIONS):
        G = gradient(Z)
        res = np.max(np.abs(np.clip(Z + G, lo, hi) - Z), axis=1)
        live = (res > tol) & (t > 1e-18)
        if not live.any():
            break
        trial = np.clip(Z + t[:, None] * G, lo, hi)
        tvals = objective(trial)
        accept = live & (tvals >= vals)
        Z[accept] = trial[accept]
        vals[accept] = tvals[accept]
        reject = live & ~accept
        t[reject] *= ASCENT_BACKTRACK
        t[accept] *= 1.25
    return Z, vals


def multistart_ascent_max(H, c, lo, hi, start):
    """Best value of :func:`plain_ascent` from ``ASCENT_STARTS`` starts.

    The starts are ``start``, the box's centre, then seeded draws that
    alternate between uniform interior points and random vertices.
    """
    d = c.size
    draws = np.random.default_rng(0)
    starts = [start, 0.5 * (lo + hi)]
    while len(starts) < ASCENT_STARTS:
        if len(starts) % 2:
            starts.append(lo + draws.random(d) * (hi - lo))
        else:
            starts.append(lo + draws.integers(0, 2, d) * (hi - lo))
    return float(plain_ascent(H, c, lo, hi, np.array(starts))[1].max())


def best_single_move(H, c, lo, hi, z):
    """Largest gain of z'Hz + c'z from moving one coordinate of ``z``.

    One coordinate at a time, a per-coordinate loop: the gain of the move
    by s is s (g_i + H_ii s) with g_i = 2 H_i z + c_i, tried at both bounds
    and, where H_ii < 0, at the clipped stationary point.
    """
    best = 0.0
    for i in range(c.size):
        g = 2.0 * float(H[i] @ z) + c[i]
        targets = [lo[i], hi[i]]
        if H[i, i] < 0.0:
            targets.append(min(max(z[i] - g / (2.0 * H[i, i]), lo[i]), hi[i]))
        for target in targets:
            s = target - z[i]
            best = max(best, s * (g + H[i, i] * s))
    return best


def milp_vertex_max(H, c, lo, hi):
    """Best vertex value of z'Hz + c'z over the box, by a HiGHS MILP.

    With z = lo + w b (w = hi - lo, b binary) the objective is a constant,
    a linear term in b (b_i^2 = b_i) and a term 2 H_ij w_i w_j y_ij per
    pair i < j, where y_ij = b_i b_j is linearized by y <= b_i, y <= b_j
    and y >= b_i + b_j - 1 (Fortet 1960).  HiGHS stops within an absolute
    gap of 1e-6, so the objective is scaled to about 1e8 first; the
    optimal b is then scored in floats.  Valid as the box maximum when
    diag(H) >= 0, where some maximizer is a vertex.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    d = c.size
    w = hi - lo
    linear = w * (2.0 * H @ lo + c) + np.diag(H) * w * w
    i, j = np.triu_indices(d, 1)
    pair = 2.0 * H[i, j] * w[i] * w[j]
    keep = pair != 0.0
    i, j, pair = i[keep], j[keep], pair[keep]
    p = np.arange(pair.size)
    y = d + p
    # rows: y - b_i <= 0, y - b_j <= 0, b_i + b_j - y <= 1
    rows = np.concatenate([p, p, p + pair.size, p + pair.size,
                           p + 2 * pair.size, p + 2 * pair.size,
                           p + 2 * pair.size])
    cols = np.concatenate([y, i, y, j, i, j, y])
    vals = np.concatenate([np.ones(pair.size), -np.ones(pair.size)] * 2
                          + [np.ones(pair.size)] * 2 + [-np.ones(pair.size)])
    A = coo_array((vals, (rows, cols)), shape=(3 * pair.size, d + pair.size))
    upper = np.concatenate([np.zeros(2 * pair.size), np.ones(pair.size)])
    cost = -np.concatenate([linear, pair])
    scale = 1e8 / max(1.0, float(np.abs(cost).sum()))
    result = milp(
        scale * cost,
        integrality=np.concatenate([np.ones(d), np.zeros(pair.size)]),
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(A.tocsr(), -np.inf, upper),
        options={"mip_rel_gap": 0.0},
    )
    assert result.success, result.message
    z = lo + w * np.round(result.x[:d])
    return float(z @ (H @ z) + c @ z)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


# ------------------------------------------------------- acceptance ledger

ACCEPTANCE_RESULTS = {}


def record_criterion(number, passed, detail):
    """Register one acceptance verdict for the end-of-run summary."""
    ACCEPTANCE_RESULTS[number] = (bool(passed), str(detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {verdict} - {detail}")
