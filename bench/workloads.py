"""Seeded experiment families and the CLI operations of each workload.

Every workload is a list of operations, each one ``dropattack`` CLI call
(an argv list) on a generated experiment file.  The benchmark runs the
list in whole cycles, so the mix of input sizes in a run does not depend
on how many operations fit in the time budget.  Only the standard library
is used here, so config generation costs the same on every commit.
"""

import json
import os
import random

# The README / demo plant: two states, one or two actuator channels.
PLANT_A = [[1.03, 0.005], [0.35, 0.5]]
DEMO_CONFIGS = ("scalar_udp.json", "two_channel_schedule.json")

# R, S, onsets and family sizes: one operation takes about 5-250 ms on one
# core, a 25 s run repeats every config about twenty times or more (the
# benchmark keeps each config's fastest repeat), and families are large
# enough that seed-to-seed differences between instances average out.
FULL = {
    "compare_realizations": 24,
    "compare_seeds": 2,
    "synth_variants": 5,
    "receding_variants": 8,
    "receding_realizations": 1,
    "receding_onset": 35,
    "horizon_variants": (3, 1),  # per HORIZON_SHAPES entry
    "horizon_samples": 4000,
}
# Tiny sizes for the self-test: every path runs, nothing is timed.
QUICK = {
    "compare_realizations": 2,
    "compare_seeds": 1,
    "synth_variants": 1,
    "receding_variants": 1,
    "receding_realizations": 1,
    "receding_onset": 45,
    "horizon_variants": (1, 1),
    "horizon_samples": 200,
}

# (N, m) shapes, d = N * m: m = 1 at d = 5, m = 2 elsewhere.
SYNTH_SHAPES = ((5, 1), (8, 2), (10, 2), (20, 2), (80, 2))
# Three d = 10 configs per d = 160 one, so the latency median falls inside
# the d = 10 group and the p90 inside the d = 160 group rather than on the
# gap between them.
HORIZON_SHAPES = ((5, 2), (80, 2))


def _plant(rng, m, horizon, perturb=0.02):
    a = [[v + rng.uniform(-perturb, perturb) for v in row] for row in PLANT_A]
    b = [[1.0], [1.0]] if m == 1 else [[1.0, 0.0], [0.0, 1.0]]
    return {
        "A": a,
        "B": b,
        "Sigma_W": [0.01, 0.01],
        "Sigma_X": [0.01, 0.01],
        "X_bar": [1.0, 1.0],
        "Q_diag": [1.0, 1.0],
        "Omega_diag": [1.0, 1.0],
        "Psi_diag": [1.0] * m,
        "N": horizon,
    }


def _channel(rng, m):
    """Nominal rates and band half-widths whose bands share a common rate.

    The overlap keeps the scalar (single shared rate) synthesis path live
    on every generated experiment.
    """
    while True:
        rates = [rng.uniform(0.55, 0.9) for _ in range(m)]
        widths = [rng.uniform(0.05, 0.2) for _ in range(m)]
        lo = max(r - w for r, w in zip(rates, widths))
        hi = min(r + w for r, w in zip(rates, widths))
        if hi - lo >= 0.02:
            return {"M_diag": rates, "L_diag": widths}


def _experiment(rng, m, horizon, protocol, attack, T=50, R=1):
    return {
        "system": _plant(rng, m, horizon),
        "channel": _channel(rng, m),
        "protocol": protocol,
        "attack": attack,
        "simulation": {"T": T, "R": R, "seed": rng.randrange(1, 2**31)},
    }


def _write(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)


def build(workload, seed, workdir, root, sizes):
    """Write the workload's experiment files; return its operations.

    Each operation is a dict with the CLI ``argv``, the output directory,
    its ``kind`` (the subcommand) and ``work``, the units of work it does
    (realization-steps, synthesize calls or horizon samples).
    """
    rng = random.Random(f"{workload}:{seed}")
    cfgdir = os.path.join(workdir, "configs")
    os.makedirs(cfgdir, exist_ok=True)
    docs = []  # (name, doc, subcommand, extra argv, work)

    if workload == "mc-compare":
        R = sizes["compare_realizations"]
        extra = ["--attacks", "none,iid,nonstat", "--realizations", str(R)]
        for variant in range(sizes["compare_seeds"]):
            for name in DEMO_CONFIGS:
                with open(os.path.join(root, "demos", "configs", name)) as handle:
                    doc = json.load(handle)
                # only the random streams change; plant, attack and T stay
                doc["simulation"]["seed"] = rng.randrange(1, 2**31)
                work = R * doc["simulation"]["T"] * 3  # three attack arms
                docs.append((f"{name[:-5]}-{variant}", doc, "compare", extra, work))
    elif workload == "synth-sweep":
        for variant in range(sizes["synth_variants"]):
            for horizon, m in SYNTH_SHAPES:
                for protocol in ("udp", "tcp"):
                    doc = _experiment(
                        rng, m, horizon, protocol, {"kind": "nonstat"}
                    )
                    name = f"d{horizon * m}-{protocol}-{variant}"
                    docs.append((name, doc, "synthesize", [], 1))
    elif workload == "receding-attack":
        R = sizes["receding_realizations"]
        onset = sizes["receding_onset"]
        attack = {"kind": "nonstat", "onset": onset, "resynthesize": True}
        for variant in range(sizes["receding_variants"]):
            for protocol in ("udp", "tcp"):
                doc = _experiment(rng, 2, 5, protocol, attack, T=50, R=R)
                name = f"d10-{protocol}-{variant}"
                extra = ["--realizations", str(R)]
                docs.append((name, doc, "simulate", extra, R * 50))
    elif workload == "horizon-check":
        S = sizes["horizon_samples"]
        for (horizon, m), variants in zip(HORIZON_SHAPES, sizes["horizon_variants"]):
            for variant in range(variants):
                for protocol in ("udp", "tcp"):
                    doc = _experiment(
                        rng, m, horizon, protocol, {"kind": "none"}
                    )
                    name = f"d{horizon * m}-{protocol}-{variant}"
                    # two paired rollouts: stationary optimum and schedule
                    docs.append(
                        (name, doc, "analyze", ["--empirical", str(S)], 2 * S)
                    )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    ops = []
    for name, doc, command, extra, work in docs:
        path = os.path.join(cfgdir, name + ".json")
        _write(path, doc)
        out = os.path.join(workdir, "out", name)
        os.makedirs(out, exist_ok=True)
        ops.append({
            "name": name,
            "kind": command,
            "config": path,
            "out": out,
            "argv": [command, "--config", path, "--out", out] + extra,
            "work": work,
        })
    return ops
