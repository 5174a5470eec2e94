"""Experiment configuration: one JSON document describes a full run.

Schema (keys beginning with "_" are comments and ignored at every level):

    {
      "system": {
        "A": [[...]],            n x n state matrix
        "B": [[...]],            n x m input matrix
        "Sigma_W": [[...]],      n x n process-noise covariance (or diag vector)
        "Sigma_X": [[...]],      n x n initial-state covariance (or diag vector)
        "X_bar": [...],          length-n initial mean
        "Q_diag": [...],         length-n current-state weight diagonal
        "Omega_diag": [...],     predicted-state weight diagonal, length n or N*n
        "Psi_diag": [...],       input weight diagonal, length m or N*m
        "N": 5                   prediction horizon
      },
      "channel":  {"M_diag": [...], "L_diag": [...]},
      "protocol": "udp" | "tcp",
      "attack":   {"kind": "none" | "iid" | "nonstat", "onset": 0,
                   "alpha": 0.4, "means": [...], "schedule": [[...]],
                   "state_mode": "onset" | "mean", "resynthesize": false},
      "simulation": {"T": 50, "R": 1000, "seed": 0}
    }

In "attack", "alpha" with "means", "schedule" with "resynthesize", and
"resynthesize" with "state_mode": "mean" exclude each other, whatever the
kind.

The weights are diagonal, and the model keeps them as the vectors given
(:class:`~dropattack.model.SystemModel`): "Q_diag" as is, and the per-step
diagonals "Omega_diag" and "Psi_diag" tiled across the horizon when given
for a single step (length n or m), or as is when given in full (length N*n
or N*m).  Covariances may be given as full matrices or as diagonal vectors.
"Sigma_X" is required and validated, but only an episode with
``sample_x0=True`` reads it; no subcommand sets that, so no report depends
on it.  The "attack" section is optional and defaults to no attack.
Validation is collective: every problem found is reported in one
ConfigError.  The parsed experiment is itself the
:class:`~dropattack.simulate.EpisodeConfig` it runs, plus its realization
count.
"""

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelSpec, DetectionSpec
from .controller import Protocol
from .errors import ConfigError, DimensionError
from .model import SystemModel
from .simulate import AttackPlan, EpisodeConfig

__all__ = ["ExperimentConfig", "parse_experiment", "load_experiment"]

_SECTIONS = ("system", "channel", "protocol", "attack", "simulation")
_SYSTEM_KEYS = (
    "A", "B", "Sigma_W", "Sigma_X", "X_bar",
    "Q_diag", "Omega_diag", "Psi_diag", "N",
)
_CHANNEL_KEYS = ("M_diag", "L_diag")
_ATTACK_KEYS = tuple(plan_field.name for plan_field in fields(AttackPlan))
_SIMULATION_KEYS = ("T", "R", "seed")


@dataclass(frozen=True, eq=False)
class ExperimentConfig(EpisodeConfig):
    """Validated experiment: the episode it runs, and how many times."""

    realizations: int = field(kw_only=True)


def _strip_private(obj):
    if isinstance(obj, dict):
        return {
            key: _strip_private(value)
            for key, value in obj.items()
            if not key.startswith("_")
        }
    return obj


def _check_keys(section: dict, allowed, where: str, problems: list):
    for key in section:
        if key not in allowed:
            problems.append(f"{where}: unknown key '{key}'")


def _as_array(value, name: str, problems: list, ndim):
    """A finite non-empty float array with ``ndim`` (an int or a tuple of
    ints) dimensions, or None with the problem listed."""
    if not _all_numbers(value):
        problems.append(f"{name}: every entry must be a number")
        return None
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:  # ragged nested lists
        problems.append(f"{name}: rows must all have one length")
        return None
    if arr.ndim not in np.atleast_1d(ndim) or arr.size == 0 \
            or not np.all(np.isfinite(arr)):
        kind = {1: "vector", 2: "matrix"}.get(ndim, "matrix or diagonal vector")
        problems.append(f"{name}: must be a finite non-empty {kind}")
        return None
    return arr


def _as_int(value, name: str, problems: list, minimum: int):
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{name}: must be an integer")
        return None
    if value < minimum:
        problems.append(f"{name}: must be >= {minimum}")
        return None
    return value


def _is_number(value) -> bool:
    """A JSON number: an int or a float, never a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_numbers(value) -> bool:
    """Whether every entry of ``value``, a number or nested lists, is one."""
    if isinstance(value, list):
        return all(_all_numbers(entry) for entry in value)
    return _is_number(value)


def _covariance(value, name: str, size, problems: list):
    """Accept an n x n matrix or a length-n diagonal vector."""
    arr = _as_array(value, name, problems, ndim=(1, 2))
    if arr is None:
        return None
    if arr.ndim == 1:
        arr = np.diag(arr)
    if arr.shape[0] != arr.shape[1]:
        problems.append(f"{name}: must be square")
        return None
    if size is not None and arr.shape[0] != size:
        problems.append(f"{name}: expected size {size}, got {arr.shape[0]}")
        return None
    return arr


def _tiled_diagonal(value, name: str, per_step, horizon, problems: list):
    vec = _as_array(value, name, problems, ndim=1)
    if vec is None or per_step is None or horizon is None:
        return None
    if vec.size == per_step:
        vec = np.tile(vec, horizon)
    if vec.size != per_step * horizon:
        problems.append(
            f"{name}: expected length {per_step} or {per_step * horizon}, "
            f"got {vec.size}"
        )
        return None
    return vec


def parse_experiment(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the experiment objects."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: must be a JSON object"])
    data = _strip_private(data)
    problems: list[str] = []
    _check_keys(data, _SECTIONS, "top level", problems)
    missing = False
    for section in ("system", "channel", "protocol", "simulation"):
        if section not in data:
            problems.append(f"top level: missing required section '{section}'")
            missing = True
    if missing:
        # nothing below can be parsed; unknown-key notes ride along
        raise ConfigError(problems)

    sys_raw = data["system"]
    chan_raw = data["channel"]
    sim_raw = data["simulation"]
    attack_raw = data.get("attack", {"kind": "none"})
    for raw, keys, where in (
        (sys_raw, _SYSTEM_KEYS, "system"),
        (chan_raw, _CHANNEL_KEYS, "channel"),
        (attack_raw, _ATTACK_KEYS, "attack"),
        (sim_raw, _SIMULATION_KEYS, "simulation"),
    ):
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            raise ConfigError(problems)
        _check_keys(raw, keys, where, problems)
    for key in _SYSTEM_KEYS:
        if key not in sys_raw:
            problems.append(f"system: missing key '{key}'")
    for key in _CHANNEL_KEYS:
        if key not in chan_raw:
            problems.append(f"channel: missing key '{key}'")
    if problems:
        raise ConfigError(problems)

    A = _as_array(sys_raw["A"], "system.A", problems, ndim=2)
    B = _as_array(sys_raw["B"], "system.B", problems, ndim=2)
    n = A.shape[0] if A is not None else None
    m = B.shape[1] if B is not None else None
    if A is not None and A.shape[0] != A.shape[1]:
        problems.append("system.A: must be square")
        n = None
    if A is not None and B is not None and n is not None \
            and B.shape[0] != A.shape[0]:
        problems.append(
            f"system.B: row count {B.shape[0]} does not match state size {n}"
        )
    horizon = _as_int(sys_raw["N"], "system.N", problems, minimum=1)

    x_bar = _as_array(sys_raw["X_bar"], "system.X_bar", problems, ndim=1)
    if x_bar is not None and n is not None and x_bar.size != n:
        problems.append(f"system.X_bar: expected length {n}, got {x_bar.size}")
    sigma_w = _covariance(sys_raw["Sigma_W"], "system.Sigma_W", n, problems)
    sigma_x = _covariance(sys_raw["Sigma_X"], "system.Sigma_X", n, problems)
    q_diag = _as_array(sys_raw["Q_diag"], "system.Q_diag", problems, ndim=1)
    if q_diag is not None and n is not None and q_diag.size != n:
        problems.append(f"system.Q_diag: expected length {n}, got {q_diag.size}")
    omega = _tiled_diagonal(
        sys_raw["Omega_diag"], "system.Omega_diag", n, horizon, problems
    )
    psi = _tiled_diagonal(
        sys_raw["Psi_diag"], "system.Psi_diag", m, horizon, problems
    )

    try:
        protocol = Protocol.parse(data["protocol"])
    except (ValueError, TypeError) as exc:
        problems.append(f"protocol: {exc}")
        protocol = None

    T = _as_int(sim_raw.get("T", 50), "simulation.T", problems, minimum=1)
    R = _as_int(sim_raw.get("R", 1), "simulation.R", problems, minimum=1)
    seed = _as_int(sim_raw.get("seed", 0), "simulation.seed", problems, minimum=0)

    kind = attack_raw.get("kind", "none")
    onset = _as_int(attack_raw.get("onset", 0), "attack.onset", problems, minimum=0)
    if onset is not None and T is not None and onset > T:
        problems.append("attack.onset: must be <= simulation.T")
    resynthesize = attack_raw.get("resynthesize", False)
    if not isinstance(resynthesize, bool):
        problems.append("attack.resynthesize: must be true or false")
    rates = {}
    for key, problem, check in (
        ("alpha", "must be a number", _is_number),
        ("means", "every entry must be a number", _all_numbers),
        ("schedule", "every entry must be a number", _all_numbers),
    ):
        rates[key] = attack_raw.get(key)
        if rates[key] is not None and not check(rates[key]):
            problems.append(f"attack.{key}: {problem}")
            rates[key] = None
    plan = None
    try:
        # a bad onset, resynthesize or rate is already listed; stand-ins
        # keep the remaining attack keys checked
        plan = AttackPlan(
            kind=kind,
            onset=0 if onset is None else onset,
            **rates,
            state_mode=attack_raw.get("state_mode", "onset"),
            resynthesize=resynthesize is True,
        )
    except Exception as exc:
        problems.append(f"attack: {exc}")

    # every size that m fixes: the channel vectors and a fixed attack
    specs = {}
    for name, spec in (("M_diag", ChannelSpec), ("L_diag", DetectionSpec)):
        vec = _as_array(chan_raw[name], f"channel.{name}", problems, ndim=1)
        if vec is None:
            continue
        if m is not None and vec.size != m:
            problems.append(
                f"channel.{name}: expected length {m}, got {vec.size}"
            )
        try:
            specs[name] = spec(vec)
        except DimensionError as exc:
            problems.append(f"channel.{name}: {exc}")
    if plan is not None and m is not None:
        if plan.means is not None and plan.means.size != m:
            problems.append(
                f"attack.means: expected length {m}, got {plan.means.size}"
            )
        if plan.schedule is not None and plan.schedule.shape[1] != m:
            problems.append(
                f"attack.schedule: expected {m} columns, "
                f"got {plan.schedule.shape[1]}"
            )
    if problems:
        raise ConfigError(problems)

    try:
        model = SystemModel(
            A=A,
            B=B,
            Q=q_diag,
            state_penalty=omega,
            input_penalty=psi,
            noise_cov=sigma_w,
            init_cov=sigma_x,
            init_mean=x_bar,
            horizon=horizon,
        )
    except Exception as exc:
        problems.append(f"system: {exc}")
    if problems:
        raise ConfigError(problems)

    return ExperimentConfig(
        model=model,
        channel=specs["M_diag"],
        detection=specs["L_diag"],
        protocol=protocol,
        plan=plan,
        T=T,
        realizations=R,
        seed=seed,
    )


def load_experiment(path) -> ExperimentConfig:
    """Read and validate a JSON experiment file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    return parse_experiment(data)
