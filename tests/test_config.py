"""JSON experiment schema: parsing, tiling, and collective validation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from dropattack import (
    ConfigError,
    EpisodeConfig,
    Protocol,
    load_experiment,
    parse_experiment,
)


def base_doc():
    return {
        "system": {
            "A": [[1.03, 0.005], [0.35, 0.5]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "Sigma_W": [0.01, 0.01],
            "Sigma_X": [0.01, 0.01],
            "X_bar": [1.0, 1.0],
            "Q_diag": [1.0, 1.0],
            "Omega_diag": [1.0, 1.0],
            "Psi_diag": [1.0, 1.0],
            "N": 5,
        },
        "channel": {"M_diag": [0.7, 0.7], "L_diag": [0.1, 0.1]},
        "protocol": "udp",
        "attack": {"kind": "iid", "alpha": 0.6, "onset": 0},
        "simulation": {"T": 50, "R": 200, "seed": 11},
    }


def test_round_trip():
    exp = parse_experiment(base_doc())
    assert exp.model.n == 2 and exp.model.m == 2
    assert exp.model.horizon == 5
    assert exp.protocol is Protocol.UDP_LIKE
    assert exp.plan.kind == "iid" and exp.plan.alpha == 0.6
    assert exp.T == 50 and exp.realizations == 200 and exp.seed == 11
    np.testing.assert_allclose(exp.channel.mean_diag, [0.7, 0.7])
    np.testing.assert_allclose(exp.detection.tol_diag, [0.1, 0.1])
    # single-step weight diagonals are tiled across the horizon
    assert exp.model.Q.shape == (2,)
    assert exp.model.state_penalty.shape == (10,)
    assert exp.model.input_penalty.shape == (10,)
    np.testing.assert_allclose(exp.model.state_penalty, 1.0)

    # the experiment is the episode it runs
    assert isinstance(exp, EpisodeConfig)
    assert not exp.sample_x0 and not exp.zero_input
    cfg = replace(exp, T=7)
    assert cfg.T == 7 and cfg.seed == 11 and cfg.realizations == 200


def test_full_length_weights_pass_through():
    doc = base_doc()
    doc["system"]["Omega_diag"] = list(np.arange(1.0, 11.0))
    doc["system"]["Psi_diag"] = list(np.arange(1.0, 11.0) / 10.0)
    exp = parse_experiment(doc)
    np.testing.assert_allclose(
        exp.model.state_penalty, np.arange(1.0, 11.0)
    )
    np.testing.assert_allclose(
        exp.model.input_penalty, np.arange(1.0, 11.0) / 10.0
    )


def test_covariance_matrix_or_diagonal():
    doc = base_doc()
    doc["system"]["Sigma_W"] = [[0.02, 0.005], [0.005, 0.02]]
    exp = parse_experiment(doc)
    np.testing.assert_allclose(
        exp.model.noise_cov, [[0.02, 0.005], [0.005, 0.02]]
    )


def test_underscore_keys_are_comments():
    doc = base_doc()
    doc["_comment"] = "top-level note"
    doc["system"]["_units"] = "whatever"
    doc["attack"]["_why"] = ["free", "text"]
    exp = parse_experiment(doc)
    assert exp.plan.alpha == 0.6


def test_attack_section_optional():
    doc = base_doc()
    del doc["attack"]
    exp = parse_experiment(doc)
    assert exp.plan.kind == "none"


def test_unknown_keys_flagged():
    doc = base_doc()
    doc["system"]["Aa"] = [[1.0]]
    doc["extra"] = {}
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    text = str(err.value)
    assert "Aa" in text and "extra" in text


def test_problems_are_collected():
    doc = base_doc()
    doc["system"]["N"] = 0
    doc["channel"]["M_diag"] = [0.7]  # length mismatch
    doc["protocol"] = "carrier-pigeon"
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert len(err.value.problems) >= 3


def test_negative_seed_rejected():
    doc = base_doc()
    doc["simulation"]["seed"] = -3
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert err.value.problems == ["simulation.seed: must be >= 0"]


def test_attack_onset_must_be_integer():
    # a fractional onset never equals a step index: the attack would
    # silently never start
    for onset, problem in (
        (2.5, "attack.onset: must be an integer"),
        (3.0, "attack.onset: must be an integer"),
        (True, "attack.onset: must be an integer"),
        (-1, "attack.onset: must be >= 0"),
    ):
        doc = base_doc()
        doc["attack"] = {"kind": "nonstat", "onset": onset}
        with pytest.raises(ConfigError) as err:
            parse_experiment(doc)
        assert err.value.problems == [problem]
    doc["attack"]["onset"] = 7
    assert parse_experiment(doc).plan.onset == 7


def test_attack_onset_must_not_exceed_T():
    # listed with the other problems, so every subcommand rejects it
    doc = base_doc()
    doc["attack"] = {"kind": "iid", "onset": 60, "alpha": 1.5}
    doc["simulation"]["T"] = 50
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert "attack.onset: must be <= simulation.T" in err.value.problems
    assert len(err.value.problems) == 2  # the bad alpha is listed too
    doc["attack"] = {"kind": "iid", "onset": 50}
    assert parse_experiment(doc).plan.onset == 50


def test_attack_resynthesize_must_be_boolean():
    for value in ("no", "false", 0, 1, None):
        doc = base_doc()
        doc["attack"] = {"kind": "nonstat", "resynthesize": value}
        with pytest.raises(ConfigError) as err:
            parse_experiment(doc)
        assert err.value.problems == ["attack.resynthesize: must be true or false"]
    for value in (True, False):
        doc["attack"]["resynthesize"] = value
        assert parse_experiment(doc).plan.resynthesize is value


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("iid", "alpha", True), ("iid", "alpha", "0.6"), ("iid", "alpha", [0.6]),
        ("iid", "means", [True, 0.5]), ("iid", "means", [None, 0.5]),
        ("nonstat", "schedule", [[0.5, "0.5"]]),
        ("nonstat", "alpha", False),  # another kind's key is checked too
    ],
)
def test_attack_rates_must_be_numbers(kind, key, value):
    # bools and strings would otherwise pass through float() as rates
    doc = base_doc()
    doc["attack"] = {"kind": kind, "onset": 2.5, key: value}
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    problem = "must be a number" if key == "alpha" else "every entry must be a number"
    assert err.value.problems == [
        "attack.onset: must be an integer", f"attack.{key}: {problem}",
    ]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("system", "A", [[1.03, 0.005], [0.35, False]]),
        ("system", "A", [["1.03", 0.005], [0.35, 0.5]]),
        ("system", "B", [[True, 0.0], [0.0, 1.0]]),
        ("system", "B", [[1.0, 0.0], [0.0, "1"]]),
        ("system", "Sigma_W", [[0.01, False], [0.0, 0.01]]),
        ("system", "Sigma_W", [["0.01", 0.0], [0.0, 0.01]]),
        ("system", "Sigma_W", [True, 0.01]),
        ("system", "Sigma_W", [0.01, "0.01"]),
        ("system", "Sigma_X", [0.01, True]),
        ("system", "Sigma_X", ["0.01", 0.01]),
        ("system", "X_bar", [True, 1.0]),
        ("system", "X_bar", [1.0, "1"]),
        ("system", "Q_diag", [1.0, True]),
        ("system", "Q_diag", ["1", 1.0]),
        ("system", "Omega_diag", [True, 1.0]),
        ("system", "Omega_diag", [1.0, "1.0"]),
        ("system", "Psi_diag", [1.0, False]),
        ("system", "Psi_diag", ["1.0", 1.0]),
        ("channel", "M_diag", [0.7, True]),
        ("channel", "M_diag", ["0.7", 0.7]),
        ("channel", "L_diag", [True, 0.1]),
        ("channel", "L_diag", [0.1, "0.1"]),
    ],
)
def test_system_and_channel_entries_must_be_numbers(section, key, value):
    # bools and numeric strings would otherwise pass through float()
    doc = base_doc()
    doc[section][key] = value
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert err.value.problems == [f"{section}.{key}: every entry must be a number"]


def test_ragged_matrix_is_listed():
    doc = base_doc()
    doc["system"]["A"] = [[1.03, 0.005], [0.35]]
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert err.value.problems == ["system.A: rows must all have one length"]


def test_system_and_channel_entries_may_be_integers():
    doc = base_doc()
    doc["system"]["A"] = [[1, 0], [0, 1]]
    doc["system"]["Sigma_W"] = [[1, 0], [0, 1]]
    doc["system"]["Q_diag"] = [1, 2]
    doc["channel"]["L_diag"] = [0, 0]
    exp = parse_experiment(doc)
    assert exp.model.A.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert exp.model.noise_cov.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert exp.detection.tol_diag.tolist() == [0.0, 0.0]


def test_attack_rates_may_be_integers():
    doc = base_doc()
    doc["attack"] = {"kind": "iid", "alpha": 1}
    assert parse_experiment(doc).plan.alpha == 1
    doc["attack"] = {"kind": "nonstat", "means": [1, 0], "schedule": [[0, 1]]}
    assert parse_experiment(doc).plan.schedule.tolist() == [[0.0, 1.0]]


def test_attack_column_counts_checked():
    doc = base_doc()
    doc["attack"] = {"kind": "iid", "means": [0.5, 0.5, 0.5]}
    with pytest.raises(ConfigError):
        parse_experiment(doc)
    doc["attack"] = {"kind": "nonstat", "schedule": [[0.5], [0.6]]}
    with pytest.raises(ConfigError):
        parse_experiment(doc)
    doc["attack"] = {"kind": "nonstat", "schedule": [[0.5, 0.5], [0.6, 0.6]]}
    exp = parse_experiment(doc)
    assert exp.plan.schedule.shape == (2, 2)


@pytest.mark.parametrize(
    "attack, channel, problems",
    [
        (
            {"kind": "iid", "means": [0.5, 0.5, 0.5], "schedule": [[0.5]]},
            {},
            [
                "attack.means: expected length 2, got 3",
                "attack.schedule: expected 2 columns, got 1",
            ],
        ),
        (
            {"kind": "iid", "means": [0.5, 0.5, 0.5]},
            {"M_diag": [0.7, 1.5]},
            [
                "channel.M_diag: channel means must lie in [0, 1)",
                "attack.means: expected length 2, got 3",
            ],
        ),
    ],
    ids=["means-and-schedule", "means-and-M_diag"],
)
def test_attack_sizes_listed_with_other_problems(attack, channel, problems):
    doc = base_doc()
    doc["attack"] = attack
    doc["channel"].update(channel)
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert err.value.problems == problems


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("A", [[1.03, 0.005, 0.0], [0.35, 0.5, 0.0]], "system.A: must be square"),
        ("B", [[1.0, 0.0]], "system.B: row count 1 does not match state size 2"),
        ("X_bar", [1.0], "system.X_bar: expected length 2, got 1"),
        ("Q_diag", [1.0, 1.0, 1.0], "system.Q_diag: expected length 2, got 3"),
        ("Sigma_W", [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0]],
         "system.Sigma_W: must be square"),
        ("Sigma_W", [0.01, 0.01, 0.01], "system.Sigma_W: expected size 2, got 3"),
        ("Omega_diag", [1.0, 1.0, 1.0],
         "system.Omega_diag: expected length 2 or 10, got 3"),
        ("A", json.loads("[[NaN, 0.005], [0.35, 0.5]]"),
         "system.A: must be a finite non-empty matrix"),
        ("Sigma_W", [[0.01, 0.005], [0.0, 0.01]],
         "system: noise_cov must be symmetric"),
        ("Sigma_W", [[0.01, 0.0], [0.0, -0.01]],
         "system: noise_cov must be positive definite"),
    ],
    ids=[
        "A-not-square", "B-rows", "X_bar-length", "Q_diag-length",
        "Sigma_W-not-square", "Sigma_W-size", "Omega_diag-length", "A-nan",
        "Sigma_W-asymmetric", "Sigma_W-indefinite",
    ],
)
def test_system_shapes_are_checked(key, value, problem):
    doc = base_doc()
    doc["system"][key] = value
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert err.value.problems == [problem]


def test_load_experiment_io_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(base_doc()))
    exp = load_experiment(good)
    assert exp.realizations == 200


def test_undecodable_config_is_a_read_error(tmp_path):
    # a UTF-16 file with its byte-order mark is not UTF-8: a read error,
    # which the CLI reports with exit 2, not a UnicodeDecodeError
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps(base_doc()).encode("utf-16-le"))
    with pytest.raises(ConfigError, match="^cannot read config: "):
        load_experiment(bad)
