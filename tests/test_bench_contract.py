"""Names the benchmark in ``bench/`` resolves in the package.

The benchmark is kept fixed while the package changes, so these names must
survive refactors.  Its output checks call the package-level names below.
Its tracer wraps the plain functions each module defines and lists in its
``__all__``, then looks the traced layers up as ``module.name``: a missing
one raises KeyError in ``bench/run.py --trace 1`` runs.
"""

import importlib
import inspect
import types

import dropattack

PACKAGE_NAMES = (
    "Protocol",
    "attack_context",
    "build_prediction_ensemble",
    "build_qp_tcp",
    "build_qp_udp",
    "control_gain",
    "load_experiment",
    "schedule_objective",
)

TRACED_MODULES = (
    "model", "controller", "channel", "attack_iid", "attack_qp",
    "costs", "simulate", "config", "cli",
)

# traced function -> its first positional parameter, which the tracer
# reads to label spans (None: no label)
TRACED = {
    "attack_iid.attack_context": None,
    "attack_iid.optimal_alpha_tcp": None,
    "attack_iid.optimal_alpha_udp": None,
    "attack_qp.solve_box_qp_max": "qp",
    "attack_qp.solve_iid_constrained": None,
    "channel.in_safe_region": None,
    "channel.philox_stream": None,
    "channel.update_monitor": None,
    "cli.main": None,
    "config.load_experiment": None,
    "controller.control_gain": "ens",
    "model.build_prediction_ensemble": None,
    "simulate.empirical_increase": "ens",
    "simulate.resolve_attack": None,
    "simulate.run_episode": "cfg",
}


def test_package_names_exist():
    missing = [name for name in PACKAGE_NAMES if not hasattr(dropattack, name)]
    assert not missing, missing


def test_traced_names_are_public_functions_of_their_module():
    for short in TRACED_MODULES:
        module = importlib.import_module(f"dropattack.{short}")
        assert all(hasattr(module, name) for name in module.__all__), short
    for qualname, first in TRACED.items():
        short, name = qualname.split(".")
        module = importlib.import_module(f"dropattack.{short}")
        fn = getattr(module, name, None)
        assert isinstance(fn, types.FunctionType), qualname
        assert fn.__module__ == module.__name__, qualname
        assert name in module.__all__, qualname
        if first is not None:
            assert next(iter(inspect.signature(fn).parameters)) == first, qualname


def test_traced_results_and_size_arguments():
    # the tracer counts the winner of each schedule solve, and sizes an
    # empirical_increase span from its gain and sample-count arguments
    assert "winner" in dropattack.AttackSchedule.__dataclass_fields__
    params = list(inspect.signature(dropattack.empirical_increase).parameters)
    assert params[2] == "gain" and params[5] == "samples"
