"""The package's public names."""

import importlib
import os
import subprocess
import sys

import dropattack

# the library modules, in the package's import order; the CLI is not one
MODULES = (
    "attack_iid", "attack_qp", "channel", "config", "controller", "costs",
    "errors", "model", "simulate",
)


def test_every_exported_name_resolves():
    missing = [name for name in dropattack.__all__ if not hasattr(dropattack, name)]
    assert not missing, missing
    assert len(set(dropattack.__all__)) == len(dropattack.__all__)


def test_package_exports_exactly_the_modules_names():
    # each public name is declared once, in its module's __all__
    modules = [importlib.import_module(f"dropattack.{name}") for name in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert dropattack.__all__ == declared
    assert len(set(declared)) == len(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(dropattack, name) is getattr(module, name), name


def test_library_import_leaves_the_cli_out():
    # the parser and report writers load only with the command line
    code = "import sys, dropattack; print('dropattack.cli' in sys.modules)"
    src = os.path.dirname(os.path.dirname(dropattack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert result.stdout.strip() == "False"
