"""What scripts rely on: every script in demos/ runs to completion against
src/, and the package root exports exactly the names scripts import from it.
Also where the package's input checks and shared closed forms live, read
from its source.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singlet_lhv

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "singlet_lhv"
TREES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


# The names the demos, the tests and the cli import from the package root.
ROOT_EXPORTS = sorted([
    "BELL_CRITICAL_EFFICIENCY", "CHSH_CRITICAL_EFFICIENCY", "ChshAngles",
    "DegeneratePoint", "DetectorSide", "DomainError", "EmptyTally",
    "FULL_EFFICIENCY_MAX_VISIBILITY", "FULL_VISIBILITY_MAX_EFFICIENCY",
    "HiddenVariable", "InfeasibleParameters", "InvalidConfig", "ModelParams",
    "Outcome", "PatternKind", "RunConfig", "STANDARD_CHSH_ANGLES",
    "SingletLhvError", "Tally", "__version__", "bell_generalized_slack",
    "chsh_bound", "chsh_experiment", "chsh_value",
    "classify_region", "correlation", "derive_seed", "estimate",
    "is_feasible", "joint_table", "line_g", "max_visibility",
    "measure", "measure_many", "nonideal_probs", "qm_probs", "reduce_theta",
    "region_scan", "run", "solve_params", "substream", "sweep_gate",
    "tally_outcomes", "theta_sweep", "unsymmetrized_marginals", "verify_suite",
])

# Names that stay public in their modules: what perfbench reaches through
# the modules, and the result types, which the root no longer exports.
MODULE_NAMES = {
    "analytic": ["nonideal_probs", "classify_region", "ProbQuad", "RegionVerdict"],
    "cli": ["main"],
    "experiments": [
        "verify_suite", "theta_sweep", "sweep_gate", "MIN_VERIFY_PAIRS",
        "CheckResult", "ChshReport", "ChshSetting", "SweepGate", "SweepRow",
        "VerifyReport",
    ],
    "model": ["measure_many", "ModelParams", "PatternKind", "solve_params", "chsh_bound"],
    "montecarlo": [
        "run", "RunConfig", "Tally", "estimate", "tally_outcomes", "substream",
        "derive_seed", "DEFAULT_CHUNK_SIZE", "Estimates",
    ],
    "quadrature": ["outcome_probabilities", "PatternIntegral"],
}


def test_public_surface():
    assert len(ROOT_EXPORTS) == 46
    assert sorted(singlet_lhv.__all__) == ROOT_EXPORTS
    for name in ROOT_EXPORTS:
        getattr(singlet_lhv, name)
    for module, names in MODULE_NAMES.items():
        mod = importlib.import_module(f"singlet_lhv.{module}")
        for name in names:
            assert hasattr(mod, name), f"singlet_lhv.{module}.{name}"
    integral = singlet_lhv.quadrature.PatternIntegral
    assert callable(integral.prob_quad) and callable(integral.total)
    assert not hasattr(integral, "joint") and not hasattr(integral, "marginal")
    for module, name in [
        ("analytic", "marginal_prob"),
        ("model", "boundary"),
        ("montecarlo", "sample_lambda"),
        ("montecarlo", "independence_check"),
        ("montecarlo", "IndependenceReport"),
    ]:
        assert not hasattr(importlib.import_module(f"singlet_lhv.{module}"), name)
        assert not hasattr(singlet_lhv, name)
    assert not hasattr(singlet_lhv.Outcome, "numeric")
    assert not hasattr(singlet_lhv.PatternKind, "is_sinusoidal")


# The one module that defines each input check.
CHECK_HOMES = {
    "_check_int": "errors", "_check_real": "errors", "_check_unit": "errors",
    "_check_type": "errors", "_check_setting": "errors",
}


def _definitions(name):
    """(module, node) for every function the package defines under name."""
    return [
        (module, node) for module, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def test_each_input_check_has_one_home():
    for name, home in CHECK_HOMES.items():
        assert [module for module, _ in _definitions(name)] == [home], name
    # The checks _check_real and _check_type replaced are gone, and so is
    # analytic's theta check, which _check_setting now is.
    for name in ("_check_finite", "_check_angle", "_check_params", "_check_side", "_check_theta"):
        assert _definitions(name) == [], name
    # The oracle shares no code with the sampler, and no module reaches
    # into the sampler's private names.
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names]
                if module == "quadrature":
                    assert "montecarlo" not in (node.module, *names)
                if node.module == "montecarlo":
                    assert not [n for n in names if n.startswith("_")], module


def test_one_slice_kernel_serves_every_kind():
    # The unsymmetrized kind is a station geometry, not a kernel of its own.
    assert [module for module, _ in _definitions("_measure_slice")] == ["model"]
    for name in ("_symmetrized", "_unsymmetrized"):
        assert _definitions(name) == [], name


# The one module that defines each closed form more than one caller needs:
# the bound 4/eta - 2 sits in model, below analytic, so that the feasibility
# rule can use it too.
RULE_HOMES = {"chsh_bound": "model", "chsh_s": "analytic", "_coincidence_cells": "analytic"}


def test_each_closed_form_has_one_home():
    for name, home in RULE_HOMES.items():
        assert [module for module, _ in _definitions(name)] == [home], name
    assert singlet_lhv.analytic.chsh_bound is singlet_lhv.model.chsh_bound
    assert singlet_lhv.chsh_bound is singlet_lhv.model.chsh_bound
    assert sum(path.read_text().count("4.0 / eta") for path in PACKAGE.glob("*.py")) == 1
    # joint_table takes its cells from the one cell formula.
    [(_, table)] = _definitions("joint_table")
    names = {node.id for node in ast.walk(table) if isinstance(node, ast.Name)}
    assert "_coincidence_cells" in names
    assert not names & {"ProbQuad", "nonideal_probs"}
