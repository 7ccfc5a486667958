"""Package-wide checks: every module-level import is used or
re-exported, no handler swallows every error, settable values and
source lines do not grow, the numpy-only commands load no scipy, and
the package exports the same names as before its scipy side loaded
lazily."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lapkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list[str]:
    """Bare ``except:`` and handlers naming Exception or BaseException."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(getattr(n, "id", getattr(n, "attr", None))
                                 in BROAD for n in names):
            out.append(f"line {node.lineno}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    assert _broad_handlers(ast.parse(path.read_text())) == []


# Ceiling on settable values: defaulted function parameters (keyword-only
# included, nested functions too) plus defaulted dataclass fields.  Each
# default is a knob a caller may turn; the ceiling may only fall.
SETTABLE_CEILING = 91


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_do_not_grow():
    total = sum(_settable_values(ast.parse(p.read_text()))
                for p in PACKAGE.glob("*.py"))
    assert total <= SETTABLE_CEILING


# Ceiling on the package's source lines (all of src/lapkit, blank lines
# and comments included); like SETTABLE_CEILING it may only fall.
LINE_CEILING = 4092


def test_source_lines_do_not_grow():
    total = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    assert total <= LINE_CEILING


NUMPY_ONLY_RUN = """
import json, sys
import lapkit
loaded = sorted(m for m in sys.modules if m.startswith("lapkit."))
from lapkit.cli import main
codes = [main([command, "--config", config, "--output", sys.argv[1]])
         for command, config in (
             ("besov-selftest", "demos/configs/selftest.cfg"),
             ("check-potential", "demos/configs/coulomb_check.cfg"))]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"loaded": loaded, "codes": codes, "scipy": scipy}))
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    # a fresh interpreter: this process has scipy loaded already
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not {"lapkit.experiments", "lapkit.operators",
                "lapkit.resolvent"} & set(result["loaded"])
    assert result["codes"] == [0, 0]
    assert result["scipy"] == []


# Names lapkit/__init__.py bound when it imported everything eagerly,
# by the module each was imported from.
PACKAGE_API = {
    "besov": ["ShellScheme", "besov_norm", "bstar0_defect", "dual_norm",
              "shell_decompose"],
    "errors": ["ConfigError", "DataError", "DimensionError",
               "ExtrapolationError", "SolverError"],
    "operators": ["Grid1D", "RadialGrid", "build_dilation",
                  "build_hamiltonian", "commutator_residual"],
    "potential": ["PotentialModel", "WeightParams", "check_condition",
                  "coulomb_model", "standard_model", "virial_w", "weight_f"],
    "resolvent": ["Sector", "ShiftedSolver", "besov_bstar_estimate",
                  "boundary_value", "hoelder_estimate", "mourre_resolvent",
                  "quadratic_check", "solve", "spectral_free_solve",
                  "weighted_opnorm"],
    "weyl": ["FilterSpec", "radiation_filter", "weyl_apply", "weyl_matrix"],
}
PACKAGE_MODULES = ["besov", "config", "experiments", "operators", "potential",
                   "reports", "resolvent", "weyl"]


@pytest.mark.parametrize("module", sorted(PACKAGE_API))
def test_package_exports_resolve_to_their_definitions(module):
    source = importlib.import_module(f"lapkit.{module}")
    for name in PACKAGE_API[module]:
        scope = {}
        exec(f"from lapkit import {name}", scope)
        value = scope[name]
        assert value is getattr(source, name)
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_package_modules_and_dir():
    import lapkit

    for module in PACKAGE_MODULES:
        assert getattr(lapkit, module) is importlib.import_module(f"lapkit.{module}")
    pinned = PACKAGE_MODULES + [n for names in PACKAGE_API.values() for n in names]
    assert set(pinned) <= set(dir(lapkit))
    with pytest.raises(AttributeError):
        lapkit.no_such_name
