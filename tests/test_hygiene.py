"""Package-wide checks: every module-level import of the package and
of its tests is used or re-exported, no handler swallows every error,
settable values, config keys and source lines do not grow, only
``reports`` defines a ``passed`` verdict, no module imports scipy and
no command loads it or numpy.ma,
no module starts threads or processes of its own, no module draws from
numpy.random, random or secrets and no command loads numpy.random,
secrets or hashlib, OpenBLAS starts with one thread unless the caller
chose otherwise, every def is entered and every statement line run by
some command and every dataclass field is read, or each is listed with its
reason, every bound LAPACK routine is called by some command, every
command's files and check margins match
tests/output_manifest.json, and the package exports its fixed set of
names."""

import ast
import ctypes
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from lapkit import _lapack
from lapkit.config import SCHEMA
from lapkit.reports import _float

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lapkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


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


# the package's modules by file name, the test modules as tests/<name>
@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: str(
    p.relative_to(PACKAGE) if p.parent == PACKAGE else p.relative_to(ROOT)))
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
SETTABLE_CEILING = 9


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
LINE_CEILING = 3418


def test_source_lines_do_not_grow():
    total = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    assert total <= LINE_CEILING


# Ceiling on the keys of config.SCHEMA: each key is a value a run may
# set, a knob like any defaulted parameter; like the others it may only fall.
CONFIG_KEY_CEILING = 11


def test_config_keys_do_not_grow():
    assert sum(len(keys) for keys in SCHEMA.values()) <= CONFIG_KEY_CEILING


# One verdict rule: reports.CheckResult alone decides pass or fail (and
# Report gathers its checks' verdicts), so no other module defines a
# ``passed`` field, property or method, or sets one on an object.
VERDICT_MODULE = "reports.py"


def _verdict_definitions(tree: ast.Module) -> list[str]:
    """Class-level definitions and attribute stores named ``passed``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, ast.AnnAssign):
                    names = [getattr(stmt.target, "id", None)]
                elif isinstance(stmt, ast.Assign):
                    names = [getattr(t, "id", None) for t in stmt.targets]
                else:
                    continue
                if "passed" in names:
                    out.append(f"line {stmt.lineno}")
        elif (isinstance(node, ast.Attribute) and node.attr == "passed"
              and isinstance(node.ctx, ast.Store)):
            out.append(f"line {node.lineno}")
    return out


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != VERDICT_MODULE], ids=lambda p: p.name)
def test_one_verdict_type(path):
    assert _verdict_definitions(ast.parse(path.read_text())) == []


def test_second_verdicts_are_caught():
    for source in ("class R:\n    passed: bool",
                   "class R:\n    passed: bool = False",
                   "class R:\n    @property\n    def passed(self):\n        return True",
                   "class R:\n    def passed(self):\n        return True",
                   "class R:\n    passed = True",
                   "def f(r):\n    r.passed = True",
                   "class R:\n    def __init__(self):\n        self.passed = False"):
        assert len(_verdict_definitions(ast.parse(source))) == 1, source
    assert _verdict_definitions(ast.parse(
        "def f(check):\n    passed = check.passed\n    return passed\n"
        "class R:\n    ok: bool\n    def verdict(self):\n        return self.passed")) == []


# One LU back end and no scipy at run time: every factorized operator is
# tridiagonal, every solve goes through resolvent._band_lu, which hands it
# to LAPACK's zgttrf/zgttrs, and LAPACK comes from numpy's own OpenBLAS
# through lapkit._lapack, so no module imports scipy or a second solver.
FORBIDDEN_MODULES = ("scipy.sparse.linalg", "scipy")
FORBIDDEN_NAMES = {"zgtsv", "splu", "spsolve"}


def _imports(tree: ast.Module):
    """(line, modules, names) of every import statement, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield (node.lineno, [base] + [f"{base}.{alias.name}" for alias in node.names],
                   [alias.name for alias in node.names])


def _within(modules: list[str], packages) -> bool:
    return any(m == f or m.startswith(f + ".") for m in modules for f in packages)


def _second_solver_imports(tree: ast.Module) -> list[str]:
    """Imports of scipy or of a second LU routine."""
    return [f"line {line}" for line, modules, names in _imports(tree)
            if _within(modules, FORBIDDEN_MODULES) or FORBIDDEN_NAMES & set(names)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_lu_back_end(path):
    assert _second_solver_imports(ast.parse(path.read_text())) == []


def test_second_solver_imports_are_caught():
    for source in ("import scipy.sparse.linalg as spla",
                   "from scipy.sparse import linalg",
                   "from scipy.sparse.linalg import splu",
                   "def f():\n    from scipy.linalg.lapack import zgtsv",
                   "import scipy",
                   "import scipy.sparse as sp",
                   "def f():\n    from scipy.linalg.lapack import zgbtrf",
                   "from scipy import linalg"):
        assert len(_second_solver_imports(ast.parse(source))) == 1
    assert _second_solver_imports(ast.parse(
        "import numpy as np\nfrom ._lapack import call\nimport scipyish")) == []


# lapkit starts no threads or processes of its own: together with the
# OpenBLAS policy below, every run is one thread of lapkit code
CONCURRENCY_MODULES = ("threading", "concurrent.futures", "multiprocessing")


def _concurrency_imports(tree: ast.Module) -> list[str]:
    """Imports of a thread or process module."""
    return [f"line {line}" for line, modules, _ in _imports(tree)
            if _within(modules, CONCURRENCY_MODULES)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_threads_of_its_own(path):
    assert _concurrency_imports(ast.parse(path.read_text())) == []


def test_concurrency_imports_are_caught():
    for source in ("import threading",
                   "def f():\n    from concurrent.futures import ThreadPoolExecutor",
                   "import concurrent.futures as cf",
                   "from concurrent import futures",
                   "import multiprocessing.pool",
                   "from multiprocessing import Pool"):
        assert len(_concurrency_imports(ast.parse(source))) == 1
    assert _concurrency_imports(ast.parse(
        "import numpy as np\nimport threadingish\nfrom concurrent_x import y")) == []


# lapkit draws from its own seeded stream (besov.Stream): importing
# numpy.random costs a process about 5 MB of peak RSS, most of it
# OpenSSL's _hashlib, which numpy.random.bit_generator pulls in via secrets
RANDOM_MODULES = ("numpy.random", "random", "secrets")


def _random_sources(tree: ast.Module) -> list[str]:
    """Imports of a random-number module and references to numpy.random,
    type annotations (string ones too) included."""
    numpy_names = {"np", "numpy"} | {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    out = [f"line {line}" for line, modules, _ in _imports(tree)
           if _within(modules, RANDOM_MODULES)]
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            out += _random_sources(ast.parse(annotation.value, mode="eval"))
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and getattr(node.value, "id", None) in numpy_names):
            out.append(f"line {node.lineno}")
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_random_module_of_numpy_or_python(path):
    assert _random_sources(ast.parse(path.read_text())) == []


def test_random_sources_are_caught():
    for source in ("import random",
                   "from random import random",
                   "import secrets",
                   "def f():\n    from secrets import token_bytes",
                   "import numpy.random",
                   "from numpy.random import default_rng",
                   "from numpy import random",
                   "import numpy as np\nrng = np.random.default_rng(0)",
                   "import numpy as xp\nrng = xp.random.default_rng(0)",
                   "import numpy\nx = numpy.random.rand(3)",
                   "def f(rng: np.random.Generator | None = None):\n    pass",
                   "def f(rng: 'np.random.Generator'):\n    pass",
                   "def f() -> np.random.Generator:\n    pass",
                   "class S:\n    rng: np.random.Generator"):
        assert len(_random_sources(ast.parse(source))) == 1, source
    assert _random_sources(ast.parse(
        "import numpy as np\nimport randomness\nfrom .besov import Stream\n"
        "def f(rng=None):\n    return rng.random(3) + self.random + Stream(0).random(2)")) == []


# the free control's sweep at a small size, which no shipped config runs:
# the import check and the traces need its code paths, not desk scale
FREE_SWEEP = """
[model]
family = free

[grid]
length = 100.0
size = 1024

[sector]
moduli = 1e-1, 3e-2
"""

# every command in one fresh interpreter, traced from before lapkit
# loads: each package frame is recorded by its code object, and each line
# it runs by (file name, line number); other frames are not line-traced.
# Run k writes into its own directory out/k; the fixture returns the
# names of the files in each, and the output directory as "out"
EVERY_COMMAND_RUN = """
import json, os, sys
out, free, package = sys.argv[1:]
entered, ran, inside = set(), set(), {}


def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines


def record(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in inside:
        inside[name] = os.path.dirname(name) == package
    if inside[name]:
        entered.add(frame.f_code)
        return lines
    return None


runs = (("besov-selftest", "demos/configs/selftest.cfg", "--seed", "1"),
        ("check-potential", "demos/configs/coulomb_check.cfg"),
        ("check-potential", "demos/configs/standard1d.cfg"),
        ("lap-sweep", "demos/configs/standard1d.cfg"),
        ("lap-sweep", free),
        ("radiation", "demos/configs/radiation.cfg"),
        ("uniqueness", "demos/configs/radiation.cfg"),
        ("export-operator", "demos/configs/coulomb_check.cfg"))
dirs = [os.path.join(out, str(k)) for k in range(len(runs))]
sys.settrace(record)
from lapkit.cli import main
codes = [main([command, "--config", config, "--output", path, *seed])
         for path, (command, config, *seed) in zip(dirs, runs)]
sys.settrace(None)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
unloaded = ("numpy.ma", "numpy.random", "secrets", "hashlib")
print(json.dumps({"codes": codes, "commands": [run[0] for run in runs], "scipy": scipy,
                  "written": [sorted(os.listdir(d)) if os.path.isdir(d) else None
                              for d in dirs],
                  "loaded": [m for m in unloaded if m in sys.modules],
                  "entered": sorted([os.path.basename(c.co_filename),
                                     c.co_firstlineno, c.co_name] for c in entered),
                  "ran": sorted([os.path.basename(name), line] for name, line in ran)}))
"""


def _fresh_env(**extra) -> dict:
    """This environment without OPENBLAS_NUM_THREADS, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=str(ROOT / "src"), **extra)


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    # a fresh interpreter: this process has scipy loaded
    tmp = tmp_path_factory.mktemp("every_command")
    free = tmp / "free.cfg"
    free.write_text(FREE_SWEEP)
    proc = subprocess.run([sys.executable, "-c", EVERY_COMMAND_RUN,
                           str(tmp / "out"), str(free), str(PACKAGE)],
                          cwd=ROOT, env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(proc.stdout.splitlines()[-1]), out=tmp / "out")


# the files each run of the fixture writes, in run order
WRITTEN = [
    ["besov-selftest_report.json"],
    ["check-potential_report.json"],
    ["check-potential_report.json"],
    ["lap-sweep.csv", "lap-sweep_report.json"],
    ["lap-sweep.csv", "lap-sweep_report.json"],
    ["radiation_report.json", "radiation_source.f64", "radiation_source.json",
     "radiation_u_plus.f64", "radiation_u_plus.json"],
    ["uniqueness_report.json"],
    ["operator_H.txt"],
]


def test_each_command_run_writes_its_own_files(every_command):
    assert every_command["written"] == WRITTEN


# The bytes and check margins of the fixture's runs, on the numpy and
# OpenBLAS builds that wrote them (BLAS kernels differ by build and by
# CPU core, which the OpenBLAS config string names, and numpy's own
# loops by the SIMD targets it enables on the CPU).  A change that
# moves an output updates the manifest: on any mismatch the test writes
# the fresh one to its tmp_path and names that file.
MANIFEST = ROOT / "tests" / "output_manifest.json"


def _openblas_config() -> str:
    lib = ctypes.CDLL(str(sorted(_lapack.LIBRARY_DIR.glob("libscipy_openblas64_*.so"))[0]))
    lib.scipy_openblas_get_config64_.argtypes = []
    lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
    return lib.scipy_openblas_get_config64_().decode()


def _numpy_simd() -> str:
    """The SIMD targets numpy dispatches to on this CPU, as show_config lists them."""
    return " ".join(numpy.__config__.CONFIG["SIMD Extensions"]["found"])


def _margin(check: dict):
    """threshold - value for "<=", value - threshold for ">=": positive
    passes; non-finite as the reports write it."""
    value, threshold = float(check["value"]), float(check["threshold"])
    return _float(threshold - value if check["comparison"] == "<=" else value - threshold)


def _manifest(every_command) -> dict:
    """Per run ("<k> <command>"): the sha256 of each file written and, per
    check of its report, the value, threshold and margin."""
    runs = {}
    for k, command in enumerate(every_command["commands"]):
        run = every_command["out"] / str(k)
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(run.iterdir())}
        checks = {}
        for report in run.glob("*_report.json"):
            for check in json.loads(report.read_text())["checks"]:
                assert check["check_id"] not in checks
                checks[check["check_id"]] = {
                    "value": check["value"], "threshold": check["threshold"],
                    "margin": _margin(check)}
        runs[f"{k} {command}"] = {"files": files, "checks": checks}
    return {"numpy": numpy.__version__, "numpy_simd": _numpy_simd(),
            "openblas": _openblas_config(), "runs": runs}


def _moved(old, new, path="") -> list[str]:
    """The key paths at which two manifests differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [moved for key in sorted(old.keys() | new.keys())
                for moved in _moved(old.get(key), new.get(key), f"{path}/{key}")]
    return [] if old == new else [path]


def _mismatch(recorded: dict, fresh: dict, directory: Path) -> str | None:
    """None when the manifests agree; else a message naming both builds
    and the moved keys, with the fresh manifest written to ``directory``."""
    if fresh == recorded:
        return None
    path = directory / MANIFEST.name
    path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    builds = [f"numpy {m['numpy']} (SIMD {m['numpy_simd']}), {m['openblas']}"
              for m in (recorded, fresh)]
    return (f"outputs differ from {MANIFEST.name} (recorded on {builds[0]}; "
            f"this run: {builds[1]}) at {_moved(recorded, fresh)}; "
            f"the fresh manifest is {path}")


def test_outputs_match_the_manifest(every_command, tmp_path):
    message = _mismatch(json.loads(MANIFEST.read_text()), _manifest(every_command), tmp_path)
    assert message is None, message


def test_manifest_mismatch_names_both_builds(every_command, tmp_path):
    fresh = _manifest(every_command)
    other = dict(fresh, openblas="OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell")
    message = _mismatch(other, fresh, tmp_path)
    assert other["openblas"] in message and fresh["openblas"] in message
    assert "at ['/openblas']" in message
    assert json.loads((tmp_path / MANIFEST.name).read_text()) == fresh
    # numpy at its AVX2 level, as on a host without AVX-512
    other = dict(fresh, numpy_simd="X86_V3")
    message = _mismatch(other, fresh, tmp_path)
    assert f"numpy {fresh['numpy']} (SIMD X86_V3)" in message
    assert f"numpy {fresh['numpy']} (SIMD {fresh['numpy_simd']})" in message
    assert "at ['/numpy_simd']" in message
    assert _mismatch(fresh, fresh, tmp_path) is None
    # margins are signed so that a positive one passes
    assert _margin({"value": 0.25, "threshold": 1.0, "comparison": "<="}) == 0.75
    assert _margin({"value": 0.25, "threshold": 1.0, "comparison": ">="}) == -0.75
    assert _margin({"value": "nan", "threshold": 1.0, "comparison": "<="}) == "nan"
    assert _margin({"value": "inf", "threshold": 1.0, "comparison": ">="}) == "inf"


def test_numpy_only_commands_load_no_scipy(every_command):
    assert every_command["codes"] == [0] * 8
    assert every_command["scipy"] == []
    # np.unique without return_inverse imports numpy.ma (numpy 2.4), and
    # numpy.random imports secrets and with it hashlib
    assert every_command["loaded"] == []


# Every def in src/lapkit that no command enters, with the reason it
# stays.  Entries may only be removed: a def that a command starts to
# enter leaves the list, and a new def no command enters is deleted, not
# listed.  Criteria 2, 3, 5 and 8 are decided inside
# tests/test_acceptance.py until a command computes them.
NOT_RUN_BY_A_COMMAND = {
    # error paths
    "besov._serialize_witness": "a failing base-change, scaling or power-map check's witness",
    "config.config_schema_text": "printed with an unknown section or key",
    # oracles and references
    "weyl.weyl_matrix": "the dense quantization weyl_apply is tested against; demo 05",
    "weyl.FilterSpec.chi_tilde_mirror":
        "the mirrored filter the outgoing filter of conj(u) is tested against",
    # demos 04 and 05
    "operators.hermiticity_residual": "printed by demos 04 and 05",
    # criteria code
    "operators.build_dilation": "criteria 2 and 8",
    "operators.commutator_residual": "criterion 2",
    "operators.refinement_orders": "criterion 2",
    "operators.dilation_eigenbasis": "criterion 8",
    "resolvent.spectral_free_solve": "criterion 3",
    "resolvent.hoelder_estimate": "criterion 5",
    "resolvent.hoelder_estimate.<locals>.matvec": "criterion 5",
    "resolvent.hoelder_estimate.<locals>.rmatvec": "criterion 5",
    "resolvent.mourre_resolvent": "criterion 8",
    "resolvent.quadratic_check": "criterion 8",
    "resolvent.quadratic_check.<locals>.t_diag": "criterion 8",
    "resolvent.quadratic_check.<locals>.t_dil": "criterion 8",
    "resolvent.quadratic_check.<locals>.t_dil_adj": "criterion 8",
    "resolvent.QuadraticReport.stability": "criterion 8",
}


def _defs(tree: ast.Module) -> dict:
    """(first line, name) -> qualified name of every def in a module; a
    decorated def's code starts at its first decorator."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[first, child.name] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_every_def_is_run_by_a_command_or_listed(every_command):
    entered = {tuple(row) for row in every_command["entered"]}
    never = {f"{path.stem}.{qualname}"
             for path in PACKAGE.glob("*.py")
             for (line, name), qualname in _defs(ast.parse(path.read_text())).items()
             if (path.name, line, name) not in entered}
    assert never == set(NOT_RUN_BY_A_COMMAND)


def test_defs_are_named_by_their_qualified_names():
    source = ("def f():\n    def g():\n        pass\n"
              "class C:\n    @property\n    def p(self):\n        pass\n"
              "    class D:\n        def m(self):\n            pass\n")
    assert _defs(ast.parse(source)) == {
        (1, "f"): "f", (2, "g"): "f.<locals>.g", (5, "p"): "C.p", (9, "m"): "C.D.m"}


# Every statement line of src/lapkit that no command runs, keyed
# "module.qualname: <its first line, stripped>" (qualname <module> at
# module level), with the reason it stays.  A line needs no entry when it
# is part of a raise, in an except body, a docstring or inside a def of
# NOT_RUN_BY_A_COMMAND.  Entries may only be removed: a line that a
# command starts to run leaves the list, and a new line no command runs
# is deleted, reached by a shipped config in the trace, or exempt.
LINES_NOT_RUN = {
    # python -m lapkit; the trace calls cli.main in-process
    "__main__.<module>: import sys": "the entry of python -m lapkit",
    "__main__.<module>: from .cli import main": "the entry of python -m lapkit",
    "__main__.<module>: sys.exit(main())": "the entry of python -m lapkit",
    # rare inputs to library functions
    "besov.loglog_slope: return math.nan": "fewer than two positive values, or one radius",
    "besov.accretive_bound: return None": "a matrix that is not accretive; the selftest's is",
    "weyl.weyl_apply: batches.append(np.array([0]))":
        "a band reaching the unpaired frequency -N/2; the radiation cutoffs' stop short",
    # failures a sound run does not meet
    "experiments.run_besov_selftest: name, i = where[int(np.argmax(his))]":
        "a failing duality check's witness",
    'experiments.run_besov_selftest: report.extras["duality_witness"] = '
    '[[z.real, z.imag] for z in banks[name][i]]': "a failing duality check's witness",
    'experiments.run_besov_selftest: report.extras[f"{key}{arg:g}"] = witness':
        "a failing base-change, scaling or power-map check's witness",
    "experiments.run_uniqueness: report.add(CheckResult(": "over-damping: w vanishes",
    "experiments.run_uniqueness: return report": "over-damping: w vanishes",
    "resolvent.boundary_value: return BoundaryValueResult(u=u_prev, z_values=zs, "
    "diffs=diffs, converged=False)": "a ray ladder that runs out of rungs",
}


def _unrun_lines(stem: str, source: str, ran) -> set:
    """The keys of the statement lines of a module that are not in ``ran``
    (line numbers) and that the rule above does not exempt."""
    text = source.splitlines()
    out = set()

    def visit(body, owner, prefix, exempt, documented):
        # owner: the qualified name of the enclosing def or class
        for k, stmt in enumerate(body):
            docstring = (documented and k == 0 and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant)
                         and isinstance(stmt.value.value, str))
            if not (exempt or docstring or isinstance(stmt, ast.Raise)
                    or stmt.lineno in ran):
                out.add(f"{stem}.{owner}: {text[stmt.lineno - 1].strip()}")
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + stmt.name
                visit(stmt.body, name, name + ".<locals>.",
                      exempt or f"{stem}.{name}" in NOT_RUN_BY_A_COMMAND, True)
            elif isinstance(stmt, ast.ClassDef):
                name = prefix + stmt.name
                visit(stmt.body, name, name + ".", exempt, True)
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(stmt, field, []), owner, prefix, exempt, False)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body, owner, prefix, True, False)

    visit(ast.parse(source).body, "<module>", "", False, True)
    return out


def test_every_line_is_run_by_a_command_or_listed(every_command):
    ran = {tuple(row) for row in every_command["ran"]}
    never = set().union(*(
        _unrun_lines(path.stem, path.read_text(),
                     {line for name, line in ran if name == path.name})
        for path in PACKAGE.glob("*.py")))
    assert never == set(LINES_NOT_RUN)


def test_unrun_lines_are_caught():
    source = ('"""doc"""\n'
              "def f(x):\n"                               # 2
              '    """doc"""\n'
              "    if x:\n"                               # 4
              "        y = 1\n"
              "        raise ValueError(\n"
              "            y)\n"
              "    try:\n"                                # 8
              "        y = 2\n"
              "    except KeyError:\n"
              "        y = 3\n"
              "    return [\n"                            # 12
              "        y]\n"
              "class C:\n"                                # 14
              "    def m(self):\n"                        # 15
              "        def g():\n"                        # 16
              "            return 4\n"
              "        return g\n")
    ran = {2, 4, 8, 9, 12, 14, 15}
    assert _unrun_lines("m", source, ran) == {
        "m.f: y = 1", "m.C.m: def g():", "m.C.m: return g",
        "m.C.m.<locals>.g: return 4"}
    # a def of NOT_RUN_BY_A_COMMAND is exempt, nested defs included
    assert _unrun_lines("resolvent", source.replace("class C", "class QuadraticReport")
                        .replace("def m", "def stability"), ran) == {"resolvent.f: y = 1"}


# Every LAPACK routine lapkit binds is one some command calls: each key of
# _lapack._ARGS is named, as a string, on a src line a command runs.  A
# routine named only on lines no command runs is a binding nothing needs.
def _routine_lines(trees: dict) -> dict:
    """routine -> {(file name, line)} of each string constant naming a key
    of _lapack._ARGS, in the trees (file name -> tree), outside the
    assignment of _ARGS itself."""
    out = {name: set() for name in _lapack._ARGS}
    for name, tree in trees.items():
        table = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
                 and any(getattr(t, "id", None) == "_ARGS" for t in stmt.targets)
                 for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value in out and id(node) not in table):
                out[node.value].add((name, node.lineno))
    return out


def test_every_bound_routine_is_called_by_a_command(every_command):
    ran = {tuple(row) for row in every_command["ran"]}
    lines = _routine_lines({p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")})
    assert sorted(name for name, where in lines.items() if not where & ran) == []


def test_routine_lines_skip_the_binding_table():
    tree = ast.parse('_ARGS = {"dstevd": "LCIPPPI"}\nx = 1\ninfo = call("dstevd", x)\n')
    lines = _routine_lines({"m.py": tree})
    assert lines["dstevd"] == {("m.py", 3)} and lines["dstebz"] == set()


# Every dataclass field in src/lapkit that no module or demo reads, with
# the reason it stays.  Entries may only be removed: a field nobody reads
# is deleted, not listed.  The check goes by name, not by type: a field
# passes when any attribute of its name is read (ast.Attribute, Load), so
# a field that shares its name with another class's read attribute passes
# unread.  That is how resolvent.BesovEstimate.block_sup, always upper / 2,
# hid behind the block_sup field of besov's former BlockBound.
FIELDS_NOT_READ = {
    "resolvent.OpNormEstimate.iterations": "bench/tracer.py's Lanczos hook reads it",
    "reports.CheckResult.anchor": "serialized into reports through asdict",
    # criteria 5 and 8, decided inside tests/test_acceptance.py
    "resolvent.HoelderReport.pairs": "criterion 5",
    "resolvent.HoelderReport.fitted_gamma": "criterion 5",
    "resolvent.HoelderReport.sup_quotient": "criterion 5",
    "resolvent.HoelderReport.unconverged": "criterion 5",
    "resolvent.QuadraticReport.constants": "criterion 8",
}


def _unread_fields(modules: dict, readers) -> set:
    """module.Class.field of every annotated dataclass field in ``modules``
    (stem -> tree) whose name no tree in ``readers`` reads as an attribute."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{stem}.{node.name}.{stmt.target.id}"
            for stem, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read}


def test_every_dataclass_field_is_read():
    modules = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    demos = [ast.parse(p.read_text()) for p in (ROOT / "demos").glob("*.py")]
    assert _unread_fields(modules, [*modules.values(), *demos]) == set(FIELDS_NOT_READ)


def test_unread_fields_are_caught():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass R:\n    kept: float\n    dropped: int = 0\n"
              "class Plain:\n    loose: int\n"
              "def f(r):\n    r.dropped = 1\n    return r.kept\n")
    tree = ast.parse(source)
    assert _unread_fields({"m": tree}, [tree]) == {"m.R.dropped"}
    # any read attribute of the same name passes the field
    reader = ast.parse("def g(other):\n    return other.dropped\n")
    assert _unread_fields({"m": tree}, [tree, reader]) == set()


BLAS_THREADS_RUN = """
import ctypes, json, os
import lapkit
from lapkit import _lapack
lib = ctypes.CDLL(str(sorted(_lapack.LIBRARY_DIR.glob("libscipy_openblas64_*.so"))[0]))
lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": lib.scipy_openblas_get_num_threads64_()}))
"""


@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller-set"])
def test_openblas_thread_policy(caller):
    # importing lapkit first starts OpenBLAS with one thread; a caller's
    # setting wins (OpenBLAS caps it at the core count)
    env = _fresh_env(**({} if caller is None else {"OPENBLAS_NUM_THREADS": caller}))
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["env"] == (caller or "1")
    assert result["threads"] == min(int(result["env"]), os.cpu_count())


def test_this_process_follows_the_thread_policy(capsys):
    # tests/conftest.py sets the policy before numpy loads, so in-process
    # tests run lapkit as the CLI does: one OpenBLAS thread unless the
    # caller chose otherwise
    exec(BLAS_THREADS_RUN, {})
    result = json.loads(capsys.readouterr().out)
    assert result["threads"] == min(int(result["env"]), os.cpu_count())


def test_selftest_report_independent_of_blas_threads(tmp_path):
    # the same relative output directory, so the reports can match byte for byte
    reports = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "lapkit", "besov-selftest", "--config",
             str(ROOT / "demos" / "configs" / "selftest.cfg"), "--output", "out"],
            cwd=cwd, env=_fresh_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append((cwd / "out" / "besov-selftest_report.json").read_bytes())
    assert reports[0] == reports[1]


# Modules lapkit/__init__.py binds; every other name is imported from its module.
PACKAGE_MODULES = ["besov", "config", "experiments", "operators", "potential",
                   "reports", "resolvent", "weyl"]


def test_package_modules_and_dir():
    import lapkit

    for module in PACKAGE_MODULES:
        assert getattr(lapkit, module) is importlib.import_module(f"lapkit.{module}")
    assert set(PACKAGE_MODULES) <= set(dir(lapkit))
    with pytest.raises(AttributeError):
        lapkit.no_such_name
