"""Package-wide static checks: every module-level import is used or
re-exported, and no handler swallows every error."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lapkit"
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
SETTABLE_CEILING = 109


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
