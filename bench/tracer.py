"""Span and counter recorder for the traced benchmark run.

The recorder wraps lapkit's public functions from outside the package:
each wrapper is installed at every module attribute (and class
attribute) where callers look the name up, so ``from .resolvent import
ShiftedSolver`` in ``lapkit.experiments`` is traced like a call inside
``lapkit.resolvent``.  Spans are kept in memory as flat lists and
written out once, when the traced process ends; self times and parent
attribution are derived afterwards from the span tree by
``layer_metrics``.

A span is ``[name, parent, t0, t1, extra]`` with ``parent`` the index
of the enclosing span (-1 at the root) and ``extra`` a small dict of
counts taken from the call's arguments or result (None when there are
none).  Count hooks run inside a ``trace.hook`` span that is a sibling
of the call, so their cost lands in no layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

# modules whose public functions are wrapped, by their short layer name
LAYERS = ("resolvent", "weyl", "besov", "operators", "potential", "reports")

# (module, class, method) wrapped in place on the class
METHODS = (
    ("resolvent", "ShiftedSolver", "__init__"),
    ("resolvent", "ShiftedSolver", "solve"),
    ("resolvent", "ShiftedSolver", "solve_adjoint"),
    ("weyl", "FilterSpec", "chi_minus"),
    ("reports", "Report", "write"),
)

HOOK = "trace.hook"
FACTORIZE = "resolvent.ShiftedSolver.__init__"
SOLVE = "resolvent.ShiftedSolver.solve"
SOLVE_ADJOINT = "resolvent.ShiftedSolver.solve_adjoint"
POWER = "resolvent.operator_norm_lower"
BSTAR = "resolvent.besov_bstar_estimate"
BOUNDARY = "resolvent.boundary_value"
SYMBOL = "weyl.symbol"
RUNNER = "experiments.run_experiment"
REPORT_WRITERS = ("reports.Report.write", "reports.write_sweep_csv",
                  "reports.dump_vector")
VERIFY = ("besov.verify_base_equivalence", "besov.verify_scaling",
          "besov.verify_power_map", "besov.verify_interpolation")


class Recorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]

    def open(self, name) -> list:
        """Start a span under the innermost open one; end it with ``close``."""
        span = [name, self.stack[-1], time.perf_counter(), 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` traced as ``name``.

        ``before(args, kwargs)`` may rewrite the call's arguments;
        ``after(args, kwargs, result)`` returns the span's count dict.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                hook = self.open(HOOK)
                span[4] = after(args, kwargs, result)
                self.close(hook)
            return result

        return traced

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh)


def load_spans(path) -> list[list]:
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    return [[names[n], p, t0, t1, extra] for n, p, t0, t1, extra in data["spans"]]


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _file_bytes(*paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hooks():
    """Count hooks per traced name."""
    import numpy as np

    def power(args, kwargs, est):
        return {"iterations": int(est.iterations), "converged": bool(est.converged)}

    def boundary(args, kwargs, res):
        return {"steps": len(res.z_values)}

    def points(args, kwargs, res):
        return {"points": int(np.size(_arg(args, kwargs, 0, "t")))}

    def nonzero(args, kwargs, res):
        return {"nonzero": int(np.count_nonzero(res)), "size": int(np.size(res))}

    def report_write(args, kwargs, res):
        return _file_bytes(_arg(args, kwargs, 1, "path"))

    def csv_write(args, kwargs, res):
        return _file_bytes(_arg(args, kwargs, 0, "path"))

    def vector_dump(args, kwargs, res):
        path = str(_arg(args, kwargs, 0, "path"))
        return _file_bytes(path + ".f64", path + ".json")

    return {
        POWER: power,
        BOUNDARY: boundary,
        "weyl.smoothstep7": points,
        "weyl.FilterSpec.chi_minus": nonzero,
        "reports.Report.write": report_write,
        "reports.write_sweep_csv": csv_write,
        "reports.dump_vector": vector_dump,
    }


def install(recorder: Recorder):
    """Wrap lapkit's public functions; returns an undo callable.

    Every attribute of every loaded ``lapkit`` module that is bound to
    a wrapped function is rebound, so callers that imported the name
    directly see the traced version too.
    """
    import importlib
    import sys

    import lapkit.cli  # noqa: F401  (binds run_experiment and the writers)

    hooks = _hooks()
    undo = []

    def symbol_arg(args, kwargs):
        # weyl_apply(symbol, grid, u): time symbol evaluation on its own
        if args:
            args = (recorder.wrap(SYMBOL, args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, symbol=recorder.wrap(SYMBOL, kwargs["symbol"]))
        return args, kwargs

    befores = {"weyl.weyl_apply": symbol_arg}

    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lapkit.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                originals[id(obj)] = (obj, recorder.wrap(
                    name, obj, before=befores.get(name), after=hooks.get(name)))
    runner = importlib.import_module("lapkit.experiments").run_experiment
    originals[id(runner)] = (runner, recorder.wrap(RUNNER, runner))

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "lapkit" or key.startswith("lapkit."))]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"lapkit.{layer}"), cls_name)
        orig = cls.__dict__[meth]
        name = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, recorder.wrap(name, orig, after=hooks.get(name)))
        undo.append((cls, meth, orig))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# Deriving layer metrics from the span tree
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    out = []
    for i, (_, _, t0, t1, _) in enumerate(spans):
        covered = 0.0
        end = t0
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][2]):
            c0, c1 = max(spans[c][2], end), min(spans[c][3], t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def _ancestor(spans, i, names):
    """Index of the nearest proper ancestor of span i named in ``names``."""
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] in names:
            return p
        p = spans[p][1]
    return -1


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times (seconds) from one run's spans."""
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        count[span[0]] += 1
        self_s[span[0]] += t

    def extras(name):
        return [s[4] or {} for s in spans if s[0] == name]

    # solves and time inside the shell-space estimate, split by whether
    # a shell-pair power iteration encloses them
    bstar_total = pair_total = 0.0
    block_solves = pair_solves = 0
    for i, span in enumerate(spans):
        name = span[0]
        if name == BSTAR:
            bstar_total += span[3] - span[2]
        elif name == POWER and _ancestor(spans, i, (BSTAR,)) >= 0:
            if _ancestor(spans, i, (POWER,)) < 0:
                pair_total += span[3] - span[2]
        elif name == SOLVE and _ancestor(spans, i, (BSTAR,)) >= 0:
            if _ancestor(spans, i, (POWER,)) >= 0:
                pair_solves += 1
            else:
                block_solves += 1

    power = extras(POWER)
    steps = sum((spans[i][4] or {}).get("steps", 0) for i, s in enumerate(spans)
                if s[0] == BOUNDARY and _ancestor(spans, i, (BOUNDARY,)) < 0)
    chi = extras("weyl.FilterSpec.chi_minus")
    chi_size = sum(e.get("size", 0) for e in chi)
    factorizations = count[FACTORIZE]

    return {
        "resolvent.factorize.count": factorizations,
        "resolvent.factorize.self_s": self_s[FACTORIZE],
        "resolvent.solve.count": count[SOLVE],
        "resolvent.solve.self_s": self_s[SOLVE] + self_s[SOLVE_ADJOINT],
        "resolvent.solves_per_factorization":
            count[SOLVE] / factorizations if factorizations else 0.0,
        "resolvent.bstar.block_s": bstar_total - pair_total,
        "resolvent.bstar.block_solves": block_solves,
        "resolvent.bstar.pair_s": pair_total,
        "resolvent.bstar.pair_solves": pair_solves,
        "resolvent.power.runs": len(power),
        "resolvent.power.matvecs": sum(e.get("iterations", 0) for e in power),
        "resolvent.power.unconverged_share":
            sum(1 for e in power if not e.get("converged", True)) / len(power)
            if power else 0.0,
        "resolvent.weighted_opnorm.self_s": self_s["resolvent.weighted_opnorm"],
        "resolvent.boundary_value.steps": steps,
        "resolvent.boundary_value.self_s": self_s[BOUNDARY],
        "weyl.weyl_apply.calls": count["weyl.weyl_apply"],
        "weyl.weyl_apply.self_s": self_s["weyl.weyl_apply"],
        "weyl.smoothstep7.points": sum(e.get("points", 0)
                                       for e in extras("weyl.smoothstep7")),
        "weyl.smoothstep7.self_s": self_s["weyl.smoothstep7"],
        "weyl.symbol.nonzero_share":
            sum(e.get("nonzero", 0) for e in chi) / chi_size if chi_size else 0.0,
        "weyl.radiation_filter.self_s": self_s["weyl.radiation_filter"],
        "besov.shell_decompose.calls": count["besov.shell_decompose"],
        "besov.shell_decompose.self_s": self_s["besov.shell_decompose"],
        "besov.verify.self_s": sum(self_s[n] for n in VERIFY),
        "besov.schur_block_bound.self_s": self_s["besov.schur_block_bound"],
        "besov.bstar_norm_dense.self_s": self_s["besov.bstar_norm_dense"],
        "potential.weight_f.calls": count["potential.weight_f"],
        "potential.weight_f.self_s": self_s["potential.weight_f"],
        "potential.check_condition.self_s": self_s["potential.check_condition"],
        "operators.build_hamiltonian.calls": count["operators.build_hamiltonian"],
        "operators.build_hamiltonian.self_s": self_s["operators.build_hamiltonian"],
        "reports.write.self_s": sum(self_s[n] for n in REPORT_WRITERS),
        "reports.bytes": sum(e.get("bytes", 0) for n in REPORT_WRITERS
                             for e in extras(n)),
        "experiments.self_s": self_s[RUNNER],
    }
