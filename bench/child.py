"""One run process of the benchmark: set up lapkit, then run CLI commands.

Usage (from bench/run.py, not by hand):

    python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``root`` (the checkout), ``spawned`` (the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide), ``config`` (loaded during set-up), ``invocations`` (a list
of ``[command, config, seed, output_dir]``), ``trace`` (0 or 1),
``env`` (0 or 1) and ``result`` (where to write this process's result
JSON).  With no invocations the process only sets up: that is how the
set-up time is sampled.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    """BLAS vendor and thread count as this process sees them."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        paths = set()
    libs = sorted(p for p in paths if "openblas" in Path(p).name.lower())
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[Path(path).name] = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(spec: dict) -> int:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from lapkit.cli import main as cli_main
    from lapkit.config import load_config

    load_config(spec["config"])
    setup_done = time.monotonic()
    result = {"setup_s": setup_done - spec["spawned"], "codes": []}
    if spec.get("env"):
        result["env"] = _environment()

    recorder = None
    if spec.get("trace"):
        from tracer import Recorder, install
        recorder = Recorder()
        install(recorder)

    for command, config, seed, outdir in spec["invocations"]:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        argv = [command, "--config", config, "--seed", str(seed),
                "--output", outdir]
        root = recorder.open("cli.main") if recorder else None
        with open(Path(outdir) / f"{command}.log", "w") as log, \
                contextlib.redirect_stdout(log):
            code = cli_main(argv)
        if recorder:
            recorder.close(root)
        result["codes"].append(code)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["maxrss_kb"] = usage.ru_maxrss
    if recorder is not None:
        spans = Path(spec["result"]).with_name("spans.json")
        recorder.dump(spans)
        result["spans"] = str(spans)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
