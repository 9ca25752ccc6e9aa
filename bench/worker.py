"""Benchmark child: runs generated requests in-process, one thread.

Reads a JSON spec on stdin and writes one JSON result line on stdout.  The
program under test sees only the generated CLI argument lists (plus, for
``mc_check``, one direct ``mc_chain_time`` call).  Passes run in order until
``seconds`` have elapsed (always at least one) or ``max_passes`` is reached.
With ``trace`` set, the tracer wraps the package after the warm-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> None:
    spec = json.load(sys.stdin)
    import numpy as np
    import muxrepeater
    from muxrepeater import cli, montecarlo
    from muxrepeater.modes import ModeSpace
    from muxrepeater.params import load_config

    bundle = load_config(None)
    space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
    held = bundle.platform("WV-MUX-QM")

    def call(request: dict) -> dict:
        if request["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(request["argv"])
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        cfg = montecarlo.McConfig(samples=request["samples"], seed=request["seed"])
        result = montecarlo.mc_chain_time(
            "semihierarchical", held, request["n_nodes"], request["l_km"],
            bundle.constants, space, cfg, bundle.noise)
        return {"code": 0, "t_tot_us": result.t_tot_us.mean,
                "std_error": result.t_tot_us.std_error,
                "samples_used": result.t_tot_us.samples_used}

    for request in spec["warmup"]:
        call(request)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    passes = []
    start = time.perf_counter()
    for requests in spec["passes"][:spec["max_passes"]]:
        done = []
        for request in requests:
            t0 = time.perf_counter()
            try:
                reply = call(request)
            except Exception as exc:  # a crash counts as one failed request
                reply = {"code": None, "stderr": f"{type(exc).__name__}: {exc}"}
            reply["seconds"] = time.perf_counter() - t0
            done.append(reply)
        passes.append(done)
        if time.perf_counter() - start >= spec["seconds"]:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "all_size": len(muxrepeater.__all__),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
