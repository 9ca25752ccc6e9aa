"""Repository benchmark: seeded workloads, output checks, metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_spectral --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give a readable report and a ``record`` line with the seed, the generated
inputs and the software and hardware they ran on.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_spectral", "optimize_stream", "mc_check")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 150
SETUP_REPS = 5  # before and again after the timed passes
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import muxrepeater.cli\n"
    "from muxrepeater.modes import ModeSpace\n"
    "from muxrepeater.params import load_config\n"
    "b = load_config(None)\n"
    "ModeSpace.from_params(b.mode_space, b.constants)\n"
    "print(time.perf_counter() - t0)\n"
)

# sweep_spectral: both wavevector platforms, both architectures, 10 L values
SWEEP_PLATFORMS = ("WV-MUX-QM", "WV-parallel")
ARCHS = ("ahierarchical", "semihierarchical")
# optimize_stream: each block of 40 requests holds 12 ahierarchical and 8
# semihierarchical requests per platform, in shuffled order, so every block
# costs about the same and the median and p90 each fall inside one cost mode
STREAM_BLOCK = {("Temporal", "ahierarchical"): 12, ("Temporal", "semihierarchical"): 8,
                ("Lattice-SM", "ahierarchical"): 12, ("Lattice-SM", "semihierarchical"): 8}
# mc_check: the CLI's chain-check point, held architecture
MC_SAMPLES, MC_CHAIN_SAMPLES, HELD_SAMPLES = 200_000, 100_000, 3000
HELD_POINT = {"n_nodes": 5, "l_km": 550.0}
MC_CELLS = 16  # waiting-round cells of mc-validate; one chain row follows
MC_VALIDATE_ROWS = MC_CELLS + 1
MAX_PASSES = 200  # inputs generated per run; a pass is one unit of wall_s


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def generate(workload: str, seed: int) -> tuple[list, list, list]:
    """(passes of requests, expected output per request, warm-up requests).

    The warm-up is one more pass of the same shape, run untimed and
    unchecked, so lazy set-up and the first large allocations are paid
    before timing starts.
    """
    rng = random.Random(seed)
    passes, expected = [], []
    if workload == "sweep_spectral":
        for _ in range(MAX_PASSES + 1):
            start = round(100.0 + rng.uniform(-20.0, 20.0), 3)
            stop = round(1000.0 + rng.uniform(-20.0, 20.0), 3)
            grid = [float(x) for x in np.linspace(start, stop, 10)]
            passes.append([cli("rate-curve", "--grid", f"{start}:{stop}:10",
                               "--platforms", ",".join(SWEEP_PLATFORMS))])
            expected.append([{"rows": [(p, a, l) for l in grid
                                       for p in SWEEP_PLATFORMS for a in ARCHS],
                              "spdc": grid}])
    elif workload == "optimize_stream":
        for _ in range(MAX_PASSES + 1):
            block = []
            for (platform_name, arch), count in STREAM_BLOCK.items():
                for i in range(count):  # one L per stratum of [100, 950] km
                    l_km = round(100.0 + 850.0 * (i + rng.random()) / count, 3)
                    block.append((platform_name, arch, l_km,
                                  round(l_km + rng.uniform(5.0, 50.0), 3)))
            rng.shuffle(block)
            passes.append([cli("optimize", "--grid", f"{l1}:{l2}:2", "--platform", p,
                               "--arch", a) for p, a, l1, l2 in block])
            expected.append([{"rows": [(p, a, l1), (p, a, l2)], "spdc": []}
                             for p, a, l1, l2 in block])
    else:
        vetted = json.loads((BENCH / "mc_seeds.json").read_text())
        if (vetted["samples"], vetted["chain_samples"], vetted["held_samples"]) != (
                MC_SAMPLES, MC_CHAIN_SAMPLES, HELD_SAMPLES):
            raise SystemExit("bench/mc_seeds.json is stale: run bench/vet_mc_seeds.py")
        vetted = vetted["seeds"]
        order = rng.sample(vetted, len(vetted))
        for k in range(MAX_PASSES + 1):
            base = order[k % len(order)]
            passes.append([
                cli("mc-validate", "--samples", MC_SAMPLES, "--chain-samples",
                    MC_CHAIN_SAMPLES, "--seed", base),
                dict(kind="held_chain", seed=base + 2000, samples=HELD_SAMPLES,
                     **HELD_POINT)])
            expected.append([{"mc_validate": True}, {"held_chain": True}])
    return passes[:-1], expected[:-1], passes[-1]


def run_worker(spec: dict, timeout: float | None = CHILD_TIMEOUT_S) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("set-up process failed")
        times.append(float(proc.stdout.strip()))
    return times


def check_reply(reply: dict, want: dict) -> tuple[list[str], float, int, int]:
    """(problems, worst relative error of Q, optimized rows, zero-rate rows)."""
    if reply["code"] != 0:
        return [f"exit code {reply['code']}: {reply.get('stderr', '').strip()[-300:]}"], \
            0.0, 0, 0
    if "rows" in want:
        problems, worst = reference.check_optimized_output(
            reply["stdout"], want["rows"], want["spdc"])
        rows = reference.parse_csv(reply["stdout"])[:len(want["rows"])]
        zero = sum(float(r["Q_ebit_per_s_per_node"]) == 0.0 for r in rows)
        return problems, worst, len(rows), zero
    if "mc_validate" in want:
        rows = reference.parse_csv(reply["stdout"])
        if len(rows) != MC_VALIDATE_ROWS or any(r["passed"] != "true" for r in rows):
            return [f"mc-validate table: {rows}"], 0.0, 0, 0
        return [], 0.0, 0, 0
    _, t_tot, _, _ = reference.chain_curve("WV-MUX-QM", "semihierarchical",
                                           HELD_POINT["l_km"])
    analytic = t_tot[HELD_POINT["n_nodes"] - 2]
    if reply["samples_used"] != HELD_SAMPLES or \
            abs(reply["t_tot_us"] - analytic) > 3.0 * reply["std_error"]:
        return [f"held chain T_tot {reply['t_tot_us']} +- {reply['std_error']} "
                f"vs analytic {analytic}"], 0.0, 0, 0
    return [], 0.0, 0, 0


def check_passes(done: list, expected: list) -> dict:
    tally = {"attempted": 0, "failed": 0, "q_rel_err_max": 0.0, "rows": 0,
             "zero_rows": 0, "problems": []}
    for replies, wants in zip(done, expected):
        for reply, want in zip(replies, wants):
            problems, worst, rows, zero = check_reply(reply, want)
            tally["attempted"] += 1
            tally["failed"] += bool(problems)
            tally["q_rel_err_max"] = max(tally["q_rel_err_max"], worst)
            tally["rows"] += rows
            tally["zero_rows"] += zero
            tally["problems"] += problems
    return tally


def pass_points(workload: str, n_passes: int) -> int:
    per_pass = {"sweep_spectral": 10 * len(SWEEP_PLATFORMS) * len(ARCHS),
                "optimize_stream": 2 * sum(STREAM_BLOCK.values()),
                "mc_check": MC_VALIDATE_ROWS + 1}[workload]
    return per_pass * n_passes


def end_to_end(workload: str, result: dict, setup: list[float]) -> dict:
    passes = result["passes"]
    pass_s = [sum(r["seconds"] for r in p) for p in passes]
    busy = sum(pass_s)
    if workload == "optimize_stream":
        request_s = [r["seconds"] for p in passes for r in p]
    else:
        request_s = pass_s
    points = pass_points(workload, len(passes))
    if workload == "mc_check":
        trials = len(passes) * (MC_CELLS * MC_SAMPLES + MC_CHAIN_SAMPLES + HELD_SAMPLES)
    else:
        trials = points * (reference.N_MAX - 1)
    p50, p90 = np.percentile(request_s, [50, 90])
    metrics = {
        "setup_s": (float(np.median(setup)), "s"),
        "wall_s": (float(np.median(pass_s)), "s"),
        "points_per_s": (points / busy, "1/s"),
        "trials_per_s": (trials / busy, "1/s"),
        "request_s_p50": (float(p50), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, {"request_s_p90": float(p90), "requests": len(request_s)}


def per_layer(traced: dict, untraced_s: float, tally: dict) -> dict:
    """Per-layer metrics, each per traced pass."""
    trace = traced["trace"]
    n = len(traced["passes"])
    traced_s = sum(r["seconds"] for p in traced["passes"] for r in p)
    fns, counts = trace["functions"], trace["counts"]

    def fn(name, i):
        return fns.get(name, [0, 0.0, 0.0])[i]

    def ratio(num, den):
        return num / den if den else 0.0

    ef_calls = fn("werner.average_ef", 0)
    emr_calls = fn("chain.expected_max_rounds", 0)
    m = {}
    for name in ("modes.weighted_average", "werner.average_ef",
                 "werner.entanglement_of_formation", "link.visibility_at",
                 "chain.chain_time", "chain.mean_entanglement", "link.link_budget",
                 "sweep.optimize_nodes", "chain.expected_max_rounds",
                 "montecarlo.mc_expected_max_rounds", "montecarlo.mc_chain_time",
                 "cli.run"):
        m[f"{name}.self_s"] = (fn(name, 2) / n, "s")
    for name in ("werner.average_ef", "chain.chain_time", "link.link_budget",
                 "sweep.optimize_nodes", "chain.expected_max_rounds"):
        m[f"{name}.calls"] = (fn(name, 0) / n, "count")
    m.update({
        "modes.quad_nodes": (counts.get("modes.quad_nodes", 0.0) / n, "count"),
        "werner.average_ef.distinct_frac": (
            ratio(counts["werner.average_ef.distinct"], ef_calls), "fraction"),
        "sweep.evals_per_point": (
            ratio(fn("chain.chain_time", 0), fn("sweep.optimize_nodes", 0)), "count"),
        "sweep.zero_rate_frac": (ratio(tally["zero_rows"], tally["rows"]), "fraction"),
        "chain.expected_max_rounds.asymptotic_frac": (
            ratio(counts.get("chain.expected_max_rounds.asymptotic", 0.0), emr_calls),
            "fraction"),
        "montecarlo.trials": (counts.get("montecarlo.trials", 0.0) / n, "count"),
        "montecarlo.draws": (counts.get("montecarlo.draws", 0.0) / n, "count_computed"),
        "serialize.self_s": (sum(v[2] for k, v in fns.items()
                                 if k.startswith("serialize.")) / n, "s"),
        "serialize.bytes_out": (counts.get("serialize.bytes_out", 0.0) / n, "bytes"),
        "params.load_config.s": (fn("params.load_config", 1) / n, "s"),
        "trace.unattributed_frac": (1.0 - trace["top_s"] / traced_s, "fraction"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
        "package.src_lines": (float(sum(
            len(f.read_text(encoding="utf-8").splitlines())
            for f in sorted((SRC / "muxrepeater").glob("*.py")))), "lines"),
        "package.all_size": (float(traced["all_size"]), "count"),
    })
    return m


def chain_calls_note(workload: str, traced: dict) -> str:
    """Tracer self-check: each optimized point makes n_max - 1 chain calls.

    It holds for the scalar chain model; a change that evaluates many node
    counts per call breaks it without any output being wrong, so it is
    reported, not counted as a failure.
    """
    points = pass_points(workload, len(traced["passes"]))
    got = traced["trace"]["functions"].get("chain.chain_time", [0])[0]
    want = points * (reference.N_MAX - 1)
    verdict = "holds" if got == want else "DOES NOT HOLD"
    return (f"self-check {verdict}: chain.chain_time.calls = {got}, "
            f"points x (n_max - 1) = {points} x {reference.N_MAX - 1} = {want}")


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "muxrepeater" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    passes, expected, warmup = generate(args.workload, args.seed)
    spec = {"passes": passes, "warmup": warmup, "max_passes": len(passes)}
    if args.trace:
        untraced = run_worker(dict(spec, trace=False, seconds=args.seconds / 2))
        n = len(untraced["passes"])
        traced = run_worker(dict(spec, trace=True, seconds=math.inf, max_passes=n))
        tally = check_passes(untraced["passes"] + traced["passes"],
                             expected[:n] + expected[:n])
        untraced_s = sum(r["seconds"] for p in untraced["passes"] for r in p)
        metrics = per_layer(traced, untraced_s, tally)
        result = traced
    else:
        setup = measure_setup()
        result = run_worker(dict(spec, trace=False, seconds=args.seconds))
        setup += measure_setup()
        tally = check_passes(result["passes"], expected)
        metrics, latency = end_to_end(args.workload, result, setup)

    n = len(result["passes"])
    inputs = [[r.get("argv", r) for r in p] for p in passes[:n]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": n, "inputs": inputs,
              "python": result["python"], "numpy": result["numpy"],
              "thread_env": {var: "1" for var in THREAD_VARS}, **machine()}
    correct = not tally["problems"]
    print(f"workload {args.workload}  seed {args.seed}  passes {n}  "
          f"requests {tally['attempted']}  failed {tally['failed']}")
    for problem in tally["problems"][:20]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    if not args.trace:
        # reported, not gated: see bench/README.md
        print(f"  {'request_s_p90':45s} {latency['request_s_p90']:.6g} s"
              f"  (p50 and p90 of {latency['requests']} requests)")
        rel = f"{tally['q_rel_err_max']:.3g}" if tally["rows"] else "n/a"
        print(f"  {'q_rel_err_max':45s} {rel}")
        print(f"  {'failed_fraction':45s} {tally['failed'] / tally['attempted']:.6g}")
    else:
        if args.workload != "mc_check":
            print(f"  {chain_calls_note(args.workload, result)}")
        for name, (calls, total, self_s) in sorted(result["trace"]["functions"].items()):
            print(f"  fn {name:42s} calls {calls / n:10.1f}  total {total / n:.4f} s"
                  f"  self {self_s / n:.4f} s  (per pass)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": tally["attempted"], "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
