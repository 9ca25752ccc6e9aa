"""Self-tests of the benchmark's own checks; exits non-zero on any failure.

    python3 bench/selftest.py

1. Real optimize outputs pass the reference check, and the same outputs
   with one corrupted N*, Q or zero-rate row are each counted as failed.
2. The tracer sees every chain evaluation: a traced default rate-curve
   (10 L x 4 platforms x 2 architectures, N = 2..200) makes exactly
   80 x 199 = 15,920 calls to chain.chain_time.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import reference
import run

REQUESTS = (
    # spectral platform, both grid points optimized at N > 2
    ("WV-MUX-QM", "semihierarchical", 300.0, 700.0),
    # fixed lifetime past the storage threshold: zero-rate rows
    ("Temporal", "semihierarchical", 400.0, 600.0),
)


def corrupt(text: str, field: str, change) -> str:
    rows = reference.parse_csv(text)
    rows[0][field] = change(rows[0][field])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def failed(reply: dict, want: dict) -> int:
    return run.check_passes([[reply]], [[want]])["failed"]


def check_corruption() -> list[str]:
    passes = [[run.cli("optimize", "--grid", f"{l1}:{l2}:2", "--platform", p,
                       "--arch", a)] for p, a, l1, l2 in REQUESTS]
    result = run.run_worker({"passes": passes, "warmup": [], "trace": False,
                             "seconds": math.inf, "max_passes": len(passes)})
    (spectral,), (zero,) = result["passes"]
    want_spectral, want_zero = ({"rows": [(p, a, l1), (p, a, l2)], "spdc": []}
                                for p, a, l1, l2 in REQUESTS)
    cases = [
        ("genuine spectral output", spectral, want_spectral, 0),
        ("genuine zero-rate output", zero, want_zero, 0),
        ("N* off by one", dict(spectral, stdout=corrupt(
            spectral["stdout"], "N", lambda v: str(int(v) + 1))), want_spectral, 1),
        ("Q off by 1e-3", dict(spectral, stdout=corrupt(
            spectral["stdout"], "Q_ebit_per_s_per_node",
            lambda v: repr(float(v) * 1.001))), want_spectral, 1),
        ("zero-rate row reported with rate", dict(zero, stdout=corrupt(
            zero["stdout"], "Q_ebit_per_s_per_node", lambda v: "1e-12")), want_zero, 1),
        ("zero-rate row at N=3", dict(zero, stdout=corrupt(
            zero["stdout"], "N", lambda v: "3")), want_zero, 1),
        ("nonzero optimum reported as zero", dict(spectral, stdout=corrupt(
            spectral["stdout"], "Q_ebit_per_s_per_node", lambda v: "0")),
         want_spectral, 1),
    ]
    problems = []
    for label, reply, want, expect in cases:
        got = failed(reply, want)
        print(f"{'ok  ' if got == expect else 'FAIL'} {label}: failed {got}, expected {expect}")
        if got != expect:
            problems.append(label)
    zero_rows = reference.parse_csv(zero["stdout"])
    if any(float(r["Q_ebit_per_s_per_node"]) != 0.0 for r in zero_rows):
        problems.append("the zero-rate request no longer yields zero-rate rows")
    return problems


def check_trace_count() -> list[str]:
    result = run.run_worker({"passes": [[run.cli("rate-curve")]], "warmup": [],
                             "trace": True, "seconds": math.inf, "max_passes": 1})
    calls = result["trace"]["functions"]["chain.chain_time"][0]
    ok = calls == 15_920 and result["passes"][0][0]["code"] == 0
    print(f"{'ok  ' if ok else 'FAIL'} traced default rate-curve: "
          f"chain.chain_time.calls = {calls}, expected 15920")
    return [] if ok else ["chain.chain_time count"]


def main() -> int:
    problems = check_corruption() + check_trace_count()
    print("selftest passed" if not problems else f"selftest FAILED: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
