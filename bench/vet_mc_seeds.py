"""Regenerate bench/mc_seeds.json, the base seeds mc_check draws from.

Each mc_check pass makes 18 three-sigma tests (17 in mc-validate, one on the
held chain), so about one base seed in twenty fails by chance alone.  The
workload must not fail on correct code, so it only uses base seeds on which
all 18 pass.  Rerun this after a change to the Monte Carlo draw streams or
to the mc_check sample counts:

    python3 bench/vet_mc_seeds.py 80
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> None:
    candidates = [10_000 * k + 7 for k in range(1, int(sys.argv[1]) + 1)]
    passes = [[run.cli("mc-validate", "--samples", run.MC_SAMPLES, "--chain-samples",
                       run.MC_CHAIN_SAMPLES, "--seed", base),
               dict(kind="held_chain", seed=base + 2000, samples=run.HELD_SAMPLES,
                    **run.HELD_POINT)] for base in candidates]
    result = run.run_worker({"passes": passes, "warmup": [], "trace": False,
                             "seconds": math.inf, "max_passes": len(passes)},
                            timeout=None)
    seeds = []
    for base, replies in zip(candidates, result["passes"]):
        tally = run.check_passes([replies], [[{"mc_validate": True},
                                              {"held_chain": True}]])
        if tally["failed"]:
            print(f"seed {base} rejected: {tally['problems']}", file=sys.stderr)
        else:
            seeds.append(base)
    doc = {"samples": run.MC_SAMPLES, "chain_samples": run.MC_CHAIN_SAMPLES,
           "held_samples": run.HELD_SAMPLES, "candidates": len(candidates),
           "seeds": seeds}
    (run.BENCH / "mc_seeds.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(seeds)} of {len(candidates)} base seeds pass")


if __name__ == "__main__":
    main()
