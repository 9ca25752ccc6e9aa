"""Write the exact Monte Carlo chain results, one repr line per run.

Usage: PYTHONPATH=CHECKOUT/src python -W error::RuntimeWarning \
           tools/mc_records.py OUTFILE

Runs ``mc_chain_time`` on the default config for both architectures and
both waiting counts at WV-MUX-QM (N = 5, 550 km) and (N = 3, 300 km), with
the config's read-out noise and ``McConfig(samples=3000, seed=s)`` for s in
2000..2049, and writes ``repr`` of each result.  It uses only the public
API, so it runs unchanged against any checkout on the path: two checkouts
sample identically exactly when their files compare equal with ``cmp``.
"""

import sys

from muxrepeater.chain import ARCHITECTURES, WAITING_COUNTS
from muxrepeater.modes import ModeSpace
from muxrepeater.montecarlo import McConfig, mc_chain_time
from muxrepeater.params import load_config

POINTS = ((5, 550.0), (3, 300.0))
SEEDS = range(2000, 2050)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: mc_records.py OUTFILE", file=sys.stderr)
        return 2
    bundle = load_config(None)
    space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
    wv = bundle.platform("WV-MUX-QM")
    with open(argv[0], "w", encoding="utf-8") as out:
        for architecture in ARCHITECTURES:
            for waiting_count in WAITING_COUNTS:
                for n_nodes, l_km in POINTS:
                    for seed in SEEDS:
                        result = mc_chain_time(
                            architecture, wv, n_nodes, l_km, bundle.constants,
                            space, McConfig(samples=3000, seed=seed),
                            bundle.noise, waiting_count)
                        out.write(repr(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
