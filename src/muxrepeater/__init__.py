"""Rate modeling and optimization for multiplexed quantum-memory repeater chains.

Analytic model of entanglement-distribution rates over repeater chains built
from multimode quantum memories, with a round-level Monte Carlo engine as an
independent cross-check, a node-count optimizer for the per-node ebit rate,
and a deterministic CSV/JSON sweep CLI.  The API lives in the modules
``params``, ``chain``, ``sweep``, ``montecarlo`` and ``cli``; the package
root exports nothing.
"""

__version__ = "0.1.0"

# kept empty: bench/worker.py reports len(__all__) as package.all_size
__all__: list[str] = []
