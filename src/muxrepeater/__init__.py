"""Rate modeling and optimization for multiplexed quantum-memory repeater chains.

Analytic model of entanglement-distribution rates over repeater chains built
from multimode quantum memories, with a round-level Monte Carlo engine as an
independent cross-check, a node-count optimizer for the per-node ebit rate,
and a deterministic CSV/JSON sweep CLI.
"""

from .chain import (
    ARCHITECTURES,
    ChainPlan,
    RangeLimits,
    chain_time,
    expected_max_rounds,
    mean_entanglement,
    p_enc_chain,
    p_enc_stage,
    range_limits,
    spdc_time,
)
from .link import (
    LinkBudget,
    link_budget,
    p_eng,
    p_single,
    transmission,
    visibility_at,
)
from .modes import (
    ModeSpace,
    gamma_from_temperature,
    mode_count,
    mode_measure,
    round_to_one_digit,
    tau_of_k,
)
from .montecarlo import (
    ChainMcResult,
    McConfig,
    McEstimate,
    SimulationBudgetError,
    mc_chain_time,
    mc_expected_max_rounds,
)
from .params import (
    ConfigError,
    ModeSpaceParams,
    NoiseParams,
    ParameterBundle,
    PhysicalConstants,
    PlatformParams,
    SpdcParams,
    builtin_platforms,
    default_bundle,
    dump_config,
    load_config,
    parse_config,
)
from .sweep import sweep
from .werner import average_ef, concurrence, ef_of_mode, entanglement_of_formation

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES",
    "ChainMcResult",
    "ChainPlan",
    "ConfigError",
    "LinkBudget",
    "McConfig",
    "McEstimate",
    "ModeSpace",
    "ModeSpaceParams",
    "NoiseParams",
    "ParameterBundle",
    "PhysicalConstants",
    "PlatformParams",
    "RangeLimits",
    "SimulationBudgetError",
    "SpdcParams",
    "average_ef",
    "builtin_platforms",
    "chain_time",
    "concurrence",
    "default_bundle",
    "dump_config",
    "ef_of_mode",
    "entanglement_of_formation",
    "expected_max_rounds",
    "gamma_from_temperature",
    "link_budget",
    "load_config",
    "mc_chain_time",
    "mc_expected_max_rounds",
    "mean_entanglement",
    "mode_count",
    "mode_measure",
    "p_enc_chain",
    "p_enc_stage",
    "p_eng",
    "p_single",
    "parse_config",
    "range_limits",
    "round_to_one_digit",
    "spdc_time",
    "sweep",
    "tau_of_k",
    "transmission",
    "visibility_at",
]
