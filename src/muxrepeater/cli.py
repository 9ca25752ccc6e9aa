"""Command-line front end: config in, deterministic CSV/JSON data out.

Subcommands emit the data behind the standard analysis views (elementary
link success, ebit content versus distance, per-ebit transfer time, node
optimization, reach limits, the midway-source baseline) plus an
analytic-versus-Monte-Carlo validation table.  Plotting is left to external
tooling; identical invocations produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 config error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import chain, montecarlo, serialize
from .link import link_budget
from .modes import ModeSpace
from .params import ConfigError, ParameterBundle, load_config
from .sweep import optimize_nodes, sweep as sweep_grid
from .werner import average_ef, ef_of_mode

# (column, ChainPlan field): the one source of record header and row order
_RECORD_COLUMNS = (
    ("platform", "platform"), ("architecture", "architecture"),
    ("L_km", "l_km"), ("N", "n_nodes"), ("L0_km", "l0_km"), ("p1", "p1"),
    ("p_g", "p_g"), ("P_ENG", "p_eng"), ("P_ENC", "p_enc"),
    ("mean_EF", "mean_ef"), ("T_tot_s", "t_tot_s"),
    ("R_ebit_per_s", "rate_ebit_per_s"),
    ("Q_ebit_per_s_per_node", "q_ebit_per_s_per_node"),
    ("T_per_ebit_s", "t_per_ebit_s"),
)
_RECORD_HEADER = tuple(column for column, _ in _RECORD_COLUMNS)

_MC_GRID_NODES = (2, 5, 10, 50)
_MC_GRID_PROBS = (0.01, 0.1, 0.5, 0.9)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            "grid must be start:stop:points[:linear|log]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc
    scale = parts[3] if len(parts) == 4 else "linear"
    if scale not in ("linear", "log"):
        raise argparse.ArgumentTypeError("grid scale must be linear or log")
    if points < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points")
    if not start < stop:
        raise argparse.ArgumentTypeError("grid start must be below stop")
    if scale == "log":
        if start <= 0:
            raise argparse.ArgumentTypeError("log grid needs start > 0")
        return [float(x) for x in np.geomspace(start, stop, points)]
    return [float(x) for x in np.linspace(start, stop, points)]


def _parse_name_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return names


def _parse_arch_list(text: str) -> list[str]:
    names = _parse_name_list(text)
    for name in names:
        if name not in chain.ARCHITECTURES:
            raise argparse.ArgumentTypeError(
                f"unknown architecture {name!r}; choose from "
                f"{', '.join(chain.ARCHITECTURES)}")
    return names


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list: {exc}") from exc
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("expected positive numbers")
    return values


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number: {exc}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError("expected a positive number")
    return value


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer: {exc}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}")
        return value
    return parse


def _parse_n_nodes(text: str) -> int | None:
    if text.lower() in ("inf", "infinity"):
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad node count: {exc}") from exc
    if value < 2:
        raise argparse.ArgumentTypeError("node count must be >= 2 or 'inf'")
    return value


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="JSON config file (defaults apply when omitted)")
    sub.add_argument("--output", "-o", default=None, metavar="PATH",
                     help="output file (stdout when omitted)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _emit(args, header, rows) -> None:
    if args.format == "csv":
        text = serialize.csv_text(header, rows)
    else:
        text = serialize.json_text([dict(zip(header, row)) for row in rows])
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _bundle_and_space(args) -> tuple[ParameterBundle, ModeSpace]:
    bundle = load_config(args.config)
    return bundle, ModeSpace.from_params(bundle.mode_space, bundle.constants)


def _selected_platforms(bundle: ParameterBundle, names):
    return [bundle.platform(name) for name in names]


def _record_row(record: chain.ChainPlan) -> tuple:
    return tuple(getattr(record, field) for _, field in _RECORD_COLUMNS)


def _z_score(analytic: float, estimate: montecarlo.McEstimate) -> float:
    """|analytic - mean| in standard errors; 0 or inf at zero error."""
    diff = abs(analytic - estimate.mean)
    if estimate.std_error > 0:
        return diff / estimate.std_error
    return 0.0 if diff == 0.0 else math.inf


def _cmd_presets(args) -> int:
    bundle, _ = _bundle_and_space(args)
    header = ("name", "M", "chi", "tau_ms", "eta_x", "eta_r", "eta_s",
              "eta_m", "multiplexed", "enc_detection", "decoherence")
    rows = [(p.name, p.modes, p.chi, p.tau_ms, p.eta_x, p.eta_r, p.eta_s,
             p.eta_m, p.multiplexed, p.enc_detection, p.decoherence)
            for p in bundle.platforms]
    _emit(args, header, rows)
    return 0


def _cmd_pg_curve(args) -> int:
    bundle, _ = _bundle_and_space(args)
    platforms = _selected_platforms(bundle, args.platforms)
    rows = []
    for l0 in args.grid:
        for platform in platforms:
            budget = link_budget(platform, l0, bundle.constants)
            rows.append((l0, platform.name, budget.p_g))
    _emit(args, ("L0_km", "platform", "p_g"), rows)
    return 0


def _cmd_ef_curve(args) -> int:
    bundle, space = _bundle_and_space(args)
    rows = []
    for l0 in args.grid:
        t_us = l0 / bundle.constants.c
        for k in args.modes:
            rows.append((l0, t_us, f"K={k:g}", float(ef_of_mode(k, t_us,
                                                                args.chi, space))))
        rows.append((l0, t_us, "average", average_ef(space, t_us, args.chi)))
    _emit(args, ("L0_km", "t_us", "series", "E_F"), rows)
    return 0


def _cmd_rate_curve(args) -> int:
    bundle, space = _bundle_and_space(args)
    platforms = _selected_platforms(bundle, args.platforms)
    records = sweep_grid(args.grid, platforms, args.archs, bundle.constants,
                          space, bundle.noise, range(2, args.n_max + 1),
                          waiting_count=args.waiting_count)
    rows = [_record_row(r) for r in records]
    if not args.no_spdc:
        for l_km in args.grid:
            t_us = chain.spdc_time(l_km, bundle.spdc, bundle.constants)
            t_s = t_us * 1e-6
            rate = 1.0 / t_s if math.isfinite(t_s) and t_s > 0 else 0.0
            spdc = {"platform": "SPDC", "architecture": "direct",
                    "L_km": l_km, "mean_EF": 1.0, "T_tot_s": t_s,
                    "R_ebit_per_s": rate, "T_per_ebit_s": t_s}
            rows.append(tuple(spdc.get(column) for column in _RECORD_HEADER))
    _emit(args, _RECORD_HEADER, rows)
    return 0


def _cmd_optimize(args) -> int:
    bundle, space = _bundle_and_space(args)
    platform = bundle.platform(args.platform)
    rows = []
    for l_km in args.grid:
        _, record = optimize_nodes(
            l_km, platform, args.arch, bundle.constants, space, bundle.noise,
            range(2, args.n_max + 1), waiting_count=args.waiting_count)
        rows.append(_record_row(record))
    _emit(args, _RECORD_HEADER, rows)
    return 0


def _cmd_limits(args) -> int:
    bundle, space = _bundle_and_space(args)
    header = ("platform", "k_ref_inv_mm", "tau_us", "chi",
              "L0_max_ahier_km", "L_max_semihier_km")
    rows = []
    for platform in bundle.platforms:
        limits = chain.range_limits(platform, space, args.k_ref, args.n_nodes,
                                    bundle.constants)
        rows.append((platform.name, limits.k_ref_inv_mm, limits.tau_us,
                     platform.chi, limits.l0_max_ahier_km,
                     limits.l_max_semihier_km))
    _emit(args, header, rows)
    return 0


def _cmd_spdc(args) -> int:
    bundle, _ = _bundle_and_space(args)
    rows = []
    for l_km in args.grid:
        t_s = chain.spdc_time(l_km, bundle.spdc, bundle.constants) * 1e-6
        rows.append((l_km, t_s))
    _emit(args, ("L_km", "T_per_ebit_s"), rows)
    return 0


def _cmd_mc_validate(args) -> int:
    bundle, space = _bundle_and_space(args)
    header = ("check", "n_nodes", "p_g", "analytic", "mc_mean",
              "mc_std_error", "z_score", "passed")
    rows = []
    all_passed = True
    cell = 0
    for n_nodes in _MC_GRID_NODES:
        for p_g in _MC_GRID_PROBS:
            cfg = montecarlo.McConfig(samples=args.samples,
                                      seed=args.seed + cell)
            racers = n_nodes - 1 if args.waiting_count == "links" else n_nodes
            estimate = montecarlo.mc_expected_max_rounds(racers, p_g, cfg)
            analytic = chain.expected_max_rounds(racers, p_g)
            z = _z_score(analytic, estimate)
            passed = z <= 3.0
            all_passed &= passed
            rows.append(("waiting_rounds", n_nodes, p_g, analytic,
                         estimate.mean, estimate.std_error, z, passed))
            cell += 1
    if args.chain_samples > 0:
        platform = bundle.platform("WV-MUX-QM")
        plan = chain.chain_time("ahierarchical", platform, 5, 550.0,
                                bundle.constants, space, bundle.noise)
        cfg = montecarlo.McConfig(samples=args.chain_samples,
                                  seed=args.seed + 1000)
        result = montecarlo.mc_chain_time("ahierarchical", platform, 5, 550.0,
                                          bundle.constants, space, cfg,
                                          bundle.noise)
        z = _z_score(plan.t_tot_us, result.t_tot_us)
        passed = z <= 3.0
        all_passed &= passed
        rows.append(("chain_t_tot_us", 5, plan.p_g, plan.t_tot_us,
                     result.t_tot_us.mean, result.t_tot_us.std_error, z,
                     passed))
    _emit(args, header, rows)
    return 0 if all_passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxrepeater",
        description="Rate modeling for multiplexed quantum-memory repeater chains")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("presets", help="dump the platform parameter table")
    _add_io_options(sub)
    sub.set_defaults(func=_cmd_presets)

    sub = subparsers.add_parser(
        "pg-curve", help="link heralding probability versus elementary distance")
    _add_io_options(sub)
    sub.add_argument("--grid", type=_parse_grid, default=_parse_grid("10:250:100"),
                     metavar="L0_START:STOP:POINTS[:SCALE]")
    sub.add_argument("--platforms", type=_parse_name_list,
                     default=["WV-MUX-QM", "WV-parallel", "Temporal"])
    sub.set_defaults(func=_cmd_pg_curve)

    sub = subparsers.add_parser(
        "ef-curve", help="per-mode and mode-averaged ebit content versus distance")
    _add_io_options(sub)
    sub.add_argument("--grid", type=_parse_grid, default=_parse_grid("10:400:100"),
                     metavar="L0_START:STOP:POINTS[:SCALE]")
    sub.add_argument("--modes", type=_parse_float_list, default=[10.0, 100.0, 1000.0],
                     help="wavevector moduli (1/mm) to trace individually")
    sub.add_argument("--chi", type=_positive_float, default=0.05,
                     help="effective excitation probability")
    sub.set_defaults(func=_cmd_ef_curve)

    sub = subparsers.add_parser(
        "rate-curve", help="optimized per-ebit transfer time versus total distance")
    _add_io_options(sub)
    sub.add_argument("--grid", type=_parse_grid, default=_parse_grid("100:1000:10"),
                     metavar="L_START:STOP:POINTS[:SCALE]")
    sub.add_argument("--platforms", type=_parse_name_list,
                     default=["WV-MUX-QM", "WV-parallel", "Temporal", "Lattice-SM"])
    sub.add_argument("--archs", type=_parse_arch_list,
                     default=["ahierarchical", "semihierarchical"])
    sub.add_argument("--n-max", type=_int_at_least(2), default=200)
    sub.add_argument("--waiting-count", choices=chain.WAITING_COUNTS,
                     default="links")
    sub.add_argument("--no-spdc", action="store_true",
                     help="omit the midway-source baseline rows")
    sub.set_defaults(func=_cmd_rate_curve)

    sub = subparsers.add_parser(
        "optimize", help="optimal node count and full record per total distance")
    _add_io_options(sub)
    sub.add_argument("--grid", type=_parse_grid, default=_parse_grid("100:1000:10"),
                     metavar="L_START:STOP:POINTS[:SCALE]")
    sub.add_argument("--platform", default="WV-MUX-QM")
    sub.add_argument("--arch", choices=chain.ARCHITECTURES,
                     default="ahierarchical")
    sub.add_argument("--n-max", type=_int_at_least(2), default=200)
    sub.add_argument("--waiting-count", choices=chain.WAITING_COUNTS,
                     default="links")
    sub.set_defaults(func=_cmd_optimize)

    sub = subparsers.add_parser(
        "limits", help="maximal reach per platform from the entanglement threshold")
    _add_io_options(sub)
    sub.add_argument("--k-ref", type=_positive_float, default=10.0,
                     help="reference wavevector (1/mm) for mode-dependent lifetimes")
    sub.add_argument("--n-nodes", type=_parse_n_nodes, default=None,
                     help="node count for the held-architecture bound ('inf' default)")
    sub.set_defaults(func=_cmd_limits)

    sub = subparsers.add_parser(
        "spdc", help="per-ebit time of the midway-source baseline")
    _add_io_options(sub)
    sub.add_argument("--grid", type=_parse_grid, default=_parse_grid("100:1000:10"),
                     metavar="L_START:STOP:POINTS[:SCALE]")
    sub.set_defaults(func=_cmd_spdc)

    sub = subparsers.add_parser(
        "mc-validate", help="analytic versus Monte Carlo comparison table")
    _add_io_options(sub)
    sub.add_argument("--samples", type=_int_at_least(1), default=1_000_000)
    sub.add_argument("--seed", type=int, default=42,
                     help="base seed; cell i uses seed+i, the chain check seed+1000")
    sub.add_argument("--chain-samples", type=_int_at_least(0), default=100_000,
                     help="trials for the end-to-end chain check (0 skips it)")
    sub.add_argument("--waiting-count", choices=chain.WAITING_COUNTS,
                     default="links")
    sub.set_defaults(func=_cmd_mc_validate)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 3
    except montecarlo.SimulationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
