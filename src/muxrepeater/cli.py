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
import os
import sys
from pathlib import Path

import numpy as np

from . import chain, montecarlo, serialize
from .link import link_budget
from .modes import ModeSpace, tau_of_k
from .params import ConfigError, load_config
from .sweep import sweep as sweep_grid
from .werner import average_ef, ef_of_mode, entanglement_of_formation

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


def _grid_points(text: str) -> list[float]:
    """Points of ``start:stop:points[:linear|log]``; ValueError if malformed.

    The range is checked before numpy runs and every point after it; numpy
    rejects a negative count and a log grid from 0.
    """
    start, stop, points, *scale = text.split(":")
    start, stop, points = float(start), float(stop), int(points)
    if scale not in ([], ["linear"], ["log"]) or not 0 <= start < stop < math.inf:
        raise ValueError(text)
    space = np.geomspace if scale == ["log"] else np.linspace
    with np.errstate(over="ignore"):
        values = [float(x) for x in space(start, stop, points)]
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def _bounded(parse, ok, expected: str):
    """An argparse type: ``parse(text)``, kept only when ``ok`` accepts it."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _comma_list(parse, ok, expected: str):
    """A :func:`_bounded` list: one or more non-blank comma-separated items."""
    return _bounded(
        lambda text: [parse(part) for part in text.split(",") if part.strip()],
        lambda items: bool(items) and all(map(ok, items)), expected)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _z_score(analytic: float, estimate: montecarlo.McEstimate) -> float:
    """|analytic - mean| in standard errors; 0 or inf at zero error."""
    diff = abs(analytic - estimate.mean)
    if estimate.std_error > 0:
        return diff / estimate.std_error
    return 0.0 if diff == 0.0 else math.inf


def _cmd_presets(args, bundle, space):
    header = ("name", "M", "chi", "tau_ms", "eta_x", "eta_r", "eta_s",
              "eta_m", "multiplexed", "enc_detection", "decoherence")
    rows = [(p.name, p.modes, p.chi, p.tau_ms, p.eta_x, p.eta_r, p.eta_s,
             p.eta_m, p.multiplexed, p.enc_detection, p.decoherence)
            for p in bundle.platforms]
    return header, rows


def _cmd_pg_curve(args, bundle, space):
    platforms = [bundle.platform(name) for name in args.platforms]
    rows = []
    for l0 in args.grid:
        for platform in platforms:
            budget = link_budget(platform, l0, bundle.constants)
            rows.append((l0, platform.name, budget.p_g))
    return ("L0_km", "platform", "p_g"), rows


def _cmd_ef_curve(args, bundle, space):
    for k in args.modes:
        if not tau_of_k(k, space.gamma) > 0:
            raise ConfigError(f"modes: the lifetime gamma/K underflows to 0 "
                              f"at K = {k:g} (gamma = {space.gamma:g} us/mm)")
    rows = []
    for l0 in args.grid:
        t_us = l0 / bundle.constants.c
        for k in args.modes:
            rows.append((l0, t_us, f"K={k:g}", float(ef_of_mode(k, t_us,
                                                                args.chi, space))))
        rows.append((l0, t_us, "average", average_ef(space, t_us, args.chi)))
    return ("L0_km", "t_us", "series", "E_F"), rows


def _spdc_rows(grid, bundle):
    """Midway-source baseline rows by record column; a pair carries ef ebit."""
    ef = float(entanglement_of_formation(bundle.spdc.visibility))
    for l_km in grid:
        t_pair_us = chain.spdc_time(l_km, bundle.spdc, bundle.constants)
        t_s = (t_pair_us / ef if ef > 0.0 else math.inf) * 1e-6
        yield {"platform": "SPDC", "architecture": "direct", "L_km": l_km,
               "mean_EF": ef, "T_tot_s": t_pair_us * 1e-6,
               "R_ebit_per_s": 1.0 / t_s, "T_per_ebit_s": t_s}


def _cmd_rate_curve(args, bundle, space):
    platforms = [bundle.platform(name) for name in args.platforms]
    records = sweep_grid(args.grid, platforms, args.archs, bundle.constants,
                         space, bundle.noise, args.n_max, args.waiting_count)
    rows = [tuple(getattr(record, field) for _, field in _RECORD_COLUMNS)
            for record in records]
    if not args.no_spdc:
        rows += [tuple(spdc.get(column) for column in _RECORD_HEADER)
                 for spdc in _spdc_rows(args.grid, bundle)]
    return _RECORD_HEADER, rows


def _cmd_limits(args, bundle, space):
    header = ("platform", "k_ref_inv_mm", "tau_us", "chi",
              "L0_max_ahier_km", "L_max_semihier_km")
    rows = []
    for platform in bundle.platforms:
        limits = chain.range_limits(platform, space, args.k_ref, args.n_nodes,
                                    bundle.constants, bundle.noise)
        rows.append((platform.name, limits.k_ref_inv_mm, limits.tau_us,
                     bundle.noise.effective_chi(platform),
                     limits.l0_max_ahier_km, limits.l_max_semihier_km))
    return header, rows


def _cmd_spdc(args, bundle, space):
    header = ("L_km", "T_per_ebit_s")
    rows = [tuple(spdc[column] for column in header)
            for spdc in _spdc_rows(args.grid, bundle)]
    return header, rows


def _cmd_mc_validate(args, bundle, space):
    # each cell owns its generator and numpy drops the GIL while drawing, so
    # threads change no byte; pool.map keeps row order and the first error
    from concurrent.futures import ThreadPoolExecutor

    header = ("check", "n_nodes", "p_g", "analytic", "mc_mean",
              "mc_std_error", "z_score", "passed")
    cells = []   # (n_nodes, p_g, racers, config); cell i uses seed + i
    for n_nodes in _MC_GRID_NODES:
        for p_g in _MC_GRID_PROBS:
            racers = chain._racers(n_nodes, args.waiting_count)
            cfg = montecarlo.McConfig(samples=args.samples,
                                      seed=args.seed + len(cells))
            cells.append((n_nodes, p_g, racers, cfg))
    with ThreadPoolExecutor(min(len(cells), _usable_cpus())) as pool:
        estimates = list(pool.map(
            lambda c: montecarlo.mc_expected_max_rounds(c[2], c[1], c[3]),
            cells))
    rows = []
    for (n_nodes, p_g, racers, _), estimate in zip(cells, estimates):
        analytic = chain.expected_max_rounds(racers, p_g)
        z = _z_score(analytic, estimate)
        rows.append(("waiting_rounds", n_nodes, p_g, analytic,
                     estimate.mean, estimate.std_error, z, z <= 3.0))
    if args.chain_samples > 0:
        cfg = montecarlo.McConfig(samples=args.chain_samples,
                                  seed=args.seed + 1000)
        result = montecarlo.mc_chain_time(
            "ahierarchical", bundle.platform("WV-MUX-QM"), 5, 550.0,
            bundle.constants, space, cfg, bundle.noise)
        plan = result.plan
        z = _z_score(plan.t_tot_us, result.t_tot_us)
        rows.append(("chain_t_tot_us", plan.n_nodes, plan.p_g, plan.t_tot_us,
                     result.t_tot_us.mean, result.t_tot_us.std_error, z,
                     z <= 3.0))
    return header, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxrepeater",
        description="Rate modeling for multiplexed quantum-memory repeater chains")
    subparsers = parser.add_subparsers(dest="command", required=True)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", default=None, metavar="PATH",
                    help="JSON config file (defaults apply when omitted)")
    io.add_argument("--output", "-o", default=None, metavar="PATH",
                    help="output file (stdout when omitted)")
    io.add_argument("--format", choices=("csv", "json"), default="csv")
    waiting = argparse.ArgumentParser(add_help=False)
    waiting.add_argument("--waiting-count", choices=chain.WAITING_COUNTS,
                         default="links")
    sweep_options = argparse.ArgumentParser(add_help=False)
    sweep_options.add_argument(
        "--grid", default="100:1000:10", metavar="L_START:STOP:POINTS[:SCALE]",
        type=_bounded(_grid_points, lambda g: len(g) >= 2 and g[0] > 0,
                      "start:stop:points[:linear|log] with at least 2 points, "
                      "all finite, and 0 < start < stop"))
    sweep_options.add_argument(
        "--n-max", type=_bounded(int, lambda n: n >= 2, "an integer >= 2"),
        default=200)
    sweep = [sweep_options, waiting]   # rate-curve and optimize
    names = _comma_list(str.strip, bool, "a comma-separated list of names")
    grid = _bounded(_grid_points, lambda g: len(g) >= 2,
                    "start:stop:points[:linear|log] with at least 2 points, "
                    "all finite, and 0 <= start < stop (start > 0 on a log "
                    "grid)")

    def command(name, func, help, parents=()):
        sub = subparsers.add_parser(name, parents=[io, *parents], help=help)
        sub.set_defaults(func=func)
        return sub

    command("presets", _cmd_presets, "dump the platform parameter table")

    sub = command("pg-curve", _cmd_pg_curve,
                  "link heralding probability versus elementary distance")
    sub.add_argument("--grid", type=grid, default="10:250:100",
                     metavar="L0_START:STOP:POINTS[:SCALE]")
    sub.add_argument("--platforms", type=names,
                     default=["WV-MUX-QM", "WV-parallel", "Temporal"])

    sub = command("ef-curve", _cmd_ef_curve,
                  "per-mode and mode-averaged ebit content versus distance")
    sub.add_argument("--grid", type=grid, default="10:400:100",
                     metavar="L0_START:STOP:POINTS[:SCALE]")
    sub.add_argument("--modes", default=[10.0, 100.0, 1000.0],
                     type=_comma_list(float, lambda k: 0 < k < math.inf,
                                      "positive finite numbers"),
                     help="wavevector moduli (1/mm) to trace individually")
    sub.add_argument("--chi", default=0.05,
                     type=_bounded(float, lambda chi: 0 < chi < 1,
                                   "a number in (0, 1)"),
                     help="effective excitation probability")

    sub = command("rate-curve", _cmd_rate_curve,
                  "optimized per-ebit transfer time versus total distance", sweep)
    sub.add_argument("--platforms", type=names,
                     default=["WV-MUX-QM", "WV-parallel", "Temporal", "Lattice-SM"])
    sub.add_argument("--archs", default=["ahierarchical", "semihierarchical"],
                     type=_comma_list(str.strip, lambda a: a in chain.ARCHITECTURES,
                                      f"names from {', '.join(chain.ARCHITECTURES)}"))
    sub.add_argument("--no-spdc", action="store_true",
                     help="omit the midway-source baseline rows")

    # optimize is rate-curve for one platform and one architecture, no SPDC
    sub = command("optimize", _cmd_rate_curve,
                  "optimal node count and full record per total distance", sweep)
    sub.add_argument("--platform", nargs=1, dest="platforms", metavar="PLATFORM",
                     default=["WV-MUX-QM"])
    sub.add_argument("--arch", nargs=1, dest="archs", choices=chain.ARCHITECTURES,
                     default=["ahierarchical"])
    sub.set_defaults(no_spdc=True)

    sub = command("limits", _cmd_limits,
                  "maximal reach per platform from the entanglement threshold")
    sub.add_argument("--k-ref", default=10.0,
                     type=_bounded(float, lambda k: 0 < k < math.inf,
                                   "a positive finite number"),
                     help="reference wavevector (1/mm) for mode-dependent lifetimes")
    # None stands for the many-node limit
    sub.add_argument(
        "--n-nodes", default=None,
        type=_bounded(lambda text: None if text.lower() in ("inf", "infinity")
                      else int(text), lambda n: n is None or n >= 2,
                      "inf or an integer >= 2"),
        help="node count for the held-architecture bound ('inf' default)")

    sub = command("spdc", _cmd_spdc, "per-ebit time of the midway-source baseline")
    sub.add_argument("--grid", type=grid, default="100:1000:10",
                     metavar="L_START:STOP:POINTS[:SCALE]")

    sub = command("mc-validate", _cmd_mc_validate,
                  "analytic versus Monte Carlo comparison table", [waiting])
    # one sample has no standard error, so no z-score
    sub.add_argument("--samples", default=1_000_000,
                     type=_bounded(int, lambda n: n >= 2, "an integer >= 2"))
    sub.add_argument("--seed", default=42,
                     type=_bounded(int, lambda n: n >= 0, "an integer >= 0"),
                     help="base seed; cell i uses seed+i, the chain check seed+1000")
    sub.add_argument("--chain-samples", default=100_000,
                     type=_bounded(int, lambda n: n == 0 or n >= 2,
                                   "0 or an integer >= 2"),
                     help="trials for the end-to-end chain check (0 skips it)")

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse, load the config, run one subcommand and write its table.

    Returns 4 when the table has a ``passed`` column with a false entry.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        bundle = load_config(args.config)
        space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
        header, rows = args.func(args, bundle, space)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except montecarlo.SimulationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    write = serialize.csv_text if args.format == "csv" else serialize.json_text
    text = write(header, rows)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if "passed" in header:
        column = header.index("passed")
        if not all(row[column] for row in rows):
            return 4
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
