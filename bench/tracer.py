"""Out-of-package tracer: wraps the public functions of each module.

Every module-level function whose name does not start with ``_`` and that a
``muxrepeater`` module defines is replaced by a timing wrapper in every
namespace that holds it, including aliases such as ``cli.sweep_grid`` and
names imported into other modules (``sweep.chain_time``,
``montecarlo.mean_entanglement``).  Modules come from ``sys.modules``: the
package attribute ``muxrepeater.sweep`` is the function ``sweep``, not the
module, because ``__init__`` re-exports it.

Spans are aggregated per function as calls, inclusive time and self time
(inclusive time minus the time of wrapped callees), so memory stays flat.
A few functions also record counts derived from their arguments.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "params", "sweep", "chain", "link", "werner", "modes",
          "montecarlo", "serialize")


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}
        self.ef_keys: set = set()
        self.top_s = 0.0          # time inside outermost spans
        self._child: list[float] = []

    def _count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(self, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - inner
                if child:
                    child[-1] += dt
                else:
                    self.top_s += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and rebind it wherever it is bound."""
        modules = {name: sys.modules[f"muxrepeater.{name}"] for name in LAYERS}
        hooks = _hooks(self, modules)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "muxrepeater" or n.startswith("muxrepeater.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, bound, wrapper)

    def report(self) -> dict:
        return {
            "functions": {k: [s.calls, s.total_s, s.self_s]
                          for k, s in self.stats.items() if s.calls},
            "counts": dict(self.counts, **{
                "werner.average_ef.distinct": len(self.ef_keys)}),
            "top_s": self.top_s,
        }


def _arguments(fn):
    bind = inspect.signature(fn).bind
    return lambda args, kwargs: bind(*args, **kwargs).arguments


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Counters computed from the arguments (and results) of some calls."""
    count = tracer._count
    chain, werner, mc = modules["chain"], modules["werner"], modules["montecarlo"]
    p_enc_stage, p_enc_chain = chain.p_enc_stage, chain.p_enc_chain
    ef_args = _arguments(werner.average_ef)
    max_args = _arguments(chain.expected_max_rounds)
    mc_max_args = _arguments(mc.mc_expected_max_rounds)
    mc_chain_args = _arguments(mc.mc_chain_time)

    def weighted_average(args, kwargs, result):
        space = args[0] if args else kwargs["space"]
        count("modes.quad_nodes", space.grid_points)

    def average_ef(args, kwargs, result):
        a = ef_args(args, kwargs)
        tracer.ef_keys.add((a["t_us"], a["chi_eff"], a.get("links", 1)))

    def expected_max_rounds(args, kwargs, result):
        a = max_args(args, kwargs)
        m, p = a["m"], a["p"]
        # branch order of expected_max_rounds: p == 1, m == 1, then p < 1e-3
        if p < 1.0 and m > 1 and p < 1e-3:
            count("chain.expected_max_rounds.asymptotic", 1)

    def mc_expected_max_rounds(args, kwargs, result):
        a = mc_max_args(args, kwargs)
        count("montecarlo.trials", result.samples_used)
        count("montecarlo.draws", a["cfg"].samples * a["n_links"])

    def mc_chain_time(args, kwargs, result):
        a = mc_chain_args(args, kwargs)
        samples = a["cfg"].samples
        count("montecarlo.trials", result.t_tot_us.samples_used)
        if a["architecture"] == "ahierarchical":
            count("montecarlo.draws", samples)
            return
        # held protocol: one geometric pass count per trial, then N-1 link
        # draws per pass; passes per trial average 1/q (expected, not exact)
        platform, n = a["platform"], a["n_nodes"]
        eta_det = platform.enc_detector_efficiency
        p_e, p_f = p_enc_stage(platform.eta_r, eta_det)
        q = p_enc_chain(p_f, p_e, platform.eta_x, n) * (eta_det * platform.eta_x) ** 2
        count("montecarlo.draws", samples * (1.0 + (n - 1) / q))

    def text_out(args, kwargs, result):
        count("serialize.bytes_out", len(result.encode("utf-8")))

    return {
        "modes.weighted_average": weighted_average,
        "werner.average_ef": average_ef,
        "chain.expected_max_rounds": expected_max_rounds,
        "montecarlo.mc_expected_max_rounds": mc_expected_max_rounds,
        "montecarlo.mc_chain_time": mc_chain_time,
        "serialize.csv_text": text_out,
        "serialize.json_text": text_out,
    }
