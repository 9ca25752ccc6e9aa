"""Frozen reference evaluator and output checks for the benchmark.

This file does not import ``muxrepeater``: it re-derives the README model
from the default parameters, so a bug that the package and its own tests
share still shows here.  The spectral average integrates only up to the
entanglement cutoff K_c(t) = gamma*sqrt(ln(1/chi))/t, where the integrand has
its kink, with a 128-node Gauss-Legendre rule; that is accurate to about
1e-11 relative, far below the package's 4096-point trapezoid error.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

C_KM_PER_US = 0.2
ALPHA_DB_PER_KM = 0.2
K_MIN, K_MAX = 10.0, 1000.0   # 1/mm
GAMMA_US_MM = 1e5             # thermal constant rounded to one digit
N_MAX = 200

# name: (modes, chi, eta_r, eta_x, eta_s, eta_m, multiplexed, enc_detection,
#        tau_us or None for the mode-dependent lifetime gamma/K)
PLATFORMS = {
    "WV-MUX-QM": (5500, 0.05, 0.7, 0.9, 0.9, 0.2, True, "single_mode", None),
    "WV-parallel": (5500, 0.05, 0.7, 1.0, 0.9, 0.2, False, "multimode", None),
    "Temporal": (50, 0.47, 0.71, 1.0, 0.9, 0.9, False, "single_mode", 1e3),
    "Lattice-SM": (1, 0.05, 0.76, 1.0, 0.9, 0.9, False, "single_mode", 220e3),
}
SPDC = {"f_rep": 80.0, "chi": 0.01, "eta_s": 0.9}

# Relative tolerance on Q and mean_EF.  The package averages over modes with
# a 4096-point trapezoid rule that straddles the cutoff kink; against this
# reference its error grows with storage time, to 2.3e-5 relative at 6000 us
# (ROADMAP item 2 quotes 6.2e-6 at 3000 us); on the default rate-curve rows
# stretched to L = 1100 km the worst optimized row is off by 3.2e-5.  The
# tolerance leaves a factor of 3 above that.
REL_TOL = 1e-4

# Below this p the waiting-time series uses its Euler-Maclaurin limit
# H_m/lambda + 1/2; against the summed series its relative error is at most
# 5.6e-11 (p = 1e-2, m = 2) and shrinks with p.
_SERIES_MIN_P = 1e-2
_GL_X, _GL_W = np.polynomial.legendre.leggauss(128)


def _binary_entropy_ef(v: np.ndarray) -> np.ndarray:
    """Ebit content of a white-noise Bell mixture of visibility v."""
    c = np.clip((3.0 * v - 1.0) / 2.0, 0.0, 1.0)
    # y = (1 - sqrt(1 - C^2))/2, written without cancellation
    y = c * c / (2.0 * (1.0 + np.sqrt((1.0 - c) * (1.0 + c))))
    ef = np.zeros_like(y)
    pos = y > 0.0
    yp = y[pos]
    ef[pos] = -(1.0 - yp) * np.log2(1.0 - yp) - yp * np.log2(yp)
    return ef


def mean_ef(platform: str, t_us: np.ndarray) -> np.ndarray:
    """Delivered ebit content after storage times ``t_us`` (vectorized)."""
    _, chi, *_, tau_us = PLATFORMS[platform]
    t = np.atleast_1d(np.asarray(t_us, dtype=float))
    if tau_us is not None:
        v = 1.0 / (1.0 + 2.0 * chi * np.exp(np.minimum(t / tau_us, 700.0)))
        return _binary_entropy_ef(v)
    k_c = GAMMA_US_MM * math.sqrt(math.log(1.0 / chi)) / t
    hi = np.minimum(K_MAX, k_c)
    out = np.zeros_like(t)
    live = hi > K_MIN
    lo, hi = K_MIN, hi[live]
    k = (hi[:, None] - lo) / 2.0 * _GL_X + (hi[:, None] + lo) / 2.0
    x = (t[live, None] * k / GAMMA_US_MM) ** 2
    v = 1.0 / (1.0 + 2.0 * chi * np.exp(np.minimum(x, 700.0)))
    integral = (hi - lo) / 2.0 * np.sum(_GL_W * _binary_entropy_ef(v) * k, axis=1)
    out[live] = integral / ((K_MAX ** 2 - K_MIN ** 2) / 2.0)
    return out


def expected_max(m: int, p: float) -> float:
    """E[max of m independent geometric(p) round counts]."""
    if p == 1.0:
        return 1.0
    if m == 1:
        return 1.0 / p
    lam = -math.log1p(-p)
    if p < _SERIES_MIN_P:
        return float(np.sum(1.0 / np.arange(1, m + 1))) / lam + 0.5
    # tail past J is below m*exp(-lambda*J)/p, i.e. below e^-40 of the total
    terms = int(math.ceil((math.log(m) + 40.0) / lam)) + 1
    qj = np.exp(-lam * np.arange(terms, dtype=float))
    with np.errstate(divide="ignore"):  # the j = 0 term is exactly 1
        return float(np.sum(-np.expm1(m * np.log1p(-qj))))


def p_link(platform: str, l0_km: np.ndarray) -> np.ndarray:
    """Heralding probability of one elementary link of length l0."""
    modes, chi, _, _, _, eta_m, multiplexed, *_ = PLATFORMS[platform]
    eta_half = 10.0 ** (-ALPHA_DB_PER_KM * (l0_km / 2.0) / 10.0)
    p1 = (chi * eta_m * eta_half) ** 2
    n = modes * modes if multiplexed else modes
    return p1 if n == 1 else -np.expm1(n * np.log1p(-p1))


def chain_curve(platform: str, arch: str, l_km: float, n_max: int = N_MAX):
    """(N, T_tot in us, mean_EF, Q in ebit/s/node) for every N in 2..n_max."""
    _, _, eta_r, eta_x, eta_s, eta_m, _, enc, _ = PLATFORMS[platform]
    n = np.arange(2, n_max + 1)
    l0 = l_km / (n - 1)
    t_rep = l0 / C_KM_PER_US
    p_g = p_link(platform, l0)
    eta_det = eta_s if enc == "single_mode" else eta_m
    p_e = (eta_r * eta_det) ** 2 / 2.0
    p_f = p_e / 4.0
    p_enc = p_f ** np.ceil((n - 2) / 2) * p_e ** np.floor((n - 2) / 2) * eta_x ** n
    eta_final = (eta_det * eta_x) ** 2
    if arch == "ahierarchical":
        with np.errstate(divide="ignore", over="ignore"):
            t_tot = t_rep / (p_g ** (n - 1) * p_enc * eta_final)
        storage = t_rep
    else:
        waits = np.array([expected_max(int(m), float(p)) if p > 0 else math.inf
                          for m, p in zip(n - 1, p_g)])
        with np.errstate(divide="ignore", over="ignore"):
            t_tot = (t_rep * waits + l_km / C_KM_PER_US) / (p_enc * eta_final)
        storage = (l_km + l0) / C_KM_PER_US
    ef = mean_ef(platform, storage)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(np.isfinite(t_tot), ef / (t_tot * 1e-6), 0.0)
    return n, t_tot, ef, rate / n


def spdc_t_per_ebit_s(l_km: float) -> float:
    transmission = 10.0 ** (-ALPHA_DB_PER_KM * l_km / 10.0)
    rate = SPDC["chi"] * SPDC["eta_s"] ** 2 * SPDC["f_rep"] * transmission
    return 1e-6 / rate


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


def check_record(row: dict, n_max: int = N_MAX) -> tuple[str | None, float]:
    """Check one optimized CLI row; return (problem or None, rel. error of Q).

    N* must equal the reference argmax unless the two node counts tie within
    the tolerance.  A reference optimum of zero rate must come back as the
    tie-break row N = 2 with zero Q.
    """
    n, _, ef, q = chain_curve(row["platform"], row["architecture"],
                              float(row["L_km"]), n_max)
    n_code = int(row["N"])
    q_code = float(row["Q_ebit_per_s_per_node"])
    ef_code = float(row["mean_EF"])
    best = int(np.argmax(q))
    if q[best] == 0.0:
        if (n_code, q_code) != (2, 0.0):
            return f"zero-rate row should be N=2, Q=0, got N={n_code}, Q={q_code}", 0.0
        err = 0.0
    elif not 2 <= n_code <= n_max:
        return f"N={n_code} outside 2..{n_max}", math.inf
    elif n_code - 2 != best and not _close(q[n_code - 2], q[best], REL_TOL):
        return f"N*={n_code}, reference N*={n[best]}", math.inf
    else:
        err = abs(q_code - q[n_code - 2]) / q[n_code - 2]
    i = n_code - 2
    if err > REL_TOL:
        return f"Q={q_code!r}, reference {q[i]!r}", err
    if not (ef_code == ef[i] or _close(ef_code, ef[i], REL_TOL)):
        return f"mean_EF={ef_code!r}, reference {ef[i]!r}", err
    return None, err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_optimized_output(text: str, expected: list[tuple[str, str, float]],
                           spdc_grid: list[float] = ()) -> tuple[list[str], float]:
    """Check a rate-curve/optimize CSV against the expected row keys.

    ``expected`` lists (platform, architecture, L) in output order; SPDC
    baseline rows follow for each L in ``spdc_grid``.  Returns the list of
    problems and the largest relative error of Q.
    """
    rows = parse_csv(text)
    if len(rows) != len(expected) + len(spdc_grid):
        return [f"{len(rows)} rows, expected {len(expected) + len(spdc_grid)}"], math.inf
    problems, worst = [], 0.0
    for row, (platform, arch, l_km) in zip(rows, expected):
        key = (row["platform"], row["architecture"])
        if key != (platform, arch) or not _close(float(row["L_km"]), l_km, 1e-13):
            problems.append(f"row {key} {row['L_km']} != {(platform, arch, l_km)}")
            continue
        problem, err = check_record(row)
        worst = max(worst, err)
        if problem:
            problems.append(f"{platform} {arch} L={l_km}: {problem}")
    for row, l_km in zip(rows[len(expected):], spdc_grid):
        if row["platform"] != "SPDC" or not _close(
                float(row["T_per_ebit_s"]), spdc_t_per_ebit_s(l_km), 1e-12):
            problems.append(f"SPDC row at L={l_km}: {row}")
    return problems, worst
