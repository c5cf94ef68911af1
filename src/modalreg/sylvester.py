"""Integral representation of the steady-state map and its diagnostics.

Each column of the steady-state operator is the improper integral
``integral_0^inf exp(-i omega_k t) T(t) d_k dt`` of the forcing column
``d_k`` against the plant semigroup. Per mode the integrand is a pure
exponential, so the truncated integral has the closed form
``d_n (1 - exp(s_nk T)) / (i omega_k - mu_n)``, s_nk = mu_n - i omega_k,
at horizon T and tends to the resolvent column. The increment from
horizon t_h-1 to t_h (t_-1 = 0) has squared norm
``sum_n V_nk |exp(s_nk t_h-1) - exp(s_nk t_h)|**2``, with weights
``V_nk = |d_nk|**2 / |i omega_k - mu_n|**2``.
:func:`quadrature_pi_column` evaluates it for one column.
:func:`conformity_diagnostic` expands the square: the omega_k part of the
cross term is the scalar ``exp(i omega_k (t_h - t_h-1))``, so the
increments of all columns come from one real contraction of V with
``exp(2 Re mu_n t_j)`` and ``exp(mu_n t_h-1) conj(exp(mu_n t_h))``
(relative to the slowest mode, so no square underflows), a block of
harmonics at a time; the entries of P change only weights. Where the
expanded sum cancels (a lightly damped mode near some omega_k) enough to
move a horizon's largest tail, that column is evaluated directly.
The horizon schedule exposes how fast the remainder dies, which is the
only honest truncation-level stand-in for the operator-level
convergence question; verdicts are therefore trends, with
"inconclusive" a first-class outcome. The input column's
fractional-domain trend, :func:`check_b_regularity`, gives conformity
its bound and trend for every column that P does not touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regulator import FeedforwardGain, ModalCoupling, _forcing_columns
# not called here; perfbench/tracing.py wraps this name
from .regulator import frequency_denominators
from .spectral import (DiagonalGenerator, SpectralVector, TailReport, _blocks,
                       _require_same_modes, classify_tail, fractional_norm,
                       loglog_fit)

# Horizons of the truncated integral, octaves from 10 to 1280; the
# increments between them are the remainder trend.
HORIZONS = tuple(10.0 * 2**j for j in range(8))

# Log-log slope of the horizon increments below which the remainder trend
# counts as integrable-looking.
_DECAYING_SLOPE = -0.05

# Column bounds within this relative distance of the largest are
# re-evaluated one column at a time before the largest is reported, so the
# reported bound and harmonic are the per-column ones even where the
# bounds |ell_k| |b|_beta / f_k round a tie (k and -k) the other way.
_SUP_RTOL = 1e-12

# A column's horizon tails are recomputed one column at a time where
# their rounding bound exceeds this fraction of them and could move a
# horizon's largest f-scaled tail.
_TAIL_RTOL = 1e-12


@dataclass
class SufficientConditionEvidence:
    """Fractional-norm evidence for the smoothing condition at order beta:
    the largest f-scaled column bound, its harmonic, and the worst
    partial-sum trend over modes."""

    sup_bound: float
    argmax_mode: int
    worst_tail: TailReport


@dataclass
class ConformityReport:
    """Horizon-tail record and trend verdict for the improper integral."""

    tail_norms: dict
    verdict: str  # "conform-trend" | "non-conform-trend" | "inconclusive"
    sufficient_condition: Optional[SufficientConditionEvidence] = None


def _gram_tails(gen: DiagonalGenerator, coupling: ModalCoupling,
                gain: FeedforwardGain, t: np.ndarray):
    """Increment norms of every forcing column, (horizons x harmonics),
    from their Gram form (module docstring), and the widths of their
    rounding bounds."""
    space = gain.space
    tails, slack = np.zeros((2, t.size, len(space.modes)))
    b2 = np.abs(coupling.b.coeffs) ** 2
    p_rows, p_cols, p_vals = coupling.disturbance_in(space.modes)
    rows = np.flatnonzero(b2 + np.bincount(p_rows, minlength=b2.size))
    if rows.size == 0:
        return tails, slack
    mu = gen.eigenvalues[rows]
    p_at = np.searchsorted(rows, p_rows)
    p_d2 = np.abs(coupling.b.coeffs[p_rows] * gain.ell[p_cols] + p_vals) ** 2
    tj = np.concatenate(([0.0], t))
    dt, rate = (t - tj[:-1])[:, None], mu.real.max()
    e = np.exp(np.multiply.outer(tj, mu - rate))  # relative to the slowest
    cross = e[:-1] * e[1:].conj()
    m = np.concatenate([np.abs(e) ** 2, cross.real, cross.imag])
    h, decay = t.size, np.exp(rate * dt)
    # rounding: sums of N terms and the phases of cross and exp(i omega dt)
    terms = rows.size + 4.0
    phase = np.abs(mu.imag).max() * dt + terms
    for blk in _blocks(len(space.modes), len(gen.modes)):
        v = np.multiply.outer(np.abs(gain.ell[blk]) ** 2, b2[rows])
        on = (p_cols >= blk.start) & (p_cols < blk.stop)
        v[p_cols[on] - blk.start, p_at[on]] = p_d2[on]
        v /= (space.omegas[blk, None] - mu.imag) ** 2 + mu.real ** 2
        g = np.einsum("jn,kn->jk", m, v, optimize=False)
        theta = dt * space.omegas[blk]
        early, late = g[:h], g[1:h + 1] * decay ** 2
        sq = early + late - 2.0 * decay * (g[h + 1:2 * h + 1] * np.cos(theta)
                                           - g[2 * h + 1:] * np.sin(theta))
        err = np.finfo(float).eps * (terms * (early + late) + 2.0 * (
            phase + np.abs(theta)) * np.sqrt(early * late))
        tails[:, blk] = np.sqrt(np.maximum(sq, 0.0))
        slack[:, blk] = (np.sqrt(np.maximum(sq, 0.0) + err)
                         - np.sqrt(np.maximum(sq - err, 0.0)))
    scale = np.exp(rate * tj[:-1])[:, None]
    return tails * scale, slack * scale


def _horizon_schedule(horizons) -> np.ndarray:
    """The horizons as an array, if finite, positive and increasing."""
    t = [float(h) for h in horizons]
    if not (t and math.isfinite(t[-1])
            and all(a < b for a, b in zip([0.0] + t, t))):
        raise ValueError(f"horizons {horizons!r} are not finite, positive "
                         "and strictly increasing")
    return np.array(t)


def _tail_trend_verdict(horizons, tails: np.ndarray) -> str:
    """Classify remainder increments across the horizon schedule.

    A slowly damped near-resonant mode can hump one interior increment,
    so the verdict looks at the overall trend, not adjacent pairs: no
    decay across the whole schedule is the divergence signature.
    """
    tails = np.asarray(tails, dtype=float)
    scale = tails.max(initial=0.0)
    if scale == 0.0 or tails[-1] <= 1e-14 * scale:
        return "conform-trend"
    if tails[-1] >= tails[0]:
        return "non-conform-trend"
    slope = loglog_fit(horizons, tails, min_points=3).slope  # nan: no line
    return "conform-trend" if slope <= _DECAYING_SLOPE else "inconclusive"


def quadrature_pi_column(gen: DiagonalGenerator, delta_column: SpectralVector,
                         omega_k: float, horizons=HORIZONS):
    """Steady-state column via the truncated integral at each horizon
    (finite, positive and increasing, else a ValueError).

    Returns the column at the final horizon together with a report whose
    ``tail_norms`` record, per horizon, the norm gained by extending the
    integral to it. Divergence would show up as non-decreasing tails; it
    is reported, never raised.
    """
    _require_same_modes(gen.modes, delta_column.modes)
    s = gen.eigenvalues - 1j * omega_k
    inv = delta_column.coeffs / (1j * omega_k - gen.eigenvalues)
    t = np.concatenate(([0.0], _horizon_schedule(horizons)))
    exps = np.exp(np.multiply.outer(t, s))
    # increments from the antiderivative differences directly, not by
    # differencing near-saturated columns, and normed at a power-of-two
    # scale (exact), so their squares do not underflow
    incr = (exps[:-1] - exps[1:]) * inv[None, :]
    scale = np.ldexp(1.0, np.frexp(abs(incr).max(axis=1, keepdims=True))[1])
    tail_vals = np.linalg.norm(np.divide(incr, scale, out=incr),
                               axis=1) * scale[:, 0]
    final = (1.0 - exps[-1]) * inv
    report = ConformityReport(
        tail_norms={float(h): float(v) for h, v in zip(horizons, tail_vals)},
        verdict=_tail_trend_verdict(horizons, tail_vals),
    )
    return SpectralVector(gen.modes, final), report


_VERDICT_RANK = {"summable": 0, "inconclusive": 1, "divergent": 2}


def conformity_diagnostic(gen: DiagonalGenerator, coupling: ModalCoupling,
                          gain: FeedforwardGain, alpha: float, eps: float,
                          horizons=HORIZONS) -> ConformityReport:
    """Evidence that the forcing operator smooths into the fractional
    domain of order beta = alpha + eps, combined with the horizon-tail
    trend.

    The forcing operator is d_{n,k} = b_n ell_k + p_{n,k}, from the
    coupling and the gain; column k is d_k. Per column k the partial sums
    of ``|mu_n|**(2 beta) |d_n|**2`` are trend-classified over plant
    modes, and the f-scaled fractional norms give the column bounds of the
    smoothing condition. A column that P does not touch is ell_k b, so
    its bound is |ell_k| times the fractional norm of b over f_k, and its
    trend is the trend of the input-column profile
    ``|mu_n|**(2 beta) |b_n|**2``: both come from
    :func:`check_b_regularity` at beta, and conformity of such columns is
    b in D((-A)**beta). Only the columns that P touches are built and
    classified one by one. The verdict is conform-trend when every
    nonzero column trend is summable and the aggregated horizon tails do
    not grow; a divergent column trend makes it non-conform-trend;
    everything else is inconclusive.

    The horizon tails of all columns come from one real Gram contraction
    per block of harmonics (module docstring); the forcing matrix is never
    held. A column is recomputed with :func:`quadrature_pi_column` where
    its rounding bound exceeds 1e-12 of its tail and could move a
    horizon's largest f-scaled tail. The reported largest bound is
    re-evaluated with :func:`fractional_norm` on its own column. A horizon
    schedule that is not finite, positive and increasing is a ValueError.
    """
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    t = _horizon_schedule(horizons)
    _require_same_modes(gen.modes, coupling.modes)
    space = gain.space
    beta = alpha + eps
    f = space.weights
    n_exo = len(f)

    def column(j):
        return _forcing_columns(coupling, gain, np.array([j]))[:, 0]

    b_reg = check_b_regularity(gen, coupling.b, beta)
    bounds = np.abs(gain.ell) * math.sqrt(b_reg.partial_sum) / f
    nonzero = (gain.ell != 0) & bool(np.any(coupling.b.coeffs != 0))
    fits = [b_reg.tail] * n_exo
    mu_pow = np.abs(gen.eigenvalues) ** (2.0 * beta)
    _, p_cols, _ = coupling.disturbance_in(space.modes)
    for j in sorted(set(p_cols.tolist())):  # the columns P touches
        d = column(j)
        terms = np.abs(d) ** 2 * mu_pow
        bounds[j] = math.sqrt(terms.sum()) / f[j]
        nonzero[j] = bool(np.any(d != 0))
        fits[j] = classify_tail(gen.modes.indices, terms)

    tails, slack = _gram_tails(gen, coupling, gain, t)
    # the columns whose rounding could move a horizon's largest tail
    rerun = slack > _TAIL_RTOL * tails
    if rerun.any():
        rerun &= (tails + slack) / f >= ((tails - slack) / f).max(
            axis=1, keepdims=True)
    for j in np.flatnonzero(rerun.any(axis=0)):
        _, exact = quadrature_pi_column(gen, SpectralVector(
            gen.modes, column(j)), space.omegas[j], horizons)
        tails[:, j] = list(exact.tail_norms.values())
    agg = (tails / f).max(axis=1)

    near_sup = np.flatnonzero(bounds >= bounds.max() * (1.0 - _SUP_RTOL))
    for j in near_sup:
        bounds[j] = fractional_norm(
            gen, beta, SpectralVector(gen.modes, column(j))) / f[j]
    sup_j = int(near_sup[np.argmax(bounds[near_sup])])

    worst_tail = max((fits[j] for j in np.flatnonzero(nonzero)),
                     key=lambda r: _VERDICT_RANK[r.verdict],
                     default=TailReport(-math.inf, "summable"))  # all zero

    evidence = SufficientConditionEvidence(
        sup_bound=float(bounds[sup_j]),
        argmax_mode=int(space.modes.indices[sup_j]),
        worst_tail=worst_tail,
    )
    tails_decay = _tail_trend_verdict(horizons, agg) == "conform-trend"
    if worst_tail.verdict == "divergent":
        verdict = "non-conform-trend"
    elif worst_tail.verdict == "summable" and tails_decay:
        verdict = "conform-trend"
    else:
        verdict = "inconclusive"
    return ConformityReport(
        tail_norms={float(h): float(v) for h, v in zip(horizons, agg)},
        verdict=verdict,
        sufficient_condition=evidence,
    )


@dataclass
class BetaVerdict:
    """Partial sum and trend of the input column's fractional-domain
    profile at one order beta."""

    partial_sum: float
    tail: TailReport


def check_b_regularity(gen: DiagonalGenerator, b: SpectralVector,
                       beta: float) -> BetaVerdict:
    """Partial sum and trend of |mu_n|**(2 beta) |b_n|**2."""
    _require_same_modes(gen.modes, b.modes)
    terms = (np.abs(gen.eigenvalues) ** (2.0 * float(beta))
             * np.abs(b.coeffs) ** 2)
    return BetaVerdict(partial_sum=float(terms.sum()),
                       tail=classify_tail(gen.modes.indices, terms))
