"""Integral representation of the steady-state map and its diagnostics.

Each column of the steady-state operator is the improper integral
``integral_0^inf exp(-i omega_k t) T(t) d_k dt`` of the forcing column
``d_k`` against the plant semigroup. Per mode the integrand is a pure
exponential, so the truncated integral has the closed form
``d_n (1 - exp((mu_n - i omega_k) T)) / (i omega_k - mu_n)`` at horizon T
and tends to the resolvent column. This closed form is the one
evaluation of the horizon increments: :func:`quadrature_pi_column` applies
it to one column, :func:`conformity_diagnostic` to all columns, one block
of harmonics at a time. The horizon schedule exposes how fast the
remainder dies, which is the only honest truncation-level stand-in for
the operator-level convergence question; verdicts are therefore trends,
with "inconclusive" a first-class outcome. The input column's
fractional-domain trend, :func:`check_b_regularity`, gives conformity
its bound and trend for every column that P does not touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exosystem import ExoSpace
from .regulator import (FeedforwardGain, ModalCoupling, _blocks,
                        _check_operands, _forcing_columns)
# not called here; perfbench/tracing.py wraps this name
from .regulator import frequency_denominators
from .spectral import (DiagonalGenerator, SpectralVector, TailReport,
                       classify_tail, fractional_norm, loglog_fit)

DEFAULT_HORIZONS = tuple(10.0 * 2**j for j in range(8))

# Log-log slope of the horizon increments below which the remainder trend
# counts as integrable-looking.
_DECAYING_SLOPE = -0.05

# Plant modes x harmonics per block of the batched horizon tails. Blocks of
# 2**15 complex entries (512 KB) stay in cache: at 2000 modes x 2001
# harmonics they ran twice as fast as blocks of 2 million entries (2-vCPU
# Xeon, 4 MB L2).
_BLOCK_ENTRIES = 2**15

# Column bounds within this relative distance of the largest are
# re-evaluated one column at a time before the largest is reported, so the
# reported bound and harmonic are the per-column ones even where the
# bounds |ell_k| |b|_beta / f_k round a tie (k and -k) the other way.
_SUP_RTOL = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Horizon schedule of the steady-state integral."""

    horizons: tuple = DEFAULT_HORIZONS

    def __post_init__(self):
        if len(self.horizons) == 0:
            raise ValueError("horizon schedule is empty")
        hs = tuple(float(h) for h in self.horizons)
        if hs[0] <= 0 or any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("horizons must be positive and strictly increasing")
        object.__setattr__(self, "horizons", hs)


@dataclass
class SufficientConditionEvidence:
    """Fractional-norm evidence for the smoothing condition at order beta:
    the f-scaled column bounds and the worst partial-sum trend over modes."""

    beta: float
    column_bounds: dict
    sup_bound: float
    argmax_mode: int
    worst_tail: TailReport


@dataclass
class ConformityReport:
    """Horizon-tail record and trend verdict for the improper integral."""

    tail_norms: dict
    verdict: str  # "conform-trend" | "non-conform-trend" | "inconclusive"
    sufficient_condition: Optional[SufficientConditionEvidence] = None


def _analytic_tails(gen: DiagonalGenerator, forcing: np.ndarray, omegas,
                    horizons) -> np.ndarray:
    """Increment norms of :func:`quadrature_pi_column` for every column of
    ``forcing`` at once, as a (horizons x harmonics) array.

    The exponentials factor as exp((mu_n - i omega_k) t) =
    exp(mu_n t) exp(-i omega_k t), so a block of harmonics costs products,
    not exponentials. Plant modes where every column vanishes add nothing
    and are skipped.
    """
    rows = np.flatnonzero(np.any(forcing != 0, axis=1))
    tails = np.zeros((len(horizons), len(omegas)))
    if rows.size == 0:
        return tails
    mu = gen.eigenvalues[rows]
    t = np.asarray(horizons, dtype=float)
    plant_phases = np.exp(np.multiply.outer(t, mu))
    step = max(1, _BLOCK_ENTRIES // rows.size)
    # The increment and the phase products of two horizons, in buffers
    # that every block and horizon reuses.
    bufs = np.empty((3, rows.size, min(step, len(omegas))), dtype=np.complex128)
    for start in range(0, len(omegas), step):
        cols = slice(start, start + step)
        om = omegas[cols]
        diff, *phase_bufs = bufs[:, :, :om.size]
        exo_phases = np.exp(-1j * np.multiply.outer(t, om))
        inv = forcing[rows, cols]  # a copy, divided in place
        inv /= np.subtract(1j * om[None, :], mu[:, None], out=diff)
        prev = 1.0
        for h in range(t.size):
            cur, spare = phase_bufs[h % 2], phase_bufs[1 - h % 2]
            np.multiply.outer(plant_phases[h], exo_phases[h], out=cur)
            np.subtract(prev, cur, out=diff)
            diff *= inv
            # np.linalg.norm(diff, axis=0), step by step, into the buffer
            # prev no longer needs
            np.multiply(np.conjugate(diff, out=spare), diff, out=spare)
            norms = tails[h, cols]
            np.sqrt(np.add.reduce(spare.real, axis=0, out=norms), out=norms)
            prev = cur
        del inv  # freed before the next block copies its slice
    return tails


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
                         omega_k: float,
                         spec: QuadratureSpec = QuadratureSpec()):
    """Steady-state column via the truncated integral at each horizon.

    Returns the column at the final horizon together with a report whose
    ``tail_norms`` record, per horizon, the norm gained by extending the
    integral to it. Divergence would show up as non-decreasing tails; it
    is reported, never raised.
    """
    if gen.modes != delta_column.modes:
        raise ValueError("forcing column and generator mode ranges differ")
    s = gen.eigenvalues - 1j * omega_k
    inv = delta_column.coeffs / (1j * omega_k - gen.eigenvalues)
    t = np.concatenate(([0.0], spec.horizons))
    exps = np.exp(np.multiply.outer(t, s))
    # increments from the antiderivative differences directly, not by
    # differencing near-saturated columns, so they stay meaningful down to
    # the underflow floor
    tail_vals = np.linalg.norm((exps[:-1] - exps[1:]) * inv[None, :], axis=1)
    final = (1.0 - exps[-1]) * inv
    report = ConformityReport(
        tail_norms={float(h): float(v)
                    for h, v in zip(spec.horizons, tail_vals)},
        verdict=_tail_trend_verdict(spec.horizons, tail_vals),
    )
    return SpectralVector(gen.modes, final), report


_VERDICT_RANK = {"summable": 0, "inconclusive": 1, "divergent": 2}


def conformity_diagnostic(gen: DiagonalGenerator, coupling: ModalCoupling,
                          gain: FeedforwardGain, space: ExoSpace, alpha: float,
                          eps: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> ConformityReport:
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

    The horizon tails take the forcing columns one block of harmonics at
    a time; the whole matrix is never held. The reported largest bound is
    re-evaluated with :func:`fractional_norm` on its own column.
    """
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    _check_operands(gen, coupling, gain, space)
    beta = alpha + eps
    f = space.weights
    n_exo = len(f)

    def column(j):
        return _forcing_columns(coupling, gain, space, np.array([j]))[:, 0]

    b_reg = check_b_regularity(gen, coupling.b, [beta]).entries[beta]
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

    tails = np.empty((len(spec.horizons), n_exo))
    for blk in _blocks(n_exo, len(gen.modes)):
        forcing = _forcing_columns(coupling, gain, space,
                                   np.arange(n_exo)[blk])
        tails[:, blk] = _analytic_tails(gen, forcing, space.omegas[blk],
                                        spec.horizons)
    agg = (tails / f).max(axis=1)

    near_sup = np.flatnonzero(bounds >= bounds.max() * (1.0 - _SUP_RTOL))
    for j in near_sup:
        bounds[j] = fractional_norm(
            gen, beta, SpectralVector(gen.modes, column(j))) / f[j]
    sup_j = int(near_sup[np.argmax(bounds[near_sup])])

    worst_tail = max((fits[j] for j in np.flatnonzero(nonzero)),
                     key=lambda r: _VERDICT_RANK[r.verdict],
                     default=TailReport(-math.inf, "summable", 0,
                                        "all columns zero"))

    modes = space.modes.indices
    evidence = SufficientConditionEvidence(
        beta=beta,
        column_bounds={int(k): float(b) for k, b in zip(modes, bounds)},
        sup_bound=float(bounds[sup_j]),
        argmax_mode=int(modes[sup_j]),
        worst_tail=worst_tail,
    )
    tails_decay = _tail_trend_verdict(spec.horizons, agg) == "conform-trend"
    if worst_tail.verdict == "divergent":
        verdict = "non-conform-trend"
    elif worst_tail.verdict == "summable" and tails_decay:
        verdict = "conform-trend"
    else:
        verdict = "inconclusive"
    return ConformityReport(
        tail_norms={float(h): float(v) for h, v in zip(spec.horizons, agg)},
        verdict=verdict,
        sufficient_condition=evidence,
    )


@dataclass
class BetaVerdict:
    beta: float
    partial_sum: float
    tail: TailReport


@dataclass
class BRegularityReport:
    """Fractional-domain membership trend of the input column at several
    orders beta."""

    entries: dict


def check_b_regularity(gen: DiagonalGenerator, b: SpectralVector,
                       beta_grid) -> BRegularityReport:
    """For each beta, partial sum and trend of |mu_n|**(2 beta) |b_n|**2."""
    if gen.modes != b.modes:
        raise ValueError("input column and generator mode ranges differ")
    entries = {}
    mags = np.abs(b.coeffs) ** 2
    for beta in beta_grid:
        beta = float(beta)
        terms = np.abs(gen.eigenvalues) ** (2.0 * beta) * mags
        entries[beta] = BetaVerdict(
            beta=beta,
            partial_sum=float(terms.sum()),
            tail=classify_tail(gen.modes.indices, terms),
        )
    return BRegularityReport(entries=entries)
