"""Integral representation of the steady-state map and its diagnostics.

Each column of the steady-state operator is the improper integral
``integral_0^inf exp(-i omega_k t) T(t) d_k dt`` of the forcing column
``d_k`` against the plant semigroup. Per mode the integrand is a pure
exponential, so the truncated integral has the closed form
``d_n (1 - exp((mu_n - i omega_k) T)) / (i omega_k - mu_n)`` at horizon T
and tends to the resolvent column. The horizon schedule exposes how fast
the remainder dies, which is the only honest truncation-level stand-in
for the operator-level convergence question; verdicts are therefore
trends, with "inconclusive" a first-class outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exosystem import ExoSpace, ExoState
from .regulator import (FeedforwardGain, ModalCoupling, SylvesterSolution,
                        _check_operands, _forcing_columns, forcing_matrix,
                        frequency_denominators)
from .spectral import (_CHUNK_ENTRIES, DiagonalGenerator, SpectralVector,
                       TailReport, classify_tail, classify_tails,
                       fractional_norm, loglog_fit)

DEFAULT_HORIZONS = tuple(10.0 * 2**j for j in range(8))

# Log-log slope of the horizon increments below which the remainder trend
# counts as integrable-looking.
_DECAYING_SLOPE = -0.05

# Plant modes x harmonics per block of the batched horizon tails. Blocks of
# 2**15 complex entries (512 KB) stay in cache: at 2000 modes x 2001
# harmonics they ran twice as fast as blocks of 2 million entries (2-vCPU
# Xeon, 4 MB L2).
_BLOCK_ENTRIES = 2**15

# Plant modes x harmonics per block of forcing columns d_{n,k} and of the
# weighted terms |mu_n|**(2 beta) |d_n|**2 behind the column bounds and
# tail fits (2 MB of complex entries); conformity never holds more of the
# forcing matrix. Half this width made wave `check` at 2000 modes x 2001
# harmonics 35-60 % slower: each block then freed enough for the allocator
# to return the memory and fault it back in (37k against 4.5k minor page
# faults; 2-vCPU Xeon, glibc malloc).
_TERMS_BLOCK_ENTRIES = 2**17

# Column bounds within this relative distance of the largest are
# re-evaluated one column at a time before the largest is reported, so the
# reported bound and harmonic are the per-column ones even where the
# batched sums round a tie (k and -k) the other way.
_SUP_RTOL = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Horizon schedule and method for the steady-state integral."""

    horizons: tuple = DEFAULT_HORIZONS
    method: str = "analytic"  # "analytic" | "numeric"
    step: float = 1e-3

    def __post_init__(self):
        if len(self.horizons) == 0:
            raise ValueError("horizon schedule is empty")
        hs = tuple(float(h) for h in self.horizons)
        if hs[0] <= 0 or any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("horizons must be positive and strictly increasing")
        object.__setattr__(self, "horizons", hs)
        if self.method not in ("analytic", "numeric"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")


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


def _analytic_quadrature(gen: DiagonalGenerator, d: np.ndarray, omega_k: float,
                         horizons):
    """Final-horizon column and per-horizon increment norms.

    Increments are evaluated from the antiderivative differences directly,
    not by differencing near-saturated columns, so they stay meaningful
    down to the underflow floor.
    """
    s = gen.eigenvalues - 1j * omega_k
    inv = d / (1j * omega_k - gen.eigenvalues)
    t = np.asarray(horizons, dtype=float)
    exps = np.exp(np.multiply.outer(np.concatenate(([0.0], t)), s))
    increments = (exps[:-1] - exps[1:]) * inv[None, :]
    final = (1.0 - exps[-1]) * inv
    return final, np.linalg.norm(increments, axis=1)


def _numeric_quadrature(gen: DiagonalGenerator, d: np.ndarray, omega_k: float,
                        horizons, step: float):
    """Composite-trapezoid column and per-horizon block-contribution norms."""
    s = gen.eigenvalues - 1j * omega_k
    acc = np.zeros(s.size, dtype=np.complex128)
    tails = np.zeros(len(horizons))
    t_prev = 0.0
    for j, t_end in enumerate(horizons):
        n_sub = max(1, int(math.ceil((t_end - t_prev) / step)))
        grid = np.linspace(t_prev, t_end, n_sub + 1)
        block_total = np.zeros(s.size, dtype=np.complex128)
        # chunk the (time x mode) integrand matrix
        chunk = max(2, _CHUNK_ENTRIES // s.size)
        for start in range(0, grid.size, chunk - 1):
            block = grid[start:start + chunk]
            if block.size < 2:
                break
            vals = np.exp(np.multiply.outer(block, s)) * d[None, :]
            block_total += np.trapezoid(vals, block, axis=0)
        acc += block_total
        tails[j] = np.linalg.norm(block_total)
        t_prev = t_end
    return acc, tails


def _analytic_tails(gen: DiagonalGenerator, forcing: np.ndarray, omegas,
                    horizons) -> np.ndarray:
    """Increment norms of :func:`_analytic_quadrature` for every column of
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
    for start in range(0, len(omegas), step):
        cols = slice(start, start + step)
        om = omegas[cols]
        exo_phases = np.exp(-1j * np.multiply.outer(t, om))
        inv = forcing[rows, cols] / (1j * om[None, :] - mu[:, None])
        prev = 1.0
        for h in range(t.size):
            cur = np.multiply.outer(plant_phases[h], exo_phases[h])
            tails[h, cols] = np.linalg.norm((prev - cur) * inv, axis=0)
            prev = cur
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
    d = delta_column.coeffs
    if spec.method == "analytic":
        final, tail_vals = _analytic_quadrature(gen, d, omega_k, spec.horizons)
    else:
        final, tail_vals = _numeric_quadrature(gen, d, omega_k, spec.horizons,
                                               spec.step)
    report = ConformityReport(
        tail_norms={float(h): float(v)
                    for h, v in zip(spec.horizons, tail_vals)},
        verdict=_tail_trend_verdict(spec.horizons, tail_vals),
    )
    return SpectralVector(gen.modes, final.copy()), report


_VERDICT_RANK = {"summable": 0, "inconclusive": 1, "divergent": 2}


def conformity_diagnostic(gen: DiagonalGenerator, coupling: ModalCoupling,
                          gain: FeedforwardGain, space: ExoSpace, alpha: float,
                          eps: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> ConformityReport:
    """Evidence that the forcing operator smooths into the fractional
    domain of order alpha + eps, combined with the horizon-tail trend.

    The forcing operator is d_{n,k} = b_n ell_k + p_{n,k}, from the
    coupling and the gain; column k is d_k.

    Per column k the partial sums of ``|mu_n|**(2(alpha+eps)) |d_n|**2``
    are trend-classified over plant modes, and the f-scaled fractional
    norms give the column bounds of the smoothing condition. The verdict
    is conform-trend when every column trend is summable and the
    aggregated horizon tails do not grow; a divergent column trend makes
    it non-conform-trend; everything else is inconclusive.

    The forcing columns are built and processed one block of harmonics at
    a time; the whole matrix is never held. The reported largest bound is
    re-evaluated with :func:`fractional_norm` on its own column.
    """
    if alpha <= 0 or eps <= 0:
        raise ValueError("alpha and eps must be positive")
    _check_operands(gen, coupling, gain, space)
    beta = alpha + eps
    f = space.weights
    n_exo = len(f)
    tails = np.empty((len(spec.horizons), n_exo))
    mu_pow = (np.abs(gen.eigenvalues) ** (2.0 * beta))[:, None]
    bounds = np.empty(n_exo)
    nonzero = np.empty(n_exo, dtype=bool)
    fits = []
    step = max(1, _TERMS_BLOCK_ENTRIES // len(mu_pow))
    for start in range(0, n_exo, step):
        cols = slice(start, start + step)
        forcing = _forcing_columns(coupling, gain, space,
                                   np.arange(n_exo)[cols])
        nonzero[cols] = np.any(forcing != 0, axis=0)
        terms = np.abs(forcing) ** 2 * mu_pow
        bounds[cols] = np.sqrt(terms.sum(axis=0)) / f[cols]
        fits += classify_tails(gen.modes.indices, terms)
        del terms  # freed before the horizon tails make their temporaries
        if spec.method == "analytic":
            tails[:, cols] = _analytic_tails(gen, forcing, space.omegas[cols],
                                             spec.horizons)
        else:
            for j, om in enumerate(space.omegas[cols]):
                tails[:, start + j] = _numeric_quadrature(
                    gen, forcing[:, j], float(om), spec.horizons, spec.step)[1]
    agg = (tails / f).max(axis=1)

    near_sup = np.flatnonzero(bounds >= bounds.max() * (1.0 - _SUP_RTOL))
    for j in near_sup:
        column = _forcing_columns(coupling, gain, space, np.array([j]))[:, 0]
        bounds[j] = fractional_norm(
            gen, beta, SpectralVector(gen.modes, column)) / f[j]
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


def lemma_identity_check(gen: DiagonalGenerator, coupling: ModalCoupling,
                         gain: FeedforwardGain, solution: SylvesterSolution,
                         w: ExoState, t_grid) -> float:
    """Residual of the finite-time convolution identity.

    The convolution of the semigroup with the forced exosystem orbit must
    equal the steady-state map evaluated along the orbit minus the
    semigroup applied to its initial value. Both sides are evaluated per
    mode from the exponential antiderivative; returns the worst relative
    mismatch over the grid. The forcing operator is b ell + P, from the
    coupling and the gain.
    """
    space = w.space
    if solution.plant_modes != gen.modes or solution.exo_modes != space.modes:
        raise ValueError("solution mode ranges do not match generator/exosystem")
    _check_operands(gen, coupling, gain, space)
    denom = frequency_denominators(gen, space)
    m = forcing_matrix(coupling, gain, space) * w.coeffs[None, :] / denom
    pw = solution.pi * w.coeffs[None, :]
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        exo_ph = np.exp(1j * space.omegas * t)
        pl_ph = np.exp(gen.eigenvalues * t)
        lhs = m @ exo_ph - pl_ph * m.sum(axis=1)
        rhs = pw @ exo_ph - pl_ph * pw.sum(axis=1)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)
                                 / (1.0 + np.linalg.norm(rhs))))
    return worst


@dataclass
class BetaVerdict:
    beta: float
    partial_sum: float
    tail: TailReport

    @property
    def summable(self) -> bool:
        return self.tail.verdict == "summable"


@dataclass
class BRegularityReport:
    """Fractional-domain membership trend of the input column at several
    orders beta."""

    entries: dict

    def passes_at(self, beta: float) -> bool:
        return self.entries[float(beta)].summable


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
