"""The paper's identities and exosystem facts that no command computes:
the convolution lemma, the semigroup and the isometric shift group, the
point-evaluation output, the weighted norms and the w0.csv reader."""

import csv
from pathlib import Path

import numpy as np

from modalreg.exosystem import ExoSpace, ExoState
from modalreg.regulator import (_check_operands, forcing_matrix,
                                frequency_denominators)
from modalreg.spectral import (SpectralVector, TailReport,
                               _require_same_modes, classify_tail)


def semigroup_apply(gen, t: float, v: SpectralVector) -> SpectralVector:
    """Apply the diagonal semigroup at time ``t >= 0``: coefficient-wise
    multiplication by ``exp(mu_n t)``."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    _require_same_modes(gen.modes, v.modes)
    return SpectralVector(v.modes, np.exp(gen.eigenvalues * t) * v.coeffs)


def lemma_identity_check(gen, coupling, gain, solution, w: ExoState,
                         t_grid) -> float:
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


def dirac_constant(space: ExoSpace) -> float:
    """Truncation value of sqrt(sum f_k**-2), the norm bound of the
    evaluation functional."""
    return float(np.sqrt(np.sum(space.weights**-2.0)))


def weight_tail_report(space: ExoSpace) -> TailReport:
    """Trend of the inverse-square weights; summable is what membership
    of the evaluation functional requires beyond truncation."""
    return classify_tail(space.modes.indices, space.weights**-2.0)


def domain_tail_report(w: ExoState) -> TailReport:
    """Decay trend of omega_k w_k f_k, the graph-norm terms of the
    exosystem generator."""
    terms = np.abs(w.space.omegas * w.coeffs * w.space.weights) ** 2
    return classify_tail(w.space.modes.indices, terms)


def from_csv(path, space: ExoSpace) -> ExoState:
    """The state that ``ExoState.to_csv`` wrote to ``path``."""
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["k", "re", "im"]:
            raise ValueError(f"unexpected header {header} in {Path(path).name}")
        for row in reader:
            entries[int(row[0])] = float(row[1]) + 1j * float(row[2])
    return ExoState.from_dict(space, entries)


def group_apply(w: ExoState, t: float) -> ExoState:
    """Shift-group action: coefficient k picks up exp(i omega_k t). Defined
    for every real t (it is a group) and preserves the weighted norm."""
    return ExoState(w.space, np.exp(1j * w.space.omegas * t) * w.coeffs)


def dirac_functional(w: ExoState) -> complex:
    """Evaluation at time zero: the plain sum of coefficients."""
    return complex(np.sum(w.coeffs))


def weighted_norm(w: ExoState) -> float:
    """sqrt(sum |w_k|**2 f_k**2)."""
    return float(np.linalg.norm(w.coeffs * w.space.weights))


def graph_norm(w: ExoState) -> float:
    """Weighted norm of w plus that of its generator image (i omega_k w_k)."""
    s_image = ExoState(w.space, 1j * w.space.omegas * w.coeffs)
    return weighted_norm(w) + weighted_norm(s_image)


def is_conjugate_symmetric(w: ExoState, tol: float = 1e-12) -> bool:
    """True when w_{-k} = conj(w_k) for every retained pair, i.e. the
    synthesized signal is real-valued."""
    modes = w.space.modes
    c = w.coeffs
    for k in modes:
        if -k not in modes:
            if abs(c[modes.position(k)]) > tol:
                return False
            continue
        if abs(c[modes.position(-k)] - np.conj(c[modes.position(k)])) > tol:
            return False
    return True
