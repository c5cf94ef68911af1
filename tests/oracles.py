"""Independent oracles for the test suite.

These deliberately avoid the library's closed-form paths: a dumb fixed-step
RK4 integrator for the closed-loop modal ODEs, naive reversed-order
summation for frequency-response values, a row-by-row ``csv.writer``
reference for the artifact format, and the plain ``np.polyfit`` log-log
line the shared fitter must reproduce bit for bit.
"""

import csv

import numpy as np


def rk4_closed_loop(mu, g_matrix, w0_coeffs, omegas, z0, t_end, step,
                    checkpoints):
    """Fixed-step RK4 for dz_n/dt = mu_n z_n + sum_k g_{n,k} w_k e^{i w_k t}.

    ``checkpoints`` must be integer multiples of ``step``; returns a dict
    time -> state. Forcing samples are precomputed; the stepping itself is
    the classic recurrence.
    """
    steps = int(round(t_end / step))
    gw = g_matrix * w0_coeffs[None, :]
    t_full = step * np.arange(steps + 1)
    t_half = t_full[:-1] + step / 2.0
    f_full = np.exp(1j * np.outer(t_full, omegas)) @ gw.T
    f_half = np.exp(1j * np.outer(t_half, omegas)) @ gw.T
    want = {}
    for t in checkpoints:
        j = int(round(t / step))
        assert abs(j * step - t) < 1e-9, f"checkpoint {t} off the step grid"
        want[j] = float(t)
    out = {}
    z = np.asarray(z0, dtype=np.complex128).copy()
    if 0 in want:
        out[want[0]] = z.copy()
    h = step
    for j in range(steps):
        f1 = f_full[j]
        f2 = f_half[j]
        f4 = f_full[j + 1]
        k1 = mu * z + f1
        k2 = mu * (z + 0.5 * h * k1) + f2
        k3 = mu * (z + 0.5 * h * k2) + f2
        k4 = mu * (z + h * k3) + f4
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if j + 1 in want:
            out[want[j + 1]] = z.copy()
    return out


def naive_sum_reversed(terms):
    """Plain python accumulation in reversed order (different rounding path
    than vectorized summation)."""
    total = 0.0 + 0.0j
    for term in reversed(list(terms)):
        total += term
    return total


def naive_transfer_value(eigenvalues, b, c, lam):
    """Frequency response as a reversed-order python sum."""
    return naive_sum_reversed(
        complex(cn) * complex(bn) / (lam - complex(mn))
        for mn, bn, cn in zip(eigenvalues, b, c)
    )


def power_iteration_norm(matrix, weights, iterations=50):
    """Operator-norm estimate of the f-weighted matrix by plain power
    iteration, forming the adjoint afresh at every step."""
    m = matrix / weights[None, :]
    v = np.ones(m.shape[1], dtype=np.complex128) / np.sqrt(m.shape[1])
    for _ in range(iterations):
        v2 = m.conj().T @ (m @ v)
        nv = np.linalg.norm(v2)
        if nv == 0.0:
            return 0.0
        v = v2 / nv
    return float(np.linalg.norm(m @ v))


def conformity_per_column(gen, columns, space, beta, spec):
    """Conformity evidence one harmonic at a time: the horizon tails of
    ``quadrature_pi_column``, the ``classify_tail`` trend and the
    ``fractional_norm`` bound of every column.

    Returns the f-scaled aggregated tails (per horizon), the column bounds
    keyed by harmonic and the first column trend of the worst verdict.
    """
    from modalreg.spectral import (SpectralVector, classify_tail,
                                   fractional_norm)
    from modalreg.sylvester import quadrature_pi_column

    rank = {"summable": 0, "inconclusive": 1, "divergent": 2}
    mu_pow = np.abs(gen.eigenvalues) ** (2.0 * beta)
    zero = SpectralVector.zeros(gen.modes)
    agg = np.zeros(len(spec.horizons))
    bounds, worst = {}, None
    for j, k in enumerate(space.modes.indices):
        col = columns.get(int(k), zero)
        f_k = space.weights[j]
        bounds[int(k)] = fractional_norm(gen, beta, col) / f_k
        if np.any(col.coeffs != 0):
            tail = classify_tail(gen.modes.indices,
                                 mu_pow * np.abs(col.coeffs) ** 2)
            if worst is None or rank[tail.verdict] > rank[worst.verdict]:
                worst = tail
        _, report = quadrature_pi_column(gen, col, float(space.omegas[j]),
                                         spec)
        tails = np.array([report.tail_norms[h] for h in spec.horizons])
        agg = np.maximum(agg, tails / f_k)
    return agg, bounds, worst


def fmt_number(x) -> str:
    """Artifact number format, one value at a time: integers plain, floats
    with 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv_rows(path, header, rows, fmt=fmt_number):
    """Reference CSV writer: one ``csv.writer`` row per tuple of ``rows``,
    each value formatted by ``fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def loglog_polyfit(x, y):
    """Slope and intercept of the least-squares line through
    (log x, log y); y may hold one sequence per column."""
    return np.polyfit(np.log(x), np.log(y), 1)
