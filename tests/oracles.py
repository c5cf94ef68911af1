"""Independent oracles for the test suite.

These deliberately avoid the library's closed-form paths: a dumb fixed-step
RK4 integrator for the closed-loop modal ODEs, naive reversed-order
summation for frequency-response values, a row-by-row ``csv.writer``
reference for the artifact format, the plain ``np.polyfit`` log-log
line the shared fitter must reproduce bit for bit, and the one-shot
denominator-matrix computations the blocked frequency grid and residual
must reproduce bit for bit, and a composite trapezoid for the
steady-state integral the closed-form horizon increments must reproduce
to quadrature accuracy, and the output path with its phases at every
harmonic, with its plant modes partitioned as ``simulate_outputs`` does
or all taken alike. ``unit_vector`` is the unit plant state the tests start from.
``traced_peak`` is the one memory measurement the memory tests share;
``traced_cli_peak`` takes it for one command-line call in a fresh
interpreter.
"""

import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from modalreg.spectral import SpectralVector


def unit_vector(modes, mode: int) -> SpectralVector:
    """The plant state 1 at ``mode`` and 0 elsewhere."""
    v = np.zeros(len(modes), dtype=np.complex128)
    v[modes.position(mode)] = 1.0
    return SpectralVector(modes, v)


def outputs_all_phases(gen, coupling, gain, z0, image, t):
    """(y, y_r, u, e, state deviation) of the output path with the phases
    exp(i omega_k t) taken at every harmonic, w0_k = 0 or not, for all
    time points at once: the formulation ``simulate_outputs`` must match
    byte for byte. With x = z0 - Pi w0, the modes with c_n x_n != 0 take
    exp(mu_n t) x_n, the other modes |x_n| exp(Re mu_n t), and the
    deviation joins the two norms by ``hypot``.
    ``simulator.simulate_closed_loop`` is the full-state reference it is
    held to within rounding."""
    w0 = image.w0
    x = z0.coeffs - image.pi_w0
    c = coupling.c.coeffs
    reach = c * x != 0
    mu = gen.eigenvalues
    free = np.exp(np.multiply.outer(t, mu[reach])) * x[reach]
    size = np.exp(np.multiply.outer(t, mu[~reach].real)) * np.abs(x[~reach])
    phases = np.exp(1j * np.multiply.outer(t, w0.space.omegas))
    y_r = phases @ w0.coeffs
    u = phases @ (gain.ell * w0.coeffs)
    e = free @ c[reach] + phases @ image.mismatch
    deviation = np.hypot(np.linalg.norm(free, axis=1),
                         np.linalg.norm(size, axis=1))
    return y_r + e, y_r, u, e, deviation


def outputs_all_modes(gen, coupling, gain, z0, image, t):
    """(y, y_r, u, e, state deviation) as :func:`outputs_all_phases`, but
    with the complex factor exp(mu_n t) x_n of every plant mode, whether
    it reaches e or not: one norm over all modes, one product with c. On
    a scenario where every c_n x_n != 0 (every random seed)
    ``simulate_outputs`` must match it byte for byte."""
    w0 = image.w0
    free = (np.exp(np.multiply.outer(t, gen.eigenvalues))
            * (z0.coeffs - image.pi_w0))
    phases = np.exp(1j * np.multiply.outer(t, w0.space.omegas))
    y_r = phases @ w0.coeffs
    u = phases @ (gain.ell * w0.coeffs)
    e = free @ coupling.c.coeffs + phases @ image.mismatch
    return y_r + e, y_r, u, e, np.linalg.norm(free, axis=1)


def rk4_closed_loop(mu, g_matrices, w0s, omegas, z0, t_end, step,
                    checkpoints):
    """Fixed-step RK4 for dz_n/dt = mu_n z_n + sum_k g_{n,k} w_k e^{i w_k t}.

    Independent systems step as one: ``mu`` and ``z0`` are concatenated
    over the systems, and ``g_matrices``, ``w0s`` and ``omegas`` are lists
    with one entry per system. ``checkpoints`` must be integer multiples
    of ``step``; returns a dict time -> state. Forcing samples are
    computed per system, ``chunk`` steps at a time to bound memory; the
    stepping itself is the classic recurrence.
    """
    chunk = 2000
    gw_t = [(g * w[None, :]).T for g, w in zip(g_matrices, w0s)]

    def forcing(t):
        return np.hstack([np.exp(1j * np.outer(t, om)) @ gw
                          for om, gw in zip(omegas, gw_t)])

    steps = int(round(t_end / step))
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
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        t_full = step * np.arange(start, stop + 1)
        f_full = forcing(t_full)
        f_half = forcing(t_full[:-1] + step / 2.0)
        for j in range(start, stop):
            f1 = f_full[j - start]
            f2 = f_half[j - start]
            f4 = f_full[j - start + 1]
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
    iteration, forming the weighted matrix and its adjoint densely and
    always taking all ``iterations`` steps."""
    m = matrix / weights[None, :]
    v = np.ones(m.shape[1], dtype=np.complex128) / np.sqrt(m.shape[1])
    for _ in range(iterations):
        v2 = m.conj().T @ (m @ v)
        nv = np.linalg.norm(v2)
        if nv == 0.0:
            return 0.0
        v = v2 / nv
    return float(np.linalg.norm(m @ v))


def conformity_per_column(gen, forcing, space, beta, horizons):
    """Conformity evidence one harmonic at a time: the horizon tails of
    ``quadrature_pi_column``, the ``classify_tail`` trend and the
    ``fractional_norm`` bound of every column ``forcing[:, j]`` of the
    (plant modes x harmonics) forcing matrix.

    Returns the f-scaled aggregated tails (per horizon), the column bounds
    keyed by harmonic and the first column trend of the worst verdict.
    """
    from modalreg.spectral import (SpectralVector, classify_tail,
                                   fractional_norm)
    from modalreg.sylvester import quadrature_pi_column

    rank = {"summable": 0, "inconclusive": 1, "divergent": 2}
    mu_pow = np.abs(gen.eigenvalues) ** (2.0 * beta)
    agg = np.zeros(len(horizons))
    bounds, worst = {}, None
    for j, k in enumerate(space.modes.indices):
        col = SpectralVector(gen.modes, forcing[:, j])
        f_k = space.weights[j]
        bounds[int(k)] = fractional_norm(gen, beta, col) / f_k
        if np.any(col.coeffs != 0):
            tail = classify_tail(gen.modes.indices,
                                 mu_pow * np.abs(col.coeffs) ** 2)
            if worst is None or rank[tail.verdict] > rank[worst.verdict]:
                worst = tail
        _, report = quadrature_pi_column(gen, col, float(space.omegas[j]),
                                         horizons=horizons)
        tails = np.array([report.tail_norms[h] for h in horizons])
        agg = np.maximum(agg, tails / f_k)
    return agg, bounds, worst


def trapezoid_column(mu, d, omega_k, horizons, step):
    """Composite trapezoid of integral_0^T exp((mu_n - i omega_k) t) d_n dt
    at every horizon T: the column at the last horizon and the norm of
    each horizon's increment, with nodes ``step`` apart or closer in
    every segment between horizons."""
    s = np.asarray(mu) - 1j * omega_k
    total = np.zeros(s.size, dtype=np.complex128)
    norms, t_prev = [], 0.0
    for t_end in horizons:
        n_sub = max(1, int(np.ceil((t_end - t_prev) / step)))
        t = np.linspace(t_prev, t_end, n_sub + 1)
        vals = np.exp(np.multiply.outer(t, s)) * d[None, :]
        widths = np.diff(t)[:, None]
        increment = ((vals[:-1] + vals[1:]) * (0.5 * widths)).sum(axis=0)
        total += increment
        norms.append(np.linalg.norm(increment))
        t_prev = t_end
    return total, np.array(norms)


def analytic_tails_whole(gen, forcing, omegas, horizons):
    """Horizon increment norms of every column of ``forcing`` from whole
    (plant modes x harmonics) temporaries of the increments themselves,
    not their Gram form. Squares below the underflow floor flush, so it
    is an oracle only for increments above about 1e-150."""
    rows = np.flatnonzero(np.any(forcing != 0, axis=1))
    mu = gen.eigenvalues[rows]
    t = np.asarray(horizons, dtype=float)
    plant_phases = np.exp(np.multiply.outer(t, mu))
    exo_phases = np.exp(-1j * np.multiply.outer(t, omegas))
    inv = forcing[rows] / (1j * omegas[None, :] - mu[:, None])
    tails, prev = [], 1.0
    for h in range(t.size):
        cur = np.multiply.outer(plant_phases[h], exo_phases[h])
        tails.append(np.linalg.norm((prev - cur) * inv, axis=0))
        prev = cur
    return np.array(tails)


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
    (log x, log y)."""
    return np.polyfit(np.log(x), np.log(y), 1)


def frequency_grid_one_shot(gen, coupling, space):
    """(h, hd, gaps) from the whole denominator matrix at once."""
    denom = 1j * space.omegas[None, :] - gen.eigenvalues[:, None]
    cb = coupling.c.coeffs * coupling.b.coeffs
    support = np.flatnonzero(cb)
    h = (cb[support, None] / denom[support]).sum(axis=0)
    hd = np.zeros(len(space.modes), dtype=np.complex128)
    for n_pos, k_pos, val in zip(*coupling.disturbance_in(space.modes)):
        hd[k_pos] += coupling.c.coeffs[n_pos] * val / denom[n_pos, k_pos]
    return h, hd, np.abs(denom).min(axis=0)


def first_residual_one_shot(pi, gen, forcing, space):
    """max_k ||D_k pi_k - g_k|| / (1 + ||pi_k||) from whole matrices."""
    denom = 1j * space.omegas[None, :] - gen.eigenvalues[:, None]
    lhs = denom * pi - forcing
    return float(np.max(np.linalg.norm(lhs, axis=0)
                        / (1.0 + np.linalg.norm(pi, axis=0))))


def traced_peak(fn):
    """``(fn(), peak)``: the peak traced memory in bytes of one call of
    ``fn``, from a tracemalloc start just before the call (no warm-up
    call) to a stop just after it."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


TRACED_CLI = """
import sys
from oracles import traced_peak
from modalreg.cli import main
code, peak = traced_peak(lambda: main(sys.argv[1:]))
print(code, peak)
"""


def traced_cli_peak(argv):
    """``(exit code, peak)`` of ``modalreg.cli.main(argv)`` measured by
    :func:`traced_peak` in a fresh interpreter. The modules are imported
    before tracing starts; whatever the call imports on first use counts,
    whichever tests ran before."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), str(root / "tests"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", TRACED_CLI, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, peak = proc.stdout.split()[-2:]
    return int(code), int(peak)
