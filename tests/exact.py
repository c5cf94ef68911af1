"""Exact H, H_d and ell of a built scenario, for judging the float64 ones.

Every float64 is a dyadic rational, so ``fractions.Fraction`` holds each
input exactly: mu, b, c, the values of P and omega. Sums, products and
quotients of them stay exact. A complex number is a pair (re, im) of
Fractions. The result is the truth at the float64 inputs, so it judges
only the rounding of the computation, not that of the inputs.
"""

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def exact(z) -> tuple:
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def mul(a, b) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def div(a, b) -> tuple:
    q = b[0] * b[0] + b[1] * b[1]
    re, im = mul(a, (b[0], -b[1]))
    return re / q, im / q


def to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


def _sum(terms) -> tuple:
    """The exact sum of ``terms`` and the float64 sum of their moduli."""
    re, im, size = Fraction(0), Fraction(0), 0.0
    for t in terms:
        re, im, size = re + t[0], im + t[1], size + abs(to_complex(t))
    return (re, im), size


def exact_response(gen, coupling, space) -> list:
    """Per harmonic position k: H(i omega_k) = sum_n c_n b_n / (i omega_k -
    mu_n), H_d(k) = sum_n c_n p_{n,k} / (i omega_k - mu_n) and ell_k =
    (1 - H_d(k)) / H(i omega_k), exactly, as pairs (ell is None where H
    is 0); then the sums of |term| of H and of H_d, in float64."""
    mu = [exact(m) for m in gen.eigenvalues]
    c = [exact(v) for v in coupling.c.coeffs]
    omegas = [Fraction(w) for w in space.omegas]
    cb = [(n, mul(c[n], exact(b))) for n, b in enumerate(coupling.b.coeffs)
          if c[n] != ZERO and b != 0]
    hd_terms = [[] for _ in omegas]
    for n, k, val in zip(*coupling.disturbance_in(space.modes)):
        d = (-mu[n][0], omegas[k] - mu[n][1])
        hd_terms[k].append(div(mul(c[n], exact(val)), d))
    out = []
    for omega, hd_k in zip(omegas, hd_terms):
        h, h_size = _sum(div(v, (-mu[n][0], omega - mu[n][1]))
                         for n, v in cb)
        hd, hd_size = _sum(hd_k)
        ell = None if h == ZERO else div((1 - hd[0], -hd[1]), h)
        out.append((h, hd, ell, h_size, hd_size))
    return out
