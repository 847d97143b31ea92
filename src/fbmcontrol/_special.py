"""The four special functions the kernel table needs, without scipy.

Ports of the cephes routines (S. L. Moshier) that ``scipy.special`` runs for
``gamma``, ``beta``, ``comb`` and ``eval_jacobi`` (scipy 1.17, through its
xsf library), operation for operation and in the same order, so every result
is the same double as scipy's.  ``math.exp`` and ``math.pow`` call the C
library as the compiled code does.  Only the branches the kernel table
reaches are ported, positive finite arguments; anything else raises
``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gamma", "rgamma", "beta", "binom", "comb", "eval_jacobi"]

# cephes gamma.c: Gamma(x + 2) = P(x)/Q(x) on 0 <= x < 1, and Stirling's series
_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3,
      1.04213797561761569935E-2, 4.76367800457137231464E-2,
      2.07448227648435975150E-1, 4.94214826801497100753E-1,
      9.99999999999999996796E-1)
_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4,
      -4.45641913851797240494E-3, 1.18139785222060435552E-2,
      3.58236398605498653373E-2, -2.34591795718243348568E-1,
      7.14304917030273074085E-2, 1.00000000000000000320E0)
_STIR = (7.87311395793093628397E-4, -2.29549961613378126380E-4,
         -2.68132617805781232825E-3, 3.47222221605458667310E-3,
         8.33333333333482257126E-2)
# cephes rgamma.c: Chebyshev coefficients of 1/Gamma(x) on 0 < x < 1
_R = (3.13173458231230000000E-17, -6.70718606477908000000E-16,
      2.20039078172259550000E-15, 2.47691630348254132600E-13,
      -6.60074100411295197440E-12, 5.13850186324226978840E-11,
      1.08965386454418662084E-9, -3.33964630686836942556E-8,
      2.68975996440595483619E-7, 2.96001177518801696639E-6,
      -8.04814124978471142852E-5, 4.16609138709688864714E-4,
      5.06579864028608725080E-3, -6.41925436109158228810E-2,
      -4.98558728684003594785E-3, 1.27546015610523951063E-1)
_MAXSTIR = 143.01608  # past it cephes splits x^(x - 1/2) into two powers


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _chbevl(x: float, coef) -> float:
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def gamma(x: float) -> float:
    """Gamma(x) for 0 < x <= 143.01608, as ``scipy.special.gamma``."""
    if not 0.0 < x <= _MAXSTIR:
        raise ValueError(f"gamma is ported for 0 < x <= {_MAXSTIR}, got {x}")
    if x > 33.0:  # stirf
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIR)
        y = math.pow(x, x - 0.5) / math.exp(x)
        return 2.50662827463100050242 * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _P) / _polevl(x, _Q)


def rgamma(x: float) -> float:
    """1/Gamma(x) for 0 < x <= 143.01608, as ``scipy.special.rgamma``."""
    if x > 4.0:
        return 1.0 / gamma(x)
    if not x > 0.0:
        raise ValueError(f"rgamma is ported for 0 < x <= {_MAXSTIR}, got {x}")
    z, w = 1.0, x
    while w > 1.0:
        w -= 1.0
        z *= w
    if w == 1.0:
        return 1.0 / z
    return w * (1.0 + _chbevl(4.0 * w - 2.0, _R)) / z


def beta(a: float, b: float) -> float:
    """B(a, b) for a, b > 0 with a + b <= 143.01608, as ``scipy.special.beta``.

    Not Gamma(a) Gamma(b) / Gamma(a + b): the reciprocal is multiplied into
    the factor that keeps the first product nearer 1.
    """
    if abs(a) < abs(b):
        a, b = b, a
    if not (b > 0.0 and a + b <= _MAXSTIR):
        raise ValueError(f"beta is ported for a, b > 0, a + b <= {_MAXSTIR}, "
                         f"got {a}, {b}")
    y = rgamma(a + b)
    ga, gb = gamma(a), gamma(b)
    if abs(abs(ga * y) - 1.0) > abs(abs(gb * y) - 1.0):
        return ga * (gb * y)
    return (ga * y) * gb


def binom(n: float, k: int) -> float:
    """The binomial coefficient of real n >= k and integer k >= 0, as
    ``scipy.special.binom``."""
    if not (k == math.floor(k) and 0 <= k <= n and n + 2.0 <= _MAXSTIR):
        raise ValueError(f"binom is ported for integer 0 <= k <= n <= "
                         f"{_MAXSTIR - 2}, got {n}, {k}")
    kx = float(k)
    if n == math.floor(n) and kx > n / 2 and n > 0:
        kx = n - kx
    if kx < 20:
        num = den = 1.0
        for i in range(1, 1 + int(kx)):
            num *= i + n - kx
            den *= i
            if abs(num) > 1e50:
                num /= den
                den = 1.0
        return num / den
    return 1 / (n + 1) / beta(1 + n - k, 1 + k)


def comb(n, k) -> np.ndarray:
    """C(n, k) of non-negative integer arrays, 0 where k > n, as
    ``scipy.special.comb`` (``exact=False``)."""
    n, k = np.broadcast_arrays(np.asarray(n), np.asarray(k))
    if n.dtype.kind not in "iu" or k.dtype.kind not in "iu":
        raise ValueError("comb is ported for integer arrays")
    out = np.zeros(n.shape)
    for i in zip(*np.nonzero((k <= n) & (k >= 0))):
        out[i] = binom(float(n[i]), int(k[i]))
    return out


def eval_jacobi(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """The Jacobi polynomial P_n^(alpha, beta)(x) of integer degree n >= 2,
    as ``scipy.special.eval_jacobi``: the recurrence in d_k = P_k - P_{k-1}
    scaled by the leading binomial."""
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"eval_jacobi is ported for integer n >= 2, got {n}")
    x = np.asarray(x, dtype=float)
    d = (alpha + beta + 2) * (x - 1) / (2 * (alpha + 1))
    p = d + 1
    for kk in range(n - 1):
        k = kk + 1.0
        t = 2 * k + alpha + beta
        d = ((t * (t + 1) * (t + 2)) * (x - 1) * p + 2 * k * (k + beta) * (t + 2) * d) \
            / (2 * (k + alpha + 1) * (k + alpha + beta + 1) * t)
        p = d + p
    return binom(n + alpha, n) * p
