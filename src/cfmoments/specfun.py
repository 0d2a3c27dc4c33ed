"""Gamma-function machinery and the closed-form constants of the moment formulas.

Everything in here is a pure function of its arguments.  The module
hosts the gamma function (scipy's, behind a pole check), the alternating
power sum that appears in the normalizing constants, the moment constant
and its reciprocal, the closed form of the oscillatory kernel integral,
the Mellin value of ``sin^2``, surface areas of unit spheres, and the
asymptotic tails of ``u**(-1-alpha) K(u)`` integrals for ``K = exp(iu)``
and J0 (Hankel's expansion), which share one integration-by-parts series:
one coefficient builder and one summation over all lower limits at once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _scipy_gamma

from .errors import DomainError

__all__ = [
    "gamma",
    "power_difference_sum",
    "power_difference_condition",
    "moment_constant",
    "difference_integral_constant",
    "cosine_difference_integral",
    "sin_squared_mellin",
    "sphere_area",
    "mean_value_theta",
    "binomial_difference_coefficients",
    "cosine_difference_kernel",
    "cosine_difference_kernel_bound",
    "trig_power_tail",
    "j0_power_tail",
    "plane_wave_mean_denominator",
    "MAX_DIFFERENCE_ORDER",
]

# Alternating binomial sums lose roughly one digit per order; beyond this
# cap the cancellation eats the accuracy budget.
MAX_DIFFERENCE_ORDER = 12

_INT_TOL = 1e-9


def _is_integer(x, tol=_INT_TOL):
    return abs(x - round(x)) <= tol


def gamma(x: float) -> float:
    """Gamma function on the real line, poles excluded."""
    x = float(x)
    if x <= 0.0 and _is_integer(x, 1e-12):
        raise DomainError(f"gamma pole at non-positive integer x={x}")
    return float(_scipy_gamma(x))


def binomial_difference_coefficients(k: int) -> np.ndarray:
    """Coefficients ``binom(k, m) (-1)**(k-m)`` for m = 0..k, as exact floats."""
    if not 1 <= k <= MAX_DIFFERENCE_ORDER:
        raise DomainError(
            f"difference order k={k} outside [1, {MAX_DIFFERENCE_ORDER}]"
        )
    return np.array(
        [math.comb(k, m) * (-1) ** (k - m) for m in range(k + 1)], dtype=float
    )


def power_difference_sum(k: int, alpha: float) -> float:
    """``sum_{m=1}^{k} binom(k,m) (-1)**(k-m) m**alpha``.

    Equals the k-th forward difference of ``x**alpha`` at 0 with unit step:
    zero at integer alpha in [1, k-1], ``k!`` at alpha = k.  Near such an
    n, ``sum c_m m**n = 0`` leaves ``sum c_m m**n expm1((alpha - n) ln m)``.
    """
    return math.fsum(_power_difference_terms(k, alpha))


def _power_difference_terms(k: int, alpha: float) -> list:
    """The terms of :func:`power_difference_sum`, in their expm1 form near
    an integer n in [1, k - 1]."""
    if alpha < 0:
        raise DomainError("power_difference_sum requires alpha >= 0")
    coeffs = binomial_difference_coefficients(k)
    n = round(alpha)
    if 1 <= n <= k - 1:
        return [coeffs[m] * m**n * math.expm1((alpha - n) * math.log(m))
                for m in range(1, k + 1)]
    return [coeffs[m] * m**alpha for m in range(1, k + 1)]


def power_difference_condition(k: int, alpha: float) -> float:
    """Condition number ``sum |t_m| / |sum t_m|`` of the alternating power
    sum over its terms t_m (:func:`power_difference_sum`): the factor by
    which the sum, and with it :func:`moment_constant`, magnifies the
    rounding of its terms."""
    terms = _power_difference_terms(k, alpha)
    return math.fsum(abs(t) for t in terms) / abs(math.fsum(terms))


def _sin_half_pi(alpha: float) -> float:
    """``sin(alpha pi/2)``, near its zeros too, from ``alpha - round(alpha)``
    (exact by Sterbenz's lemma) and the quadrant ``round(alpha) mod 4``."""
    n = round(alpha)
    h = (alpha - n) * math.pi / 2.0
    return (math.sin(h), math.cos(h), -math.sin(h), -math.cos(h))[n % 4]


def mean_value_theta(k: int, alpha: float) -> float:
    """Recover theta from the mean-value form of the alternating power sum.

    Solves ``sum = alpha (alpha-1) ... (alpha-k+1) (theta k)**(alpha-k)`` for
    theta.  Valid when alpha is non-integral or alpha > k; rejects arguments
    where the falling factorial is numerically zero.
    """
    s = power_difference_sum(k, alpha)
    falling = 1.0
    for j in range(k):
        falling *= alpha - j
    if abs(falling) < 1e-10:
        raise DomainError(
            f"falling factorial vanishes at k={k}, alpha={alpha}; theta undefined"
        )
    ratio = s / falling
    if ratio <= 0.0:
        raise DomainError("mean-value ratio not positive; theta undefined")
    if abs(alpha - k) < 1e-12:
        raise DomainError("alpha = k leaves theta indeterminate")
    return ratio ** (1.0 / (alpha - k)) / k


def moment_constant(k: int, alpha: float, d: int) -> float:
    """Constant relating the k-th difference integral to the alpha-moment.

    ``-sin(alpha pi/2) Gamma(alpha+1) Gamma((alpha+d)/2) /
    (pi**((d+1)/2) S Gamma((alpha+1)/2))`` with S the alternating power sum.
    Undefined at even-integer alpha (sine vanishes) and at integer alpha
    below k (S vanishes).
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if alpha <= 0:
        raise DomainError("order alpha must be positive")
    if _is_integer(alpha) and round(alpha) % 2 == 0:
        raise DomainError(
            f"alpha={alpha} is an even integer: excluded order, use even_order_moment"
        )
    if _is_integer(alpha) and 1 <= round(alpha) <= k - 1:
        raise DomainError(
            f"alternating power sum vanishes at integer alpha={alpha} < k={k}"
        )
    s = power_difference_sum(k, alpha)
    if s == 0.0 or not math.isfinite(s):
        raise DomainError(f"alternating power sum degenerate at k={k}, alpha={alpha}")
    num = _sin_half_pi(alpha) * gamma(alpha + 1.0) * gamma((alpha + d) / 2.0)
    den = math.pi ** ((d + 1) / 2.0) * s * gamma((alpha + 1.0) / 2.0)
    return -num / den


def difference_integral_constant(k: int, alpha: float, d: int) -> float:
    """Constant of the single-atom difference integral; reciprocal of
    :func:`moment_constant`.

    Computed from its own closed form so the reciprocal relationship is a
    genuine cross-check rather than a tautology.
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if alpha <= 0:
        raise DomainError("order alpha must be positive")
    if _is_integer(alpha) and round(alpha) % 2 == 0:
        raise DomainError(f"alpha={alpha} is an even integer: excluded order")
    if _is_integer(alpha) and 1 <= round(alpha) <= k - 1:
        raise DomainError(
            f"alternating power sum vanishes at integer alpha={alpha} < k={k}"
        )
    s = power_difference_sum(k, alpha)
    num = math.pi ** ((d + 1) / 2.0) * s * gamma((alpha + 1.0) / 2.0)
    den = _sin_half_pi(alpha) * gamma(alpha + 1.0) * gamma((alpha + d) / 2.0)
    return -num / den


def cosine_difference_integral(k: int, alpha: float) -> float:
    """Closed value of ``int_0^inf r**(-1-alpha) E_k(r) dr`` where
    ``E_k(r) = (exp(-ir)-1)**k + (exp(ir)-1)**k``.

    Valid for 0 < alpha < k+1 when k is odd and 0 < alpha < k when k is
    even.  Zero at integer alpha in [1, k-1]; ``(-1)**((k+1)/2) pi`` at
    alpha = k for odd k.
    """
    upper = k + 1 if k % 2 == 1 else k
    if not 0.0 < alpha < upper:
        raise DomainError(
            f"alpha={alpha} outside the convergence range (0, {upper}) for k={k}"
        )
    if _is_integer(alpha):
        n = round(alpha)
        if 1 <= n <= k - 1:
            return 0.0
        if n == k and k % 2 == 1:
            return (-1.0) ** ((k + 1) // 2) * math.pi
    s = power_difference_sum(k, alpha)
    return -math.pi * s / (_sin_half_pi(alpha) * gamma(alpha + 1.0))


def sin_squared_mellin(delta: float) -> float:
    """``int_0^inf r**(-2-delta) sin(r)**2 dr`` for -1 < delta < 1.

    The removable singularity at delta = 0 takes its limiting value pi/2.
    """
    if not -1.0 < delta < 1.0:
        raise DomainError(f"delta={delta} outside (-1, 1)")
    if delta == 0.0:
        return math.pi / 2.0
    return (
        2.0**delta
        * gamma(1.0 - delta)
        / (delta * (1.0 + delta))
        * math.sin(math.pi * delta / 2.0)
    )


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d; the d = 1 convention is 2."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if d == 1:
        return 2.0
    return 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)


def plane_wave_mean_denominator(l: int, d: int) -> int:
    """``D_l = 4**l l! Gamma(l + d/2) / Gamma(d/2)``, an exact integer.

    The sphere mean of a plane wave, ``K_d(y) = mean_w exp(-i y w_1)``, has
    the Taylor series ``sum_l (-1)**l y**(2l) / D_l``: (2l)! in d = 1
    (cos), ``4**l (l!)**2`` in d = 2 (J0), (2l + 1)! in d = 3 (sinc).  The
    product of the factors ``2 (i + 1) (2 i + d)`` over i < l is exact in
    integers, so a quotient by it rounds once.
    """
    if l < 0 or d < 1:
        raise DomainError("need l >= 0 and d >= 1")
    den = 1
    for i in range(l):
        den *= 2 * (i + 1) * (2 * i + d)
    return den


def cosine_difference_kernel(k: int, r):
    """``E_k(r) = (exp(-ir)-1)**k + (exp(ir)-1)**k`` in cancellation-free form.

    ``(-1)**((k+1)/2) 2**(k+1) sin(r/2)**k sin(kr/2)`` for odd k and
    ``(-1)**(k/2) 2**(k+1) sin(r/2)**k cos(kr/2)`` for even k.
    """
    r = np.asarray(r, dtype=float)
    half = np.sin(r / 2.0)
    if k % 2 == 1:
        return (-1.0) ** ((k + 1) // 2) * 2.0 ** (k + 1) * half**k * np.sin(k * r / 2.0)
    return (-1.0) ** (k // 2) * 2.0 ** (k + 1) * half**k * np.cos(k * r / 2.0)


def cosine_difference_kernel_bound(k: int, r):
    """Pointwise bound on ``|E_k|``: ``min(2**(k+1), k r**(k+1))`` for odd k,
    ``min(2**(k+1), 2 r**k)`` for even k."""
    r = np.asarray(r, dtype=float)
    if k % 2 == 1:
        return np.minimum(2.0 ** (k + 1), k * r ** (k + 1))
    return np.minimum(2.0 ** (k + 1), 2.0 * r**k)


# rounding of a tail, relative to the summed magnitudes of its parts: eight
# ulp, where the tails of cos, sin and J0 were measured to need up to 2.5
_TAIL_ROUNDING = 8 * 2.0**-52

# the integration-by-parts series keep at most this many terms
_POWER_TAIL_TERMS = 200


def _power_tail_coefficients(nu, n):
    """``(c, |c|)``: the first ``n`` coefficients ``c_j = i (-i)**j (nu)_j``
    of the integration-by-parts series of ``int_y^inf u**(-nu) exp(iu)
    du``, with ``c_0 = i`` and ``c_(j+1) = -i (nu + j) c_j``; one row per
    element of an array ``nu``.  Far coefficients may overflow; the
    summation's stopping rule never takes them."""
    nu = np.asarray(nu, dtype=float)[..., None]
    # the phase i (-i)**j by j mod 4
    phases = np.array([1j, 1.0, -1j, -1.0])[np.arange(n) % 4]
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.cumprod(np.concatenate(
            [np.ones(nu.shape), nu + np.arange(n - 1)], axis=-1), axis=-1)
        return phases * mags, mags


def _power_series_sum(y, nu, coeffs, mags):
    """``(sums, last, total)`` of ``sum_j coeffs_j y**(-nu-j)`` for every
    start of the 1-d array ``y``: the sum, the magnitude ``mags_j
    y**(-nu-j)`` of the last term taken (it bounds an integration-by-parts
    remainder) and the summed magnitudes.  Terms are taken while their
    magnitudes decrease, through the first one below 1e-16 of its partial
    sum and at most ``len(coeffs)``; a start whose first magnitude is not
    finite takes none, with sum 0 and an infinite ``last``.

    One block holds a row of powers per term, summed down its columns in
    term order.  Past index ``y - nu`` no term decreases when ``mags_(j+1)
    >= (nu + j) mags_j``, so the block starts with ``ceil(max y - nu) + 2``
    rows, at most 64, and doubles while a start takes every row.
    """
    rows = np.arange(y.size)
    n = min(coeffs.size, 64, max(2, math.ceil(y.max(initial=0.0) - nu) + 2))
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            # far terms may overflow; the stopping rule never takes them
            powers = y ** (-nu - np.arange(n))[:, None]
            # row j + 1 holds term j of every start; row 0 stands for no
            # term taken, an empty sum after an infinite magnitude
            start = np.zeros((1, y.size))
            partial = np.cumsum(np.vstack([start, coeffs[:n, None] * powers]), axis=0)
            m = np.vstack([start + math.inf, mags[:n, None] * powers])
            # a term is taken while it is below the one before it, and that
            # one is not below 1e-16 of its partial sum
            ceiling = np.where(m >= 1e-16 * np.maximum(np.abs(partial), 1e-300), m, -math.inf)
            taken = np.logical_and.accumulate(m[1:] < ceiling[:-1], axis=0).sum(axis=0)
        if n == coeffs.size or not np.any(taken == n):
            break
        n = min(coeffs.size, 2 * n)
    last = m[taken, rows]
    m[0] = 0.0
    return partial[taken, rows], last, np.cumsum(m, axis=0)[taken, rows]


def trig_power_tail(y, alpha: float):
    """Asymptotic value of ``int_y^inf u**(-1-alpha) exp(iu) du``.

    Repeated integration by parts unrolls the integral into
    ``exp(iy) sum_j c_j y**(-nu-j)`` with nu = 1 + alpha, c_0 = i and
    ``c_{j+1} = -i (nu+j) c_j``.  The remainder after the j-th term is
    bounded by that term's magnitude, so each element's series is summed
    while its terms decrease and cut at the smallest one (or once a term
    falls below 1e-16 relative to the sum).  ``y`` is a scalar or an
    array; returns ``(value, bound)`` of the same shape.  All starts share
    one block summation, so a start's value does not depend on its batch;
    a start whose first term overflows takes none, bounded by ``int_y^inf
    u**(-nu) du``.  Useful once ``y >~ nu``; callers bridge smaller y by
    quadrature.
    """
    y_arr = np.asarray(y, dtype=float)
    flat = y_arr.ravel()
    if np.any(flat <= 0.0):
        raise DomainError("trig_power_tail requires y > 0")
    nu = 1.0 + alpha
    acc, bound, _ = _power_series_sum(flat, nu, *_power_tail_coefficients(nu, _POWER_TAIL_TERMS))
    empty = bound == math.inf
    bound[empty] = flat[empty] ** (1.0 - nu) / max(nu - 1.0, 1e-300)
    value = np.exp(1j * flat) * acc
    if y_arr.ndim == 0:
        return complex(value[0]), float(bound[0])
    return value.reshape(y_arr.shape), bound.reshape(y_arr.shape)


# Hankel's expansion of J0 (DLMF 10.17.1; Watson, Bessel Functions, 7.21):
# J0(u) = Re[sqrt(2/(pi u)) exp(i (u - pi/4)) sum_k i**k a_k u**-k], with
# a_k = (-1)**k 1**2 3**2 ... (2k - 1)**2 / (k! 8**k); the tail takes the
# first _HANKEL_TERMS terms, and a_K of the first omitted one bounds the rest
_HANKEL_TERMS = 8
_HANKEL_A = np.array([(-1) ** k * math.prod((2 * i - 1) ** 2 for i in range(1, k + 1))
                      / (math.factorial(k) * 8**k) for k in range(_HANKEL_TERMS + 1)])


def j0_power_tail(y, alpha: float):
    """``int_y^inf u**(-1-alpha) J0(u) du`` for ``y >= max(32, 4 (1 +
    alpha))``, from Hankel's expansion; returns ``(value, bound)`` arrays
    of the shape of ``y``.

    Term k of the expansion is ``A_k u**(-nu_k) exp(iu)`` with ``nu_k =
    alpha + 3/2 + k``, whose tail integration by parts unrolls into the
    series of :func:`trig_power_tail`, ``exp(iy) sum_j c_j(nu_k)
    y**(-nu_k-j)`` with ``c_j(nu) = i (-i)**j (nu)_j``.  Collecting the
    powers of y gives one series, ``sum_n C_n y**(-nu_0-n)``, summed per
    limit by the same block summation while the sum ``D_n y**(-nu_0-n)``
    of its parts' magnitudes decreases, and cut at the smallest one or
    below 1e-16 of the sum; that last magnitude bounds every part's
    remainder together.  Once all K rows are present, ``D_(n+1) = (nu_0 +
    n) D_n``, so past index ``y - nu_0`` no collected term decreases
    either.  For real u the expansion's own remainder after K terms is
    below ``sqrt(2/(pi u)) (|a_K| u**-K + |a_(K+1)| u**-(K+1))``, which is
    below ``|a_K| u**-K`` once u >= 32, and integrates to ``|a_K|
    y**(-alpha-K-1/2) / (alpha + K + 1/2)``.  The rounding of the sum and
    of its phase adds the tails' eight ulp of ``sum_n D_n
    y**(-nu_0-n)``, which the value itself can fall far below near a zero
    of its phase.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    K, N = _HANKEL_TERMS, _POWER_TAIL_TERMS
    nu0 = 1.5 + alpha
    amp = (math.sqrt(2.0 / math.pi) * _HANKEL_A[:K] * 1j ** np.arange(K)
           * complex(math.sqrt(0.5), -math.sqrt(0.5)))
    # row k holds c_j(nu_k); the powers n = k + j collected
    c, mags = _power_tail_coefficients(nu0 + np.arange(K), N)
    C = np.zeros(N, dtype=complex)
    D = np.zeros(N)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            C[k:] += amp[k] * c[k, :N - k]
            D[k:] += abs(amp[k]) * mags[k, :N - k]
    acc, bound, total = _power_series_sum(flat, nu0, C, D)
    nu = alpha + 0.5 + K
    val = np.real(np.exp(1j * flat) * acc).reshape(y.shape)
    err = (bound + abs(_HANKEL_A[K]) * flat ** (-nu) / nu
           + _TAIL_ROUNDING * total).reshape(y.shape)
    return val, err
