"""Gamma-function machinery and the closed-form constants of the moment formulas.

Everything in here is a pure function of its arguments.  The module
hosts the gamma function (scipy's, behind a pole check), the alternating
power sum that appears in the normalizing constants, the moment constant
and its reciprocal, the closed form of the oscillatory kernel integral,
the Mellin value of ``sin^2``, surface areas of unit spheres, and the
asymptotic tail of ``r**(-1-alpha) * exp(i r)`` integrals used by the
oscillatory tail handlers.
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


def _power_tail_series(y, nu, tol):
    """``(sum, bound)`` of :func:`trig_power_tail`'s series for one start.

    The terms can only decrease up to index ``y - nu + 1``, so all of them
    are formed in one numpy pass each for powers, magnitudes and partial
    sums, with the same operations as the array path; the stopping rule
    then picks how many are taken.
    """
    n = int(min(200, max(2, math.ceil(y - nu) + 2)))
    coeffs = [1j]
    for j in range(n - 1):
        coeffs.append(coeffs[-1] * (-1j * (nu + j)))
    with np.errstate(over="ignore", invalid="ignore"):
        # far terms may overflow; the stopping rule never reaches them
        terms = np.array(coeffs) * np.array([y]) ** (-nu - np.arange(n))
        mags = np.abs(terms)
        partial = np.cumsum(terms)
    # stop before the first term that does not decrease, or after the
    # first one below tol relative to the sum
    rising = np.flatnonzero(~(mags < np.concatenate([[math.inf], mags[:-1]])))
    small = np.flatnonzero(mags < tol * np.maximum(np.abs(partial), 1e-300))
    taken = min(rising[0] if rising.size else n, small[0] + 1 if small.size else n)
    if taken == 0:
        return 0j, (np.array([y]) ** (1.0 - nu))[0] / max(nu - 1.0, 1e-300)
    return partial[taken - 1], mags[taken - 1]


def trig_power_tail(y, alpha: float, tol: float = 1e-16):
    """Asymptotic value of ``int_y^inf u**(-1-alpha) exp(iu) du``.

    Repeated integration by parts unrolls the integral into
    ``exp(iy) sum_j c_j y**(-nu-j)`` with nu = 1 + alpha, c_0 = i and
    ``c_{j+1} = -i (nu+j) c_j``.  The remainder after the j-th term is
    bounded by that term's magnitude, so each element's series is summed
    while its terms decrease and cut at the smallest one (or once a term
    falls below ``tol`` relative to the sum).  ``y`` is a scalar or an
    array; returns ``(value, bound)`` of the same shape.  Up to three
    starts are summed start by start, more by one numpy pass per term;
    both give the same values to an ulp.  Useful once ``y >~ nu``; callers
    bridge smaller y by quadrature.
    """
    y_arr = np.asarray(y, dtype=float)
    flat = y_arr.ravel()
    if np.any(flat <= 0.0):
        raise DomainError("trig_power_tail requires y > 0")
    nu = 1.0 + alpha
    if flat.size <= 3:
        acc = np.empty(flat.size, dtype=complex)
        bound = np.empty(flat.size)
        for i, yi in enumerate(flat.tolist()):
            acc[i], bound[i] = _power_tail_series(yi, nu, tol)
    else:
        acc = np.zeros(flat.size, dtype=complex)
        prev_mag = np.full(flat.size, math.inf)
        bound = flat ** (1.0 - nu) / max(nu - 1.0, 1e-300)
        live = np.arange(flat.size)
        coeff = 1j
        for j in range(200):
            if live.size == 0:
                break
            term = coeff * flat[live] ** (-nu - j)
            mag = np.abs(term)
            falling = mag < prev_mag[live]
            live, term, mag = live[falling], term[falling], mag[falling]
            acc[live] += term
            bound[live] = mag
            prev_mag[live] = mag
            live = live[mag >= tol * np.maximum(np.abs(acc[live]), 1e-300)]
            coeff *= -1j * (nu + j)
    value = np.exp(1j * flat) * acc
    if y_arr.ndim == 0:
        return complex(value[0]), float(bound[0])
    return value.reshape(y_arr.shape), bound.reshape(y_arr.shape)
