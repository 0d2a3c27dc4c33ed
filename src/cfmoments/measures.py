"""Finite atomic measures and built-in test measures."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .specfun import MAX_DIFFERENCE_ORDER

__all__ = ["DiscreteMeasure", "lacunary_measure"]


class DiscreteMeasure:
    """A finitely supported probability measure on R^d.

    Weights must be positive; they are normalized on construction and the
    unit-mass invariant is enforced to 1e-14.
    """

    def __init__(self, points, weights=None, *, normalize=True):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise DomainError("points must form a non-empty (n, d) array")
        n = pts.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise DomainError("weights must match the number of points")
            if np.any(w <= 0.0):
                raise DomainError("weights must be positive")
            if normalize:
                w = w / math.fsum(w)
        if abs(math.fsum(w) - 1.0) > 1e-14:
            raise DomainError("weights must sum to 1")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        self.points = pts
        self.weights = w
        self._even_moments = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def radii(self) -> np.ndarray:
        return np.sqrt((self.points**2).sum(axis=1))

    def moment(self, alpha: float) -> float:
        """Exact absolute moment ``sum w_j |x_j|**alpha``."""
        if alpha < 0:
            raise DomainError("moment order must be nonnegative")
        r = self.radii()
        return math.fsum(self.weights * r**alpha)

    def scaled_even_moments(self) -> tuple[float, np.ndarray]:
        """``(rho_max, M)`` with ``M[l - 1] = sum_j w_j (rho_j / rho_max)**(2l)``
        over the atoms off the origin, for l = 1..``MAX_DIFFERENCE_ORDER``.

        The even moments are ``m_2l = rho_max**(2l) M[l - 1]``; scaled, the
        terms are at most the weights and no atom radius can overflow them.
        Computed on the first call, as one matrix product, and kept.
        """
        if self._even_moments is None:
            rho = self.radii()
            pos = rho > 0.0
            radii = rho[pos]
            rho_max = float(radii.max(initial=0.0))
            powers = 2 * np.arange(1, MAX_DIFFERENCE_ORDER + 1)
            M = ((radii / rho_max)[None, :] ** powers[:, None]) @ self.weights[pos]
            self._even_moments = (rho_max, M)
        return self._even_moments

    def convolve(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        """Atomic convolution: all pairwise sums with product weights."""
        if self.dim != other.dim:
            raise DomainError("dimension mismatch in convolution")
        pts = (self.points[:, None, :] + other.points[None, :, :]).reshape(-1, self.dim)
        w = (self.weights[:, None] * other.weights[None, :]).ravel()
        return DiscreteMeasure(pts, w)

    def scaled(self, c: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.points * c, self.weights.copy())


def lacunary_measure(alpha: float, terms: int, d: int = 1) -> DiscreteMeasure:
    """Truncation of the dyadic atom measure with weights ~ 2**(-j alpha) / j**2.

    The atoms sit at ``2**j e_1``; the truncated measure has all moments, but
    its moments of any order beta > alpha grow without bound as the
    truncation is refined.  Handy as a worst-case membership test input.
    """
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    if terms < 1:
        raise DomainError("need at least one atom")
    j = np.arange(1, terms + 1, dtype=float)
    w = 2.0 ** (-j * alpha) / j**2
    pts = np.zeros((terms, d))
    pts[:, 0] = 2.0**j
    return DiscreteMeasure(pts, w)
