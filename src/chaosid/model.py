"""Core model types: forcing terms, the forcing basis, and the fitted model.

A reconstructed model has the form

    x(k+1) = A x(k) + B phi(k)
    y(k)   = C x(k)

where phi(k) is the vector of basis functions evaluated at t = k * dt.  The
basis vocabulary covers the shapes the symmetry stage can recommend
(sinusoids, exponentials, polynomials) plus products of two terms.  Every
term accepts an optional ``time_power`` exponent that replaces the time
argument t with t**alpha; that form never comes out of the recommendation
rule and exists so the bundled reference models can be played back verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, OverflowUnsafe

# exp() overflows double precision just above this argument
_EXP_ARG_LIMIT = 700.0


def _timebase(t, power):
    t = np.asarray(t, dtype=float)
    if power == 1.0:
        return t
    return np.power(t, power)


@dataclass(frozen=True)
class Sinusoid:
    """sin(omega * t**time_power + phi)."""

    omega: float
    phi: float = 0.0
    time_power: float = 1.0

    def evaluate(self, t):
        return np.sin(self.omega * _timebase(t, self.time_power) + self.phi)

    def max_exp_argument(self, t_max):
        return 0.0

    def describe(self):
        return f"sin({self.omega:.6g}*t{_power_suffix(self.time_power)}{self.phi:+.6g})"


@dataclass(frozen=True)
class Exponential:
    """exp(rate * t**time_power)."""

    rate: float
    time_power: float = 1.0

    def evaluate(self, t):
        return np.exp(self.rate * _timebase(t, self.time_power))

    def max_exp_argument(self, t_max):
        if t_max <= 0.0:
            return 0.0
        return self.rate * float(t_max) ** self.time_power

    def describe(self):
        return f"exp({self.rate:.6g}*t{_power_suffix(self.time_power)})"


@dataclass(frozen=True)
class Polynomial:
    """t**degree, or a full polynomial when coefficients are given.

    ``coeffs`` holds coefficients in ascending order (c0 + c1*t + ...).  The
    plain monomial form is what the symmetry stage recommends; the
    coefficient form exists for the bundled reference models, one of which
    uses a quadratic with fixed published coefficients.
    """

    degree: int
    coeffs: tuple = None
    time_power: float = 1.0

    def evaluate(self, t):
        tb = _timebase(t, self.time_power)
        if self.coeffs is None:
            return np.power(tb, self.degree)
        out = np.zeros_like(tb)
        for k, c in enumerate(self.coeffs):
            out = out + c * np.power(tb, k)
        return out

    def max_exp_argument(self, t_max):
        return 0.0

    def describe(self):
        if self.coeffs is None:
            return f"t{_power_suffix(self.time_power)}^{self.degree}"
        return "poly(" + ", ".join(f"{c:.6g}" for c in self.coeffs) + ")"


@dataclass(frozen=True)
class Product:
    """Pointwise product of two terms."""

    first: object
    second: object

    def evaluate(self, t):
        return self.first.evaluate(t) * self.second.evaluate(t)

    def max_exp_argument(self, t_max):
        return max(self.first.max_exp_argument(t_max), self.second.max_exp_argument(t_max))

    def describe(self):
        return f"{self.first.describe()}*{self.second.describe()}"


def _power_suffix(power):
    return "" if power == 1.0 else f"^{power:.6g}"


TERM_TYPES = (Sinusoid, Exponential, Polynomial, Product)


@dataclass(frozen=True)
class ForcingBasis:
    """An ordered collection of scalar basis functions of time."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if not isinstance(term, TERM_TYPES):
                raise TypeError(f"unsupported basis term {term!r}")

    @property
    def size(self):
        return len(self.terms)

    def evaluate(self, steps, dt):
        """Evaluate every term at t = k*dt for k in ``steps``.

        Returns an array of shape (len(steps), size).
        """
        t = np.asarray(steps, dtype=float) * float(dt)
        if self.size == 0:
            return np.zeros((t.size, 0))
        cols = [term.evaluate(t) for term in self.terms]
        return np.column_stack(cols)

    def check_horizon(self, t_max):
        """Raise OverflowUnsafe if any term would overflow up to t_max."""
        for term in self.terms:
            arg = term.max_exp_argument(t_max)
            if arg > _EXP_ARG_LIMIT:
                raise OverflowUnsafe(
                    f"term {term.describe()} reaches exp argument {arg:.3g} "
                    f"over horizon t={t_max:.6g}, above the safe limit {_EXP_ARG_LIMIT:g}"
                )

    def describe(self):
        return [term.describe() for term in self.terms]


def polynomial_basis():
    """The fallback basis {1, t, t**2}."""
    return ForcingBasis((Polynomial(0), Polynomial(1), Polynomial(2)))


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete affine model x(k+1) = A x(k) + B phi(k), y(k) = C x(k)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    basis: ForcingBasis
    dt: float
    embedding_tau: int = 0
    embedding_channel: int = 0

    def __post_init__(self):
        # C-ordered whatever the source, so that ``A @ x`` sums in the same
        # order for a fitted model (column views of one solution) and for
        # the same model read back from model.json
        A = np.atleast_2d(np.ascontiguousarray(self.A, dtype=float))
        B = np.ascontiguousarray(self.B, dtype=float)
        C = np.atleast_2d(np.ascontiguousarray(self.C, dtype=float))
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise InvalidValue(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise InvalidValue(f"B has {B.shape[0]} rows, expected {n}")
        if B.shape[1] != self.basis.size:
            raise InvalidValue(
                f"B has {B.shape[1]} columns but the basis has {self.basis.size} terms"
            )
        if C.shape[1] != n:
            raise InvalidValue(f"C has {C.shape[1]} columns, expected {n}")
        if not 0 < self.dt < np.inf:
            raise InvalidValue(f"dt must be finite and positive, got {self.dt}")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.basis.size

    @property
    def q(self):
        return self.C.shape[0]


@dataclass
class FitReport:
    """Diagnostics from one identification run.

    ``free_run`` holds the states of the model's free run from the first
    embedding state, or None when that run diverged; it is not written to
    ``fit.json``.
    """

    residual_rms: np.ndarray
    one_step_nrmse: np.ndarray = None
    free_run_nrmse: np.ndarray = None
    condition_estimate: float = 0.0
    ridge_lambda: float = 0.0
    basis_description: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    free_run: np.ndarray = None
