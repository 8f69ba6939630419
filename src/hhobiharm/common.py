"""Exception types, the stabilization scaling modes and the helpers for
stacks of matrices shared across modules."""

import numpy as np


class NumericalError(RuntimeError):
    """A numerical operation failed (singular factorization, non-convergence)."""


class AssemblyError(NumericalError):
    """Global or local assembly could not be completed."""


class SolverError(NumericalError):
    """Linear solver failed or did not meet its residual contract."""


class ConfigError(ValueError):
    """Invalid run configuration (bad variant, degree, mesh parameters)."""


STAB_SCALINGS = ("plain", "k2-all", "k2-hm1-only")


def stab_factors(scaling: str, k: int) -> tuple[float, float]:
    """Multipliers (on the h^-3/h^-4 terms, on the h^-1 terms) for a scaling mode."""
    if scaling not in STAB_SCALINGS:
        raise ConfigError(f"unknown stabilization scaling {scaling!r}; "
                          f"expected one of {STAB_SCALINGS}")
    k2 = float((k + 1) ** 2)
    if scaling == "plain":
        return 1.0, 1.0
    if scaling == "k2-hm1-only":
        return 1.0, k2
    return k2, k2


def tr(X):
    """Transpose of each matrix of a (..., r, c) stack."""
    return X.swapaxes(-1, -2)


def by_columns(X):
    """X with each matrix stored column by column, as LAPACK returns it.  The
    layout of an operand picks the BLAS kernel of a product, and with it the
    bits of the product."""
    return tr(np.ascontiguousarray(tr(X)))
