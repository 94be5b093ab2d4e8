"""Symmetrized adjacency matrices of labeled digraphs and their spectra.

numpy is imported inside the functions that build or diagonalize a matrix, so
importing the package, and every command that computes no spectrum, skips it.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence, Union

from .algebra import UsageError
from .schreier import SchreierGraph

__all__ = [
    "NumericError",
    "DenseSymMatrix",
    "SpectrumReport",
    "adjacency_matrix",
    "eigenvalues_symmetric",
    "spectra_equal",
    "spectrum_report_json",
]

DEFAULT_TOL = 1e-9


class NumericError(RuntimeError):
    """Eigenvalue computation failed or missed the requested tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DenseSymMatrix:
    """Dense real matrix, exactly symmetric by construction."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        import numpy as np

        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError(f"expected a square matrix, got shape {a.shape}")
        if not (a == a.T).all():
            raise UsageError("matrix is not exactly symmetric")
        a.setflags(write=False)
        self.entries = a

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


class SpectrumReport(NamedTuple):
    eigenvalues: tuple[float, ...]
    residual: float


def adjacency_matrix(graph: SchreierGraph) -> DenseSymMatrix:
    """Sum of P + P^T over the per-label permutation matrices P.

    A loop arc contributes 2 to its diagonal entry, so every label adds
    exactly 2 to each row sum.
    """
    import numpy as np

    n = graph.vertex_count
    a = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for perm in graph.perms:
        a[rows, np.array(perm, dtype=np.intp)] += 1
    return DenseSymMatrix(a + a.T)


def eigenvalues_symmetric(matrix: DenseSymMatrix, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """All eigenvalues with multiplicity, ascending, plus the worst residual
    max |A v - lambda v| over the computed eigenpairs.

    The solver returns each eigenvalue within a small multiple of
    eps ||A||_2 of the exact one, so an exact 0 comes back as noise of that
    size.  Eigenvalues within n eps ||A||_2 of 0 (for a symmetric A,
    ||A||_2 is the largest |lambda|) are therefore returned as 0.0: at that
    distance double precision cannot tell them from 0.

    Raises NumericError if the solver fails to converge or the residual ends
    up above tol.
    """
    if matrix.dimension < 1:
        raise UsageError("spectrum of an empty matrix is undefined")
    if not 0 < tol < math.inf:
        raise UsageError(f"tolerance must be positive and finite, got {tol}")
    import numpy as np

    try:
        values, vectors = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc
    residual = float(np.max(np.abs(matrix.entries @ vectors - vectors * values)))
    if residual > tol:
        raise NumericError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {tol:.3e}",
            residual=residual)
    ordered = np.sort(values).tolist()
    bound = len(ordered) * sys.float_info.epsilon * max(-ordered[0], ordered[-1])
    ordered = tuple(0.0 if abs(v) <= bound else v for v in ordered)
    return SpectrumReport(eigenvalues=ordered, residual=residual)


Spectrum = Union[SpectrumReport, Sequence[float]]


def _eigenvalue_list(spectrum: Spectrum) -> list[float]:
    if isinstance(spectrum, SpectrumReport):
        return list(spectrum.eigenvalues)
    return [float(v) for v in spectrum]


def spectra_equal(s1: Spectrum, s2: Spectrum, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise comparison after ascending sort; different sizes are unequal."""
    if not 0 < tol < math.inf:
        raise UsageError(f"tolerance must be positive and finite, got {tol}")
    v1 = sorted(_eigenvalue_list(s1))
    v2 = sorted(_eigenvalue_list(s2))
    if len(v1) != len(v2):
        return False
    return all(abs(a - b) <= tol for a, b in zip(v1, v2))


def _round_sig(value: float) -> float:
    rounded = float(f"{value:.12g}")
    return 0.0 if rounded == 0.0 else rounded


def spectrum_report_json(report: SpectrumReport) -> dict:
    """JSON form with eigenvalues at 12 significant digits for byte-stable output."""
    return {
        "dimension": len(report.eigenvalues),
        "eigenvalues": [_round_sig(v) for v in report.eigenvalues],
        "residual": _round_sig(report.residual),
    }
