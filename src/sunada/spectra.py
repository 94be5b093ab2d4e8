"""Symmetrized adjacency matrices of labeled digraphs and their spectra.

numpy is imported inside the functions that build or diagonalize a matrix, so
importing the package, and every command that computes no spectrum, skips it.
The ``spectrum`` command solves a graph of at most ``_PURE_DIMENSION``
vertices by cyclic Jacobi in pure Python instead (``_graph_spectrum``), which
costs less than importing numpy; a larger graph takes the numpy path.  Both
paths start from one builder of the adjacency rows, ``_adjacency_rows``, and
end in ``_report``: one residual check, one rule for exact zeros.

A spectrum is computed densely, so its memory grows as the square of the
vertex count and its time as the cube.  ``adjacency_matrix`` refuses a graph
of more than ``MAX_DENSE_DIMENSION`` vertices with ResourceError before it
allocates: at that bound one float64 matrix is 128 MiB, and a spectrum's
traced peak is about five such arrays (4.8 at 1024 vertices).
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import NamedTuple, Sequence, Union

from .algebra import ResourceError, UsageError, _expect
from .schreier import SchreierGraph

# The residual gate of every spectrum and the tolerance of ``spectra_equal``.
DEFAULT_TOL = 1e-9
MAX_DENSE_DIMENSION = 4096
# The largest graph that ``_graph_spectrum`` solves without numpy.  Jacobi's
# time grows as the cube of the size: about 2 ms at 12 vertices and 36 ms at
# 32, against about 110 ms to import numpy, but 125 ms at 48.
_PURE_DIMENSION = 32
# Cyclic Jacobi converges quadratically: random graphs of 12 to 32 vertices
# took 6 to 9 sweeps.  An unconverged run leaves a large residual, which
# ``_report`` refuses.
_MAX_SWEEPS = 50


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

        try:
            a = np.array(entries, dtype=float)
        except (TypeError, ValueError):
            raise UsageError(f"matrix entries must be numbers, got {entries!r}") from None
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError(f"a matrix must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise UsageError("matrix entries must be finite")
        if not (a == a.T).all():
            raise UsageError("matrix is not exactly symmetric")
        a.setflags(write=False)
        self.entries = a

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def _round_sig(value: float) -> float:
    rounded = float(f"{value:.12g}")
    return 0.0 if rounded == 0.0 else rounded


class SpectrumReport(NamedTuple):
    eigenvalues: tuple[float, ...]
    residual: float

    def to_json_dict(self) -> dict:
        """JSON form with eigenvalues at 12 significant digits for byte-stable output."""
        return {
            "dimension": len(self.eigenvalues),
            "eigenvalues": [_round_sig(v) for v in self.eigenvalues],
            "residual": _round_sig(self.residual),
        }


def adjacency_matrix(graph: SchreierGraph) -> DenseSymMatrix:
    """Sum of P + P^T over the per-label permutation matrices P.

    A loop arc contributes 2 to its diagonal entry, so every label adds
    exactly 2 to each row sum.  The entries come from ``_adjacency_rows``, as
    on the pure-Python path, and pass the checks of ``DenseSymMatrix``.  At
    ``MAX_DENSE_DIMENSION`` vertices those int rows take about 1.0 s to build
    and convert against 0.75 s for a numpy scatter, and peak at 300 MB
    against 430 MB; ``eigh`` then takes seconds.  Raises ResourceError,
    before anything is allocated, for a graph of more than
    ``MAX_DENSE_DIMENSION`` vertices.
    """
    _expect(graph, SchreierGraph)
    n = graph.vertex_count
    if n > MAX_DENSE_DIMENSION:
        raise ResourceError(f"a dense spectrum of dimension {n} exceeds the bound of "
                            f"{MAX_DENSE_DIMENSION} vertices")
    return DenseSymMatrix(_adjacency_rows(graph))


def _adjacency_rows(graph: SchreierGraph) -> list[list[int]]:
    """The entries of ``adjacency_matrix(graph)`` as one list of ints per row."""
    n = graph.vertex_count
    rows = [[0] * n for _ in range(n)]
    for perm in graph.perms:
        for i, j in enumerate(perm):
            rows[i][j] += 1
            rows[j][i] += 1
    return rows


def eigenvalues_symmetric(matrix: DenseSymMatrix) -> SpectrumReport:
    """All eigenvalues with multiplicity, ascending, plus the worst residual
    max |A v - lambda v| over the computed eigenpairs.

    The solver returns each eigenvalue within a small multiple of
    eps ||A||_2 of the exact one, so an exact 0 comes back as noise of that
    size.  Eigenvalues within n eps ||A||_2 of 0 (for a symmetric A,
    ||A||_2 is the largest |lambda|) are therefore returned as 0.0: at that
    distance double precision cannot tell them from 0.

    Raises NumericError if the solver fails to converge or the residual is
    not within ``DEFAULT_TOL`` (a NaN residual included).
    """
    _expect(matrix, DenseSymMatrix)
    if matrix.dimension < 1:
        raise UsageError("spectrum of an empty matrix is undefined")
    import numpy as np

    try:
        values, vectors = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc
    residual = float(np.max(np.abs(matrix.entries @ vectors - vectors * values)))
    return _report(values.tolist(), residual)


def _report(ordered: list[float], residual: float) -> SpectrumReport:
    """The report of ascending eigenvalues whose eigenpairs left ``residual``,
    with the values near 0 snapped to 0.0; NumericError unless residual <=
    ``DEFAULT_TOL`` (a NaN residual included)."""
    if not residual <= DEFAULT_TOL:
        raise NumericError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {DEFAULT_TOL:.3e}",
            residual=residual)
    bound = len(ordered) * sys.float_info.epsilon * max(-ordered[0], ordered[-1])
    ordered = tuple(0.0 if abs(v) <= bound else v for v in ordered)
    return SpectrumReport(eigenvalues=ordered, residual=residual)


def _jacobi(rows: list[list[int]]) -> tuple[list[float], float]:
    """Eigenvalues of the symmetric matrix ``rows`` by cyclic Jacobi, ascending,
    and the residual max |A v - lambda v| over the eigenvectors it accumulates.

    A rotation is skipped where |a[p][q]| is at most eps ||A||_F / n, and the
    sweeps stop once every off-diagonal entry is that small, so the part left
    off the diagonal has Frobenius norm under eps ||A||_F; or after
    ``_MAX_SWEEPS``.
    """
    n = len(rows)
    a = [[float(x) for x in row] for row in rows]
    vectors = [[float(i == j) for j in range(n)] for i in range(n)]  # vectors[i] goes with a[i][i]
    tiny = sys.float_info.epsilon * math.sqrt(sum(x * x for row in a for x in row)) / n
    for _ in range(_MAX_SWEEPS):
        if all(abs(x) <= tiny for p, row in enumerate(a) for x in row[p + 1:]):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= tiny:
                    continue
                # The rotation in the (p, q) plane that zeroes a[p][q]; t = tan of its angle.
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p], a[q]
                new_p = [c * x - s * y for x, y in zip(rp, rq)]
                new_q = [s * x + c * y for x, y in zip(rp, rq)]
                new_p[p], new_q[q] = rp[p] - t * apq, rq[q] + t * apq
                new_p[q] = new_q[p] = 0.0
                a[p], a[q] = new_p, new_q
                for row, x, y in zip(a, new_p, new_q):  # columns p and q, by symmetry
                    row[p], row[q] = x, y
                vp, vq = vectors[p], vectors[q]
                vectors[p] = [c * x - s * y for x, y in zip(vp, vq)]
                vectors[q] = [s * x + c * y for x, y in zip(vp, vq)]
    values = [a[i][i] for i in range(n)]
    residual = max(abs(sum(map(mul, row, v)) - value * x)
                   for v, value in zip(vectors, values) for row, x in zip(rows, v))
    return sorted(values), residual


def _graph_spectrum(graph: SchreierGraph) -> SpectrumReport:
    """``eigenvalues_symmetric(adjacency_matrix(graph))``, solved by
    ``_jacobi`` without numpy for a graph of 1 to ``_PURE_DIMENSION`` vertices."""
    _expect(graph, SchreierGraph)
    n = graph.vertex_count
    if not 1 <= n <= _PURE_DIMENSION:
        return eigenvalues_symmetric(adjacency_matrix(graph))
    return _report(*_jacobi(_adjacency_rows(graph)))


Spectrum = Union[SpectrumReport, Sequence[float]]


def _eigenvalue_list(spectrum: Spectrum) -> list[float]:
    if isinstance(spectrum, SpectrumReport):
        return list(spectrum.eigenvalues)
    try:
        return [float(v) for v in spectrum]
    except (TypeError, ValueError):
        raise UsageError(f"a spectrum must be a sequence of numbers, got {spectrum!r}") from None


def spectra_equal(s1: Spectrum, s2: Spectrum) -> bool:
    """Entrywise comparison within ``DEFAULT_TOL`` after sorting; different sizes are unequal."""
    v1 = sorted(_eigenvalue_list(s1))
    v2 = sorted(_eigenvalue_list(s2))
    if len(v1) != len(v2):
        return False
    return all(abs(a - b) <= DEFAULT_TOL for a, b in zip(v1, v2))
