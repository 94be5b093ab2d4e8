"""Dense symmetric eigensolving and graph isospectrality."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunada import (
    MAX_DENSE_DIMENSION,
    DenseSymMatrix,
    NumericError,
    ResourceError,
    SchreierGraph,
    UsageError,
    adjacency_matrix,
    catalog_entry,
    document_from_catalog,
    eigenvalues_symmetric,
    parse_document,
    schreier_graph,
    spectra_equal,
    subgroup_from_members,
    subgroup_generate,
)
from sunada import spectra
from sunada.spectra import _PURE_DIMENSION, _graph_spectrum, _report
from conftest import conjugate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from groups import psl_document
finally:
    sys.path.remove(str(PERFBENCH))

TOL = 1e-9


# ------------------------------------------------------------------- matrices


def test_dense_matrix_rejects_bad_input():
    with pytest.raises(UsageError):
        DenseSymMatrix([[0.0, 1.0]])
    with pytest.raises(UsageError):
        DenseSymMatrix([[0.0, 1.0], [2.0, 0.0]])


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_dense_matrix_rejects_nonfinite_entries(entry):
    # An infinite entry once came back as the eigenvalue 0.0 with residual nan.
    with pytest.raises(UsageError, match="matrix entries must be finite"):
        DenseSymMatrix([[entry]])
    with pytest.raises(UsageError, match="matrix entries must be finite"):
        DenseSymMatrix([[0.0, entry], [entry, 0.0]])


def test_a_nan_residual_is_a_numeric_failure():
    # nan > tol is False, so the check must be that the residual is within tol.
    with pytest.raises(NumericError, match="residual nan") as failure:
        _report([0.0, 1.0], math.nan, TOL)
    assert math.isnan(failure.value.residual)


def test_adjacency_refuses_a_graph_above_the_dense_bound(monkeypatch):
    """One vertex past the bound is refused before its rows or a numpy array
    are allocated."""
    n = MAX_DENSE_DIMENSION + 1
    graph = SchreierGraph(n, ("a",), [tuple(range(n))])

    def no_allocation(*args, **kwargs):
        raise AssertionError("a matrix was allocated")

    monkeypatch.setattr(np, "zeros", no_allocation)
    monkeypatch.setattr(spectra, "_adjacency_rows", no_allocation)
    with pytest.raises(ResourceError,
                       match=f"dimension {n} exceeds the bound of {MAX_DENSE_DIMENSION}"):
        adjacency_matrix(graph)


def test_dense_matrix_is_read_only():
    m = DenseSymMatrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_swap_matrix_spectrum():
    report = eigenvalues_symmetric(DenseSymMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert len(report.eigenvalues) == 2
    assert abs(report.eigenvalues[0] - (-1.0)) < 1e-12
    assert abs(report.eigenvalues[1] - 1.0) < 1e-12
    assert report.residual < 1e-12


def test_triangle_graph_spectrum():
    k3 = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    report = eigenvalues_symmetric(DenseSymMatrix(k3))
    expected = (-1.0, -1.0, 2.0)
    assert all(abs(a - b) < 1e-12 for a, b in zip(report.eigenvalues, expected))


def test_eigenvalues_are_ascending(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    vals = eigenvalues_symmetric(adjacency_matrix(g)).eigenvalues
    assert list(vals) == sorted(vals)


def test_unreachable_tolerance_raises_numeric_error(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    with pytest.raises(NumericError):
        eigenvalues_symmetric(adjacency_matrix(g), tol=1e-300)
    with pytest.raises(UsageError):
        eigenvalues_symmetric(adjacency_matrix(g), tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_nonfinite_tolerance_is_rejected(genus2, tol):
    # An infinite tolerance would pass every residual and every comparison.
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    with pytest.raises(UsageError, match="tolerance"):
        eigenvalues_symmetric(adjacency_matrix(g), tol=tol)
    with pytest.raises(UsageError, match="tolerance"):
        spectra_equal((0.0, 1.0), (5.0, 1.0), tol=tol)


# ------------------------------------------------------------------ adjacency


def test_adjacency_symmetrizes_and_counts_loops():
    graph = SchreierGraph(vertex_count=2, labels=("a", "b"), perms=((1, 0), (0, 1)))
    a = adjacency_matrix(graph).entries
    assert a.tolist() == [[2.0, 2.0], [2.0, 2.0]]


def _random_graph(rng):
    """1 to 3 labels on 1 to 40 vertices; each label fixes a random share of
    the vertices, which become loop arcs, and permutes the rest."""
    n = rng.randint(1, 40)
    perms = []
    for _ in range(rng.randint(1, 3)):
        moved = rng.sample(range(n), rng.randint(0, n))
        perm = list(range(n))
        for i, j in zip(moved, rng.sample(moved, len(moved))):
            perm[i] = j
        perms.append(perm)
    return SchreierGraph(n, [f"g{i}" for i in range(len(perms))], perms)


def test_adjacency_matches_a_numpy_scatter():
    rng = random.Random(5)
    sizes, loops = set(), 0
    for _ in range(150):
        graph = _random_graph(rng)
        n = graph.vertex_count
        expected = np.zeros((n, n))
        for perm in graph.perms:
            np.add.at(expected, (np.arange(n), list(perm)), 1)
            np.add.at(expected, (list(perm), np.arange(n)), 1)
        matrix = adjacency_matrix(graph)
        assert matrix.entries.dtype == np.float64 and not matrix.entries.flags.writeable
        assert np.array_equal(matrix.entries, expected)
        if n <= _PURE_DIMENSION:
            pure = _graph_spectrum(graph).eigenvalues
            dense = eigenvalues_symmetric(matrix).eigenvalues
            assert max(abs(x - y) for x, y in zip(pure, dense)) <= 1e-12
        sizes.add(n)
        loops += any(i == j for perm in graph.perms for i, j in enumerate(perm))
    assert min(sizes) <= _PURE_DIMENSION < max(sizes)
    assert loops


def test_adjacency_row_sums(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    a = adjacency_matrix(g).entries
    assert np.array_equal(a, a.T)
    # each label contributes one out-arc and one in-arc per vertex
    assert all(row.sum() == 2 * len(g.labels) for row in a)


def test_trace_identities(genus2, genus3, orbifold_h):
    for entry in (genus2, genus3, orbifold_h):
        for sub in (entry.subgroup_u, entry.subgroup_v):
            g = schreier_graph(entry.group, sub, entry.polygon.cycles)
            mat = adjacency_matrix(g)
            report = eigenvalues_symmetric(mat)
            a = mat.entries
            assert math.isclose(sum(report.eigenvalues), float(np.trace(a)), abs_tol=1e-8)
            assert math.isclose(
                sum(v * v for v in report.eigenvalues),
                float(np.trace(a @ a)),
                abs_tol=1e-8,
            )


# -------------------------------------------------------------- isospectrality


def test_catalog_pairs_are_isospectral(genus2, genus3, orbifold_h):
    for entry in (genus2, genus3, orbifold_h):
        g1 = schreier_graph(entry.group, entry.subgroup_u, entry.polygon.cycles)
        g2 = schreier_graph(entry.group, entry.subgroup_v, entry.polygon.cycles)
        s1 = eigenvalues_symmetric(adjacency_matrix(g1))
        s2 = eigenvalues_symmetric(adjacency_matrix(g2))
        assert spectra_equal(s1, s2, tol=TOL)


def test_relabeling_vertices_preserves_spectrum(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    rng = random.Random(23)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    # relabel v as perm[v]: the arc s -> d becomes perm[s] -> perm[d]
    shuffled_perms = []
    for images in g.perms:
        moved = [0] * g.vertex_count
        for s, d in enumerate(images):
            moved[perm[s]] = perm[d]
        shuffled_perms.append(tuple(moved))
    shuffled = SchreierGraph(
        vertex_count=g.vertex_count,
        labels=g.labels,
        perms=tuple(shuffled_perms),
    )
    assert shuffled != g
    s1 = eigenvalues_symmetric(adjacency_matrix(g))
    s2 = eigenvalues_symmetric(adjacency_matrix(shuffled))
    assert spectra_equal(s1, s2, tol=TOL)


def test_conjugate_subgroups_are_isospectral(s4):
    rng = random.Random(29)
    labels = [(f"g{k}", idx) for k, idx in enumerate(s4.generators)]
    for _ in range(8):
        sub = subgroup_generate(s4, rng.sample(range(s4.order), 2))
        g = rng.randrange(s4.order)
        conj = subgroup_from_members(s4, conjugate(s4, sub.members, g))
        s1 = eigenvalues_symmetric(adjacency_matrix(schreier_graph(s4, sub, labels)))
        s2 = eigenvalues_symmetric(adjacency_matrix(schreier_graph(s4, conj, labels)))
        assert spectra_equal(s1, s2, tol=TOL)


def test_spectra_equal_tolerance_semantics():
    assert spectra_equal((0.0, 1.0), (1e-10, 1.0), tol=1e-9)
    assert not spectra_equal((0.0, 1.0), (1e-10, 1.0), tol=1e-11)
    assert not spectra_equal((0.0, 1.0), (0.0,), tol=1e-9)


def test_spectrum_report_json(genus2):
    g = schreier_graph(genus2.group, genus2.subgroup_u, genus2.polygon.cycles)
    d = eigenvalues_symmetric(adjacency_matrix(g)).to_json_dict()
    assert d["dimension"] == 12
    assert len(d["eigenvalues"]) == 12
    assert d["residual"] < 1e-9
    # values are plain floats rounded to 12 significant digits, no negative zero
    assert all(isinstance(v, float) for v in d["eigenvalues"])
    assert all(not (v == 0.0 and math.copysign(1.0, v) < 0) for v in d["eigenvalues"])


# ------------------------------------------------- the pure-Python Jacobi path


@st.composite
def schreier_like_graphs(draw):
    """1 to 3 random permutations of 1 to ``_PURE_DIMENSION`` vertices."""
    n = draw(st.integers(1, _PURE_DIMENSION))
    k = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(n))) for _ in range(k)]
    return SchreierGraph(n, [f"g{i}" for i in range(k)], perms)


@settings(max_examples=60, deadline=None)
@given(schreier_like_graphs())
def test_jacobi_agrees_with_numpy_on_random_graphs(graph):
    pure = _graph_spectrum(graph)
    dense = eigenvalues_symmetric(adjacency_matrix(graph))
    scale = max(1.0, max(abs(v) for v in dense.eigenvalues))  # ||A||_2
    assert len(pure.eigenvalues) == graph.vertex_count
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(pure.eigenvalues, dense.eigenvalues))
    assert pure.residual <= 1e-12


def _document_graphs():
    """(name, graph) for U and V of each catalog document and of the seed-1
    PSL(3,2) and PSL(2,11) documents, labeled by the generators as the CLI does."""
    documents = {name: document_from_catalog(catalog_entry(name))
                 for name in ("genus2", "genus3", "orbifold-h")}
    documents.update((name, psl_document(name, 1)) for name in ("PSL(3,2)", "PSL(2,11)"))
    for name, document in documents.items():
        spec = parse_document(document)
        for sub_name, sub in spec.subgroups.items():
            yield f"{name} {sub_name}", schreier_graph(spec.group, sub,
                                                       list(spec.named_elements.items()))


_DOCUMENT_GRAPHS = dict(_document_graphs())


@pytest.mark.parametrize("name", list(_DOCUMENT_GRAPHS))
def test_jacobi_prints_numpys_eigenvalues_on_the_documents(name):
    graph = _DOCUMENT_GRAPHS[name]
    pure = _graph_spectrum(graph).to_json_dict()
    dense = eigenvalues_symmetric(adjacency_matrix(graph)).to_json_dict()
    assert pure["eigenvalues"] == dense["eigenvalues"]
    assert pure["residual"] <= 1e-12


def test_jacobi_on_one_vertex_is_exact():
    # U = G: one coset, every label a loop, so A = [[2k]] and no rotation runs.
    report = _graph_spectrum(SchreierGraph(1, ("a", "b"), [(0,), (0,)]))
    assert report == ((4.0,), 0.0)


@pytest.mark.parametrize("perms, eigenvalues", [
    ([(1, 0)], (-2.0, 2.0)),                # A = [[0, 2], [2, 0]]
    ([(1, 0), (0, 1)], (0.0, 4.0)),         # A = [[2, 2], [2, 2]]
])
def test_jacobi_on_two_vertices(perms, eigenvalues):
    # One rotation by pi/4 diagonalises either matrix.
    report = _graph_spectrum(SchreierGraph(2, ("a", "b")[:len(perms)], perms))
    assert report.eigenvalues == eigenvalues
    assert report.residual <= 1e-15

