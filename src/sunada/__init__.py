"""Sunada triples of finite groups: construction, verification, and search.

The package builds finite groups from permutations, 2x2 modular matrices, or
unit/residue pairs, checks Gassmann equivalence and subgroup conjugacy,
derives combinatorial data of the quotient surfaces of a polygon gluing
(smoothness, exact Euler characteristics, cone points, genus), builds Schreier
coset graphs with labeled digraph isomorphism in direct and arrow-reversed
modes, compares symmetrized adjacency spectra, searches small groups for
Sunada pairs, and ships three verified example constructions.
"""

from .algebra import (CycleParseError, Element, FiniteGroup, Mat2, Perm,
                      ResourceError, SemiPair, UsageError, compose,
                      conjugacy_classes, cycle_string, element_order,
                      generate_group, identity_like, inverse, parse_cycles)
from .catalog import (CatalogEntry, CatalogError, Expectations, catalog_entry,
                      catalog_names)
from .covering import (ConePoint, CoveringReport, PolygonSpec, cone_points,
                       covering_report, covering_report_json, smoothness)
from .gassmann import (Subgroup, SunadaReport, are_conjugate_subgroups,
                       are_gassmann, class_intersection_profile,
                       is_sunada_triple, subgroup_from_members,
                       subgroup_generate)
from .schreier import (CosetTable, SchreierGraph, coset_action, coset_table,
                       graph_isomorphic, graph_json_dict, schreier_graph,
                       to_dot)
from .search import (SearchConfig, enumerate_subgroups, find_sunada_pairs,
                     simultaneous_conjugator)
from .spectra import (DenseSymMatrix, NumericError, SpectrumReport,
                      adjacency_matrix, eigenvalues_symmetric, spectra_equal,
                      spectrum_report_json)
from .specfile import (LoadedSpec, SpecError, document_from_catalog,
                       load_text, parse_document, render_element)

__version__ = "0.1.0"

__all__ = [
    "CycleParseError", "Element", "FiniteGroup", "Mat2", "Perm",
    "ResourceError", "SemiPair", "UsageError", "compose", "conjugacy_classes",
    "cycle_string", "element_order", "generate_group", "identity_like",
    "inverse", "parse_cycles",
    "CatalogEntry", "CatalogError", "Expectations", "catalog_entry",
    "catalog_names",
    "ConePoint", "CoveringReport", "PolygonSpec", "cone_points",
    "covering_report", "covering_report_json", "smoothness",
    "Subgroup", "SunadaReport", "are_conjugate_subgroups", "are_gassmann",
    "class_intersection_profile", "is_sunada_triple",
    "subgroup_from_members", "subgroup_generate",
    "CosetTable", "SchreierGraph", "coset_action", "coset_table",
    "graph_isomorphic", "graph_json_dict", "schreier_graph", "to_dot",
    "SearchConfig", "enumerate_subgroups", "find_sunada_pairs",
    "simultaneous_conjugator",
    "DenseSymMatrix", "NumericError", "SpectrumReport", "adjacency_matrix",
    "eigenvalues_symmetric", "spectra_equal", "spectrum_report_json",
    "LoadedSpec", "SpecError", "document_from_catalog", "load_text",
    "parse_document", "render_element",
]
