"""Sunada triples of finite groups: construction, verification, and search.

The package builds finite groups from permutations, 2x2 modular matrices, or
unit/residue pairs, checks Gassmann equivalence and subgroup conjugacy,
derives combinatorial data of the quotient surfaces of a polygon gluing
(smoothness, exact Euler characteristics, cone points, genus), builds Schreier
coset graphs with labeled digraph isomorphism in direct and arrow-reversed
modes, compares symmetrized adjacency spectra, searches small groups for
Sunada pairs, and ships three verified example constructions.

``_EXPORTS`` below is the one declaration of the public names; no module
has an ``__all__``.  ``import sunada`` loads no submodule.  The first read of
a public name imports the module that owns it (PEP 562) and binds that
module's public names here, so later reads are plain attribute lookups.
"""

import importlib

__version__ = "0.1.0"

# The public names by owning module.  Each is defined in its module, not
# imported into it, so its first read executes its owner;
# tests/test_package.py checks this and that no module has an ``__all__``.
_EXPORTS = {
    "algebra": ("UsageError", "CycleParseError", "ResourceError", "Perm", "Mat2", "SemiPair",
                "Element", "parse_cycles", "cycle_string", "FiniteGroup", "generate_group",
                "conjugacy_classes", "DEFAULT_ELEMENT_CAP"),
    "catalog": ("CatalogError", "Expectations", "CatalogEntry", "catalog_names",
                "catalog_entry"),
    "covering": ("PolygonSpec", "ConePoint", "CoveringReport", "smoothness", "cone_points",
                 "covering_report"),
    "gassmann": ("Subgroup", "subgroup_generate", "subgroup_from_members",
                 "class_intersection_profile", "are_conjugate_subgroups", "SunadaReport",
                 "is_sunada_triple"),
    "schreier": ("CosetTable", "coset_table", "SchreierGraph", "schreier_graph",
                 "graph_isomorphic"),
    "search": ("SearchConfig", "enumerate_subgroups", "find_sunada_pairs",
               "simultaneous_conjugator"),
    "spectra": ("NumericError", "DenseSymMatrix", "SpectrumReport", "adjacency_matrix",
                "eigenvalues_symmetric", "spectra_equal", "MAX_DENSE_DIMENSION"),
    "specfile": ("SpecError", "LoadedSpec", "parse_document", "parse_polygon", "decode_json",
                 "load_text", "render_element", "document_from_catalog"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, bound here by its import
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    globals().update((key, getattr(loaded, key)) for key in _EXPORTS[module])
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
