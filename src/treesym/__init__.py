"""Exact symmetry-breaking analysis for trees.

Distinguishing and proper-distinguishing colorings of trees: exact
equivalence-class counts, parameter computation, witness construction and
certificates, list variants, and brute-force oracles for verification.

Every public name is importable from here, but its submodule loads only on
first use, so a caller that needs the parser and the counts never loads the
list code or the oracle.
"""

import importlib

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "Certificate",
        "Coloring",
        "chi_certificate",
        "construct_distinguishing_coloring",
        "construct_proper_distinguishing_coloring",
        "distinguishing_chromatic_number",
        "distinguishing_number",
        "properize",
        "rank_distinguishing",
        "unrank_distinguishing",
    ), "construction"),
    **dict.fromkeys((
        "BigCount",
        "CountTable",
        "count_distinguishing",
        "count_proper_distinguishing",
    ), "counting"),
    **dict.fromkeys((
        "ListAssignment",
        "OrbitListCheck",
        "check_orbit_list_equality",
        "construct_list_distinguishing_coloring",
        "count_list_distinguishing",
        "count_proper_list_distinguishing",
        "parse_list_file",
    ), "list_coloring"),
    **dict.fromkeys((
        "AutGroup",
        "Automorphism",
        "brute_chromatic_distinguishing_number",
        "brute_count_classes",
        "brute_distinguishing_number",
        "coloring_orbit_form",
        "enumerate_automorphisms",
        "is_distinguishing",
    ), "oracle"),
    **dict.fromkeys((
        "RootedTree",
        "Tree",
        "canonical_code",
        "center",
        "distinguishes",
        "is_proper",
        "original_tree",
        "parse_tree",
        "to_edge_list",
        "to_parens",
        "to_rooted",
    ), "trees"),
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
