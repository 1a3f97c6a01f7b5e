"""Exact symmetry-breaking analysis for trees.

Distinguishing and proper-distinguishing colorings of trees: exact
equivalence-class counts, parameter computation, witness construction and
certificates, list variants, and brute-force oracles for verification.
"""

from .construction import (
    Certificate,
    Coloring,
    chi_certificate,
    construct_distinguishing_coloring,
    construct_proper_distinguishing_coloring,
    distinguishing_chromatic_number,
    distinguishing_number,
    properize,
    rank_distinguishing,
    unrank_distinguishing,
)
from .counting import (
    BigCount,
    CountTable,
    count_distinguishing,
    count_proper_distinguishing,
)
from .list_coloring import (
    ListAssignment,
    OrbitListCheck,
    check_orbit_list_equality,
    construct_list_distinguishing_coloring,
    count_list_distinguishing,
    count_proper_list_distinguishing,
    parse_list_file,
)
from .oracle import (
    AutGroup,
    Automorphism,
    brute_chromatic_distinguishing_number,
    brute_count_classes,
    brute_distinguishing_number,
    coloring_orbit_form,
    enumerate_automorphisms,
    is_distinguishing,
    is_proper,
)
from .trees import (
    RootedTree,
    Tree,
    canonical_code,
    center,
    distinguishes,
    original_tree,
    parse_tree,
    to_edge_list,
    to_parens,
    to_rooted,
    vertex_orbits,
)

__version__ = "0.1.0"
