"""Exact combinatorics of cubical matching complexes of embedded planar
graphs, with the associated Fibonacci/Catalan polynomial calculus."""

from .complexes import (CubicalMatchingComplex, TilingFace, build_complex,
                        count_f_vector, verify_edge_decomposition)
from .fibpoly import (Poly, a_unit_closed_form, affine_rank, apply_A,
                      bareiss_rank, catalan, catalan_identity_check,
                      f_polynomial, fibonacci, multiset_no_consecutive_count,
                      p_closed_form, p_polynomial)
from .matchings import (Matching, count_tilings, cube_coordinates,
                        enumerate_perfect_matchings)
from .planar import (Edge, EdgeClassification, GraphError, PlanarGraph,
                     Region, build_from_polyomino, build_ladder,
                     build_planar_graph, classify_edges, edge_key,
                     load_graph_json, parse_polyomino, reduce_graph)
from .topology import (CollapseVerdict, SimplicialComplex, collapse_search,
                       independence_complex, kozlov_reference_betti,
                       link_of_face, matched_region_graph, z2_betti)

__all__ = [
    "CollapseVerdict", "CubicalMatchingComplex", "Edge", "EdgeClassification",
    "GraphError", "Matching", "PlanarGraph", "Poly", "Region",
    "SimplicialComplex", "TilingFace", "a_unit_closed_form", "affine_rank",
    "apply_A", "bareiss_rank", "build_complex", "build_from_polyomino",
    "build_ladder", "build_planar_graph", "catalan", "catalan_identity_check",
    "classify_edges", "collapse_search", "count_f_vector", "count_tilings",
    "cube_coordinates", "edge_key", "enumerate_perfect_matchings",
    "f_polynomial", "fibonacci", "independence_complex",
    "kozlov_reference_betti", "link_of_face", "load_graph_json",
    "matched_region_graph", "multiset_no_consecutive_count", "p_closed_form",
    "p_polynomial", "parse_polyomino", "reduce_graph",
    "verify_edge_decomposition", "z2_betti",
]
