"""Exact computations in the dominance cone of weight pairs for simple root systems.

Everything runs over exact rationals: root data and Cartan matrices for the
types A-G, Weyl orbits and parabolic averages, vertices of the polytopes
obtained by slicing the cone at a dominant weight, the complete list of
extremal rays with integral scaling data, Levi induction of weight pairs,
and independent brute-force verifiers (the double description of the rays
and slice vertices, and Freudenthal weight multiplicities).
"""

__version__ = "0.1.0"

from .cone import (LinearForm, RayRecord, Vertex, all_rays, cone_contains,
                   cone_inequalities, fundamental_orbit_pairs, is_extremal_ray,
                   polytope_vertices, ray_count_formula, rays_for_node, vertex)
from .errors import KostkaError
from .levi import (LeviWeightPair, extend_by_zero, induce, induce_between,
                   induce_sum, induce_vertex, induction_composes,
                   levi_cone_contains, levi_root_coords, restrict)
from .oracle import (FreudenthalTable, MembershipComparison, brute_force_rays, brute_force_vertices,
                     compare_membership_multiplicity, weight_multiplicity, weyl_dim)
from .rootdata import (LeviFactor, RootSystem, components,
                       connected_subsets_containing, fundamental_weight,
                       fw_to_root_coords, is_connected, is_dominant, levi_factors,
                       node_set, parabolic_order, positive_roots, rho,
                       root_coords_to_fw, root_system, sub_cartan, weyl_order)
from .weyl import (longest_element_image, orbit, parabolic_average, parabolic_average_direct,
                   simple_reflection)

__all__ = [name for name in dir() if not name.startswith("_")]
