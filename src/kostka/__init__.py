"""Exact computations in the dominance cone of weight pairs for simple root systems.

Everything runs over exact rationals: root data and Cartan matrices for the
types A-G, Weyl orbits and parabolic averages, vertices of the polytopes
obtained by slicing the cone at a dominant weight, the complete list of
extremal rays with integral scaling data, Levi induction of weight pairs,
and independent brute-force verifiers (the double description of the rays
and slice vertices, and Freudenthal weight multiplicities).

Submodules load on first use: ``import kostka`` loads ``cone``, ``errors``,
``linalg`` and ``rootdata``, and ``levi``, ``oracle`` and ``weyl`` load when
one of their names is first read from the package (PEP 562), as
``from kostka import *`` does.  ``__all__`` and ``dir(kostka)`` list them all.
"""

__version__ = "0.1.0"

from .cone import (LinearForm, RayRecord, Vertex, all_rays, cone_contains, cone_inequalities,
                   is_extremal_ray, polytope_vertices, ray_count_formula, rays_for_node, vertex)
from .errors import KostkaError
from .rootdata import (LeviFactor, RootSystem, components,
                       connected_subsets_containing, fundamental_weight,
                       fw_to_root_coords, is_connected, is_dominant, levi_factors,
                       node_set, parabolic_order, positive_roots, rho,
                       root_coords_to_fw, root_system, sub_cartan, weyl_order)

# each name loaded on first use -> its submodule; a submodule's own name maps to itself
_LAZY = {name: module for module, names in (
    ("levi", ("LeviWeightPair", "extend_by_zero", "induce", "induce_between", "induce_sum",
              "induce_vertex", "induction_composes", "levi_cone_contains", "levi_root_coords",
              "restrict")),
    ("oracle", ("FreudenthalTable", "MembershipComparison", "brute_force_rays",
                "brute_force_vertices", "compare_membership_multiplicity",
                "weight_multiplicity", "weyl_dim")),
    ("weyl", ("longest_element_image", "orbit", "parabolic_average", "simple_reflection")),
) for name in (module, *names)}


def __getattr__(name):
    # read from the submodule on every call, never kept here: a name replaced on its
    # submodule (a monkeypatch, a tracer) is replaced here too, and put back with it
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = globals().get(module)
    if mod is None:
        __import__(f"{__name__}.{module}")  # which binds the submodule here, as any import does
        mod = globals()[module]
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_LAZY} - {"_LAZY", "__getattr__", "__dir__"})


__all__ = [name for name in __dir__() if not name.startswith("_")]
