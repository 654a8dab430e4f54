"""The public surface, pinned: a change to it must show up here."""

import ast
import fractions
import importlib
import inspect
import json
import operator
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kostka
from kostka import errors

EXPORTS = [
    "FreudenthalTable", "KostkaError", "LeviFactor", "LeviWeightPair", "LinearForm",
    "MembershipComparison", "RayRecord", "RootSystem", "Vertex",
    "all_rays", "brute_force_rays", "brute_force_vertices", "compare_membership_multiplicity",
    "components", "cone", "cone_contains", "cone_inequalities", "connected_subsets_containing",
    "errors", "extend_by_zero", "fundamental_weight",
    "fw_to_root_coords", "induce", "induce_between", "induce_sum", "induce_vertex",
    "induction_composes", "is_connected", "is_dominant", "is_extremal_ray", "levi",
    "levi_cone_contains", "levi_factors", "levi_root_coords", "linalg", "longest_element_image",
    "node_set", "oracle", "orbit", "parabolic_average",
    "parabolic_order", "polytope_vertices", "positive_roots", "ray_count_formula",
    "rays_for_node", "restrict", "rho", "root_coords_to_fw", "root_system", "rootdata",
    "simple_reflection", "sub_cartan", "vertex", "weight_multiplicity", "weyl", "weyl_dim",
    "weyl_order",
]

FUNCTIONS = {
    "linalg": {
        "solve_unique": "(a)",
    },
    "rootdata": {
        "components": "(rs, nodes)",
        "connected_subsets_containing": "(rs, i)",
        "fundamental_weight": "(rs, i)",
        "fw_to_root_coords": "(rs, w)",
        "is_connected": "(rs, nodes)",
        "is_dominant": "(w)",
        "levi_factors": "(rs, nodes)",
        "node_set": "(rs, nodes)",
        "parabolic_order": "(rs, nodes)",
        "positive_roots": "(rs)",
        "rho": "(rs)",
        "root_coords_to_fw": "(rs, c)",
        "root_system": "(letter, rank)",
        "sub_cartan": "(rs, nodes)",
        "supported_types": "(max_rank)",
        "symmetrizer": "(rs)",
        "validate_type": "(letter, rank)",
        "weyl_order": "(letter, rank)",
    },
    "weyl": {
        "longest_element_image": "(rs, w, nodes)",
        "orbit": "(rs, w, nodes)",
        "parabolic_average": "(rs, w, nodes)",
        "simple_reflection": "(rs, i, w)",
    },
    "cone": {
        "all_rays": "(rs)",
        "cone_contains": "(rs, lam, mu)",
        "cone_inequalities": "(rs)",
        "is_extremal_ray": "(rs, lam, mu)",
        "polytope_vertices": "(rs, lam)",
        "ray_count_formula": "(letter, rank)",
        "rays_for_node": "(rs, i, *, inverses=None)",
        "vertex": "(rs, lam, nodes)",
    },
    "levi": {
        "extend_by_zero": "(rs, levi, lam_local)",
        "induce": "(rs, pair)",
        "induce_between": "(rs, inner, outer, lam_local, mu_local)",
        "induce_sum": "(rs, pairs)",
        "induce_vertex": "(rs, levi, lam_local, inner)",
        "induction_composes": "(rs, pair, mid)",
        "levi_cone_contains": "(rs, levi, lam_local, mu_local)",
        "levi_root_coords": "(rs, levi, w_local)",
        "restrict": "(rs, levi, w)",
    },
    "oracle": {
        "brute_force_rays": "(rs)",
        "brute_force_vertices": "(rs, lam)",
        "compare_membership_multiplicity": "(rs, lam, mu)",
        "weight_multiplicity": "(rs, lam, mu)",
        "weyl_dim": "(rs, lam)",
    },
}

# every work bound is a module constant, read on each call, so a test can lower it
BOUNDS = {
    "cone": {"VERTEX_CAP": 65536},
    "oracle": {"DEFAULT_DIM_CAP": 10**5, "DEFAULT_ROOT_CAP": 10**4,
               "DEFAULT_VERTEX_RANK_BOUND": 5, "_TABLES_PER_SYSTEM": 256},
    "weyl": {"MAX_GROUP_ORDER": 10**6, "MAX_ORBIT": 10**6},
}

# the fields of the public records, named tuples, in constructor order; a Vertex holds
# its point and c_alpha as integer numerators over one denominator, a RayRecord its mu
# and c_alpha over k_det, and both read them as Fractions
RECORDS = {
    "LeviFactor": ("letter", "rank", "nodes"),
    "LeviWeightPair": ("levi", "lambda_fw", "mu_fw"),
    "LinearForm": ("label", "coeffs"),
    "MembershipComparison": ("member", "in_root_lattice", "multiplicity"),
    "RayRecord": ("node", "levi", "numerators", "k_det"),
    "Vertex": ("levi", "numerators", "denominator"),
}

# what `import kostka.cli` may load beyond the interpreter's own modules: the package,
# __future__, and fractions with what it imports (fractions, decimal, _decimal and
# numbers, where the site has loaded re and typing)
CLI_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import __future__, fractions
allowed = set(sys.modules) - before
import kostka.cli
print(*sorted(set(sys.modules) - before - allowed))
"""

# the package modules `import kostka.cli` loads: those a plain request reads
CLI_MODULES = ["kostka", "kostka.cli", "kostka.cone", "kostka.errors", "kostka.linalg",
               "kostka.rootdata"]

# the package's dunder names, which dir(kostka) lists beside EXPORTS
DUNDERS = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
           "__name__", "__package__", "__path__", "__spec__", "__version__"]

# in a fresh interpreter: dir(kostka) after `import kostka`, then after `import kostka.cli`,
# then the names `from kostka import *` binds
PACKAGE_DIR = """
import json, sys
sys.path.insert(0, sys.argv[1])
import kostka
first = dir(kostka)
import kostka.cli
second = dir(kostka)
names = {}
exec("from kostka import *", names)
print(json.dumps([first, second, sorted(set(names) - {"__builtins__"})]))
"""

# (class, base class)
ERRORS = [
    ("BudgetExceededError", "KostkaError"), ("CapExceededError", "KostkaError"),
    ("EmptyNodeSetError", "KostkaError"), ("InvariantError", "KostkaError"),
    ("KostkaError", "Exception"), ("NoSolutionError", "KostkaError"),
    ("NotDominantError", "KostkaError"), ("NotInConeError", "KostkaError"),
    ("NotInLeviConeError", "KostkaError"), ("NotInRootLatticeError", "KostkaError"),
    ("OverlappingLevisError", "KostkaError"), ("RankBoundExceededError", "KostkaError"),
    ("UnsupportedRankError", "KostkaError"),
]


def _signature(fn) -> str:
    # parameters and defaults, without annotations
    sig = inspect.signature(fn)
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))


def _public_functions(name: str) -> dict[str, str]:
    mod = importlib.import_module(f"kostka.{name}")
    return {attr: _signature(obj) for attr, obj in sorted(vars(mod).items())
            if not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__}


def test_package_exports():
    assert sorted(kostka.__all__) == EXPORTS


def test_public_functions_and_signatures():
    assert {name: _public_functions(name) for name in FUNCTIONS} == FUNCTIONS
    assert _signature(kostka.FreudenthalTable) == "(rs, lam)"  # a class, so not in FUNCTIONS


# every public entry that takes a weight or a root-coordinate vector, as (weights, call):
# call(*weights) on A3, each weight of 3 coordinates or, on the Levi (1, 2), of 2
A3 = kostka.root_system("A", 3)
WEIGHT_CALLS = {
    "fw_to_root_coords": (((1, 0, 1),), lambda w: kostka.fw_to_root_coords(A3, w)),
    "root_coords_to_fw": (((1, 1, 1),), lambda c: kostka.root_coords_to_fw(A3, c)),
    "simple_reflection": (((1, 0, 1),), lambda w: kostka.simple_reflection(A3, 1, w)),
    "orbit": (((1, 0, 0),), lambda w: kostka.orbit(A3, w, (1, 2))),
    "parabolic_average": (((1, 0, 1),), lambda w: kostka.parabolic_average(A3, w, (1, 2))),
    "longest_element_image": (((1, 0, 1),),
                              lambda w: kostka.longest_element_image(A3, w, (1, 2, 3))),
    "cone_contains": (((1, 0, 1), (0, 0, 0)), lambda lam, mu: kostka.cone_contains(A3, lam, mu)),
    "is_extremal_ray": (((0, 1, 0), (0, 0, 0)),
                        lambda lam, mu: kostka.is_extremal_ray(A3, lam, mu)),
    "polytope_vertices": (((1, 0, 1),), lambda lam: kostka.polytope_vertices(A3, lam)),
    "vertex": (((1, 0, 1),), lambda lam: kostka.vertex(A3, lam, (1,))),
    "restrict": (((1, 0, 1),), lambda w: kostka.restrict(A3, (1, 2), w)),
    "extend_by_zero": (((1, 0),), lambda lam: kostka.extend_by_zero(A3, (1, 2), lam)),
    "levi_root_coords": (((2, -1),), lambda w: kostka.levi_root_coords(A3, (1, 2), w)),
    # 2 w1 - w2 = alpha_1 on the Levi (1, 2): a pair in its cone
    "levi_cone_contains": (((2, 0), (0, 1)),
                           lambda lam, mu: kostka.levi_cone_contains(A3, (1, 2), lam, mu)),
    "induce": (((2, 0), (0, 1)),
               lambda lam, mu: kostka.induce(A3, kostka.LeviWeightPair((1, 2), lam, mu))),
    "induce_between": (((2, 0), (0, 1)),
                       lambda lam, mu: kostka.induce_between(A3, (1, 2), (1, 2, 3), lam, mu)),
    "induce_sum": (((2, 0), (0, 1)),
                   lambda lam, mu: kostka.induce_sum(A3, [kostka.LeviWeightPair((1, 2), lam, mu)])),
    "induce_vertex": (((1, 0),), lambda lam: kostka.induce_vertex(A3, (1, 2), lam, (1,))),
    "induction_composes": (((2, 0), (0, 1)), lambda lam, mu: kostka.induction_composes(
        A3, kostka.LeviWeightPair((1, 2), lam, mu), (1, 2, 3))),
    "brute_force_vertices": (((1, 0, 1),), lambda lam: kostka.brute_force_vertices(A3, lam)),
    "compare_membership_multiplicity": (((1, 0, 1), (0, 0, 0)), lambda lam, mu:
                                        kostka.compare_membership_multiplicity(A3, lam, mu)),
    "weight_multiplicity": (((1, 0, 1), (0, 0, 0)),
                            lambda lam, mu: kostka.weight_multiplicity(A3, lam, mu)),
    "weyl_dim": (((1, 0, 1),), lambda lam: kostka.weyl_dim(A3, lam)),
    "FreudenthalTable": (((1, 0, 1), (0, 0, 0)),
                         lambda lam, mu: kostka.FreudenthalTable(A3, lam).multiplicity(mu)),
}


def test_every_entry_that_takes_a_weight_is_pinned():
    # read from the signatures: is_dominant(w) is the one without a root system, whose
    # weights have no length to check
    weights = {"w", "c", "lam", "mu", "pair", "pairs"}
    takes = {fn for functions in FUNCTIONS.values() for fn, sig in functions.items()
             if weights & set(re.findall(r"(\w+?)(?:_local)?\b", sig))}
    assert takes - {"is_dominant"} | {"FreudenthalTable"} == set(WEIGHT_CALLS)


# one more case, on another owner: lam on the disconnected Levi (1, 2, 4) of C5 (A2 x A1),
# where 2 w1 - w2 + 2 w4 = alpha_1 + alpha_4
LEVI_C5_CALL = (((2, 0, 2), (0, 1, 0)), lambda lam, mu: kostka.levi_cone_contains(
    kostka.root_system("C", 5), (1, 2, 4), lam, mu))


@pytest.mark.parametrize("name, k", [(name, k) for name, (weights, _) in WEIGHT_CALLS.items()
                                     for k in range(len(weights))] + [("levi_cone_contains-C5", 0)],
                         ids=lambda v: str(v + 1) if type(v) is int else v)
def test_a_weight_is_read_once_with_one_coordinate_per_node(name, k):
    # the k-th weight of the call given as a generator answers as its tuple, and one
    # coordinate short or long is refused with the one message of rootdata._weight
    weights, call = WEIGHT_CALLS.get(name, LEVI_C5_CALL)
    w, n = weights[k], len(weights[k])
    at_k = lambda v: call(*weights[:k], v, *weights[k + 1:])
    assert at_k(x for x in w) == at_k(w)
    owner = (r"the Levi \(1, 2, 4\) of RootSystem\(C5\)" if name not in WEIGHT_CALLS
             else r"RootSystem\(A3\)" if n == 3 else r"the Levi \(1, 2\) of RootSystem\(A3\)")
    for bad in (w[:-1], w + (0,)):
        with pytest.raises(ValueError, match=f"^a weight of {owner} has {n} coordinates, "
                                             f"got {len(bad)}$"):
            at_k(bad)


def test_bounds():
    assert {name: {attr: getattr(importlib.import_module(f"kostka.{name}"), attr)
                   for attr in BOUNDS[name]} for name in BOUNDS} == BOUNDS


def test_record_fields():
    assert {name: getattr(kostka, name)._fields for name in RECORDS} == RECORDS
    v = kostka.vertex(kostka.root_system("A", 2), (1, 0), (1,))
    assert (v.point, v.c_alpha) == ((0, fractions.Fraction(1, 2)), (fractions.Fraction(1, 2), 0))
    ray = kostka.rays_for_node(kostka.root_system("A", 2), 1)[1]
    assert ray == kostka.RayRecord(1, (1,), (0, 1, 1, 0), 2)
    assert ((ray.lambda_fw, ray.mu_fw, ray.c_alpha, ray.k_primitive)
            == ((1, 0), (0, fractions.Fraction(1, 2)), (fractions.Fraction(1, 2), 0), 2))


def test_records_are_named_tuples():
    # _replace and _asdict for dataclasses.replace and asdict; a record unpacks and equals
    # the tuple of its fields, except a Vertex, which is equal by value only
    rs = kostka.root_system("A", 2)
    ray = kostka.rays_for_node(rs, 1)[1]
    node, levi, numerators, k_det = ray
    assert ray == (node, levi, numerators, k_det) and hash(ray) == hash(tuple(ray))
    assert ray._replace(k_det=4) == kostka.RayRecord(1, (1,), (0, 1, 1, 0), 4)
    assert ray._asdict() == {"node": 1, "levi": (1,), "numerators": (0, 1, 1, 0), "k_det": 2}
    assert kostka.LeviWeightPair((1,), (1,), (1,)) == ((1,), (1,), (1,))
    assert kostka.levi_factors(rs, (1, 2)) == (("A", 2, (1, 2)),)
    v = kostka.vertex(rs, (1, 0), (1,))
    assert v != tuple(v) and not v == tuple(v)
    for name in RECORDS:
        if name not in ("Vertex", "RayRecord"):  # the two with cached properties
            assert getattr(kostka, name).__slots__ == ()


def test_a_vertex_is_equal_by_value():
    # two spellings of one vertex, numerators and denominator doubled
    rs = kostka.root_system("B", 3)
    v = kostka.vertex(rs, (1, 1, 1), (2, 3))
    w = kostka.Vertex(v.levi, tuple(2 * n for n in v.numerators), 2 * v.denominator)
    assert tuple(v) != tuple(w)
    assert v == w and not v != w and hash(v) == hash(w)
    other = kostka.Vertex(v.levi, v.numerators, v.denominator + 1)
    assert v != other and not v == other


def test_a_vertex_has_no_order():
    # a tuple's order, by the fields, would put v before w although v == w
    rs = kostka.root_system("B", 3)
    v = kostka.vertex(rs, (1, 1, 1), (2, 3))
    w = kostka.Vertex(v.levi, tuple(2 * n for n in v.numerators), 2 * v.denominator)
    for a, b in ((v, w), (w, v), (v, v)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, b)
    with pytest.raises(TypeError):
        sorted([w, v])
    assert sorted([w, v], key=lambda x: x.levi) == [w, v]


def test_ray_record_repr():
    ray = kostka.rays_for_node(kostka.root_system("A", 2), 1)[1]
    assert repr(ray) == "RayRecord(node=1, levi=(1,), numerators=(0, 1, 1, 0), k_det=2)"


def test_cli_imports_only_fractions():
    # in a fresh interpreter, with site and without it (which may load typing itself):
    # no argparse, dataclasses, gettext, inspect, json or typing
    src = str(Path(kostka.__file__).parents[1])
    for flags in (["-I"], ["-I", "-S"]):
        proc = subprocess.run([sys.executable, *flags, "-c", CLI_IMPORTS, src],
                              capture_output=True, text=True, check=True)
        added = proc.stdout.split()
        assert "kostka.cli" in added
        assert [m for m in added if m != "kostka" and not m.startswith("kostka.")] == []
        assert added == CLI_MODULES  # no levi, oracle or weyl, which load on first use


def test_dir_and_star_import_list_every_submodule():
    # levi, oracle and weyl load on first use, yet dir(kostka), __all__ and
    # `from kostka import *` are what they were while the package imported them all
    src = str(Path(kostka.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", PACKAGE_DIR, src],
                          capture_output=True, text=True, check=True)
    first, second, star = json.loads(proc.stdout)
    assert first == sorted(EXPORTS + DUNDERS)
    assert second == sorted(EXPORTS + DUNDERS + ["cli"])
    assert star == EXPORTS


def test_lazy_names_are_read_from_their_module(monkeypatch):
    # never cached on the package: a name patched on its module (as perfbench's tracer
    # patches every public function, and puts it back) is the package's name too
    for name, module in kostka._LAZY.items():
        mod = importlib.import_module(f"kostka.{module}")
        if name == module:
            assert getattr(kostka, name) is mod
            continue
        original = getattr(mod, name)
        assert getattr(kostka, name) is original
        monkeypatch.setattr(mod, name, object())
        assert getattr(kostka, name) is getattr(mod, name) is not original
        monkeypatch.undo()
        assert getattr(kostka, name) is original
        assert name not in vars(kostka)
    # the names the package does not hold are the lazy ones, the loaded modules aside
    assert (sorted(set(kostka.__all__) - set(vars(kostka)))
            == sorted(name for name, module in kostka._LAZY.items() if name != module))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        kostka.nothing  # noqa: B018


def test_package_has_no_assert():
    # invariants raise real exceptions: an assert statement is dropped under python -O
    for path in sorted(Path(kostka.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)], path.name


def _readers(*names):
    # {name: the module.function (or module.class) of src/kostka in which it is read}, for
    # each of `names` read as a name or an attribute anywhere in the package
    readers = {}

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            name = child.attr if isinstance(child, ast.Attribute) else \
                child.id if isinstance(child, ast.Name) else None
            if name in names:
                readers.setdefault(name, set()).add(where)
            walk(child, f"{where.split('.')[0]}.{child.name}"
                 if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where)

    for path in sorted(Path(kostka.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem)
    return readers


def test_the_kernel_has_its_two_readers():
    # the integer inverse is read only for a Cartan block, and the forward phase only by it
    # and for a rank, so no general solve grows back on the kernel unnoticed
    assert _readers("solve_unique", "_forward") == {
        "solve_unique": {"rootdata._levi_inverse"},
        "_forward": {"linalg.solve_unique", "cone.is_extremal_ray"}}


def test_the_block_inverse_is_read_in_rootdata():
    # a Levi's Cartan block is inverted by one shape-keyed routine, and the Dynkin edge
    # table it keys by is read in no other module
    tables = _readers("_entries", "_neighbors", "_cartan_block")
    assert set(tables) == {"_entries", "_neighbors", "_cartan_block"}
    assert {where.split(".")[0] for readers in tables.values() for where in readers} == {"rootdata"}
    assert not hasattr(importlib.import_module("kostka.rootdata"), "_block_inverse")


def test_the_dense_inverse_has_its_two_readers():
    # a Levi's Cartan block is inverted only for the rays and their pretty blocks: the
    # cone's forms are on (lam | c), unit vectors and Cartan columns, the oracle's
    # invariant form is the symmetrizer, and every weight's coefficients a forest solve,
    # so no whole-matrix inverse is built and no root system keeps one
    assert _readers("_inverse", "_levi_inverse", "_integer_cone_forms") == {"_levi_inverse": {
        "cone.rays_for_node", "cli._ray_pretty"}}
    assert not hasattr(kostka.RootSystem, "_inverse")
    assert not hasattr(importlib.import_module("kostka.cone"), "_integer_cone_forms")


def test_the_forest_walk_has_its_three_readers():
    # a node set's Dynkin forest is walked once, by _forest, for the solve and the
    # components, and the whole diagram's once per system, kept by _diagram_forest for the
    # solves on every node and the symmetrizer; the walk per component that the root
    # lengths made is gone
    assert _readers("_forest", "_diagram_forest") == {
        "_forest": {"rootdata._levi_solve", "rootdata.components", "rootdata._diagram_forest"},
        "_diagram_forest": {"rootdata._levi_solve", "rootdata.symmetrizer"}}
    assert not hasattr(importlib.import_module("kostka.rootdata"), "_lengths")


def test_the_row_step_has_its_readers():
    # a weight is moved by a simple root only in _add_root: the reflections, the orbits, the
    # oracle's dominant representatives and the rays' mu keep no copy of a Cartan row, and
    # weyl and oracle read no Dynkin edge table
    assert _readers("_add_root") == {"_add_root": {
        "rootdata.root_coords_to_fw", "rootdata._root_walk", "weyl._reflect", "weyl.orbit",
        "oracle._dominant_rep", "cone.rays_for_node"}}
    assert not {where for where in _readers("_entries")["_entries"]
                if where.split(".")[0] in ("weyl", "oracle")}


def test_special_cases_read_their_general_entry():
    # every ray table is rays_for_node over its nodes (the census's through all_rays), the
    # lift to every node is induce_between's, and Levi-cone membership is whether the lift
    # accepts the pair: the Levi solve is read only by the lift and the root coordinates
    assert _readers("all_rays") == {"all_rays": {"cli.rows"}}
    assert _readers("induce_between") == {"induce_between": {"levi.induce"}}
    assert _readers("_lift") == {"_lift": {"levi.induce_between", "levi.induce_sum",
                                           "levi.induction_composes", "levi.levi_cone_contains"}}
    assert {where for where in _readers("_levi_solve")["_levi_solve"]
            if where.startswith("levi.")} == {"levi._lift", "levi.levi_root_coords"}


def test_invariants_raise_under_python_O():
    # the Cartan-block invariants and the singular solve are real raises, kept under -O:
    # the inverse of A2 with the edge entries -2, -2 (singular) and -3, -3 (det -5)
    code = textwrap.dedent("""
        from kostka import linalg
        from kostka.rootdata import RootSystem, _levi_inverse

        def raised(fn, *args):
            try:
                fn(*args)
            except Exception as exc:
                return type(exc).__name__

        def inverse(entry):
            rs = RootSystem("A", 2, [(1, 2, entry, entry)])
            return _levi_inverse(rs, rs.nodes(), {})
        print(__debug__, raised(inverse, -2), raised(inverse, -3),
              raised(linalg.solve_unique, ((1, 2), (2, 4))))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(kostka.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["False", "InvariantError", "InvariantError", "NoSolutionError"]


def test_error_classes():
    assert sorted((name, cls.__base__.__name__) for name, cls in vars(errors).items()
                  if isinstance(cls, type)) == ERRORS
