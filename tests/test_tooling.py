import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import exunits
from exunits import counting, ideals, polys

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert():
    """Guards on results must raise: ``python -O`` strips every ``assert``."""
    sources = sorted(Path(exunits.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _unread_imports(tree):
    """``name:line`` of each name an import binds but its scope never reads.

    A function's imports must be read in that function; the module's
    anywhere in the file.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, functions)]:
        reads = {
            node.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, functions):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in reads:
                        unread.append(f"{name}:{node.lineno}")
    return unread


def test_no_unread_imports():
    """No module of ``src/exunits`` or ``tests`` imports a name it never
    reads; ``exunits/__init__.py`` is exempt, as its imports are re-exports."""
    package = Path(exunits.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    offenders = [
        f"{path.parent.name}/{path.name}:{name}"
        for path in paths
        if path != package / "__init__.py"
        for name in _unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_one_enumeration_kernel():
    """Points are enumerated in one place: only ``polys.variety_indices``
    calls ``itertools.product``."""
    callers = []
    for path in sorted(Path(exunits.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names
            if alias.name == "product"
        }
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "itertools"
        }
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Name) and func.id in names) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "product"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in modules
                ):
                    callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == ["polys.variety_indices"]


def test_eval_poly_is_reference_only():
    """Counting compiles its polynomials: inside ``src/exunits`` only the
    literal reference ``polys.jacobian_rank_at`` calls ``eval_poly``."""
    callers = []
    for path in sorted(Path(exunits.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "eval_poly" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == ["polys.jacobian_rank_at"]


def test_is_unit_mod_is_reference_only():
    """The oracle decides units by walking powers: no function in
    ``src/exunits`` calls ``is_unit_mod``, the literal reference."""

    def calls_is_unit_mod(node):
        return isinstance(node, ast.Call) and "is_unit_mod" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _owners(calls_is_unit_mod) == []


def test_brute_force_builds_no_hnf(monkeypatch):
    """Once its modulus is built, the oracle computes no HNF: counting
    reaches ``hnf_from_generators`` neither directly nor through residues."""
    ring = exunits.make_number_ring([5, 0, 1])
    circle = exunits.parse_poly("x1^2 + x2^2 - 1", ring, 2)
    V = exunits.VarietySpec(amb=2, codim=1, equations=(circle,), declared_degree=2)
    f = exunits.parse_poly("x1 - 2", ring, 1)
    n = exunits.principal_ideal(ring, (21, 0))

    def boom(*args):
        raise RuntimeError("HNF computed by the oracle")

    residues = importlib.import_module("exunits.residues")
    for module in (ideals, residues, counting):
        monkeypatch.setattr(module, "hnf_from_generators", boom, raising=False)
    assert exunits.brute_force_count(ring, V, f, n) == 100


def _definitions():
    """``(module.function, node)`` of each top-level definition in
    ``src/exunits``."""
    for path in sorted(Path(exunits.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            yield f"{path.stem}.{getattr(top, 'name', '<module>')}", top


def _owners(matches):
    """``module.function`` of each top-level definition in ``src/exunits``,
    once per node in it that ``matches``."""
    return [
        owner
        for owner, top in _definitions()
        for node in ast.walk(top)
        if matches(node)
    ]


def test_cap_has_one_owner():
    """Only ``polys.variety_indices`` compares anything with ``cap`` or
    ``DEFAULT_CAP``: the kernel alone decides what is over the cap."""

    def compares_cap(node):
        return isinstance(node, ast.Compare) and any(
            getattr(sub, "id", None) in ("cap", "DEFAULT_CAP")
            or getattr(sub, "attr", None) == "DEFAULT_CAP"
            for sub in ast.walk(node)
        )

    assert _owners(compares_cap) == ["polys.variety_indices"]


def test_back_substitution_has_one_owner():
    """Only ``ideals._reduce_by_basis`` floor-divides by a diagonal entry
    ``X[i][i]``, or by a name that the same function binds to one:
    reduction modulo an HNF, of a residue or of a lattice row, is written
    once.  Only ``//`` counts, so ``% p`` with ``p = basis[0][0]`` does not."""

    def diagonal(node):
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Subscript)
            and ast.dump(node.slice) == ast.dump(node.value.slice)
        )

    def divisors(node):
        if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(
            node.op, ast.FloorDiv
        ):
            yield node.right if isinstance(node, ast.BinOp) else node.value

    owners = []
    for owner, top in _definitions():
        pivots = {
            target.id
            for node in ast.walk(top)
            if isinstance(node, ast.Assign) and diagonal(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        owners += [
            owner
            for node in ast.walk(top)
            for div in divisors(node)
            if diagonal(div) or (isinstance(div, ast.Name) and div.id in pivots)
        ]
    assert owners == ["ideals._reduce_by_basis"]


def test_form_follows_the_modulus():
    """Only functions of ``residues`` compare a ``.prime`` with ``None``, or
    read ``ctx.prime.f_res``: the form of O/n, of O/P and of its units are
    decided there, from the modulus, and nothing else branches on whether a
    context came from a prime or on its residue degree."""

    def compares_prime_with_none(node):
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        return any(getattr(sub, "attr", None) == "prime" for sub in sides) and any(
            isinstance(sub, ast.Constant) and sub.value is None for sub in sides
        )

    def reads_residue_degree(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "f_res"
            and getattr(node.value, "attr", None) == "prime"
            and getattr(node.value.value, "id", None) == "ctx"
        )

    for predicate in (compares_prime_with_none, reads_residue_degree):
        owners = _owners(predicate)
        assert owners, predicate.__name__
        assert {owner.split(".")[0] for owner in owners} == {"residues"}, owners


def _package_imports(module):
    """For a module of ``src/exunits``, the names it imports from each module
    of the package: ``from .m import a`` gives m -> {a}, ``from . import m``
    gives m -> {}."""
    path = Path(exunits.__file__).parent / f"{module}.py"
    imports = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                for alias in node.names:
                    imports.setdefault(alias.name, set())
            else:
                names = {alias.name for alias in node.names}
                imports.setdefault(node.module, set()).update(names)
    return imports


def test_polynomials_mod_p_have_one_home():
    """``fpoly`` holds the polynomials mod p and imports only ``errors`` from
    the package; ``residues`` takes from ``ideals`` only its HNF layer, and
    no helper on polynomials mod p."""
    assert set(_package_imports("fpoly")) == {"errors"}
    assert _package_imports("residues")["ideals"] == {
        "_reduce_by_basis",
        "_small_prime_factors",
        "hnf_from_generators",
        "ideal_norm",
    }


def test_option_defaults_have_one_owner():
    """Only ``cli.load_config`` names ``DEFAULT_CAP`` in the CLI: the config's
    option defaults are filled in once, and every command reads them there."""
    path = Path(exunits.__file__).parent / "cli.py"
    owners = [
        f"cli.{getattr(top, 'name', '<module>')}"
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if getattr(node, "id", None) == "DEFAULT_CAP"
        or getattr(node, "attr", None) == "DEFAULT_CAP"
    ]
    assert owners == ["cli.load_config"]


def test_one_square_and_multiply():
    """Only ``number_ring.square_and_multiply`` walks the bits of an
    exponent: nothing else calls ``bin`` or shifts a name right in place."""

    def walks_bits(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "bin"
            or isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.RShift)
        )

    assert _owners(walks_bits) == ["number_ring.square_and_multiply"]


def test_one_compile_path():
    """Polynomials are compiled in one place: only ``polys._fiber_form``, for
    the equations, the Jacobian and f alike, calls ``_evaluator``."""

    def calls_evaluator(node):
        return isinstance(node, ast.Call) and "_evaluator" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert sorted(set(_owners(calls_evaluator))) == ["polys._fiber_form"]


def test_fiber_forms_stay_in_polys():
    """Only ``polys`` compiles a ``_fiber_form`` and reads its fields: f
    reaches the counts as values (``polys.residue_values``), not as a form."""

    fields = set(polys._FiberForm.__slots__)

    def uses_fiber_form(node):
        return (
            isinstance(node, ast.Call)
            and "_fiber_form" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            )
            or isinstance(node, ast.Attribute)
            and node.attr in fields
        )

    owners = _owners(uses_fiber_form)
    assert owners
    assert {owner.split(".")[0] for owner in owners} == {"polys"}


def test_pow_mod_owners():
    """No residue field takes a power on tuples: only ``residues.power_table``
    and the literal reference ``polys.eval_poly`` call ``pow_mod``."""

    def calls_pow_mod(node):
        return isinstance(node, ast.Call) and "pow_mod" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert sorted(set(_owners(calls_pow_mod))) == [
        "polys.eval_poly",
        "residues.power_table",
    ]


def _call_graph():
    """For each name of a function or method defined in ``src/exunits``, the
    names it calls, as ``f(...)`` or ``x.f(...)``; definitions that share a
    name share one entry."""
    graph = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(exunits.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, functions):
                graph.setdefault(node.name, set()).update(
                    getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                )
    return graph


def _reaches(graph, start, target):
    seen, stack = set(), [start]
    while stack:
        name = stack.pop()
        if name == target:
            return True
        if name not in seen:
            seen.add(name)
            stack.extend(graph.get(name, ()))
    return False


def test_quadric_route_has_one_caller():
    """Only ``counting.local_counts`` calls the closed form of diagonal
    quadrics, and none of the oracle, the good-reduction check, the census,
    the Lang-Weil report and the Example-2.5 closed form reaches it: the
    routes that check the product formula stay independent of it."""

    def calls_route(node):
        return isinstance(node, ast.Call) and "_quadric_counts" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _owners(calls_route) == ["counting.local_counts"]
    graph = _call_graph()
    assert _reaches(graph, "theorem1_count", "_quadric_counts")
    independent = [
        "brute_force_count",
        "check_good_reduction",
        "lifting_census",
        "langweil_deviation",
        "example25_count",
    ]
    assert [n for n in independent if _reaches(graph, n, "_quadric_counts")] == []


def test_closed_form_written_once():
    """The point count of a diagonal quadric (``solutions``) and the
    inclusion-exclusion over the roots of f (``off_roots``) are defined once,
    in ``counting._quadric_counts``, for both element forms of O/P: ints mod
    p at residue degree 1 and polynomials mod (p, h) above it."""
    for name in ("solutions", "off_roots"):

        def defines(node):
            return isinstance(node, ast.FunctionDef) and node.name == name

        assert _owners(defines) == ["counting._quadric_counts"], name


def test_splitting_of_p_has_one_owner():
    """Only ``ideals.prime_ideals_above`` factors g mod p."""

    def calls_factor(node):
        return isinstance(node, ast.Call) and "factor_poly_mod_p" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _owners(calls_factor) == ["ideals.prime_ideals_above"]


def test_lattice_powers_have_one_caller():
    """Only ``ideals.prime_power`` calls ``ideal_pow``: every other power of a
    prime goes through it, so an unramified one is built by Hensel lifting."""

    def calls_ideal_pow(node):
        return isinstance(node, ast.Call) and "ideal_pow" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _owners(calls_ideal_pow) == ["ideals.prime_power"]


def test_factor_ideal_callers():
    """Only ``cli.parse_modulus``, for a generators-form modulus, and
    ``counting.describe_ideal`` call ``factor_ideal``: the counts take a
    modulus's factorization as given, so each modulus is factored at most
    once."""

    def calls_factor_ideal(node):
        return isinstance(node, ast.Call) and "factor_ideal" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _owners(calls_factor_ideal) == [
        "cli.parse_modulus",
        "counting.describe_ideal",
    ]


def test_one_residue_context_per_local_count(monkeypatch):
    """The sweep and f of one local count share one residue context."""
    ring = exunits.make_number_ring([5, 0, 1])
    circle = exunits.parse_poly("x1^2 + x2^2 - 1", ring, 2)
    V = exunits.VarietySpec(amb=2, codim=1, equations=(circle,), declared_degree=2)
    f = exunits.parse_poly("x1 - 2", ring, 1)
    contexts = []

    def counted(*args):
        contexts.append(exunits.prime_ctx(*args))
        return contexts[-1]

    for module in (counting, polys):
        monkeypatch.setattr(module, "prime_ctx", counted)
    prime_factor = exunits.prime_ideals_above(ring, 3)[0]
    assert exunits.local_counts(ring, V, f, prime_factor).count_X == 4
    assert len(contexts) == 1


def test_residues_is_the_submodule():
    """``exunits.residues`` is the module, not the generator it defines, so
    that a monkeypatch on it intercepts."""
    assert isinstance(exunits.residues, types.ModuleType)
    assert exunits.residues is importlib.import_module("exunits.residues")


def test_field_tables_have_one_owner():
    """Only the field arithmetic of ``residues`` builds the field tables."""

    def calls_field_tables(node):
        return isinstance(node, ast.Call) and "field_tables" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _owners(calls_field_tables) == ["residues._FieldArithmetic"]


def test_arithmetic_forms_have_one_owner():
    """Only ``residues.arithmetic`` names the classes of the forms of O/n,
    so nothing else dispatches on them."""

    def names_form(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return isinstance(name, str) and name.endswith("Arithmetic")

    assert sorted(set(_owners(names_form))) == ["residues.arithmetic"]


def _count_field_tables(monkeypatch):
    """Patch the builder of the field tables; returns the list of its calls."""
    builds = []
    build = exunits.residues.field_tables

    def counted(ctx):
        builds.append((ctx.prime.p, ctx.prime.h_coeffs))
        return build(ctx)

    monkeypatch.setattr(exunits.residues, "field_tables", counted)
    return builds


def test_field_tables_once_per_local_count(monkeypatch):
    """At an inert prime the sweep, its Jacobian check and f share one build
    of the tables; a split prime, of residue degree 1, builds none."""
    ring = exunits.make_number_ring([5, 0, 1])
    curve = tuple(
        exunits.parse_poly(src, ring, 3) for src in ("x1^2 + x2^2 - 1", "x3 - x1*x2")
    )
    V = exunits.VarietySpec(amb=3, codim=2, equations=curve, declared_degree=2)
    f = exunits.parse_poly("x1 - 2", ring, 1)
    builds = _count_field_tables(monkeypatch)
    split = exunits.prime_ideals_above(ring, 7)[0]
    assert exunits.local_counts(ring, V, f, split).count_X == 8
    assert builds == []
    inert = exunits.prime_ideals_above(ring, 11)[0]
    local = exunits.local_counts(ring, V, f, inert)
    assert (local.count_X, local.count_N) == (120, 8)
    assert builds == [(11, inert.h_coeffs)]


def test_field_tables_once_per_prime_in_asympt(monkeypatch):
    """A family builds the tables once per distinct inert prime, however
    many moduli it divides, and none for its primes of residue degree 1,
    the bad prime above 2 included.  The cross term keeps the conic off the
    closed form of diagonal quadrics, so that every prime is swept."""
    ring = exunits.make_number_ring([5, 0, 1])
    conic = exunits.parse_poly("x1^2 + 2*x1*x2 + 3*x2^2 - 1", ring, 2)
    V = exunits.VarietySpec(amb=2, codim=1, equations=(conic,), declared_degree=2)
    f = exunits.parse_poly("x1 - 2", ring, 1)
    family = [
        exunits.factor_ideal(ring, exunits.principal_ideal(ring, (n, 0)))
        for n in (2, 3, 6, 9, 21, 7, 11, 13, 33, 143)
    ]
    builds = _count_field_tables(monkeypatch)
    records = exunits.asympt_series(ring, V, f, family)
    assert [(r.N, r.count) for r in records] == [
        (9, 1), (81, 9), (441, 25), (49, 25),
        (121, 116), (169, 164), (1089, 116), (20449, 19024),
    ]
    assert sorted(builds) == [(11, (5, 0, 1)), (13, (5, 0, 1))]


def test_circle_builds_no_field_tables_in_asympt(monkeypatch):
    """The circle with a linear f is counted in closed form at the inert
    primes, with no field table: the same family builds none."""
    ring = exunits.make_number_ring([5, 0, 1])
    circle = exunits.parse_poly("x1^2 + x2^2 - 1", ring, 2)
    V = exunits.VarietySpec(amb=2, codim=1, equations=(circle,), declared_degree=2)
    f = exunits.parse_poly("x1 - 2", ring, 1)
    family = [
        exunits.factor_ideal(ring, exunits.principal_ideal(ring, (n, 0)))
        for n in (2, 3, 6, 9, 21, 7, 11, 13, 33, 143)
    ]
    builds = _count_field_tables(monkeypatch)
    records = exunits.asympt_series(ring, V, f, family)
    assert [(r.N, r.count) for r in records] == [
        (9, 4), (81, 36), (441, 100), (49, 25),
        (121, 116), (169, 164), (1089, 464), (20449, 19024),
    ]
    assert builds == []


def test_no_module_level_cache():
    """Memos live and die inside one call: ``src/exunits`` uses no
    ``functools`` cache, has no ``global`` statement and binds no empty or
    caching container at module level."""
    caches = {"cache", "lru_cache", "cached_property"}
    containers = {"defaultdict", "OrderedDict", "Counter", "WeakValueDictionary"}
    offenders = []
    for path in sorted(Path(exunits.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                if any(alias.name in caches for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr in caches:
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Global):
                offenders.append(f"{path.name}:{node.lineno}")
        for top in tree.body:
            value = getattr(top, "value", None)
            func = getattr(getattr(value, "func", None), "id", None)
            if (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, (ast.List, ast.Set)) and not value.elts
                or func in {"dict", "list", "set"} and not value.args
                or func in containers
            ):
                offenders.append(f"{path.name}:{top.lineno}")
    assert offenders == []


def _env():
    """The environment of a subprocess that imports this exunits."""
    paths = [str(Path(exunits.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if demo == "lifting_census.py":
        assert "p = 2 refuses as expected" in result.stdout


def test_traced_functions_exist():
    """The benchmark's tracer reports zero calls for a name that is gone."""
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module}.{name}"
        for module, name in tracing.TRACED
        if not callable(
            getattr(importlib.import_module(f"exunits.{module}"), name, None)
        )
    ]
    assert missing == []


@pytest.mark.parametrize("module", ["logging", "dataclasses", "inspect"])
def test_cli_import_leaves_module_out(module):
    """Nothing that ``import exunits.cli`` loads imports ``logging``, or
    ``dataclasses`` and the ``inspect`` it loads: together they cost more
    than the rest of the import."""
    src = str(Path(exunits.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import exunits.cli; "
        f"print({module!r} in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_acceptance_without_asserts():
    """The acceptance criteria hold under ``python -O``, which strips ``assert``."""
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + [str(ROOT / "tests" / "test_acceptance.py")],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "9 passed" in result.stdout
