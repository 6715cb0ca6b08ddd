"""Every defaulted parameter in the package is set by some caller, and
every pinned expectation is read by some check.

A parameter that no call in ``src/`` or ``tests/`` ever sets offers a
choice nobody makes; its one value belongs in a named constant instead.
Calls are matched to definitions by name: ``f(...)`` and ``obj.f(...)``
count for every function or method named ``f``, and ``Name(...)`` also
counts for ``Name.__init__``.  A call sets a parameter by position or by
keyword; ``*args`` and ``**kwargs`` set nothing that can be named here.
Functions nested inside other functions are exempt (they bind loop
variables through defaults).

Likewise a pin in ``EXPECTATIONS`` that nothing reads guards nothing; a
pin counts as read where ``EXPECTATIONS["key"]`` is written out.  And a
module-level import that its module never names is dead weight (no linter
is assumed); ``__init__.py`` included, so a package-root re-export counts
as unused.  Imports under ``if TYPE_CHECKING:`` are not top-level
statements, so they are exempt.
An exception class that no ``raise`` in ``src/`` names is left over from
the code that raised it.
No module in ``src/`` imports SciPy when it is loaded: outside functions
and ``if TYPE_CHECKING:`` blocks, so ``import isocone.cli`` loads none of it.
Inside functions, ``src/`` imports only the SciPy modules of
``SCIPY_ALLOWED``, so a verb loads no other SciPy (each costs start-up
time and memory in every process that reaches it).
And a top-level function or class, or a method, whose name no identifier in
``src/`` reads (a docstring or comment word does not count) serves no verb;
the few kept for the tests or the benchmark are listed in ``UNCALLED_LEDGER``.
"""

import ast
import builtins
import pathlib

from isocone.expectations import EXPECTATIONS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _parse(directory):
    return [ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / directory).rglob("*.py"))]


def _definitions(tree):
    """(qualified name, def node, bound) for each module-level function and
    method; ``bound`` is true for methods that take self or cls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, not static


def _signature(fn, bound):
    """(positional parameter names, defaulted parameter names) of a def."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if bound:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _call_names(call):
    """The definition names a call can reach."""
    func = call.func
    if isinstance(func, ast.Name):
        return {func.id, f"{func.id}.__init__"}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    return set()


def unused_knobs():
    src = _parse("src")
    calls = [node for tree in src + _parse("tests") for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unused = []
    for tree in src:
        for qualname, fn, bound in _definitions(tree):
            positional, defaulted = _signature(fn, bound)
            if not defaulted:
                continue
            short = qualname.split(".")[-1]
            set_by_someone = set()
            for call in calls:
                names = _call_names(call)
                if short not in names and qualname not in names:
                    continue
                n_pos = sum(not isinstance(a, ast.Starred) for a in call.args)
                set_by_someone.update(positional[:n_pos])
                set_by_someone.update(k.arg for k in call.keywords if k.arg is not None)
            unused += [f"{qualname}({name})" for name in defaulted
                       if name not in set_by_someone]
    return sorted(unused)


def test_every_defaulted_parameter_is_set_by_some_caller():
    assert unused_knobs() == []


def unread_pins():
    read = {node.slice.value for tree in _parse("src") + _parse("tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "EXPECTATIONS" and isinstance(node.slice, ast.Constant)}
    return sorted(set(EXPECTATIONS) - read)


def test_every_pin_is_read():
    assert unread_pins() == []


def unused_imports():
    """``module: name`` for each import statement at the top level of a
    module in ``src/`` whose bound name the module never reads."""
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}: {name}" for name in
                           (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in read]
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def _load_time_statements(body):
    """The statements of ``body`` that run when their module is imported,
    nested ones included, except under functions and ``if TYPE_CHECKING:``
    (whose ``else`` still runs)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _load_time_statements(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _load_time_statements(getattr(node, field, []))


def _scipy_modules(node):
    """``line: module`` for each SciPy module the statement ``node``
    imports; ``from scipy import x`` imports ``scipy.x``."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [f"scipy.{a.name}" if node.module == "scipy" else node.module
                 for a in node.names]
    else:
        return []
    return [f"{node.lineno}: {name}" for name in names
            if name == "scipy" or name.startswith("scipy.")]


def scipy_at_load(tree):
    """``line: module`` for each SciPy import that runs when ``tree`` is
    imported."""
    return [entry for node in _load_time_statements(tree.body)
            for entry in _scipy_modules(node)]


def test_scipy_scan_sees_only_load_time_imports():
    source = """
import numpy
try:
    from scipy import sparse
except ImportError:
    import scipy.linalg
if TYPE_CHECKING:
    import scipy.spatial
else:
    import scipy.optimize as opt
class A:
    import scipy.ndimage
def f():
    import scipy.special
"""
    assert scipy_at_load(ast.parse(source)) == [
        "4: scipy.sparse", "6: scipy.linalg", "10: scipy.optimize", "12: scipy.ndimage"]


def test_no_module_imports_scipy_at_load_time():
    found = {path.name: scipy_at_load(ast.parse(path.read_text(), str(path)))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the sparse LU of the Neumann solve, and linprog for contact_data
SCIPY_ALLOWED = {"scipy.sparse", "scipy.sparse.linalg", "scipy.optimize"}


def scipy_imports(tree):
    """``line: module`` for each SciPy module a statement anywhere in
    ``tree`` imports."""
    return [entry for node in ast.walk(tree) for entry in _scipy_modules(node)]


def test_scipy_import_scan_sees_every_import():
    source = """
from scipy import sparse, ndimage
def f():
    import scipy.sparse.linalg as sla
    from scipy.optimize import linprog
    class A:
        from scipy.sparse.csgraph import connected_components
import numpy.linalg
"""
    assert scipy_imports(ast.parse(source)) == [
        "2: scipy.sparse", "2: scipy.ndimage", "4: scipy.sparse.linalg",
        "5: scipy.optimize", "7: scipy.sparse.csgraph"]


def test_src_imports_only_the_allowed_scipy_modules():
    found = [f"{path.name}:{entry}" for path in sorted((ROOT / "src").rglob("*.py"))
             for entry in scipy_imports(ast.parse(path.read_text(), str(path)))
             if entry.split(": ")[1] not in SCIPY_ALLOWED]
    assert found == []


def unraised_exceptions():
    """Exception classes defined in ``src/`` that no ``raise`` in ``src/``
    names.  A class counts as an exception when a base is a builtin
    exception or another such class of the package."""
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [node for tree in _parse("src") for node in tree.body
               if isinstance(node, ast.ClassDef)]
    defined = set()
    while True:
        grown = {c.name for c in classes
                 if any(isinstance(b, ast.Name) and b.id in known | defined for b in c.bases)}
        if grown == defined:
            break
        defined = grown
    raised = set()
    for tree in _parse("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    raised.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return sorted(defined - raised), len(defined)


def test_every_exception_class_is_raised():
    unraised, n_defined = unraised_exceptions()
    assert n_defined > 0  # the class scan found the package's errors
    assert unraised == []


# Named in src/ only where they are defined, each for its reason.
UNCALLED_LEDGER = sorted([
    # reached from the tests alone, until a verb calls it or it leaves src/
    # (ROADMAP item 7)
    "TriMesh.max_diameter", "TriMesh.min_angle_deg", "contact_data",
    "one_dim_stability_batch", "quantitative_amgm_batch", "removal_lemma_check",
    "shift_lower_bound", "translated_ball_control_check", "triangulate_polygon",
    "weighted_h1_error",
    # named cones the tests build; the CLI builds a cone from its angles
    "Cone.half_plane", "Cone.quadrant", "Cone.sector",
    # grad w, which the tests' concavity oracle reads
    "HomWeight.grad",
    # the argmax at any points: the tests' probe, and the span that
    # perfbench/spans.py wraps around it
    "RestrictedConjugate.envelope_at",
    # one sweep column as an array, which the tests read
    "SweepResult.column",
])


def unnamed_definitions(sources):
    """Qualified names of the module-level functions and classes, and of the
    methods other than dunders, whose name no identifier in ``sources``
    reads: a ``Name``, an ``Attribute`` or a call's keyword.  Definitions,
    docstrings, comments and strings name nothing."""
    trees = [ast.parse(text) for text in sources]
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.keyword):
                named.add(node.arg)
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    return sorted(qual for qual, short in defined if short not in named)


def test_name_scan_on_a_synthetic_module():
    source = """
def used():
    pass
def unused():
    pass
def documented():
    pass
def by_keyword():
    pass
class A:
    def __init__(self):
        pass
    def m(self):
        pass
    def n(self):
        \"\"\"n and documented are words here, not identifiers\"\"\"
        # so is n in this comment
        return "n"
class B:
    def m(self):
        pass
value = used() + A().m + dict(by_keyword=1)
"""
    # m is defined twice and read once: both count as named
    assert unnamed_definitions([source]) == ["A.n", "B", "documented", "unused"]


def test_every_definition_is_named_in_src_or_ledgered():
    sources = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    assert unnamed_definitions(sources) == UNCALLED_LEDGER
