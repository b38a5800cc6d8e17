"""Every defaulted parameter of the library is set, and every public function
called, by some call outside the tests."""

import ast
import inspect
import pathlib

import clocklab

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _library_trees():
    """The parsed files of src/ and clockbench/, tests left out.

    Tests do not count as callers: a value only a test sets is in use by
    one caller, the library, and so is a constant.
    """
    for folder in ("src", "clockbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not (path.name.startswith("test_") or path.name == "conftest.py"):
                yield ast.parse(path.read_text())


def _called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in src/ and clockbench/, keyed by the called bare name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    return calls


def _names_called_outside_their_def() -> set[str]:
    """Bare names of the calls in src/ and clockbench/ that no def of that name encloses."""
    called: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call) and _called_name(node) not in enclosing:
            called.add(_called_name(node))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in _library_trees():
        visit(tree, frozenset())
    return called


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    """True when the call passes ``param`` by keyword, at ``index``, or through a splat."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def test_every_defaulted_parameter_is_set_by_some_call():
    """A default that no library or harness call overrides is a constant
    posing as an option.

    Calls are matched to functions and methods by bare name, so a parameter
    counts as set when any call of that name sets it.
    """
    calls = _calls_by_name()
    unset = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            unset += [f"{path.name}: {fn.name}({name})" for name, index in params
                      if not any(_sets(call, name, index) for call in calls.get(fn.name, []))]
    assert unset == []


# the step from the clock symbol to i eps d/dphi that the Schrodinger derivation
# rests on: a claim of the paper, kept until a `schrodinger` gate reads it, which
# needs a tol_* key of its own
UNCALLED_PUBLIC = {"phi_derivative_identity_check"}


def test_every_public_function_has_a_caller():
    """A public function that only the tests call belongs in the tests.

    Calls are matched by bare name, as above; a function's calls to itself
    do not count.
    """
    called = _names_called_outside_their_def()
    uncalled = sorted(name for name in clocklab.__all__
                      if inspect.isfunction(getattr(clocklab, name)) and name not in called)
    assert uncalled == sorted(UNCALLED_PUBLIC)
