"""Every defaulted parameter of the library is set by some call outside the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in src/ and clockbench/, keyed by the called bare name.

    Tests do not count as callers: a value only a test sets is in use by
    one caller, the library, and so is a constant.
    """
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "clockbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


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
