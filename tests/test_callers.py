import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dysignet"
# the console entry calls main() with no argument; argv is the CLI's test seam
EXEMPT = {("cli", "main", "argv")}


def _defaulted_parameters():
    """``(module, callee, parameter, position)`` for each defaulted parameter
    of a public module-level function or public class ``__init__``;
    ``position`` counts positional arguments after ``self`` and is None for
    keyword-only parameters.  Constructors are called by class name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                fn, skip = node, 0
            elif isinstance(node, ast.ClassDef):
                fn = next((f for f in node.body
                           if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
                skip = 1
            else:
                continue
            if fn is None or node.name.startswith("_"):
                continue
            args = fn.args
            positional = [*args.posonlyargs, *args.args][skip:]
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    yield path.stem, node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.stem, node.name, arg.arg, None


def test_every_defaulted_parameter_is_set_by_a_caller_outside_tests():
    # a default no program overrides is a constant, so the parameter and
    # the code only its other values reach belong out of the library.  A
    # call counts by the callee's name alone, so a call of another function
    # of that name may count a parameter as set, but one that is set by
    # keyword, by position, by *args or by **kwargs is never missed
    wanted = [p for p in _defaulted_parameters() if p[:3] not in EXEMPT]
    unset = set(wanted)
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            keywords = {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            for param in [p for p in unset if p[1] == name]:
                _, _, arg, position = param
                if (arg in keywords or None in keywords or starred
                        or (position is not None and position < len(node.args))):
                    unset.discard(param)
    assert wanted and not unset, ", ".join(sorted(f"{m}.{f}({a})" for m, f, a, _ in unset))
