"""Every parameter of every function in the package is read in its body.

A parameter that no body reads is an input that reaches no output.  Two
kinds are exempt, as their callers fix them: the ``args`` of a command
handler that argparse calls through ``set_defaults(func=...)``, and the
instance or class a method is bound to.
"""

import ast
from pathlib import Path

import debrisense

PACKAGE = Path(debrisense.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _argparse_handlers(tree: ast.AST) -> set[str]:
    """Names passed as ``func=`` to a ``set_defaults`` call."""
    return {kw.value.id for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_defaults"
            for kw in node.keywords
            if kw.arg == "func" and isinstance(kw.value, ast.Name)}


def _parameters(fn, method: bool) -> list[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names = names[1:] if method else names
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def _reads(fn) -> set[str]:
    body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
    return {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_parameters(source: str, module: str) -> list[str]:
    tree = ast.parse(source)
    handlers = _argparse_handlers(tree)
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, FUNCTIONS)
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in fn.decorator_list)}
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        name = getattr(fn, "name", "<lambda>")
        reads = _reads(fn)
        for param in _parameters(fn, id(fn) in methods):
            if param in reads or (name in handlers and param == "args"):
                continue
            unread.append(f"{module}:{fn.lineno} {name}.{param}")
    return unread


def test_every_parameter_is_read():
    unread = [entry for path in sorted(PACKAGE.glob("*.py"))
              for entry in unread_parameters(path.read_text(encoding="utf-8"),
                                             path.name)]
    assert unread == []


def test_unread_parameter_is_found():
    src = ("def handler(args):\n    return 0\n"
           "def f(a, b, *, c):\n    return (lambda x, y: x)(a, c)\n"
           "class K:\n    def g(self, d):\n        return 0\n"
           "    @staticmethod\n    def h(e):\n        return 0\n"
           "p.set_defaults(func=handler)\n")
    assert unread_parameters(src, "m.py") == [
        "m.py:3 f.b", "m.py:6 g.d", "m.py:9 h.e", "m.py:4 <lambda>.y"]
