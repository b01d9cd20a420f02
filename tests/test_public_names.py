"""Every public module-level name of the package, and every public method
and property of a public class, has a caller outside the tests: no public
function, class, constant or method exists only so that tests can call it.

A name counts as used when it appears outside its own definition in the
other package modules, in the rest of its own module, or in the code that
runs the engine from outside: the demos, perfbench, tools/, and the
acceptance gate (tests/test_acceptance.py with tests/oracles.py).
`__init__.py` is no caller, because it re-exports every name. A method is
matched by its name alone, whatever object it is read from; dunder and
private methods are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activeadapt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "oracles.py",
]
# perfbench patches engine names it spells as strings, e.g. "gmm.run_em"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(nodes) -> set[str]:
    """Identifiers read anywhere under the given nodes: loaded names,
    attributes, imported names, and strings that spell a (dotted) name."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if DOTTED.fullmatch(node.value):
                    names.update(node.value.split("."))
    return names


def defined_names(node) -> list[str]:
    """The public names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def public_methods(node: ast.ClassDef) -> list[str]:
    """The public methods and properties a class body defines, each once."""
    names = [
        n.name for n in node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and not n.name.startswith("_")
    ]
    return list(dict.fromkeys(names))


def unused_public_names(modules: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """`module.name` for every public name of the given modules, and
    `module.Class.name` for every public method or property of a public
    class, that is used neither in `outside` nor in the modules outside its
    own definition (a property's setter is part of its definition)."""
    unused = []
    for stem, tree in modules.items():
        used = outside | used_names(t for s, t in modules.items() if s != stem)
        for i, node in enumerate(tree.body):
            seen = used | used_names(tree.body[:i] + tree.body[i + 1 :])
            unused += [f"{stem}.{n}" for n in defined_names(node) if n not in seen]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for name in public_methods(node):
                    members = [m for m in node.body if getattr(m, "name", None) != name]
                    if name not in seen | used_names(members + node.bases):
                        unused.append(f"{stem}.{node.name}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path.stem: _parse(path) for path in MODULES}
    outside = used_names(_parse(path) for path in CALLERS)
    assert unused_public_names(modules, outside) == []


def test_the_check_sees_every_module():
    """The scan is not vacuous: it reads each package module and finds
    public names in it, and the public methods of its classes."""
    assert {p.stem for p in MODULES} >= {
        "classifier", "cli", "datapool", "gmm", "harness", "numerics", "sampler", "scoring",
    }
    for path in MODULES:
        if path.stem != "__main__":
            assert any(defined_names(n) for n in _parse(path).body), path.stem
    classes = {
        f"{path.stem}.{n.name}": n for path in MODULES for n in _parse(path).body
        if isinstance(n, ast.ClassDef)
    }
    assert "annotate_batch" in public_methods(classes["datapool.DataPool"])
    assert "initialize" in public_methods(classes["classifier.Classifier"])


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    return f()\n", ["m.f"]),  # a call from its own body is no use
        ("X = 1\n", ["m.X"]),
        ("X: int = 1\nA, B = 1, 2\n", ["m.X", "m.A", "m.B"]),
        ("def f():\n    pass\n\ndef g():\n    return f\n", ["m.g"]),
        ("def f():\n    pass\n\nNAMES = ('f',)\n", ["m.NAMES"]),
        ("def f():\n    pass\n\nSPAN = 'm.f'\n", ["m.SPAN"]),
        ("def f():\n    pass\n\nDOC = 'calls f twice'\n", ["m.f", "m.DOC"]),
        ("class A:\n    pass\n\nclass B(A):\n    pass\n", ["m.B"]),
        ("def _private():\n    pass\n", []),
        # methods and properties of a public class
        ("class A:\n    def f(self):\n        return self.f()\n\nA()\n", ["m.A.f"]),
        ("class A:\n    def f(self):\n        pass\n\n    def g(self):\n        return self.f()\n\n"
         "A().g()\n", []),
        ("class A:\n    @property\n    def p(self):\n        return 1\n\n    @p.setter\n"
         "    def p(self, v):\n        pass\n\nA()\n", ["m.A.p"]),
        ("class A:\n    def __len__(self):\n        return 0\n\n    def _f(self):\n"
         "        pass\n\nA()\n", []),
        ("class _A:\n    def f(self):\n        pass\n\n_A()\n", []),
        ("class A:\n    def f(self):\n        pass\n\nNAME = 'A.f'\n", ["m.NAME"]),
    ],
)
def test_unused_names_within_one_module(source, expected):
    assert unused_public_names({"m": ast.parse(source)}, set()) == expected


def test_names_used_by_another_module_or_a_caller():
    modules = {"a": ast.parse("def f():\n    pass\n\ndef g():\n    pass\n"),
               "b": ast.parse("from a import f\n")}
    assert unused_public_names(modules, set()) == ["a.g"]
    assert unused_public_names(modules, {"g"}) == []
