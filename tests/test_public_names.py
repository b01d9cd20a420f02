"""Every public module-level name of the package, and every public method
and property of a public class, has a caller outside the tests: no public
function, class, constant or method exists only so that tests can call it.
The same holds for the package's top level: `__init__.py` re-exports only
names a caller imports from there. And no package module imports or reads
another package module's private (`_`-prefixed) names: what two modules
share is public, in numerics.

A name counts as used when it appears outside its own definition in the
other package modules, in the rest of its own module, or in the code that
runs the engine from outside: the demos, perfbench, tools/, and the
acceptance gate (tests/test_acceptance.py with tests/oracles.py).
`__init__.py` is no caller: what it re-exports is checked on its own. A
method is matched by its name alone, whatever object it is read from;
dunder and private methods are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activeadapt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def caller_paths(root: Path) -> list[Path]:
    """The files under a checkout's root that run the engine from outside."""
    return [
        *sorted((root / "demos").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
        *sorted((root / "tools").glob("*.py")),
        root / "tests" / "test_acceptance.py",
        root / "tests" / "oracles.py",
    ]


CALLERS = caller_paths(ROOT)
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


# -- the top level re-exports only what callers import from it -----------------


def reexports(init: ast.Module) -> list[str]:
    """The names `__init__.py` imports from the package's modules."""
    return [
        alias.asname or alias.name for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level for alias in node.names
    ]


def top_level_uses(callers) -> set[str]:
    """The names the callers read from the package's top level: each
    `from activeadapt import name`, and each `alias.name` where alias is
    `activeadapt` or a name any caller binds the package to (`import
    activeadapt as aa`; perfbench passes aa on to its other modules). A
    string that spells `activeadapt.name` is no use."""
    callers = list(callers)
    aliases = {"activeadapt"} | {
        alias.asname for tree in callers for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
        if alias.name == "activeadapt" and alias.asname
    }
    names = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "activeadapt" and not node.level:
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                names.add(node.attr)
    return names


def unused_reexports(init: ast.Module, callers) -> list[str]:
    used = top_level_uses(callers)
    return [name for name in reexports(init) if name not in used]


def test_every_reexport_is_imported_from_the_top_level_by_a_caller():
    init = _parse(PACKAGE / "__init__.py")
    assert unused_reexports(init, (_parse(p) for p in CALLERS)) == []


def test_the_reexport_check_sees_both_import_forms():
    """The scan is not vacuous: the demos import from the top level, and
    perfbench reads the package's attributes."""
    assert "Classifier" in reexports(_parse(PACKAGE / "__init__.py"))
    demos = top_level_uses(_parse(p) for p in CALLERS if p.parent.name == "demos")
    perfbench = top_level_uses(_parse(p) for p in CALLERS if p.parent.name == "perfbench")
    assert "compare_strategies" in demos and "DataPool" in perfbench


INIT = "from .a import f, g\nfrom .b import h as k\n"


@pytest.mark.parametrize(
    "callers, expected",
    [
        (["from activeadapt import f, g, k\n"], []),
        (["import activeadapt\nactiveadapt.f\n", "from activeadapt import g, k\n"], []),
        (["import activeadapt as aa\n", "def make(aa):\n    return aa.f, aa.g(), aa.k\n"], []),
        (["from activeadapt import f\nfrom activeadapt.a import g\n"], ["g", "k"]),
        (["import activeadapt.a as a\na.g\n", "from activeadapt import f\n"], ["g", "k"]),
        (["from activeadapt import f, k\nfrom . import g\n"], ["g"]),
        (["from activeadapt import f, k\nSCRIPT = 'activeadapt.g(path)'\n"], ["g"]),
        (["from activeadapt import f, k\nSPAN = 'g'\n"], ["g"]),
        # a name another object happens to carry is no use of the package's
        (["from activeadapt import f, k\nimport numpy as np\nnp.g\n"], ["g"]),
    ],
)
def test_unused_reexports_of_planted_callers(callers, expected):
    assert unused_reexports(ast.parse(INIT), [ast.parse(c) for c in callers]) == expected


def test_a_name_only_a_test_imports_is_flagged(tmp_path):
    """Of a planted checkout, only the demos, perfbench, tools/ and the
    acceptance gate are callers: what another test imports from the top
    level, or spells in a string, is unused."""
    files = {
        "demos/d.py": "from activeadapt import f\n",
        "perfbench/p.py": "import activeadapt as aa\naa.k\n",
        "tools/t.py": "",
        "tests/test_acceptance.py": "",
        "tests/oracles.py": "",
        "tests/test_m.py": "from activeadapt import g\n",
        "tests/test_n.py": "CODE = 'import activeadapt\\nactiveadapt.g(path)'\n",
    }
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    callers = [_parse(p) for p in caller_paths(tmp_path)]
    assert unused_reexports(ast.parse(INIT), callers) == ["g"]
    everything = [_parse(tmp_path / name) for name in files]
    assert unused_reexports(ast.parse(INIT), everything) == []


# -- private names stay in their module ----------------------------------------


def _private(name: str) -> bool:
    return len(name) > 1 and name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines anywhere: functions, classes,
    methods, assigned names and assigned attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if _private(n)}


def foreign_private_uses(modules: dict[str, ast.Module]) -> list[str]:
    """`module:line name` for each private name a module imports from
    another package module (a relative import), and for each private
    attribute it reads that only other package modules define."""
    defined = {stem: private_definitions(tree) for stem, tree in modules.items()}
    found = []
    for stem, tree in modules.items():
        others = set().union(*(d for s, d in defined.items() if s != stem)) - defined[stem]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [a.name for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                names = [node.attr] if node.attr in others else []
            else:
                continue
            found += [f"{stem}:{node.lineno} {name}" for name in names]
    return found


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, relatively or by the package's
    name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "activeadapt"):
            if node.module in (None, "activeadapt"):
                found.update(a.name for a in node.names)
            else:
                found.add(node.module.removeprefix("activeadapt.").split(".")[0])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            paths = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            found.update(p.split(".")[1] for p in paths if p.startswith("activeadapt."))
    return found


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert foreign_private_uses(modules) == []


@pytest.mark.parametrize("stem", ["gmm", "numerics"])
def test_the_mixture_and_the_shared_primitives_import_only_numerics(stem):
    assert package_imports(_parse(PACKAGE / f"{stem}.py")) <= {"numerics"}


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a": "def _f():\n    pass\n", "b": "from .a import _f\n"}, ["b:1 _f"]),
        ({"a": "X = 1\n", "b": "from .a import X, _Y\n"}, ["b:1 _Y"]),
        ({"a": "class A:\n    def _g(self):\n        pass\n",
          "b": "def h(x):\n    return x._g()\n"}, ["b:2 _g"]),
        ({"a": "class A:\n    def __init__(self):\n        self._n = 1\n",
          "b": "def h(x):\n    return x._n\n"}, ["b:2 _n"]),
        # a module's own private names, a name both modules define, dunders
        # and private names outside the package are no finding
        ({"a": "def _f():\n    pass\n\n_f()\n", "b": "from . import a\n"}, []),
        ({"a": "class A:\n    def _g(self):\n        pass\n",
          "b": "class B:\n    def _g(self):\n        pass\n\ndef h(x):\n    return x._g()\n"}, []),
        ({"a": "class A:\n    def __len__(self):\n        return 0\n",
          "b": "def h(x):\n    return x.__len__()\n"}, []),
        ({"a": "def _f():\n    pass\n", "b": "from numpy.linalg import _umath_linalg\n"}, []),
    ],
)
def test_foreign_private_uses_of_planted_modules(sources, expected):
    modules = {stem: ast.parse(source) for stem, source in sources.items()}
    assert foreign_private_uses(modules) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .numerics import logsumexp\nimport numpy as np\n", {"numerics"}),
        ("from . import gmm, numerics\n", {"gmm", "numerics"}),
        ("from .classifier import Classifier\nfrom math import isfinite\n", {"classifier"}),
        ("def f():\n    from .scoring import scores_at\n", {"scoring"}),
        ("import activeadapt.sampler\nfrom activeadapt.harness import evaluate\n",
         {"sampler", "harness"}),
        ("from activeadapt import cli\n", {"cli"}),
    ],
)
def test_package_imports_of_planted_modules(source, expected):
    assert package_imports(ast.parse(source)) == expected
