"""Every public function, class, method and property of the package has
a caller, every module-level constant and private function is read, and
no module starts threads or processes or reads the environment.

A read is code, not text: each reader is parsed, and a name counts as
read where it appears as a Name or an Attribute's attr. A name in a
comment or a docstring is not a read, and neither is an import: a name
imported and never used keeps nothing alive. A classmethod or
staticmethod counts as read only through its own class: as Owner.name,
module.Owner.name, or cls.name inside Owner's body."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swissfrancs"
# a string such as "solvers.newton_stationary": bench/tracing.py's TARGETS
# name the functions it traces this way
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _reads(source: str, dotted: bool = False) -> list:
    """(name, line) for each read in the code of source, plus ("X.name",
    line) for each attribute name read off a name or attribute X; with
    dotted, each part of a string constant that is a dotted name reads
    too, and so does each adjacent pair as "X.name", unless the string is a
    docstring or another bare string statement."""
    reads, bare = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            bare.add(id(node.value))
        elif isinstance(node, ast.Name):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner is not None:
                reads.append((f"{owner}.{node.attr}", node.lineno))
        elif dotted and isinstance(node, ast.Constant) and id(node) not in bare \
                and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            parts = node.value.split(".")
            reads += [(part, node.lineno) for part in parts]
            reads += [(f"{x}.{y}", node.lineno) for x, y in zip(parts, parts[1:])]
    return reads


def _outside_reads() -> set:
    """The names read in bench/*.py, dotted strings included, and in the
    acceptance suite, which stands for the library's users."""
    names = {name for path in sorted((ROOT / "bench").glob("*.py"))
             for name, _ in _reads(path.read_text(), dotted=True)}
    accept = (ROOT / "tests" / "test_acceptance.py").read_text()
    return names | {name for name, _ in _reads(accept)}


def _unread(wanted, members=False, modules=None, outside=None) -> list:
    """The top-level names, as module:name, that wanted(node) selects in
    the package modules and that nothing reads: not the rest of their
    module, another module, or the names outside (default _outside_reads).
    modules maps each module's file name to its source (default: the
    package but __init__, as a re-export is not a read). With members, the
    nodes are those of the top-level class bodies, named
    module:Class.name, and a classmethod or staticmethod is read only as
    Class.name, or as cls.name in the rest of Class's body."""
    if modules is None:
        modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
                   if path.name != "__init__.py"}
    outside = _outside_reads() if outside is None else outside
    reads = {name: _reads(text) for name, text in modules.items()}
    unread = []
    for module, text in modules.items():
        elsewhere = outside.union(*({name for name, _ in found}
                                    for other, found in reads.items() if other != module))
        nodes = [(None, node) for node in ast.parse(text).body]
        if members:
            nodes = [(cls, node) for _, cls in nodes
                     if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, node in nodes:
            if not wanted(node):
                continue
            rest = {name for name, line in reads[module]
                    if not node.lineno <= line <= node.end_lineno}
            for name in _names(node):
                key = name
                if owner is not None and _bound_to_class(node):
                    key = f"{owner.name}.{name}"
                    if any(found == f"cls.{name}" and owner.lineno <= line <= owner.end_lineno
                           and not node.lineno <= line <= node.end_lineno
                           for found, line in reads[module]):
                        continue
                if key not in elsewhere and key not in rest:
                    unread.append(f"{module}:{owner.name + '.' if owner else ''}{name}")
    return unread


def _bound_to_class(node) -> bool:
    """Whether node is a method decorated @classmethod or @staticmethod."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
        for d in node.decorator_list)


def _names(node) -> list:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [node.name]


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def test_every_public_name_has_a_caller():
    unused = _unread(_public)
    assert not unused, f"public names with no caller: {unused}"


def _public_method(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def test_every_public_method_and_property_is_read():
    # a method or property counts as read where its name is read outside
    # its own definition; the match is by name, so a method that shares its
    # name with one read elsewhere (on any object) passes too. A classmethod
    # or staticmethod counts only where it is read through its own class.
    unread = _unread(_public_method, members=True)
    assert not unread, f"public methods or properties nothing reads: {unread}"


def test_every_constant_and_private_function_is_read():
    # a constant or helper left behind when its last reader goes fails here
    unread = _unread(lambda node: isinstance(node, ast.Assign)
                     or isinstance(node, ast.FunctionDef) and node.name.startswith("_"))
    assert not unread, f"constants or private functions nothing reads: {unread}"


def test_a_name_only_in_a_docstring_or_comment_is_not_read():
    module = ('def caller():\n    """Calls helper()."""\n    # and helper\n'
              '    return 1\n\n\ndef helper():\n    return caller()\n')
    assert _unread(_public, modules={"m.py": module}, outside={"caller"}) == ["m.py:helper"]
    assert _unread(_public, modules={"m.py": module}, outside={"helper"}) == []


def test_an_imported_name_is_read_only_where_code_uses_it():
    modules = {"a.py": "def f():\n    return 1\n",
               "b.py": "from .a import f\n\n\ndef g():\n    return 2\n"}
    assert _unread(_public, modules=modules, outside={"g"}) == ["a.py:f"]
    modules["b.py"] += "\n\ndef h():\n    return f()\n"
    assert _unread(_public, modules=modules, outside={"g", "h"}) == []


def test_a_classmethod_is_read_only_through_its_own_class():
    module = ('class A:\n    @classmethod\n    def make(cls):\n        return cls()\n\n\n'
              'class B:\n    @classmethod\n    def make(cls):\n        return cls()\n\n'
              '    @staticmethod\n    def pair():\n        return B.make(), B.make()\n\n'
              '    @classmethod\n    def twice(cls):\n        return cls.pair()\n')
    modules = {"m.py": module}
    assert _unread(_public_method, members=True, modules=modules,
                   outside={"B.twice"}) == ["m.py:A.make"]
    assert _unread(_public_method, members=True, modules=modules,
                   outside={"B.twice", "A.make"}) == []


def test_a_dotted_string_reads_only_in_bench_code():
    source = '"""m.docstring"""\nTARGETS = ("m.traced", "not dotted")\n'
    assert {name for name, _ in _reads(source, dotted=True)} \
        == {"TARGETS", "m", "traced", "m.traced"}
    assert {name for name, _ in _reads(source)} == {"TARGETS"}


def test_no_threads_processes_or_environment_reads():
    # the package runs on the calling thread, and no environment variable
    # changes what it computes
    banned = {"threading", "concurrent", "multiprocessing"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "os":
                    modules += [f"os.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "os":
                modules = [f"os.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in modules
                      if name.partition(".")[0] in banned
                      or name in ("os.environ", "os.getenv")]
    assert not found, f"threads, processes or environment reads: {found}"
