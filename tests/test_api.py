"""Every public function, class, method and property of the package has
a caller, every module-level constant and private function is read, and
no module starts threads or processes or reads the environment."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swissfrancs"

# public names that only tests may use, each with the reason it stays
TEST_FIXTURES = {
    "block_point",   # float reference for the exact block candidate
    "corner_point",  # float reference for the exact corner candidate
}


def _unread(wanted, members=False) -> list:
    """The top-level names, as module:name, that wanted(node) selects in
    the package modules and that nothing reads: not the rest of their
    module, another module, bench/ or the acceptance suite. A re-export
    from __init__ is not a read; tests count only through the acceptance
    suite, which stands for the library's users. With members, the nodes
    are those of the top-level class bodies, named module:Class.name, and
    a read is the text .name."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    users = modules + sorted((ROOT / "bench").glob("*.py")) \
        + [ROOT / "tests" / "test_acceptance.py"]
    texts = {path: path.read_text() for path in users}
    unread = []
    for path in modules:
        lines = texts[path].splitlines()
        elsewhere = [text for other, text in texts.items() if other != path]
        nodes = [(None, node) for node in ast.parse(texts[path]).body]
        if members:
            nodes = [(cls.name, node) for _, cls in nodes
                     if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, node in nodes:
            if not wanted(node):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            for name in _names(node):
                word = re.compile(rf"\.{name}\b" if members else rf"\b{name}\b")
                if not any(word.search(text) for text in elsewhere + [rest]):
                    unread.append(f"{path.name}:{owner + '.' if owner else ''}{name}")
    return unread


def _names(node) -> list:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [node.name]


def test_every_public_name_has_a_caller():
    unused = _unread(lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith("_")
                     and node.name not in TEST_FIXTURES)
    assert not unused, f"public names with no caller: {unused}"


def test_every_public_method_and_property_is_read():
    # a method, classmethod or property counts as read where .name appears
    # outside its own definition; the match is by text, so a method that
    # shares its name with one read elsewhere (on any object) passes too
    unread = _unread(lambda node: isinstance(node, ast.FunctionDef)
                     and not node.name.startswith("_"), members=True)
    assert not unread, f"public methods or properties nothing reads: {unread}"


def test_every_constant_and_private_function_is_read():
    # a constant or helper left behind when its last reader goes fails here
    unread = _unread(lambda node: isinstance(node, ast.Assign)
                     or isinstance(node, ast.FunctionDef) and node.name.startswith("_"))
    assert not unread, f"constants or private functions nothing reads: {unread}"


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
