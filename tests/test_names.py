"""Every name walkport defines has a user, and the package API is pinned."""

import ast
import collections
import importlib.util
import re
from pathlib import Path

import walkport

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "walkport"


def defined_names(tree: ast.Module):
    """(name, first line, last line) of each module- and class-level definition."""
    nodes = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            nodes += node.body
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def words(text: str) -> collections.Counter:
    return collections.Counter(re.findall(r"\w+", text))


def tracer_layers() -> dict:
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_defined_name_has_a_user():
    # A user is code in src/ (re-exports in __init__.py do not count), the
    # acceptance suite, the benchmark tracer's LAYERS, or the console script.
    modules = {p: p.read_text().splitlines() for p in sorted(PACKAGE.glob("*.py"))}
    del modules[PACKAGE / "__init__.py"]
    uses = words("\n".join("\n".join(lines) for lines in modules.values()))
    uses += words((ROOT / "tests" / "test_acceptance.py").read_text())
    uses += collections.Counter(n for names in tracer_layers().values() for n in names)
    # Console-script targets in pyproject.toml read "walkport.module:function".
    pyproject = (ROOT / "pyproject.toml").read_text()
    uses += collections.Counter(re.findall(r'"walkport\.[\w.]+:(\w+)"', pyproject))
    unused = []
    for path, lines in modules.items():
        for name, first, last in defined_names(ast.parse("\n".join(lines))):
            own = words("\n".join(lines[first - 1 : last]))[name]
            if uses[name] == own:
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_package_exports_are_pinned():
    assert walkport.__all__ == [
        "BranchResult",
        "CorrectionTable",
        "PROTOCOL_IDS",
        "Payload",
        "ProtocolSpec",
        "RegisterLayout",
        "SparseState",
        "WalkportError",
        "build_initial",
        "enumerate_branches",
        "get_protocol",
        "random_payload",
        "run_walks",
        "superpose",
        "synthesized_table",
    ]
    assert all(hasattr(walkport, name) for name in walkport.__all__)
