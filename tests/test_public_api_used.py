"""Every public function, class and method of the package is referenced by
name in src/, tests/ or perfbench/ outside its own definition: a public
name that nothing mentions is dead API."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """(name, first line, last line) of each public module-level function
    and class, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                        yield item.name, item.lineno, item.end_lineno


def test_every_public_definition_is_referenced():
    sources = {
        path: path.read_text(encoding="utf-8").splitlines()
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != Path(__file__).resolve()
    }
    unused = []
    for path, lines in sources.items():
        if ROOT / "src" not in path.parents:
            continue
        tree = ast.parse("\n".join(lines))
        for name, lo, hi in public_definitions(tree):
            word = re.compile(rf"\b{name}\b")
            referenced = any(
                word.search(line)
                for other, other_lines in sources.items()
                for number, line in enumerate(other_lines, start=1)
                if not (other == path and lo <= number <= hi)
            )
            if not referenced:
                unused.append(f"{path.relative_to(ROOT)}:{lo} {name}")
    assert not unused, "public but never referenced: " + ", ".join(unused)
