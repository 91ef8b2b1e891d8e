"""The package surface: the README's library example and ``beliefkit.__all__``."""

import ast
import re
from fractions import Fraction as F
from pathlib import Path

import beliefkit

README = Path(__file__).resolve().parent.parent / "README.md"
# A line whose trailing comment is the value its expression returns.
CHECKED_LINE = re.compile(r"^(?P<expr>[^#]+?)\s+#\s*(?P<value>Fraction\(\d+, \d+\)|\d+)$")


def test_readme_library_example_runs_and_returns_its_commented_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict[str, object] = {}
    exec(blocks[0], namespace)
    checked = []
    for line in blocks[0].splitlines():
        match = CHECKED_LINE.match(line)
        if match:
            got = eval(match["expr"], namespace)
            assert got == eval(match["value"], namespace), line
            checked.append(got)
    # Bel({no}), Pl({no}), the Bayes factor and the posterior odds
    assert checked == [F(2, 3), F(1), F(3), F(6)]


def test_all_is_sorted_unique_and_resolves():
    names = beliefkit.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(beliefkit, name) is not None


def test_all_is_exactly_what_the_package_imports_from_its_submodules():
    tree = ast.parse(Path(beliefkit.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(beliefkit.__all__) == imported
