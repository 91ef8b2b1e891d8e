"""The package surface: the README's examples, ``beliefkit.__all__`` and the
modules' imports."""

import ast
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import beliefkit
from beliefkit.cli import run_command
from beliefkit.model_io import parse_model, serialize_model

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# A line whose trailing comment is the value its expression returns.
CHECKED_LINE = re.compile(r"^(?P<expr>[^#]+?)\s+#\s*(?P<value>Fraction\(\d+, \d+\)|\d+)$")


def readme_blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_library_example_runs_and_returns_its_commented_values():
    blocks = readme_blocks("python")
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


def test_readme_model_document_serializes_to_the_bundled_example1():
    (block,) = readme_blocks("json")
    bundled = (ROOT / "src" / "beliefkit" / "data" / "example1.json").read_text(encoding="utf-8")
    assert serialize_model(parse_model(block)) == bundled


def test_readme_command_lines_run_and_show_the_values_the_prose_states(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs, outputs = 0, {}
    for block in readme_blocks("sh"):
        for line in block.splitlines():
            if not line.startswith("beliefkit "):
                continue
            argv = shlex.split(line, comments=True)[1:]
            if all(Path(arg).exists() for arg in argv if arg.endswith(".json")):
                assert run_command(argv) == 0, line
                runs += 1
                outputs[argv[0], Path(argv[1]).stem] = set(capsys.readouterr().out.splitlines())
    # every line but the two on documents the README only names
    assert runs == 7
    assert {"m({no}) = 2/3", "m({yes,no}) = 1/3", "Bel({yes}) = 0"} <= outputs["derive", "example1"]
    assert "factor = 3" in outputs["factors", "example2"]
    assert "equivalent = true" in outputs["williams", "example1"]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(beliefkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_importing_the_cli_builds_no_lattice_masks_or_cell_indices():
    # the kernels' caches fill on first use, so importing costs nothing for them
    check = (
        "import beliefkit.cli\n"
        "from beliefkit.mass import _cell_indices, _pass_masks\n"
        "print(_pass_masks.cache_info().currsize, _cell_indices.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(beliefkit.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n", "")
