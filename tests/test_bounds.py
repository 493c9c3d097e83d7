"""bounds.py is the one home of the solver's constants, and README's
"Tolerances" table lists them line for line."""
import ast
import re
import subprocess
import sys
from pathlib import Path

from coorbital import bounds

BOUNDS = Path(bounds.__file__).resolve()
README = Path(__file__).resolve().parent.parent / "README.md"


def _bound_names(path):
    """Every name a module binds: assignment, loop and with targets,
    walrus names and import aliases, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname for alias in node.names if alias.asname)
    return names


def _bounds_lines():
    """(name, value expression) of each constant, in file order."""
    text = BOUNDS.read_text(encoding="utf-8")
    return [
        (node.targets[0].id, ast.get_source_segment(text, node.value))
        for node in ast.parse(text).body
        if isinstance(node, ast.Assign)
    ]


def test_no_other_module_binds_a_bounds_name():
    defined = _bound_names(BOUNDS)
    assert len(defined) == 38
    for path in sorted(BOUNDS.parent.glob("*.py")):
        if path != BOUNDS:
            clash = defined & _bound_names(path)
            assert not clash, f"{path.name} binds {sorted(clash)}"


def test_modules_import_exactly_the_bounds_names_they_read():
    # no module passes a constant on, and none imports one it never reads
    defined = _bound_names(BOUNDS)
    for path in sorted(BOUNDS.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & defined
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & defined
                assert node.module == "bounds" or not names, (path.name, node.module, names)
                imported |= names
        assert imported == (set() if path == BOUNDS else read), path.name


def test_bounds_imports_neither_numpy_nor_mpmath():
    probe = "import coorbital.bounds, sys; assert not {'numpy', 'mpmath'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_readme_tolerances_table_lists_bounds_line_for_line():
    section = README.read_text(encoding="utf-8").split("\n## Tolerances\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M)
    assert rows == _bounds_lines()
