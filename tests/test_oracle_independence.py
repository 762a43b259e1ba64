"""The oracles must not call the library functions they are the reference
for: the fuzzy sum and the ideal predicates run on `LevelCuts`, and an
oracle built on them would check the level-cut engine against itself."""

import ast
import re
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"
ENGINE_NAMES = re.compile(r"fuzzy_sum|is_(fuzzy|crisp)_ideal_\w+")


def _names(node: ast.AST) -> list[str]:
    """The names a node refers to: a name, an attribute, or what an import
    brings in."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    return []


def test_oracles_reference_no_level_cut_definition():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    found = [
        f"{ORACLES.name}:{node.lineno} {name}"
        for node in ast.walk(tree)
        for name in _names(node)
        if ENGINE_NAMES.fullmatch(name)
    ]
    assert found == []


def test_the_guard_sees_every_way_of_naming_them():
    """A call, an attribute read and an import of each name are found; the
    loop references, whose names only contain them, are not."""
    source = (
        "from gsl.fuzzy import fuzzy_sum, is_crisp_ideal_gamma\n"
        "import gsl.fuzzy.is_fuzzy_ideal_semiring\n"
        "fuzzy.is_fuzzy_ideal_gamma(g, mu)\n"
        "is_crisp_ideal_semiring(r, s)\n"
        "naive_fuzzy_sum(a, b) and naive_is_crisp_ideal_gamma(g, m, k)\n"
    )
    names = [name for node in ast.walk(ast.parse(source)) for name in _names(node) if ENGINE_NAMES.fullmatch(name)]
    assert sorted(names) == sorted([
        "fuzzy_sum", "is_crisp_ideal_gamma", "is_fuzzy_ideal_semiring", "is_fuzzy_ideal_gamma", "is_crisp_ideal_semiring",
    ])
