"""Instance file formats.

.gsr -- line-oriented structure files, '#' starts a comment, tokens are
whitespace-separated.  A gamma-semiring file:

    [gamma_semiring]
    name = boolean
    S = 0 1
    G = 0 1
    [add_S]
    0 1
    1 1
    [add_G]
    0 1
    1 1
    [product]
    gamma = 0
    0 0
    0 0
    gamma = 1
    0 0
    0 1

The [product] section holds one block per G element, in carrier order; the
block for gamma holds |S| rows of |S| element ids, row i column j being the
product of S[i], gamma, S[j].  A plain semiring file uses the header
[semiring] with a 'carrier =' line and [add] / [mul] sections.

Parsers are strict: duplicate ids, ragged rows, unknown ids, and an index-0
element that does not act as the additive zero are all rejected with the
offending line number.  Ids may not contain '#', ':' or '=' (the comment,
fuzzy-file and key-value delimiters).

.fz -- fuzzy subsets, one 'elem_id : p/q' line per element; missing elements
default to grade 0.
"""

from __future__ import annotations

from typing import Union

from . import core
from .fuzzy import Carrier, FuzzySubset, carrier_of, format_grade, parse_grade

__all__ = [
    "GsrError",
    "parse_gsr_text",
    "parse_gsr",
    "format_gamma",
    "format_semiring",
    "format_structure",
    "parse_fz_text",
    "parse_fz",
    "format_fz",
]

_FORBIDDEN = set("#:=")


class GsrError(ValueError):
    """Parse or validation failure, with a line number where one applies.

    code is one of: io, syntax, duplicate-id, ragged, bad-entry,
    zero-position, axioms.
    """

    def __init__(self, code: str, message: str, line: int | None = None):
        self.code = code
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}{where}: {message}")


class _Lines:
    """Comment-stripped, non-blank lines with their original numbers."""

    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((no, stripped))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self, expect: str):
        if self.pos >= len(self.items):
            raise GsrError("syntax", f"unexpected end of file, expected {expect}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _parse_ids(no: int, line: str, key: str) -> tuple[str, ...]:
    parts = line.split("=", 1)
    if len(parts) != 2 or parts[0].strip() != key:
        raise GsrError("syntax", f"expected '{key} = ...'", no)
    ids = tuple(parts[1].split())
    if not ids:
        raise GsrError("syntax", f"empty {key} carrier", no)
    if len(set(ids)) != len(ids):
        raise GsrError("duplicate-id", f"duplicate element ids in {key}", no)
    for i in ids:
        if _FORBIDDEN & set(i):
            raise GsrError("bad-entry", f"id {i!r} contains a reserved character", no)
    return ids


def _parse_row(no: int, line: str, ids: tuple[str, ...], width: int) -> tuple[int, ...]:
    tokens = line.split()
    if len(tokens) != width:
        raise GsrError("ragged", f"expected {width} entries, got {len(tokens)}", no)
    row = []
    for t in tokens:
        if t not in ids:
            raise GsrError("bad-entry", f"unknown element id {t!r}", no)
        row.append(ids.index(t))
    return tuple(row)


def _parse_table(lines: _Lines, ids, rows: int, width_ids) -> tuple[tuple[int, ...], ...]:
    table = []
    for _ in range(rows):
        no, line = lines.next("a table row")
        if line.startswith("["):
            raise GsrError("ragged", "table has too few rows", no)
        table.append(_parse_row(no, line, width_ids, len(width_ids)))
    return tuple(table)


def _expect_section(lines: _Lines, name: str) -> int:
    no, line = lines.next(f"[{name}]")
    if line != f"[{name}]":
        raise GsrError("syntax", f"expected [{name}], got {line!r}", no)
    return no


def _check_zero_position(no: int, add, what: str) -> None:
    n = len(add)
    for j in range(n):
        if add[0][j] != j or add[j][0] != j:
            raise GsrError(
                "zero-position",
                f"{what}: element at index 0 is not the additive zero",
                no,
            )


def parse_gsr_text(text: str) -> Union[core.GammaSemiring, core.Semiring]:
    """Parse a .gsr document; structural checks only (no axiom validation)."""
    lines = _Lines(text)
    no, header = lines.next("a section header")
    if header == "[gamma_semiring]":
        structure = _parse_gamma_body(lines)
    elif header == "[semiring]":
        structure = _parse_semiring_body(lines)
    else:
        raise GsrError("syntax", f"expected [gamma_semiring] or [semiring], got {header!r}", no)
    if not lines.exhausted:
        no, line = lines.peek()
        raise GsrError("syntax", f"trailing content {line!r}", no)
    return structure


def _parse_name(lines: _Lines) -> str:
    no, line = lines.next("'name = ...'")
    parts = line.split("=", 1)
    if len(parts) != 2 or parts[0].strip() != "name":
        raise GsrError("syntax", "expected 'name = ...'", no)
    name = parts[1].strip()
    if not name:
        raise GsrError("syntax", "empty instance name", no)
    return name


def _parse_gamma_body(lines: _Lines) -> core.GammaSemiring:
    name = _parse_name(lines)
    no, line = lines.next("'S = ...'")
    s_ids = _parse_ids(no, line, "S")
    no, line = lines.next("'G = ...'")
    g_ids = _parse_ids(no, line, "G")

    sec = _expect_section(lines, "add_S")
    add_s = _parse_table(lines, s_ids, len(s_ids), s_ids)
    _check_zero_position(sec, add_s, "add_S")
    sec = _expect_section(lines, "add_G")
    add_g = _parse_table(lines, g_ids, len(g_ids), g_ids)
    _check_zero_position(sec, add_g, "add_G")

    _expect_section(lines, "product")
    planes: list[list[tuple[int, ...]]] = [[] for _ in s_ids]
    for k, gid in enumerate(g_ids):
        no, line = lines.next(f"'gamma = {gid}'")
        parts = line.split("=", 1)
        if len(parts) != 2 or parts[0].strip() != "gamma" or parts[1].strip() != gid:
            raise GsrError("syntax", f"expected 'gamma = {gid}' (blocks follow G order)", no)
        block = _parse_table(lines, s_ids, len(s_ids), s_ids)
        for i in range(len(s_ids)):
            planes[i].append(block[i])
    prod = tuple(tuple(plane) for plane in planes)
    return core.GammaSemiring(name, s_ids, g_ids, add_s, add_g, prod)


def _parse_semiring_body(lines: _Lines) -> core.Semiring:
    name = _parse_name(lines)
    no, line = lines.next("'carrier = ...'")
    ids = _parse_ids(no, line, "carrier")
    sec = _expect_section(lines, "add")
    add = _parse_table(lines, ids, len(ids), ids)
    _check_zero_position(sec, add, "add")
    _expect_section(lines, "mul")
    mul = _parse_table(lines, ids, len(ids), ids)
    return core.Semiring(name, ids, add, mul)


def parse_gsr(path: str, require_valid: bool = True) -> Union[core.GammaSemiring, core.Semiring]:
    """Load a .gsr file; with require_valid, axiom violations raise GsrError('axioms')."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GsrError("io", f"{path}: {exc}") from exc
    structure = parse_gsr_text(text)
    if require_valid:
        outcome = core.validate(structure)
        if not outcome.ok:
            first = outcome.violations[0]
            raise GsrError(
                "axioms",
                f"{structure.name}: {len(outcome.violations)} axiom violation(s); "
                f"first: {first.axiom} at {first.witness}",
            )
    return structure


def format_gamma(g: core.GammaSemiring) -> str:
    out = ["[gamma_semiring]", f"name = {g.name}"]
    out.append("S = " + " ".join(g.S))
    out.append("G = " + " ".join(g.G))
    add_s, add_g, prod = (t.tolist() for t in g.tables)
    out.append("[add_S]")
    out += [" ".join(g.S[v] for v in row) for row in add_s]
    out.append("[add_G]")
    out += [" ".join(g.G[v] for v in row) for row in add_g]
    out.append("[product]")
    for k, gid in enumerate(g.G):
        out.append(f"gamma = {gid}")
        out += [" ".join(g.S[v] for v in plane[k]) for plane in prod]
    return "\n".join(out) + "\n"


def format_semiring(r: core.Semiring) -> str:
    out = ["[semiring]", f"name = {r.name}"]
    out.append("carrier = " + " ".join(r.carrier))
    for section, table in zip(("[add]", "[mul]"), r.tables):
        out.append(section)
        out += [" ".join(r.carrier[v] for v in row) for row in table.tolist()]
    return "\n".join(out) + "\n"


def format_structure(structure) -> str:
    if isinstance(structure, core.GammaSemiring):
        return format_gamma(structure)
    if isinstance(structure, core.Semiring):
        return format_semiring(structure)
    raise TypeError(f"cannot format {type(structure).__name__}")


def parse_fz_text(text: str, carrier) -> FuzzySubset:
    """Parse 'elem_id : p/q' lines against a carrier; absent elements get 0."""
    c: Carrier = carrier_of(carrier)
    grades = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != ":":
            raise GsrError("syntax", f"expected 'elem_id : p/q', got {line!r}", no)
        elem, _, grade = tokens
        if elem not in c.ids:
            raise GsrError("bad-entry", f"unknown element id {elem!r}", no)
        if elem in grades:
            raise GsrError("duplicate-id", f"duplicate grade for {elem!r}", no)
        try:
            grades[elem] = parse_grade(grade)
        except (ValueError, ZeroDivisionError) as exc:
            raise GsrError("bad-entry", f"bad grade {grade!r}: {exc}", no) from exc
    return FuzzySubset.from_mapping(c, grades)


def parse_fz(path: str, carrier) -> FuzzySubset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GsrError("io", f"{path}: {exc}") from exc
    return parse_fz_text(text, carrier)


def format_fz(mu: FuzzySubset) -> str:
    return "\n".join(
        f"{i} : {format_grade(g)}" for i, g in zip(mu.carrier.ids, mu.grades)
    ) + "\n"
