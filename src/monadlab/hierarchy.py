"""Verdict tables over the Boom hierarchy, with golden-file comparison.

A table cell (row, col) answers: is there a distributive law
row∘col => col∘row? Marks are N (refuted), Y (law or citation), and
Unknown, which renders blank in Markdown and as `?` in CSV. Footnote
numbers are assigned per table in row-major first-use order; comparison
against a golden file resolves footnotes to their content first, so the
numbering itself never matters.
"""

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .nogo import NoGoVerdict, verdict
from .theories import BOOM_EXTENDED, BOOM_FULL, BOOM_ORIGINAL, lookup_theory

__all__ = [
    "VARIANTS",
    "GoldenFileError",
    "TableMismatch",
    "VerdictTable",
    "variant_labels",
    "build_table",
    "cell_content",
    "to_csv",
    "to_markdown",
    "parse_golden",
    "diff_table",
    "golden_path",
]

VARIANTS = ("original", "extended", "full")

_LABELS = {
    "original": BOOM_ORIGINAL,
    "extended": BOOM_EXTENDED,
    "full": BOOM_FULL,
}


class GoldenFileError(ValueError):
    pass


def variant_labels(variant: str) -> tuple[str, ...]:
    try:
        return _LABELS[variant]
    except KeyError:
        raise GoldenFileError(
            f"unknown table variant {variant!r}; pick one of {', '.join(VARIANTS)}"
        ) from None


def cell_content(v: NoGoVerdict) -> tuple[str, ...]:
    """The citable content of one cell, in stable order.

    Refuted cells list theorem ids plus any independent-refutation notes;
    positive cells carry their citation. Unknown cells are empty.
    """
    if v.status == "NoDistLaw":
        return v.theorems + v.notes
    if v.status == "Exists":
        return (v.positive.citation,)
    return ()


@dataclass(frozen=True)
class TableMismatch:
    row: str
    col: str
    expected: str
    got: str

    def describe(self) -> str:
        return f"({self.row}, {self.col}): expected {self.expected}, got {self.got}"


@dataclass(frozen=True)
class VerdictTable:
    variant: str
    labels: tuple[str, ...]
    cells: dict  # (row label, col label) -> NoGoVerdict
    depth: int
    num_vars: int

    def verdict_at(self, row: str, col: str) -> NoGoVerdict:
        return self.cells[(row, col)]

    def footnotes(self) -> tuple[tuple[str, ...], dict]:
        """Content strings in first-use order and their 1-based numbering."""
        order: list[str] = []
        numbers: dict = {}
        for r in self.labels:
            for c in self.labels:
                for content in cell_content(self.cells[(r, c)]):
                    if content not in numbers:
                        numbers[content] = len(order) + 1
                        order.append(content)
        return tuple(order), numbers

    def counts(self) -> dict:
        out = {"N": 0, "Y": 0, "?": 0}
        for v in self.cells.values():
            out[v.mark] += 1
        return out


def build_table(variant: str, depth: int = 3, num_vars: int = 4) -> VerdictTable:
    labels = variant_labels(variant)
    entries = {lbl: lookup_theory(lbl) for lbl in labels}
    cells = {}
    for r in labels:
        for c in labels:
            cells[(r, c)] = verdict(entries[r], entries[c], depth, num_vars)
    return VerdictTable(variant, labels, cells, depth, num_vars)


def _cell_text(table: VerdictTable, numbers: dict, r: str, c: str, unknown: str) -> str:
    v = table.cells[(r, c)]
    if v.mark == "?":
        return unknown
    contents = cell_content(v)
    refs = " ".join(str(numbers[x]) for x in contents)
    return f"{v.mark}[{refs}]" if refs else v.mark


def to_csv(table: VerdictTable) -> str:
    order, numbers = table.footnotes()
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["variant", table.variant])
    w.writerow([""] + list(table.labels))
    for r in table.labels:
        w.writerow(
            [r] + [_cell_text(table, numbers, r, c, unknown="?") for c in table.labels]
        )
    for i, content in enumerate(order, start=1):
        w.writerow(["footnote", str(i), content])
    return buf.getvalue()


def to_markdown(table: VerdictTable) -> str:
    order, numbers = table.footnotes()
    lines = [
        f"Distributive laws row∘col => col∘row ({table.variant} hierarchy).",
        "Blank cells are open.",
        "",
        "| | " + " | ".join(table.labels) + " |",
        "|" + "---|" * (len(table.labels) + 1),
    ]
    for r in table.labels:
        row = [_cell_text(table, numbers, r, c, unknown="") for c in table.labels]
        lines.append("| " + r + " | " + " | ".join(row) + " |")
    lines.append("")
    for i, content in enumerate(order, start=1):
        lines.append(f"[{i}]: {content}")
    return "\n".join(lines) + "\n"


_CELL_RE = re.compile(r"^([NY?])(?:\[([0-9 ]*)\])?$")


def parse_golden(text: str):
    """(variant, labels, {(row, col): (mark, content frozenset)}) or raise."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(f.strip() for f in r)]
    if len(rows) < 3 or rows[0][:1] != ["variant"] or len(rows[0]) != 2:
        raise GoldenFileError("golden file must start with a 'variant,<name>' line")
    variant = rows[0][1].strip()
    labels = tuple(x.strip() for x in rows[1][1:])
    if not labels:
        raise GoldenFileError("missing column label row")

    footnotes: dict = {}
    body = []
    for row in rows[2:]:
        if row[0] == "footnote":
            if len(row) != 3 or not row[1].strip().isdigit():
                raise GoldenFileError(f"malformed footnote row {row!r}")
            footnotes[int(row[1])] = row[2]
        else:
            body.append(row)
    if len(body) != len(labels):
        raise GoldenFileError(
            f"expected {len(labels)} data rows, found {len(body)}"
        )

    cells = {}
    for row in body:
        if len(row) != len(labels) + 1:
            raise GoldenFileError(f"row {row[0]!r} has {len(row) - 1} cells")
        r = row[0].strip()
        for c, raw in zip(labels, row[1:]):
            m = _CELL_RE.match(raw.strip())
            if m is None:
                raise GoldenFileError(f"unreadable cell {raw!r} at ({r}, {c})")
            mark, refs = m.group(1), m.group(2)
            ids = [int(x) for x in refs.split()] if refs else []
            missing = [i for i in ids if i not in footnotes]
            if missing:
                raise GoldenFileError(
                    f"cell ({r}, {c}) cites undefined footnote(s) {missing}"
                )
            if mark == "?" and ids:
                raise GoldenFileError(f"unknown cell ({r}, {c}) cannot cite footnotes")
            cells[(r, c)] = (mark, frozenset(footnotes[i] for i in ids))
    row_labels = tuple(row[0].strip() for row in body)
    if row_labels != labels:
        raise GoldenFileError(
            f"row labels {row_labels} do not match column labels {labels}"
        )
    return variant, labels, cells


def _show(mark: str, contents) -> str:
    return mark + ("{" + "; ".join(sorted(contents)) + "}" if contents else "")


def diff_table(table: VerdictTable, golden: Union[str, Path]) -> list[TableMismatch]:
    """Content-level comparison; raises GoldenFileError on shape problems.

    `golden` is a path, or the file's text when it contains a newline.
    """
    if isinstance(golden, str) and "\n" in golden:
        text = golden
    else:
        text = Path(golden).read_text()
    variant, labels, golden_cells = parse_golden(text)
    if variant != table.variant or labels != table.labels:
        raise GoldenFileError(
            f"dimension mismatch: golden is {variant} {len(labels)}x{len(labels)}, "
            f"table is {table.variant} "
            f"{len(table.labels)}x{len(table.labels)}"
        )
    mismatches = []
    for r in table.labels:
        for c in table.labels:
            v = table.cells[(r, c)]
            got = (v.mark, frozenset(cell_content(v)))
            want = golden_cells[(r, c)]
            if got != want:
                mismatches.append(
                    TableMismatch(r, c, _show(*want), _show(*got))
                )
    return mismatches


def golden_path(variant: str) -> Path:
    variant_labels(variant)  # validates the name
    return Path(__file__).parent / "data" / f"boom_{variant}.csv"
