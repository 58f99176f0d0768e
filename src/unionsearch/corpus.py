"""CSV ingestion, tokenization, and column sampling.

Tables are loaded into an immutable in-memory corpus of string-valued cells.
Ragged rows are padded or truncated to the header width (real data lakes are
dirty; downstream stages assume rectangular tables), with a warning counter
on the table. Numeric-looking columns are treated as text throughout.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyColumnError, InputError

# Recorded in model files and checked on load, so index-time and query-time
# tokenization agree.
TOKENIZER_ID = "lower-alnum-v1"

_TOKEN_RE = re.compile(r"[0-9a-z]+")

ColumnKey = tuple[str, int]


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run; digits are tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Column:
    table_id: str
    position: int
    name: str
    values: list[str]

    @property
    def column_key(self) -> ColumnKey:
        return (self.table_id, self.position)

    def non_empty_values(self) -> list[str]:
        return [v for v in self.values if v != ""]

    def is_encodable(self) -> bool:
        """True if at least one cell yields at least one token."""
        return any(tokenize(v) for v in self.values if v != "")


@dataclass
class Table:
    table_id: str
    name: str
    headers: list[str]
    columns: list[Column]
    source_path: str | None
    warning_count: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def rows(self) -> list[list[str]]:
        """Reconstruct the cell matrix, row major."""
        return [[c.values[i] for c in self.columns] for i in range(self.n_rows)]


@dataclass
class IngestOptions:
    has_header: bool = True


@dataclass
class ColumnSample:
    column_key: ColumnKey
    sampled_values: list[str]
    seed_used: int


@dataclass
class Corpus:
    """Immutable collection of tables with key-based lookup."""

    tables: list[Table]
    _by_table_id: dict[str, Table] = field(default_factory=dict, repr=False)
    _by_column_key: dict[ColumnKey, Column] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for table in self.tables:
            if table.table_id in self._by_table_id:
                raise InputError(f"duplicate table_id {table.table_id!r} in corpus")
            self._by_table_id[table.table_id] = table
            for col in table.columns:
                self._by_column_key[col.column_key] = col

    @property
    def column_count(self) -> int:
        return sum(t.n_columns for t in self.tables)

    def table(self, table_id: str) -> Table:
        try:
            return self._by_table_id[table_id]
        except KeyError:
            raise InputError(f"unknown table_id {table_id!r}") from None

    def column(self, key: ColumnKey) -> Column:
        try:
            return self._by_column_key[key]
        except KeyError:
            raise InputError(f"unknown column_key {key!r}") from None

    def columns(self) -> list[Column]:
        return [c for t in self.tables for c in t.columns]

    def encodable_columns(self) -> list[Column]:
        return [c for c in self.columns() if c.is_encodable()]

    def digest(self) -> str:
        """Hex blake2b of every table id, column name and cell, in order."""
        content = [(t.table_id, [(c.name, c.values) for c in t.columns])
                   for t in self.tables]
        return hashlib.blake2b(repr(content).encode("utf-8"),
                               digest_size=16).hexdigest()


def load_csv(path: str | Path, options: IngestOptions | None = None,
             table_id: str | None = None) -> Table:
    """Load one CSV file into a Table.

    First row is the header unless options.has_header is off. Cells are
    stripped of surrounding whitespace. Rows wider than the header are
    truncated, narrower rows padded with empty-cell markers; both count as
    warnings. Undecodable bytes are replaced, never aborting mid-file.
    """
    options = options or IngestOptions()
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8", errors="replace") as fh:
            raw_rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    if not raw_rows:
        raise InputError(f"{path}: empty file")

    if options.has_header:
        headers = [h.strip() for h in raw_rows[0]]
        data_rows = raw_rows[1:]
    else:
        width = max(len(r) for r in raw_rows)
        headers = [f"col{i}" for i in range(width)]
        data_rows = raw_rows

    if not data_rows:
        raise InputError(f"{path}: no data rows")
    if not headers:
        raise InputError(f"{path}: empty header row")

    width = len(headers)
    warning_count = 0
    cells: list[list[str]] = []
    for row in data_rows:
        row = [c.strip() for c in row]
        if len(row) != width:
            warning_count += 1
            row = row[:width] + [""] * (width - len(row))
        cells.append(row)

    tid = table_id if table_id is not None else path.stem
    columns = [
        Column(table_id=tid, position=j, name=headers[j],
               values=[row[j] for row in cells])
        for j in range(width)
    ]
    return Table(table_id=tid, name=path.stem, headers=headers, columns=columns,
                 source_path=str(path), warning_count=warning_count)


def load_manifest(path: str | Path, options: IngestOptions | None = None) -> Corpus:
    """Load a corpus from a manifest file: one "id<TAB>path" line per table.

    Relative paths resolve against the manifest's directory. Table order
    follows the manifest, so corpora are reproducible across machines.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from exc

    tables = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise InputError(f"{path}:{lineno}: expected 'id<TAB>path'")
        tid, rel = line.split("\t", 1)
        csv_path = Path(rel)
        if not csv_path.is_absolute():
            csv_path = path.parent / csv_path
        tables.append(load_csv(csv_path, options, table_id=tid))
    if not tables:
        raise InputError(f"manifest {path} lists no tables")
    return Corpus(tables=tables)


def write_manifest(path: str | Path, entries: list[tuple[str, str]]) -> None:
    text = "".join(f"{tid}\t{rel}\n" for tid, rel in entries)
    Path(path).write_text(text, encoding="utf-8")


def write_table_csv(path: str | Path, table: Table) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(table.headers)
        w.writerows(table.rows())


def sample_column(column: Column, s: int, seed: int) -> ColumnSample:
    """Uniform sample of s non-empty values, with replacement.

    Pure function of (column values, s, seed): callers that need decorrelated
    samples across columns must derive distinct seeds per column.
    """
    if s < 1:
        raise InputError(f"sample size must be >= 1, got {s}")
    pool = column.non_empty_values()
    if not pool:
        raise EmptyColumnError(f"column {column.column_key} has no non-empty values")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pool), size=s)
    return ColumnSample(column_key=column.column_key,
                        sampled_values=[pool[i] for i in idx],
                        seed_used=seed)
