"""CSV ingestion, tokenization, and column sampling.

Tables are loaded into an immutable in-memory corpus of string-valued cells.
Ragged rows are padded or truncated to the header width (real data lakes are
dirty; downstream stages assume rectangular tables). Numeric-looking columns
are treated as text throughout.

A lake repeats its cells (1.3% of the benchmark lake's cells are distinct),
so a load stores each distinct cell value once: equal cells of one table, or
of every table a manifest lists, share one string object. The pool of
distinct values lives only for the load. It is bounded by
``CELL_POOL_CAP``, because on a lake whose cells are all distinct it would
only add a dict entry per cell; past the bound, cells already pooled are
still shared and new ones are kept as read.

The index build reads the lake the same way, in ``cell_blocks``: runs of
columns whose cells, padded to the longest column, number at most
``BLOCK_CELLS``, each cell replaced by the slot of its value among the
block's distinct values. Per-value work then happens once per block, and
per-cell work is array passes over the slots.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyColumnError, InputError
from .seeding import check_seed, default_rngs

# Recorded in model files and checked on load, so index-time and query-time
# tokenization agree.
TOKENIZER_ID = "lower-alnum-v1"

_TOKEN_RE = re.compile(r"[0-9a-z]+")

ColumnKey = tuple[str, int]

# Distinct cell values one load pools, sized like the memo caps downstream.
CELL_POOL_CAP = 1 << 16
# Slots of one cell block, padding included; a longer column is a block
# alone. At 128 dims the block's float64 cell means take at most 4 MB.
BLOCK_CELLS = 1 << 12


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run; digits are tokens."""
    return _TOKEN_RE.findall(text.lower())


@functools.lru_cache(maxsize=CELL_POOL_CAP)
def cell_tokens(cell: str) -> tuple[str, ...]:
    """``tokenize`` of a cell, memoized: a lake repeats its cells, and the
    index build, sampling and query columns all read their tokens."""
    return tuple(tokenize(cell))


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
        return any(map(cell_tokens, self.values))


@dataclass
class Table:
    table_id: str
    name: str
    headers: list[str]
    columns: list[Column]
    source_path: str | None

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


@dataclass
class CellBlock:
    """Consecutive columns' cells as slots of their distinct values.

    ``values`` holds each distinct cell value of the columns once, in the
    order first met. ``slots[p, i]`` is the slot of cell p of column i, and
    ``len(values)``, the padding slot, past the column's end.
    """

    columns: list[Column]
    values: list[str]
    slots: np.ndarray   # (longest column, len(columns)), intp

    @property
    def padding(self) -> int:
        return len(self.values)

    def column_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each column's distinct slots, padding left out: the columns, the
        slots and how many of the column's cells hold the slot's value,
        ordered by column, then slot."""
        stride = self.padding + 1
        pairs, counts = np.unique(
            self.slots + np.arange(len(self.columns)) * stride,
            return_counts=True)
        columns, slots = np.divmod(pairs, stride)
        real = slots != self.padding
        return columns[real], slots[real], counts[real]


def cell_blocks(columns: Sequence[Column]) -> Iterator[CellBlock]:
    """The columns, in order, as cell blocks of at most ``BLOCK_CELLS``
    slots each."""
    block: list[Column] = []
    longest = 0
    for column in columns:
        n = len(column.values)
        if block and (len(block) + 1) * max(longest, n) > BLOCK_CELLS:
            yield _cell_block(block, longest)
            block, longest = [], 0
        block.append(column)
        longest = max(longest, n)
    if block:
        yield _cell_block(block, longest)


def _cell_block(columns: list[Column], longest: int) -> CellBlock:
    cells = list(chain.from_iterable(c.values for c in columns))
    values = list(dict.fromkeys(cells))
    slot_of = {v: slot for slot, v in enumerate(values)}
    lengths = np.array([len(c.values) for c in columns])
    slots = np.full((len(columns), longest), len(values), dtype=np.intp)
    # Row-major, the mask's cells run column by column, as cells do.
    slots[np.arange(longest) < lengths[:, None]] = np.fromiter(
        map(slot_of.__getitem__, cells), dtype=np.intp, count=len(cells))
    return CellBlock(columns=columns, values=values,
                     slots=np.ascontiguousarray(slots.T))


def _pooled(values: tuple[str, ...], pool: dict[str, str]) -> list[str]:
    """The values, each replaced by its equal string in pool; unseen values
    join the pool while it holds fewer than CELL_POOL_CAP."""
    if len(pool) < CELL_POOL_CAP:
        return [pool.setdefault(v, v) for v in values]
    return [pool.get(v, v) for v in values]


def load_csv(path: str | Path, table_id: str | None = None) -> Table:
    """Load one CSV file into a Table.

    The first row is the header. Cells are stripped of surrounding
    whitespace. Rows wider than the header are truncated, narrower rows
    padded with empty-cell markers. Undecodable bytes are replaced, never
    aborting mid-file. Equal cells share one string object.
    """
    return _load_table(Path(path), table_id, {})


def _load_table(path: Path, table_id: str | None,
                pool: dict[str, str]) -> Table:
    """load_csv, sharing its cells through pool."""
    try:
        with open(path, newline="", encoding="utf-8", errors="replace") as fh:
            reader = csv.reader(fh)
            try:
                raw_rows = [row for row in reader if row]
            except csv.Error as exc:   # e.g. a cell over the field size limit
                raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    if not raw_rows:
        raise InputError(f"{path}: empty file")

    headers = [h.strip() for h in raw_rows[0]]
    data_rows = raw_rows[1:]

    if not data_rows:
        raise InputError(f"{path}: no data rows")
    if not headers:
        raise InputError(f"{path}: empty header row")

    width = len(headers)
    cells: list[list[str]] = []
    for row in data_rows:
        row = [c.strip() for c in row]
        if len(row) != width:
            row = row[:width] + [""] * (width - len(row))
        cells.append(row)

    tid = table_id if table_id is not None else path.stem
    columns = [
        Column(table_id=tid, position=j, name=headers[j],
               values=_pooled(values, pool))
        for j, values in enumerate(zip(*cells))
    ]
    return Table(table_id=tid, name=path.stem, headers=headers, columns=columns,
                 source_path=str(path))


def load_manifest(path: str | Path) -> Corpus:
    """Load a corpus from a manifest file: one "id<TAB>path" line per table.

    Relative paths resolve against the manifest's directory. Table order
    follows the manifest, so corpora are reproducible across machines.
    Equal cells share one string object across all the tables.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8: {exc}") from exc

    tables = []
    pool: dict[str, str] = {}
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
        tables.append(_load_table(csv_path, tid, pool))
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


def sample_column(column: Column, s: int, seed: int) -> Column:
    """The column with s cells drawn uniformly, with replacement, from its
    cells that yield a token: the cells a column embedding averages. The
    draws are ``np.random.default_rng(seed).integers(0, len(cells), s)``.

    Pure function of (column values, s, seed), the seed in [0, 2**64):
    callers that need decorrelated samples across columns must derive
    distinct seeds per column.
    """
    check_seed("sample seed", seed)
    return sample_columns([column], s, [seed])[0]


def sample_columns(columns: Sequence[Column], s: int,
                   seeds: Sequence[int]) -> list[Column]:
    """``sample_column`` of each column under its seed, the generators
    seeded in one pass."""
    if s < 1:
        raise InputError(f"sample size must be >= 1, got {s}")
    samples = []
    for column, rng in zip(columns, default_rngs(seeds), strict=True):
        pool = list(filter(cell_tokens, column.values))
        if not pool:
            raise EmptyColumnError(
                f"column {column.column_key} yields no token")
        idx = rng.integers(0, len(pool), size=s)
        samples.append(Column(table_id=column.table_id,
                              position=column.position, name=column.name,
                              values=[pool[i] for i in idx]))
    return samples
