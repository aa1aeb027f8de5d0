"""Byte-stable text serialization shared by the pipeline stages.

Floats are written with ``repr``, the shortest round-tripping decimal
form, so identical values always produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ParameterError

__all__ = ["format_cell", "write_csv", "read_csv", "sha256_of", "write_json",
           "read_int_rows", "read_int_table", "declared_nodes", "write_int_rows"]

# What a data line of an integer table may hold, and the magnitude bound
# that keeps every accepted field clear of int64 overflow.
_DATA_BYTES = b"0123456789+- \t\r\n"
_INT_LIMIT = 10 ** 18
_FIELD = re.compile(r"[^ \t\r\n]+")
_INT = re.compile(r"[+-]?[0-9]+")
_NO_INTS = np.empty(0, dtype=np.int64)

# The readers parse this many bytes at a time, cut back to the last line
# end, so their scratch memory scales with one block, not with the file.
READ_BLOCK_BYTES = 1 << 18
# write_int_rows renders this many fields at a time, which bounds its
# scratch memory whatever the size of the file.
WRITE_BLOCK_FIELDS = 1 << 17
# Row g is the zero-padded 4-digit ASCII form of g, viewed as one uint32;
# digit k (from the left) steps through 0-9 in runs of 10**(3-k) rows.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGIT_GROUPS = np.stack([np.tile(np.repeat(_DIGITS, 10 ** (3 - k)), 10 ** k)
                          for k in range(4)], axis=1).view(np.uint32).ravel()
_POWERS_OF_TEN = 10 ** np.arange(1, 18, dtype=np.int64)


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise ParameterError("booleans have no CSV cell form")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(cell) for cell in row) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and raw string rows of a CSV written by :func:`write_csv`.

    Blank and ``#`` lines are skipped and the first other line is the
    header.  A non-ASCII byte, a row whose cell count differs from the
    header's, or no header at all raises ``ContractError``.
    """
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ContractError(f"{path}:{number}: non-ASCII byte")
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            elif len(cells) != len(header):
                raise ContractError(f"{path}:{number}: expected {len(header)} "
                                    f"cells, got {len(cells)}")
            else:
                rows.append(cells)
    if header is None:
        raise ContractError(f"{path}: empty CSV")
    return header, rows


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                          encoding="ascii")


# ---------------------------------------------------------------------------
# Integer tables: substrate.edges, cooc.edges, traces.txt
# ---------------------------------------------------------------------------

def read_int_rows(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Read a text file of integer rows, vectorised over blocks of whole lines.

    The file is ASCII.  A line whose first byte is ``#`` is a header and a
    line of blanks is skipped.  Every other line is a data row of fields
    ``[+-]?[0-9]+`` below 10**18 in magnitude, separated by runs of spaces
    or tabs (a CRLF line end is accepted).  Returns the header lines, every
    field in file order (int64), and the field count and 1-based line
    number of each data row; blank and header lines count as lines.  A
    bad line raises ``ContractError`` at ``path:line``.
    """
    blocks = list(_row_blocks(path))
    return ([h for block in blocks for h in block[0]],
            *(np.concatenate([block[k] for block in blocks] + [_NO_INTS]) for k in (1, 2, 3)))


def read_int_table(path, columns: int) -> tuple[list[str], np.ndarray]:
    """Header lines and ``(rows, columns)`` int64 table of a :func:`read_int_rows` file.

    The table is column-major, so each column is one contiguous array.  A
    row of another width raises ``ContractError`` at its line, unless a
    later line is malformed, which :func:`read_int_rows` reports first.
    """
    headers, blocks, error = [], [_NO_INTS.reshape(0, columns)], None
    for block_headers, values, counts, lines in _row_blocks(path):
        headers += block_headers
        bad = np.flatnonzero(counts != columns)
        if bad.size and error is None:
            error = ContractError(f"{path}:{lines[bad[0]]}: expected {columns} "
                                  f"fields, got {counts[bad[0]]}")
        elif error is None:
            blocks.append(values.reshape(-1, columns))
    if error is not None:
        raise error
    table = np.empty((sum(map(len, blocks)), columns), dtype=np.int64, order="F")
    return headers, np.concatenate(blocks, out=table)


def _row_blocks(path):
    """Per block of whole lines: its headers, fields, and each data row's count and line."""
    number, pending = 1, []
    with open(path, "rb") as fh:
        while chunk := fh.read(READ_BLOCK_BYTES):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                block, pending = b"".join(pending + [chunk[:cut]]), [chunk[cut:]]
                yield _parse_block(path, block, number)
                number += block.count(b"\n")
            else:
                pending.append(chunk)
    if any(pending):
        yield _parse_block(path, b"".join(pending), number)


def _parse_block(path, data: bytes, number: int):
    raw = np.frombuffer(data, dtype=np.uint8)
    heads = np.flatnonzero(raw == ord("#"))
    heads = heads[(heads == 0) | (raw[heads - 1] == ord("\n"))].tolist()
    blanked = bytearray(data)
    headers = []
    for head in heads:
        end = data.find(b"\n", head) % (len(data) + 1)   # -1 (no newline) -> len
        headers.append(data[head:end].decode("ascii", "surrogateescape").rstrip("\r"))
        blanked[head:end] = b" " * (end - head)
    text = bytes(blanked)
    if not data.isascii() or text.translate(None, _DATA_BYTES):
        raise _first_bad_line(path)
    buf = np.frombuffer(text, dtype=np.uint8)
    field = buf > ord(" ")          # in this alphabet: digits and signs
    start = field.copy()
    start[1:] &= ~field[:-1]
    if b"+" in text or b"-" in text:
        # a sign must open its field and be followed by a digit
        sign = (buf == ord("+")) | (buf == ord("-"))
        if np.any(sign & ~(start & np.append(buf[1:] >= ord("0"), False))):
            raise _first_bad_line(path)
    events = np.flatnonzero(start | (buf == ord("\n")))
    ends = np.flatnonzero(buf[events] == ord("\n"))
    per_line = np.diff(ends, prepend=-1, append=events.size) - 1
    rows = np.flatnonzero(per_line)
    values = np.fromstring(text, dtype=np.int64, sep=" ") if rows.size else _NO_INTS
    if np.any((values >= _INT_LIMIT) | (values <= -_INT_LIMIT)):
        raise _first_bad_line(path)
    return headers, values, per_line[rows], rows + number


def _first_bad_line(path) -> ContractError:
    """The error for the first line of ``path`` that :func:`read_int_rows` rejects."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if line.startswith(b"#"):
                if not line.isascii():
                    return ContractError(f"{path}:{number}: non-ASCII byte in header")
                continue
            # non-ASCII bytes decode to lone surrogates, which no field matches
            for field in _FIELD.findall(line.decode("ascii", "surrogateescape")):
                if not _INT.fullmatch(field):
                    return ContractError(f"{path}:{number}: invalid literal for int() "
                                         f"with base 10: {field!r}")
                if abs(int(field)) >= _INT_LIMIT:
                    return ContractError(f"{path}:{number}: integer {field} out of range")
    return ContractError(f"{path}: malformed integer table")


def write_int_rows(fh, values: np.ndarray, seps) -> None:
    """Write every value in decimal, each followed by its separator byte.

    The counterpart of :func:`read_int_rows`.  ``values`` is an integer
    array with every element in ``[0, 10**18)``, written in C order; a
    value outside raises ``ParameterError`` before anything is written.
    ``seps`` holds the separator bytes (bytes or a uint8 array) and is
    broadcast against ``values``, so ``b"\\t\\n"`` ends every row of a
    two-column table.  ``fh`` is a binary file.  The bytes equal those of
    ``str(value) + chr(sep)`` per value; they are rendered with numpy in
    blocks of ``WRITE_BLOCK_FIELDS`` values.
    """
    values = np.asarray(values)
    seps = np.broadcast_to(np.frombuffer(seps, dtype=np.uint8), values.shape).reshape(-1)
    values = values.reshape(-1)
    if values.size and (values.min() < 0 or values.max() >= _INT_LIMIT):
        raise ParameterError(f"integers to write must lie in [0, 10**18), "
                             f"got {values.min()}..{values.max()}")
    for lo in range(0, values.size, WRITE_BLOCK_FIELDS):
        rest = values[lo:lo + WRITE_BLOCK_FIELDS].astype(np.int64)
        top = int(rest.max())
        digits = np.ones(rest.size, dtype=np.intp)
        for power in _POWERS_OF_TEN[_POWERS_OF_TEN <= top].tolist():
            digits += rest >= power
        groups = np.empty((rest.size, (len(str(top)) + 3) // 4), dtype=np.int64)
        for col in range(groups.shape[1] - 1, -1, -1):
            rest, groups[:, col] = np.divmod(rest, 10000)
        width = 4 * groups.shape[1]
        text = np.empty((rest.size, width + 1), dtype=np.uint8)
        text[:, :width] = _DIGIT_GROUPS[groups].view(np.uint8)
        text[:, width] = seps[lo:lo + WRITE_BLOCK_FIELDS]
        # row d of this table keeps the last d digits and the separator
        keep = np.arange(width + 1) >= width - np.arange(width + 1)[:, None]
        fh.write(text[keep.take(digits, axis=0)])


def declared_nodes(path, headers: list[str]) -> int | None:
    """The ``<n>`` (below 2**31) of the last ``nodes=<n>`` header field; None without one."""
    found = [m[1] for m in (re.search(r"nodes=(\S*)", h) for h in headers) if m]
    if not found:
        return None
    if not re.fullmatch(r"[0-9]{1,10}", found[-1]) or int(found[-1]) >= 2 ** 31:
        raise ContractError(f"{path}: bad node count {found[-1]!r} in header")
    return int(found[-1])
