"""Plain-text matrix polynomial files.

One matrix row per line, whitespace-separated decimal floats; a blank line
ends one coefficient matrix and starts the next, so a degree-p polynomial is
p+1 blocks.  Entries must be finite.  Parse errors always carry the
offending line number.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MatrixFileError", "parse_coefficient_text", "load_coefficients"]


class MatrixFileError(ValueError):
    def __init__(self, source: str, line: int | None, message: str):
        self.source = source
        self.line = line
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


def parse_coefficient_text(text: str, source: str = "<string>") -> list[np.ndarray]:
    """Parse coefficient matrices A_0, A_1, ... from file text.

    Every block must be square and of the first block's size; one that is
    not is refused at the line of its first row.
    """
    blocks: list[tuple[int, list[list[float]]]] = []
    rows: list[list[float]] = []
    row_start = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if rows:
                blocks.append((row_start, rows))
                rows = []
                row_start = None
            continue
        try:
            values = [float(tok) for tok in stripped.split()]
        except ValueError:
            raise MatrixFileError(source, lineno, f"unparseable row {stripped!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise MatrixFileError(source, lineno, f"non-finite entry in row {stripped!r}")
        if rows and len(values) != len(rows[0]):
            raise MatrixFileError(
                source,
                lineno,
                f"row has {len(values)} entries, block starting at line "
                f"{row_start} has rows of {len(rows[0])}",
            )
        if not rows:
            row_start = lineno
        rows.append(values)
    if rows:
        blocks.append((row_start, rows))
    if not blocks:
        raise MatrixFileError(source, None, "no matrices found")
    size = len(blocks[0][1])
    for start, block in blocks:
        n, m = len(block), len(block[0])
        if n != m:
            raise MatrixFileError(source, start, f"block is {n}x{m}, not square")
        if n != size:
            raise MatrixFileError(source, start, f"block is {n}x{m}, the first is {size}x{size}")
    return [np.array(block, dtype=float) for _, block in blocks]


def load_coefficients(path: str) -> list[np.ndarray]:
    """Read coefficient matrices from a file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_coefficient_text(text, source=str(path))
