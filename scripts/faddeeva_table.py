#!/usr/bin/env python3
"""Read the Faddeeva Package's erfcx coefficient table out of scipy's binary.

``resdyn._faddeeva`` evaluates erfcx exactly as scipy compiles it, and its
100 x 7 table of Chebyshev-fit coefficients is checked in as decimal text,
one line of seven numbers per interval, that ``float`` parses at import
into a tuple of 100 rows.
This script recovers that table from the installed
``scipy/special/_ufuncs`` extension, where the compiler stored it as
little-endian doubles:

* the table starts at interval 0's highest coefficient c6;
* each interval is stored from c6 down to c0;
* some of the odd constants 2k + 1 of t = 2y - (2k + 1) sit between the
  intervals, and they are the only exact integers in the run.

So the table is the first 700 non-integer doubles from the start, each group
of seven reversed.  The extraction proves nothing about the result: that
erfcx built from the table matches scipy bit for bit is what
``tests/test_faddeeva.py`` checks.  Only the standard library and numpy are
used; scipy is located, not imported.

    python scripts/faddeeva_table.py          # print the _Y100 assignment
    python scripts/faddeeva_table.py --check  # diff it against resdyn._faddeeva
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

INTERVALS, TERMS = 100, 7
# Interval 0's c6, the first double of the table.
FIRST = 1.5917038551111112e-15


def ufuncs_binary() -> Path:
    """The installed ``scipy/special/_ufuncs`` extension module."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        sys.exit("scipy is not installed")
    special = Path(spec.submodule_search_locations[0]) / "special"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = special / f"_ufuncs{suffix}"
        if path.is_file():
            return path
    sys.exit(f"no _ufuncs extension in {special}")


def extract(path: Path) -> np.ndarray:
    """The ``(100, 7)`` table, row k holding interval k's c0 to c6."""
    data = path.read_bytes()
    start = data.find(np.float64(FIRST).astype("<f8").tobytes())
    if start < 0:
        sys.exit(f"{path}: the table's first coefficient {FIRST!r} is absent")
    # The integers between the intervals number fewer than the intervals.
    count = min(2 * INTERVALS * TERMS, (len(data) - start) // 8)
    run = np.frombuffer(data, dtype="<f8", offset=start, count=count)
    coefs = run[np.trunc(run) != run][:INTERVALS * TERMS]
    return coefs.astype(np.float64).reshape(INTERVALS, TERMS)[:, ::-1]


def source(table) -> str:
    """``table``, an array or ``resdyn._faddeeva._Y100`` itself, as the
    ``_Y100`` assignment of ``resdyn._faddeeva``: line k holds interval k's
    c0 to c6, each the shortest decimal that ``float`` reads back to the
    same double."""
    rows = "\n".join(" ".join(repr(float(c)) for c in row) for row in table)
    return ('_Y100 = tuple(zip(*[map(float, """\n'
            f'{rows}\n'
            f'""".split())] * {TERMS}))')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the table checked into "
                             "resdyn._faddeeva; exit 1 on any difference")
    args = parser.parse_args(argv)
    path = ufuncs_binary()
    table = extract(path)
    if not args.check:
        print(source(table))
        return 0

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from resdyn._faddeeva import _Y100

    checked_in = np.array(_Y100)
    differ = np.argwhere(table.view(np.uint64) != checked_in.view(np.uint64))
    for k, j in differ:
        print(f"interval {k} c{j}: checked in {checked_in[k, j]!r}, "
              f"{path.name} has {table[k, j]!r}")
    print(f"{len(differ)} of {table.size} coefficients differ from {path}")
    return 1 if len(differ) else 0


if __name__ == "__main__":
    sys.exit(main())
