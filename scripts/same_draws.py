#!/usr/bin/env python3
"""Check that two benchmark runs drew the same values.

Usage:
    python3 scripts/same_draws.py A B

A and B are output directories of ``perfbench/run.py``
(``.perfbench_out/<workload>-<seed>``), usually of one workload and seed
run on two checkouts.  Every file under ``run/records/`` must be equal byte
for byte, and every saved ``.npz`` draw file must hold the same arrays with
the same bytes, except ``yard_s``, the yardstick seconds timed before each
fit.  Each difference is printed; the exit status is 1 if there is any, or
if a side has no records or no draw files, and 0 otherwise.
"""

import sys
from pathlib import Path

import numpy as np

TIMED = "yard_s"


def _files(root: Path, pattern: str) -> set[Path]:
    return {p.relative_to(root) for p in root.glob(pattern)}


def _bytes_differ(x: Path, y: Path) -> list[str]:
    return [] if x.read_bytes() == y.read_bytes() else ["bytes differ"]


def _arrays_differ(x: Path, y: Path) -> list[str]:
    """The arrays, apart from ``yard_s``, that the .npz files ``x`` and ``y`` do not share byte for byte."""
    with np.load(x) as f, np.load(y) as g:
        u = {k: f[k] for k in f.files if k != TIMED}
        v = {k: g[k] for k in g.files if k != TIMED}
    return [f"array {k} differs" for k in sorted(u.keys() | v.keys())
            if k not in u or k not in v or u[k].dtype != v[k].dtype or u[k].shape != v[k].shape
            or u[k].tobytes() != v[k].tobytes()]


KINDS = (("run/records/*.json", "records", _bytes_differ), ("**/*.npz", "draw files", _arrays_differ))


def differences(a: Path, b: Path) -> list[str]:
    """Every way in which the runs in ``a`` and ``b`` differ, apart from timings."""
    found = []
    for pattern, what, differ in KINDS:
        names = {side: _files(side, pattern) for side in (a, b)}
        found += [f"{side}: no {what}" for side, mine in names.items() if not mine]
        found += [f"{name}: only under {a if name in names[a] else b}"
                  for name in sorted(names[a] ^ names[b])]
        for name in sorted(names[a] & names[b]):
            found += [f"{name}: {line}" for line in differ(a / name, b / name)]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    found = differences(a, b)
    for line in found:
        print(line)
    if found:
        return 1
    print(f"same draws: {len(_files(a, 'run/records/*.json'))} records, "
          f"{len(_files(a, '**/*.npz'))} draw files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
