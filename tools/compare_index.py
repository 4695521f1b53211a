"""Check that two builds wrote the same index files.

Compares every parquet file under ``docs/``, ``postings_raw/`` and
``postings/`` of two index directories byte for byte.  Files present in
only one directory count as differing.  Prints each differing file and a
one-line summary; exits 1 if any file differs, 0 if all are identical.

Use it on a change to the build path that must not change the index:
build the same corpus with the same config from the old and the new code,
then compare the two index directories.

Usage: python tools/compare_index.py INDEX_A INDEX_B
"""

from __future__ import annotations

import filecmp
import os
import sys

SUBDIRS = ("docs", "postings_raw", "postings")


def parquet_files(index_dir: str) -> set:
    """Relative paths of the parquet files under ``SUBDIRS``."""
    out = set()
    for sub in SUBDIRS:
        root = os.path.join(index_dir, sub)
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if name.endswith(".parquet"):
                    out.add(os.path.relpath(os.path.join(dirpath, name),
                                            index_dir))
    return out


def compare(a: str, b: str) -> tuple:
    """``(identical, differing)`` lists of relative paths; a file missing
    on one side is listed in ``differing`` with a ``(only in A|B)`` note."""
    fa, fb = parquet_files(a), parquet_files(b)
    same, diff = [], []
    for rel in sorted(fa | fb):
        if rel not in fb:
            diff.append(f"{rel} (only in A)")
        elif rel not in fa:
            diff.append(f"{rel} (only in B)")
        elif filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel),
                         shallow=False):
            same.append(rel)
        else:
            diff.append(rel)
    return same, diff


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    a, b = argv
    for d in (a, b):
        if not os.path.isdir(d):
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    same, diff = compare(a, b)
    for rel in diff:
        print(f"DIFFERS: {rel}")
    print(f"{len(same)} identical, {len(diff)} differing")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
