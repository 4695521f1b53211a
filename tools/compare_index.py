"""Check that two index directories hold the same index.

Default mode compares every parquet file under ``docs/``, ``postings_raw/``
and ``postings/`` of two index directories byte for byte.  Files present
in only one directory count as differing, except that spills
(``postings_raw/``, which only an uncommitted build holds) are compared
only when both directories have them.  Use it on a change to the build
path that must not change the index: build the same corpus with the same
config from the old and the new code, then compare the two directories.

``--logical`` compares what the two indexes mean instead of their
bytes: each term's doc ids, tfs and positions, decoded from every
committed postings segment that holds the term, and the docs table,
row by row in doc-id order.  Two indexes with different segment layouts
(a fresh build and a build plus extends, say) compare identical when
they index the same docs the same way.

Prints each difference and a one-line summary; exits 1 if anything
differs, 0 if nothing does.

Usage: python tools/compare_index.py [--logical] INDEX_A INDEX_B
"""

from __future__ import annotations

import filecmp
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SUBDIRS = ("docs", "postings_raw", "postings")


def parquet_files(index_dir: str, subdirs=SUBDIRS) -> set:
    """Relative paths of the parquet files under ``subdirs``."""
    out = set()
    for sub in subdirs:
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
    subdirs = [s for s in SUBDIRS if s != "postings_raw" or all(
        os.path.isdir(os.path.join(d, s)) for d in (a, b))]
    fa, fb = parquet_files(a, subdirs), parquet_files(b, subdirs)
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


def postings_table(index_dir: str):
    """One row per posting of the committed segments, sorted by
    ``(term, doc_id)``: its term, doc id, tf and positions."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from solr_indexer_ray.functions.varint import varint_decode
    from solr_indexer_ray.state.manifest import BuildManifest

    m = BuildManifest(index_dir)
    cols = ["term", "df", "doc_ids", "tfs", "positions"]
    t = pa.concat_tables([
        pq.read_table(os.path.join(index_dir, "postings", f), columns=cols)
        for f in m.committed_files(m.read_stats(), "postings")
    ]).combine_chunks()

    def values(name):  # every row's varint stream, decoded as one
        col = t[name].chunk(0) if t.num_rows else pa.array([], pa.binary())
        if len(col) and col.null_count == len(col):
            return None
        col = col.fill_null(b"")
        _, offs, data = col.buffers()
        o = np.frombuffer(offs, np.int32, count=len(col) + 1,
                          offset=4 * col.offset)
        return varint_decode((data or pa.py_buffer(b"")).slice(
            int(o[0]), int(o[-1] - o[0]))).astype(np.int64)

    def restart(vals, counts):  # delta streams restarting per count
        c = np.cumsum(vals)
        s = np.cumsum(counts) - counts
        return c - np.repeat(c[s[counts > 0]] - vals[s[counts > 0]],
                             counts[counts > 0])

    df = t["df"].to_numpy() if t.num_rows else np.zeros(0, np.int64)
    ids = restart(values("doc_ids"), df)
    tfs = values("tfs")
    pos = values("positions")
    out = pa.table({
        "term": t["term"].take(pa.array(np.repeat(np.arange(len(df)), df))),
        "doc_id": ids,
        "tf": tfs,
        "positions": pa.ListArray.from_arrays(
            np.concatenate(([0], np.cumsum(tfs))).astype(np.int32),
            restart(pos, tfs)) if pos is not None
        else pa.nulls(ids.size, pa.list_(pa.int64())),
    })
    return out.sort_by([("term", "ascending"), ("doc_id", "ascending")])


def docs_table(index_dir: str):
    """The committed docs table, sorted by doc id."""
    import pyarrow.dataset as pads

    from solr_indexer_ray.state.manifest import BuildManifest

    m = BuildManifest(index_dir)
    t = pads.dataset([
        os.path.join(index_dir, "docs", f)
        for f in m.committed_files(m.read_stats(), "docs")]).to_table()
    return t.sort_by("doc_id").combine_chunks()


def compare_logical(a: str, b: str) -> list:
    """Descriptions of how the two indexes differ in meaning (empty:
    they index the same postings and docs)."""
    diff = []
    for name, read in (("postings", postings_table), ("docs", docs_table)):
        ta, tb = read(a), read(b)
        if ta.equals(tb):
            continue
        note = f"{name}: {ta.num_rows} rows in A, {tb.num_rows} in B"
        if ta.num_rows == tb.num_rows and ta.schema.equals(tb.schema):
            for c in ta.column_names:
                ca, cb = ta[c].combine_chunks(), tb[c].combine_chunks()
                if not ca.equals(cb):
                    row = next(i for i in range(len(ca)) if ca[i] != cb[i])
                    note += f"; first difference at row {row}, column {c}"
                    break
        diff.append(note)
    return diff


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    logical = "--logical" in argv
    argv = [x for x in argv if x != "--logical"]
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    a, b = argv
    for d in (a, b):
        if not os.path.isdir(d):
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    if logical:
        diff = compare_logical(a, b)
        for note in diff:
            print(f"DIFFERS: {note}")
        print("logically identical" if not diff
              else f"{len(diff)} parts differing")
        return 1 if diff else 0
    same, diff = compare(a, b)
    for rel in diff:
        print(f"DIFFERS: {rel}")
    print(f"{len(same)} identical, {len(diff)} differing")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
