"""Index integrity checker — the ``fsck`` of the engine.

Reference analogue: Solr's CheckIndex/ping+status discipline (the reference
pings the core and checks doc counts before indexing,
``/root/reference/solrindexer/cli.py:108-110``, ``indexer.py get_status``).
Here the on-disk artifacts are plain parquet, so every structural invariant
the build relies on is machine-checkable:

- stats.json consistent with the docs table (N, sum_dl, doc_id_space);
- doc ids unique, dense within units, inside [0, doc_id_space);
- every postings row of the committed segments: strictly-increasing doc
  ids within its doc range,
  df == decoded length == tf count, cf == sum(tfs);
- positions stream decodes to exactly sum(tfs) values, each segment
  strictly increasing and non-negative (positional indexes);
- tombstones/overlays reference existing doc ids.

Shards are verified in parallel (one Ray task per shard — the same unit of
parallelism the build uses), so the check scales with the index.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from solr_indexer_ray.functions.varint import (
    decode_doc_ids,
    decode_positions,
    varint_decode,
)
from solr_indexer_ray.state.manifest import BuildManifest


def _check_files(index_dir: str, files, dpr: int,
                 store_positions: bool) -> list:
    """Verify postings ``files`` (relative to ``postings/``); returns a
    list of problem strings."""
    problems = []
    for loc in files:
        cols = ["term", "range_id", "df", "cf", "doc_ids", "tfs"]
        if store_positions:
            cols.append("positions")
        t = pq.read_table(os.path.join(index_dir, "postings", loc),
                          columns=cols)
        for i in range(t.num_rows):
            term = t["term"][i].as_py()
            rid = t["range_id"][i].as_py()
            ids = decode_doc_ids(t["doc_ids"][i].as_py())
            tfs = varint_decode(t["tfs"][i].as_py()).astype(np.int64)
            df = t["df"][i].as_py()
            tag = f"{loc} term={term!r} range={rid}"
            if len(ids) != df or len(tfs) != df:
                problems.append(f"{tag}: df={df} but decoded {len(ids)} ids")
                continue
            if ids.size and not (np.diff(ids) > 0).all():
                problems.append(f"{tag}: doc ids not strictly increasing")
            if ids.size and (
                ids[0] < rid * dpr or ids[-1] >= (rid + 1) * dpr
            ):
                problems.append(f"{tag}: doc ids outside range window")
            if int(tfs.sum()) != t["cf"][i].as_py():
                problems.append(f"{tag}: cf != sum(tfs)")
            if (tfs <= 0).any():
                problems.append(f"{tag}: non-positive tf")
            if store_positions:
                buf = t["positions"][i].as_py()
                if buf is None:
                    problems.append(f"{tag}: positions missing")
                else:
                    flat, offs = decode_positions(buf, tfs)
                    if flat.size != int(tfs.sum()):
                        problems.append(
                            f"{tag}: positions length != sum(tfs)"
                        )
                    elif flat.size and flat.min() < 0:
                        problems.append(f"{tag}: negative position")
                    else:
                        for j in range(df):
                            seg = flat[offs[j]:offs[j + 1]]
                            if seg.size > 1 and not (np.diff(seg) > 0).all():
                                problems.append(
                                    f"{tag}: positions not increasing"
                                )
                                break
    return problems


def check_index(index_dir: str) -> dict:
    """Full integrity check; returns {'ok': bool, 'problems': [...],
    'checked': {...counts...}}."""
    import ray.data as rd

    manifest = BuildManifest(index_dir)
    problems: list = []
    if not manifest.is_committed():
        return {"ok": False, "problems": ["index not committed"],
                "checked": {}}
    stats = manifest.read_stats()
    dpr = int(stats["docs_per_range"])
    store_pos = bool(stats.get("store_positions", False))

    # docs table vs stats
    docs = pads.dataset(manifest.committed_paths("docs", stats))
    t = docs.to_table(columns=["doc_id", "doclen"])
    ids = t["doc_id"].to_numpy()
    if len(np.unique(ids)) != len(ids):
        problems.append("docs: duplicate doc ids")
    if len(ids) != int(stats["n_docs"]):
        problems.append(
            f"docs: {len(ids)} rows != stats n_docs {stats['n_docs']}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= int(stats["doc_id_space"])):
        problems.append("docs: doc id outside doc_id_space")
    sum_dl = int(pc.sum(t["doclen"]).as_py() or 0)
    if sum_dl != int(stats["sum_dl"]):
        problems.append(f"docs: sum(doclen)={sum_dl} != stats {stats['sum_dl']}")

    # the committed postings files, shards in parallel (one task per
    # shard)
    n_shards = int(stats["n_shards"])
    files = manifest.committed_files(stats, "postings")

    def run(batch):
        import pyarrow as pa

        out = []
        for s in batch["shard"]:
            out.extend(_check_files(
                index_dir, [f for f in files if f.startswith(f"shard={s}/")],
                dpr, store_pos))
        return pa.table({"problem": pa.array(out, pa.string())})

    rows = (
        rd.from_items([{"shard": s} for s in range(n_shards)])
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    problems.extend(r["problem"] for r in rows)

    # global df per term == docs containing it (spot constraint: sum of df
    # column == total postings rows' lengths is already per-row checked;
    # here: n_term_rows bookkeeping)
    n_term_rows = sum(
        pq.ParquetFile(os.path.join(index_dir, "postings", f)).metadata
        .num_rows for f in files)
    if n_term_rows != int(stats["n_term_rows"]):
        problems.append(
            f"postings: {n_term_rows} rows != stats n_term_rows "
            f"{stats['n_term_rows']}"
        )

    # tombstones / overlays reference real docs
    id_set = None
    for name, col in (("tombstones.parquet", "doc_id"),
                      ("overlays.parquet", "doc_id")):
        path = os.path.join(index_dir, name)
        if os.path.exists(path):
            if id_set is None:
                id_set = set(ids.tolist())
            for d in set(pq.read_table(path, columns=[col])[col].to_pylist()):
                if d not in id_set:
                    problems.append(f"{name}: unknown doc id {d}")
    return {
        "ok": not problems,
        "problems": problems,
        "checked": {
            "n_docs": int(len(ids)),
            "n_term_rows": int(n_term_rows),
            "n_shards": n_shards,
            "positions": store_pos,
        },
    }
