"""Index mutations: deletes, atomic partial updates, upsert semantics.

Reference analogues:

- delete by id / by query: ``/root/reference/solrindexer/mmd.py:1507-1522``,
  ``solrindexer/search.py:306-328`` — Solr deletes matching docs.  A batch
  engine can't cheaply rewrite immutable postings, so deletes are
  **tombstones**: a small ``tombstones.parquet`` table of doc ids that every
  read path (search, get, count) anti-joins against.  Compaction =
  merging every doc range's postings segments without the dead docs.
- atomic partial update (``set_parent_flag`` ``solrindexer/tools.py:93-103``):
  an **overlay** table ``overlays.parquet`` of (doc_id, column, value)
  merged over stored fields at read time — read-modify-write of a column
  without touching the base parquet.
- parent/child integrity pass (``solrindexer/cli.py:360-394``,
  ``solrindexer/tools.py:106-136`` resolve_parent_ids): collect the distinct
  referenced parent ids (small), semi-join them against the docs table
  (broadcast — the set is tiny relative to the corpus), flag found parents,
  report missing ones as unresolved warnings.
- upsert-by-key (Solr uniqueKey semantics — re-indexing a file replaces the
  doc): last-write-wins dedup by ``(repo, path)``; shadowed older rows are
  tombstoned.  "Latest" = highest doc_id, i.e. latest position in the
  deterministic input order.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from solr_indexer_ray.pipelines.search import SearchEngine, read_tombstones
from solr_indexer_ray.state.manifest import BuildManifest

TOMBSTONES = "tombstones.parquet"
OVERLAYS = "overlays.parquet"


def _write_tombstones(index_dir: str, ids: set) -> None:
    path = os.path.join(index_dir, TOMBSTONES)
    table = pa.table({"doc_id": pa.array(sorted(ids), pa.int64())})
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _existing_ids(index_dir: str, requested: set) -> set:
    """The requested ids that have a docs row: below ``stats.json``'s
    ``doc_id_space`` and present in a docs file's ``doc_id`` column (an
    invalid row has no docs row; a compaction drops rows).  Reads only
    that column, of the row groups whose footer min/max can hold a
    requested id."""
    manifest = BuildManifest(index_dir)
    if not manifest.is_committed():
        raise FileNotFoundError(f"index at {index_dir} is not committed")
    stats = manifest.read_stats()
    space = int(stats.get("doc_id_space", stats["n_docs"]))
    wanted = np.array(sorted(d for d in requested if 0 <= d < space),
                      dtype=np.int64)
    found: set = set()
    paths = manifest.committed_paths("docs", stats) if wanted.size else []
    for path in paths:
        pf = pq.ParquetFile(path)
        col = pf.schema_arrow.get_field_index("doc_id")
        for g in range(pf.num_row_groups):
            st = pf.metadata.row_group(g).column(col).statistics
            sel = wanted
            if st is not None and st.has_min_max:
                sel = wanted[(wanted >= st.min) & (wanted <= st.max)]
            if sel.size:
                ids = pf.read_row_group(g, columns=["doc_id"])["doc_id"]
                found.update(np.intersect1d(ids.to_numpy(), sel).tolist())
    return found


def delete_by_id(index_dir: str, doc_ids) -> dict:
    """Tombstone docs by id; reports which ids did not exist.

    Reference: existence check before delete (``solrindexer/mmd.py:1459-1468``).
    """
    requested = set(int(d) for d in doc_ids)
    existing = _existing_ids(index_dir, requested)
    missing = sorted(requested - existing)
    tombs = read_tombstones(index_dir)
    already = sorted(existing & tombs)
    tombs |= existing
    _write_tombstones(index_dir, tombs)
    return {
        "deleted": sorted(existing),
        "missing": missing,
        "already_deleted": already,
    }


def delete_by_query(index_dir: str, query: str) -> dict:
    """Search-then-delete (reference: ``solrindexer/search.py:306-328``)."""
    engine = SearchEngine(index_dir)
    ids = engine.match_ids(query)
    tombs = read_tombstones(index_dir)
    tombs |= set(int(i) for i in ids)
    _write_tombstones(index_dir, tombs)
    return {"query": query, "deleted": int(ids.size)}


# --------------------------------------------------------------------- #
# overlays (atomic partial update)
# --------------------------------------------------------------------- #
def apply_overlay(index_dir: str, updates) -> None:
    """Append (doc_id, column, value) overlay rows; values JSON-encoded.

    Reference analogue: Solr atomic update ``{"field": {"set": v}}``
    (``solrindexer/tools.py:93-103``).
    """
    path = os.path.join(index_dir, OVERLAYS)
    rows = [
        {
            "doc_id": int(u["doc_id"]),
            "column": str(u["column"]),
            "value": json.dumps(u["value"]),
        }
        for u in updates
    ]
    new = pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("doc_id", pa.int64()), ("column", pa.string()), ("value", pa.string())]
        ),
    )
    if os.path.exists(path):
        new = pa.concat_tables([pq.read_table(path), new])
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(new, tmp)
    os.replace(tmp, path)


#: Solr atomic-update verbs (Updating Parts of Documents).  The reference
#: only ever uses ``set`` (``solrindexer/tools.py:93-103`` set_parent_flag);
#: the rest complete the Solr surface a reference user has available.
ATOMIC_VERBS = ("set", "add", "add-distinct", "remove", "removeregex", "inc")


def _as_list(v):
    if v is None:
        return []
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _apply_verb(verb: str, base, operand):
    """One Solr atomic-update verb against the current effective value.

    Semantics follow Solr's "Updating Parts of Documents":
    - ``set``: replace (``null`` removes the field);
    - ``add`` / ``add-distinct``: append to a multivalued field (a scalar
      base is promoted to a one-element list first);
    - ``remove``: drop every occurrence of the operand value(s); an
      emptied field is removed (``None``);
    - ``removeregex``: drop values fully matching any of the operand
      regexes;
    - ``inc``: numeric increment (an absent field counts as 0).
    """
    import re as _re

    if verb == "set":
        return operand
    if verb == "inc":
        cur = 0 if base is None else base
        if not isinstance(cur, (int, float)) or isinstance(cur, bool):
            raise TypeError(f"inc on non-numeric value {cur!r}")
        new = cur + operand
        # int+int stays int (Solr pint/plong semantics)
        return int(new) if isinstance(cur, int) and isinstance(operand, int) else new
    values = _as_list(base)
    if verb == "add":
        return values + _as_list(operand)
    if verb == "add-distinct":
        out = list(values)
        for v in _as_list(operand):
            if v not in out:
                out.append(v)
        return out
    if verb == "remove":
        drop = set(map(str, _as_list(operand)))
        out = [v for v in values if str(v) not in drop]
        return out if out else None
    if verb == "removeregex":
        pats = [_re.compile(p) for p in _as_list(operand)]
        out = [v for v in values if not any(p.fullmatch(str(v)) for p in pats)]
        return out if out else None
    raise ValueError(f"unknown atomic-update verb {verb!r} "
                     f"(supported: {ATOMIC_VERBS})")


def atomic_update(index_dir: str, updates) -> dict:
    """Solr atomic partial updates with the full verb set.

    ``updates``: Solr JSON-update shape — each item is
    ``{"doc_id": id, "<field>": {"<verb>": operand}, ...}`` (verbs in
    :data:`ATOMIC_VERBS`; several fields per item, several verbs per
    field applied in given order).  Like Solr, the update is
    read-apply-reindex: the current effective value (stored field merged
    with prior overlays) is read, the verb applied, and the result
    written as a ``set`` overlay.  Docs that don't exist (or are
    tombstoned) are reported in ``missing`` and skipped — the
    reference's warn-don't-create contract for absent update targets
    (``solrindexer/mmd.py:1544-1555``).
    """
    engine = SearchEngine(index_dir)
    parsed = []
    for u in updates:
        u = dict(u)
        did = int(u.pop("doc_id"))
        fields = {}
        for fld, verbs in u.items():
            if not isinstance(verbs, dict):
                verbs = {"set": verbs}  # bare value = set (convenience)
            for verb in verbs:
                if verb not in ATOMIC_VERBS:
                    raise ValueError(
                        f"unknown atomic-update verb {verb!r} for field "
                        f"{fld!r} (supported: {ATOMIC_VERBS})")
            fields[fld] = verbs
        parsed.append((did, fields))

    present = engine.present
    tombs = engine.tombstones
    requested = sorted({d for d, _ in parsed})
    existing = {d for d in requested
                if 0 <= d < engine.doc_space and present[d] and d not in tombs}
    missing = sorted(set(requested) - existing)

    # one batched stored-field read for every (existing doc, stored field)
    stored_needed = sorted(
        {f for did, fields in parsed if did in existing for f in fields}
        & set(engine.stored_fields)
    )
    base_rows: dict = {d: {} for d in existing}
    if stored_needed and existing:
        t = engine._matched_rows(sorted(existing), ["doc_id", *stored_needed])
        for row in t.to_pylist():
            base_rows[row["doc_id"]] = row
    overlays = engine._load_overlays()

    new_overlays = []
    updated = []
    for did, fields in parsed:
        if did not in existing:
            continue
        doc_over = overlays.get(did, {})
        for fld, verbs in fields.items():
            if fld in doc_over:          # prior overlay wins over stored
                cur = doc_over[fld]
            else:
                cur = base_rows.get(did, {}).get(fld)
            for verb, operand in verbs.items():
                cur = _apply_verb(verb, cur, operand)
            doc_over = {**doc_over, fld: cur}
            new_overlays.append({"doc_id": did, "column": fld, "value": cur})
        overlays[did] = doc_over         # later updates in this call compose
        updated.append(did)
    if new_overlays:
        apply_overlay(index_dir, new_overlays)
    return {"updated": sorted(set(updated)), "missing": missing}


def mark_parents(index_dir: str, parent_keys) -> dict:
    """Parent/child integrity pass (reference J2/J3).

    ``parent_keys``: iterable of (repo, path) keys referenced by children
    (the reference collects referenced parent ids during the run and
    resolves them afterwards, ``solrindexer/cli.py:360-394``).  The distinct
    key set is small -> broadcast semi-join against the docs table; found
    parents get an ``isParent=true`` overlay (skipped if already flagged),
    missing ones are returned as unresolved warnings
    (``solrindexer/mmd.py:1544-1555`` warn contract).
    """
    keys = sorted(set((r, p) for r, p in parent_keys))
    docs = pads.dataset(BuildManifest(index_dir).committed_paths("docs"))
    expr = None
    for r, p in keys:
        e = (pc.field("repo") == r) & (pc.field("path") == p)
        expr = e if expr is None else expr | e
    found_tbl = (
        docs.to_table(columns=["doc_id", "repo", "path"], filter=expr)
        if expr is not None
        else pa.table({"doc_id": [], "repo": [], "path": []})
    )
    found_keys = set(
        zip(found_tbl["repo"].to_pylist(), found_tbl["path"].to_pylist())
    )
    missing = [k for k in keys if k not in found_keys]

    engine = SearchEngine(index_dir)
    overlays = engine._load_overlays()
    updates = []
    already = 0
    for did in set(found_tbl["doc_id"].to_pylist()):
        if overlays.get(did, {}).get("isParent") is True:
            already += 1
            continue
        updates.append({"doc_id": did, "column": "isParent", "value": True})
    if updates:
        apply_overlay(index_dir, updates)
    return {
        "flagged": len(updates),
        "already_flagged": already,
        "unresolved": missing,
    }


# --------------------------------------------------------------------- #
# compaction
# --------------------------------------------------------------------- #
def compact_index(index_dir: str) -> dict:
    """Physically remove tombstoned docs (reference analogue: Solr deletes
    become physical at segment merge; this is Lucene's ``forceMerge``
    expunging deletes).  Rewrites the affected docs parts, merges every
    doc range's postings segments into one new segment without the dead
    docs' postings (:func:`~solr_indexer_ray.pipelines.build.merge_segments`),
    recomputes stats, clears tombstones and dead overlays.  Doc ids keep
    their slots (gaps are fine — the engine addresses by
    ``doc_id_space``); work is proportional to the index, which is what
    compaction means.
    """
    manifest = BuildManifest(index_dir)
    manifest.acquire_lock()  # single writer (same lock as build/extend)
    try:
        return _compact_locked(index_dir, manifest)
    finally:
        manifest.release_lock()


def _compact_locked(index_dir: str, manifest) -> dict:
    import ray.data as rd

    from solr_indexer_ray.pipelines.build import (
        _publish,
        _run_record,
        _run_stage2,
    )

    stats = manifest.read_stats()
    tombs = read_tombstones(index_dir)
    if not tombs:
        return {"removed": 0, "stats": stats}
    t0 = time.perf_counter()
    dead = np.fromiter(tombs, dtype=np.int64)

    # 1. rewrite docs parts dropping dead rows (parallel over part files)
    doc_files = manifest.committed_paths("docs", stats)

    def purge_docs(batch: dict) -> pa.Table:
        fsums: dict = {}
        removed = 0
        kept_docs = 0
        kept_dl = 0
        for path in batch["path"]:
            t = pq.read_table(str(path))
            keep = ~np.isin(t["doc_id"].to_numpy(), dead)
            if not keep.all():
                t = t.filter(pa.array(keep))
                tmp = f"{path}.tmp.{os.getpid()}"
                pq.write_table(t, tmp)
                os.replace(tmp, str(path))
                removed += int((~keep).sum())
            kept_docs += t.num_rows
            kept_dl += int(pc.sum(t["doclen"]).as_py() or 0)
            for f in afields:  # per-analyzed-field stats follow the purge
                col = t[f"doclen_{f}"]
                acc = fsums.setdefault(f, [0, 0])
                acc[0] += int(pc.sum(col).as_py() or 0)
                acc[1] += int(
                    pc.sum(pc.greater(col, 0).cast(pa.int64())).as_py() or 0
                )
        import json as _json

        return pa.table(
            {
                "removed": pa.array([removed], pa.int64()),
                "kept_docs": pa.array([kept_docs], pa.int64()),
                "kept_dl": pa.array([kept_dl], pa.int64()),
                "field_sums_json": pa.array(
                    [_json.dumps(fsums)], pa.string()
                ),
            }
        )

    afields = [
        s.split(":", 1)[0] for s in stats.get("analyzed_fields") or []
    ]
    purge = rd.from_items([{"path": p} for p in doc_files]).map_batches(
        purge_docs, batch_size=1, batch_format="numpy", num_cpus=1)
    res = purge.take_all()
    t1 = time.perf_counter()
    removed = sum(r["removed"] for r in res)
    n_docs = sum(r["kept_docs"] for r in res)
    sum_dl = sum(r["kept_dl"] for r in res)
    field_stats: dict = {}
    for r in res:
        for f, (sdl, nd) in json.loads(
            r.get("field_sums_json") or "{}"
        ).items():
            acc = field_stats.setdefault(f, {"sum_dl": 0, "n_docs": 0})
            acc["sum_dl"] += int(sdl)
            acc["n_docs"] += int(nd)
    for f, acc in field_stats.items():
        acc["avgdl"] = (
            acc["sum_dl"] / acc["n_docs"] if acc["n_docs"] else 0.0
        )

    # 2. merge every range's segments, dropping the dead docs' postings
    mask = np.zeros(int(stats.get("doc_id_space", stats["n_docs"])), bool)
    mask[dead] = True
    committed = manifest.committed_files(stats, "postings")
    generation = int(stats.get("generation", 1)) + 1
    merged, stage2 = _run_stage2(
        index_dir, int(stats["n_shards"]), units=range(0),
        generation=generation, committed=committed, dead=mask,
        compression=str(stats.get("compression", "zstd")),
    )
    t2 = time.perf_counter()

    # 3. drop dead overlays, clear tombstones, commit new stats
    overlays_path = os.path.join(index_dir, OVERLAYS)
    if os.path.exists(overlays_path):
        t = pq.read_table(overlays_path)
        keep = ~np.isin(t["doc_id"].to_numpy(), dead)
        if not keep.all():
            tmp = f"{overlays_path}.tmp.{os.getpid()}"
            pq.write_table(t.filter(pa.array(keep)), tmp)
            os.replace(tmp, overlays_path)
    tomb_path = os.path.join(index_dir, TOMBSTONES)
    if os.path.exists(tomb_path):
        os.remove(tomb_path)

    new_stats = dict(
        stats,
        generation=generation,
        n_docs=int(n_docs),
        sum_dl=int(sum_dl),
        avgdl=(float(sum_dl) / n_docs) if n_docs else 0.0,
        field_stats=field_stats or stats.get("field_stats", {}),
        **_run_record(
            {"purge_s": t1 - t0, "stage2_s": t2 - t1, "total_s": t2 - t0},
            {"purge": purge.stats(), "stage2": stage2}),
    )
    return {"removed": int(removed),
            "stats": _publish(manifest, new_stats, committed, merged)}


# --------------------------------------------------------------------- #
# upsert semantics
# --------------------------------------------------------------------- #
def apply_upsert_semantics(index_dir: str, key_cols=("repo", "path")) -> dict:
    """Last-write-wins dedup by key: tombstone all but the max-doc_id row
    per key (Solr uniqueKey upsert semantics, SURVEY.md §2.8).

    Runs as a Ray Data grouped aggregate over the docs table — the same
    hash-shuffle machinery an engine-level dedup uses at scale.
    """
    import ray.data as rd

    docs = rd.read_parquet(
        BuildManifest(index_dir).committed_paths("docs"),
        columns=[*key_cols, "doc_id"],
    )

    def shadowed(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy()
        keep = ids.max()
        dead = ids[ids != keep]
        return pa.table({"doc_id": pa.array(np.sort(dead), pa.int64())})

    dead = docs.groupby(list(key_cols)).map_groups(
        shadowed, batch_format="pyarrow"
    )
    dead_ids = set(
        int(i) for b in dead.iter_batches(batch_format="pyarrow")
        for i in b["doc_id"].to_pylist()
    )
    tombs = read_tombstones(index_dir)
    _write_tombstones(index_dir, tombs | dead_ids)
    return {"shadowed": len(dead_ids)}
# --------------------------------------------------------------------- #
# backup / restore (Solr replication-handler backup analogue)
# --------------------------------------------------------------------- #
def backup_index(index_dir: str, dest: str, verify: bool = True) -> dict:
    """Consistent snapshot of a committed index (Solr: replication handler
    ``command=backup``).  Takes the build lock (no writer mutates files
    mid-copy), optionally fsck-verifies first, copies atomically into
    ``dest`` (tmp dir + rename), and stamps a backup manifest."""
    import shutil

    manifest = BuildManifest(index_dir)
    if not manifest.is_committed():
        raise FileNotFoundError(f"no committed index at {index_dir}")
    manifest.acquire_lock()
    try:
        if verify:
            from solr_indexer_ray.pipelines.fsck import check_index

            res = check_index(index_dir)
            if not res["ok"]:
                raise RuntimeError(
                    f"refusing to back up a corrupt index: {res['problems'][:3]}"
                )
        dest = os.fspath(dest)
        if os.path.exists(dest):
            raise FileExistsError(f"backup destination exists: {dest}")
        tmp = f"{dest}.tmp.{os.getpid()}"
        shutil.copytree(
            index_dir, tmp,
            ignore=shutil.ignore_patterns(".build_lock", "*.tmp.*"),
        )
        stats = manifest.read_stats()
        with open(os.path.join(tmp, "backup.json"), "w") as f:
            json.dump(
                {"source": os.path.abspath(index_dir),
                 "n_docs": stats["n_docs"],
                 "taken_at": time.time()}, f,
            )
        os.replace(tmp, dest)
        return {"dest": dest, "n_docs": int(stats["n_docs"])}
    finally:
        manifest.release_lock()


def restore_index(backup_dir: str, index_dir: str,
                  overwrite: bool = False) -> dict:
    """Restore a backup into ``index_dir`` (Solr ``command=restore``)."""
    import shutil

    if not os.path.exists(os.path.join(backup_dir, "stats.json")):
        raise FileNotFoundError(f"{backup_dir} is not an index backup")
    if os.path.exists(index_dir):
        if not overwrite:
            raise FileExistsError(f"{index_dir} exists (use overwrite)")
        shutil.rmtree(index_dir)
    tmp = f"{os.fspath(index_dir)}.tmp.{os.getpid()}"
    shutil.copytree(backup_dir, tmp)
    for junk in ("backup.json",):
        p = os.path.join(tmp, junk)
        if os.path.exists(p):
            os.unlink(p)
    os.replace(tmp, index_dir)
    stats = BuildManifest(index_dir).read_stats()
    return {"index": os.fspath(index_dir), "n_docs": int(stats["n_docs"])}
