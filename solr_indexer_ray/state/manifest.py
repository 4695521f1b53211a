"""Per-partition checkpoint manifest with lineage + metrics.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics".  The reference has **no** checkpointing (a crashed run
restarts from scratch; SURVEY.md §4) — its closest precedents are Solr's
idempotent upsert-by-id and the vocabulary disk cache
(``/root/reference/solrindexer/vocabulary.py:345-394``).

Design: one JSON file per completed build unit under
``<index>/_manifest/unit-NNNNNN.json``, written atomically (tmp + rename).
An entry records lineage (input file, row group, row counts, content
digest) and metrics (wall seconds, token counts).  Resume = skip units whose
manifest entry exists and whose outputs exist.  The final ``commit`` — the
analogue of the reference's explicit Solr hard commit
(``solrindexer/mmd.py:1303-1304``) — atomically publishes ``stats.json``,
which is what marks the index readable.  It lists the generation's docs
and postings files (Lucene's ``segments_N``); postings files are
immutable segments ``postings/shard=S/range-R-seg-G.parquet``, written
by commit G.
"""

from __future__ import annotations

import json
import os
import time


def _atomic_write_json(path: str, obj: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def segment_name(rid: int, generation: int) -> str:
    """File name of doc range ``rid``'s postings segment written by
    commit ``generation``."""
    return f"range-{rid:06d}-seg-{generation:06d}.parquet"


def segment_range(name: str) -> int:
    """Doc range of a postings file name: a segment's, or an older
    layout's ``range-R.parquet`` (rewritten in place by each commit)."""
    return int(name[6:].split("-")[0].split(".")[0])


class BuildManifest:
    """Manifest directory handle for one index build."""

    def __init__(self, index_dir: str):
        self.index_dir = os.fspath(index_dir)
        self.manifest_dir = os.path.join(self.index_dir, "_manifest")

    # -- layout ------------------------------------------------------------
    def unit_entry_path(self, unit_id: int) -> str:
        return os.path.join(self.manifest_dir, f"unit-{unit_id:06d}.json")

    @property
    def stats_path(self) -> str:
        return os.path.join(self.index_dir, "stats.json")

    def ensure_dirs(self) -> None:
        for sub in ("_manifest", "docs"):
            os.makedirs(os.path.join(self.index_dir, sub), exist_ok=True)

    # -- unit entries ------------------------------------------------------
    def unit_complete(self, unit_id: int) -> bool:
        """The unit has an entry and its outputs exist — but for its
        postings spills once a commit published it: the commit merged
        them into postings segments and deleted them.  A spill missing
        before the commit (a crash between stage 1 and the commit lost
        it) leaves the unit incomplete."""
        path = self.unit_entry_path(unit_id)
        if not os.path.exists(path):
            return False
        try:
            entry = json.load(open(path))
        except (json.JSONDecodeError, OSError):
            return False
        committed = self.is_committed() and unit_id < int(
            self.read_stats().get("n_units", 0))
        return all(
            os.path.exists(os.path.join(self.index_dir, out))
            for out in entry.get("outputs", [])
            if not (committed and out.startswith("postings_raw/"))
        )

    def read_unit(self, unit_id: int) -> dict:
        return json.load(open(self.unit_entry_path(unit_id)))

    def write_unit(self, unit_id: int, entry: dict) -> None:
        entry = dict(entry, unit_id=unit_id, written_at=time.time())
        _atomic_write_json(self.unit_entry_path(unit_id), entry)

    def read_all_units(self) -> list:
        if not os.path.isdir(self.manifest_dir):
            return []
        out = []
        for name in sorted(os.listdir(self.manifest_dir)):
            if name.startswith("unit-") and name.endswith(".json"):
                try:
                    out.append(json.load(open(os.path.join(self.manifest_dir, name))))
                except (json.JSONDecodeError, OSError):
                    continue
        return out

    # -- publish / status --------------------------------------------------
    def commit(self, stats: dict) -> None:
        """Atomic publish: the index is readable iff stats.json exists."""
        _atomic_write_json(self.stats_path, dict(stats, committed_at=time.time()))

    def is_committed(self) -> bool:
        """Reference analogue: ``ping`` (``solrindexer/mmd.py:1289-1300``)."""
        return os.path.exists(self.stats_path)

    def read_stats(self) -> dict:
        return json.load(open(self.stats_path))

    def committed_files(self, stats: dict, sub: str) -> list:
        """The files under ``sub`` (``"docs"`` or ``"postings"``) of the
        generation ``stats`` describe, relative to ``sub``: the list its
        commit recorded (``<sub>_files``; stage 1 and stage 2 write the
        next generation's files beside them before its commit), or, for
        an index committed before commits recorded one, every parquet
        file there."""
        if f"{sub}_files" in stats:
            return list(stats[f"{sub}_files"])
        root = os.path.join(self.index_dir, sub)
        out = []
        for d, dirs, files in os.walk(root):
            dirs.sort()
            out += [os.path.relpath(os.path.join(d, f), root)
                    for f in sorted(files) if f.endswith(".parquet")]
        return out

    def committed_paths(self, sub: str, stats: dict | None = None) -> list:
        """:meth:`committed_files` joined into paths (``stats``: the
        committed ``stats.json`` when None) — what every reader of
        ``sub`` opens, never the directory, which can hold an uncommitted
        or crashed commit's files."""
        stats = self.read_stats() if stats is None else stats
        return [os.path.join(self.index_dir, sub, f)
                for f in self.committed_files(stats, sub)]

    # ------------------------------------------------------------------ #
    # build lock (one writer per index dir)
    # ------------------------------------------------------------------ #
    def lock_path(self) -> str:
        return os.path.join(self.index_dir, ".build_lock")

    def acquire_lock(self) -> None:
        """O_EXCL pid lock: exactly one build/extend/compact may write an
        index dir at a time (Solr analogue: the core's single writer —
        Lucene's write.lock).  A lock whose pid is dead is stale from a
        killed run and is taken over (that is also how resume-after-kill
        proceeds, tested in TestResume)."""
        os.makedirs(self.index_dir, exist_ok=True)
        path = self.lock_path()
        pid = os.getpid()
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(pid).encode())
                os.close(fd)
                return
            except FileExistsError:
                try:
                    holder = int(open(path).read().strip() or 0)
                except (OSError, ValueError):
                    holder = 0
                if holder and _pid_alive(holder) and holder != pid:
                    raise RuntimeError(
                        f"index {self.index_dir} is locked by running "
                        f"build pid {holder}"
                    )
                # stale (dead pid) -> steal
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass

    def release_lock(self) -> None:
        try:
            os.unlink(self.lock_path())
        except FileNotFoundError:
            pass

    def status(self) -> dict:
        """Index health summary (reference: ``get_status``,
        ``solrindexer/mmd.py:1306-1332``)."""
        units = self.read_all_units()
        stats = self.read_stats() if self.is_committed() else {}
        return {
            "committed": self.is_committed(),
            "generation": stats.get("generation", 1) if stats else None,
            "units_complete": len(units),
            "n_docs": stats.get("n_docs"),
            "n_term_rows": stats.get("n_term_rows"),
            "avgdl": stats.get("avgdl"),
            "wall_s_total": round(
                sum(u.get("metrics", {}).get("wall_s", 0.0) for u in units), 3
            ),
        }
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
