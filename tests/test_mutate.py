"""Mutations: tombstone deletes, overlays/parent flags, upsert dedup.

These tests build their own small index (module-scoped) because they mutate
it — the session-scoped ``built_index`` stays pristine for search tests.
"""

import os
import shutil

import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine


@pytest.fixture()
def mut_index(small_corpus_path, built_index, tmp_path):
    """Copy of the session index, safe to mutate per-test."""
    src, stats = built_index
    dst = str(tmp_path / "idx")
    shutil.copytree(src, dst)
    return dst, stats


class TestDelete:
    def test_delete_by_id(self, mut_index):
        index_dir, stats = mut_index
        res = mutate.delete_by_id(index_dir, [0, 1, 10**9])
        assert res["deleted"] == [0, 1]
        assert res["missing"] == [10**9]
        eng = SearchEngine(index_dir)
        assert eng.get(0) is None
        assert eng.count() == stats["n_docs"] - 2
        # deleted docs never surface in search results
        t = eng.search("def the index", k=stats["n_docs"], fl=["doc_id"])
        assert 0 not in t["doc_id"].to_pylist()
        # idempotent
        res2 = mutate.delete_by_id(index_dir, [0])
        assert res2["already_deleted"] == [0]

    def test_existence_edges(self, mut_index):
        """Ids at or beyond ``doc_id_space`` and negative ids are missing;
        an id deleted before is reported already deleted (and counted as
        deleted again); an id whose row a compaction removed is missing."""
        index_dir, _ = mut_index
        space = SearchEngine(index_dir).doc_space
        res = mutate.delete_by_id(
            index_dir, [space - 1, space, space + 5, -1])
        assert res == {"deleted": [space - 1],
                       "missing": [-1, space, space + 5],
                       "already_deleted": []}
        res = mutate.delete_by_id(index_dir, [space - 1, 3])
        assert res == {"deleted": [3, space - 1], "missing": [],
                       "already_deleted": [space - 1]}
        mutate.compact_index(index_dir)
        res = mutate.delete_by_id(index_dir, [3, 4])
        assert res == {"deleted": [4], "missing": [3],
                       "already_deleted": []}
        assert SearchEngine(index_dir).get(4) is None

    def test_delete_by_query(self, mut_index):
        index_dir, stats = mut_index
        eng = SearchEngine(index_dir)
        n_go = len(eng.match_ids("lang:go"))
        assert n_go > 0
        res = mutate.delete_by_query(index_dir, "lang:go")
        assert res["deleted"] == n_go
        eng2 = SearchEngine(index_dir)
        assert len(eng2.match_ids("lang:go")) == 0
        assert eng2.count() == stats["n_docs"] - n_go


class TestRefreshSeesMutations:
    """A delete or an atomic update replaces ``tombstones.parquet`` or
    ``overlays.parquet`` without a new generation; a long-lived engine's
    ``refresh()`` still picks it up, and keeps its postings files."""

    def test_delete(self, mut_index):
        index_dir, _ = mut_index
        eng = SearchEngine(index_dir)
        top = eng.search("read", k=10, fl=["doc_id"])
        files = eng._postings_files
        mutate.delete_by_id(index_dir, [top["doc_id"][0].as_py()])
        assert eng.refresh()
        assert not eng.refresh()
        got = eng.search("read", k=10, fl=["doc_id"])
        assert got.equals(SearchEngine(index_dir).search(
            "read", k=10, fl=["doc_id"]))
        assert got["doc_id"].to_pylist()[:9] == top["doc_id"].to_pylist()[1:]
        assert eng.get(top["doc_id"][0].as_py()) is None
        assert eng._postings_files is files

    def test_atomic_update(self, mut_index):
        index_dir, _ = mut_index
        eng = SearchEngine(index_dir)
        assert eng.get(3)["lang"] != "cobol"
        files = eng._postings_files
        mutate.atomic_update(index_dir, [{"doc_id": 3,
                                          "lang": {"set": "cobol"}}])
        assert eng.refresh()
        assert not eng.refresh()
        assert eng.get(3)["lang"] == "cobol"
        fl = ["doc_id", "lang"]
        assert eng.search("def", k=50, fl=fl).equals(
            SearchEngine(index_dir).search("def", k=50, fl=fl))
        assert eng._postings_files is files


class TestParentFlags:
    def test_mark_parents(self, mut_index, small_corpus):
        index_dir, _ = mut_index
        repo = small_corpus["repo"][0].as_py()
        path = small_corpus["path"][0].as_py()
        res = mutate.mark_parents(
            index_dir, [(repo, path), ("nosuch/repo", "nope.py")]
        )
        assert res["flagged"] >= 1
        assert res["unresolved"] == [("nosuch/repo", "nope.py")]
        eng = SearchEngine(index_dir)
        flagged_doc = [
            d for d, o in eng._load_overlays().items()
            if o.get("isParent") is True
        ]
        row = eng.get(flagged_doc[0])
        assert row["isParent"] is True
        # second pass: already flagged, no new overlay
        res2 = mutate.mark_parents(index_dir, [(repo, path)])
        assert res2["flagged"] == 0
        assert res2["already_flagged"] >= 1


class TestAtomicUpdate:
    """Solr atomic-update verbs (Updating Parts of Documents).  The
    reference only uses ``set`` (``solrindexer/tools.py:93-103``); the
    full verb surface is what a Solr user has available."""

    def test_set_add_inc(self, mut_index):
        index_dir, _ = mut_index
        res = mutate.atomic_update(index_dir, [
            {"doc_id": 0, "status": {"set": "reviewed"},
             "views": {"inc": 3}},
            {"doc_id": 1, "tags": {"add": ["a", "b"]}},
        ])
        assert res["updated"] == [0, 1] and res["missing"] == []
        eng = SearchEngine(index_dir)
        d0 = eng.get(0)
        assert d0["status"] == "reviewed"
        assert d0["views"] == 3          # inc on absent field: 0 + 3
        assert eng.get(1)["tags"] == ["a", "b"]

    def test_verbs_compose_across_calls(self, mut_index):
        index_dir, _ = mut_index
        mutate.atomic_update(index_dir, [
            {"doc_id": 2, "views": {"inc": 5}, "tags": {"add": "x"}},
        ])
        # a fresh call must see the prior overlay as the base value
        mutate.atomic_update(index_dir, [
            {"doc_id": 2, "views": {"inc": -2},
             "tags": {"add-distinct": ["x", "y"]}},
        ])
        eng = SearchEngine(index_dir)
        d = eng.get(2)
        assert d["views"] == 3
        assert d["tags"] == ["x", "y"]   # add-distinct skipped the dup

    def test_remove_and_regex(self, mut_index):
        index_dir, _ = mut_index
        mutate.atomic_update(index_dir, [
            {"doc_id": 3, "tags": {"set": ["keep", "drop1", "drop2", "other"]}},
        ])
        mutate.atomic_update(index_dir, [
            {"doc_id": 3, "tags": {"remove": "other"}},
        ])
        mutate.atomic_update(index_dir, [
            {"doc_id": 3, "tags": {"removeregex": "drop[0-9]"}},
        ])
        eng = SearchEngine(index_dir)
        assert eng.get(3)["tags"] == ["keep"]
        # removing the last value removes the field entirely (Solr)
        mutate.atomic_update(index_dir, [
            {"doc_id": 3, "tags": {"remove": ["keep"]}},
        ])
        assert SearchEngine(index_dir).get(3)["tags"] is None

    def test_set_on_stored_field_and_null_unset(self, mut_index):
        index_dir, _ = mut_index
        eng = SearchEngine(index_dir)
        orig_lang = eng.get(4)["lang"]
        assert orig_lang is not None
        mutate.atomic_update(index_dir, [
            {"doc_id": 4, "lang": {"set": "zz"}},
        ])
        assert SearchEngine(index_dir).get(4)["lang"] == "zz"
        mutate.atomic_update(index_dir, [
            {"doc_id": 4, "lang": {"set": None}},
        ])
        assert SearchEngine(index_dir).get(4)["lang"] is None

    def test_add_promotes_scalar_stored_base(self, mut_index):
        index_dir, _ = mut_index
        eng = SearchEngine(index_dir)
        lang = eng.get(5)["lang"]
        mutate.atomic_update(index_dir, [
            {"doc_id": 5, "lang": {"add": "extra"}},
        ])
        assert SearchEngine(index_dir).get(5)["lang"] == [lang, "extra"]

    def test_inc_on_stored_numeric(self, mut_index):
        index_dir, _ = mut_index
        eng = SearchEngine(index_dir)
        dl = eng.get(6)["doclen"]
        mutate.atomic_update(index_dir, [
            {"doc_id": 6, "doclen": {"inc": 10}},
        ])
        assert SearchEngine(index_dir).get(6)["doclen"] == dl + 10

    def test_missing_and_tombstoned_skipped(self, mut_index):
        index_dir, _ = mut_index
        mutate.delete_by_id(index_dir, [7])
        res = mutate.atomic_update(index_dir, [
            {"doc_id": 7, "status": {"set": "x"}},
            {"doc_id": 10**9, "status": {"set": "x"}},
            {"doc_id": 8, "status": {"set": "ok"}},
        ])
        assert res["updated"] == [8]
        assert res["missing"] == [7, 10**9]

    def test_unknown_verb_rejected(self, mut_index):
        index_dir, _ = mut_index
        with pytest.raises(ValueError, match="unknown atomic-update verb"):
            mutate.atomic_update(index_dir, [
                {"doc_id": 0, "status": {"replace": "x"}},
            ])

    def test_inc_non_numeric_rejected(self, mut_index):
        index_dir, _ = mut_index
        with pytest.raises(TypeError, match="inc on non-numeric"):
            mutate.atomic_update(index_dir, [
                {"doc_id": 0, "lang": {"inc": 1}},
            ])


class TestUpsert:
    def test_last_write_wins(self, mut_index, small_corpus):
        index_dir, _ = mut_index
        # the synthetic corpus contains duplicate (repo, path) edge rows
        res = mutate.apply_upsert_semantics(index_dir)
        assert res["shadowed"] >= 1
        eng = SearchEngine(index_dir)
        # for every (repo,path) key only the max doc_id survives
        import pyarrow.dataset as pads

        docs = pads.dataset(os.path.join(index_dir, "docs")).to_table(
            columns=["doc_id", "repo", "path"]
        )
        latest = {}
        for d, r, p in zip(
            docs["doc_id"].to_pylist(),
            docs["repo"].to_pylist(),
            docs["path"].to_pylist(),
        ):
            latest[(r, p)] = max(latest.get((r, p), -1), d)
        for d, r, p in zip(
            docs["doc_id"].to_pylist(),
            docs["repo"].to_pylist(),
            docs["path"].to_pylist(),
        ):
            if d != latest[(r, p)]:
                assert d in eng.tombstones


class TestCompaction:
    def test_compact_removes_docs_physically(self, mut_index, small_corpus):
        import pyarrow as pa

        from solr_indexer_ray.pipelines.oracle import BruteForceBM25

        index_dir, stats = mut_index
        eng0 = SearchEngine(index_dir)
        go_ids = set(eng0.match_ids("lang:go").tolist())
        mutate.delete_by_query(index_dir, "lang:go")
        mutate.delete_by_id(index_dir, [0, 1])
        dead = go_ids | {0, 1}

        res = mutate.compact_index(index_dir)
        assert res["removed"] == len(dead)
        assert not os.path.exists(os.path.join(index_dir, "tombstones.parquet"))

        eng = SearchEngine(index_dir)
        assert eng.count() == stats["n_docs"] - len(dead)
        assert len(eng.tombstones) == 0
        for d in sorted(dead)[:5]:
            assert eng.get(d) is None
        assert len(eng.match_ids("lang:go")) == 0

        # rank-identity vs the oracle over the surviving corpus (N, avgdl,
        # df all shrank — scores must reflect the compacted statistics)
        corpus = small_corpus.append_column(
            "doc_id", pa.array(range(small_corpus.num_rows), pa.int64())
        )
        keep = [i for i in range(small_corpus.num_rows) if i not in dead]
        oracle = BruteForceBM25(corpus.take(keep))
        for q in ["def index", "parse merge", "the buffer"]:
            got = eng.search(q, k=15, fl=["doc_id"])
            expect = oracle.search(q, k=15)
            assert got["doc_id"].to_pylist() == [d for d, _ in expect], q
            assert got["score"].to_pylist() == pytest.approx(
                [s for _, s in expect]
            ), q

    def test_compact_noop_without_tombstones(self, mut_index):
        index_dir, _ = mut_index
        assert mutate.compact_index(index_dir)["removed"] == 0

    def test_compact_positional_index(self, small_corpus_path, tmp_path):
        """Spill purge on a positions index: the nested list<list<int32>>
        positions column must stay aligned with the surviving postings
        (phrase queries after compaction would read garbage otherwise)."""
        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.fsck import check_index

        idx = str(tmp_path / "pidx")
        build_index(
            small_corpus_path, idx,
            config=IndexConfig(concurrency=2, store_positions=True),
        )
        e0 = SearchEngine(idx)
        before = e0.search('"def index"', k=20, fl=["doc_id"])
        assert before.num_rows > 0
        victims = before["doc_id"].to_pylist()[:2]
        mutate.delete_by_id(idx, victims)
        res = mutate.compact_index(idx)
        assert res["removed"] == 2

        e = SearchEngine(idx)
        after = e.search('"def index"', k=20, fl=["doc_id"])
        assert set(after["doc_id"].to_pylist()) == (
            set(before["doc_id"].to_pylist()) - set(victims)
        )
        report = check_index(idx)
        assert report["ok"], report["problems"]


def _build_without_commit(monkeypatch, path, index_dir, config):
    """A build interrupted between stage 2 and its commit: every unit's
    outputs, spills included, are on disk; ``stats.json`` is not."""
    from solr_indexer_ray.state.manifest import BuildManifest

    def crash(self, stats):
        raise KeyboardInterrupt("killed before commit")

    with monkeypatch.context() as mp:
        mp.setattr(BuildManifest, "commit", crash)
        with pytest.raises(KeyboardInterrupt):
            build_index(path, index_dir, config=config)


class TestResume:
    def test_interrupted_build_resumes(self, small_corpus_path, tmp_path,
                                       monkeypatch):
        """Kill-mid-build simulation: a build killed before its commit,
        then stage-2 output + some stage-1 units destroyed; the rebuild
        must redo only the damage and produce an index identical to a
        clean build (north rule: checkpoint/resume)."""
        config = IndexConfig(docs_per_range=128, concurrency=2)
        clean = str(tmp_path / "clean")
        stats1 = build_index(small_corpus_path, clean, config=config)
        before = SearchEngine(clean).search("def index merge", k=20,
                                            fl=["doc_id"])

        index_dir = str(tmp_path / "idx")
        _build_without_commit(monkeypatch, small_corpus_path, index_dir,
                              config)
        # simulate more damage: postings gone, one unit's outputs and
        # manifest entry gone
        shutil.rmtree(os.path.join(index_dir, "postings"))
        os.remove(os.path.join(index_dir, "docs", "part-000000.parquet"))
        os.remove(os.path.join(index_dir, "_manifest", "unit-000000.json"))

        kept_unit = os.path.join(index_dir, "docs", "part-000001.parquet")
        mtime_before = os.path.getmtime(kept_unit)

        stats2 = build_index(small_corpus_path, index_dir, config=config)
        # untouched units were skipped, not recomputed
        assert os.path.getmtime(kept_unit) == mtime_before
        for key in ("n_docs", "sum_dl", "avgdl", "n_term_rows",
                    "postings_files"):
            assert stats1[key] == stats2[key], key
        assert not os.path.exists(os.path.join(index_dir, "postings_raw"))

        eng2 = SearchEngine(index_dir)
        after = eng2.search("def index merge", k=20, fl=["doc_id"])
        assert before["doc_id"].to_pylist() == after["doc_id"].to_pylist()
        assert before["score"].to_pylist() == after["score"].to_pylist()
        # a re-run of the committed build changes nothing
        assert build_index(small_corpus_path, index_dir,
                           config=config) == eng2.stats

    def test_missing_output_invalidates_unit(self, small_corpus_path, tmp_path,
                                             monkeypatch):
        """A manifest entry whose outputs vanished before the commit is
        not 'complete'; once committed, its spills are gone by design."""
        from solr_indexer_ray.state.manifest import BuildManifest

        index_dir = str(tmp_path / "idx")
        config = IndexConfig(docs_per_range=128, concurrency=2)
        _build_without_commit(monkeypatch, small_corpus_path, index_dir,
                              config)
        m = BuildManifest(index_dir)
        assert m.unit_complete(0) and m.unit_complete(1)
        # remove one of unit 0's spill files (listed in its manifest outputs)
        victim = next(
            o for o in m.read_unit(0)["outputs"] if o.startswith("postings_raw/")
        )
        os.remove(os.path.join(index_dir, victim))
        assert not m.unit_complete(0)
        assert m.unit_complete(1)

        build_index(small_corpus_path, index_dir, config=config)
        assert not os.path.exists(os.path.join(index_dir, "postings_raw"))
        assert m.unit_complete(0) and m.unit_complete(1)
        os.remove(os.path.join(index_dir, m.read_unit(1)["outputs"][0]))
        assert not m.unit_complete(1)  # its docs file


class TestBuildLock:
    """Single-writer lock (Lucene write.lock analogue): a live holder
    blocks concurrent builds; a dead holder's lock is stolen (which is
    exactly how resume-after-kill proceeds)."""

    def test_live_lock_blocks_and_stale_lock_steals(self, tmp_path):
        import subprocess

        import pyarrow.parquet as pq

        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.sources.corpus import generate_corpus
        from solr_indexer_ray.state.manifest import BuildManifest

        corpus = generate_corpus(30, seed=5, mean_tokens=15)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        idx = str(tmp_path / "idx")
        cfg = IndexConfig(docs_per_range=64)

        holder = subprocess.Popen(["sleep", "60"])
        try:
            m = BuildManifest(idx)
            m.ensure_dirs()
            with open(m.lock_path(), "w") as f:
                f.write(str(holder.pid))
            with pytest.raises(RuntimeError, match="locked by running"):
                build_index(str(tmp_path / "c.parquet"), idx, config=cfg)
        finally:
            holder.kill()
            holder.wait()
        # holder dead -> the stale lock is stolen and the build proceeds
        stats = build_index(str(tmp_path / "c.parquet"), idx, config=cfg)
        assert stats["n_docs"] == corpus.num_rows
        assert not os.path.exists(m.lock_path())  # released after commit


class TestRealKillResume:
    def test_sigkill_mid_build_then_resume(self, tmp_path):
        """A real process killed with SIGKILL mid-build leaves a partial
        checkpoint; resuming produces an index identical to a clean build
        (north rule: interrupted runs resume without recomputing completed
        segments)."""
        import signal
        import subprocess
        import sys
        import time as _time

        import pyarrow.parquet as pq

        from solr_indexer_ray.sources.corpus import generate_corpus

        corpus = generate_corpus(400, seed=21, mean_tokens=60,
                                 with_edge_rows=False)
        path = str(tmp_path / "c.parquet")
        pq.write_table(corpus, path, row_group_size=25)  # 16 units
        idx = str(tmp_path / "idx")

        script = f"""
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
build_index({path!r}, {idx!r},
            config=IndexConfig(docs_per_range=64))
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # kill as soon as some (but likely not all) units are checkpointed
        deadline = _time.time() + 120
        manifest_dir = os.path.join(idx, "_manifest")
        while _time.time() < deadline and proc.poll() is None:
            done = (
                len([f for f in os.listdir(manifest_dir)
                     if f.startswith("unit-")])
                if os.path.isdir(manifest_dir) else 0
            )
            if done >= 2:
                proc.send_signal(signal.SIGKILL)
                break
            _time.sleep(0.02)
        proc.wait()

        # resume in-process (steals the dead pid's lock) and compare with a
        # clean build on the side
        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.search import SearchEngine

        cfg = IndexConfig(docs_per_range=64)
        stats = build_index(path, idx, config=cfg)
        clean = str(tmp_path / "clean")
        stats2 = build_index(path, clean, config=cfg)
        for key in ("n_docs", "sum_dl", "avgdl", "n_term_rows"):
            assert stats[key] == stats2[key], key
        a = SearchEngine(idx).search("def index merge", k=20, fl=["doc_id"])
        b = SearchEngine(clean).search("def index merge", k=20, fl=["doc_id"])
        assert a.equals(b)
