"""Index integrity checker: clean indexes pass; targeted corruptions of
every artifact class are detected."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.fsck import check_index
from solr_indexer_ray.sources.corpus import generate_corpus


def _build(tmp_path, **cfg):
    corpus = generate_corpus(80, seed=6, mean_tokens=25)
    pq.write_table(corpus, str(tmp_path / "c.parquet"), row_group_size=32)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx,
                config=IndexConfig(docs_per_range=64, **cfg))
    return idx


class TestFsck:
    def test_clean_index_ok(self, tmp_path, ray_session):
        idx = _build(tmp_path, store_positions=True)
        res = check_index(idx)
        assert res["ok"], res["problems"]
        assert res["checked"]["n_docs"] >= 80  # corpus adds edge rows
        # deletes/compaction keep the index clean
        mutate.delete_by_id(idx, [1, 2])
        assert check_index(idx)["ok"]
        mutate.compact_index(idx)
        assert check_index(idx)["ok"]

    def test_detects_stats_drift(self, tmp_path, ray_session):
        idx = _build(tmp_path)
        stats = json.load(open(os.path.join(idx, "stats.json")))
        stats["n_docs"] += 1
        json.dump(stats, open(os.path.join(idx, "stats.json"), "w"))
        res = check_index(idx)
        assert not res["ok"] and any("n_docs" in p for p in res["problems"])

    def test_detects_corrupt_postings(self, tmp_path, ray_session):
        idx = _build(tmp_path)
        # corrupt one merged postings row: truncate the doc-id stream
        import glob

        f = sorted(glob.glob(f"{idx}/postings/shard=*/range-*.parquet"))[0]
        t = pq.read_table(f)
        ids = t["doc_ids"].to_pylist()
        ids[0] = ids[0][: max(1, len(ids[0]) // 2)]
        t = t.set_column(t.schema.get_field_index("doc_ids"), "doc_ids",
                         pa.array(ids, pa.binary()))
        pq.write_table(t, f)
        res = check_index(idx)
        assert not res["ok"]
        assert any("df=" in p for p in res["problems"]), res["problems"]

    def test_detects_phantom_tombstone(self, tmp_path, ray_session):
        idx = _build(tmp_path)
        pq.write_table(
            pa.table({"doc_id": pa.array([10**6], pa.int64())}),
            os.path.join(idx, "tombstones.parquet"),
        )
        res = check_index(idx)
        assert not res["ok"] and any("unknown doc id" in p
                                     for p in res["problems"])


class TestBackupRestore:
    """Solr replication-handler backup/restore analogue."""

    def test_roundtrip(self, tmp_path, ray_session):
        from solr_indexer_ray.pipelines.mutate import (
            backup_index,
            restore_index,
        )
        from solr_indexer_ray.pipelines.search import SearchEngine

        idx = _build(tmp_path, store_positions=True)
        eng = SearchEngine(idx)
        before = eng.search("def read", k=10, fl=["doc_id"])
        res = backup_index(idx, str(tmp_path / "bak"))
        assert res["n_docs"] == eng.n_docs
        assert os.path.exists(str(tmp_path / "bak" / "backup.json"))

        res2 = restore_index(str(tmp_path / "bak"), str(tmp_path / "idx2"))
        eng2 = SearchEngine(str(tmp_path / "idx2"))
        after = eng2.search("def read", k=10, fl=["doc_id"])
        assert after.equals(before)
        assert check_index(str(tmp_path / "idx2"))["ok"]

    def test_refuses_corrupt_and_existing(self, tmp_path, ray_session):
        from solr_indexer_ray.pipelines.mutate import backup_index

        idx = _build(tmp_path)
        stats = json.load(open(os.path.join(idx, "stats.json")))
        stats["sum_dl"] += 1
        json.dump(stats, open(os.path.join(idx, "stats.json"), "w"))
        with pytest.raises(RuntimeError, match="corrupt"):
            backup_index(idx, str(tmp_path / "bak"))
        stats["sum_dl"] -= 1
        json.dump(stats, open(os.path.join(idx, "stats.json"), "w"))
        backup_index(idx, str(tmp_path / "bak"))
        with pytest.raises(FileExistsError):
            backup_index(idx, str(tmp_path / "bak"))


def test_export_matches(tmp_path, ray_session):
    """Solr /export: stream the FULL match set to partitioned parquet."""
    import pyarrow.dataset as pads

    from solr_indexer_ray.pipelines.search import SearchEngine, export_matches

    idx = _build(tmp_path)
    eng = SearchEngine(idx)
    res = export_matches(idx, "lang:python def", str(tmp_path / "out"),
                         fl=["doc_id", "path"])
    expect = set(eng.match_ids("lang:python def").tolist())
    assert res["n_docs"] == len(expect)
    got = pads.dataset(str(tmp_path / "out")).to_table()
    assert set(got["doc_id"].to_pylist()) == expect
    assert set(got.column_names) == {"doc_id", "path"}
    # fq restriction applies
    res2 = export_matches(idx, "def", str(tmp_path / "out2"),
                          fq="lang:python")
    sub = set(eng.match_ids("lang:python def").tolist())
    got2 = pads.dataset(str(tmp_path / "out2")).to_table()
    assert set(got2["doc_id"].to_pylist()) == sub and res2["n_docs"] == len(sub)
    # sorted export (Solr /export requires a sort)
    export_matches(idx, "def", str(tmp_path / "out3"),
                   fl=["doc_id", "doclen"], sort="doclen desc, doc_id asc")
    got3 = pads.dataset(str(tmp_path / "out3")).to_table()
    keys = list(zip([-x for x in got3["doclen"].to_pylist()],
                    got3["doc_id"].to_pylist()))
    assert keys == sorted(keys)


def test_export_sorts_on_a_field_fl_leaves_out(tmp_path, ray_session):
    """The sort keys are read for the sort and left out of the files:
    only ``fl`` and ``doc_id`` are written, in the sort's order."""
    import pyarrow.dataset as pads

    from solr_indexer_ray.pipelines.search import SearchEngine, export_matches

    idx = _build(tmp_path)
    eng = SearchEngine(idx)
    export_matches(idx, "def", str(tmp_path / "out"), fl=["doc_id", "path"],
                   sort="doclen desc, doc_id asc")
    got = pads.dataset(str(tmp_path / "out")).to_table()
    assert got.column_names == ["doc_id", "path"]
    docs = eng._docs_ds.to_table(columns=["doc_id", "doclen"])
    doclen = dict(zip(docs["doc_id"].to_pylist(), docs["doclen"].to_pylist()))
    want = sorted(eng.match_ids("def").tolist(),
                  key=lambda d: (-doclen[d], d))
    assert got["doc_id"].to_pylist() == want


def test_export_rejects_bad_sort_before_job(tmp_path, ray_session,
                                            monkeypatch):
    """An unknown field, a bad direction or ``score`` (the export has no
    scores) raises ``ValueError`` before the export ships its bitmap."""
    import ray

    from solr_indexer_ray.pipelines.search import export_matches

    idx = _build(tmp_path)

    def no_job(*_a, **_k):
        raise AssertionError("the export job started")

    monkeypatch.setattr(ray, "put", no_job)
    for sort, msg in (("nope asc", "unknown field"),
                      ("doclen sideways", "bad sort direction"),
                      ("doclen asc, score desc", "no scores")):
        with pytest.raises(ValueError, match=msg):
            export_matches(idx, "def", str(tmp_path / "out"), sort=sort)
    assert not os.path.exists(tmp_path / "out")
