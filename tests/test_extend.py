"""Incremental index extension: new docs merge into a committed index and
results stay rank-identical to a from-scratch build over the union."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=128, concurrency=2)


@pytest.fixture(scope="module")
def split_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("extend")
    full = generate_corpus(200, seed=11, mean_tokens=50, with_edge_rows=False)
    a, b = full.slice(0, 120), full.slice(120)
    pa_dir = str(root / "a.parquet")
    pb_dir = str(root / "b.parquet")
    pq.write_table(a, pa_dir, row_group_size=48)
    pq.write_table(b, pb_dir, row_group_size=48)
    return full, pa_dir, pb_dir, str(root)


class TestExtend:
    def test_extension_matches_full_rebuild(self, split_corpora, tmp_path):
        full, path_a, path_b, _ = split_corpora
        inc_dir = str(tmp_path / "inc")
        stats_a = build_index(path_a, inc_dir, config=CFG)
        stats_ab = extend_index(path_b, inc_dir, config=CFG)
        assert stats_ab["n_docs"] == full.num_rows
        assert stats_ab["doc_id_space"] == full.num_rows
        assert stats_ab["n_units"] > stats_a["n_units"]

        # oracle over the union — the incremental index must be
        # rank-identical to scoring the full corpus from scratch
        corpus = full.append_column(
            "doc_id", pa.array(range(full.num_rows), pa.int64())
        )
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(inc_dir)
        for q in ["def index", "parse merge buffer", "the", "lang:python def"]:
            got = eng.search(q, k=20, fl=["doc_id"])
            expect = oracle.search(q, k=20)
            assert got["doc_id"].to_pylist() == [d for d, _ in expect], q
            assert got["score"].to_pylist() == pytest.approx(
                [s for _, s in expect]
            ), q

    def test_boundary_range_remerged_old_ranges_untouched(
        self, split_corpora, tmp_path
    ):
        """The boundary range gets a new segment holding only the new
        docs; no committed file is rewritten."""
        _, path_a, path_b, _ = split_corpora
        inc_dir = str(tmp_path / "inc2")
        build_index(path_a, inc_dir, config=CFG)  # 120 docs -> range 0 open
        old = {}
        for root, _, files in os.walk(os.path.join(inc_dir, "postings")):
            for f in files:
                st = os.stat(os.path.join(root, f))
                old[os.path.join(root, f)] = (st.st_ino, st.st_mtime_ns)
        stats = extend_index(path_b, inc_dir, config=CFG)
        # 200 docs / 128 -> ranges 0 and 1 exist
        ranges = set()
        for root, _, files in os.walk(os.path.join(inc_dir, "postings")):
            for f in files:
                if f.startswith("range-"):
                    ranges.add(f)
        assert {"range-000000-seg-000001.parquet",
                "range-000000-seg-000002.parquet",
                "range-000001-seg-000002.parquet"} <= ranges
        for path, (ino, mtime) in old.items():
            st = os.stat(path)
            assert (st.st_ino, st.st_mtime_ns) == (ino, mtime), path
        assert stats["n_docs"] == 200

    def test_extend_is_idempotent(self, split_corpora, tmp_path):
        _, path_a, path_b, _ = split_corpora
        inc_dir = str(tmp_path / "inc3")
        build_index(path_a, inc_dir, config=CFG)
        s1 = extend_index(path_b, inc_dir, config=CFG)
        s2 = extend_index(path_b, inc_dir, config=CFG)  # same inputs again
        assert s2["n_docs"] == s1["n_docs"]
        assert s2["doc_id_space"] == s1["doc_id_space"]

    def test_range_partitioning_is_score_invariant(self, split_corpora, tmp_path):
        """Doc-range salting is a layout choice: the same corpus built with
        many small ranges vs one big range must return identical scores
        (the skew-handling machinery cannot perturb results)."""
        full, path_a, path_b, root = split_corpora
        import pyarrow.parquet as pq

        full_path = os.path.join(root, "full.parquet")
        if not os.path.exists(full_path):
            pq.write_table(full, full_path, row_group_size=48)

        many = str(tmp_path / "many")
        one = str(tmp_path / "one")
        build_index(full_path, many,
                    config=IndexConfig(docs_per_range=32, concurrency=2))
        build_index(full_path, one,
                    config=IndexConfig(docs_per_range=1 << 20, concurrency=2))
        em, eo = SearchEngine(many), SearchEngine(one)
        for q in ["def", "parse index merge", "the buffer", "index AND read"]:
            a = em.search(q, k=25, fl=["doc_id"])
            b = eo.search(q, k=25, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_extend_requires_committed_index(self, split_corpora, tmp_path):
        _, _, path_b, _ = split_corpora
        with pytest.raises(FileNotFoundError):
            extend_index(path_b, str(tmp_path / "nope"), config=CFG)


def test_generation_and_refresh(tmp_path, ray_session):
    """Commit generation bumps on extend/compact; SearchEngine.refresh
    reopens the searcher onto the new commit (Solr openSearcher)."""
    import pyarrow.parquet as pq

    from solr_indexer_ray.pipelines import mutate
    from solr_indexer_ray.pipelines.build import build_index, extend_index
    from solr_indexer_ray.pipelines.search import SearchEngine
    from solr_indexer_ray.sources.corpus import generate_corpus

    full = generate_corpus(120, seed=8, mean_tokens=25, with_edge_rows=False)
    pq.write_table(full.slice(0, 80), str(tmp_path / "a.parquet"),
                   row_group_size=32)
    pq.write_table(full.slice(80), str(tmp_path / "b.parquet"))
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(docs_per_range=64)
    s1 = build_index(str(tmp_path / "a.parquet"), idx, config=cfg)
    assert s1["generation"] == 1

    eng = SearchEngine(idx)
    n_before = eng.count()
    assert eng.refresh() is False  # nothing new

    s2 = extend_index(str(tmp_path / "b.parquet"), idx, config=cfg)
    assert s2["generation"] == 2
    # stale searcher still sees the old commit until refresh
    assert eng.count() == n_before
    assert eng.refresh() is True
    assert eng.count() == s2["n_docs"]
    assert eng.search("*:*", k=10**6).num_rows == s2["n_docs"]

    mutate.delete_by_id(idx, [0])
    res = mutate.compact_index(idx)
    assert res["stats"]["generation"] == 3
    assert eng.refresh() is True
    assert eng.count() == s2["n_docs"] - 1


def test_each_commit_records_its_own_run(split_corpora, tmp_path):
    """``stats.json``'s ``timings`` and ``ray_stats`` describe the commit
    that wrote it: an extend's are its own stages', a compaction's are
    its docs purge and merge, and none carries the build's over."""
    import re

    from solr_indexer_ray.pipelines.mutate import compact_index, delete_by_id

    _, path_a, path_b, _ = split_corpora
    idx = str(tmp_path / "idx")

    def job_items(stats):
        """The number of input rows of each recorded Ray Data job."""
        return {k: int(re.search(r"FromItems: \d+ tasks executed, (\d+) "
                                 r"blocks produced", v).group(1))
                for k, v in stats["ray_stats"].items()}

    built = build_index(path_a, idx, config=CFG)
    shards = built["n_shards"]
    assert set(built["timings"]) == {"stage1_s", "stage2_s", "total_s"}
    assert job_items(built) == {"stage1": 3, "stage2": shards}

    extended = extend_index(path_b, idx, config=CFG)
    assert set(extended["timings"]) == {"stage1_s", "stage2_s", "total_s"}
    assert job_items(extended) == {"stage1": 2, "stage2": shards}

    delete_by_id(idx, [0, 1])
    compacted = compact_index(idx)["stats"]
    assert set(compacted["timings"]) == {"purge_s", "stage2_s", "total_s"}
    assert job_items(compacted) == {"purge": 5, "stage2": shards}
