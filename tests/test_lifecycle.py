"""Full-lifecycle end-to-end: build -> extend -> delete -> compact ->
extend again, with oracle rank-identity after every mutation — the
batch-engine equivalent of a long-lived Solr core's life."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=64, concurrency=2)
QUERIES = ["def index", "parse merge buffer", "the", "read AND count"]


def assert_identical_to_oracle(index_dir, corpus_with_ids, keep=None):
    tbl = corpus_with_ids
    if keep is not None:
        tbl = tbl.take(sorted(keep))
    oracle = BruteForceBM25(tbl)
    eng = SearchEngine(index_dir)
    for q in QUERIES:
        got = eng.search(q, k=15, fl=["doc_id"])
        expect = oracle.search(q, k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in expect], q
        assert got["score"].to_pylist() == pytest.approx(
            [s for _, s in expect]
        ), q


def test_lifecycle(tmp_path):
    full = generate_corpus(180, seed=77, mean_tokens=40, with_edge_rows=False)
    a, b, c = full.slice(0, 80), full.slice(80, 60), full.slice(140)
    pa_path = str(tmp_path / "a.parquet")
    pb_path = str(tmp_path / "b.parquet")
    pc_path = str(tmp_path / "c.parquet")
    pq.write_table(a, pa_path, row_group_size=32)
    pq.write_table(b, pb_path, row_group_size=32)
    pq.write_table(c, pc_path, row_group_size=32)
    ids = pa.array(range(full.num_rows), pa.int64())
    corpus_ids = full.append_column("doc_id", ids)

    idx = str(tmp_path / "idx")

    # 1. initial build over A
    build_index(pa_path, idx, config=CFG)
    assert_identical_to_oracle(idx, corpus_ids, keep=range(80))

    # 2. extend with B
    extend_index(pb_path, idx, config=CFG)
    assert_identical_to_oracle(idx, corpus_ids, keep=range(140))

    # 3. delete some docs (id + query), verify with tombstones live
    mutate.delete_by_id(idx, [5, 6, 7])
    eng = SearchEngine(idx)
    go_ids = set(eng.match_ids("lang:go").tolist())
    mutate.delete_by_query(idx, "lang:go")
    dead = {5, 6, 7} | go_ids
    live = [i for i in range(140) if i not in dead]
    # With tombstones live, stats (N, avgdl, df) still include deleted docs
    # (Lucene semantics — reference relies on Solr's deleted-docs behavior
    # until merge), so we check exclusion here and full rank-identity only
    # after compaction below.
    eng = SearchEngine(idx)
    for q in QUERIES:
        got = set(eng.search(q, k=50, fl=["doc_id"])["doc_id"].to_pylist())
        assert not (got & dead), q
    # distributed path sees tombstones too
    p = search_partitioned(idx, "def index", k=10)
    s = SearchEngine(idx).search("def index", k=10, fl=["doc_id"])
    assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist()

    # 4. compact: stats shrink, scores shift to the compacted statistics
    res = mutate.compact_index(idx)
    assert res["removed"] == len(dead)
    assert_identical_to_oracle(idx, corpus_ids, keep=live)

    # 5. extend again after compaction with C
    stats = extend_index(pc_path, idx, config=CFG)
    assert stats["n_docs"] == len(live) + c.num_rows
    keep = live + list(range(140, full.num_rows))
    assert_identical_to_oracle(idx, corpus_ids, keep=keep)

    # deleted docs stay deleted across the whole lifecycle
    eng = SearchEngine(idx)
    for d in sorted(dead)[:5]:
        assert eng.get(d) is None


class TestSpillGC:
    """The raw postings spills live only until their commit: a build, an
    extend and a compact each delete them, and reads and fsck need
    none."""

    @pytest.fixture()
    def gc_index(self, small_corpus_path, tmp_path):
        idx = str(tmp_path / "gidx")
        build_index(small_corpus_path, idx, config=IndexConfig(concurrency=2))
        return idx

    def test_gc_frees_and_reads_survive(self, gc_index, tmp_path):
        import os

        from solr_indexer_ray.pipelines.fsck import check_index

        raw = os.path.join(gc_index, "postings_raw")
        assert not os.path.isdir(raw)
        eng = SearchEngine(gc_index)
        before = eng.search("def index", k=5, fl=["doc_id"]).to_pylist()
        more = str(tmp_path / "more.parquet")
        pq.write_table(generate_corpus(40, seed=77, with_edge_rows=False),
                       more)
        extend_index(more, gc_index)
        assert not os.path.isdir(raw)
        dead = [before[0]["doc_id"]]
        mutate.delete_by_id(gc_index, dead)
        assert mutate.compact_index(gc_index)["removed"] == 1
        assert not os.path.isdir(raw)
        eng2 = SearchEngine(gc_index)
        got = eng2.search("def index", k=5, fl=["doc_id"]).to_pylist()
        assert dead[0] not in [r["doc_id"] for r in got]
        report = check_index(gc_index)
        assert report["ok"], report["problems"]
