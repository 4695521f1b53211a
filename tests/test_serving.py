"""SearchService — the resident serving pool (pipelines/serving.py).

Results must be bit-identical to a local SearchEngine; the pool is
round-robin over persistent actors (the steady-state shape bench.py's
``dist_warm_qps`` row measures)."""

import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.pipelines.search import search_partitioned
from solr_indexer_ray.pipelines.serving import (
    PartitionedSearchService,
    SearchService,
)
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def serve_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("serveidx")
    corpus = generate_corpus(150, seed=13, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=64,
                                   store_positions=True,
                                   store_bigrams=True))
    return str(d / "idx")


QUERIES = [
    "parse read", "def AND merge", 'lang:python sort^2', "-join stream",
    '"def read"', "pars*", "merg~1", "(read OR parse) AND sort",
    "doclen:[30 TO 200] read",
]


class TestSearchService:
    def test_identical_to_local_engine(self, serve_index):
        eng = SearchEngine(serve_index)
        with SearchService(serve_index, pool=3) as svc:
            got = svc.search_many(QUERIES, k=10, fl=["doc_id"])
            for q, t in zip(QUERIES, got):
                ref = eng.search(q, k=10, fl=["doc_id"])
                assert t["doc_id"].to_pylist() == \
                    ref["doc_id"].to_pylist(), q
                assert t["score"].to_pylist() == \
                    ref["score"].to_pylist(), q

    def test_single_query_and_kwargs(self, serve_index):
        eng = SearchEngine(serve_index)
        with SearchService(serve_index, pool=2) as svc:
            t = svc.search("parse read", k=5, fl=["doc_id"],
                           fq=["lang:python"])
            ref = eng.search("parse read", k=5, fl=["doc_id"],
                             fq=["lang:python"])
            assert t["doc_id"].to_pylist() == ref["doc_id"].to_pylist()
            assert t["score"].to_pylist() == ref["score"].to_pylist()

    def test_order_preserved_across_chunks(self, serve_index):
        # chunk=2 over 9 queries across 3 actors: reassembly must keep
        # input order
        with SearchService(serve_index, pool=3) as svc:
            got = svc.search_many(QUERIES, k=3, fl=["doc_id"], chunk=2)
            assert len(got) == len(QUERIES)
            eng = SearchEngine(serve_index)
            for q, t in zip(QUERIES, got):
                assert t["doc_id"].to_pylist() == eng.search(
                    q, k=3, fl=["doc_id"]
                )["doc_id"].to_pylist(), q

    def test_closed_service_raises(self, serve_index):
        svc = SearchService(serve_index, pool=1)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.search("read")
        svc.close()  # idempotent


class TestPartitionedSearchService:
    """Resident range engines: each actor owns a FIXED range subset;
    results must be bit-identical to search_partitioned (which is itself
    bit-identical to the single engine)."""

    def test_identical_to_partitioned(self, serve_index):
        with PartitionedSearchService(serve_index, pool=2) as svc:
            for q in QUERIES:
                a = svc.search(q, k=10)
                b = search_partitioned(serve_index, q, k=10)
                assert a["doc_id"].to_pylist() == \
                    b["doc_id"].to_pylist(), q
                assert a["score"].to_pylist() == \
                    b["score"].to_pylist(), q

    def test_fq_and_zero_and_fallback(self, serve_index):
        with PartitionedSearchService(serve_index, pool=2) as svc:
            # every range engine applies the fq
            a = svc.search("parse read", k=10, fq=["lang:python"])
            b = search_partitioned(serve_index, "parse read", k=10,
                                   fq=["lang:python"])
            assert a.to_pylist() == b.to_pylist()
            # conjunction with a missing term -> provably zero
            assert svc.search("zzqqnotaterm AND read").num_rows == 0
            # match-all runs on the range engines too
            c = svc.search("*:*", k=5)
            d = search_partitioned(serve_index, "*:*", k=5)
            assert c.to_pylist() == d.to_pylist()

    def test_randomized_stream_identity(self, serve_index):
        """A long shuffled stream of varied query shapes through ONE
        resident service — repeated, so every query hits the range
        engines' warm postings and score caches with arbitrary
        interleavings — must stay bit-identical to fresh per-job
        results, beyond the fixed one-shot query list above."""
        import numpy as np

        eng = SearchEngine(serve_index)
        terms = [t for t in
                 eng._dict_slice("")[0].to_pylist()[:200]
                 if t.isalpha() and len(t) > 2]
        rng = np.random.default_rng(29)
        qs = []
        for _ in range(40):
            a, b, c = (terms[int(i)] for i in
                       rng.integers(0, len(terms), 3))
            shape = int(rng.integers(0, 8))
            qs.append([
                f"{a} {b}",
                f"{a}^2 {b}",
                f"{a} -{b} -{c}",
                f"{a} AND {b}",
                f'"{a} {b}"',
                f"{a[:3]}* {b}",
                f"{a}~1 {b}",
                f"{a} {b} {c}",
            ][shape])
        ref = {q: search_partitioned(serve_index, q, k=10).to_pylist()
               for q in dict.fromkeys(qs)}
        with PartitionedSearchService(serve_index, pool=2) as svc:
            for repeat in range(2):
                order = rng.permutation(len(qs))
                for i in order:
                    q = qs[int(i)]
                    assert svc.search(q, k=10).to_pylist() == ref[q], (
                        q, repeat)

    def test_reopen_after_delete(self, serve_index, tmp_path):
        """Searcher-reopen discipline: a service built AFTER a delete
        excludes the victim (tombstones ship per query as exclusions)."""
        import shutil

        from solr_indexer_ray.pipelines import mutate

        idx = str(tmp_path / "idx")
        shutil.copytree(serve_index, idx)
        with PartitionedSearchService(idx, pool=2) as svc:
            before = svc.search("parse read", k=5)
            assert before.num_rows
        victim = before["doc_id"][0].as_py()
        mutate.delete_by_id(idx, [victim])
        with PartitionedSearchService(idx, pool=2) as svc:
            after = svc.search("parse read", k=5)
            assert victim not in after["doc_id"].to_pylist()
            ref = search_partitioned(idx, "parse read", k=5)
            assert after.to_pylist() == ref.to_pylist()

    def test_synonyms_on_both_paths(self, serve_index):
        """The service's synonym map applies to flat and grouped shapes
        alike."""
        syn = {"read": ["parse"]}
        with PartitionedSearchService(serve_index, pool=2,
                                      synonyms=syn) as svc:
            for q in ("read merge", "(read OR sort) AND merge"):
                a = svc.search(q, k=10)
                b = search_partitioned(serve_index, q, k=10,
                                       synonyms=syn)
                assert a.to_pylist() == b.to_pylist(), q

    def test_more_actors_than_ranges(self, serve_index):
        # 150 docs / dpr 64 -> 3 ranges; pool clamps to n_ranges
        with PartitionedSearchService(serve_index, pool=16) as svc:
            a = svc.search(QUERIES[0], k=10)
            b = search_partitioned(serve_index, QUERIES[0], k=10)
            assert a.to_pylist() == b.to_pylist()
