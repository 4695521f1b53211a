"""ReRank query (Solr ReRankQParserPlugin): rescore the main query's
top-N window by adding weight x rerank-query score, tail order
preserved; distributed identity."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    rerank_partitioned,
)
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def ridx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("ridx")
    corpus = generate_corpus(160, seed=17, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64,
                      store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


def brute_rerank(oracle, q, rq, k, n, w):
    main = oracle.search(q, k=10**9)
    rmap = dict(oracle.search(rq, k=10**9))
    seg = min(n, len(main))
    head = [(d, s + w * rmap.get(d, 0.0)) for d, s in main[:seg]]
    head.sort(key=lambda t: (-t[1], t[0]))
    return (head + [(d, s) for d, s in main[seg:]])[:k]


CASES = [
    ("def read", "merge", 10, 5, 2.0),
    ("def read", "merge value", 10, 50, 3.5),
    ("value", "pars*", 8, 20, 1.0),
    ("def OR read OR value", '"def index"', 10, 15, 10.0),
]


class TestRerank:
    @pytest.mark.parametrize("q,rq,k,n,w", CASES)
    def test_vs_brute_force(self, ridx, q, rq, k, n, w):
        idx, corpus = ridx
        oracle = BruteForceBM25(corpus)
        t = SearchEngine(idx).rerank_search(
            q, rq, k=k, rerank_docs=n, rerank_weight=w
        )
        exp = brute_rerank(oracle, q, rq, k, n, w)
        assert t["doc_id"].to_pylist() == [d for d, _ in exp]
        got_s = t["score"].to_pylist()
        for g, (_, e) in zip(got_s, exp):
            assert g == pytest.approx(e, rel=1e-9)

    def test_tail_keeps_original_order(self, ridx):
        idx, _ = ridx
        eng = SearchEngine(idx)
        base = eng.search("def read", k=30, fl=["doc_id"])
        rr = eng.rerank_search("def read", "merge", k=30, rerank_docs=5,
                               rerank_weight=100.0)
        # beyond the 5-doc window nothing moves and scores are untouched
        assert rr["doc_id"].to_pylist()[5:] == base["doc_id"].to_pylist()[5:]
        assert rr["score"].to_pylist()[5:] == base["score"].to_pylist()[5:]
        # inside the window the set is preserved (only reordered)
        assert (set(rr["doc_id"].to_pylist()[:5])
                == set(base["doc_id"].to_pylist()[:5]))

    def test_weight_moves_matching_doc_up(self, ridx):
        idx, _ = ridx
        eng = SearchEngine(idx)
        base = eng.search("def read", k=20, fl=["doc_id"])
        rmatch = set(eng.search("merge", k=10**6,
                                fl=["doc_id"])["doc_id"].to_pylist())
        both = [d for d in base["doc_id"].to_pylist() if d in rmatch]
        if not both:
            pytest.skip("no overlap in this corpus")
        rr = eng.rerank_search("def read", "merge", k=20,
                               rerank_docs=20, rerank_weight=1000.0)
        # every window doc matching the rerank query jumps to the top
        assert set(rr["doc_id"].to_pylist()[: len(both)]) == set(both)

    def test_start_paging(self, ridx):
        idx, _ = ridx
        eng = SearchEngine(idx)
        full = eng.rerank_search("def read", "merge", k=20,
                                 rerank_docs=10, rerank_weight=2.0)
        page = eng.rerank_search("def read", "merge", k=5, start=5,
                                 rerank_docs=10, rerank_weight=2.0)
        assert page["doc_id"].to_pylist() == full["doc_id"].to_pylist()[5:10]

    @pytest.mark.parametrize("q,rq,k,n,w", CASES)
    def test_distributed_identity(self, ridx, q, rq, k, n, w):
        idx, _ = ridx
        single = SearchEngine(idx).rerank_search(
            q, rq, k=k, rerank_docs=n, rerank_weight=w, fl=["doc_id"]
        )
        dist = rerank_partitioned(idx, q, rq, k=k, rerank_docs=n,
                                  rerank_weight=w)
        assert single["doc_id"].to_pylist() == dist["doc_id"].to_pylist()
        assert single["score"].to_pylist() == dist["score"].to_pylist()

    def test_round_scores(self, ridx):
        idx, _ = ridx
        t = SearchEngine(idx).rerank_search(
            "def read", "merge", k=10, rerank_docs=10,
            rerank_weight=2.0, round_scores=4
        )
        for s in t["score"].to_pylist():
            assert round(s, 4) == pytest.approx(s, abs=1e-9)

    def test_errors(self, ridx):
        idx, _ = ridx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="rerank_docs"):
            eng.rerank_search("def", "merge", rerank_docs=0)
        with pytest.raises(ValueError, match="start"):
            eng.rerank_search("def", "merge", start=-1)
