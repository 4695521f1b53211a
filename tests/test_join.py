"""Query-time join (Solr JoinQParserPlugin {!join from=F to=T}inner):
semi-join the to-field against the inner match set's from-field values;
works as main query, fq, and in delete-by-query."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def jidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("jidx")
    corpus = generate_corpus(150, seed=19, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=64))
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


def brute_join(corpus, oracle, inner_q, ffrom, fto):
    inner = {d for d, _ in oracle.search(inner_q, k=10**9)}
    fv = dict(zip(corpus["doc_id"].to_pylist(),
                  corpus[ffrom].to_pylist()))
    tv = dict(zip(corpus["doc_id"].to_pylist(), corpus[fto].to_pylist()))
    vals = {fv[d] for d in inner if fv[d] is not None}
    return sorted(d for d, v in tv.items() if v in vals)


CASES = [
    ("merge", "repo", "repo"),
    ("def read", "lang", "lang"),
    ("pars*", "repo", "lang"),   # disjoint value domains -> empty
    ("lang:go value", "repo", "repo"),
]


class TestJoin:
    @pytest.mark.parametrize("q,ff,ft", CASES)
    def test_match_ids_vs_brute_force(self, jidx, q, ff, ft):
        idx, corpus = jidx
        oracle = BruteForceBM25(corpus)
        got = SearchEngine(idx).match_ids(
            f"{{!join from={ff} to={ft}}}{q}"
        ).tolist()
        assert got == brute_join(corpus, oracle, q, ff, ft)

    def test_main_query_constant_score(self, jidx):
        idx, corpus = jidx
        eng = SearchEngine(idx)
        t = eng.search("{!join from=repo to=repo}merge", k=10)
        exp = brute_join(corpus, BruteForceBM25(corpus), "merge",
                         "repo", "repo")
        assert t["doc_id"].to_pylist() == exp[:10]
        assert set(t["score"].to_pylist()) == {1.0}
        # start paging
        t2 = eng.search("{!join from=repo to=repo}merge", k=5, start=5)
        assert t2["doc_id"].to_pylist() == exp[5:10]

    def test_as_fq(self, jidx):
        idx, corpus = jidx
        eng = SearchEngine(idx)
        jids = set(eng.match_ids("{!join from=lang to=lang}merge"))
        base = eng.search("def read", k=100, fl=["doc_id"])
        t = eng.search("def read", k=100, fl=["doc_id"],
                       fq=["{!join from=lang to=lang}merge"])
        exp = [d for d in base["doc_id"].to_pylist() if d in jids]
        assert t["doc_id"].to_pylist() == exp
        # scores are untouched by the filter
        bs = dict(zip(base["doc_id"].to_pylist(),
                      base["score"].to_pylist()))
        for d, s in zip(t["doc_id"].to_pylist(), t["score"].to_pylist()):
            assert s == bs[d]

    def test_join_respects_tombstones(self, jidx, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines.mutate import delete_by_id

        idx, corpus = jidx
        work = str(tmp_path / "idx")
        shutil.copytree(idx, work)
        eng0 = SearchEngine(idx)
        ids0 = eng0.match_ids("{!join from=repo to=repo}merge")
        victim = int(ids0[0])
        delete_by_id(work, [victim])
        eng = SearchEngine(work)
        ids1 = eng.match_ids("{!join from=repo to=repo}merge")
        assert victim not in ids1
        assert set(ids1) <= set(ids0.tolist())

    def test_nested_join(self, jidx):
        idx, corpus = jidx
        eng = SearchEngine(idx)
        # inner query is itself a join: repos of docs in langs that merge
        got = eng.match_ids(
            "{!join from=repo to=repo}{!join from=lang to=lang}merge"
        )
        oracle = BruteForceBM25(corpus)
        inner = brute_join(corpus, oracle, "merge", "lang", "lang")
        fv = dict(zip(corpus["doc_id"].to_pylist(),
                      corpus["repo"].to_pylist()))
        vals = {fv[d] for d in inner}
        exp = sorted(d for d, v in fv.items() if v in vals)
        assert got.tolist() == exp

    def test_errors(self, jidx):
        idx, _ = jidx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="cannot join"):
            eng.match_ids("{!join from=nope to=lang}merge")
        with pytest.raises(ValueError, match="requires from="):
            eng.match_ids("{!join from=lang}merge")
        with pytest.raises(ValueError, match="constant-score"):
            eng.search("{!join from=lang to=lang}merge",
                       sort="doclen desc")
