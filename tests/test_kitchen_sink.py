"""Kitchen-sink cross-feature test: ONE index with every build feature
enabled (positions + stored content + analysis chain + analyzed fields
+ extra stored columns incl. timestamps and geo), then every query
surface drives against it.  Cross-feature interactions (e.g. filter
chain x fielded phrases x spatial fq) are where integration bugs hide.
"""

from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def kidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("kitchen")
    corpus = generate_corpus(150, seed=41, mean_tokens=40,
                             with_edge_rows=False)
    n = corpus.num_rows
    base = datetime(2024, 5, 1)
    corpus = corpus.append_column(
        "mtime", pa.array([base + timedelta(hours=i) for i in range(n)],
                          pa.timestamp("us")))
    corpus = corpus.append_column(
        "lat", pa.array([((i * 37) % 1700) / 10.0 - 85.0
                         for i in range(n)], pa.float64()))
    corpus = corpus.append_column(
        "lon", pa.array([((i * 73) % 3600) / 10.0 - 180.0
                         for i in range(n)], pa.float64()))
    corpus = corpus.append_column(
        "stars", pa.array([float(i % 50) for i in range(n)],
                          pa.float64()))
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(
        docs_per_range=64, concurrency=2,
        store_positions=True, store_content=True,
        filters=("stop",),
        analyzed_fields=("path_text:path",),
        extra_stored=("mtime", "lat", "lon", "stars"),
    )
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    return str(d / "idx")


class TestEveryQueryShape:
    """Every surface returns sanely on the all-features index."""

    def test_flat_and_positional(self, kidx):
        eng = SearchEngine(kidx)
        for q in ("def read", '"def index"', '"def index"~3',
                  "pars*", "te?t OR parse", "/pa.se/", "parze~1",
                  "(def OR read) AND value", "def AND -merge",
                  "*:*"):
            t = eng.search(q, k=5, fl=["doc_id"])
            assert t.num_rows <= 5, q

    def test_filters_and_ranges(self, kidx):
        eng = SearchEngine(kidx)
        hits = eng.search(
            "def", k=50, fl=["doc_id"],
            fq=["lang:python", "doclen:[10 TO 500]",
                "mtime:[2024-05-01T00:00:00Z TO *]",
                "stars:[5 TO 45]",
                "{!geofilt sfield=lat,lon pt=0,0 d=21000}"],
        )
        assert hits.num_rows >= 0  # composes without error
        # stacking a collapse on top of all of that
        c = eng.search("def", k=5, fl=["doc_id"],
                       fq=["lang:python", "{!collapse field=repo}"])
        repos = [eng.get(d)["repo"] for d in c["doc_id"].to_pylist()]
        assert len(repos) == len(set(repos))

    def test_fielded_and_dismax_with_chain(self, kidx):
        eng = SearchEngine(kidx)
        t = eng.search("path_text:mod1 def", k=5, fl=["doc_id"])
        assert t.num_rows >= 1
        t2 = eng.search("def read", k=5, fl=["doc_id"],
                        qf="content^1 path_text^2", tie=0.2)
        assert t2.num_rows >= 1
        t3 = eng.search("def read", k=5, fl=["doc_id"], mm="1",
                        pf="content^2", ps=1,
                        bf="recip(geodist(lat,lon,10,20),1,1000,1)",
                        boost="sum(ln(sum(doclen,1)),1)",
                        bq="lang:java^3")
        assert t3.num_rows >= 1

    def test_stopword_chain_applied(self, kidx):
        eng = SearchEngine(kidx)
        # 'the' is a stop word: a stop-only query matches nothing
        assert eng.search("the", k=5).num_rows == 0
        toks = {r["term"] for r in eng.analyze("the def").to_pylist()
                if r["stage_name"] == "filter:stop"}
        assert "the" not in toks and "def" in toks

    def test_components(self, kidx):
        eng = SearchEngine(kidx)
        assert eng.facet("def", ["lang"])["lang"]
        assert eng.range_facet("def", "mtime", "2024-05-01T00:00:00Z",
                               "2024-05-04T00:00:00Z",
                               "+1DAY")["buckets"]
        st = eng.field_stats("def", "stars", percentiles=[50])
        assert st["count"] > 0 and st["percentiles"]["50"] is not None
        assert eng.group_search("def", "lang").num_rows > 0
        assert eng.collapse_search("def", "lang",
                                   expand_limit=2).num_rows > 0
        assert eng.significant_terms("lang:python def",
                                     min_doc_freq=2).num_rows >= 0
        assert eng.more_like_this(3, k=3).num_rows >= 0
        assert eng.term_vectors(3).num_rows > 0
        assert eng.luke()["fields"]["stars"]["type"] == "double"
        assert eng.autocomplete("pa", count=3)
        out = eng.collate("def rread")
        assert out["collation"] == "def read"
        assert eng.rerank_search("def read", "merge", k=3).num_rows >= 1
        model = {"features": [{"name": "s", "type": "originalScore"},
                              {"name": "r", "type": "function",
                               "expr": "recip(ms(1714521600000,mtime),"
                                       "1,3600000,3600000)"}],
                 "weights": {"s": 1.0, "r": 2.0}}
        assert eng.ltr_search("def read", model, k=3).num_rows >= 1

    def test_distributed_matches_single(self, kidx):
        from solr_indexer_ray.pipelines.search import search_partitioned

        eng = SearchEngine(kidx)
        for q, kw in (
            ("def read", {}),
            ('"def index"', {}),
            ("path_text:mod1 def", {}),
            ("def read", {"fq": ["lang:python"]}),
            ("def read",
             {"bf": "recip(geodist(lat,lon,10,20),1,1000,1)"}),
        ):
            s = eng.search(q, k=5, fl=["doc_id"], **kw)
            p = search_partitioned(kidx, q, k=5, **kw)
            assert s["doc_id"].to_pylist() == p["doc_id"].to_pylist(), (
                q, kw)
            assert s["score"].to_pylist() == p["score"].to_pylist()

    def test_extend_inherits_all_features(self, kidx, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines.build import extend_index

        work = str(tmp_path / "idx")
        shutil.copytree(kidx, work,
                        ignore=shutil.ignore_patterns(".build_lock"))
        n0 = SearchEngine(work).n_docs
        extra = generate_corpus(40, seed=43, mean_tokens=30,
                                with_edge_rows=False)
        m = extra.num_rows
        base = datetime(2024, 7, 1)
        extra = extra.append_column(
            "mtime", pa.array([base + timedelta(hours=i)
                               for i in range(m)], pa.timestamp("us")))
        extra = extra.append_column(
            "lat", pa.array([10.0] * m, pa.float64()))
        extra = extra.append_column(
            "lon", pa.array([20.0] * m, pa.float64()))
        extra = extra.append_column(
            "stars", pa.array([99.0] * m, pa.float64()))
        path = str(tmp_path / "extra.parquet")
        pq.write_table(extra, path, row_group_size=32)
        extend_index(path, work)
        eng = SearchEngine(work)
        assert eng.n_docs == n0 + m
        # new rows reachable via every feature class
        new_ids = set(range(n0, n0 + m))
        geo = set(eng.match_ids(
            "{!geofilt sfield=lat,lon pt=10,20 d=1}").tolist())
        assert new_ids <= geo
        dr = set(eng.match_ids(
            "mtime:[2024-07-01T00:00:00Z TO *]").tolist())
        assert new_ids == dr
        assert set(eng.match_ids("stars:[99 TO 99]").tolist()) == new_ids
        # stop chain + analyzed field still apply to the extension
        assert eng.search("the", k=3).num_rows == 0
        ft = eng.search("path_text:mod1 def", k=50, fl=["doc_id"])
        assert any(d >= n0 for d in ft["doc_id"].to_pylist())

    def test_lifecycle_roundtrip(self, kidx, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines import mutate
        from solr_indexer_ray.pipelines.fsck import check_index

        work = str(tmp_path / "idx")
        shutil.copytree(kidx, work,
                        ignore=shutil.ignore_patterns(".build_lock"))
        eng = SearchEngine(work)
        top = eng.search("def", k=2, fl=["doc_id"])["doc_id"].to_pylist()
        mutate.delete_by_id(work, top)
        eng2 = SearchEngine(work)
        assert not set(top) & set(
            eng2.search("def", k=10, fl=["doc_id"])["doc_id"].to_pylist()
        )
        mutate.compact_index(work)
        assert check_index(work)["ok"]
        eng3 = SearchEngine(work)
        assert eng3.search("def", k=3, fl=["doc_id"]).num_rows >= 1
        # the geo/extra columns survive compaction
        assert eng3.match_ids(
            "{!geofilt sfield=lat,lon pt=0,0 d=21000}"
        ).size > 0
