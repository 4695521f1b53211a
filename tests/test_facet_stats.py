"""Solr JSON Facet API analogue: terms facet with nested stat aggregates.

Solr's JSON facet ``{type: terms, field: lang, facet: {avg_len:
"avg(doclen)"}}`` shape — per-bucket sum/avg/min/max over a stored
numeric field, buckets ordered count desc / value asc.  Pins the single
engine against an independent pandas computation and the distributed
per-range partial-aggregate path against the single engine.
"""

import numpy as np
import pandas as pd
import pytest

from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    facet_stats_partitioned,
)

METRICS = {
    "sum_len": "sum(doclen)",
    "avg_len": "avg(doclen)",
    "min_len": "min(doclen)",
    "max_len": "max(doclen)",
}


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return SearchEngine(index_dir)


def _expected(engine, query, by="lang", mincount=1, limit=100):
    """Independent brute force: match ids -> pandas groupby aggregates."""
    ids = engine.match_ids(query)
    t = engine._docs_ds.to_table(
        columns=["doc_id", by, "doclen"]
    ).to_pandas()
    t = t[t["doc_id"].isin(ids) & t[by].notna()]
    g = t.groupby(by)["doclen"]
    df = pd.DataFrame({
        "count": g.size(),
        "sum_len": g.sum().astype(float),
        "avg_len": g.mean(),
        "min_len": g.min().astype(float),
        "max_len": g.max().astype(float),
    }).reset_index().rename(columns={by: "value"})
    df["value"] = df["value"].astype(str)
    df = df[df["count"] >= mincount]
    df = df.sort_values(["count", "value"],
                        ascending=[False, True],
                        kind="mergesort").head(limit)
    return df.reset_index(drop=True)


class TestFacetStats:
    @pytest.mark.parametrize("q", [
        "def the index", "def AND index", "lang:go def", "def -the index",
    ])
    def test_matches_brute_force(self, engine, q):
        got = engine.facet_stats(q, "lang", METRICS).to_pandas()
        exp = _expected(engine, q)
        assert got["value"].tolist() == exp["value"].tolist()
        assert got["count"].tolist() == exp["count"].tolist()
        for m in METRICS:
            np.testing.assert_allclose(got[m], exp[m], rtol=1e-12)

    def test_bucket_order_count_desc_value_asc(self, engine):
        got = engine.facet_stats("def the index", "lang",
                                 {"s": "sum(doclen)"})
        rows = list(zip(got["count"].to_pylist(),
                        got["value"].to_pylist()))
        assert rows == sorted(rows, key=lambda r: (-r[0], r[1]))

    def test_mincount_and_limit(self, engine):
        full = engine.facet_stats("def the index", "lang",
                                  {"s": "sum(doclen)"})
        top1 = engine.facet_stats("def the index", "lang",
                                  {"s": "sum(doclen)"}, limit=1)
        assert top1.num_rows == 1
        assert top1["value"][0] == full["value"][0]
        hi = int(max(full["count"].to_pylist()))
        gated = engine.facet_stats("def the index", "lang",
                                   {"s": "sum(doclen)"}, mincount=hi)
        assert all(c >= hi for c in gated["count"].to_pylist())

    def test_no_match_is_empty(self, engine):
        t = engine.facet_stats("zzzznotaterm", "lang",
                               {"s": "sum(doclen)"})
        assert t.num_rows == 0
        assert t.column_names == ["value", "count", "s"]

    def test_metric_schema_sorted_by_name(self, engine):
        t = engine.facet_stats("def", "lang",
                               {"z_max": "max(doclen)",
                                "a_min": "min(doclen)"})
        assert t.column_names == ["value", "count", "a_min", "z_max"]

    def test_errors(self, engine):
        with pytest.raises(ValueError, match="cannot facet"):
            engine.facet_stats("def", "nosuchfield", {"s": "sum(doclen)"})
        with pytest.raises(ValueError, match="bad stat expression"):
            engine.facet_stats("def", "lang", {"s": "median(doclen)"})
        with pytest.raises(ValueError, match="unknown stat field"):
            engine.facet_stats("def", "lang", {"s": "sum(nosuch)"})
        with pytest.raises(ValueError, match="must be numeric"):
            engine.facet_stats("def", "lang", {"s": "sum(repo)"})
        with pytest.raises(ValueError, match="at least one metric"):
            engine.facet_stats("def", "lang", {})


class TestDistributedFacetStats:
    @pytest.mark.parametrize("q", [
        "def the index", "def AND index", "lang:go def", "def -the index",
    ])
    def test_identical_to_single_engine(self, built_index, q):
        index_dir, _ = built_index
        eng = SearchEngine(index_dir)
        single = eng.facet_stats(q, "lang", METRICS)
        dist = facet_stats_partitioned(index_dir, q, "lang", METRICS)
        assert dist.column_names == single.column_names
        assert dist["value"].to_pylist() == single["value"].to_pylist()
        assert dist["count"].to_pylist() == single["count"].to_pylist()
        for m in METRICS:
            # doclen is integral: per-range partial sums merge exactly
            assert dist[m].to_pylist() == single[m].to_pylist()

    def test_zero_match_distributed(self, built_index):
        index_dir, _ = built_index
        t = facet_stats_partitioned(index_dir, "zzzznotaterm", "lang",
                                    {"s": "sum(doclen)"})
        assert t.num_rows == 0

    def test_group_by_repo(self, built_index):
        index_dir, _ = built_index
        eng = SearchEngine(index_dir)
        single = eng.facet_stats("def the index", "repo",
                                 {"avg_len": "avg(doclen)"})
        dist = facet_stats_partitioned(index_dir, "def the index", "repo",
                                       {"avg_len": "avg(doclen)"})
        assert dist["value"].to_pylist() == single["value"].to_pylist()
        assert dist["avg_len"].to_pylist() == single["avg_len"].to_pylist()


    def test_no_engine_on_the_driver(self, built_index, monkeypatch):
        """The ranges validate the spec and compute the partials; the
        driver only merges them (the ranges run in Ray workers, so an
        engine opened in this process would be the driver's)."""
        index_dir, _ = built_index
        single = SearchEngine(index_dir).facet_stats("def", "lang", METRICS)

        def no_engine(*_a, **_k):
            raise AssertionError("an engine opened on the driver")

        monkeypatch.setattr(SearchEngine, "__init__", no_engine)
        dist = facet_stats_partitioned(index_dir, "def", "lang", METRICS)
        assert dist.equals(single)
        with pytest.raises(ValueError, match="bad stat expression"):
            facet_stats_partitioned(index_dir, "def", "lang",
                                    {"s": "median(doclen)"})
        with pytest.raises(ValueError, match="cannot facet"):
            facet_stats_partitioned(index_dir, "def", "nosuchfield",
                                    {"s": "sum(doclen)"})

    def test_bucket_labels_of_typed_fields(self, typed_index):
        """A timestamp or bool ``by`` field labels its buckets as the
        engine does (``'2020-01-02 00:00:00'``, ``'True'``), not as an
        Arrow string cast would (``'... 00:00:00.000000'``, ``'true'``)."""
        eng = SearchEngine(typed_index)
        for by in ("ts", "flag"):
            single = eng.facet_stats("def", by, {"s": "sum(size)"})
            assert single.num_rows > 1
            assert facet_stats_partitioned(
                typed_index, "def", by, {"s": "sum(size)"}).equals(single), by

    def test_stats_over_the_facet_field_itself(self, typed_index):
        """``by`` may also be a stat field: each bucket's stats are over
        its own value, on one engine and distributed alike."""
        eng = SearchEngine(typed_index)
        metrics = {"s": "sum(size)", "lo": "min(size)", "a": "avg(size)"}
        single = eng.facet_stats("*:*", "size", metrics, limit=1000)
        assert single.num_rows == eng.n_docs
        for r in single.to_pylist():
            v = float(r["value"])
            assert r["count"] == 1 and r["s"] == r["lo"] == r["a"] == v
        assert facet_stats_partitioned(
            typed_index, "*:*", "size", metrics, limit=1000).equals(single)


@pytest.fixture(scope="module")
def typed_index(tmp_path_factory):
    """A small index with timestamp, bool and int stored fields."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import generate_corpus

    tmp_path = tmp_path_factory.mktemp("typed")
    t = generate_corpus(120, seed=3, mean_tokens=20, with_edge_rows=False)
    n = t.num_rows
    t = t.append_column("ts", pa.array(
        [dt.datetime(2020, 1, 1 + i % 3) for i in range(n)],
        pa.timestamp("us")))
    t = t.append_column("flag", pa.array([i % 2 == 0 for i in range(n)]))
    t = t.append_column("size", pa.array(range(n), pa.int64()))
    pq.write_table(t, str(tmp_path / "docs.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "docs.parquet"), idx, config=IndexConfig(
        docs_per_range=32, extra_stored=("ts", "flag", "size")))
    return idx


class TestJsonFacet:
    """JSON Facet API subset: recursive terms + nested stats, domains
    narrowing down the bucket tree (Solr semantics)."""

    def test_flat_level_matches_facet_and_stats(self, engine):
        eng = engine
        res = eng.json_facet("def", {
            "langs": {"type": "terms", "field": "lang", "limit": 100},
        })
        flat = eng.facet("def", ["lang"], mincount=1)["lang"]
        assert [(b["val"], b["count"]) for b in res["langs"]["buckets"]] \
            == flat
        assert res["count"] == len(eng.match_ids("def"))

    def test_nested_stats_match_facet_stats(self, engine):
        eng = engine
        res = eng.json_facet("def", {
            "langs": {"type": "terms", "field": "lang", "limit": 100,
                      "facet": {"avg_len": "avg(doclen)",
                                "max_len": "max(doclen)"}},
        })
        fs = {r["value"]: r for r in eng.facet_stats(
            "def", "lang", {"avg_len": "avg(doclen)",
                            "max_len": "max(doclen)"},
            limit=100).to_pylist()}
        for b in res["langs"]["buckets"]:
            ref = fs[b["val"]]
            assert b["count"] == ref["count"]
            assert b["avg_len"] == pytest.approx(ref["avg_len"])
            assert b["max_len"] == ref["max_len"]

    def test_two_level_nesting_narrows_domain(self, engine):
        eng = engine
        res = eng.json_facet("def", {
            "langs": {"type": "terms", "field": "lang", "limit": 2,
                      "facet": {
                          "repos": {"type": "terms", "field": "repo",
                                    "limit": 100},
                      }},
        })
        for b in res["langs"]["buckets"]:
            # inner buckets must equal faceting repo over the
            # lang-filtered query (the bucket's domain)
            inner = eng.facet(f'lang:{b["val"]} def', ["repo"],
                              mincount=1)["repo"]
            got = [(x["val"], x["count"]) for x in b["repos"]["buckets"]]
            assert got == inner, b["val"]
            assert b["count"] == sum(c for _, c in inner)

    def test_validation(self, engine):
        eng = engine
        with pytest.raises(ValueError, match="stat expression"):
            eng.json_facet("def", {"x": "median(doclen)"})
        with pytest.raises(ValueError, match="terms node"):
            eng.json_facet("def", {"x": {"type": "heatmap"}})

    def test_query_and_range_nodes(self, engine):
        eng = engine
        res = eng.json_facet("def", {
            "py": {"type": "query", "q": "lang:python def",
                   "facet": {"avg_len": "avg(doclen)"}},
            "lens": {"type": "range", "field": "doclen",
                     "start": 0, "end": 100, "gap": 25},
        })
        # query node count == the intersected query's match count
        inter = eng.match_ids("lang:python def")
        base = set(eng.match_ids("def").tolist())
        assert res["py"]["count"] == len(
            [d for d in inter.tolist() if d in base]
        )
        # range buckets match the dedicated range_facet histogram
        rf = eng.range_facet("def", "doclen", 0, 100, 25)
        assert [(b["val"], b["count"]) for b in res["lens"]["buckets"]] \
            == [(int(lo), c) for lo, c in rf["buckets"]]

    def test_range_fractional_gap_exact_edges(self, engine):
        """Fractional gaps must emit exactly ceil((end-start)/gap)
        buckets with exact start+i*gap edges (no float-accumulation
        sliver buckets)."""
        eng = engine
        res = eng.json_facet("def", {
            "r": {"type": "range", "field": "doclen",
                  "start": 0.0, "end": 1.0, "gap": 0.1},
        })
        assert len(res["r"]["buckets"]) == 10
        vals = [b["val"] for b in res["r"]["buckets"]]
        assert vals[0] == 0 and abs(vals[3] - 0.3) < 1e-12

    def test_range_last_bucket_full_width(self, engine):
        """Solr's default hardend=false: the last bucket counts its full
        [edge, edge+gap) width, so a value in [25, 30) lands in the 20
        bucket of start=0, end=25, gap=10."""
        eng = engine
        res = eng.json_facet("def", {
            "r": {"type": "range", "field": "doclen",
                  "start": 0, "end": 25, "gap": 10},
        })
        t = eng._docs_ds.to_table(columns=["doc_id", "doclen"]).to_pandas()
        lens = t[t["doc_id"].isin(eng.match_ids("def"))]["doclen"]
        assert ((lens >= 25) & (lens < 30)).any()
        assert [(b["val"], b["count"]) for b in res["r"]["buckets"]] == [
            (lo, int(((lens >= lo) & (lens < lo + 10)).sum()))
            for lo in (0, 10, 20)
        ]

    def test_terms_mincount_zero_emits_zero_buckets(self, engine):
        eng = engine
        res = eng.json_facet("lang:go def", {
            "langs": {"type": "terms", "field": "lang", "limit": 100,
                      "mincount": 0},
        })
        got = {b["val"]: b["count"] for b in res["langs"]["buckets"]}
        ref = dict(eng.facet("lang:go def", ["lang"], mincount=0)["lang"])
        ref.pop("None", None)  # json facet: missing bucket is opt-in
        assert got == ref and 0 in got.values()

    def test_group_search_with_ngroups(self, engine):
        eng = engine
        t, ng = eng.group_search("def", "lang", 5, 1, with_ngroups=True)
        ref = len(eng.facet("def", ["lang"], mincount=1,
                            limit=1 << 31)["lang"])
        assert ng == ref
        plain = eng.group_search("def", "lang", 5, 1)
        assert plain.equals(t)

    def test_unique_stat(self, engine):
        eng = engine
        res = eng.json_facet("def", {
            "n_repos": "unique(repo)",
            "langs": {"type": "terms", "field": "lang", "limit": 100,
                      "facet": {"n_repos": "unique(repo)"}},
        })
        ids = set(eng.match_ids("def").tolist())
        # independent check from facet buckets
        assert res["n_repos"] == len(
            eng.facet("def", ["repo"], mincount=1, limit=1 << 31)["repo"]
        )
        for b in res["langs"]["buckets"]:
            ref = len(eng.facet(f'lang:{b["val"]} def', ["repo"],
                                mincount=1, limit=1 << 31)["repo"])
            assert b["n_repos"] == ref, b["val"]

    def test_percentile_stat(self, engine):
        import numpy as np

        eng = engine
        res = eng.json_facet("def", {
            "p50": "percentile(doclen, 50)",
            "pcts": "percentile(doclen, 25, 75)",
        })
        ids = eng.match_ids("def")
        vals = np.asarray(eng._dense_field("doclen")[ids], dtype=float)
        vals = vals[~np.isnan(vals)]
        assert res["p50"] == pytest.approx(float(np.percentile(vals, 50)))
        assert res["pcts"] == pytest.approx(
            [float(x) for x in np.percentile(vals, [25, 75])]
        )
