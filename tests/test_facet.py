"""Field facets — Solr ``facet.field`` semantics: buckets over the FULL
match set, count-desc/value-asc order, mincount/limit, zero-count buckets
at mincount=0; single-engine and distributed per-range paths identical."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine, facet_partitioned
from solr_indexer_ray.sources.corpus import generate_corpus

QUERIES = ["def", "read AND merge", '"def index"', "pars*",
           "lang:python def", "*:*", "-lang:go def"]


@pytest.fixture(scope="module")
def fidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("fidx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


def brute_facet(corpus, oracle, q, fields, mincount=0, limit=100):
    hits = {d for d, _ in oracle.search(q, k=10**9)}
    ids = corpus["doc_id"].to_pylist()
    out = {}
    for fld in fields:
        vals = corpus[fld].to_pylist()
        counts: dict = {}
        for i, v in enumerate(vals):
            if ids[i] in hits:
                counts[v] = counts.get(v, 0) + 1
        if mincount <= 0:
            for v in set(vals):
                counts.setdefault(v, 0)
        out[fld] = sorted(
            ((v, c) for v, c in counts.items() if c >= mincount),
            key=lambda b: (-b[1], b[0]),
        )[:limit]
    return out


class TestFacet:
    @pytest.mark.parametrize("mincount", [0, 1])
    def test_vs_brute_force(self, fidx, mincount):
        idx, corpus = fidx
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in QUERIES:
            got = eng.facet(q, ["lang", "repo"], mincount=mincount)
            exp = brute_facet(corpus, oracle, q, ["lang", "repo"],
                              mincount=mincount)
            assert got == exp, q

    def test_partitioned_identical(self, fidx):
        idx, _ = fidx
        eng = SearchEngine(idx)
        for q in QUERIES:
            assert facet_partitioned(idx, q, ["lang", "repo"]) == eng.facet(
                q, ["lang", "repo"]
            ), q

    def test_limit(self, fidx):
        idx, _ = fidx
        eng = SearchEngine(idx)
        full = eng.facet("def", ["repo"])["repo"]
        top2 = eng.facet("def", ["repo"], limit=2)["repo"]
        assert top2 == full[:2] and len(top2) == 2

    def test_order_count_desc_value_asc(self, fidx):
        idx, _ = fidx
        buckets = SearchEngine(idx).facet("*:*", ["lang"])["lang"]
        keys = [(-c, v) for v, c in buckets]
        assert keys == sorted(keys)

    def test_facet_prefix(self, fidx):
        """facet.prefix restricts buckets to the value prefix; counts
        are unchanged for the surviving buckets."""
        idx, _ = fidx
        eng = SearchEngine(idx)
        full = dict(eng.facet("def", ["repo"])["repo"])
        pfx = sorted({v[:4] for v in full})[0]
        got = eng.facet("def", ["repo"], prefix=pfx)["repo"]
        assert got and all(v.startswith(pfx) for v, _ in got)
        assert all(full[v] == c for v, c in got)
        assert facet_partitioned(idx, "def", ["repo"], prefix=pfx) == {
            "repo": got
        }

    def test_facet_sort_index(self, fidx):
        """facet.sort=index orders buckets by value ascending."""
        idx, _ = fidx
        eng = SearchEngine(idx)
        got = eng.facet("def", ["repo"], sort="index")["repo"]
        assert [v for v, _ in got] == sorted(v for v, _ in got)
        assert dict(got) == dict(eng.facet("def", ["repo"])["repo"])
        assert facet_partitioned(idx, "def", ["repo"], sort="index") == {
            "repo": got
        }


def test_facet_respects_tombstones(tmp_path, ray_session):
    corpus = generate_corpus(80, seed=4, mean_tokens=25)
    pq.write_table(corpus, str(tmp_path / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, config=cfg)
    before = dict(SearchEngine(idx).facet("*:*", ["lang"])["lang"])
    mutate.delete_by_query(idx, "lang:go")
    eng = SearchEngine(idx)
    after = eng.facet("*:*", ["lang"])
    assert dict(after["lang"])["go"] == 0 and before["go"] > 0
    # distributed path partitions the tombstone set per range
    assert facet_partitioned(idx, "*:*", ["lang"]) == after


def test_fq_applies_across_handlers(fidx):
    """Solr fq restricts facet/group/stats exactly like an inline filter."""
    idx, _ = fidx
    eng = SearchEngine(idx)
    assert eng.facet("def", ["repo"], fq="lang:python") == eng.facet(
        "lang:python def", ["repo"]
    )
    a = eng.group_search("def", "repo", 5, 2, fq="lang:python")
    b = eng.group_search("lang:python def", "repo", 5, 2)
    assert a.equals(b)
    assert eng.field_stats("def", "doclen", fq="lang:python") == (
        eng.field_stats("lang:python def", "doclen")
    )


class TestRangeAndPivotFacets:
    def test_range_facet_histogram(self, fidx):
        idx, corpus = fidx
        eng = SearchEngine(idx)
        oracle = BruteForceBM25(corpus)
        hits = {d for d, _ in oracle.search("def", k=10**9)}
        dls = [len(oracle.tokens[i]) for i in sorted(hits)]
        res = eng.range_facet("def", "doclen", 0, 100, 20)
        assert len(res["buckets"]) == 5
        for lo, c in res["buckets"]:
            assert c == sum(1 for v in dls if lo <= v < min(lo + 20, 100)), lo
        assert res["before"] == sum(1 for v in dls if v < 0)
        assert res["after"] == sum(1 for v in dls if v >= 100)
        assert sum(c for _, c in res["buckets"]) + res["after"] + res[
            "before"
        ] == len(dls)

    def test_range_facet_hardend_false(self, fidx):
        """Solr's default ``facet.range.hardend=false``: with end=25 the
        last bucket still covers [20, 30), and ``after`` counts from its
        upper edge 30, not from ``end``."""
        idx, corpus = fidx
        eng = SearchEngine(idx)
        oracle = BruteForceBM25(corpus)
        hits = {d for d, _ in oracle.search("def", k=10**9)}
        dls = [len(oracle.tokens[i]) for i in sorted(hits)]
        res = eng.range_facet("def", "doclen", 0, 25, 10)
        assert res["buckets"] == [
            (lo, sum(1 for v in dls if lo <= v < lo + 10))
            for lo in (0, 10, 20)
        ]
        assert res["before"] == 0
        assert res["after"] == sum(1 for v in dls if v >= 30)
        # the corpus has hits in [25, 30), where the two modes differ
        assert any(25 <= v < 30 for v in dls)

    def test_range_facet_validation(self, fidx):
        idx, _ = fidx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError):
            eng.range_facet("def", "lang", 0, 10, 2)
        with pytest.raises(ValueError):
            eng.range_facet("def", "doclen", 10, 0, 2)

    def test_pivot_matches_flat_facets(self, fidx):
        idx, corpus = fidx
        eng = SearchEngine(idx)
        rows = eng.pivot_facet("def", ["lang", "repo"])
        # level-1 rollup == plain facet counts (mincount=1)
        roll: dict = {}
        for v1, _, c in rows:
            roll[v1] = roll.get(v1, 0) + c
        assert roll == dict(eng.facet("def", ["lang"], mincount=1)["lang"])
        keys = [(-c, a, b) for a, b, c in rows]
        assert keys == sorted(keys)


def test_facet_offset_pages_buckets(fidx):
    """facet.offset skips buckets of the chosen order before limit —
    engine and distributed paths identical."""
    from solr_indexer_ray.pipelines.search import facet_partitioned

    idx, _ = fidx
    eng = SearchEngine(idx)
    full = eng.facet("def", ["repo"], limit=1 << 31)["repo"]
    page = eng.facet("def", ["repo"], limit=2, offset=1)["repo"]
    assert page == full[1:3]
    assert facet_partitioned(idx, "def", ["repo"], limit=2,
                             offset=1) == {"repo": page}
