"""Lucene range filters — ``field:[lo TO hi]`` with exclusive ``{}``
bounds and ``*`` open ends over metadata strings and the numeric
``doclen`` field; negation; rank identity vs the oracle."""

import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import parse_query
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned
from solr_indexer_ray.sources.corpus import generate_corpus


def _analyze(s):
    return s.lower().split()


class TestParser:
    def test_inclusive(self):
        p = parse_query("doclen:[10 TO 20] x", _analyze)
        (rf,) = p.range_filters
        assert (rf.field, rf.lo, rf.hi, rf.lo_incl, rf.hi_incl) == (
            "doclen", "10", "20", True, True
        )
        assert p.terms == ["x"]

    def test_exclusive_and_mixed(self):
        (rf,) = parse_query("doclen:{10 TO 20}", _analyze).range_filters
        assert (rf.lo_incl, rf.hi_incl) == (False, False)
        (rf,) = parse_query("lang:[a TO b}", _analyze).range_filters
        assert (rf.lo_incl, rf.hi_incl) == (True, False)

    def test_open_ends(self):
        (rf,) = parse_query("doclen:[* TO 20]", _analyze).range_filters
        assert rf.lo is None and rf.hi == "20"

    def test_negated(self):
        p = parse_query("-doclen:[10 TO 20] x", _analyze)
        assert p.must_not.range_filters and not p.range_filters

    def test_unsupported_field(self):
        with pytest.raises(ValueError, match="unsupported field"):
            parse_query("nosuch:[1 TO 2]", _analyze)

    def test_bad_numeric_bound(self):
        with pytest.raises(ValueError):
            parse_query("doclen:[x TO 2]", _analyze)

    def test_matches_semantics(self):
        (rf,) = parse_query("doclen:{10 TO 20]", _analyze).range_filters
        assert not rf.matches(10) and rf.matches(11) and rf.matches(20)
        assert not rf.matches(21) and not rf.matches(None)


QUERIES = [
    "doclen:[30 TO 90] read",
    "doclen:{30 TO 90} read",
    "doclen:[* TO 50]",
    "-doclen:[30 TO *] read",
    "lang:[go TO python] def",
    "path:[src/mod1 TO src/mod3} def",
    "doclen:[30 TO 90] AND read merge",
    'doclen:[10 TO 200] "def index"',
    "doclen:[30 TO 90] pars*",
]


@pytest.fixture(scope="module")
def ridx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("ridx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


class TestRangeRankIdentity:
    def test_vs_oracle(self, ridx):
        idx, corpus = ridx
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in QUERIES:
            got = eng.search(q, k=12, fl=["doc_id"])
            exp = oracle.search(q, k=12)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
            assert got["score"].to_pylist() == [s for _, s in exp], q

    def test_partitioned_falls_back_identically(self, ridx):
        idx, _ = ridx
        eng = SearchEngine(idx)
        for q in QUERIES[:4]:
            p = search_partitioned(idx, q, k=10)
            s = eng.search(q, k=10, fl=["doc_id"])
            assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist(), q

    def test_doclen_is_token_count_not_chars(self, ridx):
        idx, corpus = ridx
        eng = SearchEngine(idx)
        t = eng.search("doclen:[40 TO 40]", k=200, fl=["doc_id", "doclen"])
        assert all(v == 40 for v in t["doclen"].to_pylist())

    def test_facet_with_range_filter(self, ridx):
        idx, corpus = ridx
        eng = SearchEngine(idx)
        buckets = dict(eng.facet("doclen:[* TO 50]", ["lang"])["lang"])
        oracle = BruteForceBM25(corpus)
        hits = {d for d, _ in oracle.search("doclen:[* TO 50]", k=10**9)}
        langs = corpus["lang"].to_pylist()
        for lang, cnt in buckets.items():
            assert cnt == sum(
                1 for i, l in enumerate(langs)
                if l == lang and corpus["doc_id"][i].as_py() in hits
            ), lang


class TestDateRanges:
    """Date-typed ranges over an ``extra_stored`` timestamp column
    (reference: strict datetime + DateRange fields,
    solrindexer/mmd.py:419-421)."""

    @pytest.fixture(scope="class")
    def didx(self, tmp_path_factory):
        from datetime import datetime, timedelta

        corpus = generate_corpus(120, seed=9, mean_tokens=40)
        base = datetime(2024, 3, 1)
        mtimes = [base + timedelta(hours=3 * i) for i in range(corpus.num_rows)]
        corpus = corpus.append_column(
            "mtime", pa.array(mtimes, pa.timestamp("us"))
        )
        path = tmp_path_factory.mktemp("dcorpus") / "c.parquet"
        pq.write_table(corpus, path, row_group_size=64)
        idx = str(tmp_path_factory.mktemp("didx") / "idx")
        build_index(
            str(path), idx,
            config=IndexConfig(concurrency=2, extra_stored=("mtime",)),
        )
        return idx, corpus

    def test_mtime_is_a_stored_and_range_field(self, didx):
        idx, _ = didx
        eng = SearchEngine(idx)
        assert "mtime" in eng.stored_fields
        assert "mtime" in eng.range_fields

    def test_strict_literal_range(self, didx):
        from datetime import datetime

        idx, corpus = didx
        eng = SearchEngine(idx)
        t = eng.search(
            "mtime:[2024-03-02T00:00:00Z TO 2024-03-04T00:00:00Z]",
            k=1000, fl=["doc_id", "mtime"],
        )
        lo, hi = datetime(2024, 3, 2), datetime(2024, 3, 4)
        want = [
            i for i, m in enumerate(corpus["mtime"].to_pylist())
            if lo <= m <= hi
        ]
        assert sorted(t["doc_id"].to_pylist()) == want
        assert all(lo <= m <= hi for m in t["mtime"].to_pylist())

    def test_exclusive_open_and_negated(self, didx):
        from datetime import datetime

        idx, corpus = didx
        eng = SearchEngine(idx)
        mts = corpus["mtime"].to_pylist()
        cut = datetime(2024, 3, 3)
        after = set(
            eng.search("mtime:{2024-03-03T00:00:00Z TO *]", k=1000,
                       fl=["doc_id"])["doc_id"].to_pylist()
        )
        assert after == {i for i, m in enumerate(mts) if m > cut}
        neg = set(eng.match_ids("-mtime:{2024-03-03T00:00:00Z TO *] def"))
        pos = set(eng.match_ids("def"))
        assert neg == {i for i in pos if mts[i] <= cut}

    def test_lenient_date_only_literals(self, didx):
        idx, _ = didx
        eng = SearchEngine(idx)
        a = eng.search("mtime:[2024-03-02 TO 2024-03-04]", k=1000,
                       fl=["doc_id"])
        b = eng.search(
            "mtime:[2024-03-02T00:00:00Z TO 2024-03-04T00:00:00Z]",
            k=1000, fl=["doc_id"],
        )
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_sort_and_stats_on_mtime(self, didx):
        idx, corpus = didx
        eng = SearchEngine(idx)
        t = eng.search("*:*", k=5, fl=["doc_id", "mtime"], sort="mtime desc")
        mts = t["mtime"].to_pylist()
        assert mts == sorted(mts, reverse=True)
        st = eng.field_stats("*:*", "mtime")
        assert st["count"] > 0
        assert st["min"] == min(corpus["mtime"].to_pylist())

    def test_bad_bound_raises(self, didx):
        idx, _ = didx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="datetime bound"):
            eng.search("mtime:[notadate TO *]", k=5)

    def test_unknown_range_field_still_raises(self, didx):
        idx, _ = didx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="unsupported field"):
            eng.search("nosuch:[1 TO 2]", k=5)

    def test_extend_inherits_extra_stored(self, didx, tmp_path):
        from datetime import datetime

        import shutil

        from solr_indexer_ray.pipelines.build import extend_index

        idx, corpus = didx
        idx2 = str(tmp_path / "idx2")
        shutil.copytree(idx, idx2)
        more = corpus.slice(0, 20).drop_columns(["doc_id"]) \
            if "doc_id" in corpus.column_names else corpus.slice(0, 20)
        p2 = tmp_path / "more.parquet"
        pq.write_table(more, p2)
        extend_index(str(p2), idx2)
        eng = SearchEngine(idx2)
        t = eng.search("mtime:[2024-03-01T00:00:00Z TO *]", k=2000,
                       fl=["doc_id"])
        assert t.num_rows == corpus.num_rows + 20


class TestDateRangeFacets:
    """Date-typed facet.range over a timestamp extra_stored column:
    bucket-start instant labels, before/after, zero buckets kept."""

    def test_vs_brute_force(self, dfidx):
        from datetime import datetime, timedelta, timezone

        idx, corpus = dfidx
        eng = SearchEngine(idx)
        out = eng.range_facet(
            "def read", "mtime",
            "2024-03-02T00:00:00Z", "2024-03-08T00:00:00Z", "+1DAY",
        )
        ids = set(eng.match_ids("def read").tolist())
        mt = corpus["mtime"].to_pylist()
        lo = datetime(2024, 3, 2)
        hi = datetime(2024, 3, 8)
        vals = [mt[d] for d in ids]
        exp_counts = {}
        for i in range(6):
            b0 = lo + timedelta(days=i)
            exp_counts[b0.strftime("%Y-%m-%dT%H:%M:%SZ")] = sum(
                b0 <= v < b0 + timedelta(days=1) for v in vals
            )
        assert dict(out["buckets"]) == exp_counts
        assert out["before"] == sum(v < lo for v in vals)
        assert out["after"] == sum(v >= hi for v in vals)
        # zero buckets present, labels ordered
        assert len(out["buckets"]) == 6

    def test_hour_gap_and_errors(self, dfidx):
        idx, _ = dfidx
        eng = SearchEngine(idx)
        out = eng.range_facet("def", "mtime", "2024-03-01T00:00:00Z",
                              "2024-03-01T12:00:00Z", "+6HOURS")
        assert [b for b, _ in out["buckets"]] == [
            "2024-03-01T00:00:00Z", "2024-03-01T06:00:00Z"]
        with pytest.raises(ValueError, match="bad date gap"):
            eng.range_facet("def", "mtime", "2024-03-01T00:00:00Z",
                            "2024-03-02T00:00:00Z", "+1FORTNIGHT")
        with pytest.raises(ValueError, match="timestamp"):
            eng.range_facet("def", "lang", "a", "b", "+1DAY")

    def test_month_gap_vs_brute_force(self, dfidx):
        from datetime import datetime

        idx, corpus = dfidx
        eng = SearchEngine(idx)
        out = eng.range_facet(
            "def", "mtime",
            "2024-01-01T00:00:00Z", "2024-05-01T00:00:00Z", "+1MONTH",
        )
        assert [b for b, _ in out["buckets"]] == [
            "2024-01-01T00:00:00Z", "2024-02-01T00:00:00Z",
            "2024-03-01T00:00:00Z", "2024-04-01T00:00:00Z"]
        ids = set(eng.match_ids("def").tolist())
        mt = corpus["mtime"].to_pylist()
        vals = [mt[d] for d in ids]
        edges = [datetime(2024, m, 1) for m in (1, 2, 3, 4, 5)]
        for (lab, cnt), lo, hi in zip(out["buckets"], edges, edges[1:]):
            assert cnt == sum(lo <= v < hi for v in vals)
        assert out["before"] == sum(v < edges[0] for v in vals)
        assert out["after"] == sum(v >= edges[-1] for v in vals)

    def test_month_gap_clamped_edges(self, dfidx):
        # Solr DateMathParser iterative semantics: day-of-month clamping
        # sticks (Jan 31 -> Feb 29 -> Mar 29 in a leap year)
        idx, _ = dfidx
        eng = SearchEngine(idx)
        out = eng.range_facet(
            "def", "mtime",
            "2024-01-31T00:00:00Z", "2024-04-01T00:00:00Z", "+1MONTH",
        )
        assert [b for b, _ in out["buckets"]] == [
            "2024-01-31T00:00:00Z", "2024-02-29T00:00:00Z",
            "2024-03-29T00:00:00Z"]

    def test_year_gap(self, dfidx):
        idx, _ = dfidx
        eng = SearchEngine(idx)
        out = eng.range_facet(
            "def", "mtime",
            "2023-01-01T00:00:00Z", "2025-01-01T00:00:00Z", "+1YEAR",
        )
        assert [b for b, _ in out["buckets"]] == [
            "2023-01-01T00:00:00Z", "2024-01-01T00:00:00Z"]
        # all corpus mtimes live in 2024 -> first bucket empty
        assert out["buckets"][0][1] == 0
        assert out["before"] == 0 and out["after"] == 0

    @pytest.fixture(scope="class")
    def dfidx(self, tmp_path_factory):
        from datetime import datetime, timedelta

        corpus = generate_corpus(120, seed=9, mean_tokens=40)
        base = datetime(2024, 3, 1)
        mtimes = [base + timedelta(hours=3 * i)
                  for i in range(corpus.num_rows)]
        corpus = corpus.append_column(
            "mtime", pa.array(mtimes, pa.timestamp("us"))
        )
        path = tmp_path_factory.mktemp("dfcorpus") / "c.parquet"
        pq.write_table(corpus, path, row_group_size=64)
        idx = str(tmp_path_factory.mktemp("dfidx") / "idx")
        build_index(
            str(path), idx,
            config=IndexConfig(concurrency=2, extra_stored=("mtime",)),
        )
        return idx, corpus


class TestRangeFacetPartitioned:
    """Distributed facet.range: per-range bucket partials must equal the
    single-engine implementation bucket for bucket (dates incl. calendar
    gaps, numeric doclen, fq, deletes)."""

    @pytest.fixture(scope="class")
    def dpidx(self, tmp_path_factory):
        from datetime import datetime, timedelta

        corpus = generate_corpus(140, seed=21, mean_tokens=40)
        base = datetime(2024, 1, 10)
        corpus = corpus.append_column(
            "mtime",
            pa.array([base + timedelta(hours=7 * i)
                      for i in range(corpus.num_rows)],
                     pa.timestamp("us")),
        )
        path = tmp_path_factory.mktemp("dpc") / "c.parquet"
        pq.write_table(corpus, path, row_group_size=32)
        idx = str(tmp_path_factory.mktemp("dpi") / "idx")
        build_index(
            str(path), idx,
            config=IndexConfig(docs_per_range=48, concurrency=2,
                               extra_stored=("mtime",)),
        )
        return idx

    @pytest.mark.parametrize("case", [
        ("def", "mtime", "2024-01-10T00:00:00Z", "2024-02-10T00:00:00Z",
         "+5DAYS", None),
        ("def read", "mtime", "2024-01-01T00:00:00Z",
         "2024-04-01T00:00:00Z", "+1MONTH", None),
        ("read", "mtime", "2024-01-10T00:00:00Z", "2024-01-20T00:00:00Z",
         "+12HOURS", ["lang:python"]),
        ("def", "doclen", 10, 100, 15, None),
        ("def", "doclen", 0, 25, 10, None),
    ])
    def test_identity_vs_single_engine(self, dpidx, case):
        from solr_indexer_ray.pipelines.search import (
            range_facet_partitioned,
        )

        q, fld, s, e, g, fq = case
        eng = SearchEngine(dpidx)
        single = eng.range_facet(q, fld, s, e, g, fq=fq)
        dist = range_facet_partitioned(dpidx, q, fld, s, e, g, fq=fq)
        assert dist == single

    @pytest.mark.parametrize("start,end,gap,bad", [
        (0, 10, 0.5, "gap=0.5"),
        (0, 10, 2.5, "gap=2.5"),
        (0.5, 10, 2, "start=0.5"),
    ])
    def test_fractional_doclen_bounds_rejected(self, dpidx, start, end,
                                               gap, bad):
        """doclen is an integer field: a fractional start/end/gap raises
        on both paths (Solr rejects it too) instead of being truncated."""
        from solr_indexer_ray.pipelines.search import (
            range_facet_partitioned,
        )

        eng = SearchEngine(dpidx)
        msg = f"'doclen'.*{re.escape(bad)}"
        with pytest.raises(ValueError, match=msg):
            eng.range_facet("def", "doclen", start, end, gap)
        with pytest.raises(ValueError, match=msg):
            range_facet_partitioned(dpidx, "def", "doclen", start, end, gap)

    def test_integral_float_doclen_bounds(self, dpidx):
        from solr_indexer_ray.pipelines.search import (
            range_facet_partitioned,
        )

        eng = SearchEngine(dpidx)
        single = eng.range_facet("def", "doclen", 10.0, 100.0, 15.0)
        assert single == eng.range_facet("def", "doclen", 10, 100, 15)
        assert [lo for lo, _ in single["buckets"]] == list(range(10, 100, 15))
        assert range_facet_partitioned(
            dpidx, "def", "doclen", 10.0, 100.0, 15.0
        ) == single

    def test_identity_after_deletes(self, dpidx, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines import mutate
        from solr_indexer_ray.pipelines.search import (
            range_facet_partitioned,
        )

        idx2 = str(tmp_path / "idx2")
        shutil.copytree(dpidx, idx2)
        mutate.delete_by_id(idx2, [3, 7, 50, 51, 52, 99])
        eng = SearchEngine(idx2)
        args = ("def", "mtime", "2024-01-10T00:00:00Z",
                "2024-02-10T00:00:00Z", "+1DAY")
        assert (range_facet_partitioned(idx2, *args)
                == eng.range_facet(*args))
