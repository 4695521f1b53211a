"""Wildcard (prefix) queries — Solr/Lucene CONSTANT_SCORE multi-term
rewrite: the clause adds exactly 1.0 for every doc containing any
expansion.  Rank identity vs the oracle, expansion cap, match-all,
wildcard metadata filters."""

import numpy as np
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
    def test_prefix(self):
        p = parse_query("pars* x", _analyze)
        assert p.prefixes == ["pars"] and p.terms == ["x"]

    def test_prohibited_prefix(self):
        p = parse_query("-pars* x", _analyze)
        assert p.must_not.prefixes == ["pars"] and not p.prefixes

    def test_match_all(self):
        assert parse_query("*:*", _analyze).is_match_all
        assert parse_query("*", _analyze).is_match_all

    def test_filter_value_wildcard_kept_verbatim(self):
        p = parse_query("path:src/mod1* x", _analyze)
        assert p.filters == [("path", "src/mod1*")]

    def test_bare_star_not_a_prefix(self):
        # "*" alone is match-all, not an empty prefix
        p = parse_query("* x", _analyze)
        assert not p.prefixes and p.terms == ["x"]

    def test_infix_star_is_a_term(self):
        # only trailing-* is wildcard syntax; infix stays a term (analyzed)
        p = parse_query("a*b", _analyze)
        assert not p.prefixes


@pytest.fixture(scope="module")
def widx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("widx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


QUERIES = [
    "pars*",
    "read pars*",
    "pars* AND merge",
    "-pars* read",
    "path:src/mod1* read",
    'lang:py* "def index"',
    "zzz*",
    "zzz* AND read",
    "*:*",
    "pars* ind*",
]


class TestWildcardRankIdentity:
    def test_vs_oracle(self, widx):
        idx, corpus = widx
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in QUERIES:
            got = eng.search(q, k=12, fl=["doc_id"])
            exp = oracle.search(q, k=12)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
            assert got["score"].to_pylist() == [s for _, s in exp], q

    def test_partitioned_identical(self, widx):
        idx, _ = widx
        eng = SearchEngine(idx)
        for q in QUERIES:
            s = eng.search(q, k=10, fl=["doc_id"])
            p = search_partitioned(idx, q, k=10)
            assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist(), q
            assert p["score"].to_pylist() == s["score"].to_pylist(), q

    def test_expansion_matches_term_dictionary(self, widx):
        idx, corpus = widx
        eng = SearchEngine(idx)
        oracle = BruteForceBM25(corpus)
        expanded = set(eng.expand_prefix("pars"))
        expect = {t for t in oracle.df if t.startswith("pars")}
        assert expanded == expect and expanded

    def test_too_many_clauses(self, widx):
        idx, _ = widx
        eng = SearchEngine(idx)
        eng.max_expansions = 2
        with pytest.raises(ValueError, match="max_expansions"):
            eng.search("p*")

    def test_constant_score_is_exactly_one(self, widx):
        idx, _ = widx
        eng = SearchEngine(idx)
        t = eng.search("zzznothing OR pars*", k=5, fl=["doc_id"])
        assert t.num_rows and all(
            s == 1.0 for s in t["score"].to_pylist()
        )


class TestBoosts:
    """Lucene query-time boosts: clause contribution x boost for terms,
    phrases, and constant-score wildcards; rank identity preserved."""

    BOOSTED = ["read^2 merge", "read^0.5 AND merge", '"def index"^3 read',
               "pars*^2 merge", "read^2 merge^2", "read^1 merge"]

    def test_vs_oracle(self, widx):
        idx, corpus = widx
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in self.BOOSTED:
            got = eng.search(q, k=12, fl=["doc_id"])
            exp = oracle.search(q, k=12)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
            assert got["score"].to_pylist() == [s for _, s in exp], q

    def test_partitioned_and_bmw_identical(self, widx):
        idx, _ = widx
        eng = SearchEngine(idx)
        for q in self.BOOSTED:
            s = eng.search(q, k=10, fl=["doc_id"])
            p = search_partitioned(idx, q, k=10)
            assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist(), q
            assert p["score"].to_pylist() == s["score"].to_pylist(), q

    def test_boost_changes_ranking(self, widx):
        idx, _ = widx
        eng = SearchEngine(idx)
        plain = eng.search("read merge", k=30, fl=["doc_id"])
        boosted = eng.search("read merge^5", k=30, fl=["doc_id"])
        assert plain["doc_id"].to_pylist() != boosted["doc_id"].to_pylist()

    def test_parser_forms(self, widx):
        from solr_indexer_ray.functions.queryparse import parse_query

        p = parse_query('a^2 "b c"^3 d*^1.5 e', str.split)
        assert p.boosts == {"a": 2.0}
        assert p.phrase_boosts == {("b", "c"): 3.0}
        assert p.prefix_boosts == {"d": 1.5}
        assert "e" not in p.boosts


def test_terms_sort_index(built_index):
    """terms.sort=index: ascending term order, same (term, df) pairs as
    the count-sorted default."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    index_dir, _ = built_index
    e = SearchEngine(index_dir)
    by_count = e.terms(prefix="pa", limit=10**6)
    by_index = e.terms(prefix="pa", limit=10**6, sort="index")
    assert [t for t, _ in by_index] == sorted(t for t, _ in by_index)
    assert dict(by_index) == dict(by_count)
