"""Next-word (adjacent-bigram) index — ``IndexConfig.store_bigrams``.

The combined-index design of Williams/Zobel/Bahle ("Fast Phrase Querying
with Combined Indexes", ACM TOIS 2004; Lucene's CommonGrams analogue
generalized to every pair): each adjacent token pair is indexed as a
synthetic ``a\\x1eb`` term whose tf IS the exact 2-term phrase frequency,
so a two-term phrase query is one postings lookup — and it must score
BIT-IDENTICALLY to the positional ExactPhraseMatcher path.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned
from solr_indexer_ray.sources.corpus import generate_corpus

CFG_BOTH = IndexConfig(docs_per_range=64,
                       store_positions=True, store_bigrams=True)
CFG_BG_ONLY = IndexConfig(docs_per_range=64,
                          store_bigrams=True)


@pytest.fixture(scope="module")
def bigram_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("bgidx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "both"), config=CFG_BOTH)
    build_index(str(d / "c.parquet"), str(d / "bg"), config=CFG_BG_ONLY)
    build_index(str(d / "c.parquet"), str(d / "pos"),
                config=IndexConfig(docs_per_range=64,
                                   store_positions=True))
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d), corpus.append_column("doc_id", ids)


def _bigram_queries(oracle):
    qs = []
    for doc, at in [(3, 5), (17, 2), (40, 9), (8, 0), (99, 3)]:
        t = oracle.tokens[doc]
        qs.append(f'"{t[at]} {t[at + 1]}"')
    qs += ['"the the"', '"zzqq wwxx"', '"read read"']
    return qs


class TestBigramPhraseIdentity:
    def test_bit_identical_to_positional_path(self, bigram_index):
        d, corpus = bigram_index
        eb = SearchEngine(f"{d}/both")
        ep = SearchEngine(f"{d}/pos")
        assert eb.has_bigrams and not ep.has_bigrams
        oracle = BruteForceBM25(corpus)
        for q in _bigram_queries(oracle):
            a = eb.search(q, k=200, fl=["doc_id"])
            b = ep.search(q, k=200, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_vs_brute_force_oracle(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")  # bigrams WITHOUT positions
        oracle = BruteForceBM25(corpus)
        for q in _bigram_queries(oracle):
            got = eng.search(q, k=12, fl=["doc_id"])
            exp = oracle.search(q, k=12)
            assert got["doc_id"].to_pylist() == [x for x, _ in exp], q
            assert got["score"].to_pylist() == [s for _, s in exp], q

    def test_mixed_clause_and_prohibited(self, bigram_index):
        d, corpus = bigram_index
        eb = SearchEngine(f"{d}/both")
        ep = SearchEngine(f"{d}/pos")
        oracle = BruteForceBM25(corpus)
        base = _bigram_queries(oracle)[0]
        for q in (f"{base} read", f"-{base} parse",
                  f"lang:python {base}^2.5", f"{base} AND merge"):
            a = eb.search(q, k=50, fl=["doc_id"])
            b = ep.search(q, k=50, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_chained_longer_phrases_identical(self, bigram_index):
        """3+-term phrases on the combined index evaluate by CHAINING the
        pair position streams — must stay bit-identical to the member
        positional matcher, including duplicate members and misses."""
        d, corpus = bigram_index
        eb = SearchEngine(f"{d}/both")
        ep = SearchEngine(f"{d}/pos")
        toks = BruteForceBM25(corpus).tokens
        qs = []
        for doc, at, n in [(8, 0, 3), (3, 5, 4), (17, 2, 5), (40, 1, 3)]:
            t = toks[doc]
            qs.append('"' + " ".join(t[at:at + n]) + '"')
        qs += ['"the the the"', '"read parse zzqq"',
               f'-"{toks[8][0]} {toks[8][1]} {toks[8][2]}" read']
        for q in qs:
            a = eb.search(q, k=20, fl=["doc_id"])
            b = ep.search(q, k=20, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_chained_distributed_identical(self, bigram_index):
        d, corpus = bigram_index
        toks = BruteForceBM25(corpus).tokens
        t = toks[8]
        qs = ['"' + " ".join(t[0:3]) + '"',
              '"' + " ".join(toks[3][5:9]) + '" read']
        for q in qs:
            a = search_partitioned(f"{d}/both", q, k=20)
            b = search_partitioned(f"{d}/pos", q, k=20)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_chained_pf3_boost_identical(self, bigram_index):
        d, corpus = bigram_index
        eb = SearchEngine(f"{d}/both")
        ep = SearchEngine(f"{d}/pos")
        t = BruteForceBM25(corpus).tokens[8]
        q = " ".join(t[0:3])
        a = eb.search(q, k=20, fl=["doc_id"], pf3="content^2")
        b = ep.search(q, k=20, fl=["doc_id"], pf3="content^2")
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()


class TestBigramOnlyIndex:
    def test_two_term_phrase_without_positions(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")
        assert not eng.has_positions and eng.has_bigrams
        oracle = BruteForceBM25(corpus)
        q = _bigram_queries(oracle)[0]
        assert eng.search(q, k=5).num_rows > 0

    def test_three_term_and_near_still_need_positions(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")
        t = BruteForceBM25(corpus).tokens[8]
        with pytest.raises(ValueError, match="positions"):
            eng.search(f'"{t[0]} {t[1]} {t[2]}"')
        with pytest.raises(ValueError, match="positions"):
            eng.search(f'"{t[0]} {t[1]}"~3')


class TestBigramDictionaryHygiene:
    """Synthetic ``\\x1e`` terms must never leak into user-facing term
    scans: terms(), top_terms, wildcard expansion, suggest, luke."""

    def test_terms_and_scans_exclude_bigrams(self, bigram_index):
        d, _ = bigram_index
        eng = SearchEngine(f"{d}/both")
        for t, _df in eng.terms(prefix="", limit=1000):
            assert "\x1e" not in t
        for row in eng.suggest("parze", count=5):
            assert "\x1e" not in row[0]
        luke = eng.luke()
        plain = SearchEngine(f"{d}/pos").luke()
        assert luke["n_terms"] == plain["n_terms"]

    def test_wildcard_and_stats_parity(self, bigram_index):
        d, _ = bigram_index
        eb = SearchEngine(f"{d}/both")
        ep = SearchEngine(f"{d}/pos")
        a = eb.search("pars*", k=30, fl=["doc_id"])
        b = ep.search("pars*", k=30, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        # BM25 term queries are untouched by the extra postings
        a = eb.search("parse read", k=30, fl=["doc_id"])
        b = ep.search("parse read", k=30, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()


class TestBigramDistributed:
    """Range engines serve eligible 2-term phrase shapes from bigram
    postings rows — distributed works WITHOUT positions and stays
    bit-identical to the single engine (which is itself positional-path
    identical, proven above)."""

    def test_partitioned_identical_bigram_only(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")
        assert not eng.has_positions
        oracle = BruteForceBM25(corpus)
        base = _bigram_queries(oracle)
        mixed = base[:3] + [
            f"{base[0]} read", f"-{base[1]} parse merge",
            f"lang:python {base[2]}^2.5",
        ]
        for q in mixed:
            s = eng.search(q, k=10, fl=["doc_id"])
            p = search_partitioned(f"{d}/bg", q, k=10)
            assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist(), q
            assert p["score"].to_pylist() == s["score"].to_pylist(), q

    def test_partitioned_grouped_boolean(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")
        base = _bigram_queries(BruteForceBM25(corpus))[0]
        for q in (f"({base} OR parse) AND read", f"(read OR merge) {base}"):
            s = eng.search(q, k=10, fl=["doc_id"])
            p = search_partitioned(f"{d}/bg", q, k=10)
            assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist(), q
            assert p["score"].to_pylist() == s["score"].to_pylist(), q

    def test_partitioned_match_all_prohibited_phrase(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")
        base = _bigram_queries(BruteForceBM25(corpus))[0]
        q = f"-{base}"
        s = eng.search(q, k=20, fl=["doc_id"])
        p = search_partitioned(f"{d}/bg", q, k=20)
        assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist()
        assert p["score"].to_pylist() == s["score"].to_pylist()

    def test_partitioned_pf_boost(self, bigram_index):
        d, corpus = bigram_index
        eng = SearchEngine(f"{d}/bg")
        s = eng.search("parse read", k=10, fl=["doc_id"],
                       pf="content^2")
        p = search_partitioned(f"{d}/bg", "parse read", k=10,
                               pf="content^2")
        assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist()
        assert p["score"].to_pylist() == s["score"].to_pylist()

    def test_partitioned_three_term_error_parity(self, bigram_index):
        d, corpus = bigram_index
        t = BruteForceBM25(corpus).tokens[8]
        q = f'"{t[0]} {t[1]} {t[2]}"'
        with pytest.raises(ValueError, match="positions"):
            search_partitioned(f"{d}/bg", q, k=10)

    def test_partitioned_both_index_matches_positional(self, bigram_index):
        d, corpus = bigram_index
        oracle = BruteForceBM25(corpus)
        for q in _bigram_queries(oracle)[:3]:
            a = search_partitioned(f"{d}/both", q, k=10)
            b = search_partitioned(f"{d}/pos", q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q


class TestBigramFirstRestriction:
    """IndexConfig.bigram_first (common-word nextword index): only pairs
    led by the pinned list are indexed; query routing applies the SAME
    list, so covered phrases stay bit-identical and uncovered ones fall
    back to the positional matcher (or its clear rebuild error)."""

    @pytest.fixture(scope="class")
    def first_index(self, tmp_path_factory, ray_session, bigram_index):
        d, corpus = bigram_index
        toks = BruteForceBM25(corpus).tokens
        covered_lead = toks[3][5]      # a real pair lead
        out = tmp_path_factory.mktemp("bgfirst")
        cfg = IndexConfig(docs_per_range=64,
                          store_positions=True, store_bigrams=True,
                          bigram_first=("the", "read", covered_lead))
        pq.write_table(corpus.drop_columns(["doc_id"]),
                       str(out / "c.parquet"), row_group_size=32)
        build_index(str(out / "c.parquet"), str(out / "idx"), config=cfg)
        return str(out / "idx"), corpus, covered_lead

    def test_stats_pin_and_dictionary(self, first_index, bigram_index):
        idx, corpus, lead = first_index
        eng = SearchEngine(idx)
        assert eng.has_bigrams and eng.bigram_first == frozenset(
            {"the", "read", lead}
        )
        # the restricted dictionary is a strict subset of the full one
        full = SearchEngine(f"{bigram_index[0]}/both")
        n_restricted = sum(
            1 for t, _ in eng.terms(prefix="", limit=10**6)
        )
        assert n_restricted == sum(
            1 for t, _ in full.terms(prefix="", limit=10**6)
        )  # user-facing dictionaries identical (synthetic terms hidden)

    def test_covered_phrases_identical(self, first_index, bigram_index):
        idx, corpus, lead = first_index
        eng = SearchEngine(idx)
        ep = SearchEngine(f"{bigram_index[0]}/pos")
        toks = BruteForceBM25(corpus).tokens
        t = toks[3]
        at = t.index(lead)
        qs = [f'"{lead} {t[at + 1]}"', f'"read {toks[17][0]}"']
        for q in qs:
            a = eng.search(q, k=20, fl=["doc_id"])
            b = ep.search(q, k=20, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_uncovered_phrase_positional_fallback(self, first_index,
                                                  bigram_index):
        idx, corpus, _ = first_index
        eng = SearchEngine(idx)
        ep = SearchEngine(f"{bigram_index[0]}/pos")
        oracle = BruteForceBM25(corpus)
        for q in _bigram_queries(oracle)[:4]:   # arbitrary leads
            a = eng.search(q, k=20, fl=["doc_id"])
            b = ep.search(q, k=20, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_distributed_parity(self, first_index, bigram_index):
        idx, corpus, lead = first_index
        toks = BruteForceBM25(corpus).tokens
        t = toks[3]
        at = t.index(lead)
        for q in (f'"{lead} {t[at + 1]}"', f'"{t[0]} {t[1]}" read'):
            a = search_partitioned(idx, q, k=20)
            b = search_partitioned(f"{bigram_index[0]}/pos", q, k=20)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q


class TestBigramComposition:
    """Bigrams compose with the token-filter chain (pairs form over the
    POST-filter stream, exactly where positional adjacency lives) and
    with extra analyzed fields (pairs come from the content stream
    only)."""

    def test_with_filter_chain(self, tmp_path, ray_session):
        corpus = generate_corpus(120, seed=7, mean_tokens=40)
        pq.write_table(corpus, str(tmp_path / "c.parquet"),
                       row_group_size=32)
        base = dict(docs_per_range=64,
                    filters=("stop", "porter"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "bg"),
                    config=IndexConfig(**base, store_positions=True,
                                       store_bigrams=True))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "pos"),
                    config=IndexConfig(**base, store_positions=True))
        eb = SearchEngine(str(tmp_path / "bg"))
        ep = SearchEngine(str(tmp_path / "pos"))
        ids = pa.array(range(corpus.num_rows), pa.int64())
        # raw adjacent pairs: the engines analyze the query through the
        # same chain, so post-filter match-or-miss is A/B-identical
        oracle = BruteForceBM25(corpus.append_column("doc_id", ids))
        for doc, at in [(3, 5), (17, 2), (40, 9)]:
            t = oracle.tokens[doc]
            for q in (f'"{t[at]} {t[at + 1]}"',
                      f'"{t[at]} {t[at + 1]} {t[at + 2]}"'):
                a = eb.search(q, k=20, fl=["doc_id"])
                b = ep.search(q, k=20, fl=["doc_id"])
                assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
                assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_with_analyzed_fields(self, tmp_path, ray_session):
        corpus = generate_corpus(120, seed=9, mean_tokens=40)
        pq.write_table(corpus, str(tmp_path / "c.parquet"),
                       row_group_size=32)
        base = dict(docs_per_range=64,
                    analyzed_fields=("path_text:path",))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "bg"),
                    config=IndexConfig(**base, store_positions=True,
                                       store_bigrams=True))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "pos"),
                    config=IndexConfig(**base, store_positions=True))
        eb = SearchEngine(str(tmp_path / "bg"))
        ep = SearchEngine(str(tmp_path / "pos"))
        ids = pa.array(range(corpus.num_rows), pa.int64())
        oracle = BruteForceBM25(corpus.append_column("doc_id", ids))
        t = oracle.tokens[8]
        for q in (f'"{t[0]} {t[1]}"', f'"{t[0]} {t[1]}" path_text:mod0',
                  "path_text:mod0 parse"):
            a = eb.search(q, k=20, fl=["doc_id"])
            b = ep.search(q, k=20, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q


class TestBigramLifecycle:
    def test_extend_delete_compact(self, bigram_index, tmp_path):
        d, corpus = bigram_index
        idx = str(tmp_path / "idx")
        base = corpus.drop_columns(["doc_id"])
        pq.write_table(base.slice(0, 100), str(tmp_path / "a.parquet"),
                       row_group_size=32)
        pq.write_table(base.slice(100), str(tmp_path / "b.parquet"),
                       row_group_size=32)
        build_index(str(tmp_path / "a.parquet"), idx, config=CFG_BOTH)
        stats = extend_index(str(tmp_path / "b.parquet"), idx)
        assert stats["n_docs"] == corpus.num_rows
        eng = SearchEngine(idx)
        assert eng.has_bigrams  # inherited from committed stats
        oracle = BruteForceBM25(corpus)
        q = _bigram_queries(oracle)[0]
        full = SearchEngine(f"{d}/both").search(q, k=50, fl=["doc_id"])
        got = eng.search(q, k=50, fl=["doc_id"])
        assert got["doc_id"].to_pylist() == full["doc_id"].to_pylist()
        assert got["score"].to_pylist() == full["score"].to_pylist()
        victim = got["doc_id"][0].as_py()
        mutate.delete_by_id(idx, [victim])
        mutate.compact_index(idx)
        eng2 = SearchEngine(idx)
        assert victim not in eng2.search(q, k=50,
                                         fl=["doc_id"])["doc_id"].to_pylist()

    def test_fsck_green(self, bigram_index):
        from solr_indexer_ray.pipelines.fsck import check_index

        d, _ = bigram_index
        rep = check_index(f"{d}/both")
        assert rep["ok"], rep["problems"]
