"""Solr ``sort`` param — field-ranked retrieval over the full match set:
asc/desc keys on stored fields / score / doc_id, ascending-doc_id
tie-break, None-last semantics."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def sidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("sidx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    corpus = corpus.append_column("doc_id", ids)
    oracle = BruteForceBM25(corpus)
    df = corpus.to_pandas()
    df["doclen"] = [len(tk) for tk in oracle.tokens]
    return str(d / "idx"), oracle, df


def expected(oracle, df, q, cols, asc, k=8):
    hits = {d for d, _ in oracle.search(q, k=10**9)}
    sub = df[df.doc_id.isin(hits)].sort_values(
        [*cols, "doc_id"], ascending=[*asc, True], kind="mergesort"
    )
    return sub.doc_id.tolist()[:k]


CASES = [
    ("def", "doclen desc", ["doclen"], [False]),
    ("def", "doclen asc", ["doclen"], [True]),
    ("def read", "lang asc, doclen desc", ["lang", "doclen"], [True, False]),
    ("*:*", "path desc", ["path"], [False]),
    ("doclen:[30 TO 90] def", "repo asc", ["repo"], [True]),
    ('"def index"', "doclen asc", ["doclen"], [True]),
    ("pars*", "doclen desc", ["doclen"], [False]),
]


class TestSort:
    @pytest.mark.parametrize("q,spec,cols,asc", CASES)
    def test_vs_pandas(self, sidx, q, spec, cols, asc):
        idx, oracle, df = sidx
        got = SearchEngine(idx).search(q, k=8, fl=["doc_id"], sort=spec)
        assert got["doc_id"].to_pylist() == expected(oracle, df, q, cols, asc)

    def test_score_sort_equals_default(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        a = eng.search("def read", k=8, fl=["doc_id"], sort="score desc")
        b = eng.search("def read", k=8, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_doc_id_tiebreak_within_equal_keys(self, sidx):
        idx, _, df = sidx
        eng = SearchEngine(idx)
        t = eng.search("*:*", k=df.shape[0], fl=["doc_id", "lang"],
                       sort="lang asc")
        rows = list(zip(t["lang"].to_pylist(), t["doc_id"].to_pylist()))
        assert rows == sorted(rows)

    def test_paging_relevance(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        full = eng.search("def read", k=9, fl=["doc_id"])
        for start in (0, 3, 6):
            page = eng.search("def read", k=3, fl=["doc_id"], start=start)
            assert (
                page["doc_id"].to_pylist()
                == full["doc_id"].to_pylist()[start:start + 3]
            )
            assert (
                page["score"].to_pylist()
                == full["score"].to_pylist()[start:start + 3]
            )

    def test_paging_sorted(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        full = eng.search("def", k=9, fl=["doc_id"], sort="doclen desc")
        page = eng.search("def", k=3, fl=["doc_id"], sort="doclen desc",
                          start=3)
        assert page["doc_id"].to_pylist() == full["doc_id"].to_pylist()[3:6]

    def test_paging_past_end_is_empty(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        assert eng.search("def", k=5, start=10**6).num_rows == 0
        with pytest.raises(ValueError, match="start"):
            eng.search("def", start=-1)

    def test_errors(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="unknown field"):
            eng.search("def", sort="nosuch asc")
        with pytest.raises(ValueError, match="direction"):
            eng.search("def", sort="doclen sideways")
        with pytest.raises(ValueError, match="empty sort"):
            eng.search("def", sort=" , ")


class TestTermsAndStats:
    """Solr /terms enumeration + stats component (same module fixture)."""

    def test_terms_order_and_prefix(self, sidx):
        idx, oracle, _ = sidx
        eng = SearchEngine(idx)
        got = eng.terms(limit=15)
        exp = sorted(oracle.df.items(), key=lambda r: (-r[1], r[0]))[:15]
        assert got == exp
        got_p = eng.terms(prefix="pars", limit=50)
        assert got_p and all(t.startswith("pars") for t, _ in got_p)
        assert dict(got_p) == {
            t: c for t, c in oracle.df.items() if t.startswith("pars")
        }

    def test_terms_mincount(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        assert all(c >= 40 for _, c in eng.terms(limit=100, mincount=40))

    def test_field_stats(self, sidx):
        idx, oracle, df = sidx
        eng = SearchEngine(idx)
        st = eng.field_stats("def", "doclen")
        hits = {d for d, _ in oracle.search("def", k=10**9)}
        dls = df[df.doc_id.isin(hits)]["doclen"]
        assert st["count"] == len(dls)
        assert st["min"] == dls.min() and st["max"] == dls.max()
        assert st["sum"] == dls.sum()
        assert st["mean"] == pytest.approx(dls.mean())

    def test_field_stats_bad_field(self, sidx):
        idx, _, _ = sidx
        with pytest.raises(ValueError, match="stats"):
            SearchEngine(idx).field_stats("def", "nosuch")


class TestSuggest:
    """Spellcheck component: edit-distance suggestions over the term dict."""

    def test_misspelling_finds_term(self, sidx):
        idx, oracle, _ = sidx
        eng = SearchEngine(idx)
        out = eng.suggest("parze", count=5)
        assert out and out[0][0] == "parse" and out[0][1] == 1
        assert out[0][2] == oracle.df["parse"]

    def test_order_distance_then_df(self, sidx):
        idx, _, _ = sidx
        out = SearchEngine(idx).suggest("merg", count=10)
        keys = [(d, -df, t) for t, d, df in out]
        assert keys == sorted(keys)

    def test_exact_word_excluded_and_cap(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        assert all(t != "parse" for t, _, _ in eng.suggest("parse"))
        assert eng.suggest("qqqqzzzz") == []
        assert eng.suggest("") == []

    def test_autocomplete(self, sidx):
        idx, oracle, corpus = sidx
        eng = SearchEngine(idx)
        out = eng.autocomplete("pa", count=5)
        assert out
        # ranking mirrors /terms (df desc, term asc) on the prefix scan
        exp = sorted(eng.terms(prefix="pa", limit=10 ** 9),
                     key=lambda t: (-t[1], t[0]))[:5]
        assert out == exp
        assert eng.autocomplete("") == []
        assert eng.autocomplete("zzzz") == []

    def test_autocomplete_context(self, sidx):
        idx, oracle, corpus = sidx
        eng = SearchEngine(idx)
        ctx = set(eng.match_ids("lang:python").tolist())
        out = eng.autocomplete("pa", count=10,
                               context_fq=["lang:python"])
        for t_, w in out:
            tp = eng.lookup_postings([t_])[t_]
            assert w == len(set(tp.doc_ids.tolist()) & ctx)
            assert w > 0
        ws = [w for _, w in out]
        assert ws == sorted(ws, reverse=True)

    def test_collate(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        out = eng.collate("parze merge")
        assert out["collation"] == "parse merge"
        assert out["corrections"] == {"parze": "parse"}
        assert out["hits"] == len(eng.match_ids("parse merge"))
        # nothing misspelled -> no collation, hits of the original
        ok = eng.collate("parse merge")
        assert ok["collation"] is None and ok["corrections"] == {}
        assert ok["hits"] == len(eng.match_ids("parse merge"))
        # unknown beyond edit distance passes through uncorrected
        far = eng.collate("qqqqzzzz merge")
        assert far["collation"] is None
        # filters / boosts / phrases survive untouched around the fix
        mix = eng.collate("lang:python parze^2 merge")
        assert mix["corrections"] == {"parze": "parse"}
        # boosted token is not a bare term: left as-is in the collation
        assert mix["collation"] == "lang:python parze^2 merge"

    def test_vs_brute_force(self, sidx):
        idx, oracle, _ = sidx

        def lev(a, b):
            import numpy as np
            m = np.arange(len(b) + 1)
            for i, ca in enumerate(a, 1):
                prev, m[0] = m[0], i
                for j, cb in enumerate(b, 1):
                    prev, m[j] = m[j], min(m[j] + 1, m[j - 1] + 1,
                                           prev + (ca != cb))
            return int(m[len(b)])

        for w in ("window", "strem", "clas"):
            exp = sorted(
                (lev(w, t), -c, t)
                for t, c in oracle.df.items()
                if t != w and lev(w, t) <= 2
            )[:5]
            got = SearchEngine(idx).suggest(w, count=5)
            assert got == [(t, d, -nc) for d, nc, t in exp], w


class TestFilterQueries:
    """Solr fq param: cached filter masks restrict without scoring."""

    def test_fq_equals_inline_filter(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        cases = [
            ("read merge", ["lang:python"], "lang:python read merge"),
            ("read", ["doclen:[30 TO 90]"], "doclen:[30 TO 90] read"),
            ("read", ["lang:python", "doclen:[30 TO 90]"],
             "lang:python doclen:[30 TO 90] read"),
        ]
        for q, fq, inline in cases:
            a = eng.search(q, k=10, fl=["doc_id"], fq=fq)
            b = eng.search(inline, k=10, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (q, fq)
            assert a["score"].to_pylist() == b["score"].to_pylist(), (q, fq)

    def test_fq_term_restricts_without_scoring(self, sidx):
        idx, oracle, _ = sidx
        eng = SearchEngine(idx)
        a = eng.search("read", k=30, fl=["doc_id"], fq="def")
        allowed = {d for d, _ in oracle.search("read", k=10**9)} & {
            d for d, _ in oracle.search("def", k=10**9)
        }
        assert set(a["doc_id"].to_pylist()) <= allowed and a.num_rows
        plain = dict(
            zip(eng.search("read", k=200, fl=["doc_id"])["doc_id"].to_pylist(),
                eng.search("read", k=200, fl=["doc_id"])["score"].to_pylist())
        )
        for d, s in zip(a["doc_id"].to_pylist(), a["score"].to_pylist()):
            assert plain[d] == s  # fq contributes nothing to the score

    def test_fq_with_sort_and_paging(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        a = eng.search("read", k=5, fl=["doc_id"], sort="doclen desc",
                       fq="lang:python")
        b = eng.search("lang:python read", k=5, fl=["doc_id"],
                       sort="doclen desc")
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        p1 = eng.search("read", k=3, fl=["doc_id"], fq="lang:python", start=2)
        full = eng.search("read", k=5, fl=["doc_id"], fq="lang:python")
        assert p1["doc_id"].to_pylist() == full["doc_id"].to_pylist()[2:5]

    def test_fq_cache_reused(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        eng.search("read", k=3, fq="lang:python")
        assert "lang:python" in eng._cache.maps["fq"]
        eng.search("merge", k=3, fq="lang:python")  # hits the cache
        assert len(eng._cache.maps["fq"]) == 1
        fq = eng.cache_stats()["fq"]
        assert (fq["hits"], fq["misses"], fq["entries"]) == (1, 1, 1)


class TestCursorPaging:
    """Solr cursorMark / Lucene searchAfter: O(k) deep pages that walk the
    exact full ranking."""

    @pytest.mark.parametrize("q", ["def read", "def", "*:*",
                                   '"def index"', "pars*"])
    def test_walks_full_ranking(self, sidx, q):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        full = eng.search(q, k=500, fl=["doc_id"])
        paged, cursor = [], None
        while True:
            page = eng.search(q, k=7, fl=["doc_id"], search_after=cursor)
            if page.num_rows == 0:
                break
            paged += page["doc_id"].to_pylist()
            cursor = (page["score"][-1].as_py(), page["doc_id"][-1].as_py())
        assert paged == full["doc_id"].to_pylist(), q

    def test_rejects_sort_and_start(self, sidx):
        idx, _, _ = sidx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="search_after"):
            eng.search("def", search_after=(1.0, 2), sort="doclen asc")
        with pytest.raises(ValueError, match="search_after"):
            eng.search("def", search_after=(1.0, 2), start=3)


class TestFuzzyScan:
    """Sorted-array trie walk (Levenshtein automaton analogue) used by
    suggest/expand_fuzzy — vs a brute-force DP reference."""

    @staticmethod
    def _lev(a, b):
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[len(b)]

    def test_randomized_vs_bruteforce(self):
        import random
        from solr_indexer_ray.pipelines.search import _fuzzy_scan
        rng = random.Random(11)
        for _ in range(120):
            vocab = sorted({
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 50))
            })
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
            cap = rng.randint(1, 3)
            got = set(_fuzzy_scan(w, vocab, cap))
            exp = {(i, self._lev(w, t)) for i, t in enumerate(vocab)
                   if self._lev(w, t) <= cap}
            assert got == exp

    def test_prefix_skip_codepoint_bound(self):
        # subtree skip at the top of the codepoint range must not drop
        # or loop on terms starting with U+10FFFF
        from solr_indexer_ray.pipelines.search import _fuzzy_scan
        hi = chr(0x10FFFF)
        vocab = sorted(["z", "z" + hi, hi, hi * 2, hi + "a"])
        got = set(_fuzzy_scan("z", vocab, 1))
        exp = {(i, self._lev("z", t)) for i, t in enumerate(vocab)
               if self._lev("z", t) <= 1}
        assert got == exp

    def test_adversarial_vocab_fast(self):
        # 40k near-identical identifiers: the walk must prune subtrees,
        # not DP the whole dictionary (was ~1.6 s, budget 150 ms here)
        import time
        from solr_indexer_ray.pipelines.search import _fuzzy_scan
        vocab = sorted({
            f"handler_{a}{b}{c}{d}"
            for a in "abcdefghij" for b in "abcdefghij"
            for c in "abcdefghij"
            for d in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"
        })
        t0 = time.time()
        out = _fuzzy_scan("handelr_abcd", vocab, 2)
        assert (time.time() - t0) < 0.15
        assert out  # transposition costs 2 classic edits -> matches exist
