"""Positional postings + phrase queries (Lucene PhraseQuery semantics:
tf = exact-phrase frequency, idf = sum of member-term idfs) — rank-identity
vs the brute-force oracle, plus the positional lifecycle (extend, delete,
compact) and the parser's quoted grammar."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import parse_query
from solr_indexer_ray.functions.varint import decode_positions, encode_positions
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=64, store_positions=True)


def _analyze(s):
    return s.lower().split()


class TestParser:
    def test_phrase(self):
        p = parse_query('"foo bar" baz', _analyze)
        assert p.phrases == [["foo", "bar"]]
        assert p.terms == ["baz"]

    def test_single_term_phrase_rewrites_to_term(self):
        p = parse_query('"foo"', _analyze)
        assert p.terms == ["foo"] and not p.phrases

    def test_prohibited_phrase(self):
        p = parse_query('-"foo bar" baz', _analyze)
        assert p.must_not.phrases == [["foo", "bar"]] and not p.phrases
        assert p.terms == ["baz"]

    def test_quoted_field_filter(self):
        p = parse_query('lang:"go" x', _analyze)
        assert p.filters == [("lang", "go")]

    def test_negated_filter(self):
        p = parse_query("-lang:go x", _analyze)
        assert p.must_not.filters == [("lang", "go")] and not p.filters
        q = parse_query('-lang:"go go" x', _analyze)
        assert q.must_not.filters == [("lang", "go go")]

    def test_unknown_field_phrase_scores(self):
        p = parse_query('content:"foo bar"', _analyze)
        assert p.phrases == [["foo", "bar"]]


class TestPositionsCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 9, size=50)
        segs = [np.sort(rng.choice(5000, size=c, replace=False)) for c in counts]
        flat = np.concatenate(segs)
        buf = encode_positions(counts, flat)
        back, offs = decode_positions(buf, counts)
        assert np.array_equal(back, flat)
        assert np.array_equal(offs, np.concatenate(([0], np.cumsum(counts))))

    def test_empty(self):
        flat, offs = decode_positions(b"", np.array([], dtype=np.int64))
        assert flat.size == 0 and offs.tolist() == [0]


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("posidx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    stats = build_index(str(d / "c.parquet"), str(d / "idx"), config=CFG)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids), stats


def _phrase_queries(oracle):
    """Real bigrams/trigrams drawn from the corpus + adversarial forms."""
    qs = []
    for doc, at in [(3, 5), (17, 2), (40, 9)]:
        t = oracle.tokens[doc]
        qs.append(f'"{t[at]} {t[at + 1]}"')
    t = oracle.tokens[8]
    qs.append(f'"{t[0]} {t[1]} {t[2]}"')            # trigram
    qs += [
        f'{qs[0]} AND read',                         # phrase AND term
        f'parse {qs[1]}',                            # OR mix
        f'-{qs[0]} parse',                           # prohibited phrase
        f'lang:python {qs[2]}',                      # filter + phrase
        '"the the"',                                 # repeated-term phrase
        '"zzqq wwxx"',                               # no such phrase
    ]
    return qs


class TestPhraseRankIdentity:
    def test_vs_oracle(self, pos_index):
        idx, corpus, stats = pos_index
        assert stats["store_positions"] is True
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in _phrase_queries(oracle):
            got = eng.search(q, k=12, fl=["doc_id"])
            exp = oracle.search(q, k=12)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
            assert got["score"].to_pylist() == [s for _, s in exp], q

    def test_partitioned_identical(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in _phrase_queries(oracle)[:6]:
            s = eng.search(q, k=10, fl=["doc_id"])
            p = search_partitioned(idx, q, k=10)
            assert p["doc_id"].to_pylist() == s["doc_id"].to_pylist(), q
            assert p["score"].to_pylist() == s["score"].to_pylist(), q

    def test_missing_term_conjunction_matches_nothing(self, pos_index):
        idx, corpus, _ = pos_index
        eng = SearchEngine(idx)
        assert eng.search("zzqqnotaterm AND read").num_rows == 0
        assert search_partitioned(idx, "zzqqnotaterm AND read").num_rows == 0

    def test_negated_filter_query(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        got = eng.search("-lang:go read", k=15, fl=["doc_id", "lang"])
        exp = oracle.search("-lang:go read", k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in exp]
        assert all(v != "go" for v in got["lang"].to_pylist())


class TestPositionalLifecycle:
    def test_no_positions_index_rejects_phrases(self, tmp_path, ray_session):
        corpus = generate_corpus(40, seed=2, mean_tokens=20)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        cfg = IndexConfig(docs_per_range=64)
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                    config=cfg)
        eng = SearchEngine(str(tmp_path / "idx"))
        with pytest.raises(ValueError, match="store_positions"):
            eng.search('"def index"')

    def test_extend_delete_compact_keep_positions(self, tmp_path, ray_session):
        full = generate_corpus(160, seed=9, mean_tokens=35,
                               with_edge_rows=False)
        a, b = full.slice(0, 100), full.slice(100)
        pq.write_table(a, str(tmp_path / "a.parquet"), row_group_size=32)
        pq.write_table(b, str(tmp_path / "b.parquet"), row_group_size=32)
        idx = str(tmp_path / "idx")
        build_index(str(tmp_path / "a.parquet"), idx, config=CFG)
        stats = extend_index(str(tmp_path / "b.parquet"), idx, config=CFG)
        assert stats["store_positions"] is True

        ids = pa.array(range(full.num_rows), pa.int64())
        corpus_ids = full.append_column("doc_id", ids)
        oracle = BruteForceBM25(corpus_ids)
        t = oracle.tokens[120]  # doc from the extension
        q = f'"{t[3]} {t[4]}"'
        eng = SearchEngine(idx)
        exp = oracle.search(q, k=10)
        got = eng.search(q, k=10, fl=["doc_id"])
        assert got["doc_id"].to_pylist() == [d for d, _ in exp]

        # delete + compact: phrase scores track the compacted statistics
        mutate.delete_by_id(idx, [0, 1, 2, 120])
        mutate.compact_index(idx)
        keep = [i for i in range(full.num_rows) if i not in (0, 1, 2, 120)]
        oracle2 = BruteForceBM25(corpus_ids.take(keep))
        eng2 = SearchEngine(idx)
        t = oracle2.tokens[50]
        for q in (f'"{t[0]} {t[1]}"', '"def index" AND read'):
            exp = oracle2.search(q, k=10)
            got = eng2.search(q, k=10, fl=["doc_id"])
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
            assert got["score"].to_pylist() == pytest.approx(
                [s for _, s in exp]
            ), q


class TestProximity:
    """"a b"~slop — ordered span-near (Lucene SpanNearQuery inOrder=true
    analogue), scored like PhraseQuery."""

    def test_slop_subsumption(self, pos_index):
        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        exact = set(eng.match_ids('"def index"'))
        s1 = set(eng.match_ids('"def index"~1'))
        s5 = set(eng.match_ids('"def index"~5'))
        assert exact <= s1 <= s5

    def test_matches_brute_force_positions(self, pos_index):
        import re

        idx, corpus, _ = pos_index
        eng = SearchEngine(idx)
        reg = eng.registry
        for query_terms, slop in [(("def", "index"), 2), (("read", "count"), 4)]:
            want = set()
            counts = {}
            for i in range(corpus.num_rows):
                toks = reg.tokenize(
                    corpus["content"][i].as_py() or "",
                    corpus["lang"][i].as_py(),
                )
                n = 0
                for a, t in enumerate(toks):
                    if t != query_terms[0]:
                        continue
                    # greedy in-order chain
                    pos = a
                    ok = True
                    for nt in query_terms[1:]:
                        nxt = next(
                            (j for j in range(pos + 1, len(toks))
                             if toks[j] == nt), None,
                        )
                        if nxt is None:
                            ok = False
                            break
                        pos = nxt
                    if ok and pos - a - (len(query_terms) - 1) <= slop:
                        n += 1
                if n:
                    want.add(i)
                    counts[i] = n
            q = '"' + " ".join(query_terms) + f'"~{slop}'
            got = set(eng.match_ids(q))
            assert got == want, q
            docs, freqs, _ = eng.eval_near(query_terms, slop)
            assert dict(zip(docs.tolist(), freqs.tolist())) == counts

    def test_slop_zero_is_exact_phrase(self, pos_index):
        from solr_indexer_ray.functions.queryparse import parse_query

        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        p = eng._parse('"def index"~0')
        assert p.phrases and not p.near_phrases  # slop 0 routes to exact
        a = eng.search('"def index"~0', k=10, fl=["doc_id"])
        b = eng.search('"def index"', k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_near_with_boost_and_negation(self, pos_index):
        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        plain = eng.search('"def index"~2 merge', k=15, fl=["doc_id"])
        boosted = eng.search('"def index"~2^3 merge', k=15, fl=["doc_id"])
        assert plain.num_rows == boosted.num_rows
        neg = set(
            eng.search('-"def index"~3 merge', k=200,
                       fl=["doc_id"])["doc_id"].to_pylist()
        )
        assert not neg & set(eng.match_ids('"def index"~3').tolist())

    def test_sharded_near_identical_weights(self, pos_index, tmp_path):
        """Federated near over ONE shard must equal the single engine
        (exact global stats reduce to local stats)."""
        from solr_indexer_ray.pipelines.search import search_sharded

        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        t = search_sharded([idx], '"def index"~2 merge', k=10)
        s = eng.search('"def index"~2 merge', k=10, fl=["doc_id"])
        assert t["doc_id"].to_pylist() == s["doc_id"].to_pylist()
        assert t["score"].to_pylist() == pytest.approx(s["score"].to_pylist())

    def test_conjunctive_near(self, pos_index):
        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        got = set(eng.match_ids('"def index"~3 AND merge'))
        assert got == set(eng.match_ids('"def index"~3')) & set(
            eng.match_ids("merge")
        )


class TestDistributedProximity:
    """Near clauses through range engines: phrase weights from the whole
    index's dfs, span-near matching per range — bit-identical to the
    single engine."""

    def test_partitioned_near_identical(self, pos_index):
        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        for q in ['"def index"~2', '"def index"~3 merge',
                  '"def index"~1^2 AND read',
                  '"def index"~2 "parse read"~4',
                  'lang:python "def index"~5']:
            a = eng.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(idx, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_conjunctive_unmatchable_near_is_zero(self, pos_index):
        idx, _, _ = pos_index
        t = search_partitioned(idx, '"zzq qqz"~3 AND read', k=10)
        assert t.num_rows == 0


class TestDistributedProhibitedPositional:
    def test_prohibited_phrase_and_near_ship(self, pos_index):
        idx, _, _ = pos_index
        eng = SearchEngine(idx)
        for q in ['-"def index" read', '-"def index"~3 read',
                  '-"def index" -"parse read"~2 merge']:
            a = eng.search(q, k=15, fl=["doc_id"])
            b = search_partitioned(idx, q, k=15)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q


class TestPhraseFields:
    """edismax pf/pf2/pf3/ps: score-only phrase-boost clauses.  pf is BY
    CONSTRUCTION the explicit boosted-phrase rewrite appended score-only;
    these tests pin that identity plus the score-only membership rule."""

    def test_pf_equals_explicit_phrase(self, pos_index):
        index_dir, corpus, _ = pos_index
        e = SearchEngine(index_dir)
        a = e.search("parse read", k=30, fl=["doc_id"], pf="content^2")
        b = e.search('parse read "parse read"^2', k=30, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_pf2_bigrams(self, pos_index):
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        a = e.search("parse read merge", k=30, fl=["doc_id"],
                     pf2="content^1.5")
        b = e.search(
            'parse read merge "parse read"^1.5 "read merge"^1.5',
            k=30, fl=["doc_id"],
        )
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy())

    def test_ps_slop_equals_near(self, pos_index):
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        a = e.search("parse read", k=30, fl=["doc_id"],
                     pf="content^2", ps=3)
        b = e.search('parse read "parse read"~3^2', k=30, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_score_only_membership(self, pos_index):
        """pf never changes the match set — OR, AND, and mm sets are
        identical with and without it."""
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        for kw in [{}, {"mm": 2}]:
            x = e.search("parse read merge", k=e.n_docs, fl=["doc_id"], **kw)
            y = e.search("parse read merge", k=e.n_docs, fl=["doc_id"],
                         pf="content^5", **kw)
            assert set(x["doc_id"].to_pylist()) == set(y["doc_id"].to_pylist())
        x = e.search("parse AND read", k=e.n_docs, fl=["doc_id"])
        y = e.search("parse AND read", k=e.n_docs, fl=["doc_id"],
                     pf="content^5")
        assert set(x["doc_id"].to_pylist()) == set(y["doc_id"].to_pylist())

    def test_pf_boost_changes_ranking(self, pos_index):
        """A doc containing the exact phrase must outrank (or equal) its
        no-pf position; a large boost puts phrase docs first."""
        index_dir, corpus, _ = pos_index
        e = SearchEngine(index_dir)
        phrase_docs = set(
            e.search('"parse read"', k=e.n_docs, fl=["doc_id"])
            ["doc_id"].to_pylist()
        )
        if not phrase_docs:
            pytest.skip("corpus has no 'parse read' bigram")
        top = e.search("parse read", k=len(phrase_docs), fl=["doc_id"],
                       pf="content^100")
        assert set(top["doc_id"].to_pylist()) == phrase_docs

    def test_single_term_skips_pf(self, pos_index):
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        a = e.search("parse", k=20, fl=["doc_id"], pf="content^2")
        b = e.search("parse", k=20, fl=["doc_id"])
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_distributed_identity(self, pos_index):
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        cases = [
            dict(q="parse read", pf="content^2"),
            dict(q="parse read merge", pf="content^2", pf2="content^1.3"),
            dict(q="parse read", pf="content^2", ps=4),
            dict(q="parse AND read", pf="content^2"),
            dict(q="parse read merge", pf="content^2", mm=2),
        ]
        for c in cases:
            q = c.pop("q")
            a = e.search(q, k=25, fl=["doc_id"], **c)
            b = search_partitioned(index_dir, q, k=25, **c)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (q, c)
            assert a["score"].to_pylist() == b["score"].to_pylist(), (q, c)

    def test_cursor_paging_with_pf(self, pos_index):
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        allr = e.search("parse read", k=e.n_docs, fl=["doc_id"],
                        pf="content^2")
        first = e.search("parse read", k=5, fl=["doc_id"], pf="content^2")
        cur = (first["score"][-1].as_py(), first["doc_id"][-1].as_py())
        nxt = e.search("parse read", k=5, fl=["doc_id"], pf="content^2",
                       search_after=cur)
        assert nxt["doc_id"].to_pylist() == allr["doc_id"].to_pylist()[5:10]

    def test_errors(self, pos_index):
        index_dir, _, _ = pos_index
        e = SearchEngine(index_dir)
        with pytest.raises(ValueError, match="pf field"):
            e.search("parse read", pf="nosuchfield^2")
        # pf composes with sort (as in Solr): the sorted page is the
        # ranked full match set stably sorted by doclen desc, then doc_id
        full = e.search("parse read", k=e.doc_space, fl=["doc_id", "doclen"],
                        pf="content^2").to_pylist()
        assert full
        want = sorted(full, key=lambda r: (-r["doclen"], r["doc_id"]))[:15]
        got = e.search("parse read", k=15, fl=["doc_id", "doclen"],
                       pf="content^2", sort="doclen desc")
        assert got.to_pylist() == want
        with pytest.raises(ValueError, match="dismax"):
            e.search("(parse OR read) merge", pf="content^2")


class TestPrunedPhraseTopk:
    """Ranked phrase and proximity top-k equal ``BruteForceBM25`` with
    ``==`` on every score: the ranked collector scores every match of the
    one match set, so no shape depends on a score bound or on the
    scoring model's monotonicity in tf."""

    def _assert_oracle(self, eng, oracle, q, k, oq=None, **kw):
        got = eng.search(q, k=k, fl=["doc_id"], **kw)
        want = oracle.search(oq or q, k=k)
        assert want, q
        assert got["doc_id"].to_pylist() == [d for d, _ in want], q
        assert got["score"].to_pylist() == [s for _, s in want], q

    def test_bit_identical_pure_phrases(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in _phrase_queries(oracle)[:-1]:  # the last matches nothing
            for k in (3, 10, 200):
                self._assert_oracle(eng, oracle, q, k)

    def test_bit_identical_near(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        t = oracle.tokens[3]
        for q in (f'"{t[5]} {t[7]}"~3', f'"{t[2]} {t[5]}"~5^2.5',
                  '"the read"~1'):
            self._assert_oracle(eng, oracle, q, 25)

    def test_bit_identical_with_filters_and_boost(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        base = _phrase_queries(oracle)[1]  # hits in python and go docs
        self._assert_oracle(eng, oracle, f"lang:python {base}", 10)
        self._assert_oracle(eng, oracle, f"-lang:go {base}^3", 10)
        # an fq restricts like an in-query filter, without scoring
        self._assert_oracle(eng, oracle, base, 10,
                            oq=f"lang:python {base}", fq=["lang:python"])

    def test_bit_identical_cursor_paging(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for q in _phrase_queries(oracle):
            want = oracle.search(q, k=eng.n_docs)
            if len(want) >= 6:
                break
        else:
            pytest.skip("no phrase with enough hits for paging")
        first = eng.search(q, k=3, fl=["doc_id"])
        cur = (first["score"][-1].as_py(), first["doc_id"][-1].as_py())
        page = eng.search(q, k=3, fl=["doc_id"], search_after=cur)
        assert list(zip(page["doc_id"].to_pylist(),
                        page["score"].to_pylist())) == want[3:6]

    def test_mixed_clause_queries_vs_oracle(self, pos_index):
        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        base = _phrase_queries(oracle)[0]
        for q in (f"{base} read", f"{base} {base}", "read parse"):
            self._assert_oracle(eng, oracle, q, 10)

    def test_non_monotone_scorer_ranks_exactly(self, pos_index):
        """A registered model whose impact DECREASES in tf ranks every
        phrase match by its own exact score."""
        from solr_indexer_ray.pipelines import search as S

        idx, corpus, _ = pos_index
        oracle = BruteForceBM25(corpus)

        class Weird(S.ScoringModel):
            name = "weird-nonmono"

            def impact(self, tf, K):
                return K / (tf + K)

        S.register_scoring_model("weird-nonmono", Weird)
        eng = SearchEngine(idx, scoring="weird-nonmono")
        K = oracle.k1 * (1.0 - oracle.b
                         + oracle.b * oracle.dl_decoded / oracle.avgdl)
        repeats = 0  # matches whose phrase tf > 1
        for q in [_phrase_queries(oracle)[i] for i in (1, 2, 3, 8)]:
            phrase = q.strip('"').split()
            w = sum(oracle.idf(t) for t in phrase)
            freqs = {i: oracle.phrase_freq(i, phrase)
                     for i in range(oracle.n_docs)}
            want = sorted(
                ((oracle.doc_ids[i], w * (K[i] / (f + K[i])))
                 for i, f in freqs.items() if f),
                key=lambda h: (-h[1], h[0]))[:10]
            repeats += sum(f > 1 for f in freqs.values())
            got = eng.search(q, k=10, fl=["doc_id"])
            assert list(zip(got["doc_id"].to_pylist(),
                            got["score"].to_pylist())) == want, q
        assert repeats


class TestGlobalKeyMatcher:
    """The global position-key matchers must be value-identical to the
    per-candidate segment matchers (the int64-overflow fallback), across
    stride growth and duplicate-term phrases."""

    def _engine_and_tokens(self, pos_index):
        idx, corpus, _ = pos_index
        return SearchEngine(idx), BruteForceBM25(corpus).tokens

    def _assert_same(self, a, b, ctx):
        assert np.array_equal(a[0], b[0]), ctx
        assert np.array_equal(a[1], b[1]), ctx

    def test_phrase_keys_vs_segments(self, pos_index):
        eng, tokens = self._engine_and_tokens(pos_index)
        cases = [
            [tokens[3][5], tokens[3][6]],
            [tokens[8][0], tokens[8][1], tokens[8][2]],
            ["the", "the"],                      # duplicate-term phrase
            ["zzqq", "read"],                    # nothing matches
        ]
        for phrase in cases:
            postings = eng.lookup_postings(phrase, with_positions=True)
            if any(t not in postings for t in phrase):
                continue
            keys = eng._phrase_match_keys(phrase, postings)
            segs = eng._phrase_match_segments(phrase, postings)
            assert keys is not None
            self._assert_same(keys, segs, phrase)

    def test_near_keys_vs_segments(self, pos_index):
        eng, tokens = self._engine_and_tokens(pos_index)
        t = tokens[3]
        for terms, slop in [([t[5], t[7]], 3), ([t[2], t[5], t[9]], 6),
                            (["the", "read"], 1)]:
            postings = eng.lookup_postings(terms, with_positions=True)
            if any(x not in postings for x in terms):
                continue
            keys = eng._near_match_keys(terms, slop, postings)
            segs = eng._near_match_segments(terms, slop, postings)
            assert keys is not None
            self._assert_same(keys, segs, (terms, slop))

    def test_restride_rebases_cached_keys(self, pos_index):
        """Growing the engine stride must re-base cached key streams in
        place, yielding the same match set as a fresh encode."""
        eng, tokens = self._engine_and_tokens(pos_index)
        phrase = [tokens[3][5], tokens[3][6]]
        postings = eng.lookup_postings(phrase, with_positions=True)
        first = eng._phrase_match_keys(phrase, postings)
        old_stride = eng._gkey_stride
        # force a growth far beyond any real position
        eng._gkey_stride = old_stride * 8
        grown = eng._phrase_match_keys(phrase, postings)
        self._assert_same(first, grown, "restride")
        for t in dict.fromkeys(phrase):
            assert postings[t].gkeys_stride == old_stride * 8

    def test_overflow_guard_falls_back(self, pos_index):
        """A doc space too large for int64 keys returns None from the
        keys matcher; the engine still answers through segments."""
        eng, tokens = self._engine_and_tokens(pos_index)
        phrase = [tokens[3][5], tokens[3][6]]
        postings = eng.lookup_postings(phrase, with_positions=True)
        real_space = eng.doc_space
        eng.doc_space = 1 << 61
        try:
            assert eng._phrase_match_keys(phrase, postings) is None
            docs, freqs, w = eng.eval_phrase(phrase)
        finally:
            eng.doc_space = real_space
        ref = eng._phrase_match_segments(phrase, postings)
        assert np.array_equal(docs, ref[0])
        assert np.array_equal(freqs, ref[1])

    def test_ranked_search_on_overflow(self, pos_index, monkeypatch):
        """When int64 position keys would overflow (``_phrase_stride``
        returns None), ranked phrase and proximity searches run on the
        segment matchers and answer exactly as the key path does."""
        idx, corpus, _ = pos_index
        tokens = BruteForceBM25(corpus).tokens
        t = tokens[3]
        qs = [f'"{t[5]} {t[6]}"', f'"{tokens[17][2]} {tokens[17][3]}"',
              f'"{tokens[8][0]} {tokens[8][1]} {tokens[8][2]}"', '"the the"',
              f'"{t[5]} {t[7]}"~3', f'"{t[2]} {t[5]} {t[9]}"~6',
              '"the read"~1', f'"{t[2]} {t[5]}"~5^2.5 read']
        want = {q: SearchEngine(idx).search(q, k=20, fl=["doc_id"])
                for q in qs}
        assert all(want[q].num_rows for q in qs)
        segments = []
        real = SearchEngine._candidate_segments
        monkeypatch.setattr(SearchEngine, "_phrase_stride",
                            lambda self, tps, margin: None)
        monkeypatch.setattr(SearchEngine, "_candidate_segments", staticmethod(
            lambda terms, postings: segments.append(terms)
            or real(terms, postings)))
        eng = SearchEngine(idx)
        for q in qs:
            segments.clear()
            assert eng.search(q, k=20, fl=["doc_id"]).equals(want[q]), q
            assert segments, q


def test_near2_keys_fuzz_vs_segment_matcher():
    """The 2-term min-side proximity matcher (direct-probe and
    interval-union branches) must match _near_freqs on randomized
    per-doc position sets across slops."""
    from solr_indexer_ray.pipelines.search import (
        _near2_from_keys,
        _near_freqs,
    )

    rng = np.random.default_rng(3)
    for trial in range(150):
        n_docs = int(rng.integers(1, 30))
        slop = int(rng.integers(0, 5))
        maxpos = int(rng.integers(6, 40))
        stride = maxpos + 2 + slop + 2
        seg0, seg1, l0, l1, k0p, k1p = [], [], [], [], [], []
        for d in range(n_docs):
            p0 = np.sort(rng.choice(
                maxpos, size=int(rng.integers(0, 6)), replace=False))
            p1 = np.sort(rng.choice(
                maxpos, size=int(rng.integers(0, 6)), replace=False))
            seg0.append(p0); seg1.append(p1)
            l0.append(len(p0)); l1.append(len(p1))
            k0p.append(d * stride + p0); k1p.append(d * stride + p1)
        k0 = np.concatenate(k0p).astype(np.int64)
        k1 = np.concatenate(k1p).astype(np.int64)
        got = _near2_from_keys(k0, k1, slop, stride)
        docs = np.array(
            [d for d in range(n_docs) if l0[d] and l1[d]], dtype=np.int64)
        if docs.size:
            segs = {
                "a": (np.concatenate([seg0[d] for d in docs]).astype(
                    np.int64),
                    np.array([l0[d] for d in docs], dtype=np.int64)),
                "b": (np.concatenate([seg1[d] for d in docs]).astype(
                    np.int64),
                    np.array([l1[d] for d in docs], dtype=np.int64)),
            }
            ref = _near_freqs(docs, segs, ["a", "b"], slop)
        else:
            ref = (np.empty(0, np.int64), np.empty(0, np.int64))
        assert np.array_equal(got[0], ref[0]), trial
        assert np.array_equal(got[1], ref[1]), trial
