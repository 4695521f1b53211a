"""Per-field scored search: extra analyzed fields
(`IndexConfig.analyzed_fields`) + dismax `qf` — Solr copyField / fielded
TermQuery / DisjunctionMaxQuery semantics with true per-field BM25 stats
(field df, docCount, avgdl, norms).  Reference surface: the reference's
Solr schema indexes many text fields beyond full_text and queries pass
through verbatim (/root/reference/README.md:259-260)."""

import numpy as np
import pyarrow.dataset as pads
import pytest

from solr_indexer_ray.functions.smallfloat import DECODE_TABLE, encode_lengths
from solr_indexer_ray.functions.tokenize import simple_analyzer
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned

K1, B = 1.2, 0.75


@pytest.fixture(scope="module")
def field_index(small_corpus_path, tmp_path_factory):
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index

    index_dir = str(tmp_path_factory.mktemp("fidx") / "idx")
    config = IndexConfig(
        docs_per_range=128, concurrency=2, store_positions=True,
        analyzed_fields=("path_text:path", "repo_text:repo"),
    )
    stats = build_index(small_corpus_path, index_dir, config=config)
    return index_dir, stats


def _brute_field_scores(index_dir: str, fld_src: str, term: str):
    """Independent per-field BM25 from the raw stored column + analyzer:
    idf = ln(1+(docCount-df+.5)/(df+.5)) with docCount = docs holding >= 1
    field term; K uses the field avgdl and the SmallFloat-quantized field
    length (the engine's norm byte round-trips the same table)."""
    t = pads.dataset(f"{index_dir}/docs").to_table(
        columns=["doc_id", fld_src]
    )
    ids = t["doc_id"].to_numpy()
    toks = [simple_analyzer(v) for v in t[fld_src].to_pylist()]
    dl = np.array([len(x) for x in toks], dtype=np.int64)
    tf = np.array([x.count(term) for x in toks], dtype=np.float64)
    doc_count = int((dl > 0).sum())
    avgdl = dl.sum() / doc_count
    df = int((tf > 0).sum())
    dlq = DECODE_TABLE[encode_lengths(dl.astype(np.int32))]
    idf = np.log(1 + (doc_count - df + 0.5) / (df + 0.5))
    K = K1 * (1 - B + B * dlq / avgdl)
    scores = idf * tf / (tf + K)
    m = tf > 0
    return dict(zip(ids[m].tolist(), scores[m].tolist()))


class TestBuild:
    def test_stats_and_columns(self, field_index):
        index_dir, stats = field_index
        fs = stats["field_stats"]
        assert set(fs) == {"path_text", "repo_text"}
        for s in fs.values():
            assert s["n_docs"] > 0 and s["avgdl"] > 0
        names = pads.dataset(f"{index_dir}/docs").schema.names
        assert {"doclen_path_text", "norm_path_text",
                "doclen_repo_text", "norm_repo_text"} <= set(names)

    def test_field_stats_match_brute(self, field_index):
        index_dir, stats = field_index
        t = pads.dataset(f"{index_dir}/docs").to_table(columns=["path"])
        dl = np.array(
            [len(simple_analyzer(v)) for v in t["path"].to_pylist()]
        )
        s = stats["field_stats"]["path_text"]
        assert s["n_docs"] == int((dl > 0).sum())
        assert s["sum_dl"] == int(dl.sum())


class TestFieldTermQuery:
    def test_scores_match_independent_brute_force(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        want = _brute_field_scores(index_dir, "path", "mod0")
        t = e.search("path_text:mod0", k=e.n_docs, fl=["doc_id"])
        got = dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))
        assert set(got) == set(want)
        for d, s in got.items():
            assert s == pytest.approx(want[d], rel=1e-12)

    def test_field_stats_differ_from_content(self, field_index):
        """path_text:mod0 must NOT score with content stats — the same
        term text through the default field gives different scores."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        f = e.search("path_text:mod0", k=5, fl=["doc_id"])
        assert f.num_rows > 0
        # content has no 'mod0' token (paths aren't in content)
        c = e.search("mod0", k=5, fl=["doc_id"])
        assert c.num_rows == 0

    def test_mixed_clause_sum(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        both = e.search("path_text:mod0 parse", k=e.n_docs, fl=["doc_id"])
        fo = dict(zip(
            *[e.search("path_text:mod0", k=e.n_docs, fl=["doc_id"])[c]
              .to_pylist() for c in ("doc_id", "score")]
        ))
        co = dict(zip(
            *[e.search("parse", k=e.n_docs, fl=["doc_id"])[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        for d, s in zip(both["doc_id"].to_pylist(),
                        both["score"].to_pylist()):
            assert s == pytest.approx(
                fo.get(d, 0.0) + co.get(d, 0.0), rel=1e-12
            )

    def test_prohibited_and_conjunctive(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        neg = e.search("-path_text:mod0 parse", k=e.n_docs, fl=["doc_id"])
        banned = set(
            e.search("path_text:mod0", k=e.n_docs, fl=["doc_id"])["doc_id"]
            .to_pylist()
        )
        assert not (set(neg["doc_id"].to_pylist()) & banned)
        assert e.search("path_text:mod0 AND zzqqzz", k=5).num_rows == 0
        conj = e.search("path_text:mod0 AND parse", k=e.n_docs,
                        fl=["doc_id"])
        inter = banned & set(
            e.match_ids("parse").tolist()
        )
        assert set(conj["doc_id"].to_pylist()) == inter

    def test_boost(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        plain = e.search("path_text:mod0", k=5, fl=["doc_id"])
        boosted = e.search("path_text:mod0^3", k=5, fl=["doc_id"])
        assert boosted["score"].to_pylist() == pytest.approx(
            [3 * s for s in plain["score"].to_pylist()]
        )

    def test_grouped_and_distributed_identical(self, field_index):
        """Fielded clauses through range engines (field docCount + avgdl
        from the whole index, field norms range-local) — bit-identical
        to the single engine, flat and grouped."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        for q in ["path_text:mod0 parse",
                  "(path_text:mod0 OR path_text:mod1) AND parse",
                  "-path_text:mod0 parse",
                  "repo_text:org1^2 path_text:mod0 merge",
                  "path_text:mod0 AND parse",
                  "path_text:zzqq parse"]:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_distributed_qf_identical(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        for q, tie in [("txt parse", 0.0), ("txt merge read", 0.3),
                       ("py AND parse", 0.0)]:
            a = e.search(q, k=10, fl=["doc_id"],
                         qf="content^1 path_text^2", tie=tie)
            b = search_partitioned(index_dir, q, k=10,
                                   qf="content^1 path_text^2", tie=tie)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_unknown_scored_field_stays_default_alias(self, field_index):
        """A field prefix that is neither metadata nor analyzed keeps the
        round-1 behavior: value analyzes as default-field terms."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        a = e.search("full_text:parse", k=5, fl=["doc_id"])
        b = e.search("parse", k=5, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()


class TestFieldPhrase:
    """path_text:"src mod0" — Lucene fielded PhraseQuery over the field's
    positional token stream, field idfs/norms/avgdl."""

    def test_matches_are_exact_field_phrases(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        t = e.search('path_text:"src mod0"', k=e.n_docs, fl=["doc_id", "path"])
        assert t.num_rows > 0
        for p in t["path"].to_pylist():
            assert p.startswith("src/mod0/"), p
        # reversed order must not match (phrase, not AND)
        assert e.search('path_text:"mod0 src"', k=5).num_rows == 0

    def test_score_is_field_phrase_bm25(self, field_index):
        """Independent check: w = sum of member FIELD idfs; tf = phrase
        count; K from field avgdl + quantized field length."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        t = e.search('path_text:"src mod0"', k=e.n_docs, fl=["doc_id"])
        docs_t = pads.dataset(f"{index_dir}/docs").to_table(
            columns=["doc_id", "path"]
        )
        toks = {
            d: simple_analyzer(p)
            for d, p in zip(docs_t["doc_id"].to_pylist(),
                            docs_t["path"].to_pylist())
        }
        dl = np.array([len(v) for v in toks.values()], dtype=np.int64)
        n_field = int((dl > 0).sum())
        avgdl = dl.sum() / n_field

        def fidf(term):
            df = sum(1 for v in toks.values() if term in v)
            return np.log(1 + (n_field - df + 0.5) / (df + 0.5))

        w = fidf("src") + fidf("mod0")
        for d, s in zip(t["doc_id"].to_pylist(), t["score"].to_pylist()):
            tk = toks[d]
            ptf = sum(
                1 for i in range(len(tk) - 1)
                if tk[i] == "src" and tk[i + 1] == "mod0"
            )
            dlq = float(DECODE_TABLE[encode_lengths(
                np.array([len(tk)], dtype=np.int32))][0])
            K = K1 * (1 - B + B * dlq / avgdl)
            assert s == pytest.approx(w * ptf / (ptf + K), rel=1e-12), d

    def test_single_token_quoted_is_field_term(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        a = e.search('path_text:"mod0"', k=5, fl=["doc_id"])
        b = e.search("path_text:mod0", k=5, fl=["doc_id"])
        assert a.to_pylist() == b.to_pylist()

    def test_prohibited_and_mixed(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        neg = e.search('-path_text:"src mod0" parse', k=e.n_docs,
                       fl=["doc_id"])
        banned = set(
            e.search('path_text:"src mod0"', k=e.n_docs)["doc_id"]
            .to_pylist()
        )
        assert not (set(neg["doc_id"].to_pylist()) & banned)
        # mixed clause sums with a content term
        both = e.search('path_text:"src mod0" parse', k=e.n_docs,
                        fl=["doc_id"])
        fp = dict(zip(
            *[e.search('path_text:"src mod0"', k=e.n_docs)[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        co = dict(zip(
            *[e.search("parse", k=e.n_docs)[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        for d, s in zip(both["doc_id"].to_pylist(),
                        both["score"].to_pylist()):
            assert s == pytest.approx(
                fp.get(d, 0.0) + co.get(d, 0.0), rel=1e-12
            )

    def test_slop_on_field_rejected(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        with pytest.raises(ValueError, match="analyzed fields"):
            e.search('path_text:"src mod0"~2', k=5)

    def test_distributed_identical(self, field_index):
        """Field phrases through range engines (field idfs and avgdl from
        the whole index; field norms range-local) — bit-identical to the
        single engine."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        for q in ['path_text:"src mod0" parse',
                  '-path_text:"src mod0" parse',
                  'path_text:"src mod0" AND parse',
                  'path_text:"src zzqq" parse']:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q


class TestDismaxQf:
    def test_qf_is_max_over_fields(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        # 'txt' exists in path_text (file_x.txt) and possibly content
        q = "txt"
        mx = e.search(q, k=e.n_docs, fl=["doc_id"],
                      qf="content^1 path_text^2")
        c = dict(zip(
            *[e.search("txt", k=e.n_docs, fl=["doc_id"])[x].to_pylist()
              for x in ("doc_id", "score")]
        ))
        f = dict(zip(
            *[e.search("path_text:txt", k=e.n_docs, fl=["doc_id"])[x]
              .to_pylist() for x in ("doc_id", "score")]
        ))
        assert mx.num_rows == len(set(c) | set(f))
        for d, s in zip(mx["doc_id"].to_pylist(), mx["score"].to_pylist()):
            want = max(c.get(d, 0.0), 2.0 * f.get(d, 0.0))
            assert s == pytest.approx(want, rel=1e-12)

    def test_tiebreaker(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        mx = e.search("txt", k=e.n_docs, fl=["doc_id"],
                      qf="content^1 path_text^1", tie=0.5)
        c = dict(zip(
            *[e.search("txt", k=e.n_docs, fl=["doc_id"])[x].to_pylist()
              for x in ("doc_id", "score")]
        ))
        f = dict(zip(
            *[e.search("path_text:txt", k=e.n_docs, fl=["doc_id"])[x]
              .to_pylist() for x in ("doc_id", "score")]
        ))
        for d, s in zip(mx["doc_id"].to_pylist(), mx["score"].to_pylist()):
            a, b = c.get(d, 0.0), f.get(d, 0.0)
            assert s == pytest.approx(
                max(a, b) + 0.5 * min(a, b), rel=1e-12
            )

    def test_qf_validation(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        with pytest.raises(ValueError, match="not analyzed"):
            e.search("x", qf="nope^2")
        # qf composes with sort (as in Solr): the sorted page is the
        # ranked full match set stably sorted by doclen desc, then doc_id
        kw = dict(qf="content^1 path_text^2", tie=0.3)
        full = e.search("parse txt", k=e.doc_space, fl=["doc_id", "doclen"],
                        **kw).to_pylist()
        assert full
        want = sorted(full, key=lambda r: (-r["doclen"], r["doc_id"]))[:15]
        got = e.search("parse txt", k=15, fl=["doc_id", "doclen"],
                       sort="doclen desc", **kw)
        assert got.to_pylist() == want

    @pytest.mark.parametrize("bad", ["content^-1 path_text^2",
                                     "content^1 path_text^nan",
                                     "path_text^inf"])
    def test_negative_or_nonfinite_boost_rejected(self, field_index, bad):
        """Lucene's BoostQuery rejects negative and non-finite boosts,
        so a qf/pf ``field^-1`` is an error on every ranked path, never
        a dismax contribution floored at 0."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        for run in (lambda **kw: e.search("parse txt", **kw),
                    lambda **kw: search_partitioned(index_dir, "parse txt",
                                                    **kw)):
            with pytest.raises(ValueError, match="boost must be"):
                run(qf=bad)
            with pytest.raises(ValueError, match="boost must be"):
                run(pf=bad)

    def test_zero_boost_accepted(self, field_index):
        """A ``^0`` qf field still matches, at score 0 (Lucene
        DisjunctionMaxQuery over a BoostQuery of 0): the path-scored
        docs rank as without the field, then the docs only ``content``
        matches follow at 0.0 in doc-id order."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        q = "parse txt"  # parse: content only; txt: path only
        got = e.search(q, k=e.n_docs, fl=["doc_id"],
                       qf="content^0 path_text^1")
        exp = e.search(q, k=e.n_docs, fl=["doc_id"], qf="path_text^1")
        content = e.search(q, k=e.n_docs, fl=["doc_id"], qf="content^1")
        tail = sorted(set(content["doc_id"].to_pylist())
                      - set(exp["doc_id"].to_pylist()))
        assert exp.num_rows and tail
        assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist() + tail
        assert got["score"].to_pylist() == (exp["score"].to_pylist()
                                            + [0.0] * len(tail))

    def test_grouped_query_rejected(self, field_index):
        """``qf`` rewrites a flat query's free terms; on a grouped
        boolean query it is rejected like ``pf`` and ``bf``, never
        silently ignored."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        q = "(parse OR txt) AND NOT zzz"
        for run in (lambda **kw: e.search(q, **kw),
                    lambda **kw: search_partitioned(index_dir, q, **kw)):
            with pytest.raises(ValueError, match="qf is a dismax"):
                run(qf="content^2")
        with pytest.raises(ValueError, match="qf is a dismax"):
            e.explain(q, 0, qf="content^2")
        assert e.search(q, k=3).num_rows == 3


class TestDictionaryIsolation:
    """Field-prefixed terms must never leak into default-field multiterm
    expansion, /terms, spellcheck or fuzzy (Lucene: per-field term
    dictionaries)."""

    def test_no_leak(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        # path tokens: src, modN, file_N, ext — absent from content
        assert e.expand_prefix("mod") == []
        assert e.expand_pattern("mod*") == []
        assert e.expand_pattern("/mod[0-9]+/") == []
        assert all("\x1f" not in t for t, _ in e.terms(limit=10**6))
        assert all("\x1f" not in t for t, _, _ in e.suggest("mod1"))
        assert e.expand_fuzzy("mod0", 1) == []

    def test_field_docs_facet_and_sort_still_work(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        # doclen_path_text is a stored numeric column: range + sort ride
        t = e.search("doclen_path_text:[5 TO 5] parse", k=5, fl=["doc_id"])
        assert t.num_rows > 0


class TestLifecycle:
    def test_compact_recomputes_field_stats(self, field_index, tmp_path):
        """Compaction purges tombstoned docs from the per-field stats the
        same way it recomputes N/avgdl (Lucene merge semantics)."""
        import shutil

        from solr_indexer_ray.pipelines.fsck import check_index
        from solr_indexer_ray.pipelines.mutate import (
            compact_index,
            delete_by_id,
        )

        src, _ = field_index
        idx = str(tmp_path / "idx")
        shutil.copytree(src, idx)
        delete_by_id(idx, [0, 1, 2])
        out = compact_index(idx)
        st = out["stats"]
        fs = st["field_stats"]["path_text"]
        assert fs["n_docs"] == st["n_docs"]
        # recompute from the surviving docs table
        t = pads.dataset(f"{idx}/docs").to_table(columns=["path"])
        dl = np.array([len(simple_analyzer(v)) for v in t["path"].to_pylist()])
        assert fs["sum_dl"] == int(dl.sum())
        assert check_index(idx)["ok"]
        e = SearchEngine(idx)
        assert e.search("path_text:mod0", k=3).num_rows > 0


class TestShardedFields:
    """Field clauses federate with exact global PER-FIELD stats: scores
    over two disjoint shards equal a single union index (the
    ExactStatsCache discipline extended to field docCount/avgdl/df)."""

    @pytest.fixture(scope="class")
    def split_indexes(self, small_corpus, tmp_path_factory):
        import pyarrow.parquet as pq

        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index

        root = tmp_path_factory.mktemp("shardf")
        n = small_corpus.num_rows
        cfg = IndexConfig(concurrency=2, store_positions=True,
                          analyzed_fields=("path_text:path",))
        dirs = []
        for name, tbl in [("a", small_corpus.slice(0, n // 2)),
                          ("b", small_corpus.slice(n // 2)),
                          ("union", small_corpus)]:
            p = str(root / f"{name}.parquet")
            pq.write_table(tbl, p, row_group_size=64)
            d = str(root / f"idx_{name}")
            build_index(p, d, config=cfg)
            dirs.append(d)
        return dirs

    def test_equal_to_union_index(self, split_indexes):
        from solr_indexer_ray.pipelines.search import search_sharded

        da, db, du = split_indexes
        eu = SearchEngine(du)
        for q, qf in [("path_text:mod0 parse", None),
                      ('path_text:"src mod1" read', None),
                      ("-path_text:mod0 parse merge", None),
                      ("parse txt", "content^1 path_text^2")]:
            sh = search_sharded([da, db], q, k=10, qf=qf, tie=0.2)
            un = eu.search(q, k=10, fl=["doc_id"], qf=qf, tie=0.2)
            assert sh["score"].to_pylist() == pytest.approx(
                un["score"].to_pylist(), rel=1e-12
            ), q
            # shard-local ids map back: shard 0 keeps ids, shard 1 is
            # offset by the split point in the union index
            half = eu.n_docs - SearchEngine(db).n_docs
            mapped = [
                d if s == 0 else d + half
                for s, d in zip(sh["shard"].to_pylist(),
                                sh["doc_id"].to_pylist())
            ]
            assert mapped == un["doc_id"].to_pylist(), q

    def test_negative_boost_rejected(self, split_indexes):
        from solr_indexer_ray.pipelines.search import search_sharded

        da, db, _ = split_indexes
        with pytest.raises(ValueError, match="boost must be"):
            search_sharded([da, db], "parse txt",
                           qf="content^-1 path_text^2")

    def test_mismatched_shards_refused(self, split_indexes, built_index):
        from solr_indexer_ray.pipelines.search import search_sharded

        da, _, _ = split_indexes
        plain_dir, _ = built_index   # no analyzed fields
        with pytest.raises(ValueError, match="analyzed_fields"):
            search_sharded([da, plain_dir], "path_text:mod0 x")


class TestPhraseFieldsFielded:
    """edismax pf over an extra analyzed field: SCORE-ONLY — it reranks
    the main query's matches and never extends them (a doc matching only
    the path phrase stays out unless qf gives it membership)."""

    def test_fielded_pf_never_extends_membership(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        base = e.search("src mod0", k=e.n_docs, fl=["doc_id"])
        wpf = e.search("src mod0", k=e.n_docs, fl=["doc_id"],
                       pf="path_text^2")
        assert set(wpf["doc_id"].to_pylist()) == set(base["doc_id"].to_pylist())

    def test_fielded_pf_with_qf_composes(self, field_index):
        """qf gives membership through path_text; pf adds exactly the
        explicit fielded-phrase clause score on those members."""
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        q, qf = "src mod0", "content^1 path_text^1"
        base = e.search(q, k=e.n_docs, fl=["doc_id"], qf=qf)
        assert base.num_rows > 0
        phr = e.search('path_text:"src mod0"^2', k=e.n_docs, fl=["doc_id"])
        pmap = dict(zip(phr["doc_id"].to_pylist(), phr["score"].to_pylist()))
        got = e.search(q, k=e.n_docs, fl=["doc_id"], qf=qf,
                       pf="path_text^2")
        assert set(got["doc_id"].to_pylist()) == set(base["doc_id"].to_pylist())
        bmap = dict(zip(base["doc_id"].to_pylist(), base["score"].to_pylist()))
        boosted = 0
        for d, s in zip(got["doc_id"].to_pylist(), got["score"].to_pylist()):
            assert s == bmap[d] + pmap.get(d, 0.0)
            boosted += d in pmap
        assert boosted > 0  # the phrase really contributed somewhere

    def test_fielded_pf_distributed(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        for kw in [dict(pf="path_text^2"),
                   dict(pf="content^1.5 path_text^2"),
                   dict(pf="path_text^2", qf="content^1 path_text^2")]:
            a = e.search("src mod0", k=25, fl=["doc_id"], **kw)
            b = search_partitioned(index_dir, "src mod0", k=25, **kw)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), kw
            assert a["score"].to_pylist() == b["score"].to_pylist(), kw

    def test_fielded_ps_rejected(self, field_index):
        index_dir, _ = field_index
        e = SearchEngine(index_dir)
        with pytest.raises(ValueError, match="fielded proximity"):
            e.search("src mod0", pf="path_text^2", ps=2)
