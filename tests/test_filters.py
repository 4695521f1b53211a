"""Token-filter chains (Solr analysis-chain parity, functions/filters.py):
Porter stemmer vectors from the 1980 paper, StopFilter semantics, the
vocab-level unit remap, and build+search integration — rank identity vs
the brute-force oracle, the empty-BooleanQuery (all atoms stop-removed)
contract, extend/shard pinning via stats.json."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.functions.filters import (
    ENGLISH_STOPWORDS,
    FilterChain,
    FilteredRegistry,
    apply_chain_to_unit,
    porter_stem,
)
from solr_indexer_ray.functions.queryparse import NO_MATCH_TERM, parse_query
from solr_indexer_ray.functions.tokenize import AnalyzerRegistry, simple_analyzer


# ===================================================================== #
# Porter stemmer (vectors from Porter 1980, per-step examples + the
# paper's fully-worked derivations)
# ===================================================================== #

PAPER_VECTORS = [
    # step 1a
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
    # step 1b (+ cleanup rules)
    # (step-1b gives 'agree'; full algorithm's step 5a then drops the e)
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"), ("sky", "sky"),
    # the paper's worked multi-step derivations
    ("generalizations", "gener"),   # -> generalization -> generalize -> general -> gener
    ("oscillators", "oscil"),       # -> oscillator -> oscillate -> oscill -> oscil
    # the paper's "connect" family (all conflate)
    ("connect", "connect"), ("connected", "connect"),
    ("connecting", "connect"), ("connection", "connect"),
    ("connections", "connect"),
    # step 2/3/4 composites
    ("relational", "relat"), ("conditional", "condit"),
    ("effective", "effect"), ("hopefulness", "hope"),
]


class TestPorter:
    @pytest.mark.parametrize("word,stem", PAPER_VECTORS)
    def test_paper_vectors(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_unchanged(self):
        for w in ("a", "is", "be", "go", ""):
            assert porter_stem(w) == w

    def test_inflection_families_conflate(self):
        """The property the engine relies on: inflected forms share a stem."""
        for family in (
            ("merge", "merged", "merging", "merges"),
            ("window", "windows", "windowed"),
            ("sort", "sorted", "sorting", "sorts"),
            ("join", "joins", "joining", "joined"),
            ("stream", "streams", "streamed", "streaming"),
            ("filter", "filters", "filtered", "filtering"),
        ):
            stems = {porter_stem(w) for w in family}
            assert len(stems) == 1, (family, stems)


# ===================================================================== #
# FilterChain semantics
# ===================================================================== #


class TestChain:
    def test_stop_set_is_lucene_classic(self):
        assert len(ENGLISH_STOPWORDS) == 33
        assert {"the", "a", "an", "and", "or", "not", "of"} <= ENGLISH_STOPWORDS
        assert "i" not in ENGLISH_STOPWORDS  # not in the classic set

    def test_map_term_order_stop_then_porter(self):
        chain = FilterChain(("stop", "porter"))
        assert chain.map_term("the") is None
        assert chain.map_term("running") == "run"
        # 'this' is a stopword BEFORE stemming ('thi' after would survive)
        assert chain.map_term("this") is None

    def test_porter_before_stop_differs(self):
        """Order matters — ('porter','stop') stems first, so 'this'->'thi'
        survives the stop filter; the chain is honest about ordering."""
        chain = FilterChain(("porter", "stop"))
        assert chain.map_term("this") == "thi"

    def test_custom_stopwords(self):
        chain = FilterChain(("stop",), stopwords=("foo", "bar"))
        assert chain.map_term("foo") is None
        assert chain.map_term("the") == "the"

    def test_stats_round_trip(self):
        for chain in (
            FilterChain(("stop", "porter")),
            FilterChain(("stop",), stopwords=("x", "y")),
            FilterChain(()),
        ):
            d = {"other": 1, **chain.to_stats()}
            back = FilterChain.from_stats(d)
            assert back.filters == chain.filters
            assert back.stopwords == chain.stopwords

    def test_unknown_filter_raises(self):
        with pytest.raises(KeyError):
            FilterChain(("snowball",))

    def test_wrap_composes_with_analyzer(self):
        analyze = FilterChain(("stop", "porter")).wrap(simple_analyzer)
        assert analyze("the merged windows") == ["merg", "window"]
        assert analyze("the a of") == []

    def test_filtered_registry_tokenize(self):
        reg = FilteredRegistry(
            AnalyzerRegistry("simple"), FilterChain(("stop", "porter"))
        )
        assert reg.tokenize("the merged windows") == ["merg", "window"]


# ===================================================================== #
# vocab-level unit application (the build path)
# ===================================================================== #


class TestApplyChainToUnit:
    def test_remap_merge_and_drop(self):
        # vocab: 0=the 1=running 2=run 3=cat
        terms = pa.array(["the", "running", "run", "cat"])
        # doc0 = [the running cat], doc1 = [run the the]
        tids = np.array([0, 1, 3, 2, 0, 0], dtype=np.int64)
        doclens = np.array([3, 3], dtype=np.int64)
        chain = FilterChain(("stop", "porter"))
        new_tids, new_dl, new_terms = apply_chain_to_unit(
            tids, doclens, terms, chain
        )
        assert new_terms.to_pylist() == ["run", "cat"]
        assert new_dl.tolist() == [2, 1]  # post-filter Lucene norms
        assert new_tids.tolist() == [0, 1, 0]

    def test_no_drop_pure_remap(self):
        terms = pa.array(["running", "runs"])
        tids = np.array([0, 1, 0], dtype=np.int64)
        doclens = np.array([2, 1], dtype=np.int64)
        new_tids, new_dl, new_terms = apply_chain_to_unit(
            tids, doclens, terms, FilterChain(("porter",))
        )
        assert new_terms.to_pylist() == ["run"]
        assert new_dl.tolist() == [2, 1]
        assert new_tids.tolist() == [0, 0, 0]

    def test_all_dropped_row(self):
        terms = pa.array(["the", "cat"])
        tids = np.array([0, 0, 1], dtype=np.int64)
        doclens = np.array([2, 1], dtype=np.int64)
        new_tids, new_dl, new_terms = apply_chain_to_unit(
            tids, doclens, terms, FilterChain(("stop",))
        )
        assert new_terms.to_pylist() == ["cat"]
        assert new_dl.tolist() == [0, 1]
        assert new_tids.tolist() == [0]

    def test_empty_chain_identity(self):
        terms = pa.array(["a", "b"])
        tids = np.array([0, 1], dtype=np.int64)
        doclens = np.array([2], dtype=np.int64)
        out = apply_chain_to_unit(tids, doclens, terms, FilterChain(()))
        assert out[2] is terms


# ===================================================================== #
# query parsing: the filtered-to-nothing sentinel
# ===================================================================== #


class TestNoMatchSentinel:
    def _analyze(self):
        return FilterChain(("stop",)).wrap(simple_analyzer)

    def test_all_stopword_query_injects_sentinel(self):
        parsed = parse_query("the", self._analyze())
        assert parsed.terms == [NO_MATCH_TERM]

    def test_surviving_term_no_sentinel(self):
        parsed = parse_query("the window", self._analyze())
        assert parsed.terms == ["window"]

    def test_match_all_star_stays_match_all(self):
        parsed = parse_query("*:*", self._analyze())
        assert NO_MATCH_TERM not in parsed.terms
        assert parsed.is_match_all

    def test_unfiltered_parse_unchanged(self):
        parsed = parse_query("the", simple_analyzer)
        assert parsed.terms == ["the"]


# ===================================================================== #
# build + search integration
# ===================================================================== #

#: handcrafted corpus with known morphology (families conflate under
#: Porter; 'the/a/of/and' are classic stopwords)
STEM_DOCS = [
    "merge the window sort",
    "merged windows joining quickly",
    "the a and of stream stream filter",
    "joined sorted streams of data",
    "filter filters filtered and the merging",
    "unrelated tokens entirely",
]

STEM_TEST_QUERIES = [
    "merging windows",
    "the merged window",
    "stream AND filter",
    "filters streaming",
    "sort -merge",
    "the",                  # all-stopword -> empty BooleanQuery -> 0 hits
    "the a of",             # same
    '"merge window"',       # phrase across removed stopword (consecutive)
    "join*",
    "zzzz",
]


def _corpus_table(contents):
    n = len(contents)
    return pa.table(
        {
            "repo": pa.array(["org0/proj0"] * n),
            "path": pa.array([f"src/f{i}.txt" for i in range(n)]),
            "commit": pa.array(["c" * 40] * n),
            "lang": pa.array(["text"] * n),
            "content": pa.array(contents),
        }
    )


@pytest.fixture(scope="module")
def stem_index(tmp_path_factory):
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("stemidx")
    path = str(root / "corpus.parquet")
    pq.write_table(_corpus_table(STEM_DOCS), path)
    index_dir = str(root / "idx")
    config = IndexConfig(
        filters=("stop", "porter"), store_positions=True,
        store_content=True, concurrency=1,
    )
    stats = build_index(path, index_dir, config=config)
    return index_dir, stats


@pytest.fixture(scope="module")
def stem_engine(stem_index):
    from solr_indexer_ray.pipelines.search import SearchEngine

    return SearchEngine(stem_index[0])


class TestAnalyzeHandler:
    """/analysis/field analogue: per-stage token streams of the pinned
    chain."""

    def test_stages_over_filtered_index(self, stem_engine):
        t = stem_engine.analyze("The running dogs are fast")
        by_stage: dict = {}
        for r in t.to_pylist():
            by_stage.setdefault(r["stage_name"], []).append(r["term"])
        assert by_stage["tokenizer:simple"] == [
            "the", "running", "dogs", "are", "fast"]
        assert by_stage["filter:stop"] == ["running", "dogs", "fast"]
        assert by_stage["filter:porter"] == ["run", "dog", "fast"]
        # positions re-enumerate per stage
        stops = [r for r in t.to_pylist()
                 if r["stage_name"] == "filter:stop"]
        assert [r["position"] for r in stops] == [0, 1, 2]
        # final stage equals what the engine's registry tokenizes
        assert by_stage["filter:porter"] == stem_engine.registry.tokenize(
            "The running dogs are fast")

    def test_unfiltered_index_single_stage(self, built_index):
        from solr_indexer_ray.pipelines.search import SearchEngine

        t = SearchEngine(built_index[0]).analyze("Hello WorldFoo")
        assert set(t["stage"].to_pylist()) == {0}
        assert t.num_rows >= 2


class TestFilteredIndex:
    def test_stats_pin_chain(self, stem_index):
        _, stats = stem_index
        assert stats["filters"] == ["stop", "porter"]
        assert "stopwords" not in stats  # default set is implicit

    def test_doclen_post_filter(self, stem_index, stem_engine):
        # doc2 = "the a and of stream stream filter" -> 3 surviving tokens
        _, stats = stem_index
        oracle_dl = [
            len(FilterChain(("stop", "porter")).wrap(simple_analyzer)(c))
            for c in STEM_DOCS
        ]
        assert stats["sum_dl"] == sum(oracle_dl)

    def test_inflected_query_matches_base_forms(self, stem_engine):
        t = stem_engine.search("merging windows", k=10)
        ids = set(t["doc_id"].to_pylist())
        assert {0, 1} <= ids          # 'merge window' / 'merged windows'
        assert 4 in ids               # 'merging' doc
        assert 5 not in ids

    def test_all_stopword_query_zero_hits(self, stem_engine):
        for q in ("the", "the a of", "a AND the"):
            assert stem_engine.search(q, k=10).num_rows == 0, q

    def test_stopword_atom_drops_from_conjunction(self, stem_engine):
        # 'stream AND filter AND the' == 'stream AND filter' (Lucene drops
        # the stopword clause from the BooleanQuery)
        a = stem_engine.search("stream AND filter AND the", k=10)
        b = stem_engine.search("stream AND filter", k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
        assert 2 in set(a["doc_id"].to_pylist())

    def test_phrase_spans_removed_stopword(self, stem_engine):
        # consecutive-position semantics (enablePositionIncrements=false,
        # see functions/filters.py docstring): "merge window" matches
        # "merge the window"
        t = stem_engine.search('"merge window"', k=10)
        assert 0 in set(t["doc_id"].to_pylist())

    def test_prefix_expands_over_stemmed_vocab(self, stem_engine):
        t = stem_engine.search("join*", k=10)
        ids = set(t["doc_id"].to_pylist())
        assert {1, 3} <= ids  # joining/joined -> join


class TestRankIdentity:
    """Engine over a filtered index == brute-force oracle with the same
    wrapped analyzer, on the 300-doc synthetic corpus."""

    @pytest.fixture(scope="class")
    def fidx(self, small_corpus_path, tmp_path_factory):
        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.search import SearchEngine

        index_dir = str(tmp_path_factory.mktemp("fidx") / "idx")
        config = IndexConfig(
            docs_per_range=128, concurrency=2, filters=("stop", "porter")
        )
        build_index(small_corpus_path, index_dir, config=config)
        return SearchEngine(index_dir)

    @pytest.fixture(scope="class")
    def foracle(self, small_corpus):
        from solr_indexer_ray.pipelines.oracle import BruteForceBM25

        corpus = small_corpus.append_column(
            "doc_id", pa.array(range(small_corpus.num_rows), pa.int64())
        )
        reg = FilteredRegistry(
            AnalyzerRegistry("simple"), FilterChain(("stop", "porter"))
        )
        return BruteForceBM25(corpus, registry=reg)

    QUERIES = [
        "def",
        "the",                      # stopword -> 0 hits both sides
        "parse index query",
        "indexes AND merges",       # inflected conjunction
        "lang:python def return",
        "index -merge",
        "buffers merging parsers",  # inflected OR
    ]

    @pytest.mark.parametrize("q", QUERIES)
    def test_rank_identical(self, fidx, foracle, q):
        got = fidx.search(q, k=20)
        want = foracle.search(q, k=20)
        assert got["doc_id"].to_pylist() == [d for d, _ in want]
        np.testing.assert_allclose(
            got["score"].to_pylist(), [s for _, s in want], rtol=1e-9
        )

    def test_partitioned_matches_single(self, fidx):
        from solr_indexer_ray.pipelines.search import search_partitioned

        for q in ("indexes AND merges", "parse index query", "the"):
            a = fidx.search(q, k=15)
            b = search_partitioned(fidx.index_dir, q, k=15)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
            np.testing.assert_allclose(
                a["score"].to_pylist(), b["score"].to_pylist(), rtol=1e-12
            )


class TestLifecyclePins:
    def test_extend_preserves_chain(self, stem_index, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines.build import extend_index
        from solr_indexer_ray.pipelines.search import SearchEngine

        src_dir, _ = stem_index
        index_dir = str(tmp_path / "idx")
        shutil.copytree(src_dir, index_dir)
        new_path = str(tmp_path / "more.parquet")
        pq.write_table(
            _corpus_table(["the merged windowing of streams"]), new_path
        )
        stats = extend_index(new_path, index_dir)
        assert stats["filters"] == ["stop", "porter"]
        eng = SearchEngine(index_dir)
        t = eng.search("merging windows", k=20)
        assert len(STEM_DOCS) in set(t["doc_id"].to_pylist())  # new doc hit
        assert eng.search("the", k=10).num_rows == 0

    def test_sharded_pin_mismatch_raises(self, stem_index, built_index):
        from solr_indexer_ray.pipelines.search import search_sharded

        with pytest.raises(ValueError, match="pins"):
            search_sharded([stem_index[0], built_index[0]], "stream")

    def test_sharded_filtered_shards_work(self, stem_index, tmp_path):
        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.search import search_sharded

        path = str(tmp_path / "c2.parquet")
        pq.write_table(
            _corpus_table(["merged streams", "the sorted window"]), path
        )
        idx2 = str(tmp_path / "idx2")
        build_index(
            path, idx2,
            config=IndexConfig(
                filters=("stop", "porter"), store_positions=True,
                store_content=True, concurrency=1,
            ),
        )
        t = search_sharded([stem_index[0], idx2], "merging streams", k=10)
        assert t.num_rows > 0
        shards = set(t["shard"].to_pylist())
        assert len(shards) == 2  # hits from both shards
        assert search_sharded([stem_index[0], idx2], "the").num_rows == 0
