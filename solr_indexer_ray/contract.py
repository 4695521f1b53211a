"""Driver-contract query implementations + DuckDB oracle SQL.

Every operator family from SURVEY.md §2 (and the training-data extensions)
is exposed as a named query callable over an ``sf_dir`` of driver testdata,
paired — where ANSI-SQL-expressible — with an oracle SQL string that DuckDB
runs over the same parquet tables.  **Column names and value types match
bit-for-bit by construction**: both sides pin the same tokenization
(``regexp_split_to_array(lower(text), '[^a-z0-9]+')`` == ``simple_analyzer``),
the same Lucene SmallFloat length quantization, the same discrete formulas,
and round float aggregates to fixed decimals before ranking/compare so
summation-order ulps cannot flip results.

Non-SQL-expressible ops (MinHash/SimHash signatures, rolling-hash
fingerprints, multimodal decode) are registered without oracle SQL — the
driver records a rows-only check, and their correctness lives in pytest.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from solr_indexer_ray.functions.textstats import (
    lang_id,
    punct_ratio,
    quality_score,
    stopword_ratio,
)
from solr_indexer_ray.functions.tokenize import simple_analyzer

K1, B = 1.2, 0.75
BM25_K = 10
BM25_QUERIES = [
    "window",
    "spark merge",
    "the batch join stream",
    "lang:en spark window",
    "sort AND merge",
    "key -join",
    "zzzznotaterm",
    "lang:zh the",
]
#: phrase-query set (positions index): real bigrams/trigrams of the
#: documents vocabulary + adversarial forms (repeated-term phrase, phrase
#: under AND, prohibited phrase, filter+phrase, no-hit phrase)
PHRASE_QUERIES = [
    '"sort merge"',
    '"batch batch"',
    '"the batch" AND stream',
    'spark "merge line"',
    '-"sort merge" window',
    'lang:en "data line"',
    '"join stream" OR "key order"',
    '"zz qq"',
]
#: 3+-term phrase set (combined bigram+positions index: the chain
#: matcher over pair position streams — r5 O3b3): real trigrams of the
#: documents vocabulary + adversarial forms (4 terms, repeated term,
#: prohibited chain, filter+chain, no-hit chain)
PHRASE3_QUERIES = [
    '"sort merge join"',
    '"the batch stream"',
    'spark "data line sort merge"',
    '"batch batch batch"',
    '-"sort merge join" window',
    'lang:en "the data line"',
    '"zz qq zz"',
]
#: wildcard / match-all query set (constant-score prefix rewrite)
WILDCARD_QUERIES = [
    "win*",
    "sp* merge",
    "st* AND batch",
    "-jo* window",
    "lang:e* spark",
    "win* jo*",
    "zzz*",
    "zzz* AND spark",
    "*:*",
]
#: facet contract: queries x fields (Solr facet.field over the match set)
FACET_QUERIES = ["spark merge", "sort AND merge", "win*", "lang:en spark"]
#: range-filter query set (doclen = analyzed token count; lang strings)
#: /terms component cases: (prefix, limit, mincount)
TERMS_CASES = [("", 20, 1), ("s", 15, 1), ("wi", 10, 1), ("zz", 5, 1)]
#: stats component cases: (query, numeric field)
STATS_CASES = [("spark merge", "doclen"), ("*:*", "doclen"),
               ("lang:en win*", "doclen")]
#: percentile points for the stats-percentiles contract
PCT_POINTS = [5.0, 25.0, 50.0, 75.0, 95.0, 99.0]

#: range-facet cases: (query, start, end, gap)
RANGE_FACET_CASES = [("spark merge", 0, 500, 50), ("win*", 40, 240, 40)]
#: pivot-facet cases: (query, f1, f2)
PIVOT_CASES = [("spark merge", "lang", "repo"), ("window", "repo", "lang")]

#: query-time boost cases (term^b, "phrase"^b, prefix*^b)
BOOST_QUERIES = [
    "spark^2 merge",
    "spark^0.5 AND merge",
    '"sort merge"^3 window',
    "win*^2 batch",
    "spark^2 merge^2 the^0.1",
]

#: minimum-should-match cases (Solr (e)dismax ``mm``): (query, spec) —
#: int / percent / negative / conditional specs, filter + absent-term
#: interactions, and a spec that clamps to all-required
MM_CASES = [
    ("spark merge window", "2"),
    ("spark merge window batch", "75%"),
    ("sort merge window", "-1"),
    ("spark merge window batch stream", "2<-25% 4<3"),
    ("lang:en spark merge window", "2"),
    ("spark merge zzzznotaterm", "2"),
    ("spark merge", "3"),
]

#: edismax phrase-field cases: (query, search kwargs, explicit-clause
#: equivalent).  The engine runs the pf form; the oracle (and the row
#: label) uses the explicit rewrite — pf is BY CONSTRUCTION the same
#: clauses appended score-only, and the identity is pytest-pinned.
PF_CASES = [
    ("spark merge", {"pf": "content^2"},
     'spark merge "spark merge"^2'),
    ("the batch join", {"pf": "content^1.5"},
     'the batch join "the batch join"^1.5'),
    ("sort merge window", {"pf2": "content^2"},
     'sort merge window "sort merge"^2 "merge window"^2'),
    ("spark merge line", {"pf": "content^3", "ps": 2},
     'spark merge line "spark merge line"~2^3'),
    ("key order stream batch", {"pf3": "content^2"},
     'key order stream batch "key order stream"^2 "order stream batch"^2'),
]

#: fuzzy cases (Lucene FuzzyQuery; blended SynonymQuery-stats rewrite,
#: classic Levenshtein expansion against the index dictionary)
FUZZY_QUERIES = [
    "spak~1",
    "windwo~2",
    "merg~1 batch",
    "spark~1 AND merge",
    "lang:en spak~1",
    "-spak~1 window",
    "batsh~1^2 stream",
    "qzqzqzqz~1",
]

#: function-query boosts (edismax bf/boost): (query, bf list, boost list)
#: — final = (base + sum(bf)) * product(boost); score-only, membership
#: from the main query alone.  Expressions exercise the whole grammar
#: (recip/log/sum/product/sqrt/map/min/max/sub/div/pow/ln) over the
#: stored doclen column so the SQL oracle can reproduce values exactly.
FUNC_QUERIES = [
    ("window", ["recip(doclen,1,1000,1000)"], []),
    ("spark merge", [], ["log(sum(doclen,10))"]),
    ("the batch join stream",
     ["sqrt(doclen)", "product(0.5,doclen)"], ["recip(doclen,1,200,200)"]),
    ("sort AND merge", ["map(doclen,0,50,5)"], []),
    ("key -join",
     ["sub(max(doclen,60),min(doclen,60))"], ["div(doclen,100)"]),
    ("lang:en spark window", ["pow(doclen,0.5)"], ["sum(ln(doclen),1)"]),
    ("window batch", ["recip(geodist(lat,lon,10,20),1,1000,1)"], []),
]

#: edismax boost queries: (main query, [bq, ...]) — each bq's own score
#: (term boosts included; ConstantScore weight for pure-filter bq) adds
#: to main-query matches; membership from the main query alone
BQ_CASES = [
    ("window", ["spark^2"]),
    ("spark merge", ["lang:en^5"]),
    ("the batch join stream", ["sort merge"]),
    ("sort AND merge", ["window^2", "lang:en"]),
    ("key -join", ["lang:en stream^3"]),
    ("lang:en spark window", ["the^0.5"]),
]

#: general wildcard cases (?, infix and leading *): constant-score union
#: over LIKE-matching dictionary terms
WILDCARD_INFIX_QUERIES = [
    "w?ndow",
    "*ndow",
    "s*rk merge",
    "b?tch AND stream",
    "-*indow spark",
    "lang:en *erge",
    "z?qzz*",
]

#: regex term-query cases (/pattern/ — Lucene RegexpQuery, RE2 syntax,
#: full-term anchoring): constant-score union over regex-matching
#: dictionary terms.  Reference surface: full Lucene query passthrough
#: (README.md:259-260).
REGEX_QUERIES = [
    "/w.ndow/",
    "/sp(ar|ur)k/ merge",
    "/.*ndow/",
    "/b[ae]tch/ AND stream",
    "-/wind\\w*/ spark",
    "lang:en /m[a-z]+ge/",
    "/st(r|l)eam(s|ing)?/^2 batch",
    "/zzq+[0-9]*x/",
]

#: parenthesized boolean grouping cases.  Every root path carries at
#: least one SCORING clause (the SQL oracle derives membership from the
#: union of contributions, so a root match with zero scoring clauses —
#: e.g. a bare filter alternative — would be unrepresentable there).
BOOL_QUERIES = [
    "(spark OR window) AND merge",
    "(spark AND merge) OR window",
    "(spark OR window) AND -batch",
    "(lang:en OR lang:de) AND spark",
    "-(spark window) AND merge",
    "((spark OR stream) AND batch) OR window",
    "(spark OR window) -batch",  # negated sibling = MUST_NOT, not OR-alt
]

#: query-time synonym map + cases (Lucene SynonymQuery semantics)
SYN_MAP = {"spark": ["stream"], "merge": ["join"]}
SYN_QUERIES = ["spark", "spark merge", "spark AND batch", "lang:en spark^2",
               "window merge -key"]

#: sharded-search cases (federated over two half-corpus indexes)
SHARD_QUERIES = ["spark merge", "sort AND merge", '"sort merge" window',
                 "win* batch", "spark^2 the"]

#: spellcheck cases (misspelled words over the documents vocabulary)
SUGGEST_WORDS = ["spak", "merg", "windwo", "batsh", "qzqzqz"]

#: grouping cases: (query, group field, k_groups, group_limit)
GROUP_CASES = [
    ("spark merge", "lang", 5, 2),
    ("window", "repo", 4, 3),
    ("win* batch", "lang", 6, 1),
]

#: collapse cases: (query, collapse field, k heads, expand_limit)
COLLAPSE_CASES = [
    ("spark merge", "lang", 5, 2),
    ("window", "repo", 4, 0),
    ("win* batch", "lang", 6, 1),
]

#: /analysis handler pinned docs (token streams re-derived per stage)
ANALYZE_DOCS = [3, 77, 210]

#: rerank cases: (query, rerank query, k, rerank_docs, rerank_weight)
RERANK_CASES = [
    ("spark merge", "window", 10, 5, 2.0),
    ("window", "batch", 10, 30, 3.0),
    ("spark OR batch", "win*", 8, 12, 1.5),
]

#: point-distance spatial cases: (parser kind, pt lat, pt lon, d km) —
#: lat/lon stored columns derive from doc_id arithmetic (see
#: documents_to_corpus_table) so the SQL oracle recomputes them exactly;
#: every d sits km away from any doc's distance (float-noise-proof)
GEOFILT_CASES = [
    ("geofilt", 10.0, 20.0, 3000.0),
    ("geofilt", -45.0, 170.0, 2500.0),
    ("bbox", 60.0, -50.0, 4000.0),
]

#: join cases: (inner query, from field, to field)
JOIN_CASES = [
    ("window", "repo", "repo"),
    ("spark merge", "lang", "lang"),
    ("win* batch", "lang", "repo"),
]

#: MoreLikeThis sources (doc ids into the documents table)
MLT_DOCS = [7, 123, 321]
MLT_PARAMS = {"max_query_terms": 25, "min_term_freq": 2, "min_doc_freq": 5}

#: (query, solr sort spec) pairs for the sorted-browse contract
SORT_CASES = [
    ("spark merge", "doclen desc"),
    ("window", "doclen asc"),
    ("lang:en spark", "repo asc, doclen desc"),
    ("doclen:[40 TO 120]", "doclen desc"),
]
RANGE_QUERIES = [
    "doclen:[40 TO 120] spark",
    "doclen:{40 TO 120} spark",
    "doclen:[* TO 60] merge window",
    "-doclen:[100 TO *] spark AND merge",
    "lang:[de TO es] window",
    "doclen:[40 TO 200]",
    'doclen:[30 TO 300] "sort merge"',
    "doclen:[40 TO 90] win*",
]
#: proximity cases ("a b"~slop — ordered span-near, phrase scoring)
NEAR_QUERIES = [
    '"sort merge"~2',
    '"spark merge"~3',
    '"the batch"~1 stream',
    '"spark stream window"~4',
    '-"sort merge"~2 window',
    '"sort merge"~2^2 key',
    'lang:en "data line"~3',
    '"zz qq"~5',
]

#: date-typed range queries over the synthetic ``mtime`` stored column
#: (mtime = 2024-01-01T00:00:00Z + doc_id hours; reference precedent:
#: strict datetime + DateRange fields, solrindexer/mmd.py:419-421)
DATE_RANGE_QUERIES = [
    "mtime:[2024-01-05T00:00:00Z TO 2024-01-12T00:00:00Z] spark",
    "mtime:{2024-01-05T00:00:00Z TO 2024-01-12T00:00:00Z} window",
    "mtime:[* TO 2024-01-03T12:00:00Z] merge batch",
    "-mtime:[2024-01-10T00:00:00Z TO *] spark AND merge",
    "mtime:[2024-01-02 TO 2024-01-04] the",  # lenient date-only literals
]

FACET_FIELDS = ["lang", "repo"]  # repo <- documents.source (FIXTURES map)
ANN_N_QUERIES = 5
ANN_K = 10

#: per-field scored search over extra analyzed fields (index built with
#: analyzed_fields=("path_text:path", "repo_text:repo"); corpus mapping:
#: path = "doc_<id>.txt" -> tokens [doc, <id>, txt], repo = source)
FIELD_QUERIES = [
    "path_text:txt spark",
    "repo_text:src3 merge",
    "path_text:7 window",
    "-repo_text:src3 spark",
    "path_text:doc AND merge",
    "repo_text:src5^2 window",
    "repo_text:zzqq spark",      # field term absent from the field
    'path_text:"doc 7" window',  # fielded PhraseQuery (positions)
    '-path_text:"doc 7" spark',
    'repo_text:"src4" merge',    # single-token quoted -> field term
]
#: dismax qf cases (Solr qf + tie): free terms score max-over-fields
QF_SPEC = "content^1 path_text^1.5"
QF_TIE = 0.25
QF_QUERIES = [
    "txt spark",
    "doc",
    "window txt merge",
    "spark merge",
]

#: hybrid BM25+vector fusion: text query qi pairs with the embedding of
#: vec_id = qi (plain OR term queries only — the SQL oracle's text-rank
#: CTE covers exactly the flat disjunctive shape)
HYBRID_QUERIES = [
    "spark merge",
    "window stream",
    "read write key",
    "the batch",
    "sort join data",
]

#: the DuckDB-exact tokenizer expression (must mirror simple_analyzer)
SQL_TOKS = (
    "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')"
)

#: stop-filter contract cases (index built with filters=("stop",)):
#: stopword-in-query forms (dropped clause), all-stopword queries (Lucene
#: empty BooleanQuery -> 0 hits), AND interactions.  NO filter+stop-only
#: combos (those are pure-filter matches, covered elsewhere).
STOP_QUERIES = [
    "the window",
    "the batch join stream",
    "spark AND the",
    "the",
    "a window the stream",
    "sort AND the AND merge",
    "window stream",
]

#: Porter-stem contract cases (index with filters=("stop", "porter")):
#: inflected query forms that must match the corpus base forms via the
#: shared stem (rows-only — no SQL stemmer; correctness is pytest-pinned
#: against the paper's vectors + brute-force rank identity).
STEM_QUERIES = [
    "merged windows",
    "queries",
    "sorting AND joining",
    "streams filtered",
    "batched customers",
    "the sorted merges",
]


# ===================================================================== #
# helpers
# ===================================================================== #
def _strip_md(t):
    """Drop schema metadata: the driver testdata parquet carries a
    pandas-metadata blob that makes pyarrow schemas unhashable, which
    trips Ray's schema-dedup fast path into per-block warnings."""
    return t.replace_schema_metadata(None)


def _read(sf_dir: str, name: str, columns=None):
    return rd.read_parquet(
        os.path.join(sf_dir, name), columns=columns
    ).map_batches(_strip_md, batch_format="pyarrow", zero_copy_batch=True)


def _documents(sf_dir: str):
    return _read(sf_dir, "documents.parquet")


def _round_half_away(x: np.ndarray, decimals: int) -> np.ndarray:
    """Round half away from zero — DuckDB's ROUND semantics (numpy rounds
    half to even, which would diverge exactly on .5 boundaries)."""
    x = np.asarray(x, dtype=np.float64)
    factor = 10.0 ** decimals
    return np.sign(x) * np.floor(np.abs(x) * factor + 0.5) / factor


def _py_round(x: float, decimals: int) -> float:
    return float(_round_half_away(np.array([x]), decimals)[0])


class _TokenExploder:
    """documents rows -> (doc_id, term, tf) rows + per-doc length."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, terms, tfs = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            counts: dict = {}
            for t in simple_analyzer(text or ""):
                counts[t] = counts.get(t, 0) + 1
            for t in sorted(counts):
                doc_ids.append(did)
                terms.append(t)
                tfs.append(counts[t])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )


def _token_table(sf_dir: str):
    """(doc_id, term, tf) Dataset via vectorized-per-batch explode."""
    return _documents(sf_dir).map_batches(
        _TokenExploder, batch_format="pyarrow", concurrency=2
    )


# ===================================================================== #
# text / index queries
# ===================================================================== #
def q_term_df(sf_dir: str):
    """Term document frequencies (SURVEY A6: postings df stats).

    Partial pre-aggregation inside map_batches (one (term, partial) row per
    batch) before the small groupby — the combiner pattern for shuffles.
    """
    def partial(batch: pa.Table) -> pa.Table:
        terms, counts = np.unique(
            np.asarray(batch["term"].to_pylist(), dtype=object),
            return_counts=True,
        )
        return pa.table(
            {
                "term": pa.array(list(terms), pa.string()),
                "partial": pa.array(counts, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    # one row per (doc, term) -> df = row count per term
    return (
        _token_table(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("partial", alias_name="df"))
    )


def q_doc_stats(sf_dir: str):
    """Corpus stats: N, sum_dl, avgdl (Lucene avgdl semantics)."""
    docs = _documents(sf_dir)

    def lens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dl": pa.array(
                    [len(simple_analyzer(t or ""))
                     for t in batch["text"].to_pylist()],
                    pa.int64(),
                )
            }
        )

    from ray.data.aggregate import Count, Sum

    agg = docs.map_batches(lens, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"), Sum("dl", alias_name="sum_dl")
    )
    n, s = int(agg["n_docs"]), int(agg["sum_dl"])
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "sum_dl": pa.array([s], pa.int64()),
            "avgdl": pa.array([s / n], pa.float64()),
        }
    )


def q_top_terms(sf_dir: str):
    """Top 20 terms by df (deterministic total order: df desc, term asc)."""
    df = q_term_df(sf_dir)
    t = pa.Table.from_pylist(df.take_all())
    order = pc.sort_indices(
        t, sort_keys=[("df", "descending"), ("term", "ascending")]
    )
    return t.take(order[:20])


def q_doc_sha256(sf_dir: str):
    """Per-row integrity invariant (BASELINE.json input_hint)."""
    def sha(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sha256": pa.array(
                    [hashlib.sha256((t or "").encode()).hexdigest()
                     for t in batch["text"].to_pylist()],
                    pa.string(),
                ),
            }
        )

    return _documents(sf_dir).map_batches(sha, batch_format="pyarrow")


def q_text_quality(sf_dir: str):
    """Text analysis: token counts, punct/stopword ratios, quality gates,
    marker-word language ID (functions.textstats)."""
    def stats(batch: pa.Table) -> pa.Table:
        out = {
            "doc_id": batch["doc_id"].to_pylist(),
            "n_tokens": [], "punct_ratio": [], "stopword_ratio": [],
            "quality_score": [], "lang_guess": [],
        }
        for text in batch["text"].to_pylist():
            toks = simple_analyzer(text or "")
            p, s = punct_ratio(text or ""), stopword_ratio(toks)
            out["n_tokens"].append(len(toks))
            out["punct_ratio"].append(p)
            out["stopword_ratio"].append(s)
            out["quality_score"].append(quality_score(len(toks), p, s))
            out["lang_guess"].append(lang_id(toks))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "punct_ratio": pa.array(out["punct_ratio"], pa.float64()),
                "stopword_ratio": pa.array(out["stopword_ratio"], pa.float64()),
                "quality_score": pa.array(out["quality_score"], pa.float64()),
                "lang_guess": pa.array(out["lang_guess"], pa.string()),
            }
        )

    return _documents(sf_dir).map_batches(stats, batch_format="pyarrow")


def q_pii_scrub(sf_dir: str):
    """PII detection + redaction (training-data cleaning): per-doc match
    counts per kind and the sha256 of the scrubbed text — the hash makes
    the whole redaction value-checked even for PII-free rows."""
    from solr_indexer_ray.stages.pii import scrub_pii

    scrubbed = scrub_pii(_documents(sf_dir))

    def sha(batch: pa.Table) -> pa.Table:
        h = [hashlib.sha256((t or "").encode()).hexdigest()
             for t in batch["text"].to_pylist()]
        return batch.drop_columns(["text"]).append_column(
            "scrubbed_sha", pa.array(h, pa.string())
        )

    return scrubbed.map_batches(sha, batch_format="pyarrow")


FACET_QUERY_MAIN = "spark"
FACET_QUERY_SUBS = [
    "lang:en",
    "doclen:[40 TO 120]",
    "merge",
    "window batch",
    "zzqqzz",
]


def q_facet_query(sf_dir: str):
    """Solr facet.query: per sub-query, |match(main) ∩ match(sub)|."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    out = engine.facet_query(FACET_QUERY_MAIN, FACET_QUERY_SUBS)
    return pa.table(
        {
            "facet_query": pa.array(FACET_QUERY_SUBS, pa.string()),
            "n": pa.array([out[s] for s in FACET_QUERY_SUBS], pa.int64()),
        }
    )


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals per doc: duplicate-token fraction
    and top-token share (round-6; boilerplate/spam filter inputs)."""
    from solr_indexer_ray.functions.textstats import repetition_stats

    def stats(batch: pa.Table) -> pa.Table:
        ids, dup, top = [], [], []
        for d, text in zip(batch["doc_id"].to_pylist(),
                           batch["text"].to_pylist()):
            df_, tf_ = repetition_stats(simple_analyzer(text or ""))
            ids.append(d)
            dup.append(_py_round(df_, 6))
            top.append(_py_round(tf_, 6))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "dup_frac": pa.array(dup, pa.float64()),
                "top_frac": pa.array(top, pa.float64()),
            }
        )

    return _documents(sf_dir).map_batches(stats, batch_format="pyarrow")


DECON_N = 5           # shingle width (sf0.01 docs are short)
DECON_BENCH_DOCS = 25  # "benchmark" = first K docs of the corpus


def q_decontaminated(sf_dir: str):
    """Benchmark decontamination: n-gram shingle overlap counts of every
    corpus doc against the broadcast benchmark shingle set (benchmark =
    the first DECON_BENCH_DOCS docs — they flag themselves plus any
    near-dups, a perfect self-check)."""
    from solr_indexer_ray.stages.curation import decontaminate

    docs = _documents(sf_dir)
    bench = docs.filter(
        expr=f"doc_id < {DECON_BENCH_DOCS}"
    )
    return decontaminate(docs, bench, n=DECON_N)


MIXTURE_RATES = {"src0": 1.0, "src1": 0.5, "src2": 0.25, "src3": 0.0}


def q_mixture_sample(sf_dir: str):
    """Deterministic domain-mixture subsampling: keep iff
    md5(doc_id)/2^32 < rate[source] (default 0.35 for unlisted sources)
    — RNG-free, oracle-reproducible."""
    from solr_indexer_ray.stages.curation import sample_mixture

    out = sample_mixture(
        _documents(sf_dir), MIXTURE_RATES, default_rate=0.35
    )
    return out.map_batches(
        lambda t: t.select(["doc_id", "source"]), batch_format="pyarrow"
    )


def q_lang_counts(sf_dir: str):
    from ray.data.aggregate import Count

    return _documents(sf_dir).groupby("lang").aggregate(
        Count(alias_name="n_docs")
    )


#: quantile-sketch contract: exact-binary q values (identical float
#: arithmetic in numpy and DuckDB) over lineitem.l_quantity histograms
QUANTILE_QS = (0.125, 0.25, 0.5, 0.75, 0.875)
QUANTILE_LO, QUANTILE_HI, QUANTILE_BINS = 0.0, 51.0, 102
KMV_K = 64
HH_K = 8


def q_kmv_sample(sf_dir: str):
    """KMV sketch (k minimum sha256 values) over distinct order
    custkeys — a mergeable distinct-count sketch whose CONTENT doubles
    as a deterministic uniform sample; sha256 mode gives the sketch a
    SQL oracle (ORDER BY sha256 LIMIT k)."""
    from solr_indexer_ray.stages.sketch import kmv_sketch

    ds = _read(sf_dir, "orders.parquet", columns=["o_custkey"])
    sketch, _est = kmv_sketch(ds, "o_custkey", k=KMV_K, hash="sha256")
    return sketch


def q_heavy_hitters(sf_dir: str):
    """Heavy hitters over events.event_type: Misra-Gries candidates +
    exact recount — the output is exactly 'values with count >
    N/(k+1)', so the sketch route has a plain GROUP BY/HAVING oracle."""
    from solr_indexer_ray.stages.sketch import heavy_hitters

    ds = _read(sf_dir, "events.parquet", columns=["event_type"])
    return heavy_hitters(ds, "event_type", k=HH_K)


def q_quantile_sketch(sf_dir: str):
    """Distributed fixed-width-histogram quantiles over
    lineitem.l_quantity (per-block partial histograms, driver
    sum-merge); exact-binary bin width and q values make the result
    bit-reproducible in SQL."""
    from solr_indexer_ray.stages.sketch import quantile_histogram

    ds = _read(sf_dir, "lineitem.parquet", columns=["l_quantity"])
    sk = quantile_histogram(ds, "l_quantity", lo=QUANTILE_LO,
                            hi=QUANTILE_HI, n_bins=QUANTILE_BINS)
    return pa.table({
        "q": pa.array(list(QUANTILE_QS), pa.float64()),
        "quantile": pa.array([sk.quantile(q) for q in QUANTILE_QS],
                             pa.float64()),
    })


def q_hll_distinct(sf_dir: str):
    """HyperLogLog distinct estimates (rows-only: the estimate is
    deterministic but not SQL-reproducible; accuracy bounds are pinned
    in tests/test_sketch.py)."""
    from solr_indexer_ray.stages.sketch import hll_sketch

    rows = []
    for table, col in (("events.parquet", "user_id"),
                       ("orders.parquet", "o_custkey"),
                       ("lineitem.parquet", "l_partkey")):
        ds = _read(sf_dir, table, columns=[col])
        est = hll_sketch(ds, col, p=12).estimate()
        rows.append({"column": f"{table.split('.')[0]}.{col}",
                     "estimate": float(est)})
    return pa.Table.from_pylist(rows)


def q_exact_dedup(sf_dir: str):
    from solr_indexer_ray.stages.dedup import exact_dedup

    return exact_dedup(_documents(sf_dir), text_col="text", id_col="doc_id")


def q_upsert_latest(sf_dir: str):
    """Last-write-wins upsert analogue: max doc_id per (source, lang)."""
    from ray.data.aggregate import Max

    return (
        _documents(sf_dir)
        .groupby(["source", "lang"])
        .aggregate(Max("doc_id", alias_name="doc_id"))
    )


def q_doc_get(sf_dir: str):
    """Realtime-get analogue (J1): point lookup with predicate pushdown."""
    import pyarrow.dataset as pads

    return pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        filter=pc.field("doc_id") == 42
    )


#: atomic-update contract targets: first N doc ids
ATOMIC_N = 20

#: spatial filter cases: (op, minX, maxX, minY, maxY, scoring term or "")
#: — the bbox columns derive from doc_id arithmetic (see _geo_index) so
#: the SQL oracle reproduces them exactly; includes an
#: antimeridian-crossing query envelope and pure-filter (score 0) forms
SPATIAL_CASES = [
    ("Intersects", -30.0, 60.0, -20.0, 45.0, "spark"),
    ("Intersects", 160.0, -150.0, -40.0, 40.0, "merge"),
    ("IsWithin", -120.0, 40.0, -60.0, 60.0, "window"),
    ("Contains", -10.0, -5.0, 10.0, 12.0, ""),
    ("Intersects", 100.0, 179.0, -80.0, 80.0, ""),
]


def spatial_query(op, qw, qe, qs, qn, term) -> str:
    prefix = f"{term} " if term else ""
    return f'{prefix}bbox:"{op}(ENVELOPE({qw}, {qe}, {qn}, {qs}))"'


def q_atomic_updates(sf_dir: str):
    """Solr atomic-update verbs (set/add/add-distinct/remove/removeregex/
    inc) applied over a private copy of the contract index, then read
    back through the overlay-resolving get path.  Operands derive from
    each doc's own ``lang`` plus pure doc_id arithmetic so the oracle
    SQL reproduces the final state relationally.  Three separate calls
    exercise cross-call verb composition (overlay-as-base)."""
    import shutil

    import pyarrow.dataset as pads

    from solr_indexer_ray.pipelines.mutate import atomic_update
    from solr_indexer_ray.pipelines.search import SearchEngine

    base = _bm25_index(sf_dir)
    work = os.path.join(os.path.dirname(base), "index_atomic_v1")
    if os.path.exists(work):
        shutil.rmtree(work)
    shutil.copytree(base, work,
                    ignore=shutil.ignore_patterns(".build_lock", "*.tmp.*"))

    ids = list(range(ATOMIC_N))
    langs = {
        r["doc_id"]: r["lang"]
        for r in pads.dataset(os.path.join(sf_dir, "documents.parquet"))
        .to_table(columns=["doc_id", "lang"],
                  filter=pc.field("doc_id") < ATOMIC_N)
        .to_pylist()
    }
    call1 = []
    for i in ids:
        u = {"doc_id": i, "views": {"inc": i % 7 + 1},
             "tags": {"add": langs[i]}}
        if i % 2 == 0:
            u["status"] = {"set": "reviewed"}
        call1.append(u)
    atomic_update(work, call1)
    call2 = []
    for i in ids:
        u = {"doc_id": i, "tags": {"add-distinct": ["x", langs[i]]}}
        if i % 2 == 0:
            u["views"] = {"inc": 10}
        if i == 5:
            u["tags2"] = {"add": ["aa1", "keep", "aa2"]}
        call2.append(u)
    atomic_update(work, call2)
    call3 = [{"doc_id": i, "tags": {"remove": "x"}}
             for i in ids if i % 3 == 0]
    call3.append({"doc_id": 5, "tags2": {"removeregex": "aa[0-9]"}})
    call3.append({"doc_id": 4, "status": {"set": None}})
    atomic_update(work, call3)

    engine = SearchEngine(work)
    rows = []
    for i in ids:
        d = engine.get(i)
        rows.append({
            "doc_id": i,
            "views": int(d["views"]),
            "tags": ",".join(d["tags"]),
            "tags2": ",".join(d["tags2"]) if d.get("tags2") else None,
            "status": d.get("status"),
        })
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([
            ("doc_id", pa.int64()), ("views", pa.int64()),
            ("tags", pa.string()), ("tags2", pa.string()),
            ("status", pa.string()),
        ]),
    )


def _geo_index(sf_dir: str) -> str:
    """Contract index with envelope columns (bbox_west/_east/_south/_north)
    derived deterministically from doc_id: null every 53rd doc,
    antimeridian-crossing every 41st, otherwise plain envelopes — the same
    arithmetic the SQL oracle recomputes."""
    key = ("geo", sf_dir)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import documents_to_corpus_table
    from solr_indexer_ray.state.manifest import BuildManifest

    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    os.makedirs(work, exist_ok=True)
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    corpus = documents_to_corpus_table(docs)
    i = docs["doc_id"].to_numpy()
    west = (((i * 37) % 320) - 170).astype(np.float64)
    east = west + (i % 29) + 1.0
    south = (((i * 13) % 140) - 70).astype(np.float64)
    north = south + (i % 17) + 1.0
    cross = (i % 41) == 7
    west[cross] = 150.0 + (i[cross] % 20)
    east[cross] = -160.0 - (i[cross] % 10)
    valid = pa.array((i % 53) != 11)
    for name, vals in (("bbox_west", west), ("bbox_east", east),
                       ("bbox_south", south), ("bbox_north", north)):
        arr = pc.if_else(valid, pa.array(vals, pa.float64()),
                         pa.scalar(None, pa.float64()))
        corpus = corpus.append_column(name, arr)
    corpus_path = os.path.join(work, "corpus_geo.parquet")
    pq.write_table(corpus, corpus_path, row_group_size=4096)
    index_dir = os.path.join(work, "index_geo_v1")
    config = IndexConfig(
        concurrency=2,
        extra_stored=("bbox_west", "bbox_east", "bbox_south", "bbox_north"),
    )
    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config,
                    registry=AnalyzerRegistry("simple", overrides={}),
                    overwrite=True)
    _INDEX_CACHE[key] = index_dir
    return index_dir


def _fl_index(sf_dir: str) -> str:
    """Contract index with extra stored serialized columns for the Solr fl
    field transformers (reference SOLR_FL/SOLR_MMD_FL,
    ``solrindexer/search.py:46-47``): ``meta_json`` (a JSON string built
    deterministically from lang/n_chars) and ``doc_xml`` (an XML string
    from doc_id/lang) — the same strings the SQL oracle recomputes."""
    key = ("fl", sf_dir)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    import json

    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import documents_to_corpus_table
    from solr_indexer_ray.state.manifest import BuildManifest

    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    os.makedirs(work, exist_ok=True)
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    corpus = documents_to_corpus_table(docs)
    ids = docs["doc_id"].to_pylist()
    langs = docs["lang"].to_pylist()
    nchars = docs["n_chars"].to_pylist()
    meta = [
        json.dumps({"lang": l, "n": int(n)}, sort_keys=True)
        for l, n in zip(langs, nchars)
    ]
    xml = [
        f'<doc id="{i}"><lang>{l}</lang></doc>'
        for i, l in zip(ids, langs)
    ]
    corpus = corpus.append_column("meta_json", pa.array(meta))
    corpus = corpus.append_column("doc_xml", pa.array(xml))
    corpus_path = os.path.join(work, "corpus_fl.parquet")
    pq.write_table(corpus, corpus_path, row_group_size=4096)
    index_dir = os.path.join(work, "index_fl_v1")
    config = IndexConfig(
        concurrency=2, extra_stored=("meta_json", "doc_xml"),
    )
    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config,
                    registry=AnalyzerRegistry("simple", overrides={}),
                    overwrite=True)
    _INDEX_CACHE[key] = index_dir
    return index_dir


def q_fl_transformers(sf_dir: str):
    """fl field transformers: ``meta_json:[json]`` parses the stored JSON
    string into a struct (fields then extracted as scalar columns) and
    ``doc_xml:[xml]`` passes the raw XML through — full store→search→
    transform round-trip; the SQL oracle recomputes both serializations
    from the documents table."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_fl_index(sf_dir))
    n = engine.count()
    t = engine.search(
        "", k=n, sort="doc_id asc",
        fl=["doc_id", "meta_json:[json]", "doc_xml:[xml]"],
    )
    meta = t["meta_json"].combine_chunks()
    return pa.table({
        "doc_id": t["doc_id"],
        "meta_lang": pc.struct_field(meta, "lang"),
        "meta_n": pc.struct_field(meta, "n"),
        "doc_xml": t["doc_xml"],
    })


def q_gml_extent_wkt(sf_dir: str):
    """F10 GML->WKT as a distributed batch fn (the reference's
    ``_extract_geographic_extent`` polygon path, ``solrindexer/mmd.py:430``
    + ``spatial.py:80-83``): each event derives a deterministic integer
    lat/lon box, is serialized to a GML 3 Polygon (urn EPSG:4326, lat/lon
    axis order), and ``parse_gml_to_wkt`` recovers lon/lat WKT inside
    ``map_batches``; the SQL oracle rebuilds the same WKT by string
    concatenation over the same integer arithmetic."""
    from solr_indexer_ray.functions.spatial import parse_gml_to_wkt

    def to_wkt(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        w = ids % 340 - 170
        s = ids % 160 - 80
        e = w + 1 + ids % 9
        n = s + 1 + ids % 9
        wkts = []
        for wi, si, ei, ni in zip(w, s, e, n):
            gml = (
                '<gml:Polygon xmlns:gml="http://www.opengis.net/gml/3.2" '
                'srsName="urn:ogc:def:crs:EPSG::4326">'
                "<gml:exterior><gml:LinearRing><gml:posList>"
                f"{si} {wi} {si} {ei} {ni} {ei} {ni} {wi} {si} {wi}"
                "</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>"
            )
            wkts.append(parse_gml_to_wkt(gml))
        return pa.table({
            "event_id": batch["event_id"],
            "geometry_wkt": pa.array(wkts, pa.string()),
        })

    return _read(sf_dir, "events.parquet", columns=["event_id"]).map_batches(
        to_wkt, batch_format="pyarrow")


def _bm25_field_index(sf_dir: str) -> str:
    """Contract index with extra ANALYZED fields: path_text (from the
    synthesized path "doc_<id>.txt") and repo_text (from repo=source) —
    per-field postings/stats/norms for fielded scoring + dismax qf."""
    key = ("fields", sf_dir)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import documents_to_corpus_table
    from solr_indexer_ray.state.manifest import BuildManifest

    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    os.makedirs(work, exist_ok=True)
    corpus_path = os.path.join(work, "corpus.parquet")
    if not os.path.exists(corpus_path):
        docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
        pq.write_table(
            documents_to_corpus_table(docs), corpus_path,
            row_group_size=4096,
        )
    index_dir = os.path.join(work, "index_fields_v2")
    config = IndexConfig(
        concurrency=2, store_positions=True,
        analyzed_fields=("path_text:path", "repo_text:repo"),
    )
    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config,
                    registry=AnalyzerRegistry("simple", overrides={}),
                    overwrite=True)
    _INDEX_CACHE[key] = index_dir
    return index_dir


def q_field_topk(sf_dir: str):
    """Top-k with per-field scored term clauses (path_text:/repo_text:):
    Lucene fielded TermQuery — field df, docCount, avgdl and norms."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(
        SearchEngine(_bm25_field_index(sf_dir)), FIELD_QUERIES
    )


def q_qf_topk(sf_dir: str):
    """Top-k with dismax qf (Solr DisjunctionMaxQuery + tiebreaker):
    every free term scores max over {content, path_text^1.5} + tie*rest."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_field_index(sf_dir))
    rows = []
    for q in QF_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"],
                             qf=QF_SPEC, tie=QF_TIE)
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]),
                 "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_spatial_topk(sf_dir: str):
    """Solr spatial filter queries (Intersects/IsWithin/Contains over
    ENVELOPE fields) composed with BM25 scoring; pure-filter cases match
    at score 0 in doc_id order.  Ranking key (round(score,4) desc,
    doc_id) as in q_bm25_topk."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_geo_index(sf_dir))
    rows = []
    for case in SPATIAL_CASES:
        q = spatial_query(*case)
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_ngram_jaccard_dups(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs (threshold 0.5, n=3)."""
    from solr_indexer_ray.stages.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _documents(sf_dir), text_col="text", id_col="doc_id", n=3,
        threshold=0.5, hot_shingle_cap=None,  # exact mode for the SQL oracle
    )
    t = pa.Table.from_pylist(pairs.take_all())
    if t.num_rows == 0:
        return pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "similarity": pa.array([], pa.float64())}
        )
    order = pc.sort_indices(t, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")])
    return t.take(order).select(["id_a", "id_b", "similarity"])


def q_jaccard_dedup_survivors(sf_dir: str):
    """Cleaned-corpus step: doc ids surviving near-dup collapse —
    connected components over the exact n-gram Jaccard pair graph
    (threshold 0.5), MIN id kept per component.  SQL oracle recomputes
    the components with a recursive transitive-closure CTE."""
    from solr_indexer_ray.stages.dedup import (
        near_dedup_survivors,
        ngram_jaccard_pairs,
    )

    docs = _documents(sf_dir)
    pairs = ngram_jaccard_pairs(
        docs, text_col="text", id_col="doc_id", n=3,
        threshold=0.5, hot_shingle_cap=None,
    )
    survivors = near_dedup_survivors(docs, pairs, id_col="doc_id")
    t = pa.Table.from_pylist(
        survivors.select_columns(["doc_id"]).take_all()
    )
    if t.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def q_dedup_survivors_distcc(sf_dir: str):
    """Same cleaned-corpus semantics as ``jaccard_dedup_survivors`` but
    with the DISTRIBUTED connected-components path FORCED
    (``max_driver_pairs=0`` -> min-label propagation in Ray Data, the
    100 TB shape; VERDICT r4 item 2) — the driver value-checks that the
    distributed survivor rule is bit-identical to the union-find oracle."""
    from solr_indexer_ray.stages.dedup import (
        near_dedup_survivors,
        ngram_jaccard_pairs,
    )

    docs = _documents(sf_dir)
    pairs = ngram_jaccard_pairs(
        docs, text_col="text", id_col="doc_id", n=3,
        threshold=0.5, hot_shingle_cap=None,
    )
    survivors = near_dedup_survivors(
        docs, pairs, id_col="doc_id", max_driver_pairs=0
    )
    t = pa.Table.from_pylist(
        survivors.select_columns(["doc_id"]).take_all()
    )
    if t.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def q_minhash_dups(sf_dir: str):
    """MinHash+LSH candidates, exact-verified — VALUE-CHECKED against
    ``contract_sql.minhash_dups_sql()``, which replays the whole
    shingle→signature→band→bucket→verify pipeline in DuckDB bit-for-bit
    (round 4; was rows-only)."""
    from solr_indexer_ray.stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(
        _documents(sf_dir), text_col="text", id_col="doc_id",
        n=3, num_perm=128, bands=32, threshold=0.5,
    )


def q_simhash_dups(sf_dir: str):
    """SimHash banded near-dup pairs — VALUE-CHECKED against
    ``contract_sql.SIMHASH_DUPS_SQL`` (bit votes, band buckets and
    XOR/popcount hamming all replayed in DuckDB; round 4, was
    rows-only)."""
    from solr_indexer_ray.stages.dedup import simhash_pairs

    return simhash_pairs(
        _documents(sf_dir), text_col="text", id_col="doc_id", max_hamming=3
    )


def q_hll_registers(sf_dir: str):
    """HyperLogLog sketch REGISTERS — the mergeable distributed state —
    value-checked (round 4): the splitmix64 hash, bucket index, rank
    (rho) and per-bucket max are all replayed in DuckDB
    (``contract_sql.hll_registers_sql()``; uint64 wraparound emulated
    with 32-bit split multiplies in HUGEINT).  Only nonzero registers
    are emitted (zeros are implicit).  The float ESTIMATE stays
    rows-only in ``q_hll_distinct`` because its 4096-term float
    reduction is summation-order-sensitive; its accuracy bounds are
    pinned in tests/test_sketch.py."""
    from solr_indexer_ray.stages.sketch import hll_sketch

    rows = []
    for table, col in (("events.parquet", "user_id"),
                       ("orders.parquet", "o_custkey"),
                       ("lineitem.parquet", "l_partkey")):
        ds = _read(sf_dir, table, columns=[col])
        sk = hll_sketch(ds, col, p=12)
        name = f"{table.split('.')[0]}.{col}"
        for i in np.flatnonzero(sk.registers):
            rows.append({"column": name,
                         "register_index": int(i),
                         "register_value": int(sk.registers[i])})
    return pa.Table.from_pylist(rows)


def q_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprints — value-checked against a DuckDB
    oracle that recomputes FNV-1a per token (recursive byte loop) and the
    mod-2^61-1 positional rolling sum (contract_sql.FINGERPRINTS_SQL)."""
    from solr_indexer_ray.functions.textstats import fingerprint

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(
                    [fingerprint(simple_analyzer(t or ""))
                     for t in batch["text"].to_pylist()],
                    pa.int64(),
                ),
            }
        )

    return _documents(sf_dir).map_batches(fp, batch_format="pyarrow")


def q_multimodal_decode(sf_dir: str):
    """Multimodal plumbing demo: deterministic fake media -> decoded
    metadata + features (rows-only check; no media in testdata)."""
    from solr_indexer_ray.stages import multimodal

    ds = rd.from_arrow(multimodal.fake_media_table(64, seed=11))
    out = multimodal.decode_media(ds, concurrency=2, batch_size=16)
    return out.drop_columns(["features"])  # list<float> hashes poorly; keep scalars


def q_multimodal_frames(sf_dir: str):
    """VALUE-CHECKED video frame sampling: videos derive deterministically
    from the documents table (n_frames/width/height are arithmetic over
    doc_id/n_chars, zero payload), stream through the frame-sample actor
    pool (uniform linspace + numpy round-half-even index selection) and
    the decode pool; the sampled frame indexes and per-frame header
    metadata are recomputed in SQL — upgrading this contract from a
    rows-only check (VERDICT r3 item 7)."""
    import struct as _struct

    from solr_indexer_ray.stages import multimodal

    def to_video(batch: pa.Table) -> pa.Table:
        blobs = []
        for did, nch in zip(batch["doc_id"].to_pylist(),
                            batch["n_chars"].to_pylist()):
            n = 2 + (int(nch) % 7)
            w = 3 + (int(did) % 5)
            h = 2 + (int(did) % 4)
            blobs.append(
                multimodal.VIDEO_MAGIC
                + _struct.pack("<III", n, w, h)
                + bytes(n * w * h)
            )
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "kind": pa.array(["video"] * batch.num_rows, pa.string()),
                "mime": pa.array(
                    ["video/x-fake"] * batch.num_rows, pa.string()
                ),
                "data": pa.array(blobs, pa.binary()),
            }
        )

    media = _documents(sf_dir).map_batches(
        to_video, batch_format="pyarrow", batch_size=256
    )
    frames = multimodal.sample_frames(media, n_samples=3, concurrency=2,
                                      batch_size=64)
    out = multimodal.decode_media(frames, concurrency=2, batch_size=64)
    t = pa.Table.from_pylist(out.take_all())
    t = t.select(["media_id", "frame_index", "width", "height", "n_bytes"])
    order = pc.sort_indices(
        t, sort_keys=[("media_id", "ascending"),
                      ("frame_index", "ascending")]
    )
    return t.take(order)


def q_multimodal_decode_meta(sf_dir: str):
    """VALUE-CHECKED multimodal decode: media blobs derive
    deterministically from the documents table (synthetic header +
    utf-8 payload), stream through the decode actor pool, and the
    decoded header metadata (width/height/byte count) is recomputable in
    SQL from the same text column — upgrading the multimodal path from a
    rows-only check to a DuckDB-oracle contract."""
    import struct as _struct

    from solr_indexer_ray.stages import multimodal

    def to_media(batch: pa.Table) -> pa.Table:
        blobs = []
        for text in batch["text"].to_pylist():
            payload = (text or "").encode("utf-8")
            w = min(len(payload), 4096)
            blobs.append(
                multimodal.MAGIC + _struct.pack("<II", w, 7) + payload
            )
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "kind": pa.array(["image"] * batch.num_rows, pa.string()),
                "mime": pa.array(
                    ["image/x-fake"] * batch.num_rows, pa.string()
                ),
                "data": pa.array(blobs, pa.binary()),
            }
        )

    media = _documents(sf_dir).map_batches(
        to_media, batch_format="pyarrow", batch_size=256
    )
    out = multimodal.decode_media(media, concurrency=2, batch_size=64)
    t = pa.Table.from_pylist(out.take_all())
    t = t.select(["media_id", "width", "height", "n_bytes"])
    order = pc.sort_indices(t, sort_keys=[("media_id", "ascending")])
    return t.take(order)


# ===================================================================== #
# BM25 over the documents corpus (the flagship contract query)
# ===================================================================== #
_INDEX_CACHE: dict = {}


def _bm25_index(sf_dir: str) -> str:
    """Build (once per sf_dir per process) the inverted index over the
    documents table mapped onto the corpus schema; simple analyzer for all
    langs so the SQL oracle can reproduce tokenization exactly."""
    if sf_dir in _INDEX_CACHE:
        return _INDEX_CACHE[sf_dir]
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import documents_to_corpus_table

    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    os.makedirs(work, exist_ok=True)
    corpus_path = os.path.join(work, "corpus.parquet")
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    # engine doc ids are positional; the contract requires them to equal
    # the documents.doc_id column (driver data is dense + sorted — assert)
    ids = docs["doc_id"].to_numpy()
    assert (ids == np.arange(len(ids))).all(), "documents.doc_id not dense"
    pq.write_table(
        documents_to_corpus_table(docs), corpus_path, row_group_size=4096
    )
    # v2: layout includes the mtime extra stored column (date ranges)
    index_dir = os.path.join(work, "index_full_v3")
    registry = AnalyzerRegistry("simple", overrides={})
    # positions + stored content: ONE shared index serves bm25/phrase/
    # wildcard/range/sort/facet/mlt contract queries
    config = IndexConfig(concurrency=2, store_positions=True,
                         store_content=True,
                         extra_stored=("mtime", "lat", "lon", "bbox"))
    from solr_indexer_ray.state.manifest import BuildManifest

    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config, registry=registry,
                    overwrite=True)
    _INDEX_CACHE[sf_dir] = index_dir
    return index_dir


def _bigram_index(sf_dir: str) -> str:
    """Index with the next-word (adjacent-bigram) option and NO positions
    (IndexConfig.store_bigrams; Williams/Zobel/Bahle combined index): the
    2-term phrase contract queries must produce the identical ranking from
    one bigram-postings lookup that the positional matcher produces."""
    key = (sf_dir, "bigram")
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.state.manifest import BuildManifest

    _bm25_index(sf_dir)  # materializes the shared corpus parquet
    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    corpus_path = os.path.join(work, "corpus.parquet")
    index_dir = os.path.join(work, "index_bigram_v1")
    registry = AnalyzerRegistry("simple", overrides={})
    config = IndexConfig(concurrency=2, store_bigrams=True)
    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config,
                    registry=registry, overwrite=True)
    _INDEX_CACHE[key] = index_dir
    return index_dir


def _combined_index(sf_dir: str) -> str:
    """Index with BOTH positions and the next-word option: 3+-term phrase
    queries must produce the identical ranking from the pair-stream chain
    matcher that the member-position matcher produces."""
    key = (sf_dir, "combined")
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.state.manifest import BuildManifest

    _bm25_index(sf_dir)  # materializes the shared corpus parquet
    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    corpus_path = os.path.join(work, "corpus.parquet")
    index_dir = os.path.join(work, "index_combined_v1")
    registry = AnalyzerRegistry("simple", overrides={})
    config = IndexConfig(concurrency=2, store_positions=True,
                         store_bigrams=True)
    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config,
                    registry=registry, overwrite=True)
    _INDEX_CACHE[key] = index_dir
    return index_dir


def q_phrase_chain_topk(sf_dir: str):
    """PHRASE3_QUERIES (3+-term exact phrases) answered by the COMBINED
    index's bigram-chain matcher (consecutive pair position streams; the
    member terms' positions are never decoded) — must match the same
    positional-semantics SQL oracle as every phrase contract."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_combined_index(sf_dir))
    assert engine.has_bigrams and engine.has_positions
    rows = []
    for q in PHRASE3_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_phrase_bigram_topk(sf_dir: str):
    """The q_phrase_topk query set answered by the NEXT-WORD index (no
    positions stored at all): phrase tf comes from the ``a\\x1eb`` bigram
    postings, weight stays the sum of member idfs, so the ranking must be
    bit-identical to the positional path — and to the same SQL oracle."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bigram_index(sf_dir))
    assert engine.has_bigrams and not engine.has_positions
    rows = []
    for q in PHRASE_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def _filtered_index(sf_dir: str, filters: tuple, subdir: str) -> str:
    """Index over the same corpus with a token-filter chain
    (IndexConfig.filters — Solr analysis-chain parity, SURVEY §8 O3ac)."""
    key = (sf_dir, subdir)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.state.manifest import BuildManifest

    _bm25_index(sf_dir)  # ensures the corpus parquet exists
    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    index_dir = os.path.join(work, subdir)
    if not BuildManifest(index_dir).is_committed():
        build_index(
            os.path.join(work, "corpus.parquet"), index_dir,
            config=IndexConfig(concurrency=2, filters=filters),
            registry=AnalyzerRegistry("simple", overrides={}),
            overwrite=True,
        )
    _INDEX_CACHE[key] = index_dir
    return index_dir


def _topk_rows(engine, queries) -> pa.Table:
    """Shared (round(score,4) desc, doc_id) top-k table builder."""
    rows = []
    for q in queries:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_stop_topk(sf_dir: str):
    """BM25 over a stop-filtered index (Solr StopFilter): stopword query
    atoms drop (Lucene QueryParser), all-stopword queries match nothing
    (empty BooleanQuery), doclen/avgdl count post-filter tokens."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_filtered_index(sf_dir, ("stop",), "index_stop_v1"))
    return _topk_rows(engine, STOP_QUERIES)


def q_stem_topk(sf_dir: str):
    """BM25 over a stop+Porter index (Solr text_en analysis chain):
    inflected query forms match base-form docs via the shared stem.
    Rows-only (no SQL stemmer); value correctness is pytest-pinned."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(
        _filtered_index(sf_dir, ("stop", "porter"), "index_stem_v1")
    )
    return _topk_rows(engine, STEM_QUERIES)


def q_bm25_topk(sf_dir: str):
    """Top-k BM25 over the documents corpus for the pinned query set.

    Ranking key is (round(score, 4) desc, doc_id) in BOTH the engine path
    and the SQL oracle, so float summation order cannot flip ranks."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q in BM25_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_phrase_topk(sf_dir: str):
    """Top-k BM25 with exact-phrase clauses (positional index; Lucene
    PhraseQuery: tf = phrase frequency, weight = sum of member idfs).
    Same (round(score,4) desc, doc_id) ranking key as q_bm25_topk."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q in PHRASE_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_wildcard_topk(sf_dir: str):
    """Top-k with wildcard (prefix) clauses — Solr/Lucene CONSTANT_SCORE
    multi-term rewrite: 1.0 per matching doc per clause; match-all ``*:*``.
    Same ranking key as q_bm25_topk."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q in WILDCARD_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        if q == "*:*":  # match-all: ascending id, score 0 (Solr order)
            order = np.argsort(ids)[:BM25_K]
        else:
            order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def _rounded_topk_rows(engine, queries) -> pa.Table:
    """Shared shape for the syntax-tail contracts: per query, full match
    set scored, scores rounded half-away to 4, ranked (score desc, doc_id
    asc), top BM25_K — the float-order-independent ranking key every
    topk oracle pins."""
    rows = []
    for q in queries:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_fuzzy_topk(sf_dir: str):
    """Top-k with fuzzy clauses (term~1/~2): expansion against the index
    dictionary via the suggester's pruned Levenshtein scan, scored as one
    blended SynonymQuery clause (tf summed, df = max member df)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(SearchEngine(_bm25_index(sf_dir)), FUZZY_QUERIES)


def q_func_topk(sf_dir: str):
    """Top-k with Solr function-query boosts (edismax ``bf``/``boost``):
    ``final = (base + sum(bf)) * product(boost)`` over the stored doclen
    column, score-only (membership from the main query alone).  Same
    (round(score,4) desc, doc_id) ranking key as q_bm25_topk; the case
    label pins query + expressions so the SQL oracle block matches 1:1."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, bf, boost in FUNC_QUERIES:
        label = f"{q} | bf={';'.join(bf)} | boost={';'.join(boost)}"
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"],
                             bf=bf or None, boost=boost or None)
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": label, "doc_id": int(ids[i]),
                 "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


#: doc ids pinned by the term_vectors contract (< n_docs at sf >= 0.01)
TV_DOC_IDS = [0, 7, 123, 456]

#: JSON-facet stat metrics pinned by the facet_stats contract
FACET_STATS_METRICS = {
    "sum_len": "sum(doclen)",
    "avg_len": "avg(doclen)",
    "min_len": "min(doclen)",
    "max_len": "max(doclen)",
}


def q_facet_stats(sf_dir: str):
    """Solr JSON Facet API analogue: terms facet over ``lang`` with
    nested sum/avg/min/max aggregates over ``doclen`` per bucket, via
    the distributed per-range partial-aggregate path (count desc /
    value asc bucket order; doclen is integral so partials merge
    exactly)."""
    from solr_indexer_ray.pipelines.search import facet_stats_partitioned

    idx = _bm25_index(sf_dir)
    parts = []
    for q in FACET_QUERIES:
        t = facet_stats_partitioned(idx, q, "lang", FACET_STATS_METRICS)
        parts.append(t.add_column(0, "query", pa.array([q] * t.num_rows)))
    return pa.concat_tables(parts)


def q_gopher_filter(sf_dir: str):
    """Gopher-style quality gate over the documents table: keep flag,
    violated-rule names and the raw signals (default thresholds)."""
    from solr_indexer_ray.stages.curation import gopher_quality_filter

    out = gopher_quality_filter(_documents(sf_dir)).take_all()
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [("doc_id", pa.int64()), ("keep", pa.bool_()),
             ("violations", pa.string()), ("n_tokens", pa.int64()),
             ("mean_token_len", pa.float64()),
             ("alpha_frac", pa.float64()), ("dup_frac", pa.float64()),
             ("top_frac", pa.float64())]
        ),
    )


def q_paragraph_dedup(sf_dir: str):
    """C4-style global paragraph dedup over the documents table: spans
    split on the literal ' the ' token (the corpus has no newlines),
    duplicates dropped keep-first, survivors reassembled (see
    stages/curation.paragraph_dedup)."""
    from solr_indexer_ray.stages.curation import paragraph_dedup

    out = paragraph_dedup(_documents(sf_dir),
                          separator=" the ").take_all()
    return pa.Table.from_pylist(
        out,
        schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                          ("n_paras", pa.int64()),
                          ("n_dropped", pa.int64())]),
    )


def q_train_valid_split(sf_dir: str):
    """Deterministic md5-keyed train/validation split (20% valid)."""
    from solr_indexer_ray.stages.curation import split_train_valid

    out = split_train_valid(_documents(sf_dir), valid_frac=0.2).take_all()
    return pa.Table.from_pylist(
        [{"doc_id": r["doc_id"], "split": r["split"]} for r in out],
        schema=pa.schema([("doc_id", pa.int64()),
                          ("split", pa.string())]),
    )


def q_shuffled_order(sf_dir: str):
    """Deterministic global shuffle: rank of every doc under the
    md5-key ordering (a full distributed sort, oracle-reproducible)."""
    from solr_indexer_ray.stages.curation import shuffle_deterministic

    out = shuffle_deterministic(
        _documents(sf_dir).select_columns(["doc_id"])
    ).take_all()
    return pa.Table.from_pylist(
        [{"rank": i, "doc_id": r["doc_id"]}
         for i, r in enumerate(out)],
        schema=pa.schema([("rank", pa.int64()),
                          ("doc_id", pa.int64())]),
    )


def q_packed_sequences(sf_dir: str):
    """Greedy contiguous sequence packing (budget 128 tokens, bins
    break at doc_id//150 shard boundaries) over the documents table —
    the shard-parallel map_groups + prefix-sum-rebase path of
    stages/curation.pack_sequences; shard_size=150 exercises real
    multi-shard packing at sf0.01 (500 docs -> 4 shards)."""
    from solr_indexer_ray.stages.curation import pack_sequences

    return pack_sequences(_documents(sf_dir), budget=128, shard_size=150)


def q_lm_quality(sf_dir: str):
    """CCNet-style bigram-LM quality signal: per-doc mean log-prob under
    an add-0.5 bigram model with SCALE-BOUNDED training state: trained
    on the deterministic md5 half-sample of the corpus, count tables
    pruned to the top-24 unigrams / top-600 bigrams (distributed
    sort+limit — genuinely prunes sf0.01's 31/916 distinct keys), and
    scoring streamed over all docs (see
    stages/curation.lm_quality_score).  avg_logp rounded half-away to 4;
    ppl omitted (exp() can differ in the last ulp across libms)."""
    from solr_indexer_ray.stages.curation import lm_quality_score

    out = lm_quality_score(
        _documents(sf_dir), train_sample_rate=0.5,
        max_unigrams=24, max_bigrams=600,
    ).take_all()
    return pa.Table.from_pylist(
        [{"doc_id": r["doc_id"], "n_bigrams": r["n_bigrams"],
          "avg_logp": r["avg_logp"]} for r in out],
        schema=pa.schema(
            [("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
             ("avg_logp", pa.float64())]
        ),
    )


def q_term_vectors(sf_dir: str):
    """Solr TermVectorComponent (/tvrh): per-doc term vectors with tf,
    index-wide df and 0-based token positions, re-derived from the
    stored body with the pinned analyzer."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    parts = []
    for did in TV_DOC_IDS:
        t = engine.term_vectors(did, with_positions=True)
        parts.append(
            t.add_column(0, "doc_id",
                         pa.array([did] * t.num_rows, pa.int64()))
        )
    return pa.concat_tables(parts)


def q_bq_topk(sf_dir: str):
    """Top-k with Solr edismax boost queries (``bq``): each bq's own
    score (plus a ConstantScore weight for pure-filter bq) adds to
    main-query matches before ranking; membership never extends.  Same
    (round(score,4) desc, doc_id) ranking key as q_bm25_topk."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, bqs in BQ_CASES:
        label = f"{q} | bq={';'.join(bqs)}"
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"], bq=bqs)
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": label, "doc_id": int(ids[i]),
                 "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_mm_topk(sf_dir: str):
    """Top-k with Solr minimum-should-match (``mm``): membership needs
    >= resolved-mm distinct optional clauses; survivor scores are the
    plain OR scores.  Same ranking key as q_bm25_topk."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, spec in MM_CASES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"], mm=spec)
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "mm": spec, "doc_id": int(ids[i]),
                 "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("mm", pa.string()),
             ("doc_id", pa.int64()), ("score_r", pa.float64())]
        ),
    )


def q_pf_topk(sf_dir: str):
    """Top-k with edismax phrase fields (pf/pf2/pf3/ps): score-only
    phrase-boost clauses over the free-term sequence.  Rows are labeled
    with the explicit-clause equivalent query so the oracle can express
    the same ranking in SQL."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, kwargs, label in PF_CASES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"], **kwargs)
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": label, "doc_id": int(ids[i]),
                 "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_wildcard_infix_topk(sf_dir: str):
    """Top-k with general wildcard clauses (?, infix/leading *):
    constant-score union over LIKE-matching dictionary terms."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(
        SearchEngine(_bm25_index(sf_dir)), WILDCARD_INFIX_QUERIES
    )


def q_regex_topk(sf_dir: str):
    """Top-k with /regex/ clauses (Lucene RegexpQuery, RE2 syntax):
    constant-score union over full-match dictionary terms; the oracle runs
    the same patterns through DuckDB's regexp_full_match (also RE2)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(SearchEngine(_bm25_index(sf_dir)), REGEX_QUERIES)


def q_near_topk(sf_dir: str):
    """Top-k with proximity clauses ("a b"~slop): ordered span-near
    matching over positional postings, PhraseQuery scoring."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(SearchEngine(_bm25_index(sf_dir)), NEAR_QUERIES)


def q_date_range_topk(sf_dir: str):
    """Top-k with date-typed range filters on the ``mtime`` timestamp
    stored column (strict Solr literals + lenient date-only forms)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(
        SearchEngine(_bm25_index(sf_dir)), DATE_RANGE_QUERIES
    )


def q_bool_topk(sf_dir: str):
    """Top-k for parenthesized boolean queries: clause-tree evaluation
    (Lucene BooleanQuery: a doc's score sums every matching scoring clause
    inside every matched branch)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    return _rounded_topk_rows(SearchEngine(_bm25_index(sf_dir)), BOOL_QUERIES)


def q_facets(sf_dir: str):
    """Field facets (Solr facet.field semantics: full match set, zero-count
    buckets at mincount=0, count-desc/value-asc order) for a pinned set of
    (query, field) pairs, via the distributed per-range facet path."""
    from solr_indexer_ray.pipelines.search import facet_partitioned

    idx = _bm25_index(sf_dir)
    rows = []
    for q in FACET_QUERIES:
        facets = facet_partitioned(idx, q, FACET_FIELDS)
        for fld in FACET_FIELDS:
            for v, c in facets[fld]:
                rows.append(
                    {"query": q, "field": fld, "value": v, "count": c}
                )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("field", pa.string()),
             ("value", pa.string()), ("count", pa.int64())]
        ),
    )


def q_range_topk(sf_dir: str):
    """Top-k with Lucene range filters (inclusive/exclusive/open bounds on
    metadata strings and the numeric doclen field); same ranking key as
    q_bm25_topk, pure-range queries return score-0 ascending ids."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q in RANGE_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_sorted_browse(sf_dir: str):
    """Solr ``sort`` param: field-ranked retrieval over the full match set
    (doclen/metadata keys, asc/desc, ascending-doc_id tie-break)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, spec in SORT_CASES:
        t = engine.search(q, k=20, fl=["doc_id", "doclen"], sort=spec)
        for rank, row in enumerate(t.to_pylist()):
            rows.append(
                {
                    "case": f"{q} | {spec}",
                    "rank": rank,
                    "doc_id": int(row["doc_id"]),
                    "doclen": int(row["doclen"]),
                }
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("case", pa.string()), ("rank", pa.int64()),
             ("doc_id", pa.int64()), ("doclen", pa.int64())]
        ),
    )


def q_more_like_this(sf_dir: str):
    """Solr MoreLikeThis: per source doc, top-10 similar docs via the
    Lucene MLT term-selection discipline (tf·(1+ln(N/df)), 6dp-rounded,
    term-asc ties) + unboosted BM25 OR query, source excluded."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for src in MLT_DOCS:
        full = engine.more_like_this(src, k=engine.n_docs, fl=["doc_id"],
                                     **MLT_PARAMS)
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"src": src, "doc_id": int(ids[i]),
                 "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("src", pa.int64()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_terms_component(sf_dir: str):
    """Solr /terms: term enumeration with df, count-desc/term-asc order,
    prefix + mincount + limit."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for prefix, limit, mincount in TERMS_CASES:
        for rank, (term, df) in enumerate(
            engine.terms(prefix=prefix, limit=limit, mincount=mincount)
        ):
            rows.append(
                {"prefix": prefix, "rank": rank, "term": term, "df": df}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("prefix", pa.string()), ("rank", pa.int64()),
             ("term", pa.string()), ("df", pa.int64())]
        ),
    )


def q_field_stats(sf_dir: str):
    """Solr stats component: min/max/sum/mean/count over the full match
    set's doclen (analyzed token count)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    from solr_indexer_ray.pipelines.search import stats_partitioned

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, fld in STATS_CASES:
        # distributed path (identical to engine.field_stats, tested)
        st = stats_partitioned(_bm25_index(sf_dir), q, fld)
        for stat in ("count", "min", "max", "sum"):
            rows.append(
                {"case": f"{q}|{fld}", "stat": stat,
                 "value": float(st[stat] if st[stat] is not None else -1)}
            )
        rows.append(
            {"case": f"{q}|{fld}", "stat": "mean",
             "value": round(st["mean"], 6) if st["mean"] is not None else -1.0}
        )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("case", pa.string()), ("stat", pa.string()),
             ("value", pa.float64())]
        ),
    )


def q_grouped(sf_dir: str):
    """Solr result grouping: top groups by best-doc relevance, top docs per
    group (scores rounded 4dp before ranking so the SQL oracle matches)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    parts = []
    for q, fld, kg, gl in GROUP_CASES:
        t = engine.group_search(q, fld, k_groups=kg, group_limit=gl,
                                round_scores=4)
        parts.append(
            t.append_column(
                "case", pa.array([f"{q}|{fld}"] * t.num_rows, pa.string())
            )
        )
    out = pa.concat_tables(parts)
    return out.rename_columns(
        [c if c != "score" else "score_r" for c in out.column_names]
    )


#: significant-terms cases: (query, limit, min_df, max_df fraction)
SIGTERM_CASES = [
    ("lang:en spark", 10, 2, 0.9),
    ("window merge", 12, 20, 0.85),
]


#: LTR contract model (LinearModel shape; see SearchEngine.ltr_search)
LTR_MODEL = {
    "type": "linear",
    "features": [
        {"name": "bm25", "type": "originalScore"},
        {"name": "decay", "type": "function",
         "expr": "recip(doclen,1,1000,1000)"},
        {"name": "is_en", "type": "query", "q": "lang:en"},
        {"name": "aux", "type": "queryScore", "q": "window"},
    ],
    "weights": {"bm25": 1.0, "decay": 3.0, "is_en": 0.5, "aux": 2.0},
}
LTR_CASE = ("spark merge", 10, 30)  # (query, k, rerank_docs)

#: Solr MultipleAdditiveTreesModel analogue (the lambdaMART ensemble
#: format) — small enough that the oracle renders it as nested CASEs
LTR_TREE_MODEL = {
    "type": "trees",
    "features": [
        {"name": "bm25", "type": "originalScore"},
        {"name": "dl", "type": "function", "expr": "doclen"},
        {"name": "is_en", "type": "query", "q": "lang:en"},
    ],
    "trees": [
        {"weight": 2.0, "root": {
            "feature": "dl", "threshold": 40,
            "left": {"value": 1.0},
            "right": {"feature": "is_en", "threshold": 0.5,
                      "left": {"value": 0.2}, "right": {"value": 0.8}},
        }},
        {"weight": 1.5, "root": {
            "feature": "bm25", "threshold": 2.0,
            "left": {"value": 0.1}, "right": {"value": 1.0},
        }},
    ],
}


def q_ltr_trees_topk(sf_dir: str):
    """Solr LTR MultipleAdditiveTreesModel rescoring (lambdaMART
    ensembles train into this format): the same top-N window shape as
    q_ltr_topk, scored by Σ weight_t · tree_t(features); components
    rounded 4dp so the nested-CASE SQL oracle matches exactly."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    q, k, n = LTR_CASE
    t = engine.ltr_search(q, LTR_TREE_MODEL, k=k, rerank_docs=n,
                          fl=["doc_id"], round_scores=4)
    return pa.Table.from_pylist(
        [{"rank": i, "doc_id": r["doc_id"], "score_r": r["score"]}
         for i, r in enumerate(t.to_pylist())],
        schema=pa.schema([("rank", pa.int64()), ("doc_id", pa.int64()),
                          ("score_r", pa.float64())]),
    )


def q_ltr_topk(sf_dir: str):
    """Solr LTR LinearModel rescoring: the main query's top-N window
    rescored by a weighted linear feature model (original score +
    function + match indicator + auxiliary query score), components
    rounded 4dp before weighting so the SQL oracle matches."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    q, k, n = LTR_CASE
    t = engine.ltr_search(q, LTR_MODEL, k=k, rerank_docs=n,
                          fl=["doc_id"], round_scores=4)
    return pa.Table.from_pylist(
        [{"rank": i, "doc_id": r["doc_id"], "score_r": r["score"]}
         for i, r in enumerate(t.to_pylist())],
        schema=pa.schema([("rank", pa.int64()), ("doc_id", pa.int64()),
                          ("score_r", pa.float64())]),
    )


def q_result_clusters(sf_dir: str):
    """Solr ClusteringComponent analogue: the top-50 hits of one query
    clustered over the embeddings table (deterministic spherical
    k-means; rows-only — Lloyd iterations aren't SQL-expressible, the
    pytest suite pins the algebra)."""
    from solr_indexer_ray.pipelines.search import SearchEngine
    from solr_indexer_ray.stages.cluster import cluster_results

    return cluster_results(
        SearchEngine(_bm25_index(sf_dir)), "spark merge",
        os.path.join(sf_dir, "embeddings.parquet"),
        k_clusters=4, top_n=50,
    )


def q_luke_fields(sf_dir: str):
    """Solr /admin/luke analogue: the stored-field inventory (name,
    arrow type, non-null doc count) plus meta rows for the doc and
    distinct-term counts — all recomputable relationally."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    info = SearchEngine(_bm25_index(sf_dir)).luke()
    rows = [
        {"field": name, "type": f["type"], "docs": f["docs"]}
        for name, f in sorted(info["fields"].items())
    ]
    rows.append({"field": "__n_docs__", "type": "meta",
                 "docs": info["n_docs"]})
    rows.append({"field": "__n_terms__", "type": "meta",
                 "docs": info["n_terms"]})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("field", pa.string()), ("type", pa.string()),
                          ("docs", pa.int64())]),
    )


def q_significant_terms(sf_dir: str):
    """Significant terms (Solr SignificantTermsQParser analogue): JLH
    foreground-vs-background scoring over each query's match set,
    scores rounded 6dp before ranking so the SQL oracle matches."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    parts = []
    for q, k, mindf, maxdf in SIGTERM_CASES:
        t = engine.significant_terms(q, limit=k, min_doc_freq=mindf,
                                     max_doc_freq=maxdf,
                                     round_scores=6)
        parts.append(
            t.append_column(
                "query", pa.array([q] * t.num_rows, pa.string())
            )
        )
    out = pa.concat_tables(parts)
    return out.rename_columns(
        [c if c != "score" else "score_r" for c in out.column_names]
    )


#: /sql statements pinned by the contract (pipelines/sql.py — the Solr
#: Parallel SQL handler analogue; the oracle runs the semantically
#: identical SQL over the raw parquet + recomputed token stats)
SQL_CASES = {
    "sql_group_agg": (
        "SELECT lang, count(*) AS n, sum(doclen) AS sum_dl, "
        "avg(doclen) AS avg_dl FROM docs WHERE content = 'spark' "
        "GROUP BY lang HAVING count(*) >= 2 ORDER BY n DESC, lang ASC"
    ),
    "sql_select_where": (
        "SELECT doc_id, lang, doclen FROM docs "
        "WHERE content = 'spark window' AND doclen BETWEEN 20 AND 90 "
        "AND lang IN ('en', 'de') "
        "ORDER BY doclen DESC, doc_id ASC LIMIT 50"
    ),
}


def q_sql_group_agg(sf_dir: str):
    """Solr /sql handler analogue: GROUP BY aggregation with HAVING,
    compiled onto the streaming export + Ray groupby (pipelines/sql.py,
    the same SQL->streaming-expression lowering as Solr's Calcite
    handler)."""
    from solr_indexer_ray.pipelines.sql import sql_to_table

    t = sql_to_table(SQL_CASES["sql_group_agg"],
                     {"docs": _bm25_index(sf_dir)})
    return pa.table(
        {"lang": t["lang"].cast(pa.string()),
         "n": t["n"].cast(pa.int64()),
         "sum_dl": t["sum_dl"].cast(pa.int64()),
         "avg_dl": t["avg_dl"].cast(pa.float64())}
    )


def q_sql_select_where(sf_dir: str):
    """Solr /sql projection shape: WHERE (text query + range + IN) ->
    fq lowering, ORDER BY + LIMIT over the streamed export."""
    from solr_indexer_ray.pipelines.sql import sql_to_table

    t = sql_to_table(SQL_CASES["sql_select_where"],
                     {"docs": _bm25_index(sf_dir)})
    return pa.table(
        {"doc_id": t["doc_id"].cast(pa.int64()),
         "lang": t["lang"].cast(pa.string()),
         "doclen": t["doclen"].cast(pa.int64())}
    )


def q_stream_rollup(sf_dir: str):
    """Solr streaming expression rollup(search(...)) compiled to a Ray
    Data pipeline: full-export source under a broadcast match mask ->
    groupby aggregate (see pipelines/streaming.py)."""
    from solr_indexer_ray.pipelines.streaming import compile_stream_expr

    ds = compile_stream_expr(
        'rollup(search(docs, q="spark merge", fl="lang,doclen,doc_id"), '
        'over="lang", sum(doclen), count(*), avg(doclen))',
        _bm25_index(sf_dir),
    )
    rows = sorted(ds.take_all(), key=lambda r: r["lang"])
    return pa.Table.from_pylist(
        [{"lang": r["lang"], "sum(doclen)": int(r["sum(doclen)"]),
          "count(*)": int(r["count(*)"]),
          "avg(doclen)": float(r["avg(doclen)"])} for r in rows],
        schema=pa.schema([("lang", pa.string()),
                          ("sum(doclen)", pa.int64()),
                          ("count(*)", pa.int64()),
                          ("avg(doclen)", pa.float64())]),
    )


def q_stream_join(sf_dir: str):
    """Streaming-expression innerJoin of two search exports (hash join
    via Dataset.join)."""
    from solr_indexer_ray.pipelines.streaming import compile_stream_expr

    ds = compile_stream_expr(
        'innerJoin(search(docs, q="spark merge", fl="doc_id,lang"), '
        'search(docs, q="window", fl="doc_id,doclen"), on="doc_id")',
        _bm25_index(sf_dir), num_partitions=4,
    )
    rows = sorted(ds.take_all(), key=lambda r: r["doc_id"])
    return pa.Table.from_pylist(
        [{"doc_id": int(r["doc_id"]), "lang": r["lang"],
          "doclen": int(r["doclen"])} for r in rows],
        schema=pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                          ("doclen", pa.int64())]),
    )


def q_stream_unique(sf_dir: str):
    """Streaming-expression unique(search(...), over=lang): one row per
    key, pinned to the min-doc_id rule so SQL reproduces it."""
    from solr_indexer_ray.pipelines.streaming import compile_stream_expr

    ds = compile_stream_expr(
        'unique(search(docs, q="window", fl="doc_id,lang"), '
        'over="lang")',
        _bm25_index(sf_dir),
    )
    rows = sorted(ds.take_all(), key=lambda r: r["lang"])
    return pa.Table.from_pylist(
        [{"lang": r["lang"], "doc_id": int(r["doc_id"])} for r in rows],
        schema=pa.schema([("lang", pa.string()),
                          ("doc_id", pa.int64())]),
    )


def q_stream_nodes(sf_dir: str):
    """Streaming-expression graph hop (Solr nodes()/gatherNodes): langs
    gathered from docs sharing a repo with the match set, with counts."""
    from solr_indexer_ray.pipelines.streaming import compile_stream_expr

    ds = compile_stream_expr(
        'nodes(docs, search(docs, q="window", fl="doc_id,repo"), '
        'walk="repo->repo", gather="lang")',
        _bm25_index(sf_dir),
    )
    rows = sorted(ds.take_all(), key=lambda r: r["node"])
    return pa.Table.from_pylist(
        [{"node": r["node"], "count(*)": int(r["count(*)"])}
         for r in rows],
        schema=pa.schema([("node", pa.string()),
                          ("count(*)", pa.int64())]),
    )


def q_analysis_tokens(sf_dir: str):
    """Solr /analysis/field analogue: the tokenizer-stage token stream
    (term + 0-based position) of pinned documents under the index's
    pinned chain (plain simple analyzer here, so one stage)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for doc in ANALYZE_DOCS:
        content = engine.get(doc)["content"]
        t = engine.analyze(content)
        for r in t.to_pylist():
            if r["stage"] == 0:
                rows.append({"doc_id": doc, "position": r["position"],
                             "term": r["term"]})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("doc_id", pa.int64()),
                          ("position", pa.int64()),
                          ("term", pa.string())]),
    )


def q_stats_percentiles(sf_dir: str):
    """Solr stats.field percentiles: exact linear-interpolated quantiles
    (SQL quantile_cont semantics — Solr's t-digest approximation made
    exact) of the doclen column over each case's match set, rounded 6dp
    so the DuckDB oracle is float-order-independent."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, fld in STATS_CASES:
        out = engine.field_stats(q, fld, percentiles=PCT_POINTS)
        for p in PCT_POINTS:
            v = out["percentiles"][str(p)]
            rows.append({
                "case": f"{q}|{fld}", "p": float(p),
                "value": None if v is None else float(
                    np.copysign(
                        np.floor(abs(v) * 1e6 + 0.5) / 1e6, v
                    )
                ),
            })
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("case", pa.string()), ("p", pa.float64()),
                          ("value", pa.float64())]),
    )


def q_geofilt_matches(sf_dir: str):
    """Solr point-distance spatial filters ({!geofilt} haversine radius,
    {!bbox} circumscribing rectangle) over the stored lat/lon columns:
    the full constant-score match set per case."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for kind, plat, plon, d in GEOFILT_CASES:
        ids = engine.match_ids(
            f"{{!{kind} sfield=lat,lon pt={plat},{plon} d={d}}}"
        )
        rows += [{"query": f"{kind}|{plat},{plon}|{d}", "doc_id": int(i)}
                 for i in ids]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("query", pa.string()),
                          ("doc_id", pa.int64())]),
    )


def q_join_matches(sf_dir: str):
    """Solr JoinQParserPlugin ({!join from=F to=T}inner): the full
    constant-score match set of each query-time semi-join."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, ff, ft in JOIN_CASES:
        for d in engine.match_ids(f"{{!join from={ff} to={ft}}}{q}"):
            rows.append({"query": f"{q}|{ff}|{ft}", "doc_id": int(d)})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("query", pa.string()),
                          ("doc_id", pa.int64())]),
    )


def q_rerank_topk(sf_dir: str):
    """Solr ReRankQParserPlugin: the main query's top-N window rescored
    by main + weight * rerank-query score and re-sorted; the tail keeps
    its original order (component scores rounded 4dp before combining so
    the SQL oracle matches)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, rq, k, n, w in RERANK_CASES:
        t = engine.rerank_search(q, rq, k=k, rerank_docs=n,
                                 rerank_weight=w, fl=["doc_id"],
                                 round_scores=4)
        for i, r in enumerate(t.to_pylist()):
            rows.append({"query": f"{q}|{rq}", "rank": i,
                         "doc_id": r["doc_id"], "score_r": r["score"]})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("query", pa.string()), ("rank", pa.int64()),
                          ("doc_id", pa.int64()),
                          ("score_r", pa.float64())]),
    )


def _blockjoin_index(sf_dir: str) -> str:
    """Contract index with flat parent/child columns derived from
    doc_id arithmetic (every 5th doc is a parent; children reference
    the preceding parent) — the {!parent}/{!child} surface."""
    key = ("blockjoin", sf_dir)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import documents_to_corpus_table
    from solr_indexer_ray.state.manifest import BuildManifest

    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    os.makedirs(work, exist_ok=True)
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    corpus = documents_to_corpus_table(docs)
    ids = docs["doc_id"].to_pylist()
    corpus = corpus.append_column(
        "ptype",
        pa.array(["parent" if d % 5 == 0 else "child" for d in ids],
                 pa.string()),
    )
    corpus = corpus.append_column(
        "nodekey", pa.array([f"n{d}" for d in ids], pa.string())
    )
    corpus = corpus.append_column(
        "pref",
        pa.array([None if d % 5 == 0 else f"n{(d // 5) * 5}"
                  for d in ids], pa.string()),
    )
    corpus_path = os.path.join(work, "corpus_bj.parquet")
    pq.write_table(corpus, corpus_path, row_group_size=4096)
    index_dir = os.path.join(work, "index_bj_v1")
    config = IndexConfig(concurrency=2,
                         extra_stored=("ptype", "nodekey", "pref"))
    if not BuildManifest(index_dir).is_committed():
        build_index(corpus_path, index_dir, config=config,
                    registry=AnalyzerRegistry("simple", overrides={}),
                    overwrite=True)
    _INDEX_CACHE[key] = index_dir
    return index_dir


#: block-join cases: (kind, inner query)
BLOCKJOIN_CASES = [("parent", "window"), ("parent", "spark merge"),
                   ("child", "window batch")]


def q_blockjoin_matches(sf_dir: str):
    """Solr block-join parsers over flat rows: parents of matching
    children ({!parent which=...}) and children of matching parents
    ({!child of=...}), full constant-score match sets."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_blockjoin_index(sf_dir))
    rows = []
    for kind, q in BLOCKJOIN_CASES:
        gate = "which" if kind == "parent" else "of"
        ids = engine.match_ids(
            f"{{!{kind} {gate}='ptype:parent' key=nodekey ref=pref}}{q}"
        )
        rows += [{"query": f"{kind}|{q}", "doc_id": int(d)}
                 for d in ids]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("query", pa.string()),
                          ("doc_id", pa.int64())]),
    )


#: date-range facet cases: (query, start, end, gap) over mtime
DATE_RANGE_FACET_CASES = [
    ("spark merge", "2024-01-03T00:00:00Z", "2024-01-10T00:00:00Z",
     "+1DAY"),
    ("window", "2024-01-01T00:00:00Z", "2024-01-02T12:00:00Z",
     "+6HOURS"),
    # calendar gap (Solr +1MONTH DateMath); day-1 start is clamp-free,
    # so the interval-arithmetic SQL oracle is exact
    ("spark", "2024-01-01T00:00:00Z", "2024-06-01T00:00:00Z",
     "+1MONTH"),
]


def q_date_range_facets(sf_dir: str):
    """Solr date-range faceting (facet.range over a timestamp column /
    the timeseries shape): fixed-gap buckets labeled by bucket-start
    instant, plus (before)/(after) rows."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, start, end, gap in DATE_RANGE_FACET_CASES:
        case = f"{q}|{start}|{gap}"
        out = engine.range_facet(q, "mtime", start, end, gap)
        rows += [{"case": case, "bucket": b, "count": c}
                 for b, c in out["buckets"]]
        rows.append({"case": case, "bucket": "(before)",
                     "count": out["before"]})
        rows.append({"case": case, "bucket": "(after)",
                     "count": out["after"]})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("case", pa.string()), ("bucket", pa.string()),
                          ("count", pa.int64())]),
    )


#: autocomplete cases: (prefix, context filter or None, count)
AUTOCOMPLETE_CASES = [("wi", None, 5), ("s", "lang:en", 8),
                      ("b", None, 6)]


def q_autocomplete(sf_dir: str):
    """Solr Suggester analogue: prefix completion ranked by df (or by
    context-restricted df under a context filter query)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for prefix, cfq, k in AUTOCOMPLETE_CASES:
        out = engine.autocomplete(prefix, count=k,
                                  context_fq=[cfq] if cfq else None)
        for term, w in out:
            rows.append({"case": f"{prefix}|{cfq}", "term": term,
                         "weight": w})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("case", pa.string()), ("term", pa.string()),
                          ("weight", pa.int64())]),
    )


#: collation cases: (query with ≤1 misspelled word, the known word)
COLLATE_CASES = ["spak merge", "windwo batch", "spark qqqqzzzz"]


def q_collations(sf_dir: str):
    """Solr spellcheck collation: misspelled free terms replaced by
    their best suggestion (distance asc, df desc, term asc), corrected
    query + its hit count; NULL collation when nothing corrects."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q in COLLATE_CASES:
        out = engine.collate(q)
        rows.append({"query": q, "collation": out["collation"],
                     "hits": out["hits"]})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("query", pa.string()),
                          ("collation", pa.string()),
                          ("hits", pa.int64())]),
    )


def q_collapse_topk(sf_dir: str):
    """Solr field collapsing (CollapsingQParser {!collapse field=F} +
    ExpandComponent): one head per group value ranked by relevance, plus
    each head's next expand_limit group members by score (scores rounded
    4dp before ranking so the SQL oracle matches)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    parts = []
    for q, fld, k, el in COLLAPSE_CASES:
        t = engine.collapse_search(q, fld, k=k, expand_limit=el,
                                   round_scores=4)
        parts.append(
            t.append_column(
                "case", pa.array([f"{q}|{fld}"] * t.num_rows, pa.string())
            )
        )
    out = pa.concat_tables(parts)
    return out.rename_columns(
        [c if c != "score" else "score_r" for c in out.column_names]
    )


def q_suggest(sf_dir: str):
    """Solr spellcheck: terms within 2 edits, distance asc / df desc /
    term asc."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for w in SUGGEST_WORDS:
        for rank, (term, dist, df) in enumerate(engine.suggest(w, count=5)):
            rows.append(
                {"word": w, "rank": rank, "term": term,
                 "distance": dist, "df": df}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("word", pa.string()), ("rank", pa.int64()),
             ("term", pa.string()), ("distance", pa.int64()),
             ("df", pa.int64())]
        ),
    )


def q_boosted_topk(sf_dir: str):
    """Lucene query-time boosts: clause contribution x boost (terms,
    phrases, constant-score wildcards); same ranking key as q_bm25_topk."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q in BOOST_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_range_facets(sf_dir: str):
    """Solr facet.range histograms over doclen (zero buckets kept,
    before/after counts)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, start, end, gap in RANGE_FACET_CASES:
        res = engine.range_facet(q, "doclen", start, end, gap)
        for lo, c in res["buckets"]:
            rows.append({"case": f"{q}|{start}|{end}|{gap}",
                         "bucket": lo, "count": c})
        rows.append({"case": f"{q}|{start}|{end}|{gap}",
                     "bucket": -1, "count": res["before"]})
        rows.append({"case": f"{q}|{start}|{end}|{gap}",
                     "bucket": -2, "count": res["after"]})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("case", pa.string()), ("bucket", pa.int64()),
             ("count", pa.int64())]
        ),
    )


def q_pivot_facets(sf_dir: str):
    """Solr facet.pivot: two-level nested counts over the match set."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    rows = []
    for q, f1, f2 in PIVOT_CASES:
        for v1, v2, c in engine.pivot_facet(q, [f1, f2]):
            rows.append({"case": f"{q}|{f1}|{f2}", "v1": str(v1),
                         "v2": str(v2), "count": c})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("case", pa.string()), ("v1", pa.string()),
             ("v2", pa.string()), ("count", pa.int64())]
        ),
    )


def _shard_indexes(sf_dir: str):
    """Two half-corpus indexes for the federated-search contract (cached
    like _bm25_index; same analyzer pins)."""
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.functions.tokenize import AnalyzerRegistry
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import documents_to_corpus_table
    from solr_indexer_ray.state.manifest import BuildManifest

    tag = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    work = f"/tmp/solr_indexer_ray/{tag}"
    os.makedirs(work, exist_ok=True)
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    half = docs.num_rows // 2
    dirs = []
    for i, sl in enumerate((docs.slice(0, half), docs.slice(half))):
        corpus_path = os.path.join(work, f"shard{i}.parquet")
        idx = os.path.join(work, f"index_shard{i}")
        if not BuildManifest(idx).is_committed():
            pq.write_table(documents_to_corpus_table(sl), corpus_path,
                           row_group_size=4096)
            build_index(
                corpus_path, idx,
                config=IndexConfig(concurrency=2, store_positions=True),
                registry=AnalyzerRegistry("simple", overrides={}),
                overwrite=True,
            )
        dirs.append(idx)
    return dirs, half


def q_sharded_topk(sf_dir: str):
    """Federated search over two half-corpus shard indexes with exact
    global stats — results must equal a single index over the union, so
    the plain full-corpus DuckDB BM25 oracle applies (shard-local ids are
    mapped back to global doc ids)."""
    from solr_indexer_ray.pipelines.search import search_sharded

    from solr_indexer_ray.pipelines.search import SearchEngine

    dirs, half = _shard_indexes(sf_dir)
    n_total = sum(SearchEngine(d).n_docs for d in dirs)
    rows = []
    for q in SHARD_QUERIES:
        # full ranking, then round and re-rank — the k-th-place rounded
        # tie-break must see every candidate (same discipline as
        # q_bm25_topk)
        t = search_sharded(dirs, q, k=n_total)
        ids = np.asarray(
            [d + (0 if s == 0 else half)
             for s, d in zip(t["shard"].to_pylist(),
                             t["doc_id"].to_pylist())],
            dtype=np.int64,
        )
        scores = _round_half_away(
            np.asarray(t["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_synonym_topk(sf_dir: str):
    """Query-time synonyms (Solr SynonymGraphFilter at query time, Lucene
    SynonymQuery scoring: per-doc tf summed over the group, blended df =
    max over the group)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir), synonyms=SYN_MAP)
    rows = []
    for q in SYN_QUERIES:
        full = engine.search(q, k=engine.n_docs, fl=["doc_id"])
        ids = np.asarray(full["doc_id"].to_pylist(), dtype=np.int64)
        scores = _round_half_away(
            np.asarray(full["score"].to_pylist(), dtype=np.float64), 4
        )
        order = np.lexsort((ids, -scores))[:BM25_K]
        for i in order:
            rows.append(
                {"query": q, "doc_id": int(ids[i]), "score_r": float(scores[i])}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("query", pa.string()), ("doc_id", pa.int64()),
             ("score_r", pa.float64())]
        ),
    )


def q_delete_by_query_remaining(sf_dir: str):
    """Tombstone delete-by-query (S9): doc ids remaining after deleting
    every doc matching 'spark'."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    engine = SearchEngine(_bm25_index(sf_dir))
    dead = set(engine.match_ids("spark").tolist())
    alive = [d for d in range(engine.n_docs) if d not in dead]
    return pa.table({"doc_id": pa.array(alive, pa.int64())})


# ===================================================================== #
# embeddings
# ===================================================================== #
def _embeddings(sf_dir: str):
    return _read(sf_dir, "embeddings.parquet")


def q_hybrid_topk(sf_dir: str):
    """Hybrid BM25 + embedding-cosine retrieval fused with RRF (k=60):
    per query, both sides ranked on round-4 scores (id-asc tie-breaks),
    truncated to FUSE_N, fused 1/(60+r_text) + 1/(60+r_vec), rrf round-6,
    top BM25_K by (rrf desc, doc_id).  ``exact_ranks=True`` pins the
    full-rank-then-truncate convention the SQL oracle reproduces."""
    from solr_indexer_ray.stages.hybrid import hybrid_search

    emb = _embeddings(sf_dir)
    vec_by_id = {
        r["vec_id"]: r["embedding"]
        for r in emb.take_all()
        if r["vec_id"] < len(HYBRID_QUERIES)
    }
    queries = [
        (qi, q, vec_by_id[qi]) for qi, q in enumerate(HYBRID_QUERIES)
    ]
    return hybrid_search(
        _bm25_index(sf_dir), emb, queries, k=BM25_K, exact_ranks=True
    )


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k: first ANN_N_QUERIES vectors as queries.

    Rank key (round(sim,4) desc, vec_id) pinned on both sides."""
    from solr_indexer_ray.stages.ann import brute_force_topk

    emb = _embeddings(sf_dir)
    q_rows = sorted(
        (r for r in emb.take_all() if r["vec_id"] < ANN_N_QUERIES),
        key=lambda r: r["vec_id"],
    )
    queries = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    n = emb.count()
    full = brute_force_topk(emb, queries, k=n).to_pylist()
    out = []
    by_q: dict = {}
    for r in full:
        by_q.setdefault(r["query_id"], []).append(r)
    for qi in sorted(by_q):
        cand = by_q[qi]
        for r in cand:
            r["similarity"] = _py_round(r["similarity"], 4)
        cand.sort(key=lambda r: (-r["similarity"], r["vec_id"]))
        out.extend(cand[:ANN_K])
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [("query_id", pa.int64()), ("vec_id", pa.int64()),
             ("similarity", pa.float64())]
        ),
    )


def q_ann_ivf_topk(sf_dir: str):
    """Top-k through the PARTITIONED IvfIndex path (build → hive-partitioned
    bucket parquet → partition-pruned probe).  With nprobe == n_buckets the
    probe scans every partition, so the result is exactly the brute-force
    cosine top-k — which is what lets the same SQL oracle check the whole
    build/search machinery end-to-end."""
    import shutil
    import tempfile

    from solr_indexer_ray.stages.ann import IvfIndex

    emb = _embeddings(sf_dir)
    q_rows = sorted(
        (r for r in emb.take_all() if r["vec_id"] < ANN_N_QUERIES),
        key=lambda r: r["vec_id"],
    )
    queries = np.array([r["embedding"] for r in q_rows], dtype=np.float64)
    n = emb.count()
    work = tempfile.mkdtemp(prefix="ivf-contract-", dir="/tmp")
    try:
        ivf = IvfIndex(n_buckets=8, nprobe=8, index_dir=work).build(emb)
        full = ivf.search(queries, k=n).to_pylist()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = []
    by_q: dict = {}
    for r in full:
        by_q.setdefault(r["query_id"], []).append(r)
    for qi in sorted(by_q):
        cand = by_q[qi]
        for r in cand:
            r["similarity"] = _py_round(r["similarity"], 4)
        cand.sort(key=lambda r: (-r["similarity"], r["vec_id"]))
        out.extend(cand[:ANN_K])
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [("query_id", pa.int64()), ("vec_id", pa.int64()),
             ("similarity", pa.float64())]
        ),
    )


def q_embedding_dups_ivf(sf_dir: str):
    """Scale-path near-dup pairs: IVF-bucketed candidates, exact in-bucket
    cosine (rows-only check; recall < 1 by design so no SQL oracle —
    precision is pinned by pytest against the exact mode)."""
    from solr_indexer_ray.stages.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _embeddings(sf_dir), threshold=0.40, method="ivf",
        n_buckets=8, assign_probes=2,
    ).take_all()
    out = []
    for r in pairs:
        sim = _py_round(r["similarity"], 4)
        if sim >= 0.45:
            out.append({"id_a": r["id_a"], "id_b": r["id_b"], "similarity": sim})
    out.sort(key=lambda r: (r["id_a"], r["id_b"]))
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [("id_a", pa.int64()), ("id_b", pa.int64()),
             ("similarity", pa.float64())]
        ),
    )


def q_embedding_dups(sf_dir: str):
    """Embedding-cosine near-dup pairs at rounded threshold 0.45."""
    from solr_indexer_ray.stages.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(_embeddings(sf_dir), threshold=0.40).take_all()
    out = []
    for r in pairs:
        sim = _py_round(r["similarity"], 4)
        if sim >= 0.45:
            out.append({"id_a": r["id_a"], "id_b": r["id_b"], "similarity": sim})
    out.sort(key=lambda r: (r["id_a"], r["id_b"]))
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [("id_a", pa.int64()), ("id_b", pa.int64()),
             ("similarity", pa.float64())]
        ),
    )


# ===================================================================== #
# relational machinery (TPC-H-ish + events) — SURVEY A1-A3, J2, O3
# ===================================================================== #
def q_parent_flags(sf_dir: str):
    """Broadcast semi-join (J2 analogue): customers having >=1 order."""
    import ray

    orders = _read(sf_dir, "orders.parquet", columns=["o_custkey"])
    ref_keys = set()
    for b in orders.iter_batches(batch_format="pyarrow"):
        ref_keys.update(b["o_custkey"].to_pylist())
    ref = ray.put(pa.array(sorted(ref_keys), pa.int64()))

    def flag(batch: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "is_parent": pc.is_in(batch["c_custkey"], value_set=keys),
            }
        )

    return _read(sf_dir, "customer.parquet", columns=["c_custkey"]).map_batches(flag, batch_format="pyarrow")


def q_unresolved_refs(sf_dir: str):
    """Anti-join side of the integrity pass: order custkeys with no
    customer row (unresolved parent warnings)."""
    import ray

    cust = _read(sf_dir, "customer.parquet", columns=["c_custkey"])
    have = set()
    for b in cust.iter_batches(batch_format="pyarrow"):
        have.update(b["c_custkey"].to_pylist())
    have_ref = ray.put(have)

    def missing(batch: pa.Table) -> pa.Table:
        known = ray.get(have_ref)
        vals = sorted(
            {v for v in batch["o_custkey"].to_pylist() if v not in known}
        )
        return pa.table({"o_custkey": pa.array(vals, pa.int64())})

    out = (
        _read(sf_dir, "orders.parquet", columns=["o_custkey"])
        .map_batches(missing, batch_format="pyarrow")
        .groupby("o_custkey")
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
    )
    # materialize with an explicit schema: an all-rows-filtered Dataset
    # otherwise loses its column types (and TPC-H data usually yields none)
    return pa.Table.from_pylist(
        out.take_all(), schema=pa.schema([("o_custkey", pa.int64())])
    )


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-style grouped aggregate (A1/A2 counters analogue).

    Float sums rounded to 2 decimals (money) / 6 (ratios) on both sides."""
    from ray.data.aggregate import Count, Mean, Sum

    li = _read(sf_dir, "lineitem.parquet", columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])
    out = (
        li.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_price"),
            Mean("l_discount", alias_name="avg_disc"),
            Count(alias_name="n"),
        )
    )
    t = pa.Table.from_pylist(out.take_all())
    return pa.table(
        {
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": pa.array(
                _round_half_away(t["sum_qty"].to_numpy(), 2), pa.float64()
            ),
            "sum_price": pa.array(
                _round_half_away(t["sum_price"].to_numpy(), 2), pa.float64()
            ),
            "avg_disc": pa.array(
                _round_half_away(t["avg_disc"].to_numpy(), 6), pa.float64()
            ),
            "n": t["n"],
        }
    )


def q_top_customers(sf_dir: str):
    """Join + grouped sum + top-k (O3 top-k over an aggregate)."""
    import ray
    from ray.data.aggregate import Sum

    spend = (
        _read(sf_dir, "orders.parquet", columns=["o_custkey", "o_totalprice"])
        .groupby("o_custkey")
        .aggregate(Sum("o_totalprice", alias_name="total_spend"))
    )
    rows = spend.take_all()
    for r in rows:
        r["total_spend"] = _py_round(r["total_spend"], 2)
    rows.sort(key=lambda r: (-r["total_spend"], r["o_custkey"]))
    top = rows[:10]
    # broadcast-join customer names for the top keys (small side lookup)
    keys = [r["o_custkey"] for r in top]
    import pyarrow.dataset as pads

    cust = pads.dataset(os.path.join(sf_dir, "customer.parquet")).to_table(
        columns=["c_custkey", "c_name"],
        filter=pc.field("c_custkey").isin(keys),
    )
    names = dict(zip(cust["c_custkey"].to_pylist(), cust["c_name"].to_pylist()))
    return pa.table(
        {
            "c_custkey": pa.array(keys, pa.int64()),
            "c_name": pa.array([names.get(k) for k in keys], pa.string()),
            "total_spend": pa.array(
                [r["total_spend"] for r in top], pa.float64()
            ),
        }
    )


def q_events_props(sf_dir: str):
    """Nested-structure flattening (the M11-M18 extractor pattern —
    nested JSON -> typed flat columns, ``solrindexer/mmd.py:550-1085``):
    parse the events ``props`` JSON string into a typed ``k`` column."""
    import json as _json

    ev = _read(sf_dir, "events.parquet", columns=["event_id", "props"])

    def flatten(batch: pa.Table) -> pa.Table:
        ks = []
        for p in batch["props"].to_pylist():
            try:
                obj = _json.loads(p) if p else {}
            except ValueError:
                obj = {}
            ks.append(obj.get("k"))
        return pa.table(
            {"event_id": batch["event_id"], "k": pa.array(ks, pa.int64())}
        )

    return ev.map_batches(flatten, batch_format="pyarrow")


def q_user_sessions(sf_dir: str):
    """Per-user chronological aggregate (M5/O1: per-row list sorted by
    time, earliest/latest picked from the ends — here per group):
    ``groupby(user_id).map_groups`` sorts each user's events by ts."""
    ev = _read(sf_dir, "events.parquet", columns=["user_id", "ts", "value"])

    def session(group) -> pa.Table:
        import pandas as pd  # noqa: F401

        g = group.sort_values("ts", kind="mergesort")
        return pa.table(
            {
                "user_id": pa.array([g["user_id"].iloc[0]], pa.int64()),
                "n_events": pa.array([len(g)], pa.int64()),
                "first_ts": pa.array([g["ts"].iloc[0]], pa.timestamp("us")),
                "last_ts": pa.array([g["ts"].iloc[-1]], pa.timestamp("us")),
                "sum_value": pa.array(
                    [_py_round(float(g["value"].sum()), 4)], pa.float64()
                ),
            }
        )

    return ev.groupby("user_id").map_groups(session, batch_format="pandas")


def q_session_windows(sf_dir: str):
    """Session windows (30-minute inactivity gap) per user — the session
    flavour of §2.9 streaming ops: ``groupby(user).map_groups`` over the
    ts-sorted group, state = running gap comparison."""
    import pandas as pd

    ev = _read(sf_dir, "events.parquet", columns=["user_id", "ts"])
    gap = pd.Timedelta(minutes=30)

    def sessionize(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("ts", kind="mergesort")
        new_session = g["ts"].diff().isna() | (g["ts"].diff() > gap)
        g["session_id"] = new_session.cumsum().astype("int64")
        out = (
            g.groupby("session_id")
            .agg(
                n_events=("ts", "size"),
                session_start=("ts", "min"),
                session_end=("ts", "max"),
            )
            .reset_index()
        )
        out.insert(0, "user_id", g["user_id"].iloc[0])
        # metadata-free Arrow: schemas carrying the b'pandas' metadata
        # blob are unhashable, which trips Ray's schema-dedup fast path
        # into a per-block warning
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    return ev.groupby("user_id").map_groups(sessionize, batch_format="pandas")


def q_events_window(sf_dir: str):
    """Tumbling 5-minute windows per event_type (streaming-shaped op over
    the ordered events log; SURVEY §2.9 — reference has none, the guide's
    groupby-window pattern applies)."""
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events.parquet", columns=["ts", "event_type", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        ws = pc.floor_temporal(batch["ts"], multiple=5, unit="minute")
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": ws,
                "value": batch["value"],
            }
        )

    out = (
        ev.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )
    t = pa.Table.from_pylist(out.take_all())
    return pa.table(
        {
            "event_type": t["event_type"],
            "window_start": t["window_start"],
            "n": t["n"],
            "sum_value": pa.array(
                _round_half_away(t["sum_value"].to_numpy(), 4), pa.float64()
            ),
        }
    )
