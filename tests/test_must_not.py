"""MUST_NOT over every clause kind: ``-x`` parses into the one nested
``ParsedQuery.must_not`` query, and a doc any of its clauses or filters
matches is excluded — as in Lucene, where MUST_NOT is an Occur flag on
an ordinary clause.  Each kind is checked for membership (``P -X`` is
``P`` minus ``X``), for the kept docs' scores, for the distributed path
and under query-time synonyms."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.contract_sql import _BM25_CTES, _match_docs_sql
from solr_indexer_ray.functions.queryparse import parse_query
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.functions.tokenize import simple_analyzer
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned

P = "return class"

#: one negated clause of every kind (the positive form is X[1:])
NEGATIONS = [
    "-import",                                        # term
    '-"load cache"',                                  # phrase
    '-"parse table"~2',                               # proximity
    "-imp*",                                          # prefix
    "-strct~1",                                       # fuzzy
    "-f?nc",                                          # wildcard
    "-/de[fr].*/",                                    # regex
    "-path_text:mod1",                                # fielded term
    '-path_text:"mod2 file"',                         # fielded phrase
    "-lang:go",                                       # metadata filter
    "-path:src/mod3*",                                # prefix filter
    "-doclen:[30 TO 60]",                             # range
    '-bbox:"Intersects(ENVELOPE(-50, 50, 40, -40))"',  # spatial
]


@pytest.fixture(scope="module")
def corpus():
    from solr_indexer_ray.sources.corpus import generate_corpus

    return generate_corpus(200, seed=11, mean_tokens=40,
                           with_edge_rows=False)


@pytest.fixture(scope="module")
def neg_index(tmp_path_factory, ray_session, corpus):
    """A positional index with an analyzed ``path_text`` field and bbox
    envelopes (every 7th doc has none), over four doc ranges."""
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index

    t = corpus
    i = np.arange(t.num_rows)
    west = ((i * 37) % 320) - 170.0
    south = ((i * 13) % 140) - 70.0
    has_box = pa.array(i % 7 != 3)
    for name, vals in (("bbox_west", west), ("bbox_east", west + i % 29 + 1),
                       ("bbox_south", south),
                       ("bbox_north", south + i % 17 + 1)):
        t = t.append_column(name, pc.if_else(
            has_box, pa.array(vals, pa.float64()),
            pa.scalar(None, pa.float64())))
    d = tmp_path_factory.mktemp("mustnot")
    pq.write_table(t, str(d / "docs.parquet"))
    build_index(str(d / "docs.parquet"), str(d / "idx"), config=IndexConfig(
        docs_per_range=64, store_positions=True,
        analyzed_fields=("path_text:path",),
        extra_stored=("bbox_west", "bbox_east", "bbox_south",
                      "bbox_north")))
    return str(d / "idx")


@pytest.fixture(scope="module")
def engine(neg_index):
    return SearchEngine(neg_index)


def _ids(engine, q) -> set:
    return set(engine.match_ids(q).tolist())


def _hits(t) -> dict:
    return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


@pytest.mark.parametrize("neg", NEGATIONS)
def test_membership_is_set_difference(engine, neg):
    base, excluded = _ids(engine, P), _ids(engine, neg[1:])
    assert base & excluded and base - excluded  # the case bites
    assert _ids(engine, f"{P} {neg}") == base - excluded


@pytest.mark.parametrize("neg", NEGATIONS)
def test_kept_docs_keep_their_scores(engine, neg):
    n = engine.n_docs
    base = _hits(engine.search(P, k=n))
    got = _hits(engine.search(f"{P} {neg}", k=n))
    assert got and got == {d: base[d] for d in got}


@pytest.mark.parametrize("neg", NEGATIONS)
def test_partitioned_equals_engine(neg_index, engine, neg):
    q = f"{P} {neg}"
    single = engine.search(q, k=20).select(["doc_id", "score"])
    assert search_partitioned(neg_index, q, k=20).equals(single)


def test_all_kinds_at_once(engine):
    q = " ".join([P, *NEGATIONS])
    want = _ids(engine, P)
    for neg in NEGATIONS:
        want -= _ids(engine, neg[1:])
    assert _ids(engine, q) == want


def test_prohibited_term_negates_its_synonyms(neg_index, engine):
    """Lucene negates the whole SynonymQuery: ``-import`` under
    ``import => defer`` also excludes the docs holding only ``defer``."""
    syn = {"import": ["defer"]}
    eng = SearchEngine(neg_index, synonyms=syn)
    group = _ids(eng, "import")
    assert group == _ids(engine, "import defer") != _ids(engine, "import")
    q = f"{P} -import"
    assert _ids(eng, q) == _ids(eng, P) - group
    assert search_partitioned(neg_index, q, k=20, synonyms=syn).equals(
        eng.search(q, k=20).select(["doc_id", "score"]))


def test_analyzer_empty_negation_is_no_clause(engine):
    p = parse_query(f"{P} -!!!", simple_analyzer)
    assert p.must_not is None and p.prohibited == []
    assert _ids(engine, f"{P} -!!!") == _ids(engine, P)


def test_parser_routes_every_kind_into_must_not(engine):
    """A negated clause parses exactly as its positive form."""
    neg = engine._prepare(" ".join([P, *NEGATIONS]))
    pos = engine._prepare(" ".join(n[1:] for n in NEGATIONS))
    assert neg.terms == ["return", "class"]
    assert vars(neg.must_not) == {**vars(pos), "source": ""}


#: repeated metadata fields: every value of a field is its own clause
REPEATED = [
    f"{P} -lang:go -lang:java",
    f"{P} -lang:java -lang:go",
    f"{P} -lang:go -path:src/mod3* -path:src/mod1*",
    f"{P} lang:go lang:java",
    "lang:go lang:java",
    f"{P} lang:go lang:go",
    f"{P} path:src/mod1* path:src/mod1*",
]


def test_every_negated_value_excludes(engine):
    base = _ids(engine, P)
    go, java = _ids(engine, "lang:go"), _ids(engine, "lang:java")
    assert base & go and base & java
    assert _ids(engine, f"{P} -lang:go -lang:java") == base - go - java
    assert _ids(engine, f"{P} -lang:java -lang:go") == base - go - java
    mods = _ids(engine, "path:src/mod3*") | _ids(engine, "path:src/mod1*")
    assert _ids(engine, f"{P} -lang:go -path:src/mod3* -path:src/mod1*") \
        == base - go - mods


def test_every_positive_value_gates(engine):
    """Two values of one single-valued field match no doc, as two
    required filter clauses do in Solr; a repeated value is one clause."""
    assert _ids(engine, "lang:go") and _ids(engine, "lang:java")
    assert _ids(engine, "lang:go lang:java") == set()
    assert _ids(engine, f"{P} lang:go lang:java") == set()
    assert engine.search(f"{P} lang:go lang:java", k=5).num_rows == 0
    assert _ids(engine, f"{P} lang:go lang:go") == _ids(engine, f"{P} lang:go")
    assert _hits(engine.search(f"{P} lang:go lang:go", k=50)) == _hits(
        engine.search(f"{P} lang:go", k=50))


def test_parser_keeps_every_value():
    p = parse_query("x -lang:go -lang:java lang:c^2 lang:d", simple_analyzer)
    assert p.must_not.filters == [("lang", "go"), ("lang", "java")]
    assert p.filters == [("lang", "c"), ("lang", "d")]
    assert p.filter_boosts == {("lang", "c"): 2.0}


@pytest.fixture(scope="module")
def sql(corpus):
    """DuckDB over the corpus as the SQL oracle's ``documents`` table."""
    import duckdb

    con = duckdb.connect()
    con.register("documents", corpus.rename_columns(
        ["text" if c == "content" else c for c in corpus.column_names]
    ).append_column("doc_id", pa.array(range(corpus.num_rows), pa.int64())))
    return con


@pytest.mark.parametrize("q", REPEATED)
def test_repeated_field_oracles_and_ranges_agree(neg_index, engine, corpus,
                                                 sql, q):
    got = _ids(engine, q)
    oracle = BruteForceBM25(corpus).search(q, k=engine.n_docs)
    assert {d for d, _ in oracle} == got
    rows = sql.execute(f"{_BM25_CTES} SELECT doc_id FROM "
                       f"({_match_docs_sql(q)})").fetchall()
    assert {d for d, in rows} == got
    single = engine.search(q, k=20).select(["doc_id", "score"])
    assert search_partitioned(neg_index, q, k=20).equals(single)
