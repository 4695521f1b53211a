"""Solr debugQuery analogue (`SearchEngine.explain`) + `facet.query`."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus

#: every scoring clause kind, alone and together (``qf`` turns the free
#: terms into dismax groups)
EXACT_QUERIES = [
    "read merge^2 def", "read AND def^3", "path_text:mod1 read",
    'path_text:"src mod1" read', "parze~1 read^0.5", '"buffer value" read',
    '"query buffer"~3 merge', "pa* read", "*ea* me*^2", "/me.ge/ read",
    'read "hash buffer"^2 path_text:py pa* sc?re parse~1 "query split"~4',
]
KINDS = {"term", "field", "field_phrase", "dismax", "fuzzy", "phrase",
         "near", "prefix", "wildcard", "regex"}


@pytest.fixture(scope="module")
def positional_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("explain")
    corpus = generate_corpus(240, seed=5, mean_tokens=40,
                             with_edge_rows=False)
    pq.write_table(corpus, str(d / "docs.parquet"), row_group_size=60)
    build_index(str(d / "docs.parquet"), str(d / "idx"), config=IndexConfig(
        docs_per_range=64, store_positions=True,
        analyzed_fields=("path_text:path",)))
    return str(d / "idx")


@pytest.mark.parametrize("synonyms", [None, {"read": ["write"],
                                              "parse": ["load"]}])
def test_clause_sum_is_the_score(positional_index, synonyms):
    """For every matched doc, the listed contributions added from 0.0 in
    listed order equal ``score``, and ``score`` equals the ``search``
    score — with ``==``: explain reads the scorer's own clause walk."""
    e = SearchEngine(positional_index, synonyms=synonyms)
    kinds, checked = set(), 0
    for q in EXACT_QUERIES:
        for qf in (None, "content^1 path_text^2"):
            t = e.search(q, k=e.doc_space, fl=["doc_id"], qf=qf)
            for d, s in zip(t["doc_id"].to_pylist(),
                            t["score"].to_pylist()):
                ex = e.explain(q, d, qf=qf)
                total = 0.0
                for _, c in ex["clauses"]:
                    total += c
                assert ex["matches"] and ex["score"] == s, (q, qf, d)
                assert total == s, (q, qf, d)
                kinds.update(c.split(":")[0] for c, _ in ex["clauses"])
                checked += 1
    assert kinds == KINDS and checked > 1000


class TestExplain:
    def test_score_exact_and_clauses_sum(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        q = "parse read^2 merge"
        t = e.search(q, k=5, fl=["doc_id"])
        for d, s in zip(t["doc_id"].to_pylist(), t["score"].to_pylist()):
            ex = e.explain(q, d)
            assert ex["matches"]
            assert ex["score"] == s          # exact: same accumulator
            assert sum(c for _, c in ex["clauses"]) == s

    def test_boost_shows_in_contribution(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t = e.search("read", k=1, fl=["doc_id"])
        d = t["doc_id"][0].as_py()
        plain = dict(e.explain("read", d)["clauses"])["term:read"]
        boosted = dict(e.explain("read^3", d)["clauses"])["term:read"]
        assert boosted == 3 * plain

    def test_non_match_conjunctive(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        d = int(e.search("parse", k=1, fl=["doc_id"])["doc_id"][0].as_py())
        ex = e.explain("zzqqzz AND parse", d)
        assert not ex["matches"] and ex["score"] == 0.0
        # evidence kept: the matched clause still listed
        assert any(n == "term:parse" for n, _ in ex["clauses"])

    def test_excluded_doc(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        d = int(e.search("parse", k=1, fl=["doc_id"])["doc_id"][0].as_py())
        assert not e.explain("parse -parse", d)["matches"]

    def test_multiterm_clauses(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        q = "par* /me.ge/ w?ndow"
        t = e.search(q, k=1, fl=["doc_id"])
        assert t.num_rows
        d = t["doc_id"][0].as_py()
        ex = e.explain(q, d)
        kinds = {n.split(":")[0] for n, _ in ex["clauses"]}
        assert kinds <= {"prefix", "regex", "wildcard"} and kinds
        assert ex["score"] == t["score"][0].as_py()

    def test_grouped_raises(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        with pytest.raises(ValueError, match="flat"):
            e.explain("(a OR b) AND c", 0)


class TestFacetQuery:
    def test_counts_match_manual_intersection(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        subs = ["lang:python", "doclen:[40 TO 120]", "merge"]
        out = e.facet_query("parse", subs)
        base = set(e.match_ids("parse").tolist())
        for sub in subs:
            want = len(base & set(e.match_ids(sub).tolist()))
            assert out[sub] == want, sub

    def test_fq_restricts_base(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        full = e.facet_query("parse", ["merge"])["merge"]
        restricted = e.facet_query("parse", ["merge"],
                                   fq=["lang:python"])["merge"]
        assert restricted <= full
