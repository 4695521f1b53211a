"""Fuzzy (~), general wildcard (?, infix/leading *) and parenthesized
boolean grouping — the query-syntax tail vs the reference's full Lucene
passthrough (reference: queries go verbatim to Solr,
``/root/reference/README.md:259-260``, ``solrindexer/search.py:125-140``)."""

import numpy as np
import pytest

from solr_indexer_ray.functions.queryparse import (
    BoolNode,
    parse_boolean,
    parse_query,
)
from solr_indexer_ray.functions.tokenize import simple_analyzer
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned


class TestParser:
    def test_fuzzy_forms(self):
        p = parse_query("read~ write~1 miss~0 over~9", simple_analyzer)
        assert ("read", 2) in p.fuzzies       # bare ~ = 2 (Lucene default)
        assert ("write", 1) in p.fuzzies
        assert "miss" in p.terms              # ~0 = exact term
        assert ("over", 2) in p.fuzzies       # capped at 2

    def test_fuzzy_boost_and_negation(self):
        p = parse_query("read~1^3 -miss~2", simple_analyzer)
        assert p.fuzzy_boosts[("read", 1)] == 3.0
        assert p.must_not.fuzzies == [("miss", 2)]

    def test_wildcard_forms(self):
        p = parse_query("te?t *fix mid*dle tail* -sk?p", simple_analyzer)
        assert set(p.wildcards) == {"te?t", "*fix", "mid*dle"}
        assert p.prefixes == ["tail"]         # trailing-* stays a prefix
        assert p.must_not.wildcards == ["sk?p"]

    def test_no_group_returns_none(self):
        assert parse_boolean("plain a AND b", simple_analyzer) is None
        assert parse_boolean('"quoted (not group)"', simple_analyzer) is None

    def test_ast_shapes(self):
        ast = parse_boolean("(a OR b) AND c", simple_analyzer)
        assert isinstance(ast, BoolNode) and ast.op == "AND"
        neg0, left = ast.children[0]
        assert not neg0 and isinstance(left, BoolNode) and left.op == "OR"
        ast2 = parse_boolean("-(a b) AND c", simple_analyzer)
        assert ast2.op == "AND"
        assert ast2.children[0][0] is True    # negated group

    def test_and_binds_tighter_than_or(self):
        ast = parse_boolean("(x) OR a AND b", simple_analyzer)
        assert ast.op == "OR"
        _, right = ast.children[1]
        assert isinstance(right, BoolNode) and right.op == "AND"


class TestFuzzySearch:
    def test_single_expansion_equals_plain_term(self, built_index):
        """parze~1 expands to {parse} only: blended group over one member
        is exactly the plain term clause -> identical scores."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert e.expand_fuzzy("parze", 1) == ["parse"]
        a = e.search("parze~1", k=10, fl=["doc_id"])
        b = e.search("parse", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_multi_member_matches_synonym_engine(self, built_index):
        """A multi-member fuzzy group must score exactly like a synonym
        engine mapping the word to the same member set (both are Lucene
        blended SynonymQuery stats)."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        members = e.expand_fuzzy("parse", 2)
        assert len(members) > 1 and "parse" in members
        syn_eng = SearchEngine(
            index_dir, synonyms={"qqqzzz": [m for m in members]}
        )
        # 'qqqzzz' itself is not in the index, so its synonym group is
        # exactly `members`
        a = e.search("parse~2", k=15, fl=["doc_id"])
        b = syn_eng.search("qqqzzz", k=15, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == pytest.approx(
            b["score"].to_pylist()
        )

    def test_fuzzy_no_expansion_no_hits(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert e.search("qqqqzzzz~1", k=5).num_rows == 0

    def test_prohibited_fuzzy(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t = e.search("-parze~1 merge", k=20, fl=["doc_id"])
        banned = set(
            e.search("parse", k=e.n_docs, fl=["doc_id"])["doc_id"].to_pylist()
        )
        assert not banned & set(t["doc_id"].to_pylist())


class TestGeneralWildcard:
    def test_question_mark(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert "parse" in e.expand_pattern("par?e")
        t = e.search("par?e", k=5, fl=["doc_id"])
        assert t.num_rows == 5
        assert all(s >= 1.0 for s in t["score"].to_pylist())

    def test_leading_star_and_infix(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        lead = e.expand_pattern("*rse")
        assert "parse" in lead and all(m.endswith("rse") for m in lead)
        infix = e.expand_pattern("p*rse")
        assert "parse" in infix
        assert all(m.startswith("p") and m.endswith("rse") for m in infix)

    def test_wildcard_matches_manual_union(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        members = e.expand_pattern("me?ge")
        want = set()
        for m in members:
            tp = e.lookup_postings([m]).get(m)
            if tp is not None:
                want.update(tp.doc_ids.tolist())
        got = set(e.match_ids("me?ge").tolist())
        assert got == want

    def test_distributed_wildcard_identical(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        a = e.search("p?rse merge", k=10, fl=["doc_id"])
        b = search_partitioned(index_dir, "p?rse merge", k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()


class TestBooleanGrouping:
    def test_group_and_equals_flat_and(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        a = e.search("(parse) AND (merge)", k=10, fl=["doc_id"])
        b = e.search("parse AND merge", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_group_or_equals_flat_or(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        a = e.search("(parse OR merge)", k=10, fl=["doc_id"])
        b = e.search("parse merge", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_or_and_composition_matchset(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = set(e.match_ids("(parse OR merge) AND read").tolist())
        pa_ = set(e.match_ids("parse").tolist())
        me = set(e.match_ids("merge").tolist())
        rd_ = set(e.match_ids("read").tolist())
        assert got == (pa_ | me) & rd_

    def test_unmatched_and_branch_contributes_nothing(self, built_index):
        """(parse AND zzzznothere) OR merge == merge exactly: the dead AND
        branch must not leak parse's score into surviving docs."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        a = e.search("(parse AND zzzznothere) OR merge", k=10, fl=["doc_id"])
        b = e.search("merge", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_matched_branches_sum(self, built_index):
        """A doc matching both branches of (a AND b) OR (a) scores
        a+b+a?  No — Lucene sums each CLAUSE once per occurrence in the
        tree: here 'parse' appears in two branches, so a doc matching
        both gets parse twice + merge once."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        both = set(e.match_ids("parse AND merge").tolist())
        if not both:
            pytest.skip("corpus has no doc with both terms")
        t = e.search("(parse AND merge) OR (parse)", k=e.n_docs,
                     fl=["doc_id"])
        scores = dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))
        tp = e.search("parse", k=e.n_docs, fl=["doc_id"])
        sp = dict(zip(tp["doc_id"].to_pylist(), tp["score"].to_pylist()))
        tm = e.search("merge", k=e.n_docs, fl=["doc_id"])
        sm = dict(zip(tm["doc_id"].to_pylist(), tm["score"].to_pylist()))
        d = next(iter(both))
        assert scores[d] == pytest.approx(2 * sp[d] + sm[d])

    def test_negated_group(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = set(e.match_ids("-(parse merge) AND read").tolist())
        assert got == set(e.match_ids("read").tolist()) - set(
            e.match_ids("parse merge").tolist()
        )

    def test_filters_inside_groups(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t = e.search("(lang:python OR lang:go) AND parse", k=20,
                     fl=["doc_id", "lang"])
        assert t.num_rows > 0
        assert set(t["lang"].to_pylist()) <= {"python", "go"}

    def test_partitioned_falls_back_identically(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        q = "(parse OR merge) AND read"
        a = e.search(q, k=10, fl=["doc_id"])
        b = search_partitioned(index_dir, q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_cursor_paging_over_ast(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        q = "(parse OR merge) AND read"
        full = e.search(q, k=10, fl=["doc_id"])
        if full.num_rows < 6:
            pytest.skip("match set too small")
        page1 = e.search(q, k=3, fl=["doc_id"])
        last = (page1["score"][-1].as_py(), page1["doc_id"][-1].as_py())
        page2 = e.search(q, k=3, fl=["doc_id"], search_after=last)
        assert (
            page1["doc_id"].to_pylist() + page2["doc_id"].to_pylist()
            == full["doc_id"].to_pylist()[:6]
        )

    def test_sharded_grouped_matches_engine(self, built_index):
        from solr_indexer_ray.pipelines.search import search_sharded

        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        for q in ("(a OR b) AND c", "(def OR merge) AND read"):
            want = e.search(q, k=5, fl=["doc_id"])
            got = search_sharded([index_dir], q, k=5)
            assert got["shard"].to_pylist() == [0] * want.num_rows
            assert got.select(["doc_id", "score"]).equals(want), q


class TestCompositeGroups:
    """Every clause type must work INSIDE a boolean group (atoms parse via
    parse_query, so ranges/near/fuzzy/wildcards compose)."""

    def test_range_literal_survives_group_lexing(self):
        from solr_indexer_ray.functions.queryparse import _bool_tokens

        toks = _bool_tokens('(a AND doclen:[30 TO 200]) OR b')
        assert "doclen:[30 TO 200]" in toks
        toks2 = _bool_tokens('(doclen:{40 TO 90} OR x)')
        assert "doclen:{40 TO 90}" in toks2

    def test_range_in_group(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = set(e.match_ids("(parse AND doclen:[30 TO 200]) OR lang:go"))
        want = (
            set(e.match_ids("parse")) & set(e.match_ids("doclen:[30 TO 200]"))
        ) | set(e.match_ids("lang:go"))
        assert got == want

    def test_fuzzy_in_group(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = set(e.match_ids("(parze~1 OR merge) AND read"))
        want = (set(e.match_ids("parse")) | set(e.match_ids("merge"))) & set(
            e.match_ids("read")
        )
        assert got == want

    def test_wildcard_in_group(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = set(e.match_ids("(p?rse OR merge) AND read"))
        want = (set(e.match_ids("p?rse")) | set(e.match_ids("merge"))) & set(
            e.match_ids("read")
        )
        assert got == want

    def test_facet_over_grouped_query(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        q = "(parse OR merge) AND read"
        buckets = e.facet(q, ["lang"])["lang"]
        assert sum(c for _, c in buckets) == len(e.match_ids(q))


class TestDistributedFuzzy:
    """Fuzzy clauses through range engines: expanded over the whole
    index's dictionary, blended with the max member df of the whole
    index — bit-identical to the single engine."""

    def test_partitioned_fuzzy_identical(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        for q in ["parze~1", "parse~2 merge", "merg~1 AND read",
                  "parze~1^2 -count read"]:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_partitioned_facet_fuzzy_identical(self, built_index):
        from solr_indexer_ray.pipelines.search import facet_partitioned

        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert e.facet("parse~2", ["lang"]) == facet_partitioned(
            index_dir, "parse~2", ["lang"]
        )

    def test_conjunctive_unmatchable_fuzzy_is_zero(self, built_index):
        index_dir, _ = built_index
        t = search_partitioned(index_dir, "qqqqzzzz~1 AND parse", k=10)
        assert t.num_rows == 0


class TestDistributedBooleanGroups:
    """Grouped queries run on range engines: dense evaluation bounded by
    docs_per_range, same BooleanQuery zeroing, bit-identical to the
    single engine."""

    QUERIES = [
        "(parse OR merge) AND read",
        "(parse AND merge) OR read",
        "-(parse merge) AND read",
        "((parse OR count) AND read) OR index",
        "(lang:python OR lang:go) AND parse",
        "(parze~1 OR p?rse) AND lang:python",
        "(parse AND zzqqxx) OR merge",
        "(lang:python OR parse)",  # score-0 filter alternative included
    ]

    def test_partitioned_grouped_identical(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        for q in self.QUERIES:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_range_filter_leaf_in_group(self, built_index):
        """Range-filter leaves compile into the per-range plan too (the
        extras bundle ships typed range filters)."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        q = "(parse AND doclen:[30 TO 200]) OR merge"
        a = e.search(q, k=10, fl=["doc_id"])
        b = search_partitioned(index_dir, q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_distributed_negative_and_filter_shapes(self, built_index):
        """Round-2: negative clauses, range filters, multi-filter ANDs and
        wildcard metadata filters all ship per-range (incl. the two-filter
        dead-mask fix: failing ANY positive filter excludes the doc)."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        repo = e.get(0)["repo"]
        for q in [
            f"lang:python repo:{repo} parse",
            "doclen:[30 TO 120] parse merge",
            "-doclen:[100 TO *] parse AND merge",
            "-lang:go parse",
            "-pars* merge",
            "-p?rse merge",
            "-parze~1 merge",
            "path:src* parse",
        ]:
            a = e.search(q, k=15, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=15)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_grouped_with_tombstones(self, small_corpus_path, tmp_path):
        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines import mutate
        from solr_indexer_ray.pipelines.build import build_index

        idx = str(tmp_path / "idx")
        build_index(small_corpus_path, idx,
                    config=IndexConfig(docs_per_range=64, concurrency=2))
        e0 = SearchEngine(idx)
        victims = e0.search("(parse OR merge) AND read", k=3,
                            fl=["doc_id"])["doc_id"].to_pylist()
        mutate.delete_by_id(idx, victims)
        e = SearchEngine(idx)
        a = e.search("(parse OR merge) AND read", k=10, fl=["doc_id"])
        b = search_partitioned(idx, "(parse OR merge) AND read", k=10)
        assert not set(victims) & set(b["doc_id"].to_pylist())
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()


class TestBooleanSemanticsFixes:
    """Review-found semantic fixes: negated OR-siblings are MUST_NOT
    (Lucene clause type, not a satisfying alternative), empty groups drop
    (code-search 'read()' must not become match-all), group boosts apply,
    '+' in groups is MUST with SHOULD siblings score-only."""

    def test_negated_sibling_under_or_is_must_not(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = set(e.match_ids("(parse OR merge) -read"))
        want = (
            set(e.match_ids("parse")) | set(e.match_ids("merge"))
        ) - set(e.match_ids("read"))
        assert got == want
        assert len(got) < e.n_docs  # the old bug matched ~everything

    def test_empty_group_is_dropped_not_match_all(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        a = e.search("read()", k=10, fl=["doc_id"])
        b = e.search("read", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
        # function-call-looking code queries behave like their terms
        c = e.search("parse(merge)", k=10, fl=["doc_id"])
        d = e.search("parse merge", k=10, fl=["doc_id"])
        assert c["doc_id"].to_pylist() == d["doc_id"].to_pylist()

    def test_group_boost_scales_subtree(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        n = e.n_docs
        boosted = dict(zip(
            *[e.search("(read merge)^2 parse", k=n, fl=["doc_id"])[c]
              .to_pylist() for c in ("doc_id", "score")]
        ))
        rm = dict(zip(
            *[e.search("read merge", k=n, fl=["doc_id"])[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        pp = dict(zip(
            *[e.search("parse", k=n, fl=["doc_id"])[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        d = next(x for x in boosted if x in rm and x in pp)
        assert boosted[d] == pytest.approx(2 * rm[d] + pp[d], rel=1e-12)

    def test_plus_in_group_is_must_with_optional_should(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        # merge required; parse optional (score-only)
        assert set(e.match_ids("(parse +merge)")) == set(
            e.match_ids("merge")
        )
        n = e.n_docs
        sm = dict(zip(
            *[e.search("(parse +merge)", k=n, fl=["doc_id"])[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        mm = dict(zip(
            *[e.search("merge", k=n, fl=["doc_id"])[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        pp = dict(zip(
            *[e.search("parse", k=n, fl=["doc_id"])[c].to_pylist()
              for c in ("doc_id", "score")]
        ))
        both = set(e.match_ids("parse AND merge"))
        if both:
            d = next(iter(both))
            assert sm[d] == pytest.approx(pp[d] + mm[d], rel=1e-12)
        only_merge = set(mm) - set(pp)
        if only_merge:
            d = next(iter(only_merge))
            assert sm[d] == pytest.approx(mm[d], rel=1e-12)

    def test_fixes_distributed_identical(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        for q in ["(parse OR merge) -read", "(read merge)^2 parse",
                  "(parse +merge)", "read()"]:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q


class TestSecondReviewFixes:
    def test_boost_after_empty_group_consumed(self, built_index):
        """'read ()^2' must equal 'read' — the dangling boost token must
        not re-parse as the scoring term '2'."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        a = e.search("read ()^2", k=10, fl=["doc_id"])
        b = e.search("read", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_nested_pure_negative_matches_nothing(self, built_index):
        """Lucene: a BooleanQuery with only MUST_NOT clauses matches
        nothing; the *:* courtesy wrap exists only at the TOP level."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert len(e.match_ids("merge AND (-(parse) OR -(read))")) == 0
        # top-level single negation still gets the implicit *:*
        assert len(e.match_ids("-(parse)")) == e.n_docs - len(
            e.match_ids("parse")
        )

    def test_fixes_distributed(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        for q in ["read ()^2", "merge AND (-(parse) OR -(read))",
                  "-(parse)"]:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q


class TestRegexQuery:
    """/regex/ term queries (Lucene RegexpQuery, RE2 full-term match):
    constant-score multiterm union, same rewrite as general wildcards."""

    def test_parser_forms(self):
        p = parse_query("/pa.se/ -/sk[iu]p/ /m(e|u)rge/^2", simple_analyzer)
        assert "/pa.se/" in p.wildcards
        assert p.must_not.wildcards == ["/sk[iu]p/"]
        assert p.wildcard_boosts["/m(e|u)rge/"] == 2.0

    def test_group_lexer_keeps_regex_atomic(self):
        from solr_indexer_ray.functions.queryparse import (
            _bool_tokens,
            has_group_syntax,
        )
        # parens inside the regex are NOT grouping syntax
        assert not has_group_syntax("/sp(ar|ur)k/ merge")
        assert has_group_syntax("(/sp(ar|ur)k/ OR window) AND merge")
        toks = _bool_tokens("(-/a(b)c/ OR x)")
        assert "-/a(b)c/" in toks
        # a path-filter slash is not a regex opener
        assert "path:src/main.py" in _bool_tokens("(path:src/main.py x)")

    def test_expansion_full_match_semantics(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        got = e.expand_pattern("/pa.se/")
        assert "parse" in got
        assert all(len(m) == 5 and m.startswith("pa") and m.endswith("se")
                   for m in got)
        # anchoring: /ars/ must NOT match "parse" (fullmatch, not search)
        assert "parse" not in e.expand_pattern("/ars/")

    def test_regex_equals_equivalent_wildcard(self, built_index):
        """/pa.se/ and pa?se expand identically -> identical ranking."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert e.expand_pattern("/pa.se/") == e.expand_pattern("pa?se")
        a = e.search("/pa.se/ merge", k=10, fl=["doc_id"])
        b = e.search("pa?se merge", k=10, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_prohibited_and_grouped_and_distributed(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        for q in ["/pa.se/ merge", "-/pa.se/ merge",
                  "(/m(e|u)rge/ OR window) AND read",
                  "/re(ad|et)/^2 parse"]:
            a = e.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_no_match_regex(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        assert e.expand_pattern("/zzqq[0-9]+x/") == []
        assert e.search("/zzqq[0-9]+x/", k=5, fl=["doc_id"]).num_rows == 0


class TestMinimumShouldMatch:
    """Solr (e)dismax ``mm``: membership needs >= mm optional clauses;
    scores stay the plain OR scores (mm gates, never rescales)."""

    def _pick_terms(self, e, n=3):
        """n corpus terms with df >= 5 (stable across the fixed seed)."""
        rows = e.terms(prefix="", limit=200, mincount=5)
        terms = [t for t, _ in rows[:n]]
        assert len(terms) == n
        return terms

    def test_resolver_solr_examples(self):
        from solr_indexer_ray.functions.queryparse import (
            resolve_min_should_match as r,
        )

        # Solr ref-guide examples at 5 optional clauses
        assert r("3", 5) == 3
        assert r("-2", 5) == 3
        assert r("75%", 5) == 3          # int(3.75)
        assert r("-25%", 5) == 4         # 5 + int(-1.25)
        # conditional "2<-25% 9<-3"
        assert r("2<-25% 9<-3", 2) == 2  # <= 2 -> all required
        assert r("2<-25% 9<-3", 4) == 3
        assert r("2<-25% 9<-3", 8) == 6
        assert r("2<-25% 9<-3", 12) == 9
        # clamps
        assert r("9", 4) == 4
        assert r("0", 4) == 0
        assert r("-9", 4) == 0
        assert r(2, 5) == 2              # plain int accepted

    def test_membership_and_scores(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, t3 = self._pick_terms(e)
        q = f"{t1} {t2} {t3}"
        full = e.search(q, k=e.n_docs, fl=["doc_id"])
        mm2 = e.search(q, k=e.n_docs, fl=["doc_id"], mm=2)
        # independent expectation: docs present in >= 2 single-term sets
        sets = [
            set(e.search(t, k=e.n_docs, fl=["doc_id"])["doc_id"].to_pylist())
            for t in (t1, t2, t3)
        ]
        want = {
            d for d in set().union(*sets)
            if sum(d in s for s in sets) >= 2
        }
        assert set(mm2["doc_id"].to_pylist()) == want
        # survivor scores equal the plain OR scores
        orm = dict(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
        for d, s in zip(mm2["doc_id"].to_pylist(), mm2["score"].to_pylist()):
            assert s == orm[d]

    def test_all_required_equals_and(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, t3 = self._pick_terms(e)
        a = e.search(f"{t1} {t2} {t3}", k=30, fl=["doc_id"], mm="100%")
        b = e.search(f"{t1} AND {t2} AND {t3}", k=30, fl=["doc_id"])
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()
        # over-required spec clamps to all
        c = e.search(f"{t1} {t2} {t3}", k=30, fl=["doc_id"], mm="7")
        assert c["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_mm_one_is_plain_or(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, _ = self._pick_terms(e)
        a = e.search(f"{t1} {t2}", k=e.n_docs, fl=["doc_id"])
        b = e.search(f"{t1} {t2}", k=e.n_docs, fl=["doc_id"], mm=1)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_mixed_clause_kinds_count(self, built_index):
        """mm counts every optional scoring clause kind (terms + the
        constant-score prefix clause here), not just plain terms."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, t3 = self._pick_terms(e)
        q = f"{t1} {t3} {t2[:3]}*"
        full = e.search(q, k=e.n_docs, fl=["doc_id"])
        mm2 = e.search(q, k=e.n_docs, fl=["doc_id"], mm=2)
        assert set(mm2["doc_id"].to_pylist()) <= set(full["doc_id"].to_pylist())
        orm = dict(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
        for d, s in zip(mm2["doc_id"].to_pylist(), mm2["score"].to_pylist()):
            assert s == orm[d]

    def test_mm_with_fq_and_paging(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, t3 = self._pick_terms(e)
        q = f"{t1} {t2} {t3}"
        allr = e.search(q, k=e.n_docs, fl=["doc_id"], mm=2)
        page = e.search(q, k=5, fl=["doc_id"], mm=2, start=3)
        assert page["doc_id"].to_pylist() == allr["doc_id"].to_pylist()[3:8]
        first = e.search(q, k=5, fl=["doc_id"], mm=2)
        cursor = (first["score"][-1].as_py(), first["doc_id"][-1].as_py())
        nxt = e.search(q, k=5, fl=["doc_id"], mm=2, search_after=cursor)
        assert nxt["doc_id"].to_pylist() == allr["doc_id"].to_pylist()[5:10]

    def test_errors(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        with pytest.raises(ValueError, match="optional"):
            e.search("a AND b", mm=1)
        with pytest.raises(ValueError, match="dismax"):
            e.search("(a OR b) c", mm=1)
        # mm composes with sort (as in Solr): the sorted page is the
        # ranked full match set stably sorted by doclen desc, then doc_id
        t1, t2, t3 = self._pick_terms(e)
        q = f"{t1} {t2} {t3}"
        full = e.search(q, k=e.doc_space, fl=["doc_id", "doclen"],
                        mm=2).to_pylist()
        assert full
        want = sorted(full, key=lambda r: (-r["doclen"], r["doc_id"]))[:15]
        got = e.search(q, k=15, fl=["doc_id", "doclen"], mm=2,
                       sort="doclen desc")
        assert got.to_pylist() == want

    def test_distributed_identity(self, built_index):
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, t3 = self._pick_terms(e)
        for q, mm in [(f"{t1} {t2} {t3}", 2),
                      (f"{t1} {t2} {t3}", "-1"),
                      (f"{t1} {t2} {t3} zzqq", "75%")]:
            a = e.search(q, k=20, fl=["doc_id"], mm=mm)
            b = search_partitioned(index_dir, q, k=20, mm=mm)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (q, mm)
            assert a["score"].to_pylist() == b["score"].to_pylist(), (q, mm)

    def test_mm_with_qf_dismax(self, built_index):
        """mm composes with qf: dismax clauses are the optional clauses."""
        index_dir, _ = built_index
        e = SearchEngine(index_dir)
        t1, t2, t3 = self._pick_terms(e)
        q = f"{t1} {t2} {t3}"
        full = e.search(q, k=e.n_docs, fl=["doc_id"], qf="content")
        mm2 = e.search(q, k=e.n_docs, fl=["doc_id"], qf="content", mm=2)
        orm = dict(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
        assert 0 < mm2.num_rows < full.num_rows
        for d, s in zip(mm2["doc_id"].to_pylist(), mm2["score"].to_pylist()):
            assert s == orm[d]
