"""DuckDB oracle SQL for the driver contract (pairs with contract.py).

Every string here is ANSI-ish SQL DuckDB 1.0 runs over the pre-registered
views (region nation customer supplier part orders lineitem events documents
embeddings).  The SQL mirrors the Ray implementations *exactly*:

- tokenization: ``regexp_split_to_array(lower(text), '[^a-z0-9]+')``
  == ``simple_analyzer`` (tested in tests/test_tokenize.py);
- Lucene SmallFloat length quantization expressed as pure bit math
  (``(v >> shift) << shift`` with shift = floor(log2(v)) - 3 — validated
  exhaustively against the Python implementation in tests);
- identical rounding (ROUND = half-away-from-zero on both sides) applied
  BEFORE ranking/threshold so float summation order cannot flip results;
- identical tie-breaks (ascending id) in every top-k.
"""

from __future__ import annotations

from solr_indexer_ray.contract import (
    ANN_K,
    BOOL_QUERIES,
    BOOST_QUERIES,
    FUZZY_QUERIES,
    WILDCARD_INFIX_QUERIES,
    FACET_FIELDS,
    FACET_QUERIES,
    GROUP_CASES,
    COLLAPSE_CASES,
    RERANK_CASES,
    JOIN_CASES,
    GEOFILT_CASES,
    PHRASE_QUERIES,
    PIVOT_CASES,
    RANGE_FACET_CASES,
    SHARD_QUERIES,
    SYN_MAP,
    SYN_QUERIES,
    MLT_DOCS,
    MLT_PARAMS,
    RANGE_QUERIES,
    SORT_CASES,
    SUGGEST_WORDS,
    STATS_CASES,
    TERMS_CASES,
    WILDCARD_QUERIES,
    ANN_N_QUERIES,
    B,
    BM25_K,
    BM25_QUERIES,
    K1,
    SQL_TOKS,
)
from solr_indexer_ray.functions.queryparse import (
    NO_MATCH_TERM,
    RANGE_FIELDS,
    ParsedQuery,
    parse_query,
)

#: parse-time range fields for the oracle generators: core + the
#: synthetic mtime stored column of the contract index
SQL_RANGE_FIELDS = (*RANGE_FIELDS, "mtime")
from solr_indexer_ray.functions.textstats import LANG_MARKERS, STOPWORDS
from solr_indexer_ray.functions.tokenize import simple_analyzer


def _sql_list(values) -> str:
    return ", ".join("'" + v.replace("'", "''") + "'" for v in values)


def _like_of(pattern: str) -> str:
    """Lucene wildcard -> SQL LIKE (* -> %, ? -> _; literal % _ escaped),
    mirroring SearchEngine.expand_pattern's translation."""
    return (
        pattern.replace("\\", "\\\\").replace("%", "\\%")
        .replace("_", "\\_").replace("*", "%").replace("?", "_")
        .replace("'", "''")
    )


def _pattern_cond(pat: str, col: str = "term") -> str:
    """SQL condition for one multi-term pattern clause: LIKE for Lucene
    wildcards, ``regexp_full_match`` for ``/regex/`` clauses (DuckDB and
    Arrow both run RE2, so the oracle and the engine agree exactly —
    mirrors ``SearchEngine.expand_pattern``'s dispatch)."""
    if pat.startswith("/") and pat.endswith("/") and len(pat) > 2:
        inner = pat[1:-1].replace("'", "''")
        return f"regexp_full_match({col}, '{inner}')"
    return f"{col} LIKE '{_like_of(pat)}' ESCAPE '\\'"


# --------------------------------------------------------------------- #
# BM25 (programmatically generated from the same parsed queries)
# --------------------------------------------------------------------- #
def _bm25_ctes(toks_expr: str = SQL_TOKS) -> str:
    """The shared BM25 CTE chain over a parameterized token expression —
    the stop-filter oracle swaps in a ``list_filter(...NOT IN stoplist)``
    token list and every downstream stat (dl, dlq, avgdl, tf, df)
    follows POST-filter, matching the engine's Lucene norm semantics."""
    return f"""
WITH toks AS (
  SELECT doc_id, lang, {toks_expr} AS toks FROM documents
),
dl AS (SELECT doc_id, len(toks) AS dl FROM toks),
dlq AS (
  SELECT doc_id,
    CASE WHEN dl < 24 THEN dl
      ELSE 24 + (CASE WHEN (dl-24) < 8 THEN dl-24
        ELSE ((dl-24) >> (CAST(floor(log2(greatest(dl-24,1))) AS INT) - 3))
             << (CAST(floor(log2(greatest(dl-24,1))) AS INT) - 3) END)
    END AS dlq
  FROM dl
),
stats AS (SELECT count(*) AS n_docs, sum(dl)*1.0/count(*) AS avgdl FROM dl),
tf AS (
  SELECT doc_id, term, count(*) AS tf
  FROM (SELECT doc_id, unnest(toks) AS term FROM toks)
  GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
"""


#: the default (unfiltered) CTE chain — every non-filter oracle uses it.
_BM25_CTES = _bm25_ctes()


def _bm25_query_block(q: str, analyzer=None) -> str:
    parsed = parse_query(q, analyzer or simple_analyzer,
                         range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    if not terms or NO_MATCH_TERM in terms:
        return (
            f"SELECT '{q}' AS query, doc_id, 0.0 AS score_r "
            "FROM documents WHERE 1=0"
        )
    conds = [f"t.term IN ({_sql_list(terms)})"]
    if parsed.filters:
        fexpr = " AND ".join(
            f"{fld} = '{val}'" for fld, val in sorted(set(parsed.filters))
        )
        conds.append(
            f"t.doc_id IN (SELECT doc_id FROM documents WHERE {fexpr})"
        )
    if _neg(parsed).terms:
        conds.append(
            "t.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
            f"({_sql_list(sorted(set(_neg(parsed).terms)))}))"
        )
    having = (
        f"HAVING count(DISTINCT t.term) = {len(terms)}"
        if parsed.conjunctive
        else ""
    )
    qq = q.replace("'", "''")
    return f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT t.doc_id AS doc_id,
    round(sum(
      ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
    ), 4) AS score_r
  FROM tf t
  JOIN df d USING (term)
  JOIN dlq q ON q.doc_id = t.doc_id
  CROSS JOIN stats st
  WHERE {' AND '.join(conds)}
  GROUP BY t.doc_id
  {having}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, t.doc_id) <= {BM25_K}
)"""


def bm25_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(_bm25_query_block(q) for q in BM25_QUERIES)
    return _BM25_CTES + blocks


def stop_topk_sql() -> str:
    """BM25 over the stop-filtered analysis chain: the token CTE drops
    the Lucene classic stop set (so dl/avgdl/tf/df are POST-filter, the
    engine's norm semantics) and each query parses through the same
    stop-wrapped analyzer — dropped atoms and the all-stopword empty
    BooleanQuery (-> zero rows) fall out identically on both sides."""
    from solr_indexer_ray.contract import STOP_QUERIES
    from solr_indexer_ray.functions.filters import (
        ENGLISH_STOPWORDS,
        FilterChain,
    )

    analyze = FilterChain(("stop",)).wrap(simple_analyzer)
    toks = (
        "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), "
        f"x -> x <> '' AND x NOT IN ({_sql_list(sorted(ENGLISH_STOPWORDS))}))"
    )
    blocks = "\nUNION ALL\n".join(
        _bm25_query_block(q, analyzer=analyze) for q in STOP_QUERIES
    )
    return _bm25_ctes(toks) + blocks


def _phrase_ptf_expr(ph) -> str:
    """DuckDB expression: exact-phrase occurrence count over ``toks``.

    Scans start positions 1..len-n+1 (1-based lists) and requires every
    member at its offset — the same ExactPhraseMatcher count the engine
    computes from positional postings."""
    n = len(ph)
    conds = " AND ".join(
        f"toks[i + {j}] = '{t}'" if j else f"toks[i] = '{t}'"
        for j, t in enumerate(ph)
    )
    return (
        f"len(list_filter(range(1, greatest(len(toks) - {n} + 2, 1)), "
        f"i -> {conds}))"
    )


def _near_ptf_expr(terms, slop: int) -> str:
    """DuckDB expression: ordered span-near match-start count (engine
    ``eval_near`` semantics): first-term positions i with an in-order
    chain p₀=i < p₁ < … < pₙ₋₁ and pₘ ≤ i + m + slop — nested
    existentials over position ranges (1-based lists)."""
    def inner(level: int, prev_var: str) -> str:
        var = f"p{level}"
        t = terms[level].replace("'", "''")
        hi = f"i + {level + 1} + {slop}"  # p_level <= i + level + slop
        cond = f"toks[{var}] = '{t}'"
        if level + 1 < len(terms):
            cond += f" AND {inner(level + 1, var)}"
        return (
            f"len(list_filter(range({prev_var} + 1, {hi}), "
            f"{var} -> {cond})) > 0"
        )

    t0 = terms[0].replace("'", "''")
    return (
        "len(list_filter(range(1, len(toks) + 1), "
        f"i -> toks[i] = '{t0}' AND {inner(1, 'i')}))"
    )


#: bbox CTE matching contract._geo_index's doc_id-derived envelopes
_BBOX_CTE = """
bbox AS (
  SELECT doc_id,
    CASE WHEN doc_id % 53 = 11 THEN NULL
         WHEN doc_id % 41 = 7 THEN 150.0 + (doc_id % 20)
         ELSE ((doc_id * 37) % 320) - 170.0 END AS w,
    CASE WHEN doc_id % 53 = 11 THEN NULL
         WHEN doc_id % 41 = 7 THEN -160.0 - (doc_id % 10)
         ELSE ((doc_id * 37) % 320) - 170.0 + (doc_id % 29) + 1 END AS e,
    CASE WHEN doc_id % 53 = 11 THEN NULL
         ELSE ((doc_id * 13) % 140) - 70.0 END AS s,
    CASE WHEN doc_id % 53 = 11 THEN NULL
         ELSE ((doc_id * 13) % 140) - 70.0 + (doc_id % 17) + 1 END AS n
  FROM documents)
"""


def _spatial_cond_sql(op, qw, qe, qs, qn) -> str:
    """Envelope predicate over the bbox CTE columns — the engine's exact
    semantics incl. antimeridian-crossing docs (w > e) and queries."""
    if op == "Intersects":
        if qw > qe:  # crossing query: union of the two halves
            return (f"({_spatial_cond_sql(op, qw, 180.0, qs, qn)} OR "
                    f"{_spatial_cond_sql(op, -180.0, qe, qs, qn)})")
        lon = (f"(CASE WHEN bb.w <= bb.e THEN bb.e >= {qw} AND bb.w <= {qe} "
               f"ELSE bb.e >= {qw} OR bb.w <= {qe} END)")
        return (f"(bb.w IS NOT NULL AND bb.n >= {qs} AND bb.s <= {qn} "
                f"AND {lon})")
    if op == "IsWithin":
        return (f"(bb.w IS NOT NULL AND bb.w <= bb.e AND bb.w >= {qw} AND "
                f"bb.e <= {qe} AND bb.s >= {qs} AND bb.n <= {qn})")
    if op == "Contains":
        lon = (f"(CASE WHEN bb.w <= bb.e THEN bb.w <= {qw} AND bb.e >= {qe} "
               f"ELSE bb.w <= {qw} OR bb.e >= {qe} END)")
        return (f"(bb.w IS NOT NULL AND bb.s <= {qs} AND bb.n >= {qn} "
                f"AND {lon})")
    raise ValueError(op)


def spatial_topk_sql() -> str:
    from solr_indexer_ray.contract import SPATIAL_CASES, spatial_query

    blocks = []
    for op, qw, qe, qs, qn, term in SPATIAL_CASES:
        q = spatial_query(op, qw, qe, qs, qn, term)
        qq = q.replace("'", "''")
        cond = _spatial_cond_sql(op, qw, qe, qs, qn)
        if not term:
            blocks.append(f"""
SELECT '{qq}' AS query, doc_id, 0.0 AS score_r FROM (
  SELECT doc_id FROM bbox bb WHERE {cond}
  ORDER BY doc_id LIMIT {BM25_K})""")
            continue
        blocks.append(f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT t.doc_id AS doc_id,
    round(ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl))), 4)
      AS score_r
  FROM tf t JOIN df d USING (term) JOIN dlq q ON q.doc_id = t.doc_id
  JOIN bbox bb ON bb.doc_id = t.doc_id CROSS JOIN stats st
  WHERE t.term = '{term}' AND {cond}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, t.doc_id) <= {BM25_K})""")
    return _BM25_CTES + ", " + _BBOX_CTE + "\nUNION ALL\n".join(blocks)


def _phrase_w_expr(ph) -> str:
    """Phrase weight: SUM of member idfs, duplicates kept (Lucene
    BM25Similarity.idfExplain over the PhraseQuery term array)."""
    vals = ", ".join(f"('{t}')" for t in ph)
    return (
        "(SELECT sum(ln(1 + (st2.n_docs - d2.df + 0.5) / (d2.df + 0.5))) "
        f"FROM (VALUES {vals}) m(term) JOIN df d2 USING (term) "
        "CROSS JOIN stats st2)"
    )


def _fcond(fld: str, val: str) -> str:
    """Metadata filter condition; trailing * prefix-matches (engine rule)."""
    v = val.replace("'", "''")
    if val.endswith("*") and len(val) > 1:
        return f"{fld} LIKE '{v[:-1]}%'"
    return f"{fld} = '{v}'"


def _range_cond_sql(rf, neg: bool = False) -> str:
    """Lucene range filter -> doc_id membership condition.  ``doclen``
    ranges run over the token-count CTE; ``mtime`` over the recomputed
    synthetic timestamp (2024-01-01 + doc_id hours, the corpus mapping);
    string fields over documents (``repo`` maps to ``source`` per the
    FIXTURES corpus mapping)."""
    lo_op = ">=" if rf.lo_incl else ">"
    hi_op = "<=" if rf.hi_incl else "<"
    if rf.field == "mtime":
        from solr_indexer_ray.functions.normalize import parse_date

        src = "documents"
        col = "(TIMESTAMP '2024-01-01' + doc_id * INTERVAL 1 HOUR)"

        def ts(v):
            strict = parse_date(str(v))
            return "TIMESTAMP '" + strict.replace("T", " ").rstrip("Z") + "'"

        lov = ts(rf.lo) if rf.lo is not None else None
        hiv = ts(rf.hi) if rf.hi is not None else None
        quote = ""
    elif rf.field == "doclen":
        src, col = "dl", "dl"
        lov, hiv = rf.lo, rf.hi
        quote = ""
    else:
        src = "documents"
        col = {"repo": "source"}.get(rf.field, rf.field)
        lov, hiv = rf.lo, rf.hi
        quote = "'"
    parts = []
    if lov is not None:
        parts.append(f"{col} {lo_op} {quote}{lov}{quote}")
    if hiv is not None:
        parts.append(f"{col} {hi_op} {quote}{hiv}{quote}")
    if not parts:
        parts = [f"{col} IS NOT NULL"]
    inop = "NOT IN" if neg else "IN"
    return (
        f"c.doc_id {inop} (SELECT doc_id FROM {src} "
        f"WHERE {' AND '.join(parts)})"
    )


def _neg(parsed) -> ParsedQuery:
    """A parsed query's MUST_NOT clauses (an empty query when none)."""
    return parsed.must_not or ParsedQuery()


def _range_conds(parsed) -> list:
    conds = [_range_cond_sql(rf) for rf in parsed.range_filters]
    conds += [_range_cond_sql(rf, neg=True)
              for rf in _neg(parsed).range_filters]
    return conds


def _term_branch_sql(parsed, terms, kexpr) -> str:
    """Term-contribution branch; per-term query boosts join in via a
    VALUES map (absent boost = 1.0, multiplied AFTER the BM25 product —
    the engine's float order)."""
    if not any(t in parsed.boosts for t in terms):
        return f"""
    SELECT t.doc_id AS doc_id, 't:' || t.term AS clause,
      ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {kexpr})) AS contrib
    FROM tf t JOIN df d USING (term) JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE t.term IN ({_sql_list(terms)})"""
    vals = ", ".join(
        f"('{t}', {float(parsed.boosts.get(t, 1.0))!r})" for t in terms
    )
    return f"""
    SELECT t.doc_id AS doc_id, 't:' || t.term AS clause,
      (ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {kexpr}))) * bw.boost AS contrib
    FROM tf t JOIN (VALUES {vals}) bw(bterm, boost) ON bw.bterm = t.term
    JOIN df d ON d.term = t.term JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE t.term IN ({_sql_list(terms)})"""


def _phrase_query_block(q: str) -> str:
    """One UNION branch of the phrase/wildcard oracle: term + phrase +
    constant-score prefix contributions summed per doc, the engine's exact
    exclusion rules."""
    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    phrases = sorted(map(tuple, parsed.phrases))
    kexpr = f"{K1} * (1 - {B} + {B} * q.dlq / st.avgdl)"
    qq0 = q.replace("'", "''")
    if parsed.is_match_all and not parsed.filters and not parsed.range_filters:
        # Solr match-all: every doc, score 0, ascending id
        return (
            # subselect so the ORDER BY/LIMIT stays local to this block
            # inside the UNION ALL chain
            "SELECT query, doc_id, score_r FROM ("
            f"SELECT '{qq0}' AS query, doc_id, 0.0 AS score_r FROM documents "
            f"ORDER BY doc_id LIMIT {BM25_K})"
        )

    branches = []
    if terms:
        branches.append(_term_branch_sql(parsed, terms, kexpr))
    for pi, ph in enumerate(phrases):
        b = parsed.phrase_boosts.get(ph)
        wexpr = (
            f"({_phrase_w_expr(ph)} * {float(b)!r})" if b is not None
            else _phrase_w_expr(ph)
        )
        branches.append(f"""
    SELECT p.doc_id AS doc_id, 'p:{pi}' AS clause,
      {wexpr} * (p.ptf / (p.ptf + {kexpr})) AS contrib
    FROM (SELECT doc_id, {_phrase_ptf_expr(ph)} AS ptf FROM toks) p
    JOIN dlq q ON q.doc_id = p.doc_id CROSS JOIN stats st
    WHERE p.ptf > 0""")
    # proximity clauses: span-near ptf, PhraseQuery weight
    for ni, (nterms, slop) in enumerate(sorted(parsed.near_phrases)):
        b = parsed.near_boosts.get((nterms, slop))
        wexpr = (
            f"({_phrase_w_expr(nterms)} * {float(b)!r})" if b is not None
            else _phrase_w_expr(nterms)
        )
        branches.append(f"""
    SELECT p.doc_id AS doc_id, 'n:{ni}' AS clause,
      {wexpr} * (p.ptf / (p.ptf + {kexpr})) AS contrib
    FROM (SELECT doc_id, {_near_ptf_expr(nterms, slop)} AS ptf FROM toks) p
    JOIN dlq q ON q.doc_id = p.doc_id CROSS JOIN stats st
    WHERE p.ptf > 0""")
    for wi, pre in enumerate(parsed.prefixes):
        # constant-score wildcard: the clause weight (1.0 or its boost)
        # per doc containing any expansion
        gw = float(parsed.prefix_boosts.get(pre, 1.0))
        branches.append(f"""
    SELECT DISTINCT t.doc_id AS doc_id, 'w:{wi}' AS clause, {gw!r} AS contrib
    FROM tf t WHERE t.term LIKE '{pre}%'""")
    # fuzzy clauses: blended SynonymQuery stats over the Levenshtein
    # expansion (tf summed over members, df = max member df) — same
    # shape as synonym_topk_sql with a dynamic group
    for fi, fz in enumerate(sorted(set(parsed.fuzzies))):
        word, edits = fz
        b = parsed.fuzzy_boosts.get(fz)
        mult = f" * {float(b)!r}" if b is not None else ""
        grp = f"SELECT term FROM df WHERE levenshtein(term, '{word}') <= {edits}"
        branches.append(f"""
    SELECT g.doc_id AS doc_id, 'f:{fi}' AS clause,
      (ln(1 + (st.n_docs - bd.df + 0.5) / (bd.df + 0.5))
      * (g.tf / (g.tf + {kexpr}))){mult} AS contrib
    FROM (
      SELECT doc_id, sum(tf) AS tf FROM tf
      WHERE term IN ({grp}) GROUP BY doc_id
    ) g
    JOIN dlq q ON q.doc_id = g.doc_id
    CROSS JOIN stats st
    CROSS JOIN (SELECT max(df) AS df FROM df WHERE term IN ({grp})) bd""")
    # general wildcards (?, infix/leading *): constant-score LIKE union
    for gi, pat in enumerate(sorted(set(parsed.wildcards))):
        gw = float(parsed.wildcard_boosts.get(pat, 1.0))
        branches.append(f"""
    SELECT DISTINCT t.doc_id AS doc_id, 'g:{gi}' AS clause, {gw!r} AS contrib
    FROM tf t WHERE {_pattern_cond(pat, 't.term')}""")
    qq = q.replace("'", "''")
    if not branches:
        if parsed.filters or parsed.range_filters:
            # pure-filter/range query: engine returns matches at score 0,
            # ascending doc_id (Solr-style match-all within the filter)
            return (
                "SELECT query, doc_id, score_r FROM ("
                f"SELECT '{qq}' AS query, m.doc_id AS doc_id, 0.0 AS score_r "
                f"FROM ({_match_docs_sql(q)}) m "
                f"ORDER BY m.doc_id LIMIT {BM25_K})"
            )
        return (
            f"SELECT '{qq}' AS query, doc_id, 0.0 AS score_r "
            "FROM documents WHERE 1=0"
        )

    conds = ["1=1"] + _range_conds(parsed)
    for fld, val in sorted(set(parsed.filters)):
        conds.append(
            f"c.doc_id IN (SELECT doc_id FROM documents WHERE {_fcond(fld, val)})"
        )
    for fld, val in sorted(set(_neg(parsed).filters)):
        conds.append(
            "c.doc_id NOT IN "
            f"(SELECT doc_id FROM documents WHERE {_fcond(fld, val)})"
        )
    if _neg(parsed).terms:
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
            f"({_sql_list(sorted(set(_neg(parsed).terms)))}))"
        )
    for ph in _neg(parsed).phrases:
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM "
            f"(SELECT doc_id, {_phrase_ptf_expr(ph)} AS ptf FROM toks) "
            "WHERE ptf > 0)"
        )
    for nterms, slop in sorted(set(_neg(parsed).near_phrases)):
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM "
            f"(SELECT doc_id, {_near_ptf_expr(nterms, slop)} AS ptf "
            "FROM toks) WHERE ptf > 0)"
        )
    for pre in _neg(parsed).prefixes:
        conds.append(
            f"c.doc_id NOT IN (SELECT doc_id FROM tf WHERE term LIKE '{pre}%')"
        )
    for word, edits in sorted(set(_neg(parsed).fuzzies)):
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
            f"(SELECT term FROM df WHERE levenshtein(term, '{word}') "
            f"<= {edits}))"
        )
    for pat in sorted(set(_neg(parsed).wildcards)):
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM tf WHERE "
            f"{_pattern_cond(pat)})"
        )
    n_clauses = parsed.scoring_clauses
    having = (
        f"HAVING count(DISTINCT c.clause) = {n_clauses}"
        if parsed.conjunctive else ""
    )
    union = "\n    UNION ALL\n".join(branches)
    return f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT c.doc_id AS doc_id, round(sum(c.contrib), 4) AS score_r
  FROM ({union}
  ) c
  WHERE {' AND '.join(conds)}
  GROUP BY c.doc_id
  {having}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, c.doc_id) <= {BM25_K}
)"""


def phrase_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in PHRASE_QUERIES
    )
    return _BM25_CTES + blocks


def phrase_chain_topk_sql() -> str:
    """3+-term phrases: the oracle stays the generic positional
    ExactPhraseMatcher SQL — the engine's bigram-chain matcher must be
    observationally identical to member-position intersection."""
    from solr_indexer_ray.contract import PHRASE3_QUERIES

    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in PHRASE3_QUERIES
    )
    return _BM25_CTES + blocks


def range_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in RANGE_QUERIES
    )
    return _BM25_CTES + blocks


def boosted_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in BOOST_QUERIES
    )
    return _BM25_CTES + blocks


def sharded_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in SHARD_QUERIES
    )
    return _BM25_CTES + blocks


def wildcard_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in WILDCARD_QUERIES
    )
    return _BM25_CTES + blocks


def near_topk_sql() -> str:
    from solr_indexer_ray.contract import NEAR_QUERIES

    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in NEAR_QUERIES
    )
    return _BM25_CTES + blocks


def date_range_topk_sql() -> str:
    from solr_indexer_ray.contract import DATE_RANGE_QUERIES

    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in DATE_RANGE_QUERIES
    )
    return _BM25_CTES + blocks


def fuzzy_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in FUZZY_QUERIES
    )
    return _BM25_CTES + blocks


def _func_sql(node) -> str:
    """Function-query AST -> DuckDB SQL (contract oracle for bf/boost).

    Compiled from the SAME parsed AST the engine evaluates
    (``functions.funcquery.parse_func``), so grammar drift is impossible;
    only the evaluation backend differs (numpy vs DuckDB double math —
    identical IEEE float64 operations).  Field references resolve to the
    true document token count ``dd.dl`` (the engine's stored ``doclen``)."""
    kind = node[0]
    if kind == "num":
        return repr(float(node[1]))
    if kind == "field":
        if node[1] == "doclen":
            return "dd.dl"
        if node[1] == "lat":  # synthetic geo columns recompute exactly
            return "(((dd.doc_id * 37) % 1700) / 10.0 - 85.0)"
        if node[1] == "lon":
            return "(((dd.doc_id * 73) % 3600) / 10.0 - 180.0)"
        raise ValueError(
            f"oracle supports doclen/lat/lon only, got {node[1]!r}"
        )
    name, args = node[1], node[2]
    a = [_func_sql(x) for x in args]
    if name == "ms":
        return a[0] if len(a) == 1 else f"({a[0]} - {a[1]})"
    if name == "geodist":
        lat, lon, plat, plon = a
        return (
            f"(2.0 * {_EARTH_R} * asin(sqrt(least(1.0, "
            f"pow(sin(radians(({lat}) - ({plat})) / 2), 2) "
            f"+ cos(radians({plat})) * cos(radians({lat})) "
            f"* pow(sin(radians(({lon}) - ({plon})) / 2), 2)))))"
        )
    if name == "sum":
        return "(" + " + ".join(a) + ")"
    if name == "product":
        return "(" + " * ".join(a) + ")"
    if name == "sub":
        return f"({a[0]} - {a[1]})"
    if name == "div":
        return f"({a[0]} / {a[1]})"
    if name == "pow":
        return f"pow({a[0]}, {a[1]})"
    if name in ("abs", "sqrt", "ln", "exp"):
        return f"{name}({a[0]})"
    if name == "log":
        return f"log10({a[0]})"
    if name == "max":
        return "greatest(" + ", ".join(a) + ")"
    if name == "min":
        return "least(" + ", ".join(a) + ")"
    if name == "recip":
        return f"({a[2]} / ({a[1]} * {a[0]} + {a[3]}))"
    if name == "map":
        default = a[4] if len(a) > 4 else a[0]
        return (
            f"(CASE WHEN {a[0]} BETWEEN {a[1]} AND {a[2]} "
            f"THEN {a[3]} ELSE {default} END)"
        )
    raise ValueError(f"no SQL mapping for {name!r}")


def _func_query_block(q: str, bf: list, boost: list) -> str:
    """One bf/boost case: the bm25 base block wrapped with the function
    arithmetic ``round((base + sum(bf)) * product(boost), 4)`` — the
    engine's edismax composition — joined against the raw doc length."""
    from solr_indexer_ray.functions.funcquery import parse_func

    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    label = f"{q} | bf={';'.join(bf)} | boost={';'.join(boost)}"
    qq = label.replace("'", "''")
    if not terms or NO_MATCH_TERM in terms:
        return (
            f"SELECT '{qq}' AS query, doc_id, 0.0 AS score_r "
            "FROM documents WHERE 1=0"
        )
    conds = [f"t.term IN ({_sql_list(terms)})"]
    if parsed.filters:
        fexpr = " AND ".join(
            f"{fld} = '{val}'" for fld, val in sorted(set(parsed.filters))
        )
        conds.append(
            f"t.doc_id IN (SELECT doc_id FROM documents WHERE {fexpr})"
        )
    if _neg(parsed).terms:
        conds.append(
            "t.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
            f"({_sql_list(sorted(set(_neg(parsed).terms)))}))"
        )
    having = (
        f"HAVING count(DISTINCT t.term) = {len(terms)}"
        if parsed.conjunctive
        else ""
    )
    bf_sql = " + ".join(_func_sql(parse_func(e)) for e in bf) or "0.0"
    boost_sql = " * ".join(
        f"({_func_sql(parse_func(e))})" for e in boost
    ) or "1.0"
    return f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT b.doc_id AS doc_id,
    round((b.base + {bf_sql}) * ({boost_sql}), 4) AS score_r
  FROM (
    SELECT t.doc_id AS doc_id,
      sum(
        ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
        * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
      ) AS base
    FROM tf t
    JOIN df d USING (term)
    JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE {' AND '.join(conds)}
    GROUP BY t.doc_id
    {having}
  ) b
  JOIN dl dd ON dd.doc_id = b.doc_id
  QUALIFY row_number() OVER (ORDER BY score_r DESC, b.doc_id) <= {BM25_K}
)"""


def _scored_subq(parsed) -> str:
    """Per-doc unrounded BM25 score subquery ``(doc_id, s)`` for a parsed
    term query (filters gate, prohibited excluded, AND gates the distinct
    count, per-term ``^w`` boosts multiply) — the building block the bq
    oracle composes additively."""
    terms = sorted(set(parsed.terms))
    if not terms or NO_MATCH_TERM in terms:
        return "SELECT doc_id, 0.0 AS s FROM documents WHERE 1=0"
    if parsed.boosts:
        cases = " ".join(
            f"WHEN '{t}' THEN {float(w)!r}"
            for t, w in sorted(parsed.boosts.items())
        )
        bexpr = f"(CASE t.term {cases} ELSE 1.0 END)"
    else:
        bexpr = "1.0"
    conds = [f"t.term IN ({_sql_list(terms)})"]
    if parsed.filters:
        fexpr = " AND ".join(
            f"{fld} = '{val}'" for fld, val in sorted(set(parsed.filters))
        )
        conds.append(
            f"t.doc_id IN (SELECT doc_id FROM documents WHERE {fexpr})"
        )
    if _neg(parsed).terms:
        conds.append(
            "t.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
            f"({_sql_list(sorted(set(_neg(parsed).terms)))}))"
        )
    having = (
        f"HAVING count(DISTINCT t.term) = {len(terms)}"
        if parsed.conjunctive
        else ""
    )
    return f"""
    SELECT t.doc_id AS doc_id,
      sum(
        ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
        * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
        * {bexpr}
      ) AS s
    FROM tf t
    JOIN df d USING (term)
    JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE {' AND '.join(conds)}
    GROUP BY t.doc_id
    {having}"""


def _bq_subq(bq: str) -> str:
    """Per-doc contribution subquery for one bq string: its own score
    for a scored bq, or the ConstantScore weight (product of filter
    ``^w`` boosts) for a pure-metadata-filter bq — mirroring
    ``SearchEngine._prepare_bq``."""
    parsed = parse_query(bq, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    if parsed.scoring_clauses == 0:
        const = 1.0
        for w in parsed.filter_boosts.values():
            const *= float(w)
        fexpr = " AND ".join(
            f"{fld} = '{val}'" for fld, val in sorted(set(parsed.filters))
        )
        return (
            f"SELECT doc_id, {const!r} AS s FROM documents WHERE {fexpr}"
        )
    return _scored_subq(parsed)


def _bq_query_block(q: str, bqs: list) -> str:
    """One bq case: main-query per-doc score LEFT JOINed with each bq's
    contribution, ``round(main + Σ coalesce(bq, 0), 4)`` — the engine's
    additive composition."""
    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    label = f"{q} | bq={';'.join(bqs)}"
    qq = label.replace("'", "''")
    terms = sorted(set(parsed.terms))
    if not terms or NO_MATCH_TERM in terms:
        return (
            f"SELECT '{qq}' AS query, doc_id, 0.0 AS score_r "
            "FROM documents WHERE 1=0"
        )
    joins = "\n  ".join(
        f"LEFT JOIN ({_bq_subq(b)}) b{i} ON b{i}.doc_id = m.doc_id"
        for i, b in enumerate(bqs)
    )
    total = " + ".join(
        ["m.s"] + [f"coalesce(b{i}.s, 0.0)" for i in range(len(bqs))]
    )
    return f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT m.doc_id AS doc_id, round({total}, 4) AS score_r
  FROM ({_scored_subq(parsed)}) m
  {joins}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, m.doc_id) <= {BM25_K}
)"""


#: Gopher-quality-gate oracle: the same signals from grouped per-token
#: counts (mean length / alpha fraction / dup fraction / top fraction),
#: thresholds and violation order matching
#: stages/curation.gopher_quality_filter defaults
GOPHER_FILTER_SQL = f"""
WITH toks AS (SELECT doc_id, {SQL_TOKS} AS ts FROM documents),
flat AS (SELECT doc_id, unnest(ts) AS t FROM toks),
pertok AS (SELECT doc_id, t, count(*) AS c FROM flat GROUP BY 1, 2),
sig AS (
  SELECT doc_id,
    sum(c) AS n,
    sum(length(t) * c) * 1.0 / sum(c) AS mean_len,
    sum(CASE WHEN regexp_matches(t, '[a-z]') THEN c ELSE 0 END) * 1.0
      / sum(c) AS alpha,
    1.0 - count(*) * 1.0 / sum(c) AS dup,
    max(c) * 1.0 / sum(c) AS top
  FROM pertok GROUP BY doc_id
),
gated AS (
  SELECT d.doc_id AS doc_id,
    coalesce(s.n, 0)::BIGINT AS n_tokens,
    coalesce(s.mean_len, 0.0) AS mean_token_len,
    coalesce(s.alpha, 0.0) AS alpha_frac,
    coalesce(s.dup, 0.0) AS dup_frac,
    coalesce(s.top, 0.0) AS top_frac
  FROM documents d LEFT JOIN sig s USING (doc_id)
)
SELECT doc_id,
  (violations = '') AS keep, violations, n_tokens, mean_token_len,
  alpha_frac, dup_frac, top_frac
FROM (
  SELECT *,
    concat_ws(',',
      CASE WHEN n_tokens BETWEEN 50 AND 100000 THEN NULL
           ELSE 'n_tokens' END,
      CASE WHEN mean_token_len BETWEEN 3.0 AND 10.0 THEN NULL
           ELSE 'mean_token_len' END,
      CASE WHEN alpha_frac >= 0.8 THEN NULL ELSE 'alpha_frac' END,
      CASE WHEN dup_frac <= 0.4 THEN NULL ELSE 'dup_frac' END,
      CASE WHEN top_frac <= 0.3 THEN NULL ELSE 'top_frac' END
    ) AS violations
  FROM gated
)"""


#: paragraph-dedup oracle: spans via string_split on the literal
#: separator, keep = short span OR (doc_id, index)-lexicographic first
#: occurrence, survivors reassembled with ordered string_agg — the same
#: C4 keep-first rule as stages/curation.paragraph_dedup (join method:
#: exact tuple ordering, no composite-key bit packing)
PARAGRAPH_DEDUP_SQL = """
WITH paras AS (
  SELECT doc_id, generate_subscripts(ps, 1) - 1 AS i, unnest(ps) AS p
  FROM (SELECT doc_id, string_split(text, ' the ') AS ps FROM documents)
),
marked AS (
  SELECT doc_id, i, p,
    (length(p) < 1 OR row_number()
        OVER (PARTITION BY p ORDER BY doc_id, i) = 1) AS keep
  FROM paras
)
SELECT doc_id,
  coalesce(string_agg(p, ' the ' ORDER BY i) FILTER (WHERE keep), '')
    AS text,
  count(*) AS n_paras,
  count(*) FILTER (WHERE NOT keep) AS n_dropped
FROM marked GROUP BY doc_id
"""


#: split oracle: same md5-coordinate rule as curation.accept_fraction
TRAIN_VALID_SPLIT_SQL = """
SELECT doc_id,
  CASE WHEN ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UINT64
            / 4294967296.0 < 0.2
       THEN 'valid' ELSE 'train' END AS split
FROM documents
"""

#: deterministic-shuffle oracle: rank under the md5-key ordering
SHUFFLED_ORDER_SQL = """
SELECT row_number() OVER (ORDER BY md5(doc_id::VARCHAR)) - 1 AS rank,
       doc_id
FROM documents
"""


#: sequence-packing oracle: the greedy contiguous scan as a recursive
#: CTE — each step either adds the next doc's token count to the
#: current bin or opens a new one; a shard boundary (doc_id // 150)
#: always opens a new bin — exactly stages/curation.pack_sequences
#: with budget 128, shard_size 150 (bins never cross training shards)
PACKED_SEQUENCES_SQL = f"""
WITH RECURSIVE
toks AS (SELECT doc_id, len({SQL_TOKS}) AS n,
                doc_id // 150 AS shard FROM documents),
ord AS (
  SELECT doc_id, n, shard,
         row_number() OVER (ORDER BY doc_id) AS rn FROM toks
),
pack AS (
  SELECT rn, doc_id, n, shard, CAST(0 AS BIGINT) AS bin, n AS fill
  FROM ord WHERE rn = 1
  UNION ALL
  SELECT o.rn, o.doc_id, o.n, o.shard,
    CASE WHEN o.shard = p.shard AND p.fill + o.n <= 128
         THEN p.bin ELSE p.bin + 1 END,
    CASE WHEN o.shard = p.shard AND p.fill + o.n <= 128
         THEN p.fill + o.n ELSE o.n END
  FROM pack p JOIN ord o ON o.rn = p.rn + 1
)
SELECT doc_id, n AS n_tokens, bin FROM pack
"""


#: bigram-LM quality oracle: same add-0.5 model as
#: stages/curation.lm_quality_score with the SCALE-BOUNDED training
#: state pinned — trained on the deterministic md5 half-sample
#: (accept_fraction < 0.5), count tables pruned to the top-24 unigrams
#: / top-600 bigrams by (count DESC, key ASC), V = retained unigram
#: rows, pruned keys back off to count 0.  Scoring covers ALL docs:
#: ln((c+a)/(head+a*V)) averaged per doc, round 4.
LM_QUALITY_SQL = f"""
WITH toks AS (SELECT doc_id, {SQL_TOKS} AS toks FROM documents),
train AS (
  SELECT toks FROM toks
  WHERE ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UINT64
        / 4294967296.0 < 0.5
),
uni AS (
  SELECT t AS w, count(*) AS c
  FROM (SELECT unnest(toks) AS t FROM train) GROUP BY 1
  QUALIFY row_number() OVER (ORDER BY count(*) DESC, t ASC) <= 24
),
v AS (SELECT count(*) AS v FROM uni),
tbigr AS (
  SELECT unnest(toks[1:len(toks) - 1]) AS w1,
         unnest(toks[2:len(toks)]) AS w2
  FROM train WHERE len(toks) >= 2
),
bcnt AS (
  SELECT w1, w2, count(*) AS c FROM tbigr GROUP BY 1, 2
  QUALIFY row_number()
      OVER (ORDER BY count(*) DESC, (w1 || ' ' || w2) ASC) <= 600
),
bigr AS (
  SELECT doc_id,
         unnest(toks[1:len(toks) - 1]) AS w1,
         unnest(toks[2:len(toks)]) AS w2
  FROM toks WHERE len(toks) >= 2
),
scored AS (
  SELECT g.doc_id, count(*) AS n_bigrams,
         avg(ln((coalesce(bc.c, 0) + 0.5)
                / (coalesce(u.c, 0) + 0.5 * v.v))) AS s
  FROM bigr g
  LEFT JOIN uni u ON u.w = g.w1
  LEFT JOIN bcnt bc ON bc.w1 = g.w1 AND bc.w2 = g.w2
  CROSS JOIN v
  GROUP BY g.doc_id
)
SELECT d.doc_id AS doc_id,
       coalesce(s.n_bigrams, 0) AS n_bigrams,
       round(s.s, 4) AS avg_logp
FROM documents d LEFT JOIN scored s USING (doc_id)
"""


def term_vectors_sql() -> str:
    """Term-vector oracle: per pinned doc, tf + index df + 0-based
    positions (zipped unnests over the token list) — the engine
    re-derives the same vector from the stored body."""
    from solr_indexer_ray.contract import TV_DOC_IDS

    ids = ", ".join(str(i) for i in TV_DOC_IDS)
    return _BM25_CTES + f""", pos AS (
  SELECT doc_id, unnest(toks) AS term,
         unnest(range(0, len(toks))) AS p
  FROM toks WHERE doc_id IN ({ids})
)
SELECT p.doc_id AS doc_id, p.term AS term, count(*) AS tf,
       any_value(d.df) AS df,
       string_agg(CAST(p.p AS VARCHAR), ',' ORDER BY p.p) AS positions
FROM pos p JOIN df d USING (term)
GROUP BY p.doc_id, p.term"""


def facet_stats_sql() -> str:
    """JSON-facet stats oracle: per bucket of ``lang`` over each facet
    query's match set, count + sum/avg/min/max of the true doc length
    (the engine's stored doclen = the toks CTE's dl) — bucket order
    count desc / value asc, mincount 1."""
    from solr_indexer_ray.contract import FACET_QUERIES

    blocks = []
    for q in FACET_QUERIES:
        qq = q.replace("'", "''")
        blocks.append(f"""
SELECT query, value, count, sum_len, avg_len, min_len, max_len FROM (
  SELECT '{qq}' AS query, d.lang AS value, count(*) AS count,
         sum(dd.dl) * 1.0 AS sum_len,
         sum(dd.dl) * 1.0 / count(*) AS avg_len,
         min(dd.dl) * 1.0 AS min_len,
         max(dd.dl) * 1.0 AS max_len
  FROM documents d
  JOIN dl dd ON dd.doc_id = d.doc_id
  JOIN ({_match_docs_sql(q)}) m ON m.doc_id = d.doc_id
  WHERE d.lang IS NOT NULL
  GROUP BY d.lang
  HAVING count(*) >= 1
  QUALIFY row_number() OVER (ORDER BY count DESC, value) <= 100
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def bq_topk_sql() -> str:
    from solr_indexer_ray.contract import BQ_CASES

    blocks = "\nUNION ALL\n".join(
        _bq_query_block(q, bqs) for q, bqs in BQ_CASES
    )
    return _BM25_CTES + blocks


def func_topk_sql() -> str:
    from solr_indexer_ray.contract import FUNC_QUERIES

    blocks = "\nUNION ALL\n".join(
        _func_query_block(q, bf, boost) for q, bf, boost in FUNC_QUERIES
    )
    return _BM25_CTES + blocks


def _mm_query_block(q: str, spec: str) -> str:
    """One mm case: the bm25 block with the HAVING count gate set to the
    resolved minimum-should-match instead of the all-required AND count.
    The grammar resolution (int / percent / negative / conditional) is
    computed HERE with the same resolver the engine uses (unit-tested
    against Solr's published examples); the SQL independently verifies
    the per-doc clause counting + scoring semantics."""
    from solr_indexer_ray.functions.queryparse import (
        resolve_min_should_match,
    )

    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    assert terms and not parsed.conjunctive and not _neg(parsed).terms, q
    required = resolve_min_should_match(spec, parsed.scoring_clauses)
    conds = [f"t.term IN ({_sql_list(terms)})"]
    if parsed.filters:
        fexpr = " AND ".join(
            f"{fld} = '{val}'" for fld, val in sorted(set(parsed.filters))
        )
        conds.append(
            f"t.doc_id IN (SELECT doc_id FROM documents WHERE {fexpr})"
        )
    qq = q.replace("'", "''")
    return f"""
SELECT '{qq}' AS query, '{spec}' AS mm, doc_id, score_r FROM (
  SELECT t.doc_id AS doc_id,
    round(sum(
      ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
    ), 4) AS score_r
  FROM tf t
  JOIN df d USING (term)
  JOIN dlq q ON q.doc_id = t.doc_id
  CROSS JOIN stats st
  WHERE {' AND '.join(conds)}
  GROUP BY t.doc_id
  HAVING count(DISTINCT t.term) >= {required}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, t.doc_id) <= {BM25_K}
)"""


def mm_topk_sql() -> str:
    from solr_indexer_ray.contract import MM_CASES

    blocks = "\nUNION ALL\n".join(
        _mm_query_block(q, spec) for q, spec in MM_CASES
    )
    return _BM25_CTES + blocks


def pf_topk_sql() -> str:
    """edismax pf oracle: each case's SQL is the explicit-clause
    equivalent query (term + boosted phrase/near clauses) — the engine's
    pf rewrite is pytest-pinned to be clause-identical to it."""
    from solr_indexer_ray.contract import PF_CASES

    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(label) for _, _, label in PF_CASES
    )
    return _BM25_CTES + blocks


def wildcard_infix_topk_sql() -> str:
    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in WILDCARD_INFIX_QUERIES
    )
    return _BM25_CTES + blocks


def regex_topk_sql() -> str:
    from solr_indexer_ray.contract import REGEX_QUERIES

    blocks = "\nUNION ALL\n".join(
        _phrase_query_block(q) for q in REGEX_QUERIES
    )
    return _BM25_CTES + blocks


def _hybrid_query_block(qi: int, q: str) -> str:
    """One hybrid query: text rank (row_number over round-4 BM25, doc_id
    tie-break, top FUSE_N) FULL OUTER JOIN vector rank (round-4 cosine of
    embeddings vs the vec_id=qi query vector), RRF = 1/(60+r) per present
    list, round-6, top BM25_K.  Mirrors ``stages.hybrid.hybrid_search``
    with ``exact_ranks=True`` clause for clause."""
    from solr_indexer_ray.stages.hybrid import FUSE_N, RRF_K

    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    assert terms and not parsed.filters and not _neg(parsed).terms, q
    qq = q.replace("'", "''")
    return f"""
SELECT {qi}::BIGINT AS query_id, doc_id, rrf_r FROM (
  WITH t_full AS (
    SELECT t.doc_id AS doc_id,
      round(sum(
        ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
        * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
      ), 4) AS score_r
    FROM tf t
    JOIN df d USING (term)
    JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE t.term IN ({_sql_list(terms)})
    GROUP BY t.doc_id
  ),
  tr AS (
    SELECT doc_id,
      row_number() OVER (ORDER BY score_r DESC, doc_id) AS r
    FROM t_full
    QUALIFY r <= {FUSE_N}
  ),
  vr AS (
    SELECT doc_id, row_number() OVER (ORDER BY sim DESC, doc_id) AS r
    FROM (
      SELECT e.vec_id AS doc_id,
        round(list_cosine_similarity(
          e.embedding::DOUBLE[],
          (SELECT embedding FROM embeddings
           WHERE vec_id = {qi})::DOUBLE[]), 4) AS sim
      FROM embeddings e
    )
    QUALIFY r <= {FUSE_N}
  )
  SELECT coalesce(tr.doc_id, vr.doc_id) AS doc_id,
    round(coalesce(1.0 / ({RRF_K} + tr.r), 0)
        + coalesce(1.0 / ({RRF_K} + vr.r), 0), 6) AS rrf_r
  FROM tr FULL OUTER JOIN vr ON tr.doc_id = vr.doc_id
  QUALIFY row_number() OVER (
    ORDER BY rrf_r DESC, coalesce(tr.doc_id, vr.doc_id)) <= {BM25_K}
)"""


# --------------------------------------------------------------------- #
# per-field scored search (analyzed fields) + dismax qf
# --------------------------------------------------------------------- #
#: SQL token-list expression per analyzed contract field (the corpus
#: mapping synthesizes path = "doc_<id>.txt" and repo = source, so the
#: simple-analyzed field tokens are recomputable from documents directly)
_FIELD_TOKS = {
    "path_text": "list_value('doc', doc_id::VARCHAR, 'txt')",
    "repo_text": "list_value(lower(source))",
}


def _dlq_expr(dl: str) -> str:
    """SmallFloat length quantization (same arithmetic as the dlq CTE)."""
    return f"""CASE WHEN {dl} < 24 THEN {dl}
      ELSE 24 + (CASE WHEN ({dl}-24) < 8 THEN {dl}-24
        ELSE (({dl}-24) >> (CAST(floor(log2(greatest({dl}-24,1))) AS INT) - 3))
             << (CAST(floor(log2(greatest({dl}-24,1))) AS INT) - 3) END)
    END"""


def _field_branch(fld: str, term: str, boost: float, clause: str) -> str:
    """One fielded-term contribution branch: per-field BM25 (field df,
    docCount, avgdl, quantized field length) — mirrors
    ``SearchEngine._field_score_vec``."""
    toks = _FIELD_TOKS[fld]
    t = term.replace("'", "''")
    tf = f"len(list_filter({toks}, x -> x = '{t}'))"
    return f"""
    SELECT f.doc_id AS doc_id, '{clause}' AS clause,
      {boost!r} * fs.idf
        * (f.tf / (f.tf + {K1} * (1 - {B} + {B} * f.dlq / fs.avgdl)))
        AS contrib
    FROM (
      SELECT doc_id, {tf} AS tf,
        {_dlq_expr(f"len({toks})")} AS dlq
      FROM documents
    ) f
    CROSS JOIN (
      SELECT
        ln(1 + (count(*) FILTER (WHERE len({toks}) > 0)
                - count(*) FILTER (WHERE {tf} > 0) + 0.5)
              / (count(*) FILTER (WHERE {tf} > 0) + 0.5)) AS idf,
        sum(len({toks})) * 1.0
          / count(*) FILTER (WHERE len({toks}) > 0) AS avgdl
      FROM documents
    ) fs
    WHERE f.tf > 0"""


def _field_phrase_branch(fld: str, ph, boost: float, clause: str) -> str:
    """Fielded PhraseQuery contribution: w = sum of member FIELD idfs
    (duplicates counted), tf = exact phrase count over the field token
    list, K from field avgdl + quantized field length — mirrors
    ``SearchEngine.eval_field_phrase``."""
    toks = _FIELD_TOKS[fld]
    n = len(ph)
    conds = " AND ".join(
        f"{toks}[i + {j}] = '{t}'" if j else f"{toks}[i] = '{t}'"
        for j, t in enumerate(ph)
    )
    ptf = (
        f"len(list_filter(range(1, greatest(len({toks}) - {n} + 2, 1)), "
        f"i -> {conds}))"
    )

    def midf(t: str) -> str:
        tt = t.replace("'", "''")
        mtf = f"len(list_filter({toks}, x -> x = '{tt}'))"
        return (
            f"(SELECT ln(1 + (count(*) FILTER (WHERE len({toks}) > 0)"
            f" - count(*) FILTER (WHERE {mtf} > 0) + 0.5)"
            f" / (count(*) FILTER (WHERE {mtf} > 0) + 0.5))"
            " FROM documents)"
        )

    idf_sum = " + ".join(midf(t) for t in ph)
    return f"""
    SELECT f.doc_id AS doc_id, '{clause}' AS clause,
      {boost!r} * ({idf_sum})
        * (f.ptf / (f.ptf + {K1} * (1 - {B} + {B} * f.dlq / fs.avgdl)))
        AS contrib
    FROM (
      SELECT doc_id, {ptf} AS ptf,
        {_dlq_expr(f"len({toks})")} AS dlq
      FROM documents
    ) f
    CROSS JOIN (
      SELECT sum(len({toks})) * 1.0
          / count(*) FILTER (WHERE len({toks}) > 0) AS avgdl
      FROM documents
    ) fs
    WHERE f.ptf > 0"""


def _content_branch(term: str, boost: float, clause: str) -> str:
    t = term.replace("'", "''")
    return f"""
    SELECT t.doc_id AS doc_id, '{clause}' AS clause,
      {boost!r} * ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
        * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
        AS contrib
    FROM tf t
    JOIN df d USING (term)
    JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE t.term = '{t}'"""


def _field_query_block(q: str) -> str:
    """One FIELD_QUERIES case: content-term + fielded-term contribution
    branches, prohibited-field exclusions, AND = count(DISTINCT clause)
    over the PARSED clause count (absent clauses poison conjunctions)."""
    parsed = parse_query(
        q, simple_analyzer, range_fields=SQL_RANGE_FIELDS,
        scored_fields=tuple(_FIELD_TOKS),
    )
    qq = q.replace("'", "''")
    branches = []
    for term in sorted(set(parsed.terms)):
        branches.append(
            _content_branch(term, parsed.boosts.get(term, 1.0), f"c:{term}")
        )
    for fld, term in sorted(set(parsed.field_terms)):
        b = parsed.field_term_boosts.get((fld, term), 1.0)
        branches.append(_field_branch(fld, term, b, f"f:{fld}:{term}"))
    for fp in sorted(set(parsed.field_phrases)):
        fld, ph = fp
        b = parsed.field_phrase_boosts.get(fp, 1.0)
        branches.append(
            _field_phrase_branch(fld, list(ph), b,
                                 f"fp:{fld}:{' '.join(ph)}")
        )
    conds = ["1=1"]
    for fld, term in sorted(set(_neg(parsed).field_terms)):
        toks = _FIELD_TOKS[fld]
        t = term.replace("'", "''")
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM documents WHERE "
            f"len(list_filter({toks}, x -> x = '{t}')) > 0)"
        )
    for fld, ph in sorted(set(_neg(parsed).field_phrases)):
        toks = _FIELD_TOKS[fld]
        n = len(ph)
        pconds = " AND ".join(
            f"{toks}[i + {j}] = '{t}'" if j else f"{toks}[i] = '{t}'"
            for j, t in enumerate(ph)
        )
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM documents WHERE "
            f"len(list_filter(range(1, greatest(len({toks}) - {n} + 2, 1)),"
            f" i -> {pconds})) > 0)"
        )
    having = (
        f"HAVING count(DISTINCT c.clause) = {parsed.scoring_clauses}"
        if parsed.conjunctive else ""
    )
    union = "\n    UNION ALL".join(branches)
    return f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT c.doc_id AS doc_id, round(sum(c.contrib), 4) AS score_r
  FROM ({union}) c
  WHERE {' AND '.join(conds)}
  GROUP BY c.doc_id
  {having}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, c.doc_id) <= {BM25_K}
)"""


def field_topk_sql() -> str:
    from solr_indexer_ray.contract import FIELD_QUERIES

    blocks = "\nUNION ALL\n".join(
        _field_query_block(q) for q in FIELD_QUERIES
    )
    return _BM25_CTES + blocks


def _qf_term_block(term: str, fpairs, tie: float) -> str:
    """One dismax clause: per doc greatest over the per-field scores +
    tie * the rest (two fields: greatest + tie*least), fields joined
    FULL OUTER on doc_id — mirrors the engine's dismax accumulation."""
    sides = []
    for i, (fld, boost) in enumerate(fpairs):
        if fld == "content":
            sides.append(f"({_content_branch(term, boost, f'q{i}')}) s{i}")
        else:
            sides.append(f"({_field_branch(fld, term, boost, f'q{i}')}) s{i}")
    assert len(sides) == 2, "qf oracle supports exactly two fields"
    return f"""
    SELECT coalesce(s0.doc_id, s1.doc_id) AS doc_id,
      'dm:{term}' AS clause,
      greatest(coalesce(s0.contrib, 0), coalesce(s1.contrib, 0))
        + {tie!r} * least(coalesce(s0.contrib, 0), coalesce(s1.contrib, 0))
        AS contrib
    FROM {sides[0]}
    FULL OUTER JOIN {sides[1]} ON s0.doc_id = s1.doc_id"""


def qf_topk_sql() -> str:
    from solr_indexer_ray.contract import QF_QUERIES, QF_SPEC, QF_TIE

    fpairs = []
    for part in QF_SPEC.split():
        name, _, b = part.partition("^")
        fpairs.append((name, float(b) if b else 1.0))
    blocks = []
    for q in QF_QUERIES:
        parsed = parse_query(q, simple_analyzer,
                             range_fields=SQL_RANGE_FIELDS)
        terms = sorted(set(parsed.terms))
        union = "\n    UNION ALL".join(
            _qf_term_block(t, fpairs, QF_TIE) for t in terms
        )
        qq = q.replace("'", "''")
        blocks.append(f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT c.doc_id AS doc_id, round(sum(c.contrib), 4) AS score_r
  FROM ({union}) c
  GROUP BY c.doc_id
  QUALIFY row_number() OVER (ORDER BY score_r DESC, c.doc_id) <= {BM25_K}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def hybrid_topk_sql() -> str:
    from solr_indexer_ray.contract import HYBRID_QUERIES

    blocks = "\nUNION ALL\n".join(
        _hybrid_query_block(qi, q) for qi, q in enumerate(HYBRID_QUERIES)
    )
    return _BM25_CTES + blocks


def bool_topk_sql() -> str:
    """Grouped-boolean oracle.  Per BOOL_QUERIES case: a term leaf
    contributes iff the doc matches the WHOLE query (root condition) AND
    every AND-branch enclosing the leaf (the engine's per-node
    ``scores[~mask] = 0`` zeroing); membership itself is the union of
    contributions, which is complete because every root path in the
    pinned set carries a scoring clause."""
    kexpr = f"{K1} * (1 - {B} + {B} * q.dlq / st.avgdl)"

    def has(term, alias="t"):
        return (
            f"{alias}.doc_id IN (SELECT doc_id FROM tf WHERE term = '{term}')"
        )

    def lng(val, alias="t"):
        return (
            f"{alias}.doc_id IN (SELECT doc_id FROM documents "
            f"WHERE lang = '{val}')"
        )

    # (query, [(leaf_term, branch_cond builder)], root_cond builder);
    # conds are functions of the row alias so they can sit in branch
    # (alias t) or outer (alias c) position.
    cases = [
        (
            "(spark OR window) AND merge",
            [("spark", None), ("window", None), ("merge", None)],
            lambda a: f"(({has('spark', a)} OR {has('window', a)}) "
                      f"AND {has('merge', a)})",
        ),
        (
            "(spark AND merge) OR window",
            [
                ("spark", lambda a: f"({has('spark', a)} AND {has('merge', a)})"),
                ("merge", lambda a: f"({has('spark', a)} AND {has('merge', a)})"),
                ("window", None),
            ],
            lambda a: f"(({has('spark', a)} AND {has('merge', a)}) "
                      f"OR {has('window', a)})",
        ),
        (
            "(spark OR window) AND -batch",
            [("spark", None), ("window", None)],
            lambda a: f"(({has('spark', a)} OR {has('window', a)}) "
                      f"AND NOT {has('batch', a)})",
        ),
        (
            "(lang:en OR lang:de) AND spark",
            [("spark", None)],
            lambda a: f"(({lng('en', a)} OR {lng('de', a)}) "
                      f"AND {has('spark', a)})",
        ),
        (
            "-(spark window) AND merge",
            [("merge", None)],
            lambda a: f"(NOT ({has('spark', a)} OR {has('window', a)}) "
                      f"AND {has('merge', a)})",
        ),
        (
            "((spark OR stream) AND batch) OR window",
            [
                ("spark", lambda a: f"(({has('spark', a)} OR {has('stream', a)}) AND {has('batch', a)})"),
                ("stream", lambda a: f"(({has('spark', a)} OR {has('stream', a)}) AND {has('batch', a)})"),
                ("batch", lambda a: f"(({has('spark', a)} OR {has('stream', a)}) AND {has('batch', a)})"),
                ("window", None),
            ],
            lambda a: f"((({has('spark', a)} OR {has('stream', a)}) "
                      f"AND {has('batch', a)}) OR {has('window', a)})",
        ),
        (
            "(spark OR window) -batch",
            [("spark", None), ("window", None)],
            lambda a: f"(({has('spark', a)} OR {has('window', a)}) "
                      f"AND NOT {has('batch', a)})",
        ),
    ]
    assert [q for q, _, _ in cases] == BOOL_QUERIES

    blocks = []
    for q, leaves, root in cases:
        branches = []
        for li, (term, branch) in enumerate(leaves):
            bc = f" AND {branch('t')}" if branch else ""
            branches.append(f"""
    SELECT t.doc_id AS doc_id, 'b:{li}' AS clause,
      ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {kexpr})) AS contrib
    FROM tf t JOIN df d USING (term) JOIN dlq q ON q.doc_id = t.doc_id
    CROSS JOIN stats st
    WHERE t.term = '{term}'{bc}""")
        union = "\n    UNION ALL\n".join(branches)
        qq = q.replace("'", "''")
        blocks.append(f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT c.doc_id AS doc_id, round(sum(c.contrib), 4) AS score_r
  FROM ({union}
  ) c
  WHERE {root('c')}
  GROUP BY c.doc_id
  QUALIFY row_number() OVER (ORDER BY score_r DESC, c.doc_id) <= {BM25_K}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def _match_docs_sql(q: str) -> str:
    """SELECT of ALL doc_ids matching ``q`` — the facet/delete match set
    (same clause semantics as the top-k blocks, no scoring)."""
    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    phrases = sorted(map(tuple, parsed.phrases))

    conds = ["1=1"] + _range_conds(parsed)
    for fld, val in sorted(set(parsed.filters)):
        conds.append(
            f"c.doc_id IN (SELECT doc_id FROM documents WHERE {_fcond(fld, val)})"
        )
    for fld, val in sorted(set(_neg(parsed).filters)):
        conds.append(
            "c.doc_id NOT IN "
            f"(SELECT doc_id FROM documents WHERE {_fcond(fld, val)})"
        )
    if _neg(parsed).terms:
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
            f"({_sql_list(sorted(set(_neg(parsed).terms)))}))"
        )
    for ph in _neg(parsed).phrases:
        conds.append(
            "c.doc_id NOT IN (SELECT doc_id FROM "
            f"(SELECT doc_id, {_phrase_ptf_expr(ph)} AS ptf FROM toks) "
            "WHERE ptf > 0)"
        )
    for pre in _neg(parsed).prefixes:
        conds.append(
            f"c.doc_id NOT IN (SELECT doc_id FROM tf WHERE term LIKE '{pre}%')"
        )

    branches = []
    if terms:
        branches.append(
            "    SELECT doc_id, 't:' || term AS clause FROM tf "
            f"WHERE term IN ({_sql_list(terms)})"
        )
    for pi, ph in enumerate(phrases):
        branches.append(f"""    SELECT doc_id, 'p:{pi}' AS clause
    FROM (SELECT doc_id, {_phrase_ptf_expr(ph)} AS ptf FROM toks)
    WHERE ptf > 0""")
    for wi, pre in enumerate(parsed.prefixes):
        branches.append(
            f"    SELECT DISTINCT doc_id, 'w:{wi}' AS clause FROM tf "
            f"WHERE term LIKE '{pre}%'"
        )
    if not branches:
        # match-all / pure-filter: every doc passing the conds
        return (
            "SELECT c.doc_id FROM (SELECT doc_id FROM documents) c "
            f"WHERE {' AND '.join(conds)}"
        )
    n_clauses = len(terms) + len(phrases) + len(parsed.prefixes)
    having = (
        f"HAVING count(DISTINCT c.clause) = {n_clauses}"
        if parsed.conjunctive else ""
    )
    union = "\n    UNION ALL\n".join(branches)
    return f"""SELECT c.doc_id FROM (
{union}
  ) c
  WHERE {' AND '.join(conds)}
  GROUP BY c.doc_id
  {having}"""


#: facet field -> documents source column (FIXTURES.md map: repo <- source)
_FACET_SRC = {"lang": "lang", "repo": "source"}


def facets_sql() -> str:
    """Facet buckets for every (FACET_QUERIES x FACET_FIELDS) pair:
    count over the match set per distinct field value, zero buckets kept
    (mincount=0), mirroring SearchEngine.facet / facet_partitioned."""
    blocks = []
    for q in FACET_QUERIES:
        qq = q.replace("'", "''")
        for fld in FACET_FIELDS:
            src = _FACET_SRC[fld]
            blocks.append(f"""
SELECT '{qq}' AS query, '{fld}' AS field, f.value AS value,
       coalesce(m.cnt, 0) AS count
FROM (SELECT DISTINCT {src} AS value FROM documents) f
LEFT JOIN (
  SELECT {src} AS value, count(*) AS cnt
  FROM documents JOIN ({_match_docs_sql(q)}) USING (doc_id)
  GROUP BY 1
) m USING (value)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


#: sort-key -> SQL expression over (documents JOIN dl)
_SORT_COLS = {"doclen": "dl.dl", "repo": "d.source", "lang": "d.lang",
              "doc_id": "d.doc_id"}


def sorted_browse_sql() -> str:
    """Field-sorted retrieval: match set ordered by the sort keys with the
    engine's ascending-doc_id tie-break, rank numbers included."""
    blocks = []
    for q, spec in SORT_CASES:
        qq = f"{q} | {spec}".replace("'", "''")
        order = []
        for part in spec.split(","):
            fld, *rest = part.split()
            direction = (rest[0] if rest else "asc").upper()
            order.append(f"{_SORT_COLS[fld]} {direction}")
        order.append("d.doc_id ASC")
        blocks.append(f"""
SELECT '{qq}' AS "case", rank, doc_id, doclen FROM (
  SELECT d.doc_id AS doc_id, dl.dl AS doclen,
         row_number() OVER (ORDER BY {', '.join(order)}) - 1 AS rank
  FROM documents d
  JOIN dl ON dl.doc_id = d.doc_id
  JOIN ({_match_docs_sql(q)}) m ON m.doc_id = d.doc_id
  QUALIFY rank < 20
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def more_like_this_sql() -> str:
    """MoreLikeThis oracle: term selection (tf·(1+ln(N/df)) rounded 6dp,
    sc desc / term asc, tf>=min_tf, df>=min_df, top max_terms) entirely in
    SQL, then the standard BM25 OR scoring over the selected terms with the
    source doc excluded."""
    mqt = MLT_PARAMS["max_query_terms"]
    mtf = MLT_PARAMS["min_term_freq"]
    mdf = MLT_PARAMS["min_doc_freq"]
    blocks = []
    for src in MLT_DOCS:
        sel = f"""(SELECT term FROM (
      SELECT t2.term AS term,
             round(t2.tf * (1 + ln(st2.n_docs * 1.0 / d2.df)), 6) AS sc
      FROM tf t2 JOIN df d2 USING (term) CROSS JOIN stats st2
      WHERE t2.doc_id = {src} AND t2.tf >= {mtf} AND d2.df >= {mdf}
      ORDER BY sc DESC, term LIMIT {mqt}))"""
        blocks.append(f"""
SELECT {src} AS src, doc_id, score_r FROM (
  SELECT t.doc_id AS doc_id,
    round(sum(
      ln(1 + (st.n_docs - d.df + 0.5) / (d.df + 0.5))
      * (t.tf / (t.tf + {K1} * (1 - {B} + {B} * q.dlq / st.avgdl)))
    ), 4) AS score_r
  FROM tf t JOIN df d USING (term) JOIN dlq q ON q.doc_id = t.doc_id
  CROSS JOIN stats st
  WHERE t.term IN {sel} AND t.doc_id <> {src}
  GROUP BY t.doc_id
  QUALIFY row_number() OVER (ORDER BY score_r DESC, t.doc_id) <= {BM25_K}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def terms_component_sql() -> str:
    blocks = []
    for prefix, limit, mincount in TERMS_CASES:
        cond = f"term LIKE '{prefix}%'" if prefix else "1=1"
        blocks.append(f"""
SELECT '{prefix}' AS prefix, rank, term, df FROM (
  SELECT term, df, row_number() OVER (ORDER BY df DESC, term) - 1 AS rank
  FROM df WHERE {cond} AND df >= {mincount}
  QUALIFY rank < {limit}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def field_stats_sql() -> str:
    blocks = []
    for q, fld in STATS_CASES:
        case = f"{q}|{fld}".replace("'", "''")
        m = f"(SELECT dl.dl AS v FROM dl JOIN ({_match_docs_sql(q)}) USING (doc_id))"
        blocks.append(f"""
SELECT '{case}' AS "case", stat, value FROM (
  SELECT unnest(['count','min','max','sum','mean']) AS stat,
         unnest([count(v)*1.0, min(v)*1.0, max(v)*1.0, sum(v)*1.0,
                 round(sum(v)*1.0/count(v), 6)]) AS value
  FROM {m}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def ltr_topk_sql() -> str:
    """LTR oracle: main ranking's top-N window rescored by the same
    linear feature arithmetic (rounded components), tail in original
    order — the rerank oracle shape plus feature joins."""
    from solr_indexer_ray.contract import LTR_CASE

    q, k, n = LTR_CASE
    lim = max(n, k)
    feat = (
        "round(1.0 * m.score_r"
        " + 3.0 * (1000.0 / (dd.dl + 1000.0))"
        " + 0.5 * (CASE WHEN d.lang = 'en' THEN 1.0 ELSE 0.0 END)"
        " + 2.0 * coalesce(r.score_r, 0), 4)"
    )
    return _BM25_CTES + f"""
SELECT rn - 1 AS rank, doc_id, score_c AS score_r
FROM (
  SELECT doc_id, score_c,
    row_number() OVER (
      ORDER BY seg,
        CASE WHEN seg = 0 THEN -score_c ELSE 0 END,
        CASE WHEN seg = 0 THEN doc_id ELSE pos END
    ) AS rn
  FROM (
    SELECT 0 AS seg, m.doc_id, {feat} AS score_c,
           CAST(0 AS BIGINT) AS pos
    FROM (
      SELECT doc_id, score_r,
        row_number() OVER (ORDER BY score_r DESC, doc_id) AS pos
      FROM ({_scored_match_sql(q)})
    ) m
    LEFT JOIN ({_scored_match_sql("window")}) r USING (doc_id)
    JOIN dl dd ON dd.doc_id = m.doc_id
    JOIN documents d ON d.doc_id = m.doc_id
    WHERE m.pos <= {n}
    UNION ALL
    SELECT 1, doc_id, score_r, pos FROM (
      SELECT doc_id, score_r,
        row_number() OVER (ORDER BY score_r DESC, doc_id) AS pos
      FROM ({_scored_match_sql(q)})
    ) WHERE pos > {n} AND pos <= {lim}
  )
)
WHERE rn <= {k}"""


def luke_fields_sql() -> str:
    """Luke oracle: the expected stored-field inventory of the contract
    index (every synthesized column is non-null for all docs) plus doc
    and distinct-term counts recomputed from the documents table."""
    fields = [
        ("bbox", "string"), ("commit", "string"), ("content", "string"),
        ("doc_id", "int64"), ("doclen", "int32"), ("lang", "string"),
        ("lat", "double"), ("lon", "double"),
        ("mtime", "timestamp[us]"), ("norm", "uint8"),
        ("path", "string"), ("repo", "string"), ("sha256", "string"),
    ]
    rows = "\nUNION ALL\n".join(
        f"SELECT '{n}' AS field, '{t}' AS type, "
        f"(SELECT count(*) FROM documents) AS docs"
        for n, t in fields
    )
    return _BM25_CTES + f"""
{rows}
UNION ALL
SELECT '__n_docs__', 'meta', (SELECT count(*) FROM documents)
UNION ALL
SELECT '__n_terms__', 'meta', (SELECT count(*) FROM df)"""


def significant_terms_sql() -> str:
    """Significant-terms oracle: candidate terms by background df
    bounds, foreground df from the match set, JLH score rounded 6dp,
    top-k by (score desc, term asc)."""
    from solr_indexer_ray.contract import SIGTERM_CASES

    blocks = []
    for q, k, mindf, maxdf in SIGTERM_CASES:
        qq = q.replace("'", "''")
        m = _match_docs_sql(q)
        blocks.append(f"""
SELECT '{qq}' AS query, term, fg, bg, score_r FROM (
  SELECT term, fg, bg, score_r,
    row_number() OVER (ORDER BY score_r DESC, term) AS rn
  FROM (
    SELECT c.term AS term, f.fg AS fg, c.df AS bg,
      round(CASE
        WHEN f.fg * 1.0 / fgs.n > c.df * 1.0 / st.n_docs THEN
          (f.fg * 1.0 / fgs.n - c.df * 1.0 / st.n_docs)
          * ((f.fg * 1.0 / fgs.n) / (c.df * 1.0 / st.n_docs))
        ELSE 0.0 END, 6) AS score_r
    FROM (
      SELECT term, df FROM df CROSS JOIN stats s2
      WHERE df >= {mindf} AND df <= {maxdf!r} * s2.n_docs
    ) c
    JOIN (
      SELECT t.term, count(DISTINCT t.doc_id) AS fg
      FROM tf t JOIN ({m}) mm ON mm.doc_id = t.doc_id
      GROUP BY t.term
    ) f ON f.term = c.term
    CROSS JOIN (SELECT count(*) AS n FROM ({m})) fgs
    CROSS JOIN stats st
  )
)
WHERE rn <= {k}""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def _tree_case_sql(node, fexpr: dict) -> str:
    """Render a MultipleAdditiveTrees node as nested SQL CASEs (left
    branch when feature <= threshold, Solr branching)."""
    if "value" in node:
        return str(float(node["value"]))
    return (
        f"(CASE WHEN {fexpr[node['feature']]} <= {float(node['threshold'])} "
        f"THEN {_tree_case_sql(node['left'], fexpr)} "
        f"ELSE {_tree_case_sql(node['right'], fexpr)} END)"
    )


def ltr_trees_topk_sql() -> str:
    """Tree-ensemble LTR oracle: the linear-LTR window shape with the
    model's trees rendered as nested CASEs over the same feature SQL."""
    from solr_indexer_ray.contract import LTR_CASE, LTR_TREE_MODEL

    q, k, n = LTR_CASE
    lim = max(n, k)
    fexpr = {
        "bm25": "m.score_r",
        "dl": "dd.dl",
        "is_en": "(CASE WHEN d.lang = 'en' THEN 1.0 ELSE 0.0 END)",
    }
    total = " + ".join(
        f"{float(t.get('weight', 1.0))} * {_tree_case_sql(t['root'], fexpr)}"
        for t in LTR_TREE_MODEL["trees"]
    )
    feat = f"round({total}, 4)"
    return _BM25_CTES + f"""
SELECT rn - 1 AS rank, doc_id, score_c AS score_r
FROM (
  SELECT doc_id, score_c,
    row_number() OVER (
      ORDER BY seg,
        CASE WHEN seg = 0 THEN -score_c ELSE 0 END,
        CASE WHEN seg = 0 THEN doc_id ELSE pos END
    ) AS rn
  FROM (
    SELECT 0 AS seg, m.doc_id, {feat} AS score_c,
           CAST(0 AS BIGINT) AS pos
    FROM (
      SELECT doc_id, score_r,
        row_number() OVER (ORDER BY score_r DESC, doc_id) AS pos
      FROM ({_scored_match_sql(q)})
    ) m
    JOIN dl dd ON dd.doc_id = m.doc_id
    JOIN documents d ON d.doc_id = m.doc_id
    WHERE m.pos <= {n}
    UNION ALL
    SELECT 1, doc_id, score_r, pos FROM (
      SELECT doc_id, score_r,
        row_number() OVER (ORDER BY score_r DESC, doc_id) AS pos
      FROM ({_scored_match_sql(q)})
    ) WHERE pos > {n} AND pos <= {lim}
  )
) WHERE rn <= {k}
ORDER BY rank"""


def stream_rollup_sql() -> str:
    """rollup(search(...)) oracle: grouped aggregates over the match
    set's docs (doclen = dl; lang from documents)."""
    m = _match_docs_sql("spark merge")
    return _BM25_CTES + f"""
SELECT d.lang AS lang, CAST(sum(dl.dl) AS BIGINT) AS "sum(doclen)",
       count(*) AS "count(*)",
       sum(dl.dl) * 1.0 / count(*) AS "avg(doclen)"
FROM ({m}) s
JOIN documents d ON d.doc_id = s.doc_id
JOIN dl ON dl.doc_id = s.doc_id
GROUP BY d.lang"""


def sql_group_agg_sql() -> str:
    """/sql GROUP BY oracle: the statement's own semantics over the raw
    parquet — text predicate = the engine match set, doclen = dl."""
    m = _match_docs_sql("spark")
    return _BM25_CTES + f"""
SELECT d.lang AS lang, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(dl.dl) AS BIGINT) AS sum_dl,
       sum(dl.dl) * 1.0 / count(*) AS avg_dl
FROM ({m}) s
JOIN documents d ON d.doc_id = s.doc_id
JOIN dl ON dl.doc_id = s.doc_id
GROUP BY d.lang HAVING count(*) >= 2
ORDER BY n DESC, lang ASC"""


def sql_select_where_sql() -> str:
    """/sql projection oracle: text match + BETWEEN + IN + ORDER BY +
    LIMIT, same column names as the engine output."""
    m = _match_docs_sql("spark window")
    return _BM25_CTES + f"""
SELECT s.doc_id AS doc_id, d.lang AS lang,
       CAST(dl.dl AS BIGINT) AS doclen
FROM ({m}) s
JOIN documents d ON d.doc_id = s.doc_id
JOIN dl ON dl.doc_id = s.doc_id
WHERE dl.dl BETWEEN 20 AND 90 AND d.lang IN ('en', 'de')
ORDER BY doclen DESC, doc_id ASC LIMIT 50"""


def stream_join_sql() -> str:
    """innerJoin(search, search) oracle: intersection of the two match
    sets joined back to lang/doclen."""
    left = _match_docs_sql("spark merge")
    right = _match_docs_sql("window")
    return _BM25_CTES + f"""
SELECT l.doc_id AS doc_id, d.lang AS lang, dl.dl AS doclen
FROM ({left}) l
JOIN ({right}) r ON r.doc_id = l.doc_id
JOIN documents d ON d.doc_id = l.doc_id
JOIN dl ON dl.doc_id = l.doc_id"""


def stream_unique_sql() -> str:
    """unique(search, over=lang) oracle: min doc_id per lang."""
    m = _match_docs_sql("window")
    return _BM25_CTES + f"""
SELECT d.lang AS lang, min(s.doc_id) AS doc_id
FROM ({m}) s JOIN documents d ON d.doc_id = s.doc_id
GROUP BY d.lang"""


def stream_nodes_sql() -> str:
    """nodes() oracle: semi-join hop then grouped gather counts."""
    m = _match_docs_sql("window")
    return _BM25_CTES + f"""
SELECT d.lang AS node, count(*) AS "count(*)"
FROM documents d
WHERE d.source IN (
  SELECT DISTINCT i.source FROM documents i
  JOIN ({m}) mm ON mm.doc_id = i.doc_id
)
GROUP BY d.lang"""


def analysis_tokens_sql() -> str:
    """Analysis-handler oracle: ordered token stream of the pinned docs
    under the same tokenization (zipped unnest + subscripts)."""
    from solr_indexer_ray.contract import ANALYZE_DOCS

    ids = ", ".join(str(d) for d in ANALYZE_DOCS)
    return f"""
SELECT doc_id, generate_subscripts(toks, 1) - 1 AS position,
       unnest(toks) AS term
FROM (
  SELECT doc_id, {SQL_TOKS} AS toks FROM documents
  WHERE doc_id IN ({ids})
)"""


def stats_percentiles_sql() -> str:
    """Percentiles oracle: ``quantile_cont`` at each point over the
    match set's doclen values (linear interpolation — the same
    definition the engine's exact histogram percentiles use)."""
    from solr_indexer_ray.contract import PCT_POINTS

    blocks = []
    plist = ", ".join(repr(float(p)) for p in PCT_POINTS)
    qlist = ", ".join(
        f"quantile_cont(v, {float(p) / 100.0!r})" for p in PCT_POINTS
    )
    for q, fld in STATS_CASES:
        case = f"{q}|{fld}".replace("'", "''")
        m = (f"(SELECT dl.dl AS v FROM dl "
             f"JOIN ({_match_docs_sql(q)}) USING (doc_id))")
        blocks.append(f"""
SELECT '{case}' AS "case", p, round(v, 6) AS value FROM (
  SELECT unnest([{plist}]) AS p, unnest([{qlist}]) AS v
  FROM {m}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def grouped_sql() -> str:
    """Grouping oracle: per-doc rounded BM25 over the match set, then
    row_number within group (score_r desc, doc_id) for position and
    dense group ranking by each group's best (score_r, doc_id)."""
    blocks = []
    for q, fld, kg, gl in GROUP_CASES:
        case = f"{q}|{fld}".replace("'", "''")
        src = _FACET_SRC[fld]
        scored = f"""
    SELECT d.{src} AS grp, s.doc_id AS doc_id, s.score_r AS score_r
    FROM ({_scored_match_sql(q)}) s JOIN documents d ON d.doc_id = s.doc_id"""
        blocks.append(f"""
SELECT '{case}' AS "case", grp AS "group", group_rank, position, doc_id,
       score_r
FROM (
  SELECT grp, doc_id, score_r,
    row_number() OVER (PARTITION BY grp ORDER BY score_r DESC, doc_id) - 1
      AS position,
    dense_rank() OVER (ORDER BY best_s DESC, best_d) - 1 AS group_rank
  FROM (
    SELECT grp, doc_id, score_r,
      max(score_r) OVER (PARTITION BY grp) AS best_s,
      first_value(doc_id) OVER (
        PARTITION BY grp ORDER BY score_r DESC, doc_id
      ) AS best_d
    FROM ({scored})
  )
  QUALIFY position < {gl}
)
WHERE group_rank < {kg}""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


_EARTH_R = "CAST(6371.0087714150598 AS DOUBLE)"  # Solr mean earth radius;
#: cast keeps DuckDB from parsing the literal as DECIMAL (overflow)


def geofilt_matches_sql() -> str:
    """Point-distance oracle: recompute the synthetic lat/lon columns
    from doc_id arithmetic and apply the same haversine (geofilt) /
    wrapped-rectangle (bbox) predicates the engine evaluates."""
    blocks = []
    for kind, plat, plon, d in GEOFILT_CASES:
        case = f"{kind}|{plat},{plon}|{d}"
        if kind == "geofilt":
            pred = f"""
2 * {_EARTH_R} * asin(sqrt(least(1.0,
    pow(sin(radians(lat - {plat!r}) / 2), 2)
    + cos(radians({plat!r})) * cos(radians(lat))
      * pow(sin(radians(lon - {plon!r}) / 2), 2)))) <= {d!r}"""
        else:  # bbox: circumscribing rectangle, dateline-wrapped lon
            pred = f"""
abs(lat - {plat!r}) <= degrees({d!r} / {_EARTH_R})
AND abs(((lon - {plon!r} + 540.0) % 360.0) - 180.0)
    <= degrees({d!r} / ({_EARTH_R} * cos(radians({plat!r}))))"""
        blocks.append(f"""
SELECT '{case}' AS query, doc_id FROM (
  SELECT doc_id,
    ((doc_id * 37) % 1700) / 10.0 - 85.0 AS lat,
    ((doc_id * 73) % 3600) / 10.0 - 180.0 AS lon
  FROM documents
) WHERE {pred}""")
    return "\nUNION ALL\n".join(blocks)


def join_matches_sql() -> str:
    """Join oracle: semi-join the to-column against the DISTINCT
    from-column values of the inner query's match set."""
    blocks = []
    for q, ff, ft in JOIN_CASES:
        case = f"{q}|{ff}|{ft}".replace("'", "''")
        fsrc, tsrc = _FACET_SRC[ff], _FACET_SRC[ft]
        blocks.append(f"""
SELECT '{case}' AS query, d.doc_id AS doc_id
FROM documents d
WHERE d.{tsrc} IN (
  SELECT DISTINCT i.{fsrc} FROM documents i
  JOIN ({_scored_match_sql(q)}) s ON s.doc_id = i.doc_id
  WHERE i.{fsrc} IS NOT NULL
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def rerank_topk_sql() -> str:
    """ReRank oracle: main ranking (rounded BM25, row_number), top-N
    window LEFT-JOINed with the rerank query's rounded scores and
    re-sorted by the combined score, tail appended in original order."""
    blocks = []
    for q, rq, k, n, w in RERANK_CASES:
        case = f"{q}|{rq}".replace("'", "''")
        lim = max(n, k)
        blocks.append(f"""
SELECT '{case}' AS query, rn - 1 AS rank, doc_id, score_c AS score_r
FROM (
  SELECT doc_id, score_c,
    row_number() OVER (
      ORDER BY seg,
        CASE WHEN seg = 0 THEN -score_c ELSE 0 END,
        CASE WHEN seg = 0 THEN doc_id ELSE pos END
    ) AS rn
  FROM (
    SELECT 0 AS seg, m.doc_id,
           m.score_r + {float(w)!r} * coalesce(r.score_r, 0) AS score_c,
           CAST(0 AS BIGINT) AS pos
    FROM (
      SELECT doc_id, score_r,
        row_number() OVER (ORDER BY score_r DESC, doc_id) AS pos
      FROM ({_scored_match_sql(q)})
    ) m LEFT JOIN ({_scored_match_sql(rq)}) r USING (doc_id)
    WHERE m.pos <= {n}
    UNION ALL
    SELECT 1, doc_id, score_r, pos FROM (
      SELECT doc_id, score_r,
        row_number() OVER (ORDER BY score_r DESC, doc_id) AS pos
      FROM ({_scored_match_sql(q)})
    ) WHERE pos > {n} AND pos <= {lim}
  )
)
WHERE rn <= {k}""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def blockjoin_matches_sql() -> str:
    """Block-join oracle: parent/child columns recompute from doc_id
    arithmetic (parent iff doc_id % 5 = 0; child pref = the preceding
    parent's key) and the hop is a plain semi-join."""
    from solr_indexer_ray.contract import BLOCKJOIN_CASES

    blocks = []
    for kind, q in BLOCKJOIN_CASES:
        case = f"{kind}|{q}".replace("'", "''")
        m = _match_docs_sql(q)
        if kind == "parent":
            body = f"""
SELECT '{case}' AS query, d.doc_id AS doc_id
FROM documents d
WHERE d.doc_id % 5 = 0 AND d.doc_id IN (
  SELECT (i.doc_id // 5) * 5 FROM documents i
  JOIN ({m}) mm ON mm.doc_id = i.doc_id
  WHERE i.doc_id % 5 <> 0
)"""
        else:
            body = f"""
SELECT '{case}' AS query, d.doc_id AS doc_id
FROM documents d
WHERE d.doc_id % 5 <> 0 AND (d.doc_id // 5) * 5 IN (
  SELECT p.doc_id FROM documents p
  JOIN ({m}) mm ON mm.doc_id = p.doc_id
  WHERE p.doc_id % 5 = 0
)"""
        blocks.append(body)
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def date_range_facets_sql() -> str:
    """Date-range facet oracle: mtime recomputes from doc_id arithmetic
    (base + doc_id hours); fixed gaps bucket by integer division over
    epoch microseconds, calendar gaps (+NMONTHS/+NYEARS, clamp-free
    day-1 starts) by DuckDB interval arithmetic; zero buckets via
    generate_series."""
    import numpy as np

    from solr_indexer_ray.contract import DATE_RANGE_FACET_CASES
    from solr_indexer_ray.pipelines.search import (
        _DATEMATH_CAL_GAP,
        _date_bucket_bounds,
        _parse_datemath_gap_us,
    )

    blocks = []
    mt = ("epoch_us(TIMESTAMP '2024-01-01 00:00:00' "
          "+ to_hours(s.doc_id))")
    for q, start, end, gap in DATE_RANGE_FACET_CASES:
        case = f"{q}|{start}|{gap}".replace("'", "''")
        s_us = int(np.datetime64(start.rstrip("Z"), "us")
                   .astype(np.int64))
        e_us = int(np.datetime64(end.rstrip("Z"), "us")
                   .astype(np.int64))
        m = _match_docs_sql(q)
        cal = _DATEMATH_CAL_GAP.match(str(gap).strip().upper())
        if cal:
            months = int(cal.group(1)) * (
                12 if cal.group(2).startswith("Y") else 1)
            n = len(_date_bucket_bounds(s_us, e_us, gap)) - 1
            ts0 = f"make_timestamp({s_us})"
            lo = f"epoch_us({ts0} + to_months((b.i * {months})::INT))"
            hi = (f"epoch_us({ts0} "
                  f"+ to_months(((b.i + 1) * {months})::INT))")
            bucket_sel = f"""
SELECT '{case}' AS "case",
  strftime({ts0} + to_months((b.i * {months})::INT),
           '%Y-%m-%dT%H:%M:%SZ') AS bucket,
  (SELECT count(*) FROM ({m}) s
   WHERE {mt} >= {lo} AND {mt} < {hi} AND {mt} < {e_us}) AS count
FROM (SELECT unnest(generate_series(0, {n - 1})) AS i) b"""
        else:
            g_us = _parse_datemath_gap_us(gap)
            n = (e_us - s_us + g_us - 1) // g_us
            bucket_sel = f"""
SELECT '{case}' AS "case",
  strftime(make_timestamp({s_us} + b.i * {g_us}),
           '%Y-%m-%dT%H:%M:%SZ') AS bucket,
  (SELECT count(*) FROM ({m}) s
   WHERE ({mt} - {s_us}) // {g_us} = b.i
     AND {mt} >= {s_us} AND {mt} < {e_us}) AS count
FROM (SELECT unnest(generate_series(0, {n - 1})) AS i) b"""
        blocks.append(f"""{bucket_sel}
UNION ALL
SELECT '{case}', '(before)',
  (SELECT count(*) FROM ({m}) s WHERE {mt} < {s_us})
UNION ALL
SELECT '{case}', '(after)',
  (SELECT count(*) FROM ({m}) s WHERE {mt} >= {e_us})""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def autocomplete_sql() -> str:
    """Autocomplete oracle: prefix scan ranked by df, or by the
    context-restricted distinct-doc count under a filter."""
    from solr_indexer_ray.contract import AUTOCOMPLETE_CASES

    blocks = []
    for prefix, cfq, k in AUTOCOMPLETE_CASES:
        case = f"{prefix}|{cfq}"
        if cfq is None:
            inner = f"""
  SELECT term, df AS weight FROM df WHERE term LIKE '{prefix}%'"""
        else:
            fld, val = cfq.split(":", 1)
            src = {"lang": "lang", "repo": "source"}[fld]
            inner = f"""
  SELECT t.term AS term, count(DISTINCT t.doc_id) AS weight
  FROM tf t JOIN documents d ON d.doc_id = t.doc_id
  WHERE t.term LIKE '{prefix}%' AND d.{src} = '{val}'
  GROUP BY t.term"""
        blocks.append(f"""
SELECT '{case}' AS "case", term, weight FROM (
  SELECT term, weight,
    row_number() OVER (ORDER BY weight DESC, term) AS rn
  FROM ({inner}) WHERE weight > 0
) WHERE rn <= {k}""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def collations_sql() -> str:
    """Collation oracle: per misspelled word the suggester's argmin
    (levenshtein asc, df desc, term asc) substitutes into the query;
    hits = distinct docs matching any corrected term (OR semantics)."""
    blocks = []
    for q in ["spak merge", "windwo batch", "spark qqqqzzzz"]:
        w1, w2 = q.split()
        qq = q.replace("'", "''")

        def best(w):
            return f"""(
  SELECT term FROM df
  WHERE levenshtein(term, '{w}') BETWEEN 1 AND 2
  ORDER BY levenshtein(term, '{w}'), df DESC, term LIMIT 1)"""

        def fixed(w):
            return (f"coalesce(CASE WHEN EXISTS "
                    f"(SELECT 1 FROM df WHERE term = '{w}') "
                    f"THEN '{w}' ELSE {best(w)} END, '{w}')")

        blocks.append(f"""
SELECT '{qq}' AS query,
  CASE WHEN {fixed(w1)} = '{w1}' AND {fixed(w2)} = '{w2}'
       THEN NULL
       ELSE {fixed(w1)} || ' ' || {fixed(w2)} END AS collation,
  (SELECT count(DISTINCT doc_id) FROM tf
   WHERE term IN ({fixed(w1)}, {fixed(w2)})) AS hits""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def collapse_topk_sql() -> str:
    """Field-collapsing oracle: per-doc rounded BM25 over the match set,
    head = row_number 1 within each group (score_r desc, doc_id), heads
    dense-ranked by their (best score, head doc id); rows with position
    <= expand_limit are the head + its expanded members."""
    blocks = []
    for q, fld, k, el in COLLAPSE_CASES:
        case = f"{q}|{fld}".replace("'", "''")
        src = _FACET_SRC[fld]
        scored = f"""
    SELECT d.{src} AS grp, s.doc_id AS doc_id, s.score_r AS score_r
    FROM ({_scored_match_sql(q)}) s JOIN documents d ON d.doc_id = s.doc_id
    WHERE d.{src} IS NOT NULL"""
        blocks.append(f"""
SELECT '{case}' AS "case", rank, position, doc_id, score_r, grp AS "group"
FROM (
  SELECT grp, doc_id, score_r,
    row_number() OVER (PARTITION BY grp ORDER BY score_r DESC, doc_id) - 1
      AS position,
    dense_rank() OVER (ORDER BY best_s DESC, best_d) - 1 AS rank
  FROM (
    SELECT grp, doc_id, score_r,
      max(score_r) OVER (PARTITION BY grp) AS best_s,
      first_value(doc_id) OVER (
        PARTITION BY grp ORDER BY score_r DESC, doc_id
      ) AS best_d
    FROM ({scored})
  )
  QUALIFY position <= {el}
)
WHERE rank < {k}""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def _scored_match_sql(q: str) -> str:
    """Per-doc rounded BM25 score over the FULL match set of ``q`` (no
    top-k) — shared by the grouping oracle."""
    parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
    terms = sorted(set(parsed.terms))
    phrases = sorted(map(tuple, parsed.phrases))
    kexpr = f"{K1} * (1 - {B} + {B} * q.dlq / st.avgdl)"
    branches = []
    if terms:
        branches.append(_term_branch_sql(parsed, terms, kexpr))
    for pi, ph in enumerate(phrases):
        b = parsed.phrase_boosts.get(ph)
        wexpr = (
            f"({_phrase_w_expr(ph)} * {float(b)!r})" if b is not None
            else _phrase_w_expr(ph)
        )
        branches.append(f"""
    SELECT p.doc_id AS doc_id, 'p:{pi}' AS clause,
      {wexpr} * (p.ptf / (p.ptf + {kexpr})) AS contrib
    FROM (SELECT doc_id, {_phrase_ptf_expr(ph)} AS ptf FROM toks) p
    JOIN dlq q ON q.doc_id = p.doc_id CROSS JOIN stats st
    WHERE p.ptf > 0""")
    for wi, pre in enumerate(parsed.prefixes):
        # constant-score wildcard: the clause weight (1.0 or its boost)
        # per doc containing any expansion
        gw = float(parsed.prefix_boosts.get(pre, 1.0))
        branches.append(f"""
    SELECT DISTINCT t.doc_id AS doc_id, 'w:{wi}' AS clause, {gw!r} AS contrib
    FROM tf t WHERE t.term LIKE '{pre}%'""")
    conds = ["1=1"] + _range_conds(parsed)
    for fld, val in sorted(set(parsed.filters)):
        conds.append(
            f"c.doc_id IN (SELECT doc_id FROM documents WHERE {_fcond(fld, val)})"
        )
    n_clauses = len(terms) + len(phrases) + len(parsed.prefixes)
    having = (
        f"HAVING count(DISTINCT c.clause) = {n_clauses}"
        if parsed.conjunctive else ""
    )
    union = "\n    UNION ALL\n".join(branches)
    return f"""SELECT c.doc_id AS doc_id, round(sum(c.contrib), 4) AS score_r
  FROM ({union}
  ) c
  WHERE {' AND '.join(conds)}
  GROUP BY c.doc_id
  {having}"""


def suggest_sql() -> str:
    blocks = []
    for w in SUGGEST_WORDS:
        blocks.append(f"""
SELECT '{w}' AS word, rank, term, distance, df FROM (
  SELECT term, df, levenshtein(term, '{w}') AS distance,
    row_number() OVER (
      ORDER BY levenshtein(term, '{w}'), df DESC, term
    ) - 1 AS rank
  FROM df
  WHERE levenshtein(term, '{w}') <= 2 AND term <> '{w}'
  QUALIFY rank < 5
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def range_facets_sql() -> str:
    blocks = []
    for q, start, end, gap in RANGE_FACET_CASES:
        case = f"{q}|{start}|{end}|{gap}".replace("'", "''")
        n_buckets = (end - start + gap - 1) // gap
        blocks.append(f"""
SELECT '{case}' AS "case", bucket, count FROM (
  SELECT b.bucket AS bucket, count(m.doc_id) AS count
  FROM (SELECT {start} + {gap} * unnest(range({n_buckets})) AS bucket) b
  LEFT JOIN (
    SELECT dl.dl AS v, dl.doc_id FROM dl
    JOIN ({_match_docs_sql(q)}) USING (doc_id)
  ) m ON m.v >= b.bucket AND m.v < least(b.bucket + {gap}, {end})
  GROUP BY b.bucket
  UNION ALL
  SELECT -1, count(*) FROM (
    SELECT dl.dl AS v FROM dl JOIN ({_match_docs_sql(q)}) USING (doc_id)
  ) WHERE v < {start}
  UNION ALL
  SELECT -2, count(*) FROM (
    SELECT dl.dl AS v FROM dl JOIN ({_match_docs_sql(q)}) USING (doc_id)
  ) WHERE v >= {end}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def pivot_facets_sql() -> str:
    blocks = []
    for q, f1, f2 in PIVOT_CASES:
        case = f"{q}|{f1}|{f2}".replace("'", "''")
        c1 = _FACET_SRC[f1]
        c2 = _FACET_SRC[f2]
        blocks.append(f"""
SELECT '{case}' AS "case", d.{c1} AS v1, d.{c2} AS v2,
       count(*)::BIGINT AS count
FROM documents d JOIN ({_match_docs_sql(q)}) m ON m.doc_id = d.doc_id
GROUP BY 2, 3
HAVING count(*) >= 1""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


def synonym_topk_sql() -> str:
    """SynonymQuery oracle: mapped terms contribute as ONE clause with
    tf summed over the group and df = max over the group; unmapped terms
    use the standard branch."""
    kexpr = f"{K1} * (1 - {B} + {B} * q.dlq / st.avgdl)"
    blocks = []
    for q in SYN_QUERIES:
        parsed = parse_query(q, simple_analyzer, range_fields=SQL_RANGE_FIELDS)
        terms = sorted(set(parsed.terms))
        branches = []
        plain = [t for t in terms if t not in SYN_MAP]
        if plain:
            branches.append(_term_branch_sql(parsed, plain, kexpr))
        for t in (t for t in terms if t in SYN_MAP):
            group = sorted({t, *SYN_MAP[t]})
            boost = parsed.boosts.get(t)
            mult = f" * {float(boost)!r}" if boost is not None else ""
            branches.append(f"""
    SELECT g.doc_id AS doc_id, 'syn:{t}' AS clause,
      (ln(1 + (st.n_docs - bd.df + 0.5) / (bd.df + 0.5))
      * (g.tf / (g.tf + {kexpr}))){mult} AS contrib
    FROM (
      SELECT doc_id, sum(tf) AS tf FROM tf
      WHERE term IN ({_sql_list(group)}) GROUP BY doc_id
    ) g
    JOIN dlq q ON q.doc_id = g.doc_id
    CROSS JOIN stats st
    CROSS JOIN (
      SELECT max(df) AS df FROM df WHERE term IN ({_sql_list(group)})
    ) bd""")
        conds = ["1=1"]
        for fld, val in sorted(set(parsed.filters)):
            conds.append(
                f"c.doc_id IN (SELECT doc_id FROM documents WHERE {_fcond(fld, val)})"
            )
        # a prohibited term negates its whole synonym group
        neg = {m for t in _neg(parsed).terms for m in (t, *SYN_MAP.get(t, ()))}
        if neg:
            conds.append(
                "c.doc_id NOT IN (SELECT doc_id FROM tf WHERE term IN "
                f"({_sql_list(sorted(neg))}))"
            )
        having = (
            f"HAVING count(DISTINCT c.clause) = {len(terms)}"
            if parsed.conjunctive else ""
        )
        qq = q.replace("'", "''")
        union = "\n    UNION ALL\n".join(branches)
        blocks.append(f"""
SELECT '{qq}' AS query, doc_id, score_r FROM (
  SELECT c.doc_id AS doc_id, round(sum(c.contrib), 4) AS score_r
  FROM ({union}
  ) c
  WHERE {' AND '.join(conds)}
  GROUP BY c.doc_id
  {having}
  QUALIFY row_number() OVER (ORDER BY score_r DESC, c.doc_id) <= {BM25_K}
)""")
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


# --------------------------------------------------------------------- #
# text / stats / dedup
# --------------------------------------------------------------------- #
TERM_DF_SQL = f"""
SELECT term, count(*)::BIGINT AS df
FROM (SELECT DISTINCT doc_id, unnest({SQL_TOKS}) AS term FROM documents)
GROUP BY term
"""

DOC_STATS_SQL = f"""
WITH dl AS (SELECT len({SQL_TOKS}) AS dl FROM documents)
SELECT count(*)::BIGINT AS n_docs, sum(dl)::BIGINT AS sum_dl,
       sum(dl)*1.0/count(*) AS avgdl
FROM dl
"""

TOP_TERMS_SQL = f"""
SELECT term, count(*)::BIGINT AS df
FROM (SELECT DISTINCT doc_id, unnest({SQL_TOKS}) AS term FROM documents)
GROUP BY term
ORDER BY df DESC, term
LIMIT 20
"""

DOC_SHA256_SQL = "SELECT doc_id, sha256(coalesce(text, '')) AS sha256 FROM documents"


def kmv_sample_sql() -> str:
    from solr_indexer_ray.contract import KMV_K

    return f"""
SELECT sha256(v) AS h, v AS value FROM (
  SELECT DISTINCT CAST(o_custkey AS VARCHAR) AS v FROM orders)
ORDER BY h LIMIT {KMV_K}"""


def heavy_hitters_sql() -> str:
    from solr_indexer_ray.contract import HH_K

    return f"""
SELECT event_type AS value, count(*) AS n
FROM events WHERE event_type IS NOT NULL
GROUP BY event_type
HAVING count(*) > (SELECT count(event_type) FROM events) / ({HH_K} + 1.0)
ORDER BY n DESC, value"""


def quantile_sketch_sql() -> str:
    from solr_indexer_ray.contract import (
        QUANTILE_BINS,
        QUANTILE_HI,
        QUANTILE_LO,
        QUANTILE_QS,
    )

    width = (QUANTILE_HI - QUANTILE_LO) / QUANTILE_BINS
    qvals = ", ".join(f"({q})" for q in QUANTILE_QS)
    return f"""
WITH h AS (
  SELECT least(greatest(CAST(floor((CAST(l_quantity AS DOUBLE) - {QUANTILE_LO})
           / {width}) AS INT), 0), {QUANTILE_BINS - 1}) AS b,
         count(*) AS c
  FROM lineitem WHERE l_quantity IS NOT NULL GROUP BY 1),
cum AS (SELECT b, sum(c) OVER (ORDER BY b) AS cc FROM h),
tot AS (SELECT sum(c) AS n FROM h),
qs(q) AS (VALUES {qvals})
SELECT CAST(q AS DOUBLE) AS q,
       {QUANTILE_LO} + (
         (SELECT min(b) FROM cum, tot WHERE cc >= q * tot.n) + 1
       ) * {width} AS quantile
FROM qs"""


def pii_scrub_sql() -> str:
    """PII counts + scrubbed-text sha256.  The patterns are shared RE2
    (pyarrow's and DuckDB's regex engine), so the redaction is
    byte-identical on both sides."""
    from solr_indexer_ray.stages.pii import PII_PATTERNS

    counts = ",\n  ".join(
        "len(regexp_extract_all(coalesce(text, ''), "
        f"'{pat.replace(chr(39), chr(39) * 2)}')) AS n_{name}"
        for name, pat, _repl in PII_PATTERNS
    )
    expr = "coalesce(text, '')"
    for _name, pat, repl in PII_PATTERNS:
        p = pat.replace("'", "''")
        r = repl.replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{r}', 'g')"
    return (f"SELECT doc_id,\n  {counts},\n  sha256({expr}) AS scrubbed_sha "
            "FROM documents")

_MARKER_COLS = ",\n    ".join(
    f"len(list_intersect(list_distinct(toks), [{_sql_list(LANG_MARKERS[lang])}]))"
    f" AS h_{lang}"
    for lang in sorted(LANG_MARKERS)
)

TEXT_QUALITY_SQL = f"""
WITH t AS (SELECT doc_id, text, {SQL_TOKS} AS toks FROM documents),
s AS (
  SELECT doc_id,
    len(toks)::BIGINT AS n_tokens,
    CASE WHEN length(text) = 0 THEN 0.0
      ELSE (length(text) - length(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g')))
           * 1.0 / length(text) END AS punct_ratio,
    CASE WHEN len(toks) = 0 THEN 0.0
      ELSE len(list_filter(toks, x -> x IN ({_sql_list(STOPWORDS)})))
           * 1.0 / len(toks) END AS stopword_ratio,
    {_MARKER_COLS}
  FROM t
)
SELECT doc_id, n_tokens, punct_ratio, stopword_ratio,
  (CASE WHEN n_tokens BETWEEN 10 AND 1000 THEN 0.5 ELSE 0.0 END
   + CASE WHEN punct_ratio < 0.1 THEN 0.25 ELSE 0.0 END
   + CASE WHEN stopword_ratio BETWEEN 0.05 AND 0.6 THEN 0.25 ELSE 0.0 END
  ) AS quality_score,
  CASE WHEN greatest(h_de, h_en, h_es, h_fr) = 0 THEN 'und'
       WHEN h_de >= h_en AND h_de >= h_es AND h_de >= h_fr THEN 'de'
       WHEN h_en >= h_es AND h_en >= h_fr THEN 'en'
       WHEN h_es >= h_fr THEN 'es'
       ELSE 'fr' END AS lang_guess
FROM s
"""

LANG_COUNTS_SQL = "SELECT lang, count(*)::BIGINT AS n_docs FROM documents GROUP BY lang"

EXACT_DEDUP_SQL = """
SELECT sha256(coalesce(text, '')) AS sha256, min(doc_id)::BIGINT AS doc_id
FROM documents GROUP BY 1
"""

UPSERT_LATEST_SQL = """
SELECT source, lang, max(doc_id)::BIGINT AS doc_id
FROM documents GROUP BY source, lang
"""

DOC_GET_SQL = "SELECT * FROM documents WHERE doc_id = 42"

#: Solr atomic-update verbs (contract.q_atomic_updates): the final overlay
#: state after three verb-composing update calls, reproduced relationally —
#: views = inc(doc_id%7+1) then inc(10) on evens; tags = add(lang) then
#: add-distinct(['x', lang]) then remove('x') on doc_id%3==0; tags2 only on
#: doc 5 = add(['aa1','keep','aa2']) then removeregex('aa[0-9]'); status =
#: set('reviewed') on evens then set(null) on doc 4.
ATOMIC_UPDATES_SQL = """
SELECT doc_id,
       (doc_id % 7 + 1) + CASE WHEN doc_id % 2 = 0 THEN 10 ELSE 0 END AS views,
       CASE WHEN doc_id % 3 = 0 THEN lang ELSE lang || ',x' END AS tags,
       CASE WHEN doc_id = 5 THEN 'keep' END AS tags2,
       CASE WHEN doc_id % 2 = 0 AND doc_id <> 4 THEN 'reviewed' END AS status
FROM documents WHERE doc_id < 20 ORDER BY doc_id
"""



#: shared shingle/pair CTE body for the exact-Jaccard oracles: the
#: shingling rules (empty/short-doc handling, distinct trigrams) and the
#: 0.5 threshold live HERE once — both the pair oracle and the survivor
#: oracle compose it
_SHINGLE_PAIR_CTES = f"""t AS (SELECT doc_id, {SQL_TOKS} AS toks FROM documents),
sh AS (
  SELECT doc_id, unnest(
    CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
         WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
         ELSE list_distinct(list_transform(
           generate_series(1, len(toks) - 2),
           i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
    END) AS shingle
  FROM t
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
cpairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
jp AS (
  SELECT id_a, id_b, inter * 1.0 / (ca.n + cb.n - inter) AS similarity
  FROM cpairs
  JOIN cnt ca ON ca.doc_id = id_a
  JOIN cnt cb ON cb.doc_id = id_b
  WHERE inter * 1.0 / (ca.n + cb.n - inter) >= 0.5
)"""

NGRAM_JACCARD_SQL = "WITH " + _SHINGLE_PAIR_CTES + """
SELECT id_a, id_b, similarity FROM jp
"""

#: survivors of near-dup collapse: recursive transitive closure over the
#: symmetric Jaccard pair graph; a doc is dropped iff some REACHABLE doc
#: has a smaller id (the engine's min-id-per-component union-find rule)
JACCARD_SURVIVORS_SQL = "WITH RECURSIVE " + _SHINGLE_PAIR_CTES + """,
edges AS (
  SELECT id_a AS a, id_b AS b FROM jp
  UNION ALL SELECT id_b, id_a FROM jp
),
reach(a, b) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (
  SELECT a FROM reach GROUP BY a HAVING min(b) < a
)
"""

DELETE_BY_QUERY_SQL = f"""
SELECT doc_id FROM documents
WHERE doc_id NOT IN (
  SELECT doc_id FROM (SELECT doc_id, unnest({SQL_TOKS}) AS term FROM documents)
  WHERE term = 'spark'
)
"""

# multimodal decode metadata: blobs are MAGIC(8) + w:uint32 + h:uint32 +
# utf8(text); the decoded header is recomputable from the text column
MULTIMODAL_DECODE_META_SQL = """
SELECT doc_id AS media_id,
  least(strlen(text), 4096)::INT AS width,
  7::INT AS height,
  (16 + strlen(text))::BIGINT AS n_bytes
FROM documents
"""

def facet_query_sql() -> str:
    """facet.query counts: main match set (term OR) intersected with each
    sub-query's match set (terms = docs with any; filters/ranges on the
    docs columns)."""
    from solr_indexer_ray.contract import (
        FACET_QUERY_MAIN,
        FACET_QUERY_SUBS,
    )

    main_terms = sorted(set(parse_query(
        FACET_QUERY_MAIN, simple_analyzer,
        range_fields=SQL_RANGE_FIELDS).terms))
    main = (
        "SELECT DISTINCT doc_id FROM tf WHERE term IN "
        f"({_sql_list(main_terms)})"
    )
    blocks = []
    for sub in FACET_QUERY_SUBS:
        p = parse_query(sub, simple_analyzer,
                        range_fields=SQL_RANGE_FIELDS)
        conds = [f"doc_id IN ({main})"]
        if p.terms:
            conds.append(
                "doc_id IN (SELECT DISTINCT doc_id FROM tf WHERE term IN "
                f"({_sql_list(sorted(set(p.terms)))}))"
            )
        for fld, val in sorted(set(p.filters)):
            conds.append(
                "doc_id IN (SELECT doc_id FROM documents WHERE "
                f"{fld} = '{val}')"
            )
        for rf in p.range_filters:
            lo, hi = rf.bounds()
            rc = []
            if lo is not None:
                rc.append(f"dl >{'=' if rf.lo_incl else ''} {lo}")
            if hi is not None:
                rc.append(f"dl <{'=' if rf.hi_incl else ''} {hi}")
            conds.append(
                "doc_id IN (SELECT doc_id FROM dl WHERE "
                + " AND ".join(rc) + ")"
            )
        ss = sub.replace("'", "''")
        blocks.append(
            f"SELECT '{ss}' AS facet_query, count(*) AS n FROM "
            f"(SELECT doc_id FROM dl WHERE {' AND '.join(conds)})"
        )
    return _BM25_CTES + "\nUNION ALL\n".join(blocks)


REPETITION_STATS_SQL = _BM25_CTES + """
SELECT d.doc_id AS doc_id,
  CASE WHEN d.dl = 0 THEN 0.0
       ELSE round(1 - a.nd * 1.0 / d.dl, 6) END AS dup_frac,
  CASE WHEN d.dl = 0 THEN 0.0
       ELSE round(a.mx * 1.0 / d.dl, 6) END AS top_frac
FROM dl d
LEFT JOIN (
  SELECT doc_id, count(*) AS nd, max(tf) AS mx FROM tf GROUP BY doc_id
) a USING (doc_id)
"""


def decontaminated_sql() -> str:
    """Benchmark n-gram overlap counts: DISTINCT string n-grams on both
    sides (short docs contribute their whole token string — the
    ``shingle_hashes`` rule), benchmark = doc_id < DECON_BENCH_DOCS."""
    from solr_indexer_ray.contract import DECON_BENCH_DOCS, DECON_N

    n = DECON_N
    return f"""
WITH toks AS (
  SELECT doc_id, {SQL_TOKS} AS toks FROM documents
),
grams AS (
  SELECT doc_id,
    CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
         WHEN len(toks) < {n} THEN [array_to_string(toks, ' ')]
         ELSE list_distinct(list_transform(
            range(1, len(toks) - {n} + 2),
            i -> array_to_string(list_slice(toks, i, i + {n} - 1), ' ')))
    END AS gs
  FROM toks
),
bench AS (
  SELECT DISTINCT unnest(gs) AS g FROM grams
  WHERE doc_id < {DECON_BENCH_DOCS}
),
cnt AS (
  SELECT e.doc_id, count(*) AS n_matched
  FROM (SELECT doc_id, unnest(gs) AS g FROM grams) e
  JOIN bench b ON e.g = b.g
  GROUP BY e.doc_id
)
SELECT t.doc_id AS doc_id,
  coalesce(c.n_matched, 0) AS n_matched,
  coalesce(c.n_matched, 0) >= 1 AS contaminated
FROM toks t LEFT JOIN cnt c USING (doc_id)
"""


def mixture_sample_sql() -> str:
    """Deterministic mixture sampling: md5(doc_id)-derived uniform vs the
    per-source rate — the exact arithmetic of curation.accept_fraction."""
    from solr_indexer_ray.contract import MIXTURE_RATES

    whens = " ".join(
        f"WHEN '{k}' THEN {v!r}" for k, v in sorted(MIXTURE_RATES.items())
    )
    return f"""
SELECT doc_id, source FROM documents
WHERE ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UINT64
      / 4294967296.0
    < CASE source {whens} ELSE 0.35 END
"""


# --------------------------------------------------------------------- #
# embeddings
# --------------------------------------------------------------------- #
ANN_TOPK_SQL = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding FROM embeddings
  WHERE vec_id < {ANN_N_QUERIES}
)
SELECT query_id, vec_id, similarity FROM (
  SELECT q.query_id, e.vec_id,
    round(list_cosine_similarity(
      q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 4) AS similarity
  FROM q CROSS JOIN embeddings e
)
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY similarity DESC, vec_id) <= {ANN_K}
"""

EMBEDDING_DUPS_SQL = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
  round(list_cosine_similarity(
    a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) AS similarity
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(
    a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) >= 0.45
"""

# --------------------------------------------------------------------- #
# relational machinery
# --------------------------------------------------------------------- #
PARENT_FLAGS_SQL = """
SELECT c_custkey,
  c_custkey IN (SELECT o_custkey FROM orders) AS is_parent
FROM customer
"""

UNRESOLVED_REFS_SQL = """
SELECT DISTINCT o_custkey FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer)
"""

PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
  round(sum(l_quantity), 2) AS sum_qty,
  round(sum(l_extendedprice), 2) AS sum_price,
  round(avg(l_discount), 6) AS avg_disc,
  count(*)::BIGINT AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""

TOP_CUSTOMERS_SQL = """
WITH spend AS (
  SELECT o_custkey, round(sum(o_totalprice), 2) AS total_spend
  FROM orders GROUP BY o_custkey
)
SELECT o_custkey AS c_custkey, c_name, total_spend
FROM spend LEFT JOIN customer ON c_custkey = o_custkey
QUALIFY row_number() OVER (ORDER BY total_spend DESC, o_custkey) <= 10
"""

EVENTS_PROPS_SQL = """
SELECT event_id, json_extract(props, '$.k')::BIGINT AS k FROM events
"""

USER_SESSIONS_SQL = """
SELECT user_id, count(*)::BIGINT AS n_events,
  min(ts) AS first_ts, max(ts) AS last_ts,
  round(sum(value), 4) AS sum_value
FROM events GROUP BY user_id
"""

SESSION_WINDOWS_SQL = """
WITH e AS (
  SELECT user_id, ts,
    lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev
  FROM events
),
s AS (
  SELECT user_id, ts,
    sum(CASE WHEN prev IS NULL OR ts - prev > INTERVAL '30 minutes'
        THEN 1 ELSE 0 END)
      OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING)
      AS session_id
  FROM e
)
SELECT user_id, session_id::BIGINT AS session_id,
  count(*)::BIGINT AS n_events,
  min(ts) AS session_start, max(ts) AS session_end
FROM s GROUP BY user_id, session_id
"""

EVENTS_WINDOW_SQL = """
SELECT event_type,
  time_bucket(INTERVAL '5 minutes', ts) AS window_start,
  count(*)::BIGINT AS n,
  round(sum(value), 4) AS sum_value
FROM events GROUP BY event_type, window_start
"""


#: FNV-1a 64-bit per token (per-byte xor/multiply mod 2^64, recursive over
#: chars — tokens are pure [a-z0-9] so ord() == the utf-8 byte), then the
#: order-sensitive rolling fingerprint sum(fnv_i % M61 * B^i) mod M61
#: (functions/textstats.py fingerprint/fnv1a64) — recursive over token
#: positions.  HUGEINT holds every intermediate product (< 2^122).
FINGERPRINTS_SQL = """
WITH RECURSIVE arrs AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS arr
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(arr) AS tok,
         generate_subscripts(arr, 1) - 1 AS i
  FROM arrs
),
vocab AS (SELECT DISTINCT tok FROM toks),
fnv AS (
  SELECT tok, CAST(1 AS BIGINT) AS j,
         CAST('14695981039346656037' AS HUGEINT) AS h
  FROM vocab
  UNION ALL
  SELECT tok, j + 1,
    (CAST(xor(CAST(h AS UBIGINT), CAST(ord(substr(tok, j, 1)) AS UBIGINT))
          AS HUGEINT) * 1099511628211)
      % CAST('18446744073709551616' AS HUGEINT)
  FROM fnv WHERE j <= length(tok)
),
tok_h AS (
  SELECT tok, h FROM fnv WHERE j = length(tok) + 1
),
ntok AS (
  SELECT d.doc_id, count(t.tok) AS n
  FROM documents d LEFT JOIN toks t ON t.doc_id = d.doc_id
  GROUP BY d.doc_id
),
roll AS (
  SELECT doc_id, CAST(0 AS BIGINT) AS i,
         CAST(0 AS HUGEINT) AS h, CAST(1 AS HUGEINT) AS p
  FROM documents
  UNION ALL
  SELECT r.doc_id, r.i + 1,
    (r.h + (f.h % 2305843009213693951) * r.p) % 2305843009213693951,
    (r.p * 1000003) % 2305843009213693951
  FROM roll r
  JOIN toks t ON t.doc_id = r.doc_id AND t.i = r.i
  JOIN tok_h f ON f.tok = t.tok
)
SELECT r.doc_id, CAST(r.h AS BIGINT) AS fingerprint
FROM roll r JOIN ntok n ON n.doc_id = r.doc_id AND r.i = n.n
ORDER BY r.doc_id
"""


#: Frame sampling oracle: videos derive from documents (n_frames =
#: 2+(n_chars%7), w = 3+(doc_id%5), h = 2+(doc_id%4)); sampled indexes
#: are unique(round(linspace(0, n-1, 3))) = {0, mid, n-1} where mid uses
#: numpy round-HALF-EVEN for the (n even) k+0.5 midpoint; per-frame
#: n_bytes = 16-byte FAKEIMG1 header + w*h payload.
MULTIMODAL_FRAMES_SQL = """
WITH v AS (
  SELECT doc_id AS media_id,
         2 + (n_chars % 7) AS n,
         3 + (doc_id % 5) AS w,
         2 + (doc_id % 4) AS h
  FROM documents
),
m AS (
  SELECT media_id, n, w, h,
    CASE WHEN (n - 1) % 2 = 0 THEN (n - 1) // 2
         WHEN ((n - 1) // 2) % 2 = 0 THEN (n - 1) // 2
         ELSE (n - 1) // 2 + 1 END AS mid
  FROM v
),
f AS (
  SELECT media_id, 0 AS frame_index, w, h FROM m
  UNION
  SELECT media_id, mid, w, h FROM m
  UNION
  SELECT media_id, n - 1, w, h FROM m
)
SELECT media_id, CAST(frame_index AS BIGINT) AS frame_index,
       CAST(w AS INT) AS width, CAST(h AS INT) AS height,
       CAST(16 + w * h AS BIGINT) AS n_bytes
FROM f
ORDER BY media_id, frame_index
"""


FL_TRANSFORMERS_SQL = """
SELECT doc_id,
  lang AS meta_lang,
  n_chars AS meta_n,
  '<doc id="' || CAST(doc_id AS VARCHAR) || '"><lang>' || lang
    || '</lang></doc>' AS doc_xml
FROM documents
ORDER BY doc_id
"""


def minhash_dups_sql(num_perm: int = 128, bands: int = 32, n: int = 3,
                     threshold: float = 0.5, clique_cap: int = 64) -> str:
    """Full-value DuckDB oracle for ``q_minhash_dups`` — replays the ENTIRE
    MinHash+LSH pipeline in SQL, bit-for-bit vs the numpy kernels
    (upgrades the contract from rows-only):

    - per-token FNV-1a 64 via the recursive byte loop (as FINGERPRINTS_SQL);
    - positional-polynomial 3-gram shingles with the engine's baked
      ``_shingle_consts`` (uint64 wraparound emulated as HUGEINT % 2^64 —
      each ``h·c`` product < 2^127 fits HUGEINT);
    - exact Mersenne-31 fold (``x % (2^31-1)``), then the 128-permutation
      ``min (a·x+b) mod M31`` signature in BIGINT (operands < 2^31 so
      ``a·x+b < 2^62`` never overflows);
    - LSH band keys: the banded positional mix then the splitmix64
      multiply, split into 32-bit halves so ``mixed·PHI mod 2^64`` stays
      inside HUGEINT (``lo·PHI < 2^96``);
    - bucket candidates grouped by band key with the engine's
      clique-vs-star rule (``c <= clique_cap`` -> all a<b pairs, else
      star around the bucket min), distinct across bands;
    - exact-Jaccard verification over the distinct shingle sets with the
      identical ``union == 0 -> 1.0`` rule and double division.

    The testdata documents all have >= 3 tokens, so the short-doc
    full-tuple shingle branch is not exercised here (it is unit-tested in
    tests/test_functions.py).
    """
    import numpy as np

    from solr_indexer_ray.functions.hashing import (
        _shingle_consts,
        minhash_params,
    )

    c3 = _shingle_consts(n)
    a, b = minhash_params(num_perm, seed=1)
    rows = num_perm // bands
    # same construction as hashing._BAND_C for (bands, rows)
    rng = np.random.default_rng(0xba4d)
    cw = (rng.integers(1, 1 << 63, size=(bands, rows), dtype=np.uint64)
          | np.uint64(1))
    cb = rng.integers(1, 1 << 63, size=bands, dtype=np.uint64)

    perm_vals = ", ".join(
        f"({j}, {int(a[j])}, {int(b[j])})" for j in range(num_perm)
    )
    bw_vals = ", ".join(
        f"({bi}, {j}, {int(cw[bi, j])})"
        for bi in range(bands) for j in range(rows)
    )
    cb_vals = ", ".join(f"({bi}, {int(cb[bi])})" for bi in range(bands))

    w64 = "CAST('18446744073709551616' AS HUGEINT)"  # 2^64
    m31 = 2147483647
    phi = "CAST('11400714819323198485' AS HUGEINT)"  # 0x9e3779b97f4a7c15

    return f"""
WITH RECURSIVE arrs AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS arr
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(arr) AS tok,
         generate_subscripts(arr, 1) - 1 AS i
  FROM arrs
),
vocab AS (SELECT DISTINCT tok FROM toks),
fnv AS (
  SELECT tok, CAST(1 AS BIGINT) AS j,
         CAST('14695981039346656037' AS HUGEINT) AS h
  FROM vocab
  UNION ALL
  SELECT tok, j + 1,
    (CAST(xor(CAST(h AS UBIGINT), CAST(ord(substr(tok, j, 1)) AS UBIGINT))
          AS HUGEINT) * 1099511628211) % {w64}
  FROM fnv WHERE j <= length(tok)
),
tok_h AS (SELECT tok, h FROM fnv WHERE j = length(tok) + 1),
win AS (
  SELECT t0.doc_id,
    ((f0.h * {int(c3[0])}) % {w64} + (f1.h * {int(c3[1])}) % {w64}
     + (f2.h * {int(c3[2])}) % {w64}) % {w64} AS sh
  FROM toks t0
  JOIN toks t1 ON t1.doc_id = t0.doc_id AND t1.i = t0.i + 1
  JOIN toks t2 ON t2.doc_id = t0.doc_id AND t2.i = t0.i + 2
  JOIN tok_h f0 ON f0.tok = t0.tok
  JOIN tok_h f1 ON f1.tok = t1.tok
  JOIN tok_h f2 ON f2.tok = t2.tok
),
shingles AS (SELECT DISTINCT doc_id, sh FROM win),
nsh AS (SELECT doc_id, count(*) AS n_sh FROM shingles GROUP BY doc_id),
perms(j, pa, pb) AS (VALUES {perm_vals}),
sigs AS (
  SELECT s.doc_id, p.j,
         min((p.pa * CAST(s.sh % {m31} AS BIGINT) + p.pb) % {m31}) AS sig
  FROM shingles s CROSS JOIN perms p
  GROUP BY s.doc_id, p.j
),
bw(band, jr, cw) AS (VALUES {bw_vals}),
cbt(band, cb) AS (VALUES {cb_vals}),
bandmix AS (
  SELECT g.doc_id, w.band,
         CAST(sum(CAST(g.sig AS HUGEINT) * w.cw) AS HUGEINT) % {w64} AS mixed
  FROM sigs g
  JOIN bw w ON g.j = w.band * {rows} + w.jr
  GROUP BY g.doc_id, w.band
),
keys AS (
  SELECT doc_id, band,
    ((mixed % 4294967296) * {phi}
     + (((mixed // 4294967296) * {phi}) % 4294967296) * 4294967296
     + (SELECT cb FROM cbt WHERE cbt.band = bandmix.band)) % {w64} AS k
  FROM bandmix
),
bucket_docs AS (SELECT DISTINCT k, doc_id FROM keys),
bucket_stats AS (
  SELECT k, count(*) AS c, min(doc_id) AS mn
  FROM bucket_docs GROUP BY k
),
cand AS (
  SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b
  FROM bucket_stats s
  JOIN bucket_docs x ON x.k = s.k
  JOIN bucket_docs y ON y.k = s.k AND y.doc_id > x.doc_id
  WHERE s.c >= 2
    AND (s.c <= {clique_cap} OR x.doc_id = s.mn)
),
inter AS (
  SELECT c.id_a, c.id_b, count(*) AS i_cnt
  FROM cand c
  JOIN shingles sa ON sa.doc_id = c.id_a
  JOIN shingles sb ON sb.doc_id = c.id_b AND sb.sh = sa.sh
  GROUP BY c.id_a, c.id_b
),
scored AS (
  SELECT c.id_a, c.id_b,
    CASE WHEN coalesce(na.n_sh,0) + coalesce(nb.n_sh,0)
              - coalesce(i.i_cnt,0) = 0 THEN 1.0
         ELSE CAST(coalesce(i.i_cnt,0) AS DOUBLE)
              / (coalesce(na.n_sh,0) + coalesce(nb.n_sh,0)
                 - coalesce(i.i_cnt,0))
    END AS similarity
  FROM cand c
  LEFT JOIN inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
  LEFT JOIN nsh na ON na.doc_id = c.id_a
  LEFT JOIN nsh nb ON nb.doc_id = c.id_b
)
SELECT id_a, id_b, similarity FROM scored
WHERE similarity >= {threshold}
ORDER BY id_a, id_b
"""


def hll_registers_sql(p: int = 12) -> str:
    """Full-value oracle for ``q_hll_registers``: replays splitmix64
    (uint64 wrap via 32-bit split multiplies in HUGEINT, XOR through
    UBIGINT), the top-``p``-bit bucket index, the rank rho = clamped
    leading-zero count of ``(h << p) | (2^p - 1)`` (highest set bit found
    exactly with a 64-row power-of-two scan — no float log2), and the
    per-bucket max — bit-identical to ``stages.sketch.hll_sketch`` for
    integer columns."""
    w64 = "CAST('18446744073709551616' AS HUGEINT)"
    c1 = "CAST('13787848793156543929' AS HUGEINT)"  # 0xBF58476D1CE4E5B9
    c2 = "CAST('10723151780598845931' AS HUGEINT)"  # 0x94D049BB133111EB
    phi = "CAST('11400714819323198485' AS HUGEINT)"  # 0x9E3779B97F4A7C15

    def one(table: str, col: str) -> str:
        return f"""
SELECT '{table}.{col}' AS "column", idx AS register_index,
       max(rho) AS register_value
FROM (
  SELECT CAST(h // (CAST(1 AS HUGEINT) << {64 - p}) AS BIGINT) AS idx,
         least({64 - p + 1}, greatest(1, 63 - hb + 1)) AS rho
  FROM (
    SELECT h,
      (SELECT max(i) FROM (SELECT unnest(generate_series(0, 63)) AS i)
       WHERE rest >= (CAST(1 AS HUGEINT) << i)) AS hb
    FROM (
      SELECT h, (h * {1 << p}) % {w64} + {(1 << p) - 1} AS rest
      FROM (
        SELECT CAST(xor(CAST(z2 AS UBIGINT),
                        CAST(z2 // (CAST(1 AS HUGEINT) << 31) AS UBIGINT))
                    AS HUGEINT) AS h
        FROM (
          SELECT ((x2 % 4294967296) * {c2}
                  + (((x2 // 4294967296) * {c2}) % 4294967296)
                    * 4294967296) % {w64} AS z2
          FROM (
            SELECT CAST(xor(CAST(z1 AS UBIGINT),
                            CAST(z1 // (CAST(1 AS HUGEINT) << 27)
                                 AS UBIGINT)) AS HUGEINT) AS x2
            FROM (
              SELECT ((x1 % 4294967296) * {c1}
                      + (((x1 // 4294967296) * {c1}) % 4294967296)
                        * 4294967296) % {w64} AS z1
              FROM (
                SELECT CAST(xor(CAST(z0 AS UBIGINT),
                                CAST(z0 // (CAST(1 AS HUGEINT) << 30)
                                     AS UBIGINT)) AS HUGEINT) AS x1
                FROM (
                  SELECT (CAST({col} AS HUGEINT) + {phi}) % {w64} AS z0
                  FROM {table}
                )
              )
            )
          )
        )
      )
    )
  )
)
GROUP BY idx
"""

    pairs = [("events", "user_id"), ("orders", "o_custkey"),
             ("lineitem", "l_partkey")]
    return (" UNION ALL ".join(f"({one(t, c)})" for t, c in pairs)
            + ' ORDER BY "column", register_index')


#: Full-value oracle for ``q_simhash_dups`` (upgrades it from rows-only,
#: round 4): per-token FNV-1a (recursive byte loop), per-doc distinct
#: token-hash weights (== ``np.unique(token_hashes(...),
#: return_counts=True)``), the 64 bit-votes via a bits(0..63) cross join,
#: sig reassembly, 4x16-bit band buckets, XOR+``bit_count`` hamming
#: verification at ``d <= 3`` and ``1 - d/64`` similarity — bit-identical
#: to ``stages.dedup.simhash_pairs``, including the ``clique_cap=256``
#: star rule (buckets with >256 distinct docs contribute only
#: min-doc-hub pairs).  Zero-token docs (sig = 0) are not represented
#: (none exist in the testdata; the engine path for them is unit-tested).
SIMHASH_DUPS_SQL = """
WITH RECURSIVE arrs AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS arr
  FROM documents
),
toks AS (SELECT doc_id, unnest(arr) AS tok FROM arrs),
vocab AS (SELECT DISTINCT tok FROM toks),
fnv AS (
  SELECT tok, CAST(1 AS BIGINT) AS j,
         CAST('14695981039346656037' AS HUGEINT) AS h
  FROM vocab
  UNION ALL
  SELECT tok, j + 1,
    (CAST(xor(CAST(h AS UBIGINT), CAST(ord(substr(tok, j, 1)) AS UBIGINT))
          AS HUGEINT) * 1099511628211)
      % CAST('18446744073709551616' AS HUGEINT)
  FROM fnv WHERE j <= length(tok)
),
tok_h AS (SELECT tok, h FROM fnv WHERE j = length(tok) + 1),
tw AS (
  SELECT t.doc_id, f.h, count(*) AS w
  FROM toks t JOIN tok_h f ON f.tok = t.tok
  GROUP BY t.doc_id, f.h
),
bits(i) AS (SELECT unnest(generate_series(0, 63))),
votes AS (
  SELECT tw.doc_id, b.i,
         sum(CASE WHEN (tw.h // (CAST(1 AS HUGEINT) << b.i)) % 2 = 1
                  THEN tw.w ELSE -tw.w END) AS v
  FROM tw CROSS JOIN bits b
  GROUP BY tw.doc_id, b.i
),
sig AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN v > 0
                       THEN CAST(1 AS HUGEINT) << i ELSE 0 END)
              AS HUGEINT) AS s
  FROM votes GROUP BY doc_id
),
bandtab(bi) AS (VALUES (0), (1), (2), (3)),
buckets AS (
  SELECT g.doc_id, b.bi,
         CAST((g.s // (CAST(1 AS HUGEINT) << (b.bi * 16))) % 65536
              AS BIGINT) AS chunk,
         g.s
  FROM sig g CROSS JOIN bandtab b
),
simhash_bucket_stats AS (
  -- replay simhash_pairs' clique-vs-star rule (clique_cap=256): buckets
  -- with more than 256 distinct docs emit only hub pairs (min doc x rest)
  SELECT bi, chunk, count(*) AS c, min(doc_id) AS mn
  FROM buckets GROUP BY bi, chunk
),
cand AS (
  SELECT DISTINCT x.doc_id AS id_a, y.doc_id AS id_b,
         bit_count(xor(CAST(x.s AS UBIGINT), CAST(y.s AS UBIGINT))) AS d
  FROM simhash_bucket_stats s
  JOIN buckets x ON x.bi = s.bi AND x.chunk = s.chunk
  JOIN buckets y ON y.bi = s.bi AND y.chunk = s.chunk
                AND y.doc_id > x.doc_id
  WHERE s.c >= 2
    AND (s.c <= 256 OR x.doc_id = s.mn)
)
SELECT id_a, id_b, 1.0 - d / 64.0 AS similarity
FROM cand WHERE d <= 3
ORDER BY id_a, id_b
"""


GML_EXTENT_WKT_SQL = """
WITH box AS (
  SELECT event_id,
         event_id % 340 - 170 AS w,
         event_id % 160 - 80  AS s,
         event_id % 340 - 170 + 1 + event_id % 9 AS e,
         event_id % 160 - 80  + 1 + event_id % 9 AS n
  FROM events
)
SELECT event_id,
  'POLYGON ((' ||
  CAST(w AS VARCHAR) || '.0 ' || CAST(s AS VARCHAR) || '.0, ' ||
  CAST(e AS VARCHAR) || '.0 ' || CAST(s AS VARCHAR) || '.0, ' ||
  CAST(e AS VARCHAR) || '.0 ' || CAST(n AS VARCHAR) || '.0, ' ||
  CAST(w AS VARCHAR) || '.0 ' || CAST(n AS VARCHAR) || '.0, ' ||
  CAST(w AS VARCHAR) || '.0 ' || CAST(s AS VARCHAR) || '.0))'
  AS geometry_wkt
FROM box
ORDER BY event_id
"""


def oracle_sql_dict() -> dict:
    """name -> SQL for every SQL-expressible query in contract.queries()."""
    return {
        "fl_transformers": FL_TRANSFORMERS_SQL,
        "gml_extent_wkt": GML_EXTENT_WKT_SQL,
        "minhash_dups": minhash_dups_sql(),
        "simhash_dups": SIMHASH_DUPS_SQL,
        "hll_registers": hll_registers_sql(),
        "fingerprints": FINGERPRINTS_SQL,
        "multimodal_frames": MULTIMODAL_FRAMES_SQL,
        "term_df": TERM_DF_SQL,
        "doc_stats": DOC_STATS_SQL,
        "top_terms": TOP_TERMS_SQL,
        "doc_sha256": DOC_SHA256_SQL,
        "pii_scrub": pii_scrub_sql(),
        "kmv_sample": kmv_sample_sql(),
        "heavy_hitters": heavy_hitters_sql(),
        "quantile_sketch": quantile_sketch_sql(),
        "text_quality": TEXT_QUALITY_SQL,
        "lang_counts": LANG_COUNTS_SQL,
        "exact_dedup": EXACT_DEDUP_SQL,
        "upsert_latest": UPSERT_LATEST_SQL,
        "doc_get": DOC_GET_SQL,
        "atomic_updates": ATOMIC_UPDATES_SQL,
        "ngram_jaccard_dups": NGRAM_JACCARD_SQL,
        "jaccard_dedup_survivors": JACCARD_SURVIVORS_SQL,
        # forced-distributed CC path computes the SAME survivor set
        "dedup_survivors_distcc": JACCARD_SURVIVORS_SQL,
        "bm25_topk": bm25_topk_sql(),
        "stop_topk": stop_topk_sql(),
        "phrase_topk": phrase_topk_sql(),
        # the next-word-index contract reuses the positional phrase oracle
        # verbatim: the ranking contract is identical by construction
        "phrase_bigram_topk": phrase_topk_sql(),
        "phrase_chain_topk": phrase_chain_topk_sql(),
        "wildcard_topk": wildcard_topk_sql(),
        "near_topk": near_topk_sql(),
        "date_range_topk": date_range_topk_sql(),
        "fuzzy_topk": fuzzy_topk_sql(),
        "func_topk": func_topk_sql(),
        "bq_topk": bq_topk_sql(),
        "facet_stats": facet_stats_sql(),
        "term_vectors": term_vectors_sql(),
        "lm_quality": LM_QUALITY_SQL,
        "paragraph_dedup": PARAGRAPH_DEDUP_SQL,
        "gopher_filter": GOPHER_FILTER_SQL,
        "packed_sequences": PACKED_SEQUENCES_SQL,
        "train_valid_split": TRAIN_VALID_SPLIT_SQL,
        "shuffled_order": SHUFFLED_ORDER_SQL,
        "mm_topk": mm_topk_sql(),
        "pf_topk": pf_topk_sql(),
        "wildcard_infix_topk": wildcard_infix_topk_sql(),
        "regex_topk": regex_topk_sql(),
        "field_topk": field_topk_sql(),
        "repetition_stats": REPETITION_STATS_SQL,
        "facet_query_counts": facet_query_sql(),
        "decontaminated": decontaminated_sql(),
        "mixture_sample": mixture_sample_sql(),
        "qf_topk": qf_topk_sql(),
        "bool_topk": bool_topk_sql(),
        "spatial_topk": spatial_topk_sql(),
        "facets": facets_sql(),
        "range_topk": range_topk_sql(),
        "sorted_browse": sorted_browse_sql(),
        "more_like_this": more_like_this_sql(),
        "terms_component": terms_component_sql(),
        "field_stats": field_stats_sql(),
        "stats_percentiles": stats_percentiles_sql(),
        "analysis_tokens": analysis_tokens_sql(),
        "stream_rollup": stream_rollup_sql(),
        "sql_group_agg": sql_group_agg_sql(),
        "sql_select_where": sql_select_where_sql(),
        "ltr_trees_topk": ltr_trees_topk_sql(),
        "significant_terms": significant_terms_sql(),
        "luke_fields": luke_fields_sql(),
        "ltr_topk": ltr_topk_sql(),
        "stream_join": stream_join_sql(),
        "stream_unique": stream_unique_sql(),
        "stream_nodes": stream_nodes_sql(),
        "grouped": grouped_sql(),
        "collapse_topk": collapse_topk_sql(),
        "collations": collations_sql(),
        "autocomplete": autocomplete_sql(),
        "date_range_facets": date_range_facets_sql(),
        "blockjoin_matches": blockjoin_matches_sql(),
        "rerank_topk": rerank_topk_sql(),
        "join_matches": join_matches_sql(),
        "geofilt_matches": geofilt_matches_sql(),
        "suggest": suggest_sql(),
        "boosted_topk": boosted_topk_sql(),
        "range_facets": range_facets_sql(),
        "pivot_facets": pivot_facets_sql(),
        "sharded_topk": sharded_topk_sql(),
        "synonym_topk": synonym_topk_sql(),
        "delete_by_query_remaining": DELETE_BY_QUERY_SQL,
        "multimodal_decode_meta": MULTIMODAL_DECODE_META_SQL,
        "ann_topk": ANN_TOPK_SQL,
        "hybrid_topk": hybrid_topk_sql(),
        # ann_ivf_topk is exact at nprobe == n_buckets -> same oracle
        "ann_ivf_topk": ANN_TOPK_SQL,
        "embedding_dups": EMBEDDING_DUPS_SQL,
        "parent_flags": PARENT_FLAGS_SQL,
        "unresolved_refs": UNRESOLVED_REFS_SQL,
        "pricing_summary": PRICING_SUMMARY_SQL,
        "top_customers": TOP_CUSTOMERS_SQL,
        "events_window": EVENTS_WINDOW_SQL,
        "events_props": EVENTS_PROPS_SQL,
        "user_sessions": USER_SESSIONS_SQL,
        "session_windows": SESSION_WINDOWS_SQL,
    }
