"""Query parsing — the subset of Lucene query syntax the reference CLI uses.

Reference: ``searchindex`` passes user queries straight through to Solr
(``/root/reference/solrindexer/search.py:125-140`` build_search_request; the
documented usage is bare free-text over the default ``full_text`` field and
``field:value`` queries, ``/root/reference/README.md:277-302``).

Supported grammar (documented subset):

- bare terms                -> scored (BM25, OR semantics; Lucene default)
- ``term1 AND term2``       -> conjunction (all scoring clauses required)
- ``-clause``               -> MUST_NOT: any clause below, parsed as without
                               the ``-`` into ``ParsedQuery.must_not``, whose
                               matches are excluded (a prohibited term also
                               negates its synonyms, as in Lucene)
- ``"exact phrase"``        -> phrase clause (positions required; Lucene
                               PhraseQuery: tf = phrase frequency, idf = sum
                               of the member terms' idfs)
- ``field:value`` / ``field:"multi word"`` -> exact metadata filter for
                               ``repo``, ``path``, ``commit``, ``lang``; any
                               other field prefix (e.g. ``full_text:``/
                               ``content:``) analyzes the value as scoring
                               terms (or a phrase when quoted).
- ``pre*``                  -> prefix (wildcard) clause.  Solr/Lucene
                               default rewrite: CONSTANT_SCORE — every doc
                               containing any expansion scores 1.0 for the
                               clause.  A trailing ``*`` on a filter field
                               (``path:src*``) prefix-matches the value.
- ``*:*`` / ``*``           -> match-all (Solr's canonical match-all query)
- ``field:[lo TO hi]``      -> range filter on the metadata fields or the
                               numeric ``doclen`` field; ``{`` / ``}``
                               bounds are exclusive (Lucene), ``*`` is an
                               open end.

- ``term~`` / ``term~1`` / ``term~2`` -> fuzzy clause (Lucene FuzzyQuery;
                               bare ``~`` = 2 edits, the Lucene default).
                               Expansion set = index terms within classic
                               Levenshtein distance (documented deviation:
                               Lucene counts a transposition as 1 edit, we
                               count 2 — matching SQL ``levenshtein()``).
                               The expansion scores as ONE clause with
                               SynonymQuery stats (tf summed over members,
                               df = max member df) — the blended-stats
                               rewrite.
- ``?`` / infix / leading ``*`` -> general wildcard clause (``te?t``,
                               ``*fix``, ``mid*dle``): CONSTANT_SCORE union
                               of every dictionary term matching the
                               pattern.  Trailing-only ``*`` stays the
                               (cheaper, range-pruned) prefix clause.
- ``(a OR b) AND c``        -> parenthesized boolean grouping, parsed by
                               :func:`parse_boolean` into a clause tree
                               (AND binds tighter than OR; default operator
                               between adjacent atoms is OR — Lucene's
                               default; ``NOT x`` / ``-(...)`` negates).
                               Queries WITHOUT parentheses keep the flat
                               single-level model above.

- ``"a b"~slop``           -> ordered proximity (span-near within slop,
                               PhraseQuery scoring); slop 0 = exact phrase.

- ``/regex/``              -> regex term query (Lucene RegexpQuery):
                               CONSTANT_SCORE union of every dictionary
                               term FULLY matching the pattern.  RE2
                               syntax (Arrow + DuckDB both run RE2);
                               lowercased like other multiterm clauses;
                               no whitespace inside the pattern.
                               ``/re/^2`` boosts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

FILTER_FIELDS = ("repo", "path", "commit", "lang")
DEFAULT_FIELD_ALIASES = ("full_text", "content", "text")

#: quoted segments, optionally negated and/or field-prefixed, with
#: optional trailing slop and/or boost:
#:   -field:"some words"   "a phrase"^2.5   "a b"~3   "a b"~3^2
_QUOTED = re.compile(
    r'(-?)(?:([A-Za-z_][\w.]*):)?"([^"]*)"(?:~([0-9]+))?(?:\^([0-9.]+))?'
)

#: trailing boost on a bare clause: term^2 / pre*^1.5
_BOOST = re.compile(r"^(.*?)\^([0-9]+(?:\.[0-9]+)?)$")

#: fuzzy clause: term~ / term~1 / term~2 (digits only after ~)
_FUZZY = re.compile(r"^(.+?)~([0-9]+)?$")

#: range filters: field:[lo TO hi], exclusive {} bounds, * open ends
_RANGE = re.compile(
    r"(-?)([A-Za-z_][\w.]*):([\[{])\s*(\S+)\s+TO\s+(\S+)\s*([\]}])"
)

#: fields a range filter may target by default (metadata strings + token
#: count); engines extend this with their index's extra stored columns
#: (timestamps, numerics) via the ``range_fields`` parse parameter
RANGE_FIELDS = (*FILTER_FIELDS, "doclen")

#: Solr spatial filter on an envelope field:
#:   bbox:"Intersects(ENVELOPE(minX, maxX, maxY, minY))"
#: (also IsWithin / Contains — the Solr RPT field predicates).  The
#: reference indexes ``bbox = ENVELOPE(...)`` precisely to enable these
#: (``solrindexer/spatial.py:86-112``; Solr spatial search docs).
_SPATIAL = re.compile(
    r"^(Intersects|IsWithin|Contains)\s*\(\s*ENVELOPE\s*\(\s*"
    r"(-?[0-9.]+)\s*,\s*(-?[0-9.]+)\s*,\s*(-?[0-9.]+)\s*,\s*(-?[0-9.]+)"
    r"\s*\)\s*\)$"
)


@dataclass(frozen=True)
class SpatialFilter:
    """Envelope predicate against a doc envelope stored as four numeric
    columns ``{field}_west/_east/_south/_north`` (Solr ENVELOPE argument
    order is minX, maxX, maxY, minY = west, east, north, south).
    ``west > east`` means the envelope crosses the antimeridian (the
    reference's dateline convention, ``solrindexer/spatial.py:86-112``)."""

    field: str
    op: str                  # 'Intersects' | 'IsWithin' | 'Contains'
    west: float
    east: float
    south: float
    north: float

    def __post_init__(self):
        for v, lo, hi, nm in (
            (self.west, -180.0, 180.0, "minX"),
            (self.east, -180.0, 180.0, "maxX"),
            (self.south, -90.0, 90.0, "minY"),
            (self.north, -90.0, 90.0, "maxY"),
        ):
            if not (lo <= v <= hi):
                raise ValueError(f"spatial {nm}={v} outside [{lo}, {hi}]")
        if self.south > self.north:
            raise ValueError(
                f"spatial maxY={self.north} < minY={self.south}"
            )

    @property
    def crosses_dateline(self) -> bool:
        return self.west > self.east


@dataclass(frozen=True)
class RangeFilter:
    field: str
    lo: str | None          # None = open end
    hi: str | None
    lo_incl: bool = True
    hi_incl: bool = True

    def bounds(self):
        """Typed (lo, hi): ints for doclen, raw strings otherwise."""
        if self.field == "doclen":
            return (
                None if self.lo is None else int(self.lo),
                None if self.hi is None else int(self.hi),
            )
        return self.lo, self.hi

    def matches(self, value) -> bool:
        lo, hi = self.bounds()
        if value is None:
            return False
        if lo is not None and (value < lo or (value == lo and not self.lo_incl)):
            return False
        if hi is not None and (value > hi or (value == hi and not self.hi_incl)):
            return False
        return True


@dataclass
class ParsedQuery:
    terms: list = field(default_factory=list)        # analyzed scoring terms
    filters: list = field(default_factory=list)  # [(field, exact value)]
    conjunctive: bool = False                        # True when AND was used
    phrases: list = field(default_factory=list)          # list[list[term]]
    prefixes: list = field(default_factory=list)         # constant-score pre*
    range_filters: list = field(default_factory=list)        # [RangeFilter]
    #: Lucene query-time boosts (term^2, "a b"^3, pre*^1.5); absent = 1.0.
    #: Keys: term string / phrase tuple / prefix string.  Last boost wins
    #: for a repeated clause.
    boosts: dict = field(default_factory=dict)
    phrase_boosts: dict = field(default_factory=dict)
    prefix_boosts: dict = field(default_factory=dict)
    #: fuzzy clauses: [(analyzed word, max_edits)]; scored as blended
    #: SynonymQuery groups over the expansion set
    fuzzies: list = field(default_factory=list)
    fuzzy_boosts: dict = field(default_factory=dict)      # (word, edits) -> b
    #: general wildcard patterns (?, infix/leading *), constant-score
    wildcards: list = field(default_factory=list)
    wildcard_boosts: dict = field(default_factory=dict)
    #: proximity clauses ``"a b"~slop``: [( (terms...), slop )] — ordered
    #: span-near matching (Lucene SpanNearQuery inOrder=true analogue),
    #: scored like PhraseQuery (w = sum member idfs, tf = match count)
    near_phrases: list = field(default_factory=list)
    near_boosts: dict = field(default_factory=dict)  # (terms, slop) -> b
    #: spatial envelope filters: field:"Intersects(ENVELOPE(...))"
    spatial_filters: list = field(default_factory=list)   # [SpatialFilter]
    #: SCORED fielded term clauses over extra analyzed fields
    #: (``path_text:foo`` — Lucene fielded TermQuery with that field's
    #: postings/stats/norms): [(field, term)]
    field_terms: list = field(default_factory=list)
    field_term_boosts: dict = field(default_factory=dict)  # (f, t) -> b
    #: SCORED fielded PHRASE clauses over analyzed fields
    #: (``path_text:"a b"`` — Lucene fielded PhraseQuery; positions of
    #: the field's token stream): [(field, (t1, t2, ...))]
    field_phrases: list = field(default_factory=list)
    field_phrase_boosts: dict = field(default_factory=dict)
    #: dismax groups (engine-built from ``qf``; never parsed from text):
    #: [(term, ((field, field_boost), ...))] — per doc the group scores
    #: max over fields + tie * sum(rest) (Solr DisMax)
    dismax: list = field(default_factory=list)
    dismax_tie: float = 0.0
    #: Solr (e)dismax ``mm`` resolved to an integer (see
    #: :func:`resolve_min_should_match`): minimum number of DISTINCT
    #: optional scoring clauses a doc must match.  0/1 = plain OR.
    #: Engine-set from ``search(mm=...)``; never parsed from text.
    min_should: int = 0
    #: Solr edismax pf/pf2/pf3 phrase-boost clauses (engine-built; never
    #: parsed from text): [(field_or_None, member_terms, slop, boost)].
    #: SCORE-ONLY — they never gate membership, bump the AND/mm seen
    #: counts, or count in ``scoring_clauses`` (Lucene: the pf phrase is
    #: a separate SHOULD boost query outside minimumShouldMatch).
    boost_phrases: list = field(default_factory=list)
    #: Solr function-query boosts (engine-built from ``bf``/``boost``;
    #: never parsed from text): parsed funcquery ASTs.  SCORE-ONLY like
    #: pf — ``boost_funcs`` add per-doc function values to matches
    #: (edismax ``bf``), ``mult_funcs`` multiply the final score
    #: (edismax ``boost`` / {!boost}).  Neither gates membership.
    boost_funcs: list = field(default_factory=list)
    mult_funcs: list = field(default_factory=list)
    #: trailing ``^w`` captured on metadata FILTER clauses
    #: (``lang:java^5``), keyed by ``(field, value)``.  Ignored by
    #: normal search (filters gate, they don't score); read by the
    #: edismax ``bq`` path, where a pure-filter boost query contributes a
    #: Lucene ConstantScoreQuery-style constant (the product of these
    #: weights) to matching docs.
    filter_boosts: dict = field(default_factory=dict)
    #: Solr edismax boost queries (engine-built from ``bq``; never parsed
    #: from text): [(sub ParsedQuery, constant)].  SCORE-ONLY like pf —
    #: each bq's own score (plus the constant for pure-filter bq) is
    #: added to docs matching BOTH the main query and the bq; membership
    #: comes from the main query alone (edismax: bq joins the boolean
    #: query as a SHOULD clause next to the required main query).
    boost_queries: list = field(default_factory=list)
    #: the MUST_NOT clauses (``-x``) as one nested query, parsed like
    #: positive ones: a doc any of its clauses or filters matches is
    #: excluded.  ``None`` when no negated clause survives analysis.
    must_not: ParsedQuery | None = None
    #: the query string this was parsed from and, when it uses
    #: parenthesized grouping, its boolean clause tree (engine-set by
    #: ``SearchEngine._prepare``; never parsed from text)
    source: str = ""
    tree: object = None

    @property
    def is_match_all(self) -> bool:
        return not (
            self.terms or self.filters or self.phrases or self.prefixes
            or self.range_filters or self.fuzzies or self.wildcards
            or self.near_phrases or self.spatial_filters
            or self.field_terms or self.dismax or self.field_phrases
        )

    @property
    def prohibited(self) -> list:
        """The MUST_NOT terms (read-only view of ``must_not.terms``)."""
        return [] if self.must_not is None else self.must_not.terms

    @property
    def scoring_clauses(self) -> int:
        """Count of DISTINCT positive scoring clauses (the AND-required
        count; Lucene: a clause absent from the index still counts)."""
        return (
            len(set(self.terms)) + len(self.phrases) + len(self.prefixes)
            + len(set(self.fuzzies)) + len(set(self.wildcards))
            + len(self.near_phrases) + len(set(self.field_terms))
            + len(set(t for t, _ in self.dismax))
            + len(self.field_phrases)
        )


def resolve_min_should_match(spec, n_optional: int) -> int:
    """Solr dismax/edismax ``mm`` spec -> required optional-clause count.

    Implements Solr's ``SolrPluginUtils.calculateMinShouldMatch`` grammar
    (the ``mm`` parameter the reference's Solr queries are subject to —
    queries flow verbatim to Solr, ``solrindexer/search.py:125-140``):

    - positive integer ``"2"``: at least 2 clauses must match
    - negative integer ``"-1"``: all but 1 (``n_optional - 1``)
    - percentage ``"75%"``: ``int(n_optional * 0.75)`` (truncated)
    - negative percentage ``"-25%"``: ``n_optional`` minus the truncated
      percentage
    - conditional pairs ``"2<-25% 9<-3"``: with ``n_optional <= 2`` all
      clauses are required; the last pair whose bound is exceeded applies

    The result is clamped to ``[0, n_optional]`` (Lucene's
    ``BooleanQuery.setMinimumNumberShouldMatch`` range)."""
    result = n_optional
    s = str(spec).strip()
    if "<" in s:
        for cond in s.split():
            ub_s, _, sub = cond.partition("<")
            if n_optional <= int(ub_s):
                break
            result = resolve_min_should_match(sub, n_optional)
        return max(0, min(n_optional, result))
    if s.endswith("%"):
        calc = n_optional * int(s[:-1]) / 100.0
        result = n_optional + int(calc) if calc < 0 else int(calc)
    else:
        calc = int(s)
        result = n_optional + calc if calc < 0 else calc
    return max(0, min(n_optional, result))


#: impossible term injected when every positive atom of a non-empty query
#: was removed by the analysis chain (e.g. ``q="the"`` on a stop-filtered
#: index): Lucene's empty BooleanQuery matches NOTHING, while this
#: engine's empty parse means match-all — the sentinel (a NUL byte, which
#: no analyzer can emit) makes every path (TAAT, distributed, facets,
#: delete-by-query, shards) return 0 hits with no extra branching.
NO_MATCH_TERM = "\x00"


def parse_query(q: str, analyze, range_fields=RANGE_FIELDS,
                scored_fields=(), inject_no_match: bool = True,
                filter_fields=FILTER_FIELDS) -> ParsedQuery:
    """Parse a query string; ``analyze(text) -> list[str]`` pins the
    analyzer.  ``range_fields`` lists the fields a range filter may
    target (engines pass their stored-column set so typed ranges over
    extra stored fields — timestamps, numerics — parse).
    ``scored_fields`` lists extra ANALYZED fields
    (``IndexConfig.analyzed_fields``): ``field:value`` on one of them is a
    SCORED fielded term clause (Lucene fielded TermQuery over that
    field's postings/stats/norms), not a metadata filter; the value is
    analyzed, multiple tokens become multiple field-term clauses
    (Lucene ``field:(a b)`` OR semantics).  ``filter_fields`` lists
    the metadata columns an equality/prefix filter may target — engines
    pass their string-typed stored-column set so filters over
    extra_stored columns parse (Solr: any indexed field is
    queryable)."""
    out = ParsedQuery()
    #: the negated clauses; attached as ``out.must_not`` when any survive
    must_not = ParsedQuery()
    #: [dropped-atom count, saw explicit match-all atom] for the
    #: filtered-to-nothing sentinel decision at the end
    _drop_state = [0, False]

    def eat_quoted(m: re.Match) -> str:
        neg, fld, text = m.group(1) == "-", m.group(2), m.group(3)
        dst = must_not if neg else out
        slop = int(m.group(4)) if m.group(4) else 0
        boost = float(m.group(5)) if m.group(5) else None
        if fld is not None:
            sm = _SPATIAL.match(text.strip())
            if sm:
                dst.spatial_filters.append(SpatialFilter(
                    fld, sm.group(1), float(sm.group(2)), float(sm.group(3)),
                    # ENVELOPE order: minX, maxX, maxY, minY
                    south=float(sm.group(5)), north=float(sm.group(4)),
                ))
                return " "
        if fld in scored_fields:
            toks = analyze(text)
            if not toks:
                _drop_state[0] += 1
                return " "
            if slop > 0:
                raise ValueError(
                    f"proximity ({fld}:\"...\"~{slop}) is not supported "
                    "on analyzed fields (exact field phrases only)"
                )
            if len(toks) == 1:  # single-term field phrase -> field term
                clause = (fld, toks[0])
                dst.field_terms.append(clause)
                if boost is not None:
                    dst.field_term_boosts[clause] = boost
            else:
                clause = (fld, tuple(toks))
                dst.field_phrases.append(clause)
                if boost is not None:
                    dst.field_phrase_boosts[clause] = boost
            return " "
        if fld in filter_fields:
            dst.filters.append((fld, text))
            return " "
        toks = analyze(text)
        if not toks:
            _drop_state[0] += 1
            return " "
        if len(toks) == 1:  # single-term phrase rewrites to a term (Lucene)
            dst.terms.extend(toks)
            if boost is not None:
                dst.boosts[toks[0]] = boost
        elif slop > 0:  # proximity clause; slop 0 IS the exact phrase
            clause = (tuple(toks), slop)
            dst.near_phrases.append(clause)
            if boost is not None:
                dst.near_boosts[clause] = boost
        else:
            dst.phrases.append(toks)
            if boost is not None:
                dst.phrase_boosts[tuple(toks)] = boost
        return " "

    def eat_range(m: re.Match) -> str:
        neg, fld = m.group(1) == "-", m.group(2)
        if fld not in range_fields:
            raise ValueError(
                f"range filter on unsupported field {fld!r} "
                f"(supported: {', '.join(range_fields)})"
            )
        rf = RangeFilter(
            fld,
            None if m.group(4) == "*" else m.group(4),
            None if m.group(5) == "*" else m.group(5),
            lo_incl=m.group(3) == "[",
            hi_incl=m.group(6) == "]",
        )
        rf.bounds()  # validate numeric bounds eagerly (doclen)
        (must_not if neg else out).range_filters.append(rf)
        return " "

    q = _QUOTED.sub(eat_quoted, q or "")
    q = _RANGE.sub(eat_range, q)
    for raw in q.split():
        if raw == "AND":
            out.conjunctive = True
            continue
        if raw in ("OR", "||"):
            continue
        if raw in ("*", "*:*"):  # Solr match-all
            _drop_state[1] = True
            continue
        neg = raw.startswith("-") and len(raw) > 1
        if neg:
            raw = raw[1:]
        elif raw.startswith("+") and len(raw) > 1:
            raw = raw[1:]  # MUST ~= AND for our OR/AND model
            out.conjunctive = True
        dst = must_not if neg else out
        boost = None
        bm = _BOOST.match(raw)
        if bm and bm.group(1):
            raw, boost = bm.group(1), float(bm.group(2))
        if raw.startswith("/") and raw.endswith("/") and len(raw) > 2:
            # Lucene RegexpQuery: /pattern/ anchors the WHOLE term
            # (fullmatch).  Not analyzed; only the multiterm chain
            # (lowercasing) applies — same as wildcards.  Stored in the
            # wildcard clause lists with the slash delimiters kept as the
            # regex marker; the engine and the SQL oracle both dispatch on
            # it (Arrow and DuckDB share RE2, so semantics agree exactly).
            pat = raw.lower()
            dst.wildcards.append(pat)
            if boost is not None:
                dst.wildcard_boosts[pat] = boost
            continue
        if ":" in raw:
            fld, _, val = raw.partition(":")
            val = val.strip('"')
            if fld in scored_fields:
                for tok in analyze(val):
                    clause = (fld, tok)
                    dst.field_terms.append(clause)
                    if boost is not None:
                        dst.field_term_boosts[clause] = boost
                continue
            if fld in filter_fields:
                # a trailing * on a filter value prefix-matches the
                # metadata string (engine: starts_with pushdown)
                dst.filters.append((fld, val))
                if boost is not None:
                    dst.filter_boosts[(fld, val)] = boost
                continue
            raw = val  # default-field alias or unknown field -> score terms
        fm = _FUZZY.match(raw)
        if fm:
            toks = analyze(fm.group(1))
            if not toks:
                _drop_state[0] += 1
            if toks:
                edits = min(int(fm.group(2) or 2), 2)  # Lucene caps at 2
                if edits == 0:  # term~0 is an exact term (Lucene)
                    dst.terms.extend(toks[-1:])
                    if boost is not None:
                        dst.boosts[toks[-1]] = boost
                    continue
                clause = (toks[-1], edits)
                dst.fuzzies.append(clause)
                if boost is not None:
                    dst.fuzzy_boosts[clause] = boost
            continue
        if raw.endswith("*") and len(raw) > 1 and "*" not in raw[:-1] and (
            "?" not in raw
        ):
            pre = analyze(raw[:-1])
            if not pre:
                _drop_state[0] += 1
            if pre:  # analyzed prefix: last emitted token stem
                dst.prefixes.append(pre[-1])
                if boost is not None:
                    dst.prefix_boosts[pre[-1]] = boost
            continue
        if ("*" in raw or "?" in raw) and raw not in ("*", "?"):
            # general wildcard: Lucene does NOT analyze wildcard terms —
            # only the multiterm chain (lowercasing) applies
            pat = raw.lower()
            dst.wildcards.append(pat)
            if boost is not None:
                dst.wildcard_boosts[pat] = boost
            continue
        toks = analyze(raw)
        if not toks and not neg:
            _drop_state[0] += 1
        dst.terms.extend(toks)
        if boost is not None:
            for t in toks:  # a multi-token raw clause boosts every token
                dst.boosts[t] = boost
    if not must_not.is_match_all:
        out.must_not = must_not
    if (
        inject_no_match
        and _drop_state[0]
        and not _drop_state[1]
        and out.is_match_all
        and out.must_not is None
    ):
        # every positive atom was analyzer-removed: Lucene's empty
        # BooleanQuery matches nothing (see NO_MATCH_TERM)
        out.terms.append(NO_MATCH_TERM)
    return out


# --------------------------------------------------------------------- #
# parenthesized boolean grouping
# --------------------------------------------------------------------- #
@dataclass
class BoolNode:
    """One boolean operator node: ``children`` is a list of
    ``(negated, child)`` where child is a :class:`BoolNode` or a leaf
    :class:`ParsedQuery` (parsed from a single atom via
    :func:`parse_query`, so every clause type works inside a group).

    Ops: ``AND`` / ``OR`` (a negated child is MUST_NOT in BOTH — Lucene
    treats ``-x`` as a clause type, not a negated SHOULD, so
    ``(a OR b) -c`` means ``(a|b) AND NOT c``), plus ``OPT``
    (single-child, mask-neutral score carrier — the SHOULD clauses of a
    MUST+SHOULD list).  ``boost`` multiplies the subtree's scores
    (``(a b)^2``)."""

    op: str          # 'AND' | 'OR' | 'OPT'
    children: list   # [(negated: bool, BoolNode | ParsedQuery)]
    boost: float = 1.0


def _bool_tokens(q: str) -> list[str]:
    """Lex a grouped query: parens are standalone tokens; quoted segments
    (with attached field prefix / ``-`` / trailing slop/boost), range
    literals (``[lo TO hi]`` / ``{lo TO hi}`` — they contain spaces) and
    ``/regex/`` clauses (whose parens/brackets are regex syntax, not
    grouping) stay atomic; everything else splits on whitespace."""
    toks: list[str] = []
    buf: list[str] = []

    def flush():
        if buf:
            toks.append("".join(buf))
            buf.clear()

    i, n = 0, len(q)
    in_range = False
    while i < n:
        c = q[i]
        if c == '"':
            j = q.find('"', i + 1)
            j = n - 1 if j < 0 else j
            buf.append(q[i:j + 1])
            i = j + 1
        elif (
            c == "/"
            and not in_range
            and (not buf or all(b in "+-" for b in buf))
        ):
            # token-initial slash opens a /regex/ clause: consume to the
            # closing slash so its parens/brackets never lex as grouping
            j = q.find("/", i + 1)
            j = n - 1 if j < 0 else j
            buf.append(q[i:j + 1])
            i = j + 1
        elif c in "[{" and not in_range:
            in_range = True
            buf.append(c)
            i += 1
        elif c in "]}" and in_range:
            in_range = False
            buf.append(c)
            i += 1
        elif c in "()" and not in_range:
            flush()
            toks.append(c)
            i += 1
        elif c.isspace() and not in_range:
            flush()
            i += 1
        else:
            buf.append(c)
            i += 1
    flush()
    return toks


_REGEX_CLAUSE = re.compile(r"(?<![^\s(])[-+]?/[^/\s]+/")


def has_group_syntax(q: str) -> bool:
    """True when the query contains a paren outside quotes (parens inside
    ``/regex/`` clauses are regex syntax, not grouping)."""
    depth_seen = False
    in_quote = False
    for c in _REGEX_CLAUSE.sub(" ", q or ""):
        if c == '"':
            in_quote = not in_quote
        elif c in "()" and not in_quote:
            depth_seen = True
    return depth_seen


def parse_boolean(q: str, analyze, range_fields=RANGE_FIELDS,
                  scored_fields=(), filter_fields=FILTER_FIELDS):
    """Parse a parenthesized boolean query into a clause tree, or return
    ``None`` when the query has no grouping (the flat model applies).

    Grammar (AND binds tighter than OR; adjacency = OR, Lucene's default
    operator; ``NOT x`` / ``-x`` / ``-(...)`` negates)::

        or_expr  := and_expr ((OR | adjacency) and_expr)*
        and_expr := unary (AND unary)*
        unary    := (NOT | -)* ( '(' or_expr ')' | atom )

    Every atom is parsed with :func:`parse_query`, so phrases, filters,
    ranges, boosts, fuzzies and wildcards all work inside groups.  A
    top-level pure-negative query gets Solr's implicit ``*:*`` conjunct.
    """
    if not has_group_syntax(q):
        return None
    toks = _bool_tokens(q or "")
    pos = 0
    _BOOST_TOK = re.compile(r"^\^([0-9]+(?:\.[0-9]+)?)$")

    def peek():
        return toks[pos] if pos < len(toks) else None

    def parse_unary():
        """-> (neg, must, node | None).  ``None`` = empty clause (empty
        group / dangling operator) — dropped by the parent, Lucene-style
        (an empty group must NOT become match-all: it would swallow the
        query under the default OR, e.g. code-search input ``read()``)."""
        nonlocal pos
        neg = False
        must = False
        while peek() in ("NOT", "-", "!", "+"):
            if peek() == "+":
                must = True
            else:
                neg = not neg
            pos += 1
        t = peek()
        if t == "(":
            pos += 1
            inner_neg, node = parse_or()
            if peek() == ")":
                pos += 1
            nxt = peek()
            bm = _BOOST_TOK.match(nxt) if nxt else None
            if bm:
                # group boost (a b)^2: multiply the subtree's scores.
                # Consume the token even for a dropped (empty) group —
                # a dangling '^2' must not re-parse as the term '2'
                pos += 1
                if node is not None:
                    node = BoolNode(
                        "AND", [(False, node)], boost=float(bm.group(1))
                    )
            return neg ^ inner_neg, must, node
        if t is None or t == ")":
            return neg, must, None  # empty clause: dropped by the parent
        pos += 1
        atom = t
        if atom.startswith("-") and len(atom) > 1:
            neg = not neg
            atom = atom[1:]
        elif atom.startswith("+") and len(atom) > 1:
            must = True
            atom = atom[1:]
        parsed = parse_query(atom, analyze, range_fields, scored_fields,
                             filter_fields=filter_fields,
                             inject_no_match=False)
        if parsed.is_match_all and parsed.must_not is None and atom not in (
            "*", "*:*"
        ):
            return neg, must, None  # analyzer-empty atom (punctuation)
        return neg, must, parsed

    def parse_or():
        nonlocal pos
        children = [parse_and_marked()]
        while True:
            t = peek()
            if t in ("OR", "||"):
                pos += 1
                children.append(parse_and_marked())
            elif t is not None and t != ")":
                children.append(parse_and_marked())  # adjacency = OR
            else:
                break
        children = [c for c in children if c[2] is not None]
        if not children:
            return False, None
        must = [c for c in children if c[1] and not c[0]]
        if must:
            # Lucene: MUST clauses in a SHOULD list are required; the
            # remaining SHOULD clauses only contribute score (OPT node:
            # mask-neutral, score-carrying)
            rest = [c for c in children if not (c[1] and not c[0])]
            kids = [(False, c) for _n, _m, c in must]
            pos_rest = [c for n, _m, c in rest if not n]
            neg_rest = [(True, c) for n, _m, c in rest if n]
            if pos_rest:
                inner = (
                    pos_rest[0] if len(pos_rest) == 1
                    else BoolNode("OR", [(False, c) for c in pos_rest])
                )
                kids.append((False, BoolNode("OPT", [(False, inner)])))
            kids.extend(neg_rest)
            return False, BoolNode("AND", kids)
        if len(children) == 1:
            neg, _must, node = children[0]
            return neg, node
        return False, BoolNode("OR", [(n, c) for n, _m, c in children])

    def parse_and_marked():
        """AND-run parser -> (neg, must, node | None); the must flag of a
        single-clause run survives for the enclosing OR's MUST handling
        ('+' inside an AND list is redundant — AND already requires)."""
        nonlocal pos
        start_children = [parse_unary()]
        while peek() in ("AND", "&&"):
            pos += 1
            start_children.append(parse_unary())
        kept = [c for c in start_children if c[2] is not None]
        if not kept:
            return False, False, None
        if len(kept) == 1:
            return kept[0]
        return False, False, BoolNode(
            "AND", [(n, c) for n, _m, c in kept]
        )

    neg, node = parse_or()
    if node is None:
        return ParsedQuery()  # nothing but empty groups: match-all
    if neg:
        # Solr-style implicit *:* for a top-level pure negative
        node = BoolNode("AND", [(False, ParsedQuery()), (True, node)])
    return node
