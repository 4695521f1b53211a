"""Brute-force, single-process, Lucene-faithful BM25 oracle.

Used ONLY in tests (SURVEY.md §5 / FIXTURES.md §3): an independent
implementation — no postings, no varint, no Ray — that tokenizes the corpus
with the same pinned analyzers and scores every document for every query in
plain Python/numpy.  The engine must be **rank-identical** (same doc ids,
same float64 scores, ties by ascending doc_id) to this oracle; the oracle
itself implements the published Lucene BM25 semantics (k1=1.2, b=0.75,
SmallFloat-quantized document lengths, idf = ln(1 + (N-df+0.5)/(df+0.5)),
no (k1+1) numerator per LUCENE-8563).

Reference analogue of the role (not the code): Solr is the reference's
scoring oracle, consumed over HTTP in
``/root/reference/solrindexer/search.py:211-237``.
"""

from __future__ import annotations

import math

import numpy as np

from solr_indexer_ray.functions.queryparse import ParsedQuery, parse_query
from solr_indexer_ray.functions.smallfloat import byte4_to_int, int_to_byte4
from solr_indexer_ray.functions.tokenize import AnalyzerRegistry


class BruteForceBM25:
    """In-memory oracle over a corpus table (pyarrow or dict of lists)."""

    def __init__(self, corpus, k1: float = 1.2, b: float = 0.75,
                 registry: AnalyzerRegistry | None = None, synonyms=None):
        registry = registry or AnalyzerRegistry()
        self.registry = registry
        self.k1, self.b = k1, b
        self.synonyms = {k: sorted(set(v)) for k, v in (synonyms or {}).items()}

        contents = _col(corpus, "content")
        langs = _col(corpus, "lang")
        self.meta = {
            name: _col(corpus, name) for name in ("repo", "path", "commit", "lang")
            if _has_col(corpus, name)
        }
        if _has_col(corpus, "doc_id"):
            self.doc_ids = list(_col(corpus, "doc_id"))
        else:
            self.doc_ids = list(range(len(contents)))

        self.tokens = [
            registry.tokenize(c or "", langs[i]) for i, c in enumerate(contents)
        ]
        self.tf = [
            {t: toks.count(t) for t in set(toks)} for toks in self.tokens
        ]
        self.df: dict = {}
        for tfs in self.tf:
            for t in tfs:
                self.df[t] = self.df.get(t, 0) + 1
        self.n_docs = len(contents)
        self.sum_dl = sum(len(t) for t in self.tokens)
        self.avgdl = self.sum_dl / self.n_docs if self.n_docs else 0.0
        # Lucene lossy norms
        self.dl_decoded = np.array(
            [byte4_to_int(int_to_byte4(len(t))) for t in self.tokens],
            dtype=np.float64,
        )

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def phrase_freq(self, i: int, phrase) -> int:
        """Exact-phrase occurrence count in doc i (Lucene ExactPhraseMatcher)."""
        toks = self.tokens[i]
        n = len(phrase)
        if n == 0 or len(toks) < n:
            return 0
        return sum(
            1
            for p in range(len(toks) - n + 1)
            if toks[p:p + n] == list(phrase)
        )

    def near_freq(self, i: int, terms, slop: int) -> int:
        """Ordered span-near match-start count in doc i: first-term
        positions that begin an in-order chain with span width <= slop
        (greedy earliest-next completion — optimal for ordered chains)."""
        toks = self.tokens[i]
        n = 0
        for a, t in enumerate(toks):
            if t != terms[0]:
                continue
            pos = a
            ok = True
            for nt in terms[1:]:
                nxt = next(
                    (j for j in range(pos + 1, len(toks)) if toks[j] == nt),
                    None,
                )
                if nxt is None:
                    ok = False
                    break
                pos = nxt
            if ok and pos - a - (len(terms) - 1) <= slop:
                n += 1
        return n

    def fuzzy_members(self, word: str, max_edits: int) -> list:
        """Dictionary terms within classic Levenshtein distance — an
        independent full-DP implementation (the engine uses pruned
        capped DP; agreement is part of what the tests check)."""
        def lev(a: str, b: str) -> int:
            prev = list(range(len(b) + 1))
            for x, ca in enumerate(a, 1):
                cur = [x]
                for y, cb in enumerate(b, 1):
                    cur.append(min(
                        prev[y] + 1, cur[-1] + 1,
                        prev[y - 1] + (ca != cb),
                    ))
                prev = cur
            return prev[-1]

        return sorted(
            t for t in self.df
            if abs(len(t) - len(word)) <= max_edits
            and lev(word, t) <= max_edits
        )

    @staticmethod
    def _wild_match(term: str, pattern: str) -> bool:
        import re

        rx = "^" + re.escape(pattern).replace(r"\*", ".*").replace(
            r"\?", "."
        ) + "$"
        return re.match(rx, term) is not None

    def search(self, query: str, k: int = 10):
        """Returns [(doc_id, score), ...] — top-k, ties by ascending doc_id."""
        parsed = parse_query(query, self.registry.analyzer_for(None))
        K = self.k1 * (1.0 - self.b + self.b * self.dl_decoded / self.avgdl)

        def _fmatch(meta_val, v):
            """Filter value match; trailing * prefix-matches (engine rule)."""
            if v.endswith("*") and len(v) > 1:
                return (meta_val or "").startswith(v[:-1])
            return meta_val == v

        hits = []
        q_terms = sorted(set(parsed.terms))
        #: clause order pinned to the engine (_clauses): terms asc,
        #: fuzzies asc, phrases asc, near asc, prefixes, wildcards (the
        #: same float64 addition order); constant-score clauses add exact
        #: 1.0s so their order is immaterial
        q_phrases = sorted(map(tuple, parsed.phrases))
        q_fuzzies = sorted(set(parsed.fuzzies))
        q_near = sorted(parsed.near_phrases)
        q_wild = sorted(set(parsed.wildcards))
        fuzzy_groups = {
            fz: self.fuzzy_members(*fz) for fz in q_fuzzies
        }
        neg = parsed.must_not or ParsedQuery()
        # a prohibited term negates its whole synonym group (Lucene
        # negates the SynonymQuery), like a positive term group
        neg_terms = {m for t in neg.terms
                     for m in (t, *self.synonyms.get(t, ()))}
        neg_fuzzy_groups = [
            self.fuzzy_members(*fz) for fz in sorted(set(neg.fuzzies))
        ]
        need = parsed.scoring_clauses if parsed.conjunctive else 1
        for i in range(self.n_docs):
            if parsed.filters and any(
                not _fmatch(self.meta.get(f, [None] * self.n_docs)[i], v)
                for f, v in parsed.filters
            ):
                continue
            if neg.filters and any(
                _fmatch(self.meta.get(f, [None] * self.n_docs)[i], v)
                for f, v in neg.filters
            ):
                continue
            if parsed.range_filters or neg.range_filters:
                def rf_val(rf):
                    if rf.field == "doclen":
                        return len(self.tokens[i])
                    return self.meta.get(rf.field, [None] * self.n_docs)[i]

                if any(not rf.matches(rf_val(rf))
                       for rf in parsed.range_filters):
                    continue
                if any(rf.matches(rf_val(rf)) for rf in neg.range_filters):
                    continue
            if any(p in self.tf[i] for p in neg_terms):
                continue
            if any(self.phrase_freq(i, ph) for ph in neg.phrases):
                continue
            if any(any(t.startswith(pre) for t in self.tf[i])
                   for pre in neg.prefixes):
                continue
            if any(any(m in self.tf[i] for m in members)
                   for members in neg_fuzzy_groups):
                continue
            if any(any(self._wild_match(t, pat) for t in self.tf[i])
                   for pat in neg.wildcards):
                continue
            if any(self.near_freq(i, list(nt), slop)
                   for nt, slop in neg.near_phrases):
                continue
            nmatch = 0
            score = 0.0
            for t in q_terms:  # ascending-term order — same float order as engine
                if t in self.synonyms:
                    # Lucene SynonymQuery: tf summed, df = max over members
                    group = [t, *self.synonyms[t]]
                    tf = sum(self.tf[i].get(m, 0) for m in dict.fromkeys(group))
                    if tf:
                        nmatch += 1
                        df = max(self.df.get(m, 0) for m in group)
                        w = math.log(
                            1.0 + (self.n_docs - df + 0.5) / (df + 0.5)
                        )
                        b = parsed.boosts.get(t)
                        if b is not None:
                            w *= b
                        score += w * (tf / (tf + K[i]))
                    continue
                tf = self.tf[i].get(t, 0)
                if tf:
                    nmatch += 1
                    c = self.idf(t) * (tf / (tf + K[i]))
                    b = parsed.boosts.get(t)
                    score += c if b is None else c * b
            for fz in q_fuzzies:
                # blended SynonymQuery stats over the fuzzy expansion
                members = fuzzy_groups[fz]
                tf = sum(self.tf[i].get(m, 0) for m in members)
                if tf:
                    nmatch += 1
                    df = max(self.df.get(m, 0) for m in members)
                    w = math.log(
                        1.0 + (self.n_docs - df + 0.5) / (df + 0.5)
                    )
                    b = parsed.fuzzy_boosts.get(fz)
                    if b is not None:
                        w *= b
                    score += w * (tf / (tf + K[i]))
            for ph in q_phrases:
                ptf = self.phrase_freq(i, ph)
                if ptf:
                    nmatch += 1
                    # Lucene PhraseQuery weight: sum of member idfs (dups kept)
                    w = sum(self.idf(t) for t in ph)
                    b = parsed.phrase_boosts.get(ph)
                    if b is not None:
                        w = w * b
                    score += w * (ptf / (ptf + K[i]))
            for nt, slop in q_near:
                ntf = self.near_freq(i, list(nt), slop)
                if ntf:
                    nmatch += 1
                    w = sum(self.idf(t) for t in nt)
                    b = parsed.near_boosts.get((nt, slop))
                    if b is not None:
                        w = w * b
                    score += w * (ntf / (ntf + K[i]))
            for pre in parsed.prefixes:
                # constant-score wildcard: boost (default 1.0) per match
                if any(t.startswith(pre) for t in self.tf[i]):
                    nmatch += 1
                    score += parsed.prefix_boosts.get(pre, 1.0)
            for pat in q_wild:
                if any(self._wild_match(t, pat) for t in self.tf[i]):
                    nmatch += 1
                    score += parsed.wildcard_boosts.get(pat, 1.0)
            if parsed.scoring_clauses:
                if nmatch < need:
                    continue
                hits.append((self.doc_ids[i], score))
            else:
                hits.append((self.doc_ids[i], 0.0))

        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]


def _has_col(corpus, name: str) -> bool:
    try:
        return name in corpus.column_names
    except AttributeError:
        return name in corpus


def _col(corpus, name: str):
    try:
        return corpus[name].to_pylist()
    except AttributeError:
        return corpus[name]
