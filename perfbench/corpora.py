"""Seeded inputs: the two corpora and the query mixes read against them.

``code`` is the repository's own source-code generator
(``sources.corpus.generate_corpus``): about 290 distinct terms, so the whole
vocabulary fits the engine's 1024-entry decoded-postings cache.

``longtail`` is generated here: a Zipf-distributed vocabulary of tens of
thousands of terms, so postings are short and query terms drawn over the
whole vocabulary mostly miss that cache.  Its parameters (vocabulary size,
Zipf exponents, doc count) are returned with the table so every run records
them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from solr_indexer_ray.sources.corpus import (
    _IDENT_STEMS,
    _KEYWORDS,
    LANGS,
    generate_corpus,
)


@dataclass(frozen=True)
class LongtailParams:
    n_docs: int
    vocab_size: int
    zipf_s: float          # exponent of the document term distribution
    query_zipf_s: float    # exponent of the query term distribution
    mean_tokens: int = 60

    def record(self) -> dict:
        return asdict(self)


def _word(i: int) -> str:
    """Bijective base-26 spelling of ``i`` (at least two letters), a single
    token under both the simple and the code analyzer."""
    i += 27
    out = []
    while i:
        i, r = divmod(i - 1, 26)
        out.append(chr(97 + r))
    return "".join(reversed(out))


class Longtail:
    """The long-tail vocabulary of one seed: words in Zipf-rank order (a
    seeded shuffle, so the frequent words are not the short ones) and the
    rank weights for documents and for queries."""

    def __init__(self, p: LongtailParams, seed: int):
        self.p, self.seed = p, seed
        rng = np.random.default_rng([seed, 1])
        self.words = np.array([_word(i) for i in range(p.vocab_size)])[
            rng.permutation(p.vocab_size)
        ]
        ranks = np.arange(1, p.vocab_size + 1, dtype=np.float64)
        self.doc_w = ranks ** -p.zipf_s / (ranks ** -p.zipf_s).sum()
        self.query_w = (ranks ** -p.query_zipf_s
                        / (ranks ** -p.query_zipf_s).sum())

    def corpus(self, n_docs: int, tag: int = 0) -> pa.Table:
        """Corpus-schema table whose content is Zipf-drawn over the
        vocabulary; ``tag`` separates extension batches."""
        rng = np.random.default_rng([self.seed, 2, tag])
        lengths = np.maximum(
            1, rng.lognormal(np.log(self.p.mean_tokens), 0.5, size=n_docs)
        ).astype(np.int64)
        toks = self.words[rng.choice(self.p.vocab_size,
                                     size=int(lengths.sum()), p=self.doc_w)]
        ends = np.cumsum(lengths)
        contents = [" ".join(toks[e - n:e]) for e, n in zip(ends, lengths)]
        langs = rng.integers(0, len(LANGS), size=n_docs)
        repos = rng.integers(0, 40, size=n_docs)
        return pa.table({
            "repo": [f"org{r % 7}/proj{r}" for r in repos],
            "path": [f"t{tag}/doc_{i}.txt" for i in range(n_docs)],
            "commit": [f"{self.seed:x}{tag:x}{i:08x}" for i in range(n_docs)],
            "lang": [LANGS[j] for j in langs],
            "content": contents,
        })

    def reads(self, n: int, stream: int = 0, fq_share: float = 0.2) -> list:
        """2-3 terms per read, Zipf-drawn over the whole vocabulary; every
        fourth read is a conjunction.  ``stream`` gives independent
        draws."""
        rng = np.random.default_rng([self.seed, 4, stream])
        counts = rng.integers(2, 4, size=n)
        terms = self.words[rng.choice(self.p.vocab_size, size=int(counts.sum()),
                                      p=self.query_w)]
        fq_langs = rng.integers(0, len(LANGS), size=n)
        fq_on = rng.random(n) < fq_share
        out, lo = [], 0
        for i, c in enumerate(counts):
            ts = terms[lo:lo + c]
            lo += c
            q = " AND ".join(ts[:2]) if i % 4 == 3 else " ".join(ts)
            fq = (f"lang:{LANGS[fq_langs[i]]}",) if fq_on[i] else ()
            out.append(Read(q, fq))
        return out

    def frequent_query_terms(self, n: int) -> list:
        """The ``n`` most likely query terms."""
        return self.words[:n].tolist()


def code_corpus(n_docs: int, seed: int, with_edge_rows: bool = True,
                mean_tokens: int = 80) -> pa.Table:
    return generate_corpus(n_docs, seed=seed, mean_tokens=mean_tokens,
                           with_edge_rows=with_edge_rows)


def write_parquet(table: pa.Table, path: str, n_units: int) -> str:
    """Write with ``n_units`` row groups (one build unit each)."""
    pq.write_table(table, path,
                   row_group_size=max(64, -(-table.num_rows // n_units)))
    return path


@dataclass(frozen=True)
class Read:
    """One read: a query string plus its filter queries."""
    q: str
    fq: tuple = ()

    def oracle_query(self) -> str:
        """The same match set in one query string: ``fq`` entries are
        metadata filters, which never score, so they fold into ``q``."""
        return " ".join((*self.fq, self.q))

    def terms(self) -> list:
        """Query words, operators and filters left out."""
        return [t.lstrip("-") for t in self.q.split()
                if t != "AND" and ":" not in t]


def code_reads(n: int, seed: int, fq_share: float = 0.2) -> list:
    """bench.py's five query shapes (two keywords/identifier stems,
    three-term OR, in-query ``lang:`` filter, AND, negation), with seeded
    terms, plus a share of reads carrying an ``fq=lang:...`` filter."""
    rng = np.random.default_rng([seed, 3])
    kws = sorted({k for v in _KEYWORDS.values() for k in v if k.isalpha()})
    stems = list(_IDENT_STEMS)
    out = []
    for i in range(n):
        a = kws[int(rng.integers(len(kws)))].lower()
        b, c = (stems[int(j)] for j in rng.choice(len(stems), 2, replace=False))
        q = (f"{a} {b}", f"{b} {c} {a}", f"lang:python {a} {b}",
             f"{b} AND {c}", f"{a} -{c}")[i % 5]
        fq = ()
        # the in-query ``lang:`` shape takes no fq: the oracle folds fq
        # into the query string, where a second ``lang:`` would replace
        # the first
        if rng.random() < fq_share and "lang:" not in q:
            fq = (f"lang:{LANGS[int(rng.integers(len(LANGS)))]}",)
        out.append(Read(q, fq))
    return out
