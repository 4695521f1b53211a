"""Token-filter chains: Solr/Lucene analysis-chain parity (tokenizer ->
filters) for the engine's pinned analyzers.

Reference analogue: the reference's Solr core applies an external analysis
chain (``/root/reference/README.md:25`` -> metno/metsis-solr-configsets;
a stock Solr ``text_en`` field type is tokenizer + StopFilter +
PorterStemFilter).  Our engine owns the chain, configured per index via
``IndexConfig.filters`` and pinned in ``stats.json`` so the build, the
query parser, the brute-force oracle and every shard agree.

Filters:

- ``stop``   : removes tokens in a stop set (default: Lucene's classic
  English set, ``EnglishAnalyzer.ENGLISH_STOP_WORDS_SET`` — 33 words,
  public constant since Lucene 1.x).
- ``porter`` : the Porter stemming algorithm (M.F. Porter, "An algorithm
  for suffix stripping", *Program* 14(3) 1980 — public domain spec),
  implemented from the paper.  Matches Lucene's PorterStemFilter
  semantics (the same 1980 algorithm).

POSITION SEMANTICS (documented deviation): stop-removed tokens vanish
from the position stream entirely — surviving tokens get consecutive
positions (the Lucene ``enablePositionIncrements=false`` analogue, the
pre-4.4 default) rather than leaving gaps.  Consequence: a phrase query
``"quick fox"`` matches the text "quick the fox" on a stop-filtered
index.  This keeps the vectorized position machinery untouched and the
engine, brute-force oracle and SQL oracles exactly consistent; the
modern-Lucene gapped behavior is a possible future ``posinc`` option.

Field norms / doclen count POST-filter tokens (Lucene: norms reflect the
token stream after the analysis chain).
"""

from __future__ import annotations

#: Lucene EnglishAnalyzer.ENGLISH_STOP_WORDS_SET (classic 33-word set).
ENGLISH_STOPWORDS = frozenset(
    "a an and are as at be but by for if in into is it no not of on or "
    "such that the their then there these they this to was will with".split()
)

_VOWELS = "aeiou"


def _cons(w: str, i: int) -> bool:
    """Is w[i] a consonant per Porter's definition (y after a consonant
    is a vowel)?"""
    c = w[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _cons(w, i - 1)
    return True


def _measure(w: str, j: int) -> int:
    """m of the stem w[:j+1] — the number of VC sequences."""
    n = 0
    i = 0
    # skip initial consonants
    while True:
        if i > j:
            return n
        if not _cons(w, i):
            break
        i += 1
    while True:
        # in vowels; find next consonant
        while True:
            if i > j:
                return n
            if _cons(w, i):
                break
            i += 1
        n += 1
        # in consonants; find next vowel
        while True:
            if i > j:
                return n
            if not _cons(w, i):
                break
            i += 1


def _has_vowel(w: str, j: int) -> bool:
    return any(not _cons(w, i) for i in range(j + 1))


def _ends_double_cons(w: str) -> bool:
    return (
        len(w) >= 2 and w[-1] == w[-2] and _cons(w, len(w) - 1)
    )


def _cvc(w: str, j: int) -> bool:
    """stem w[:j+1] ends consonant-vowel-consonant, final cons not w/x/y."""
    if j < 2:
        return False
    if not (_cons(w, j) and not _cons(w, j - 1) and _cons(w, j - 2)):
        return False
    return w[j] not in "wxy"


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
    ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def porter_stem(w: str) -> str:
    """Porter 1980, implemented from the paper; words of length <= 2 are
    returned unchanged (the paper's convention)."""
    if len(w) <= 2:
        return w

    # ---- step 1a -----------------------------------------------------
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # ---- step 1b -----------------------------------------------------
    if w.endswith("eed"):
        if _measure(w, len(w) - 4) > 0:
            w = w[:-1]
    else:
        hit = None
        if w.endswith("ed") and _has_vowel(w, len(w) - 3):
            w = w[:-2]
            hit = True
        elif w.endswith("ing") and _has_vowel(w, len(w) - 4):
            w = w[:-3]
            hit = True
        if hit:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w, len(w) - 1) == 1 and _cvc(w, len(w) - 1):
                w += "e"

    # ---- step 1c -----------------------------------------------------
    if w.endswith("y") and _has_vowel(w, len(w) - 2):
        w = w[:-1] + "i"

    # ---- step 2 (m > 0) ---------------------------------------------
    for suf, rep in _STEP2:
        if w.endswith(suf):
            j = len(w) - len(suf) - 1
            if _measure(w, j) > 0:
                w = w[: j + 1] + rep
            break

    # ---- step 3 (m > 0) ---------------------------------------------
    for suf, rep in _STEP3:
        if w.endswith(suf):
            j = len(w) - len(suf) - 1
            if _measure(w, j) > 0:
                w = w[: j + 1] + rep
            break

    # ---- step 4 (m > 1) ---------------------------------------------
    for suf in _STEP4:
        if w.endswith(suf):
            j = len(w) - len(suf) - 1
            if _measure(w, j) > 1:
                if suf == "ion" and w[j] not in "st":
                    break
                w = w[: j + 1]
            break

    # ---- step 5a -----------------------------------------------------
    if w.endswith("e"):
        j = len(w) - 2
        m = _measure(w, j)
        if m > 1 or (m == 1 and not _cvc(w, j)):
            w = w[:-1]

    # ---- step 5b -----------------------------------------------------
    if w.endswith("ll") and _measure(w, len(w) - 2) > 1:
        w = w[:-1]

    return w


#: memoized term -> stem (vocabularies are Zipfian; same pattern as the
#: identifier-expansion cache in functions/tokenize.py)
_STEM_CACHE: dict = {}
_STEM_CACHE_CAP = 200_000


def _stem_cached(w: str) -> str:
    v = _STEM_CACHE.get(w)
    if v is None:
        v = porter_stem(w)
        if len(_STEM_CACHE) >= _STEM_CACHE_CAP:
            _STEM_CACHE.clear()
        _STEM_CACHE[w] = v
    return v


class FilterChain:
    """Ordered token-filter chain; picklable (state = names + stop list).

    ``map_term`` is the single semantic: term -> term' or None (removed).
    The build applies it to each unit's DISTINCT vocab and remaps token
    ids (O(|vocab|) Python, zero per-token work); the query parser and
    the brute-force oracle apply it per token via ``wrap`` — identical
    results because every filter is a pure per-token function.
    """

    KNOWN = ("stop", "porter")

    def __init__(self, filters=(), stopwords=None):
        filters = tuple(filters)
        for f in filters:
            if f not in self.KNOWN:
                raise KeyError(
                    f"unknown filter {f!r}; known: {self.KNOWN}"
                )
        self.filters = filters
        self.stopwords = (
            frozenset(stopwords) if stopwords is not None
            else ENGLISH_STOPWORDS
        )

    def __bool__(self) -> bool:
        return bool(self.filters)

    # -- serialization (stats.json) ------------------------------------
    def to_stats(self) -> dict:
        out = {"filters": list(self.filters)}
        if self.stopwords != ENGLISH_STOPWORDS:
            out["stopwords"] = sorted(self.stopwords)
        return out

    @classmethod
    def from_stats(cls, stats: dict) -> "FilterChain":
        return cls(
            stats.get("filters", ()) or (),
            stopwords=stats.get("stopwords"),
        )

    # -- semantics ------------------------------------------------------
    def map_term(self, t: str):
        for f in self.filters:
            if f == "stop":
                if t in self.stopwords:
                    return None
            else:  # porter
                t = _stem_cached(t)
        return t

    def map_vocab(self, terms) -> list:
        """term list -> parallel list of mapped terms (None = removed)."""
        return [self.map_term(t) for t in terms]

    def wrap(self, analyzer):
        """Compose an analyzer with this chain (query/oracle side)."""
        if not self.filters:
            return analyzer
        map_term = self.map_term

        def analyze(text: str) -> list:
            out = []
            for t in analyzer(text):
                m = map_term(t)
                if m is not None:
                    out.append(m)
            return out

        return analyze


def apply_chain_to_unit(tids, doclens, terms, chain: FilterChain):
    """Vocab-level chain application over one tokenized unit.

    ``(tids, doclens, terms)`` is ``tokenize_unit``'s output: flat token
    ids in row order, per-row token counts, and the distinct terms as an
    Arrow ``StringArray``.  Without a chain the triple passes through
    untouched (no Python objects).  With one, the chain maps the DISTINCT
    terms (O(|vocab|) Python, the only place the build turns terms into
    ``str``), then token ids remap / drop via numpy — zero per-token
    Python.  Stemming can merge vocab entries; the downstream sort-based
    SPIMI aggregation sums their tfs.  Returns the same triple, the
    vocabulary again as a ``StringArray``; doclens become POST-filter
    counts (Lucene norm semantics) and positions derived downstream are
    consecutive over the surviving stream (see module docstring).
    """
    import numpy as np
    import pyarrow as pa

    if not chain or not len(terms):
        return tids, doclens, terms
    mapped = chain.map_vocab(terms.to_pylist())
    vocab: dict = {}
    remap = np.zeros(len(terms), dtype=np.int64)
    drop = np.zeros(len(terms), dtype=bool)
    for i, m in enumerate(mapped):
        if m is None:
            drop[i] = True
        else:
            v = vocab.get(m)
            if v is None:
                vocab[m] = v = len(vocab)
            remap[i] = v
    new_terms = pa.array(list(vocab), pa.string())
    if not drop.any():
        return remap[tids], doclens, new_terms
    keep = ~drop[tids]
    n = len(doclens)
    row_of = np.repeat(np.arange(n, dtype=np.int64), doclens)
    new_doclens = np.bincount(
        row_of[keep], minlength=n
    ).astype(np.int64)
    return remap[tids][keep], new_doclens, new_terms


class FilteredRegistry:
    """AnalyzerRegistry proxy applying a FilterChain to every analyzer —
    the query/oracle-side counterpart of the build's vocab-level remap."""

    def __init__(self, registry, chain: FilterChain):
        self.registry = registry
        self.chain = chain
        self.default = registry.default
        self.lang_map = registry.lang_map

    def analyzer_name(self, lang):
        return self.registry.analyzer_name(lang)

    def analyzer_for(self, lang):
        return self.chain.wrap(self.registry.analyzer_for(lang))

    def tokenize(self, text: str, lang=None) -> list:
        return self.analyzer_for(lang)(text)
