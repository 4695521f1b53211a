"""Analyzers: pinned tokenization shared by the index build, the query
engine, the brute-force BM25 oracle, and (for the simple analyzer) the
DuckDB oracle SQL.

Reference analogue: the Solr core's analysis chain is external configuration
(``/root/reference/README.md:25`` points at metno/metsis-solr-configsets);
the reference's own in-repo tokenizer precedent is the Sentinel product-title
splitter (``solrindexer/mmd.py:1100-1119``).  Our engine owns the analyzer,
and pins it per ``lang`` via a registry (the extension-surface pattern of the
reference's vocabulary-backend factory, ``solrindexer/vocabulary.py:447-504``).

Two analyzers:

- ``simple``  : ``lower(text)`` split on ``[^a-z0-9]+``.  Exactly mirrors
  DuckDB ``regexp_split_to_array(lower(text), '[^a-z0-9]+')`` so driver-side
  SQL oracles can reproduce it verbatim.
- ``code``    : code-aware — extracts identifier/number tokens, splits
  snake_case and camelCase identifiers into sub-tokens, lowercases.  Used
  for programming-language rows of the corpus (BASELINE.json north_star:
  "code-aware tokenization per lang").
"""

from __future__ import annotations

import re
from typing import Callable

Analyzer = Callable[[str], list]

_SIMPLE_SPLIT = re.compile(r"[^a-z0-9]+")
_SIMPLE_RUN = re.compile(r"[a-z0-9]+")

# identifier-ish or number tokens
_CODE_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")
# boundary between a lower/digit and an upper char: camelCase -> camel Case;
# also splits ALLCaps runs like "HTTPServer" -> "HTTP Server"
_CAMEL_1 = re.compile(r"([a-z0-9])([A-Z])")
_CAMEL_2 = re.compile(r"([A-Z]+)([A-Z][a-z])")


def simple_analyzer(text: str) -> list:
    """Lowercase alnum-run tokenizer (SQL-reproducible)."""
    if not text:
        return []
    toks = _SIMPLE_SPLIT.split(text.lower())
    # split() yields '' at the boundaries; filter them
    return [t for t in toks if t]


#: memoized raw token -> sub-token tuple (including the trivial no-split
#: case).  Identifier vocabularies are small and Zipfian in real code, so
#: the cache hit rate is high and the camel/snake regex work runs once per
#: distinct token per worker.  Bounded: cleared wholesale past the cap.
_EXPAND_CACHE: dict = {}
_EXPAND_CACHE_CAP = 200_000


def _expand_identifier(tok: str) -> list:
    """Camel/snake split of one identifier (uncached pure helper)."""
    split = _CAMEL_2.sub(r"\1 \2", tok)
    split = _CAMEL_1.sub(r"\1 \2", split)
    return [p.lower() for p in split.replace("_", " ").split()]


def code_analyzer(text: str) -> list:
    """Code-aware tokenizer: identifier extraction + camel/snake splitting.

    Every distinct raw token memoizes its expansion (including the
    no-split lowercase case) — identifier vocabularies are Zipfian, so the
    per-token work is one dict hit on the hot path."""
    if not text:
        return []
    out: list = []
    ext = out.extend
    cget = _EXPAND_CACHE.get
    for tok in _CODE_TOKEN.findall(text):
        v = cget(tok)
        if v is None:
            if "_" in tok or not tok.islower():
                v = tuple(_expand_identifier(tok))
            else:
                v = (tok,)
            if len(_EXPAND_CACHE) >= _EXPAND_CACHE_CAP:
                _EXPAND_CACHE.clear()
            _EXPAND_CACHE[tok] = v
        ext(v)
    return out


def token_spans(text: str, analyzer_name: str) -> list:
    """``(start, end, token)`` of each token the analyzer
    ``analyzer_name`` emits from ``text``, in order, where
    ``text[start:end]`` holds the characters the token came from — the
    offsets a highlighter wraps.  ``code`` tokens are the
    ``_CODE_TOKEN`` matches cut at their camel and snake split points;
    any other analyzer is taken as ``simple``: the ``[a-z0-9]`` runs of
    the lowered text, mapped back to ``text`` because lowering can
    change the length (U+0130)."""
    out = []
    if analyzer_name == "code":
        for m in _CODE_TOKEN.finditer(text):
            low, pos = m.group().lower(), 0
            for part in code_analyzer(m.group()):
                j = low.index(part, pos)
                pos = j + len(part)
                out.append((m.start() + j, m.start() + pos, part))
        return out
    low = text.lower()
    src = None  # lowered index -> text index, when lowering moved them
    if len(low) != len(text):
        pieces = [c.lower() for c in text]
        src = [i for i, piece in enumerate(pieces) for _ in piece]
        low = "".join(pieces)
    for m in _SIMPLE_RUN.finditer(low):
        a, b = m.span()
        if src is not None:
            a, b = src[a], src[b - 1] + 1
        out.append((a, b, m.group()))
    return out


#: langs treated as source code by default (FIXTURES.md corpus langs)
CODE_LANGS = frozenset(
    {"python", "java", "go", "javascript", "c", "cpp", "rust", "typescript"}
)


class AnalyzerRegistry:
    """lang -> analyzer resolution, pinned at index-build time.

    Mirrors the reference's string-keyed backend factory pattern
    (``solrindexer/vocabulary.py:447-504``).  Instances are cheap and
    picklable (state = a dict of names), so they ship cleanly into Ray
    tasks; the compiled regexes are module-level.
    """

    ANALYZERS: dict = {"simple": simple_analyzer, "code": code_analyzer}

    def __init__(self, default: str = "simple", overrides: dict | None = None):
        if default not in self.ANALYZERS:
            raise KeyError(f"unknown analyzer {default!r}")
        self.default = default
        self.lang_map = {lang: "code" for lang in CODE_LANGS}
        if overrides:
            self.lang_map.update(overrides)

    def analyzer_name(self, lang) -> str:
        if lang is None:
            return self.default
        return self.lang_map.get(lang, self.default)

    def analyzer_for(self, lang) -> Analyzer:
        return self.ANALYZERS[self.analyzer_name(lang)]

    def tokenize(self, text: str, lang=None) -> list:
        return self.analyzer_for(lang)(text)


def register_analyzer(name: str, fn: Analyzer) -> None:
    """User-extension hook (reference analogue: vocabulary backend plugin)."""
    AnalyzerRegistry.ANALYZERS[name] = fn


# --------------------------------------------------------------------- #
# vectorized whole-unit tokenization — the build-side hot path.  An ASCII
# block is cut into word runs, the runs are dictionary-encoded, and the
# numpy byte kernel tokenizes each distinct run once; a non-ASCII block
# falls back to Arrow RE2 kernels.  No per-token Python either way.  The
# per-row analyzers above stay the reference implementation (query parse,
# oracle, phrase eval); equality is pinned by tests/test_tokenize.py.
# --------------------------------------------------------------------- #

#: RE2 pre-passes that turn ``code_analyzer`` into "lower + split on
#: non-alnum" applied to the whole text at once:
#:   1. a token-INITIAL digit run followed by a letter/_ splits
#:      (findall's ``[0-9]+`` alternative; mid-identifier digits don't)
#:   2-3. camel boundaries (ALLCapsWord, lowerUpper) — identical to the
#:      per-identifier ``_expand_identifier`` regexes; safe globally
#:      because both patterns require adjacency, which never spans a
#:      separator
_CODE_PREPASS = (
    (r"(^|[^A-Za-z0-9_])([0-9]+)([A-Za-z_])", r"\1\2 \3"),
    (r"([A-Z]+)([A-Z][a-z])", r"\1 \2"),
    (r"([a-z0-9])([A-Z])", r"\1 \2"),
)


def _block_bytes(texts):
    """A block's utf-8 bytes, without a copy -> (the data buffer, the
    byte position of the block's first row in it, int64 row offsets
    relative to that position, the block's bytes as a uint8 view).
    Nulls read as empty rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    if pa.types.is_large_string(texts.type):
        texts = texts.cast(pa.string())
    buffers = texts.buffers()
    offs = np.frombuffer(buffers[1], dtype=np.int32)[
        texts.offset:texts.offset + len(texts) + 1
    ].astype(np.int64)
    raw = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] else (
        np.empty(0, np.uint8)
    )
    base = int(offs[0])
    return buffers[2], base, offs - base, raw[base:offs[-1]]


def _tokenize_block_bytes(texts, analyzer_name: str):
    """The ASCII byte kernel: a block of ASCII texts tokenizes as
    vectorized numpy passes over the raw utf-8 buffer — boundary masks
    (camel splits, token-initial digit runs, separators) computed on
    shifted byte-class arrays, token bytes gathered once, then ONE Arrow
    dictionary_encode.  No per-token Python objects anywhere.  Byte-exact
    with the per-row analyzers for ASCII input (property-tested).  The
    build runs it over a block's distinct word runs
    (:func:`_tokenize_block_arrow`), not over the block itself.
    """
    import numpy as np
    import pyarrow as pa

    _, _, offs, buf = _block_bytes(texts)
    nrows = len(offs) - 1
    total = int(buf.size)
    if total == 0:
        return _empty_block(nrows)
    # row boundaries as flag arrays (no padded copy): tokens never span
    # rows because ``start`` is forced at row starts, and the lookahead
    # rules are suppressed at row-last positions
    is_row_start = np.zeros(total, dtype=bool)
    is_row_start[offs[:-1][offs[:-1] < total]] = True
    is_row_start[0] = True

    is_up = (buf >= 65) & (buf <= 90)
    is_lo = (buf >= 97) & (buf <= 122)
    is_dig = (buf >= 48) & (buf <= 57)
    lowered = np.where(is_up, buf | 0x20, buf)

    if analyzer_name == "code":
        is_us = buf == 95
        word = is_up | is_lo | is_dig | is_us
        tokchar = is_up | is_lo | is_dig  # '_' separates after extraction
        # camel1: lower/digit followed by upper
        split = np.zeros(total, dtype=bool)
        split[1:] = is_up[1:] & (is_lo[:-1] | is_dig[:-1])
        # camel2: UPPER+ then UPPER lower -> boundary before the last
        # UPPER; the i+1 lookahead must not cross into the next row
        c2 = np.zeros(total, dtype=bool)
        c2[1:-1] = (
            is_up[1:-1] & is_lo[2:] & is_up[:-2] & ~is_row_start[2:]
        )
        split |= c2
        # token-initial digit run followed by letter/_ (findall's [0-9]+
        # alternative): O(#digit-runs) — run starts/ends via adjacent
        # flags, "token-initial" read at each run's start only
        d_start = is_dig.copy()
        d_start[1:] = is_dig[1:] & (~is_dig[:-1] | is_row_start[1:])
        d_end = is_dig.copy()
        d_end[:-1] = is_dig[:-1] & (~is_dig[1:] | is_row_start[1:])
        S = np.flatnonzero(d_start)
        if S.size:
            E = np.flatnonzero(d_end)
            initial = is_row_start[S] | ~word[np.maximum(S - 1, 0)]
            after = E + 1  # candidate split position after each run
            ok = (
                initial
                & (after < total)
            )
            after = after[ok]
            ok2 = (
                ~is_row_start[after]
                & (is_up[after] | is_lo[after] | is_us[after])
            )
            split[after[ok2]] = True
    else:
        tokchar = is_lo | is_dig | is_up  # upper lowers to a-z
        split = np.zeros(total, dtype=bool)

    start = tokchar & (split | is_row_start)
    start[1:] |= tokchar[1:] & ~tokchar[:-1]
    tok_starts = np.flatnonzero(start)
    if tok_starts.size == 0:
        return _empty_block(nrows)
    end_flag = tokchar.copy()
    end_flag[:-1] = tokchar[:-1] & (
        ~tokchar[1:] | start[1:]
    )
    tok_ends = np.flatnonzero(end_flag)
    tok_lens = tok_ends - tok_starts + 1

    # gather token bytes: token spans are non-overlapping, ascending, and
    # tile the ``tokchar`` positions exactly (splits only cut runs, they
    # never drop bytes), so the concatenated token bytes are ONE boolean
    # compress — no nvals-sized fancy-index array (which cost 8 bytes of
    # index per payload byte and dominated this kernel's wall time)
    ntok = int(tok_starts.size)
    vals = lowered[tokchar]
    off32 = np.zeros(ntok + 1, dtype=np.int32)
    np.cumsum(tok_lens, out=off32[1:])
    sa = pa.StringArray.from_buffers(
        ntok,
        pa.py_buffer(off32.tobytes()),
        pa.py_buffer(vals.tobytes()),
    )
    enc = sa.dictionary_encode()
    tids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # doclens: tokens starting inside each row's byte span
    doclens = np.diff(np.searchsorted(tok_starts, offs)).astype(np.int64)
    return tids, doclens, enc.dictionary


def _empty_block(nrows: int):
    import numpy as np
    import pyarrow as pa

    return (np.empty(0, np.int64), np.zeros(nrows, np.int64),
            pa.array([], pa.string()))


def _tokenize_runs(data, base: int, offs, buf, analyzer_name: str):
    """``_tokenize_block_arrow`` for an ASCII block, tokenizing each
    distinct word run once.

    A run starts at every word start and at every row start and ends at
    the next run start: a word's bytes plus the separators after them,
    or a row's leading separators.  The analyzers' rules (camel
    splits, token-initial digit runs, ``_``) only look at adjacent bytes
    of one word, and every run follows a separator or a row start, so a
    run tokenizes alone as it does in place.  The runs are one zero-copy
    ``StringArray`` over the block's bytes, dictionary-encoded once; the
    byte kernel runs over the distinct runs, in first-appearance order,
    so token ids and vocabulary order are the whole block's; the runs'
    token lists then expand back to every occurrence.
    """
    import numpy as np
    import pyarrow as pa

    # word bytes: ASCII letters ((b | 0x20) - 97 wraps below 'a'),
    # digits, and '_' for code
    word = (buf | 0x20) - 97 < 26
    word |= buf - 48 < 10
    if analyzer_name == "code":
        word |= buf == 95
    total = int(buf.size)
    start = np.empty(total, dtype=bool)
    start[0] = True
    np.greater(word[1:], word[:-1], out=start[1:])
    start[offs[:-1][offs[:-1] < total]] = True
    starts = np.flatnonzero(start)
    run_offs = np.empty(starts.size + 1, dtype=np.int32)
    run_offs[:-1] = starts + base
    run_offs[-1] = total + base
    enc = pa.StringArray.from_buffers(
        int(starts.size), pa.py_buffer(run_offs), data
    ).dictionary_encode()
    run_tids, run_lens, vocab = _tokenize_block_bytes(
        enc.dictionary, analyzer_name
    )
    # every occurrence takes its distinct run's token list: one Arrow
    # list take (half the time of a numpy repeat + arange gather)
    list_offs = np.zeros(run_lens.size + 1, dtype=np.int32)
    np.cumsum(run_lens, out=list_offs[1:])
    occ = pa.ListArray.from_arrays(
        pa.array(list_offs), pa.array(run_tids)
    ).take(enc.indices)
    ends = occ.offsets.to_numpy(zero_copy_only=False)
    tids = occ.flatten().to_numpy(zero_copy_only=False)
    # a row's tokens are its runs': token ends at each row's first run
    doclens = np.diff(ends[np.searchsorted(starts, offs)]).astype(np.int64)
    return tids, doclens, vocab


def _tokenize_block_arrow(texts, analyzer_name: str):
    """One analyzer over a block of texts -> (flat token ids int64,
    per-row token counts int64, vocab terms in first-appearance order as
    an Arrow ``StringArray``).

    An ASCII block is cut into word runs (:func:`_tokenize_runs`) and the
    byte kernel tokenizes each distinct run once; a non-ASCII block runs
    Arrow RE2 kernels (replaces, utf8_lower, regex split, dictionary
    encode).  Each analyzer maps some characters first, so the block
    tokenizes as the per-row analyzer does: ``code_analyzer`` finds ASCII
    identifiers before it lowers, so every non-ASCII character is a
    separator (U+212A would otherwise lower to ``k``); ``str.lower``
    turns U+0130 into ``i`` plus the non-ASCII U+0307, where
    ``utf8_lower`` gives a bare ``i``.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    data, base, offs, buf = _block_bytes(texts)
    if buf.size == 0:
        return _empty_block(len(offs) - 1)
    if int(buf.max()) < 128:
        return _tokenize_runs(data, base, offs, buf, analyzer_name)
    arr = pc.fill_null(texts, "")
    if analyzer_name == "code":
        arr = pc.replace_substring_regex(arr, pattern="[^\\x00-\\x7f]",
                                         replacement=" ")
        for pat, repl in _CODE_PREPASS:
            arr = pc.replace_substring_regex(
                arr, pattern=pat, replacement=repl
            )
    else:
        arr = pc.replace_substring(arr, pattern="\u0130", replacement="i ")
    arr = pc.utf8_lower(arr)
    lists = pc.split_pattern_regex(arr, pattern="[^a-z0-9]+")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - offsets[0]
    # split() emits '' at run boundaries; drop them and re-count per row
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    csum = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
    doclens = csum[offsets[1:]] - csum[offsets[:-1]]
    kept = flat.filter(pa.array(keep))
    enc = kept.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    tids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return tids, doclens, enc.dictionary.cast(pa.string())


_BUILTIN = frozenset({"simple", "code"})


def _tokenize_rows_python(texts, rows, analyze):
    """A plugin analyzer over ``texts[rows]``, one row at a time ->
    ``_tokenize_block_arrow``'s triple for just those rows."""
    import numpy as np
    import pyarrow as pa

    vocab: dict = {}
    ids: list = []
    lens = np.zeros(len(rows), dtype=np.int64)
    for j, r in enumerate(rows):
        toks = analyze(texts[int(r)].as_py() or "")
        ids.extend(vocab.setdefault(t, len(vocab)) for t in toks)
        lens[j] = len(toks)
    return (np.asarray(ids, dtype=np.int64), lens,
            pa.array(list(vocab), pa.string()))


def tokenize_unit(texts, langs, registry: AnalyzerRegistry):
    """Vectorized whole-unit tokenization honoring per-lang analyzer
    routing -> (flat token ids in ROW order, per-row doclens, the unit's
    vocabulary as an Arrow ``StringArray`` indexed by token id).

    Rows route to one block per analyzer, in sorted analyzer-name order:
    the built-in analyzers tokenize as Arrow/numpy blocks, a plugin
    analyzer runs per row in Python for just its rows.  The unit's
    vocabulary is the blocks' vocabularies concatenated and dictionary
    encoded, so term ids are in first-appearance order over the blocks
    (deterministic; the spill order depends on it) and the encoding's
    indices remap each block's ids.  One offset computation scatters
    the block tokens back into row order."""
    import numpy as np
    import pyarrow as pa

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if not n:
        return _empty_block(n)
    # route per distinct lang: dictionary-encode the column and map each
    # of its few values (and null) to an analyzer once
    enc = langs
    if not isinstance(enc, (pa.Array, pa.ChunkedArray)):
        enc = pa.array(list(enc))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    enc = enc.dictionary_encode()
    per_value = [registry.analyzer_name(v)
                 for v in [*enc.dictionary.to_pylist(), None]]
    distinct = sorted(set(per_value))
    code = np.array([distinct.index(a) for a in per_value], dtype=np.int64)
    names = code[enc.indices.fill_null(len(per_value) - 1).to_numpy(
        zero_copy_only=False)]
    used = np.unique(names)
    if used.size == 1 and distinct[used[0]] in _BUILTIN:
        return _tokenize_block_arrow(texts, distinct[used[0]])

    row_parts, tid_parts, len_parts, vocab_parts = [], [], [], []
    base = 0
    for k in used:
        name = distinct[k]
        rows = np.flatnonzero(names == k)
        if name in _BUILTIN:
            tids, lens, terms = _tokenize_block_arrow(
                texts.take(pa.array(rows)), name
            )
        else:
            tids, lens, terms = _tokenize_rows_python(
                texts, rows, registry.ANALYZERS[name]
            )
        row_parts.append(rows)
        tid_parts.append(tids + base)
        len_parts.append(lens)
        vocab_parts.append(terms)
        base += len(terms)
    enc = pa.concat_arrays(vocab_parts).dictionary_encode()
    remap = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    rows = np.concatenate(row_parts)
    lens = np.concatenate(len_parts)
    doclens = np.zeros(n, dtype=np.int64)
    doclens[rows] = lens
    row_start = np.cumsum(doclens) - doclens
    # block token k of row r lands at row_start[r] + (k - its block start)
    ntok = int(lens.sum())
    dest = np.repeat(row_start[rows] - (np.cumsum(lens) - lens), lens)
    dest += np.arange(ntok, dtype=np.int64)
    flat = np.empty(ntok, dtype=np.int64)
    flat[dest] = remap[np.concatenate(tid_parts)]
    return flat, doclens, enc.dictionary
