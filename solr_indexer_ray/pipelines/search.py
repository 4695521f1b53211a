"""BM25 top-k query engine over the built index.

Reference analogue: the ``searchindex`` CLI (``/root/reference/
solrindexer/search.py``) — query (default BM25 relevance ranking, rows=10),
field projection ``fl``, realtime get by id (``solrindexer/tools.py:68-85``),
delete by id / by query (``solrindexer/search.py:201-209, 306-328``).  Solr
performs the ranking there; here the engine scores natively:

- **Scoring model** (Lucene/Solr BM25, k1=1.2 b=0.75; LUCENE-8563 form
  without the rank-neutral (k1+1) numerator constant):
  ``idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5))``,
  ``score(d) = Σ_t idf(t) · tf/(tf + k1·(1 − b + b·dl(d)/avgdl))``
  with ``dl(d)`` the **lossy SmallFloat-decoded** length and
  ``avgdl = sumTotalTermFreq/docCount`` exact — the quantization Lucene
  applies, required for rank-identity (SURVEY.md §7.0).
  Ties broken by ascending doc_id.  Per-doc term contributions are summed
  in ascending-term order in *every* scorer (TAAT, oracle) so float64
  results are bit-identical across them.

- **Scorer** — vectorized term-at-a-time: a dense numpy score
  accumulator per doc range (numpy kernels, no per-doc Python).  At
  10^12-doc scale the same engine runs once per doc-range partition, fed
  the whole index's statistics, and the per-range top-k lists k-way merge
  (the doc-range layout from the build makes that fan-out trivial).

Term lookup goes through a resident term dictionary (:class:`_TermDict`)
that knows each term's postings rows by file and row position; a read
slices those rows out of row groups kept decompressed in memory, shared
by every engine of the process (:class:`_PostingsFile`), so only a row
group's first read touches parquet.  A commit costs only what it wrote:
``SearchEngine.refresh()`` keeps everything derived from the files the
commit left alone (docs state, dictionary shards, decoded postings,
filter masks) and reads only new or rewritten files.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import itertools
import math
import os
import re
import sys
import threading
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from solr_indexer_ray.functions.hashing import term_shard
from solr_indexer_ray.functions.queryparse import (
    BoolNode,
    ParsedQuery,
    SpatialFilter,
    has_group_syntax,
    parse_boolean,
    parse_query,
    resolve_min_should_match,
)
from solr_indexer_ray.functions.smallfloat import DECODE_TABLE
from solr_indexer_ray.functions.varint import varint_decode
from solr_indexer_ray.state.manifest import BuildManifest, segment_range

STORED_FIELDS = ["doc_id", "repo", "path", "commit", "lang", "sha256", "doclen"]

#: terms synthesized into the shared postings dictionary — field-prefixed
#: terms ("fld\x1fterm") and next-word pairs ("a\x1eb") — excluded from
#: every user-facing dictionary scan (terms / luke / suggest; wildcard
#: expansion uses the pre-filtered sorted dictionary)
_SYNTHETIC_TERM_RE = "[\x1e\x1f]"

#: Solr fl field-transformer entry, ``field:[json]`` / ``field:[xml]``
#: (reference ``solrindexer/search.py:46-47``).
_FL_TRANSFORMER_RE = re.compile(r"^([A-Za-z_][\w.]*):\[(json|xml)\]$")


def _typed_range_expr(schema, rf):
    """Lucene range filter -> pyarrow dataset expression (row-group
    stats prune on the sorted/stored column).  Bounds are typed from
    the docs schema: timestamp columns parse Solr-style datetime
    literals (strict ``YYYY-MM-DDTHH:MM:SSZ`` plus the reference's
    lenient forms, ``solrindexer/tools.py:150-193``), integer/float
    columns parse numerics, strings compare raw."""
    lo, hi = rf.bounds()
    if rf.field in schema.names:
        typ = schema.field(rf.field).type
        if pa.types.is_timestamp(typ):
            lo, hi = _parse_ts_bound(rf, lo), _parse_ts_bound(rf, hi)
        elif pa.types.is_integer(typ):
            lo = int(lo) if lo is not None else None
            hi = int(hi) if hi is not None else None
        elif pa.types.is_floating(typ):
            lo = float(lo) if lo is not None else None
            hi = float(hi) if hi is not None else None
    f = pc.field(rf.field)
    expr = None
    if lo is not None:
        e = (f >= lo) if rf.lo_incl else (f > lo)
        expr = e
    if hi is not None:
        e = (f <= hi) if rf.hi_incl else (f < hi)
        expr = e if expr is None else expr & e
    if expr is None:  # [* TO *]: any non-null value
        expr = f.is_valid()
    return expr


def _spatial_pred_expr(sf: "SpatialFilter"):
    """Pyarrow scan expression for one envelope predicate.

    Doc envelopes are four stored numeric columns
    ``{field}_west/_east/_south/_north`` (the reference's
    ``ENVELOPE(minX, maxX, maxY, minY)`` unpacked — produced by the same
    bbox extraction, ``solrindexer/spatial.py:86-112``).  Antimeridian
    handling: a crossing QUERY envelope splits into two plain envelopes
    (Intersects only — Solr's RPT grid does the same decomposition); a
    crossing DOC envelope (``west > east``) is handled with pure boolean
    algebra so the whole predicate stays a parquet scan filter
    (row-group prunable on the bbox column statistics).
    """
    w, e = pc.field(f"{sf.field}_west"), pc.field(f"{sf.field}_east")
    s, n = pc.field(f"{sf.field}_south"), pc.field(f"{sf.field}_north")
    doc_plain = w <= e

    if sf.op == "Intersects":
        if sf.crosses_dateline:
            left = SpatialFilter(sf.field, "Intersects", sf.west, 180.0,
                                 sf.south, sf.north)
            right = SpatialFilter(sf.field, "Intersects", -180.0, sf.east,
                                  sf.south, sf.north)
            return _spatial_pred_expr(left) | _spatial_pred_expr(right)
        lat_ok = (n >= sf.south) & (s <= sf.north)
        lon_plain = (e >= sf.west) & (w <= sf.east)
        lon_cross = (e >= sf.west) | (w <= sf.east)
        return lat_ok & ((doc_plain & lon_plain) | (~doc_plain & lon_cross))
    if sf.crosses_dateline:
        raise ValueError(
            f"{sf.op} with an antimeridian-crossing query envelope is "
            "not supported (decompose the query into two envelopes)"
        )
    if sf.op == "IsWithin":
        # doc within query: a crossing doc is never within a plain query
        return (
            doc_plain & (w >= sf.west) & (e <= sf.east)
            & (s >= sf.south) & (n <= sf.north)
        )
    if sf.op == "Contains":
        # doc contains query: a crossing doc covers [west,180] ∪ [-180,east]
        lat_ok = (s <= sf.south) & (n >= sf.north)
        lon_plain = (w <= sf.west) & (e >= sf.east)
        lon_cross = (w <= sf.west) | (e >= sf.east)
        return lat_ok & ((doc_plain & lon_plain) | (~doc_plain & lon_cross))
    raise ValueError(f"unknown spatial predicate {sf.op!r}")


def _spatial_columns(sf: "SpatialFilter") -> list:
    """The four stored bbox columns of a spatial filter's field."""
    return [f"{sf.field}_{p}" for p in ("west", "east", "south", "north")]


def _spatial_nonmatch_expr(sf: "SpatialFilter"):
    """Docs failing a positive spatial filter: predicate false OR any bbox
    column null (a doc without an envelope never matches a positive
    spatial query; plain ``~expr`` is null-for-null and would let such
    rows slip through a scan filter)."""
    null_any = None
    for p in ("west", "east", "south", "north"):
        e = pc.field(f"{sf.field}_{p}").is_null()
        null_any = e if null_any is None else null_any | e
    return ~_spatial_pred_expr(sf) | null_any


def _parse_ts_bound(rf, bound):
    """Type a datetime range bound: Solr strict format or any form the
    reference's lenient parser accepts (``solrindexer/tools.py:150-193``)."""
    if bound is None:
        return None
    from datetime import datetime

    if isinstance(bound, datetime):
        return bound
    from solr_indexer_ray.functions.normalize import parse_date

    strict = parse_date(str(bound))
    if strict is None:
        raise ValueError(
            f"cannot parse datetime bound {bound!r} for field {rf.field!r}"
        )
    return datetime.strptime(strict, "%Y-%m-%dT%H:%M:%SZ")


def _prefix_upper(p: str) -> str | None:
    """Smallest string strictly greater than every string with prefix
    ``p`` (for bisecting a sorted term array); None when no such string
    exists (``p`` is all U+10FFFF)."""
    for k in range(len(p) - 1, -1, -1):
        c = ord(p[k])
        if c < 0x10FFFF:
            return p[:k] + chr(c + 1)
    return None


def _fuzzy_scan(word: str, terms: list, cap: int) -> list:
    """All ``terms`` within ``cap`` Levenshtein edits of ``word``, as
    ``(index, distance)`` pairs in term order.

    ``terms`` MUST be sorted ascending: the scan is a Levenshtein-
    automaton-style walk of the implicit trie the sorted array spells
    out — DP rows are shared across the common prefix of consecutive
    terms, and when every cell of a prefix row exceeds ``cap`` the whole
    subtree (the contiguous run of terms sharing that prefix) is skipped
    with one bisect.  Visits O(live trie nodes × |word|) cells instead
    of O(|vocab| × |word|²), which is what makes adversarial
    vocabularies (thousands of genuinely-near identifiers that survive
    every exact prefilter) fast.  Replaces the reference's delegation to
    Lucene's FST-backed FuzzyTermsEnum
    (/root/reference/solrindexer/search.py spellcheck params).
    """
    n = len(word)
    if n == 0:
        return []
    out = []
    rows = [list(range(n + 1))]  # rows[d] = DP row for term prefix t[:d]
    prev = ""
    i, nv = 0, len(terms)
    while i < nv:
        t = terms[i]
        # shared-prefix length with the previous walked prefix
        lcp = 0
        lim = min(len(t), len(prev), len(rows) - 1)
        while lcp < lim and t[lcp] == prev[lcp]:
            lcp += 1
        del rows[lcp + 1:]
        doomed = -1
        for d in range(lcp, len(t)):
            p = rows[-1]
            c = t[d]
            cur = [d + 1]
            best = d + 1
            for j in range(1, n + 1):
                v = p[j] + 1
                w2 = cur[j - 1] + 1
                if w2 < v:
                    v = w2
                w3 = p[j - 1] + (c != word[j - 1])
                if w3 < v:
                    v = w3
                cur.append(v)
                if v < best:
                    best = v
            rows.append(cur)
            if best > cap:
                doomed = d + 1
                break
        if doomed >= 0:
            prev = t[:doomed]
            up = _prefix_upper(prev)
            i = bisect.bisect_left(terms, up, i + 1) if up else nv
            continue
        dist = rows[-1][n]
        if dist <= cap:
            out.append((i, dist))
        prev = t
        i += 1
    return out


def _scatter_add(dst, ids, val):
    """``dst[ids] += val`` for UNIQUE ids — chunked across the shared
    pool for big postings (gather/add/scatter release the GIL, and
    unique ids make chunk writes disjoint, so the result is bit-exact
    regardless of chunk order).  ``val`` is an array aligned with
    ``ids`` or a scalar."""
    from solr_indexer_ray.functions.parpool import CHUNK, n_chunks, pool

    if ids.size < 2 * CHUNK:
        dst[ids] += val
        return
    k = n_chunks(ids.size)
    pts = np.linspace(0, ids.size, k + 1).astype(np.int64)
    scalar = np.ndim(val) == 0

    def work(i):
        sl = ids[pts[i]:pts[i + 1]]
        dst[sl] += val if scalar else val[pts[i]:pts[i + 1]]

    list(pool().map(work, range(k)))


def _count_hits(seen, ids) -> None:
    """Count one clause hit for each of the UNIQUE ``ids``.  A bool
    ``seen`` (one clause required) only marks them: a scatter, about a
    third of the cost of an increment's gather, add and scatter."""
    if seen.dtype == bool:
        seen[ids] = True
    else:
        _scatter_add(seen, ids, 1)


def _leaves(parsed, negated: bool = False) -> list:
    """The flat leaf queries of a prepared query: itself when it is
    flat, else its boolean clause tree's leaves outside every negated
    subtree (``negated=True``: inside them too, and each leaf's
    ``must_not`` query after it)."""
    def walk(node):
        if isinstance(node, BoolNode):
            return [leaf for neg, child in node.children
                    if negated or not neg for leaf in walk(child)]
        if negated and node.must_not is not None:
            return [node, node.must_not]
        return [node]

    return walk(parsed if parsed.tree is None else parsed.tree)


def _one_array(col: pa.ChunkedArray) -> pa.Array:
    """``col`` as one contiguous array (zero-copy when it has one chunk):
    ``take`` on a many-chunk column pays per call what this pays once."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _select_topk(cand, s, k):
    """Exact top-k ``(ids, scores)`` arrays with (-score, doc_id)
    tie-break: find the k-th score, keep everything >= it (boundary ties
    resolved by doc_id, not by argpartition's arbitrary choice), then
    lexsort."""
    if k <= 0:  # Solr rows=0
        return _NO_HITS
    if cand.size > k:
        # ascending partition at n-k = k-th LARGEST without the
        # negated copy the (-s, k-1) form allocated per query
        kth = np.partition(s, s.size - k)[s.size - k]
        idx = np.flatnonzero(s >= kth)
        order = np.lexsort((cand[idx], -s[idx]))[:k]
        sel = idx[order]
    else:
        sel = np.lexsort((cand, -s))
    return (cand[sel].astype(np.int64, copy=False),
            s[sel].astype(np.float64, copy=False))


#: the empty hit list: ``(ids, scores)`` as every collector returns them
_NO_HITS = (np.empty(0, np.int64), np.empty(0, np.float64))


def _after_cursor(ids, scores, after):
    """The hits of ``(ids, scores)`` strictly after the cursor ``after =
    (score, doc_id)`` in (-score, doc_id) ranking order (Solr
    cursorMark)."""
    cs, cid = after
    keep = (scores < cs) | ((scores == cs) & (ids > cid))
    return ids[keep], scores[keep]


def _gather_segments(flat, starts, lengths):
    """Gather multiple [start, start+length) slices of ``flat`` into one
    array (vectorized multi-segment take — no per-segment Python loop)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    out_offsets = np.concatenate(([0], np.cumsum(lengths)))
    if total == 0:
        return np.empty(0, dtype=flat.dtype), out_offsets
    # one repeat of the per-segment DELTA (start − output offset) instead
    # of repeating starts and offsets separately — halves the repeat cost
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        np.asarray(starts, dtype=np.int64) - out_offsets[:-1], lengths
    )
    return flat[idx], out_offsets


def _run_lengths(vals):
    """(unique values, run lengths) of a SORTED int array — grouped
    counts without a hash table or a doc-space-sized bincount."""
    if vals.size == 0:
        return vals, np.empty(0, np.int64)
    cut = np.flatnonzero(vals[1:] != vals[:-1]) + 1
    starts = np.concatenate(([0], cut))
    ends = np.concatenate((cut, [vals.size]))
    return vals[starts], ends - starts


def _par_chunked(fn, arr):
    """Apply an element-independent array kernel ``fn`` to chunks of
    ``arr`` on the shared thread pool (``functions.parpool``) and
    concatenate the results.

    numpy's searchsorted / gather / compress kernels release the GIL,
    and per-probe binary search over a block-cache-missing int64
    stream is memory-latency-bound, so chunking scales ~3-4× on 8
    threads (measured).  Small inputs take the plain call — the pool
    exists for the single-query latency path (phrase/proximity
    membership over common-term position-key streams), where one pass
    is tens of megabytes; per-range distributed slices stay under the
    threshold and never pay the dispatch overhead."""
    from solr_indexer_ray.functions.parpool import CHUNK, n_chunks, pool

    if arr.size < 2 * CHUNK:
        return fn(arr)
    return np.concatenate(list(
        pool().map(fn, np.array_split(arr, n_chunks(arr.size)))
    ))


def _par_searchsorted(target, probes, side="left"):
    """``np.searchsorted`` with a large probe array chunked across the
    shared thread pool (see :func:`_par_chunked`)."""
    return _par_chunked(
        lambda c: np.searchsorted(target, c, side=side), probes
    )


def _sorted_isin(a, b):
    """Membership of ``a`` in SORTED array ``b`` (both int64) — the
    searchsorted form of np.isin, O((|a|+|b|)·log|b|) with no re-sort."""
    if b.size == 0 or a.size == 0:
        return np.zeros(a.size, dtype=bool)
    pos = _par_searchsorted(b, a)
    pos[pos == b.size] = b.size - 1
    return b[pos] == a


def _sorted_intersect(a, b):
    """Intersection of two SORTED unique int64 arrays — the binary-search
    form of ``np.intersect1d(assume_unique=True)``: probes the smaller
    side into the larger, no concatenate-and-resort."""
    if a.size > b.size:
        a, b = b, a
    return a[_sorted_isin(a, b)]


def _phrase_survivors(keys, phrase):
    """Surviving anchor-offset keys of an exact phrase over per-term
    global position-key streams (``doc·stride + position``, sorted).

    Anchors on the member with the FEWEST occurrences so the candidate
    set is smallest from the start (checks at other offsets only ever
    shrink it); offsets are taken relative to the anchor, and the
    per-doc phrase count is offset-invariant.  A start survives when
    ``anchor_key + (i − a)`` is present in member ``i``'s stream for
    every offset — plain sorted-membership checks, no per-doc Python.
    The single shared core of :func:`_phrase_freqs` and
    ``SearchEngine._phrase_match_keys`` (the two layouts differ only in
    how keys are built and how the surviving keys are reduced to
    freqs)."""
    order = sorted(range(len(phrase)), key=lambda i: keys[phrase[i]].size)
    a = order[0]
    cand = keys[phrase[a]]
    for i in order[1:]:
        ks, off = keys[phrase[i]], i - a

        def work(c, ks=ks, off=off):
            # offset + membership + compress fused per chunk so the
            # whole pass (not just the binary search) runs threaded
            if ks.size == 0 or c.size == 0:
                return c[:0]
            p = c + off
            pos = np.searchsorted(ks, p)
            pos[pos == ks.size] = ks.size - 1
            return c[ks[pos] == p]

        cand = _par_chunked(work, cand)
        if cand.size == 0:
            break
    return cand


def _chain_survivors(keys, terms, slop, starts, stride):
    """Surviving START keys of the greedy earliest-next ordered chain
    (Lucene SpanNearQuery, inOrder=true) over per-term global
    position-key streams.

    A start p₁ matches when an in-order chain p₁ < p₂ < … < pₙ exists
    with span width pₙ − p₁ − (n−1) ≤ slop; the greedy earliest-next
    chain minimizes pₙ, so "exists a chain within slop" reduces to one
    searchsorted advance per member.  ``starts`` is the first member's
    (possibly pre-filtered) key stream.  The single shared core of
    :func:`_near_freqs` and ``SearchEngine._near_match_keys``."""
    if starts.size == 0:
        return starts
    for t in terms[1:]:
        if keys[t].size == 0:
            return starts[:0]

    def work(st):
        # each start's chain is independent, so the WHOLE chain runs
        # per chunk on the shared pool (searchsorted + gathers + masks)
        if st.size == 0:
            return st
        sdoc = st // stride
        cur = st
        alive = np.ones(st.size, dtype=bool)
        for t in terms[1:]:
            ks = keys[t]
            # side="right" on cur ≡ side="left" on cur+1 for int keys
            idx = np.searchsorted(ks, cur, side="right")
            ok = idx < ks.size
            nxt = np.where(ok, ks[np.minimum(idx, ks.size - 1)], -1)
            same_doc = ok & (nxt // stride == sdoc)
            alive &= same_doc
            cur = np.where(same_doc, nxt, cur)
        width = (cur - st) - (len(terms) - 1)
        alive &= width <= slop
        return st[alive]

    return _par_chunked(work, starts)


def _func_values(col) -> np.ndarray:
    """Stored column -> float64 values for function queries: numerics
    cast, timestamps as epoch MILLISECONDS (Solr ``ms()`` convention),
    nulls/NaN -> 0.0 (Solr's absent-numeric default)."""
    if pa.types.is_timestamp(col.type):
        col = pc.divide(
            pc.cast(pc.cast(col, pa.int64()), pa.float64()), 1000.0
        )
    else:
        col = pc.cast(col, pa.float64())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.nan_to_num(
        col.to_numpy(zero_copy_only=False), nan=0.0
    )


def _phrase_freqs(docs, segments, phrase):
    """Vectorized ExactPhraseMatcher over ALL candidate docs at once.

    ``segments[t] = (flat_positions, lengths)`` aligned with ``docs`` (one
    segment per doc).  Encodes (doc, position) into a single int64 key
    (doc_index · stride + position); a phrase start survives when key+i is
    present in member i's key set for every offset — plain sorted-membership
    checks, no per-doc Python loop.  Returns (matched docs, phrase freqs).
    """
    n = docs.size
    if n == 0:
        return docs, np.empty(0, np.int64)
    stride = 2 + len(phrase) + max(
        (int(flat.max()) if flat.size else 0)
        for flat, _ in segments.values()
    )
    keys = {}
    for t, (flat, lengths) in segments.items():
        docidx = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys[t] = docidx * stride + flat  # ascending (docs asc, pos asc)
    cand = _phrase_survivors(keys, phrase)
    if cand.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # guard: a start near the doc boundary could only false-positive if
    # key arithmetic crossed into the next doc — impossible because
    # stride > max_position + len(phrase) + 1
    freqs = np.bincount(cand // stride, minlength=n)
    mask = freqs > 0
    return docs[mask], freqs[mask].astype(np.int64)


def _near2_from_keys(k0, k1, slop, stride):
    """2-term ordered-near ``(docs, freqs)`` from two global key streams
    — min-side work, no doc intersection or chain state.

    A start ``p0`` matches iff some ``p1`` lies in ``(p0, p0+slop+1]``;
    the stride margin (> maxpos + slop + 2) makes an in-bound neighbour
    same-doc automatically.  Probes the smaller side: either test each
    ``p0``'s next neighbour directly, or count distinct ``p0`` per
    ``p1`` via de-overlapped intervals ``[max(p1−slop−1, prev p1),
    p1)`` (consecutive ``p1`` ascend, so clipping at the previous
    ``p1`` removes double counting; cross-doc clipping is a no-op by
    the stride margin)."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    if k0.size == 0 or k1.size == 0:
        return empty
    if k0.size <= 2 * k1.size:
        def work(c):
            # probe + gather + compress fused per chunk (threaded);
            # side="right" on c ≡ side="left" on c+1 for int keys
            idx = np.searchsorted(k1, c, side="right")
            ok = idx < k1.size
            nxt = k1[np.minimum(idx, k1.size - 1)]
            return c[ok & (nxt - c <= slop + 1)]

        surv = _par_chunked(work, k0)
        if surv.size == 0:
            return empty
        return _run_lengths(surv // stride)
    lo = np.maximum(k1 - (slop + 1), np.concatenate(([-1], k1[:-1])))
    counts = _par_searchsorted(k0, k1) - _par_searchsorted(k0, lo)
    d1 = k1 // stride
    cut = np.flatnonzero(d1[1:] != d1[:-1]) + 1
    starts = np.concatenate(([0], cut))
    freqs = np.add.reduceat(counts, starts)
    docs = d1[starts]
    pos = freqs > 0
    return docs[pos], freqs[pos]


def _near_freqs(docs, segments, terms, slop):
    """Vectorized ordered span-near matcher over ALL candidate docs.

    A first-term occurrence at position p₁ matches when an in-order chain
    p₁ < p₂ < … < pₙ exists with span width pₙ − p₁ − (n−1) ≤ slop
    (Lucene SpanNearQuery, inOrder=true).  The greedy earliest-next chain
    minimizes pₙ, so "exists a chain within slop" reduces to one
    searchsorted advance per member — no per-doc Python.  Returns
    (matched docs, per-doc match-start counts).
    """
    n = docs.size
    if n == 0:
        return docs, np.empty(0, np.int64)
    stride = 2 + len(terms) + slop + max(
        (int(flat.max()) if flat.size else 0)
        for flat, _ in segments.values()
    )
    keys = {}
    for t, (flat, lengths) in segments.items():
        docidx = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys[t] = docidx * stride + flat  # ascending
    surv = _chain_survivors(keys, terms, slop, keys[terms[0]], stride)
    if surv.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    freqs = np.bincount(surv // stride, minlength=n)
    mask = freqs > 0
    return docs[mask], freqs[mask].astype(np.int64)



class ScoringModel:
    """Pluggable similarity (extension surface per SURVEY.md §2.10 — the
    reference's ABC+factory pattern, ``solrindexer/vocabulary.py:49-77``).

    Implementations provide ``idf(n_docs, df)`` and ``impact(tf, K)`` where
    ``K = k1·(1 − b + b·dl/avgdl)`` is precomputed by the engine.  The
    default is Lucene BM25; registry keyed by name.  Every match is
    scored exactly, so ``impact`` may take any shape in ``tf``.
    """

    name = "bm25"

    def idf(self, n_docs: int, df: int) -> float:
        return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))

    def impact(self, tf, K):
        return tf / (tf + K)


class TfIdfModel(ScoringModel):
    """Classic ltc-style tf-idf — an alternative model proving the hook."""

    name = "tfidf"

    def idf(self, n_docs: int, df: int) -> float:
        return math.log(1.0 + n_docs / (df + 1.0))

    def impact(self, tf, K):
        return 1.0 + np.log(tf)


SCORING_MODELS = {"bm25": ScoringModel, "tfidf": TfIdfModel}


def register_scoring_model(name: str, cls) -> None:
    SCORING_MODELS[name] = cls


class TermPostings:
    """Decoded posting list of one term (all doc ranges concatenated):
    doc ids, tfs and, for phrase queries, the raw position streams.

    ``score_vec`` memoizes the per-posting BM25 contribution
    ``idf · tf/(tf + K(norm))`` — valid for one index generation (a
    commit moves N, avgdl and df, and ``refresh()`` drops it), so repeated
    queries pay one fancy-indexed add per term instead of recomputing the
    norm math.
    """

    __slots__ = ("term", "df", "cf", "doc_ids", "tfs", "score_vec",
                 "pos_flat", "pos_offsets", "pos_raw",
                 "lazy_decoded", "gkeys", "gkeys_stride", "maxpos",
                 "_ckparts", "parts")

    def __init__(self, term, df, cf, doc_ids, tfs,
                 pos_flat=None, pos_offsets=None, pos_raw=None):
        self.term = term
        self.df = df
        self.cf = cf
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.score_vec = None
        #: token positions (store_positions indexes only): ``pos_flat`` is
        #: every posting's position list concatenated;
        #: ``pos_offsets[i]:pos_offsets[i+1]`` slices posting i's positions.
        self.pos_flat = pos_flat
        self.pos_offsets = pos_offsets
        #: LAZY positions (the hot phrase path): the raw delta-varint blob
        #: per doc-range, decoded per CANDIDATE posting only — a phrase
        #: over a common term never pays an O(total positions) decode.
        #: Entries are ``[n_postings, blob, tfs_in_range, byte_ends]``;
        #: ``byte_ends`` (len n_postings+1, byte offset of each posting's
        #: varint segment) is derived on first use from the varint
        #: continuation bits — one vectorized cumsum over the blob, no
        #: value materialization.
        self.pos_raw = pos_raw
        #: cumulative count of postings decoded through the lazy path —
        #: once repeated (chunked) phrase queries have paid for half the
        #: stream piecemeal, the hybrid flip below decodes the rest once
        #: and caches, so HOT terms converge to the cheap pos_flat gather
        #: while rarely-phrased terms never pay a full decode.
        self.lazy_decoded = 0
        #: GLOBAL position keys ``doc_id·stride + position`` (ascending) —
        #: the phrase matcher's per-term stream, encoded once per engine
        #: lifetime (re-encoded only if the engine's stride grows) and
        #: evicted with the TermPostings through the term-cache LRU.
        self.gkeys = None
        self.gkeys_stride = 0
        self.maxpos = None
        #: transient per-range (cumsum, rebase, counts) of the delta
        #: streams — shared by max_position() and the first key build,
        #: dropped once keys exist (keys re-stride WITHOUT re-decoding).
        self._ckparts = None
        #: ``(range_id, file serial, postings)`` of each postings row the
        #: lists were decoded from, in range order: ``refresh()`` keeps
        #: the rows whose files a commit left alone
        self.parts = ()

    def _key_parts(self):
        """Per-range ``(cumsum(deltas), per-segment rebase, counts)`` of
        the raw position streams — the half-decoded form that
        :meth:`global_keys` consumes (``positions = cs − repeat(base)``,
        so ``keys = cs + repeat(doc·stride − base)`` costs ONE repeat and
        never materializes ``pos_flat``).  Also derives ``maxpos`` for
        free (``max(cs[segment_ends−1] − base)``)."""
        if self._ckparts is None:
            from solr_indexer_ray.functions.varint import varint_cumsum

            parts = []
            maxp = 0
            for entry in (self.pos_raw or []):
                counts = np.asarray(entry[2], dtype=np.int64)
                cs = varint_cumsum(entry[1])
                offs = np.cumsum(counts, dtype=np.int64)
                starts = offs - counts
                # rebase of segment i = running total before its start;
                # derived from the cumsum itself, no delta array needed
                base = np.where(
                    starts > 0, cs[np.maximum(starts - 1, 0)], 0
                )
                if cs.size:
                    maxp = max(maxp, int((cs[offs - 1] - base).max()))
                parts.append((cs, base, counts))
            self._ckparts = parts
            if self.maxpos is None:
                self.maxpos = maxp
        return self._ckparts

    def ensure_pos_flat(self):
        """Force the FULL position stream (decode every range once and
        cache); returns ``pos_flat``."""
        if self.pos_flat is None:
            from solr_indexer_ray.functions.varint import decode_positions

            self.pos_flat = np.concatenate(
                [decode_positions(e[1], e[2])[0] for e in self.pos_raw]
            ) if self.pos_raw else np.empty(0, np.int64)
            self.pos_offsets = np.concatenate(([0], np.cumsum(self.tfs)))
            self.pos_raw = None
        return self.pos_flat

    def max_position(self) -> int:
        """Largest token position of any occurrence (0 when empty)."""
        if self.maxpos is None:
            if self.pos_flat is not None:
                self.maxpos = (
                    int(self.pos_flat.max()) if self.pos_flat.size else 0
                )
            else:
                self._key_parts()
        return self.maxpos

    def global_keys(self, stride: int):
        """``doc_id·stride + position`` for every occurrence, ascending
        (doc_ids ascend; positions ascend within a doc).  Cached; when
        the engine's stride grows (powers of two, so rarely) the cached
        keys are RE-BASED in place — one repeat-add, no re-decode."""
        if self.gkeys is not None:
            if self.gkeys_stride != stride:
                self.gkeys += np.repeat(
                    self.doc_ids.astype(np.int64)
                    * (stride - self.gkeys_stride),
                    self.tfs,
                )
                self.gkeys_stride = stride
            return self.gkeys
        ids = self.doc_ids.astype(np.int64) * stride
        if self.pos_flat is not None:
            gk = np.repeat(ids, self.tfs) + self.pos_flat
        else:
            out = []
            lo = 0
            for cs, base, counts in self._key_parts():
                n = base.size
                np.add(cs, np.repeat(ids[lo:lo + n] - base, counts),
                       out=cs)
                out.append(cs)
                lo += n
            gk = (out[0] if len(out) == 1
                  else np.concatenate(out) if out
                  else np.empty(0, np.int64))
            self._ckparts = None  # consumed (in-place) — re-stride
            # updates work from gkeys, never from a re-decode
        self.gkeys, self.gkeys_stride = gk, stride
        return gk

    def nbytes(self) -> int:
        """Approximate resident bytes of this decoded posting list
        (arrays + raw position blobs + cached key streams) — the unit
        of the engine's byte-aware postings-cache eviction."""
        n = self.doc_ids.nbytes + self.tfs.nbytes
        for a in (self.score_vec, self.pos_flat, self.pos_offsets,
                  self.gkeys):
            if a is not None:
                n += a.nbytes
        for e in (self.pos_raw or ()):
            n += len(e[1])
            if e[3] is not None:
                n += e[3].nbytes
        for p in (self._ckparts or ()):
            n += p[0].nbytes + p[1].nbytes
        return n

    def positions_for(self, ti, lengths):
        """Flat positions of postings ``ti`` (sorted indices into this
        term's posting list; ``lengths`` = ``tfs[ti]``), decoding only
        those postings' varint segments when loaded lazily."""
        if self.pos_flat is not None:
            flat, _ = _gather_segments(self.pos_flat, self.pos_offsets[ti],
                                       lengths)
            return flat
        # hybrid: when a call touches most of the postings anyway (common
        # term in a common phrase), or the lazy path has cumulatively
        # re-decoded that much across calls, decode the whole stream ONCE
        # and cache it — repeated queries then gather from pos_flat like
        # the old eager path, and the lazy path never does much worse.
        self.lazy_decoded += ti.size
        if ti.size * 2 > self.tfs.size or self.lazy_decoded * 2 > self.tfs.size:
            self.ensure_pos_flat()
            flat, _ = _gather_segments(self.pos_flat, self.pos_offsets[ti],
                                       lengths)
            return flat
        parts = []
        lo = 0
        for entry in self.pos_raw:
            n, blob = entry[0], entry[1]
            hi = lo + n
            sel = ti[(ti >= lo) & (ti < hi)] - lo
            if sel.size:
                ends = entry[3]
                if ends is None:
                    arr = np.frombuffer(blob, np.uint8)
                    # v-th value ends at the v-th terminal byte (<0x80)
                    term_count = np.cumsum(arr < 0x80, dtype=np.int32)
                    voff = np.concatenate(
                        ([0], np.cumsum(entry[2], dtype=np.int64))
                    ).astype(np.int32)
                    ends = np.zeros(n + 1, dtype=np.int64)
                    ends[1:] = np.searchsorted(
                        term_count, voff[1:], side="left"
                    ) + 1
                    ends[0] = 0
                    entry[3] = ends
                arr = np.frombuffer(blob, np.uint8)
                starts, stops = ends[sel], ends[sel + 1]
                lens = stops - starts
                flat_seg, _ = _gather_segments(arr, starts, lens)
                parts.append(flat_seg)
            lo = hi
        if not parts:
            return np.empty(0, np.int64)
        buf = np.concatenate(parts).tobytes()
        from solr_indexer_ray.functions.varint import decode_positions

        flat, _ = decode_positions(buf, np.asarray(lengths, np.int64))
        return flat


def read_tombstones(index_dir: str) -> set:
    """The deleted doc ids of the index at ``index_dir`` (its
    ``tombstones.parquet``; none when the file is absent)."""
    path = os.path.join(index_dir, "tombstones.parquet")
    if not os.path.exists(path):
        return set()
    import pyarrow.parquet as pq

    return set(pq.ParquetFile(path).read(columns=["doc_id"])[
        "doc_id"].to_pylist())


def _file_identity(path: str) -> tuple:
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


class _ResidentGroups:
    """The process's least-recently-used order over the postings row
    groups every :class:`_PostingsFile` keeps decompressed (its
    ``groups``), with their byte total.  A postings read trims it, whole
    row groups at a time, to the reading engine's ``term_cache_bytes``.
    A collected file's finalizer only appends its serial to ``dead``
    (safe wherever a collection runs); its entries leave at the next
    trim."""

    def __init__(self):
        #: (file serial, row group) -> (weak ref to the file, bytes)
        self.lru: collections.OrderedDict = collections.OrderedDict()
        self.nbytes = 0
        self.dead: list = []
        #: held to change the order, the total or a file's groups:
        #: engines on different threads share them
        self.lock = threading.Lock()

    def touch(self, f, g, grown: int) -> None:
        """Mark row group ``g`` of ``f`` most recently used; ``grown``
        bytes were just added to it.  The caller holds ``lock``."""
        ref, n = self.lru.pop((f.serial, g), (None, 0))
        if ref is None:
            ref = weakref.ref(f)
        self.lru[(f.serial, g)] = (ref, n + grown)
        self.nbytes += grown

    def trim(self, budget: int) -> None:
        """Evict the least recently used row groups until at most
        ``budget`` bytes stay resident (0: no cap)."""
        with self.lock:
            if self.dead:
                gone = set()
                while self.dead:
                    gone.add(self.dead.pop())
                for key in [k for k in self.lru if k[0] in gone]:
                    self.nbytes -= self.lru.pop(key)[1]
            while budget and self.nbytes > budget and self.lru:
                (_, g), (ref, n) = self.lru.popitem(last=False)
                self.nbytes -= n
                f = ref()
                if f is not None:
                    del f.groups[g]


_RESIDENT = _ResidentGroups()


def _resident_column(arr: pa.Array):
    """One decompressed row-group column as :meth:`_PostingsFile.group`
    keeps it: an integer column (``range_id``) as a numpy array, a
    binary one as its numpy offsets and a read-only memoryview of its
    bytes."""
    if pa.types.is_integer(arr.type):
        ids = arr.to_numpy()
        if ids.size and (ids == ids[0]).all():
            # one doc range (every group the build writes): keep its id
            # once, as a stride-0 view
            ids = np.broadcast_to(ids[:1].copy(), ids.shape)
        return ids
    if arr.null_count:
        arr = arr.fill_null(pa.scalar(b"", arr.type))
    _, ob, db = arr.buffers()
    offs = np.frombuffer(
        ob, np.int64 if pa.types.is_large_binary(arr.type) else np.int32)
    return (offs[arr.offset:arr.offset + len(arr) + 1],
            memoryview(db or b""))


def _resident_nbytes(col) -> int:
    """Bytes one resident row-group column holds (see
    :meth:`_PostingsFile.group`)."""
    if isinstance(col, tuple):
        return col[0].nbytes + col[1].nbytes
    return col.itemsize if col.strides == (0,) else col.nbytes


class _PostingsFile:
    """One postings file, opened by a handle that pins its bytes (a
    merge unlinks the files it replaced), with its parquet reader,
    row-group starts and ``(term, df)`` columns loaded on first use
    (:meth:`load`), and every row group a read decompressed kept
    resident (:meth:`group`).  Its identity is the object itself
    (``serial``): the engines of a process share one per file
    (:func:`_open_postings_file`), across generations too, so a refresh
    knows which files a commit left alone, keeps what it derived from
    them, and reads only the new ones — whose terms locate the new rows
    of the postings it keeps decoded."""

    _serials = itertools.count()

    def __init__(self, path: str, key: tuple):
        self.handle = pa.OSFile(path)
        #: identity (device, inode, size, mtime) of the file
        self.key = key
        self.reader = None
        #: row group -> {column: resident values}, evicted by _RESIDENT
        self.groups: dict = {}
        #: row-group column reads (decompressions) made so far
        self.decompressed = 0
        self.serial = next(self._serials)
        weakref.finalize(self, _RESIDENT.dead.append, self.serial)

    def load(self) -> "_PostingsFile":
        if self.reader is None:
            import pyarrow.parquet as pq

            reader = pq.ParquetFile(self.handle)
            md = reader.metadata
            #: first row of each row group, plus the row count
            self.rg_starts = list(itertools.accumulate(
                [md.row_group(g).num_rows for g in range(md.num_row_groups)],
                initial=0,
            ))
            # one file's two columns: a thread pool costs more than
            # it saves (about 25 % of the read on one core)
            t = reader.read(columns=["term", "df"], use_threads=False)
            #: each row's term and df
            self.terms = _one_array(t["term"])
            self.dfs = _one_array(t["df"]).to_numpy()
            self.reader = reader  # last: engines on other threads test it
        return self

    def group(self, g: int, columns) -> dict:
        """Row group ``g``'s ``columns``, each decompressed on first use
        and then kept (:func:`_resident_column`), so a row's value is a
        slice of resident memory.  Nothing here is ever written to:
        decoding makes new arrays."""
        with _RESIDENT.lock:
            cols = self.groups.get(g, {})
            missing = [c for c in columns if c not in cols]
            grown = 0
            if missing:
                t = self.reader.read_row_group(g, columns=missing,
                                               use_threads=False)
                self.decompressed += 1
                for c in missing:
                    cols[c] = _resident_column(_one_array(t[c]))
                    grown += _resident_nbytes(cols[c])
                self.groups[g] = cols
            _RESIDENT.touch(self, g, grown)
        return cols


#: the process's open postings files by identity.  An entry lives only
#: while some engine holds the file, whose open handle keeps its inode
#: from being reused meanwhile: no other file can take its identity.
_OPEN_POSTINGS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _open_postings_file(path: str) -> _PostingsFile:
    """The :class:`_PostingsFile` of the file at ``path`` — the one an
    engine of this process already holds, or a new one.  No commit
    writes to a committed file, so one ``stat`` names the file the
    handle opens."""
    key = _file_identity(path)
    f = _OPEN_POSTINGS.get(key)
    if f is None:
        f = _OPEN_POSTINGS.setdefault(key, _PostingsFile(path, key))
    return f


class _ShardTerms:
    """One term shard's part of the term dictionary: every term of the
    shard's postings files (one per doc range), sorted, with CSR
    ``offsets`` into its rows and each row's file index and row
    position; ``df`` is the per-term sum of the rows' df.  Built from
    the files' ``(term, df)`` columns (:meth:`build`); everything is an
    Arrow or numpy array aligned with the sorted terms — no per-term
    Python objects."""

    def __init__(self, files, terms, offsets, row_file, row_pos, df):
        self.files = files
        self.terms = terms
        self.offsets = offsets
        self.row_file = row_file
        self.row_pos = row_pos
        self.df = df
        # the sorted terms' raw UTF-8 bytes and int32 offsets, for find()
        bufs = self.terms.buffers()
        self._toffs = memoryview(bufs[1]).cast("i")[
            self.terms.offset:self.terms.offset + len(self.terms) + 1]
        self._tdata = memoryview(bufs[2] or b"")
        #: row-group column reads (decompressions) this shard's reads
        #: made so far; a row group another engine of the process
        #: already holds resident costs none
        self.reads = 0

    @classmethod
    def build(cls, files) -> "_ShardTerms":
        """The shard of ``files``, from all their ``(term, df)`` columns."""
        files = [f.load() for f in files]
        terms = (pa.concat_arrays([f.terms for f in files]) if files
                 else pa.array([], pa.string()))
        row_file = np.concatenate(
            [np.full(len(f.terms), i, dtype=np.int32)
             for i, f in enumerate(files)] or [np.zeros(0, np.int32)])
        row_pos = np.concatenate(
            [np.arange(len(f.terms), dtype=np.int32) for f in files]
            or [np.zeros(0, np.int32)])
        row_df = np.concatenate([f.dfs for f in files]
                                or [np.zeros(0, np.int64)])
        order = pc.array_sort_indices(terms).to_numpy()
        terms = terms.take(order)
        n = len(terms)
        starts = np.zeros(min(n, 1), dtype=np.int64)  # first row per term
        if n > 1:
            new = pc.not_equal(terms.slice(1), terms.slice(0, n - 1))
            starts = np.concatenate((
                starts,
                np.flatnonzero(new.to_numpy(zero_copy_only=False)) + 1,
            ))
        df = (np.add.reduceat(row_df[order], starts).astype(np.int64)
              if n else np.zeros(0, np.int64))
        return cls(files, terms.take(starts),
                   np.append(starts, n).astype(np.int32),
                   row_file[order], row_pos[order], df)

    def find(self, terms) -> np.ndarray:
        """Dictionary index of each term (-1: absent): a bisect over the
        terms' UTF-8 bytes, whose order is the code-point order Arrow
        sorted them in."""
        offs, data, n = self._toffs, self._tdata, len(self.terms)
        out = np.full(len(terms), -1, dtype=np.int64)
        for j, t in enumerate(terms):
            key = t.encode("utf-8", "surrogatepass")
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) // 2
                if data[offs[mid]:offs[mid + 1]].tobytes() < key:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < n and data[offs[lo]:offs[lo + 1]].tobytes() == key:
                out[j] = lo
        return out

    def rows(self, i: int) -> range:
        """Postings rows of the term at dictionary index ``i``."""
        return range(int(self.offsets[i]), int(self.offsets[i + 1]))

    def at(self, rows) -> list:
        """``(file, row position)`` of each postings row in ``rows``."""
        return list(zip([self.files[f] for f in self.row_file[rows].tolist()],
                        self.row_pos[rows].tolist()))


def _decode_varints(blobs, counts, deltas: bool = False,
                    minus: int = 0) -> list:
    """Each varint blob of ``blobs``, holding ``counts`` values each,
    decoded to int64 — summed as a delta stream when ``deltas`` (doc
    ids), less ``minus`` — by one decode over their concatenation: a
    read's many rows cost one call's overhead instead of one per row."""
    vals = varint_decode(b"".join(blobs))
    bounds = np.cumsum(counts)
    if vals.size != bounds[-1]:
        raise ValueError(f"postings rows hold {vals.size} values, their "
                         f"df {int(bounds[-1])}")
    if deltas:
        vals = np.cumsum(vals, dtype=np.uint64)
        # each row's deltas start again: take off the rows before it
        before = np.concatenate((np.zeros(1, np.uint64), vals))[
            np.concatenate(([0], bounds[:-1]))]
        vals -= np.repeat(before, counts)
    vals = vals.astype(np.int64)
    if minus:
        vals -= minus
    return np.split(vals, bounds[:-1])


def _group_of(f: "_PostingsFile", p: int) -> int:
    """Row group of row ``p`` of postings file ``f`` (loaded)."""
    return bisect.bisect_right(f.rg_starts, p) - 1


def _read_rows(at, columns) -> tuple:
    """``columns`` of the postings rows ``at`` (``(file, row position)``
    pairs), lists in that order: ``range_id`` ints, and for a binary
    column a read-only memoryview of the row's bytes; plus the row-group
    column reads (decompressions) this made.  Each row is sliced out of
    its row group's resident columns (:meth:`_PostingsFile.group`); only
    a row group no read has decompressed yet, or one evicted since, is
    read from the file."""
    out = {c: [] for c in columns}
    reads = 0
    held: dict = {}  # (file serial, row group) -> its resident columns
    for f, p in at:
        g = _group_of(f, p)
        cols = held.get((f.serial, g))
        if cols is None:
            before = f.decompressed
            cols = held[f.serial, g] = f.group(g, columns)
            reads += f.decompressed - before
        r = p - f.rg_starts[g]
        for c in columns:
            if c == "range_id":
                out[c].append(int(cols[c][r]))
            else:
                offs, data = cols[c]
                out[c].append(data[offs[r]:offs[r + 1]])
    return out, reads


class _TermDict:
    """One index generation's term dictionary — Lucene's in-memory terms
    index, which points straight into the terms file instead of
    searching it.  A term's postings are then sliced by position out of
    the resident row groups holding its rows, and its df is a gather.

    Kept per term shard (:class:`_ShardTerms`), each built on the first
    read that touches the shard.  ``refresh()`` carries the shards to
    the next generation (:meth:`carried`): a shard whose files the
    commit left alone is kept as it is; one whose files changed is built
    again from all its files by the first read that touches it, so the
    first read after a commit pays only for the changed shards of its
    own terms.  ``sources`` maps each shard to its :class:`_PostingsFile`
    s, whose handles pin the bytes the row positions come from: a merge
    unlinks the segments it replaced."""

    def __init__(self, sources: dict, n_shards: int, shards=None):
        self._sources = sources
        self._n_shards = n_shards
        self._shards: dict = dict(shards or {})
        self._view = None
        #: shard dictionaries built so far
        self.builds = 0
        #: shard dictionaries the last :meth:`carried` kept
        self.kept = len(self._shards)

    def shard(self, s: int) -> _ShardTerms:
        st = self._shards.get(s)
        if st is None:
            st = _ShardTerms.build(self._sources.get(s, ()))
            self.builds += 1
            self._shards[s] = st
        return st

    def carried(self, sources: dict) -> "_TermDict":
        """This dictionary over ``sources``, another generation's files,
        keeping each built shard whose files are the same; the others are
        built on first use.  With the same files everywhere, this
        dictionary itself."""
        if {s: [f.serial for f in fs] for s, fs in sources.items()} == {
                s: [f.serial for f in fs] for s, fs in self._sources.items()}:
            self.kept = len(self._shards)
            return self
        return _TermDict(sources, self._n_shards, {
            s: st for s, st in self._shards.items()
            if [f.serial for f in sources.get(s, ())]
            == [f.serial for f in st.files]})

    @property
    def reads(self) -> int:
        """Row-group column reads (decompressions) made so far."""
        return sum(st.reads for st in self._shards.values())

    def locate(self, terms):
        """``(shard dictionary, its terms, their indices there)`` per
        term shard the terms hash to (index -1: absent)."""
        by_shard: dict = {}
        for t in terms:
            by_shard.setdefault(term_shard(t, self._n_shards), []).append(t)
        for s in sorted(by_shard):
            st = self.shard(s)
            yield st, by_shard[s], st.find(by_shard[s])

    def default_view(self, has_synthetic: bool) -> tuple:
        """(sorted terms, df) of the default field over every shard —
        without synthetic terms (``fld\\x1fterm``, ``a\\x1eb``) when the
        index has any.  Shards hold disjoint terms, so this is their
        union, sorted."""
        if self._view is None:
            parts = [self.shard(s) for s in sorted(self._sources)]
            terms = pa.concat_arrays(
                [st.terms for st in parts] or [pa.array([], pa.string())]
            )
            df = np.concatenate([st.df for st in parts]
                                or [np.zeros(0, np.int64)])
            if has_synthetic:
                keep = pc.invert(pc.match_substring_regex(
                    terms, _SYNTHETIC_TERM_RE
                ))
                terms = terms.filter(keep)
                df = df[keep.to_numpy(zero_copy_only=False)]
            order = pc.array_sort_indices(terms).to_numpy()
            self._view = (terms.take(order), df[order])
        return self._view


class _DocRange:
    """The docs table as a range engine sees it: only the rows with
    ``lo <= doc_id < hi``, their ``doc_id`` made local (``doc_id - lo``).
    A scan filter still compares the stored global ``doc_id``.  The
    engine reads it only to fill its resident columns and to fetch
    ``content`` for the rows a request asks for."""

    def __init__(self, ds, lo: int, hi: int):
        self._ds = ds
        self._lo = lo
        self._rows = (pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi)
        self.schema = ds.schema

    def to_table(self, columns=None, filter=None) -> pa.Table:
        t = self._ds.to_table(
            columns=columns,
            filter=self._rows if filter is None else self._rows & filter,
        )
        i = t.schema.get_field_index("doc_id")
        if i >= 0 and self._lo:
            t = t.set_column(i, "doc_id", pc.subtract(t["doc_id"], self._lo))
        return t


def _may_hold_nulls(meta, column: str) -> bool:
    """Whether a parquet file may hold a null ``column``: it lacks the
    column, or a row group counts nulls in it or records no count."""
    names = meta.schema.names
    if column not in names:
        return True
    j = names.index(column)
    for i in range(meta.num_row_groups):
        st = meta.row_group(i).column(j).statistics
        if st is None or not st.has_null_count or st.null_count:
            return True
    return False


_MISS = object()  # a cache lookup found nothing (None is a cached value)


def _positional(tp) -> bool:
    """Whether a cached postings entry serves a positional read."""
    return tp is None or tp.pos_flat is not None or tp.pos_raw is not None


def _nbytes(value) -> int:
    """Bytes one cache entry holds, as the engine's cache budget counts
    them: numpy buffers, decoded postings (:meth:`TermPostings.nbytes`),
    tuples and lists of these, and ``sys.getsizeof`` of anything else
    (an expansion's strings)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, TermPostings):
        return value.nbytes()
    if isinstance(value, (tuple, list)):
        return sum(map(_nbytes, value))
    return 0 if value is None else sys.getsizeof(value)


class _Caches:
    """Every cache of one engine under one byte budget: like Solr's
    searcher caches, each named cache is a least-recently-used map with
    an entry cap and hit, miss and eviction counts.

    ``SPECS`` gives each cache its entry cap (None: none) and what its
    entries are derived from, which says what ``refresh()`` drops
    (:meth:`clear`): ``"side"``, the tombstones or overlays too, which
    deletes and atomic updates replace within a generation, so every
    commit drops them; ``"generation"``, one generation's postings and
    docs together, dropped when the generation moves; ``"docs"``, the
    docs rows alone, which an extend only appends to, so entries grow
    instead (the filter masks), dropped only when a docs file is
    replaced; and ``"postings"``, whose entries the first lookup in
    their term shard after ``refresh()`` brings to the new files.  Every
    entry's bytes (:func:`_nbytes`)
    count against ``budget`` (0: no byte cap); going over it evicts the
    least recently used entries of any cache except the pinned ones, the
    postings the current lookup hands out (:meth:`pin`).  Handed-out
    postings grow afterwards (score vectors, key streams, decoded
    positions), so they are measured again at the next pin and when
    statistics are read."""

    SPECS = {
        "postings": (1024, "postings"),     # term -> TermPostings | None
        "patterns": (1024, "generation"),   # (pattern, cap) -> terms
        "fuzzy": (1024, "generation"),      # (word, edits, cap) -> terms
        "expansions": (1024, "generation"),  # _MergedStats expansions
        "geo": (None, "generation"),        # sfield -> lat/lon or bbox
        "dense_fields": (16, "generation"),  # field -> dense sort keys
        "field_codes": (16, "generation"),  # field -> factorized codes
        "field_norms": (None, "generation"),  # field -> dense norm bytes
        "filters": (256, "docs"),           # filter clause -> (rows, n)
        "masks": (256, "generation"),       # _excluded_mask key -> mask
        "fq": (256, "generation"),          # fq string -> exclusion mask
        "func": (None, "side"),             # field -> dense float64
        #: cross-doc queries, whose matches depend on what is deleted:
        #: join query -> whole-index ids, ("fq", join) -> mask
        "joins": (8, "side"),
    }

    def __init__(self):
        self.budget = 1 << 30
        self.caps = {name: cap for name, (cap, _) in self.SPECS.items()}
        #: name -> key -> [value, bytes, last use], in use order
        self.maps = {name: collections.OrderedDict() for name in self.SPECS}
        self.counts = {
            name: dict.fromkeys(("hits", "misses", "evictions", "bytes"), 0)
            for name in self.SPECS
        }
        self.nbytes = 0
        self.pinned: set = set()  # postings keys
        self._clock = itertools.count()

    def get(self, name: str, key, usable=None):
        """Cache ``name``'s value under ``key``, now its most recently
        used, or ``_MISS`` (also when ``usable(value)`` is false)."""
        e = self.maps[name].get(key)
        if e is None or usable is not None and not usable(e[0]):
            self.counts[name]["misses"] += 1
            return _MISS
        self.counts[name]["hits"] += 1
        self.maps[name].move_to_end(key)
        e[2] = next(self._clock)
        return e[0]

    def put(self, name: str, key, value):
        """Cache ``value`` under ``key`` as ``name``'s most recently used
        entry, evict down to its cap and the budget, return ``value``."""
        m = self.maps[name]
        self._drop(name, key)
        m[key] = e = [value, 0, next(self._clock)]
        self._resize(name, e, _nbytes(value))
        while self.caps[name] is not None and len(m) > self.caps[name]:
            self._drop(name, next(iter(m)), evicted=True)
        while self.budget and self.nbytes > self.budget:
            oldest = self._oldest()
            if oldest is None:
                break
            self._drop(*oldest, evicted=True)
        return value

    def memo(self, name: str, key, make):
        """Cache ``name``'s value under ``key``; on a miss ``make()``'s,
        cached."""
        hit = self.get(name, key)
        return self.put(name, key, make()) if hit is _MISS else hit

    def pin(self, keys) -> None:
        """Measure the pinned postings and those under ``keys`` again
        (handed out, they may have grown), then pin ``keys`` instead: no
        budget eviction drops them until the next pin."""
        m = self.maps["postings"]
        for k in self.pinned.union(keys):
            if k in m:
                self._resize("postings", m[k], _nbytes(m[k][0]))
        self.pinned = set(keys)

    def replace(self, name: str, key, value) -> None:
        """Put ``value`` in place of the entry under ``key``, keeping its
        place in the use order."""
        e = self.maps[name][key]
        e[0] = value
        self._resize(name, e, _nbytes(value))

    def clear(self, *on: str) -> None:
        """Drop every entry, or those of the caches derived from one of
        ``on``."""
        for name, (_, dep) in self.SPECS.items():
            if not on or dep in on:
                self.nbytes -= self.counts[name]["bytes"]
                self.counts[name]["bytes"] = 0
                self.maps[name].clear()

    def stats(self) -> dict:
        """Per cache: hits, misses, evictions, entries and bytes (every
        postings entry measured again first)."""
        for e in self.maps["postings"].values():
            self._resize("postings", e, _nbytes(e[0]))
        return {name: {**c, "entries": len(self.maps[name])}
                for name, c in self.counts.items()}

    def _oldest(self):
        """``(name, key)`` of the least recently used unpinned entry, or
        None: each map's first unpinned entry is its candidate."""
        best = None
        for name, m in self.maps.items():
            for key, e in m.items():
                if name != "postings" or key not in self.pinned:
                    if best is None or e[2] < best[0]:
                        best = (e[2], name, key)
                    break
        return best and best[1:]

    def _resize(self, name: str, e: list, n: int) -> None:
        self.counts[name]["bytes"] += n - e[1]
        self.nbytes += n - e[1]
        e[1] = n

    def _drop(self, name: str, key, evicted: bool = False) -> None:
        e = self.maps[name].pop(key, None)
        if e is not None:
            self._resize(name, e, 0)
            self.counts[name]["evictions"] += evicted


def _capped(label: str, terms: list, cap: int) -> list:
    """``terms``, or Lucene's TooManyClauses (as a ValueError) when a
    multi-term clause expands to more than ``cap`` terms."""
    if len(terms) > cap:
        raise ValueError(f"{label} expands to {len(terms)} terms "
                         f"(> max_expansions={cap})")
    return terms


def _pattern_label(pattern: str) -> str:
    if pattern.startswith("/") and pattern.endswith("/") and len(pattern) > 2:
        return f"regex {pattern}"
    return f"wildcard {pattern}"


class SearchEngine:
    """Read-side handle on a committed index directory.

    Reads the stats eagerly, and the norms, docs columns and postings on
    first use — the analogue of the reference's one-session-per-process
    Solr client (``solrindexer/indexer.py:83-88``); in Ray pipelines one
    engine instance lives per actor (built once in ``__init__``).
    Postings and dfs are read through a term dictionary
    (:class:`_TermDict`), which addresses each term's rows by position.
    Everything derived per query shape — decoded postings, expansions,
    filter masks, sort and function columns — sits in one set of LRU
    caches under ``term_cache_bytes`` (:meth:`cache_stats`).

    Opening an engine and ``refresh()`` after a commit are one path
    (:meth:`_open_generation`): the engine opens its first generation as
    a refresh from nothing, and a refresh keeps what it derived from the
    docs and postings files the commit left alone — per docs file the
    docs rows and the filter masks over them, per postings file the
    dictionary rows and decoded postings — so it reads only new or
    rewritten files (:meth:`refresh_stats`).

    Scale note: the dense norm/mask arrays are O(doc_id_space) bytes — fine
    for a per-node slice, not for 10^12 docs in one process.  At cluster
    scale queries fan out per doc range (:func:`search_partitioned`), each
    range scored by an engine over that range alone, or across per-node
    indexes via :func:`search_sharded`, where every shard scores with its
    own engine.

    ``collection_stats`` replaces this index's collection statistics — N,
    avgdl, per-field docCount/avgdl, term df and the prefix, wildcard and
    fuzzy expansions — with outside ones (:class:`_MergedStats`): merged
    over several shard indexes, or the whole index's for a doc range.
    This is how Lucene's scorer takes ``CollectionStatistics``/
    ``TermStatistics`` from outside.  Postings, norms and matching stay
    local; ``n_docs``/``avgdl`` then hold the outside values.

    ``doc_range`` (with ``collection_stats``) makes the engine a view of
    one doc range ``[lo, hi)`` of ``docs_per_range`` ids: it reads only
    that range's postings files and docs rows, and every id it takes or
    returns is local (``id - lo``; ``doc_space`` is the range width), so
    its dense state is bounded by the range.  Filters still compare the
    stored global ``doc_id``.
    """

    def __init__(self, index_dir: str, scoring="bm25", synonyms=None,
                 collection_stats=None, doc_range=None):
        self.index_dir = os.fspath(index_dir)
        if isinstance(scoring, str):
            scoring = SCORING_MODELS[scoring]()
        self.scoring = scoring
        #: query-time synonym map (Solr SynonymGraphFilter at query time):
        #: analyzed term -> list of alternate analyzed terms.  A mapped
        #: query term scores as ONE Lucene SynonymQuery clause — blended
        #: df = max over the group, per-doc tf = sum over the group.
        self.synonyms = {
            k: sorted(set(v)) for k, v in (synonyms or {}).items()
        }
        #: editorial elevation map (Solr QueryElevationComponent):
        #: raw query string -> doc ids pinned to the top in that order.
        #: Elevated docs lead the result page (keeping their organic score,
        #: 0.0 if they didn't match); organic hits follow, deduplicated.
        #: Dead (tombstoned/absent) ids are skipped.
        self.elevate: dict = {}
        self.manifest = BuildManifest(index_dir)
        if not self.manifest.is_committed():
            # reference analogue: ping failure exits (solrindexer/cli.py:108-110)
            raise FileNotFoundError(f"index at {index_dir} is not committed")
        stats = self.manifest.read_stats()
        self._range = doc_range
        self._collection = collection_stats
        self.k1 = float(stats["k1"])
        self.b = float(stats["b"])
        from solr_indexer_ray.functions.tokenize import AnalyzerRegistry

        self.registry = AnalyzerRegistry(
            stats.get("analyzer_default", "simple"),
            overrides=stats.get("analyzer_lang_map") or {},
        )
        # token-filter chain pinned at build time (stats.json): wrap every
        # analyzer so query parsing / MLT / highlighting see exactly the
        # indexed token stream (build applies the same chain vocab-level)
        from solr_indexer_ray.functions.filters import (
            FilterChain,
            FilteredRegistry,
        )

        chain = FilterChain.from_stats(stats)
        if chain:
            self.registry = FilteredRegistry(self.registry, chain)
        self._cache = _Caches()
        #: wildcard-expansion cap (Lucene BooleanQuery.maxClauseCount)
        self.max_expansions = 1024
        #: stride of the global phrase-key encoding (doc·stride + pos).
        #: Grows monotonically to the next power of two covering the
        #: longest position seen (+ query margin), so cached per-term key
        #: streams stay valid across queries once it stabilizes.
        self._gkey_stride = 0
        # nothing is open yet: the first generation opens the way a
        # refresh() opens any later one, with nothing to keep
        self._postings_files: dict = {}  # term shard -> [_PostingsFile]
        #: the term dictionary (:class:`_TermDict`), built on the first
        #: postings or df access and carried across refresh()
        self._term_dict = None
        self._suggest_cache = None
        #: term shard -> (serials of the files every one of its cached
        #: postings was decoded with, {term: rows to decode, None until
        #: located}) for the shards a commit changed since those were
        #: decoded: lookups there bring them over (_carry_postings)
        self._stale: dict = {}
        #: (path, identity) of each docs file, in docs-table row order
        self._docs_files: list = []
        self.doc_space = 0
        self._norms = None          # doc_id -> norm byte (dense)
        self._present = None        # doc_id -> row exists in docs table
        #: dense doc_id -> docs-table row position (-1: no row)
        self._locator = None
        #: resident docs-table columns (one chunk each), in table row
        #: order; None until the norms are read
        self._docs: pa.Table | None = None
        self._null_cols: dict = {}  # field -> docs table may hold nulls
        self._open_generation(stats)

    @property
    def term_cache_bytes(self) -> int:
        """Byte budget of all of this engine's caches together
        (:class:`_Caches`); a count-only cap lets 1024 stop-word streams
        (8-9 B/occurrence with positions and key streams) blow a worker
        heap on a big shard.  Eviction drops the least recently used
        entries until under budget, never the current query's postings.
        0 disables the byte cap.  The process's resident postings row
        groups are trimmed to the same budget after each read."""
        return self._cache.budget

    @term_cache_bytes.setter
    def term_cache_bytes(self, n: int) -> None:
        self._cache.budget = n

    @property
    def term_cache_size(self) -> int:
        """Entry cap of the decoded-postings cache."""
        return self._cache.caps["postings"]

    @term_cache_size.setter
    def term_cache_size(self, n: int) -> None:
        self._cache.caps["postings"] = n

    def cache_stats(self) -> dict:
        """Hits, misses, evictions, entries and bytes of every engine
        cache, by name (Solr's cache statistics); the bytes of all of
        them together stay within ``term_cache_bytes`` plus the current
        query's postings."""
        return self._cache.stats()

    def refresh_stats(self) -> dict:
        """The index generation open, and what the last ``refresh()`` (or
        the engine's open) reused: docs files read and kept, postings
        files opened and kept, and, counted as the reads after it bring
        them to the new files, term-dictionary shards kept and built
        (:meth:`_TermDict.carried`) and decoded postings entries kept,
        extended and dropped (:meth:`_carry_postings`)."""
        td = self._term_dict
        return {**self._reuse,
                "term_shards_kept": td.kept if td is not None else 0,
                "term_shards_built": (td.builds if td is not None else 0)
                - self._builds_before}

    # ------------------------------------------------------------------ #
    # small state
    # ------------------------------------------------------------------ #
    def _open_generation(self, stats: dict) -> None:
        """Open the committed generation ``stats`` describe, keeping what
        was derived from the files it shares with the generation open
        before (nothing, for a new engine) — Lucene's
        ``DirectoryReader.openIfChanged``, which shares the readers of
        unchanged segments.  A commit leaves most files alone:
        ``extend_index`` appends docs files and postings segments (and
        replaces the segments of a range it merges), a delete or an
        atomic update rewrites only the tombstones or overlays.  So the
        resident docs state grows by the new docs files' rows now
        (:meth:`_open_docs`); the decoded postings of a term shard whose
        files changed are brought to the new files by the lookups there,
        from their rows in the files the commit left alone plus their
        rows in the new files (:meth:`_carry_postings`); a
        term-dictionary shard whose files changed is built again on
        first use (:meth:`_TermDict.carried`); the filter masks grow by the new
        rows on first use (:meth:`_filter_rows`); and only the caches
        derived from the statistics or the whole index (``"generation"``)
        or from the side files (``"side"``) start empty.  Spreading the
        work this way keeps both the refresh and the first read after it
        short: a read pays only for the row groups it touches."""
        old = self._postings_files
        try:
            self._open_postings(stats)
        except FileNotFoundError:
            # a later commit's merge unlinked a file: open that commit
            stats = self.manifest.read_stats()
            self._open_postings(stats)
        new = self._postings_files
        self.stats = stats
        self.n_docs = int(stats["n_docs"])          # indexed (valid) docs
        self.avgdl = float(stats["avgdl"])
        if self._collection is not None:
            self.n_docs = self._collection.n_docs
            self.avgdl = self._collection.avgdl
        self._stored_fields = self._filter_fields = None
        changed = {s for s in old.keys() | new.keys()
                   if [f.serial for f in old.get(s, ())]
                   != [f.serial for f in new.get(s, ())]}
        if self._term_dict is not None:
            self._term_dict = self._term_dict.carried(new)
        #: shards the dictionary had built before this generation opened
        self._builds_before = (self._term_dict.builds
                               if self._term_dict is not None else 0)
        if changed:
            self._suggest_cache = None
        docs_kept, docs_read = self._open_docs()
        # N, avgdl and df moved: no score vector survives
        n_shards = int(stats["n_shards"])
        cached = self._cache.maps["postings"]
        stale: dict = {}
        for term, (tp, *_) in cached.items():
            if tp is not None and tp.score_vec is not None:
                tp.score_vec = None
                self._cache.replace("postings", term, tp)
            if changed and term_shard(term, n_shards) in changed:
                stale.setdefault(term_shard(term, n_shards), []).append(term)
        for s, terms in stale.items():
            # files every entry was decoded with: those it had then, less
            # any merged away since
            seen = {f.serial for f in old.get(s, ())}
            if s in self._stale:
                seen &= self._stale[s][0]
            self._stale[s] = (seen, dict.fromkeys(terms))
        self._cache.clear("generation")
        self._open_side()
        was = {f.serial for fs in old.values() for f in fs}
        files = [f for fs in new.values() for f in fs]
        kept = sum(f.serial in was for f in files)
        self._reuse = {
            "generation": int(stats.get("generation", 1)),
            "docs_files_read": docs_read, "docs_files_kept": docs_kept,
            "postings_files_opened": len(files) - kept,
            "postings_files_kept": kept,
            "postings_kept": len(cached) - self._n_stale(),
            "postings_extended": 0, "postings_dropped": 0,
        }

    def _open_side(self) -> None:
        """Take the current tombstones and overlays files (read on first
        use) and drop every cache entry derived from them."""
        self._side = self._side_files()
        self._tombstones = None     # set[int] or None
        self._overlays = None       # doc_id -> {col: value}
        self._dead = _MISS          # dense tombstone mask, or None
        self._cache.clear("side")

    def _open_postings(self, stats: dict) -> None:
        """Open the postings files the commit ``stats`` lists, by term
        shard (under ``doc_range``: the segments of that range), each by
        a handle that pins its bytes — a later commit's merge unlinks
        the files it replaced — so the term dictionary, built from them
        on first use, never reads a later generation before
        ``refresh()``.  A file some engine of the process already holds
        (this one's previous generation included) is shared, with its
        resident row groups (:func:`_open_postings_file`)."""
        root = os.path.join(self.index_dir, "postings")
        files: dict = {}
        for rel in self.manifest.committed_files(stats, "postings"):
            shard, name = rel.split("/")
            if self._range is None or segment_range(name) == self._range:
                files.setdefault(int(shard[6:]), []).append(
                    _open_postings_file(os.path.join(root, rel)))
        self._postings_files = files

    def _open_docs(self) -> tuple:
        """Open this generation's docs table and set ``doc_space``, the
        size of the dense doc-id address space (>= n_docs when inline
        validation skipped rows but kept their id slots) — under
        ``doc_range``, the range's rows and width.

        The resident docs state (norms, present, locator, columns and
        the filter masks) is kept when the files it was read from are
        still the table's first files, unchanged: an extend only adds
        files, named after their ascending unit ids, so they list last.
        The state then grows by the new files' rows, read now if it was
        read before.  Any other change (a compaction rewrites files)
        drops it.  Returns ``(docs files kept, docs files read)``."""
        ds = pads.dataset(self.manifest.committed_paths("docs", self.stats))
        space = int(self.stats.get("doc_id_space", self.stats["n_docs"]))
        frags = list(ds.get_fragments())
        files = [(f.path, _file_identity(f.path)) for f in frags]
        old, old_space = self._docs_files, self.doc_space
        self._lo = 0
        if self._range is None:
            self.doc_space = space
        else:
            dpr = int(self.stats["docs_per_range"])
            self._lo = self._range * dpr
            self.doc_space = max(min(self._lo + dpr, space) - self._lo, 0)
        self._docs_ds = self._docs_view(ds)
        new = frags[len(old):]
        if files[:len(old)] != old or self.doc_space < old_space:
            self._norms = self._present = self._locator = self._docs = None
            self._null_cols = {}
            self._cache.clear("docs")
            old, new = [], frags
        self._docs_files, self._docs_frags = files, frags
        for fld, has in self._null_cols.items():
            self._null_cols[fld] = has or any(
                _may_hold_nulls(f.metadata, fld) for f in new)
        if self._norms is None:
            return len(old), 0
        # the new files read with the table's schema, as the whole
        # table is: one file may type a stored column differently
        self._add_docs_rows(self._docs_view(pads.dataset(
            [f.path for f in new], schema=ds.schema)).to_table(
                columns=self._docs.column_names) if new else None)
        return len(old), len(new)

    def _docs_view(self, ds):
        """Docs dataset ``ds`` as this engine reads it: whole, or only the
        rows of its doc range (:class:`_DocRange`)."""
        if self._range is None:
            return ds
        return _DocRange(ds, self._lo, self._lo + self.doc_space)

    def _add_docs_rows(self, t) -> None:
        """Put the docs rows ``t`` (None: none) after the resident ones:
        the dense norms, present and locator arrays grow to
        ``doc_space`` and address them too, and each resident column
        gets their values (``t`` has exactly those columns)."""
        n = 0 if self._norms is None else self._docs.num_rows
        norms = np.zeros(self.doc_space, dtype=np.uint8)
        present = np.zeros(self.doc_space, dtype=bool)
        locator = np.full(self.doc_space, -1, dtype=np.int64)
        if self._norms is not None:
            k = self._norms.size
            norms[:k], present[:k] = self._norms, self._present
            locator[:k] = self._locator
        if t is not None:
            ids = t["doc_id"].to_numpy()
            norms[ids] = t["norm"].to_numpy()
            present[ids] = True
            locator[ids] = n + np.arange(ids.size, dtype=np.int64)
            cols = [_one_array(t[c]) for c in t.column_names]
            if n:
                cols = [pa.concat_arrays([self._docs[c].chunk(0), col])
                        for c, col in zip(t.column_names, cols)]
            self._docs = pa.Table.from_arrays(cols, names=t.column_names)
        self._norms, self._present, self._locator = norms, present, locator

    @property
    def norms(self) -> np.ndarray:
        if self._norms is None:
            self._add_docs_rows(
                self._docs_ds.to_table(columns=["doc_id", "norm"]))
        return self._norms

    @property
    def present(self) -> np.ndarray:
        """Dense doc_id -> exists-in-docs-table mask (False for id slots of
        rows rejected by inline validation); independent of tombstones."""
        self.norms  # built together
        return self._present

    @property
    def tombstones(self) -> set:
        if self._tombstones is None:
            ids = read_tombstones(self.index_dir)
            if self._range is not None:
                hi = self._lo + self.doc_space
                ids = {d - self._lo for d in ids if self._lo <= d < hi}
            self._tombstones = ids
        return self._tombstones

    def _dead_mask(self):
        """Dense doc_id -> deleted mask (read-only), or None when no doc
        is deleted: ORed into every read's exclusions, so no cached
        filter or match mask depends on the tombstones."""
        if self._dead is _MISS:
            self._dead = None
            if self.tombstones:
                dead = np.zeros(self.doc_space, dtype=bool)
                dead[np.fromiter(self.tombstones, dtype=np.int64)] = True
                dead.flags.writeable = False
                self._dead = dead
        return self._dead

    def _side_files(self) -> tuple:
        """Identity of the tombstones and overlays files (None: absent),
        which deletes and atomic updates replace without a new
        generation."""
        out = []
        for name in ("tombstones.parquet", "overlays.parquet"):
            try:
                out.append(_file_identity(os.path.join(self.index_dir, name)))
            except FileNotFoundError:
                out.append(None)
        return tuple(out)

    def refresh(self) -> bool:
        """Reopen the searcher (Solr: openSearcher after a commit) and
        return True when a newer commit was picked up — the
        long-lived-actor pattern (BatchSearcher) calls this between
        batches instead of constructing a new engine.

        A commit costs what it wrote.  When only the tombstones or
        overlays changed (a delete or an atomic update), only the caches
        derived from them are dropped.  When the generation moved, the
        new generation is opened keeping everything derived from the
        files it shares with the old one (:meth:`_open_generation`): an
        extend reads only its new docs files and postings segments.
        :meth:`refresh_stats` reports what was reused."""
        new_stats = self.manifest.read_stats()
        same = int(new_stats.get("generation", 1)) == int(
            self.stats.get("generation", 1)
        ) and new_stats.get("n_docs") == self.stats.get("n_docs")
        if not same:
            self._open_generation(new_stats)
            return True
        if self._side_files() == self._side:
            return False
        self._open_side()
        if self._term_dict is not None:
            self._term_dict = self._term_dict.carried(self._postings_files)
        self._reuse = dict.fromkeys(self._reuse, 0)
        self._reuse.update(
            generation=int(self.stats.get("generation", 1)),
            docs_files_kept=len(self._docs_files) * (self._norms is not None),
            postings_files_kept=sum(map(len, self._postings_files.values())),
            postings_kept=len(self._cache.maps["postings"]) - self._n_stale())
        return True

    # ------------------------------------------------------------------ #
    # query parsing (engine-aware: stored extras extend range fields)
    # ------------------------------------------------------------------ #
    @property
    def stored_fields(self) -> list:
        """Retrievable/sortable/facetable field names for THIS index: the
        core schema plus any ``extra_stored`` build columns (discovered
        from the docs parquet schema, not hard-coded).  ``content`` stays
        opt-in via ``fl`` (heavy); ``norm`` is internal."""
        if self._stored_fields is None:
            self._stored_fields = [
                n for n in self._docs_ds.schema.names
                if n not in ("norm", "content")
                and not n.startswith("norm_")  # per-field norms: internal
            ]
        return self._stored_fields

    @property
    def range_fields(self) -> tuple:
        from solr_indexer_ray.functions.queryparse import RANGE_FIELDS

        extras = tuple(
            n for n in self.stored_fields
            if n not in RANGE_FIELDS and n not in ("doc_id", "sha256")
        )
        return (*RANGE_FIELDS, *extras)

    @property
    def scored_fields(self) -> tuple:
        """Extra ANALYZED (scored) fields of this index
        (``IndexConfig.analyzed_fields`` at build time)."""
        return tuple(
            s.split(":", 1)[0]
            for s in self.stats.get("analyzed_fields", ()) or ()
        )

    @property
    def filter_fields(self) -> tuple:
        """Metadata columns an equality/prefix filter may target: the
        core set plus every STRING-typed stored column (extra_stored
        included — Solr: any indexed field is queryable), excluding
        default-field aliases (``content:`` keeps meaning the scored
        default field) and extra analyzed fields."""
        if self._filter_fields is None:
            from solr_indexer_ray.functions.queryparse import (
                DEFAULT_FIELD_ALIASES,
                FILTER_FIELDS,
            )

            schema = self._docs_ds.schema
            extra = tuple(
                n for n, t in zip(schema.names, schema.types)
                if pa.types.is_string(t)
                and n not in FILTER_FIELDS
                and n not in DEFAULT_FIELD_ALIASES
                and n not in self.scored_fields
            )
            self._filter_fields = tuple(FILTER_FIELDS) + extra
        return self._filter_fields

    def _parse(self, query: str) -> ParsedQuery:
        return parse_query(
            query, self.registry.analyzer_for(None),
            range_fields=self.range_fields,
            scored_fields=self.scored_fields,
            filter_fields=self.filter_fields,
        )

    def _parse_bool(self, query: str):
        return parse_boolean(
            query, self.registry.analyzer_for(None),
            range_fields=self.range_fields,
            scored_fields=self.scored_fields,
            filter_fields=self.filter_fields,
        )

    # ------------------------------------------------------------------ #
    # postings access
    # ------------------------------------------------------------------ #
    @property
    def has_positions(self) -> bool:
        return bool(self.stats.get("store_positions", False))

    @property
    def has_bigrams(self) -> bool:
        """Next-word index present (IndexConfig.store_bigrams): adjacent
        pairs are indexed as ``a\x1eb`` terms whose tf is the exact
        2-term phrase frequency."""
        return bool(self.stats.get("store_bigrams", False))

    @property
    def bigram_first(self) -> frozenset:
        """Pinned common-word restriction of the next-word index
        (IndexConfig.bigram_first; empty = every pair indexed).  Query
        routing MUST apply the same set the build did, so a missing pair
        key always means zero occurrences."""
        cached = getattr(self, "_bigram_first", None)
        if cached is None:
            cached = frozenset(self.stats.get("bigram_first") or ())
            self._bigram_first = cached
        return cached

    def _terms_dict(self) -> _TermDict:
        """This generation's term dictionary, over exactly the files
        its commit lists."""
        if self._term_dict is None:
            self._term_dict = _TermDict(self._postings_files,
                                        int(self.stats["n_shards"]))
        return self._term_dict

    def lookup_postings(self, terms, with_positions: bool = False) -> dict:
        """Fetch + decode postings for terms.  A miss is located in the
        term dictionary and its rows sliced out of their resident row
        groups, which the first read of each decompresses; afterwards
        the process's resident row groups are trimmed to
        ``term_cache_bytes``.  Cached entries of a term shard a commit
        changed are first brought to the open files
        (:meth:`_carry_postings`).

        ``with_positions=True`` also decodes the delta-varint position
        stream (phrase queries); a cached entry decoded without positions
        counts as a miss then.
        """
        if with_positions and not self.has_positions:
            raise ValueError(
                "index was built without positions "
                "(IndexConfig.store_positions=False); phrase queries need a "
                "rebuild with store_positions=True"
            )
        terms = sorted(set(terms))
        if self._stale:
            n_shards = int(self.stats["n_shards"])
            for s in self._stale.keys() & {term_shard(t, n_shards)
                                           for t in terms}:
                self._carry_postings(s, terms)
        cache = self._cache
        cache.pin(terms)
        usable = _positional if with_positions else None
        got = {t: cache.get("postings", t, usable) for t in terms}
        terms = [t for t, tp in got.items() if tp is _MISS]
        cached = {t: tp for t, tp in got.items()
                  if tp is not _MISS and tp is not None}
        if not terms:
            return cached
        cols = ["range_id", "doc_ids", "tfs"]
        if with_positions:
            cols.append("positions")
        out = {}
        for st, ts, idx in self._terms_dict().locate(terms):
            found = [(t, st.rows(i)) for t, i in zip(ts, idx.tolist())
                     if i >= 0]
            decoded, reads = self._decode_rows(
                st.at([r for _, rs in found for r in rs]), cols)
            st.reads += reads
            rows = iter(decoded)
            for term, rs in found:
                out[term] = self._postings_of(term, [next(rows) for _ in rs])
        for t in terms:  # misses are cached as None too
            cache.put("postings", t, out.get(t))
        _RESIDENT.trim(self.term_cache_bytes)
        out.update(cached)
        return out

    def _decode_rows(self, at, cols) -> tuple:
        """The postings rows ``at`` (``(file, row position)`` pairs),
        decoded: ``[range_id, file serial, doc ids (local), tfs]`` each,
        plus the raw position stream when ``cols`` asks for
        ``positions``; and the row-group column reads this made."""
        if not at:
            return [], 0
        got, reads = _read_rows(at, cols)
        # a row's df is the number of its postings
        counts = np.array([f.dfs[p] for f, p in at], dtype=np.int64)
        doc_ids = _decode_varints(got["doc_ids"], counts, deltas=True,
                                  minus=self._lo)
        tfs = _decode_varints(got["tfs"], counts)
        out = []
        for j, (f, _) in enumerate(at):
            row = [got["range_id"][j], f.serial, doc_ids[j], tfs[j]]
            if "positions" in got:
                # LAZY: keep the raw delta-varint blob; positions_for()
                # decodes only the candidate postings a phrase/near match
                # actually inspects (a common member term never pays an
                # O(total positions) decode).
                row.append(bytes(got["positions"][j]))
            out.append(row)
        return out, reads

    @staticmethod
    def _postings_of(term: str, rows: list) -> TermPostings:
        """``term``'s :class:`TermPostings` from its decoded rows (see
        :meth:`_decode_rows`), put in doc-id order — range, then segment:
        a range's segments hold ascending blocks of its doc ids (each
        commit's new docs, or a merge of all the older ones)."""
        rows.sort(key=lambda r: r[2][0])
        tfs = np.concatenate([r[3] for r in rows])
        doc_ids = np.concatenate([r[2] for r in rows])
        tp = TermPostings(
            term, df=int(doc_ids.size), cf=int(tfs.sum()), doc_ids=doc_ids,
            tfs=tfs, pos_raw=[[len(r[3]), r[4], r[3], None] for r in rows]
            if len(rows[0]) > 4 else None,
        )
        tp.parts = tuple((r[0], r[1], r[2].size) for r in rows)
        return tp

    def _n_stale(self) -> int:
        """Cached postings entries still to bring to the open files."""
        cached = self._cache.maps["postings"]
        return sum(t in cached for _, ts in self._stale.values() for t in ts)

    def _carry_postings(self, s: int, wanted) -> None:
        """Bring cached postings of term shard ``s``, decoded before the
        last commits changed its files, to the files open now: those of
        the ``wanted`` terms, and with them every other entry of the
        shard whose new rows sit in row groups already decompressed or
        decompressed for the wanted ones — so a burst of reads after a
        commit pays for a few row groups per shard, not for most of its
        terms one by one, nor for row groups no read needs.

        The first call after a commit locates every entry's rows in the
        shard's files that some entry was not decoded with, in those
        files' own terms (no dictionary needed): an entry keeps its rows
        in files the commits left alone, with their doc ids and tfs (and
        its position keys, which depend on the postings alone), and only
        its rows in other files — new segments, or the segment a merge
        wrote in place of some of its files — are decoded; they join in
        doc-id order, one new entry in place of the old, never both
        held.  A positional entry that changed is dropped
        instead, and read again when a phrase asks.  A term cached as
        absent gets its rows in the new files."""
        seen, pending = self._stale[s]
        cached = self._cache.maps["postings"]
        for t in [t for t in pending if t not in cached]:
            del pending[t]  # evicted since
        files = self._postings_files.get(s, [])
        have = {f.serial for f in files}
        unknown = [t for t, at in pending.items() if at is None]
        if unknown:
            added = [f.load() for f in files if f.serial not in seen]
            names = pa.array(unknown, pa.string())
            found = [pc.index_in(names, value_set=f.terms).fill_null(-1)
                     .to_numpy().tolist() for f in added]
            for j, t in enumerate(unknown):
                tp = cached[t][0]
                kept = {p[1] for p in (() if tp is None else tp.parts)}
                pending[t] = [(f, at[j]) for f, at in zip(added, found)
                              if at[j] >= 0 and f.serial not in kept]
        cols = ["range_id", "doc_ids", "tfs"]
        needed = {(f.serial, _group_of(f, p))
                  for t in wanted for f, p in pending.get(t, ())}
        now = [t for t, at in pending.items() if t in wanted or all(
            (f.serial, g) in needed or f.groups.get(g, {}).keys() >= {*cols}
            for f, p in at for g in (_group_of(f, p),))]
        counts = self._reuse
        todo = []  # (term, entry, its parts kept, rows to decode)
        for term in now:
            fresh = pending.pop(term)
            tp = cached[term][0]
            parts = () if tp is None else tp.parts
            kept = [p for p in parts if p[1] in have]
            if not fresh and len(kept) == len(parts):
                counts["postings_kept"] += 1
            elif tp is not None and _positional(tp):
                self._cache._drop("postings", term)
                counts["postings_dropped"] += 1
            else:
                todo.append((term, tp, kept, fresh))
        if not pending:
            del self._stale[s]
        at = [r for *_, fresh in todo for r in fresh]
        decoded = iter(self._decode_rows(at, cols)[0])
        for term, tp, kept, fresh in todo:
            rows = [next(decoded) for _ in fresh]
            lo = 0
            for part in () if tp is None else tp.parts:
                if part in kept:
                    rows.append([*part[:2], tp.doc_ids[lo:lo + part[2]],
                                 tp.tfs[lo:lo + part[2]]])
                lo += part[2]
            self._cache.replace("postings", term, self._postings_of(
                term, rows) if rows else None)
            counts["postings_extended"] += 1
        _RESIDENT.trim(self.term_cache_bytes)

    def _term_postings(self, parsed: ParsedQuery) -> dict:
        """Postings of the query's scored terms and their synonyms."""
        return self.lookup_postings([
            *parsed.terms,
            *(s for t in parsed.terms for s in self.synonyms.get(t, ())),
        ])

    def lookup_dfs(self, terms) -> dict:
        """Global df per term, gathered from the term dictionary's
        per-term sums of the ``df`` column — no posting-blob reads or
        varint decodes.  Identical to ``lookup_postings(t).df`` (Lucene
        df: tombstones included until compact; absent terms absent from
        the dict, like a ``lookup_postings`` miss).  Collection
        statistics for range engines and federated shards and the bigram
        phrase fast paths need exactly this: at corpus scale, reading a
        stop-word's doc_ids blob to learn its df is the difference
        between a dictionary gather and reading the whole postings
        list."""
        out = {}
        for st, ts, idx in self._terms_dict().locate(sorted(set(terms))):
            out.update((t, int(st.df[i])) for t, i in zip(ts, idx) if i >= 0)
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------ #
    # wildcard / prefix (Solr MultiTermQuery CONSTANT_SCORE rewrite)
    # ------------------------------------------------------------------ #
    def _dict_slice(self, lit: str):
        """Zero-copy Arrow slice of the cached sorted term dictionary
        covering the terms with literal prefix ``lit`` (whole dictionary
        when ``lit`` is empty) — replaces per-query parquet term scans.
        Bisects the Arrow array directly (O(log n) scalar probes), so
        the full dictionary is never materialized as Python strings."""
        arr, _dfs = self._dict_state()
        if not lit:
            return arr, arr, 0
        hi = lit[:-1] + chr(ord(lit[-1]) + 1)
        lo_i = self._arr_bisect_left(arr, lit)
        hi_i = self._arr_bisect_left(arr, hi, lo_i)
        return arr.slice(lo_i, hi_i - lo_i), arr, lo_i

    def expand_prefix(self, prefix: str) -> list:
        """Index terms starting with ``prefix`` — two bisects over the
        cached sorted term dictionary (Arrow-native; built once per
        engine), replacing a per-query parquet term-column scan; only
        the matching slice is materialized as Python strings.  Under
        ``collection_stats``, the expansion over the whole collection."""
        if self._collection is not None:
            return self._collection.expand_prefix(prefix,
                                                  self.max_expansions)
        return _capped(f"wildcard {prefix}*", self._prefix_terms(prefix),
                       self.max_expansions).to_pylist()

    def _prefix_terms(self, prefix: str) -> pa.Array:
        return self._dict_slice(prefix)[0]

    def eval_prefix(self, prefix: str) -> np.ndarray:
        """Docs containing ANY expansion of ``prefix*`` (constant-score:
        each matching doc scores 1.0 for the clause, the Solr/Lucene
        default multi-term rewrite)."""
        return self._eval_expansion(self.expand_prefix(prefix))

    def _eval_expansion(self, terms: list) -> np.ndarray:
        """Docs containing any of ``terms``, a multi-term expansion."""
        postings = self.lookup_postings(terms) if terms else {}
        if not postings:
            return np.empty(0, np.int64)
        return self._union_doc_ids(list(postings.values()))

    def expand_pattern(self, pattern: str) -> list:
        """Dictionary terms matching a general wildcard (``*`` / ``?``
        anywhere) or a ``/regex/`` clause (Lucene RegexpQuery), memoized
        per pattern and cap; under ``collection_stats``, the expansion
        over the whole collection."""
        cap = self.max_expansions

        def expand():
            if self._collection is not None:
                return self._collection.expand_pattern(pattern, cap)
            return _capped(_pattern_label(pattern),
                           self._pattern_terms(pattern), cap).to_pylist()

        return self._cache.memo("patterns", (pattern, cap), expand)

    def _pattern_terms(self, pattern: str) -> pa.Array:
        """This index's terms matching ``pattern``, sorted.  The literal
        prefix before the first metacharacter bisects the cached sorted
        term dictionary (same as :meth:`expand_prefix` — no per-query
        parquet scan); the pattern itself runs as a vectorized kernel
        over the surviving slice (``pc.match_like`` for wildcards,
        anchored ``pc.match_substring_regex`` — RE2, the same engine
        DuckDB uses, so the SQL oracle agrees bit-for-bit — for
        regexes)."""
        if pattern.startswith("/") and pattern.endswith("/") and len(pattern) > 2:
            inner = pattern[1:-1]
            # literal prefix: leading word chars not consumed by a
            # quantifier on the last one (/abc*/ -> literal "ab")
            lit = re.match(r"^[A-Za-z0-9_]*", inner).group(0)
            if lit and len(lit) < len(inner) and inner[len(lit)] in "*+?{":
                lit = lit[:-1]
            terms, _, _ = self._dict_slice(lit)
            return terms.filter(
                pc.match_substring_regex(terms, f"^(?:{inner})$"))
        lit = re.match(r"^[^*?]*", pattern).group(0)
        terms, _, _ = self._dict_slice(lit)
        like = (
            pattern.replace("\\", "\\\\").replace("%", "\\%")
            .replace("_", "\\_").replace("*", "%").replace("?", "_")
        )
        return terms.filter(pc.match_like(terms, like))

    def eval_pattern(self, pattern: str) -> np.ndarray:
        """Docs containing ANY expansion of a general wildcard pattern
        (constant-score, like :meth:`eval_prefix`)."""
        return self._eval_expansion(self.expand_pattern(pattern))

    def _union_doc_ids(self, tps) -> np.ndarray:
        """Sorted union of the postings' doc ids.  Doc ids are dense in
        ``[0, doc_space)``, so when the id space isn't vastly larger
        than the input a bool-mask scatter + flatnonzero is O(total)
        with no sort — multi-term expansions (wildcard/prefix/regex)
        union dozens of overlapping lists where the sort-based
        ``np.unique`` was the dominant per-query cost.  Falls back to
        ``np.unique`` for very sparse unions over a huge id space."""
        if len(tps) == 1:
            # read-only view: callers own "a sorted union", never the
            # live cached postings array (fail-fast if one mutates it)
            out = tps[0].doc_ids.view()
            out.flags.writeable = False
            return out
        total = sum(tp.doc_ids.size for tp in tps)
        # low floor: a 64 KiB mask scan is noise, but a multi-MB
        # doc_space must not pay an O(doc_space) pass for a tiny union
        if self.doc_space <= max(1 << 16, 8 * total):
            mask = np.zeros(self.doc_space, dtype=bool)
            for tp in tps:
                mask[tp.doc_ids] = True
            return np.flatnonzero(mask)
        return np.unique(
            np.concatenate([tp.doc_ids for tp in tps])
        )

    # ------------------------------------------------------------------ #
    # fuzzy (Lucene FuzzyQuery, blended SynonymQuery-stats rewrite)
    # ------------------------------------------------------------------ #
    def expand_fuzzy(self, word: str, max_edits: int) -> list:
        """Index terms within ``max_edits`` classic Levenshtein edits of
        ``word`` (including ``word`` itself when indexed — FuzzyQuery
        matches at distance 0), memoized per (word, edits, cap); under
        ``collection_stats``, the expansion over the whole collection, so
        a member indexed only elsewhere still sets the blended df."""
        word = (word or "").lower()
        cap = self.max_expansions

        def expand():
            if self._collection is not None:
                return self._collection.expand_fuzzy(word, max_edits, cap)
            return _capped(f"fuzzy {word}~{max_edits}",
                           self._fuzzy_terms(word, max_edits), cap)

        return self._cache.memo("fuzzy", (word, max_edits, cap), expand)

    def _fuzzy_terms(self, word: str, max_edits: int) -> list:
        """This index's terms near ``word`` (lower-cased): the spellcheck
        suggester's sorted-trie automaton walk (:func:`_fuzzy_scan`)."""
        terms, _dfs = self._suggest_state()
        return [terms[i] for i, _d in _fuzzy_scan(word, terms, max_edits)]

    def _fuzzy_group(self, word: str, edits: int):
        """Blended stats for a fuzzy clause (Lucene
        TopTermsBlendedFreqScoringRewrite ~ SynonymQuery) over its
        expansion."""
        members = self.expand_fuzzy(word, edits)
        return self._blended_group(members, self.lookup_postings(members))

    def _blended_group(self, members, postings):
        """Lucene SynonymQuery stats over distinct ``members``: union doc
        ids, per-doc tf = SUM over members, df = MAX over members (a
        member without postings here counts with its merged df).
        Returns (None, None, 0) when no member has postings."""
        tps = [postings[m] for m in members if m in postings]
        if not tps:
            return None, None, 0
        acc = np.zeros(self.doc_space, dtype=np.int64)
        for tp in tps:
            acc[tp.doc_ids] += tp.tfs
        docs = np.flatnonzero(acc)
        return docs, acc[docs], max(
            self._df(m, postings[m].df if m in postings else 0)
            for m in members
        )

    # ------------------------------------------------------------------ #
    # phrase matching (Lucene ExactPhraseMatcher semantics)
    # ------------------------------------------------------------------ #
    def _phrase_stride(self, tps, margin: int) -> int | None:
        """Engine stride for global phrase keys covering ``tps`` with
        ``margin`` headroom (phrase length / slop), or None when the
        key space would overflow int64 (caller falls back to the
        per-candidate segment matcher)."""
        need = max(tp.max_position() for tp in tps) + margin
        stride = self._gkey_stride
        if need > stride:
            stride = 1 << int(need - 1).bit_length()
        if self.doc_space * stride > (1 << 62):
            # don't commit the oversized stride: one huge-document term
            # must not poison the fast path for every later query; drop
            # the half-decoded parts the key build will never consume
            for tp in tps:
                tp._ckparts = None
            return None
        self._gkey_stride = stride
        return stride

    def _phrase_match_keys(self, phrase, postings):
        """Exact-phrase ``(docs, freqs)`` via cached GLOBAL position keys.

        Each member term's occurrences are encoded once as
        ``doc_id·stride + position`` (:meth:`TermPostings.global_keys` —
        hot terms pay the encode once per engine lifetime), and a phrase
        start survives when ``anchor_key + offset`` is present in every
        member's stream.  Per-query work is one binary-search membership
        pass per non-anchor member sized by the SMALLEST member's stream
        — no doc intersection, no per-candidate position gather, no
        score-bound ordering.  Key arithmetic and the doc-boundary guard
        (stride > max_position + len(phrase) + 1, so a shifted key can
        never collide with a neighbouring doc's range) are exactly
        :func:`_phrase_freqs`'s, hence bit-identical freqs (tested A/B).
        Returns None when int64 keys can't cover the doc space (caller
        uses the segment matcher).
        """
        uniq = list(dict.fromkeys(phrase))
        stride = self._phrase_stride(
            [postings[t] for t in uniq], len(phrase) + 2
        )
        if stride is None:
            return None
        keys = {t: postings[t].global_keys(stride) for t in uniq}
        return _run_lengths(_phrase_survivors(keys, phrase) // stride)

    def _near_match_keys(self, terms, slop: int, postings):
        """Ordered-proximity ``(docs, freqs)`` via global position keys —
        :func:`_near_freqs`'s greedy earliest-next chain run directly on
        the cached per-term streams.  First-term starts are pre-filtered
        to docs containing every member (one membership pass) so chain
        work matches the segment matcher's candidate set without any
        position gather.  Returns None on int64 overflow."""
        uniq = list(dict.fromkeys(terms))
        stride = self._phrase_stride(
            [postings[t] for t in uniq], len(terms) + slop + 2
        )
        if stride is None:
            return None
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        keys = {t: postings[t].global_keys(stride) for t in uniq}
        if len(terms) == 2:
            return _near2_from_keys(keys[terms[0]], keys[terms[1]],
                                    slop, stride)
        docs = postings[uniq[0]].doc_ids
        for t in uniq[1:]:
            docs = _sorted_intersect(docs, postings[t].doc_ids)
            if docs.size == 0:
                return empty
        starts = keys[terms[0]]
        if docs.size < postings[terms[0]].df:
            starts = starts[_sorted_isin(starts // stride, docs)]
        surv = _chain_survivors(keys, terms, slop, starts, stride)
        return _run_lengths(surv // stride)

    @staticmethod
    def _candidate_segments(terms, postings):
        """Doc-level conjunction of the unique member terms, then each
        term's candidate position segments aligned with the surviving
        docs — the shared preamble of both segment-form fallback
        matchers.  Returns ``(docs, segments)``; ``segments`` is None
        when the conjunction is empty."""
        uniq = list(dict.fromkeys(terms))
        docs = postings[uniq[0]].doc_ids
        for t in uniq[1:]:
            docs = _sorted_intersect(docs, postings[t].doc_ids)
            if docs.size == 0:
                return np.empty(0, np.int64), None
        segments = {}
        for t in uniq:
            tp = postings[t]
            ti = np.searchsorted(tp.doc_ids, docs)
            lengths = tp.tfs[ti]
            segments[t] = (tp.positions_for(ti, lengths), lengths)
        return docs, segments

    def _phrase_match_segments(self, phrase, postings):
        """Fallback exact-phrase matcher: doc-level conjunction, then
        per-candidate position segments through :func:`_phrase_freqs`
        (used when global int64 keys can't cover the doc space)."""
        docs, segments = self._candidate_segments(phrase, postings)
        if segments is None:
            return docs, np.empty(0, np.int64)
        return _phrase_freqs(docs, segments, phrase)

    def _near_match_segments(self, terms, slop, postings):
        """Fallback proximity matcher (segment form of
        :meth:`_near_match_keys`)."""
        docs, segments = self._candidate_segments(terms, postings)
        if segments is None:
            return docs, np.empty(0, np.int64)
        return _near_freqs(docs, segments, terms, slop)

    def eval_phrase(self, phrase) -> tuple:
        """Docs containing the exact phrase -> ``(doc_ids, freqs, w)``.

        ``freqs`` counts non-overlapping-start occurrences (phrase tf);
        ``w`` is the Lucene PhraseQuery weight: the SUM of the member
        terms' idfs (duplicates counted — BM25Similarity.idfExplain over
        the term array).
        """
        empty = (np.empty(0, np.int64), np.empty(0, np.int64), 0.0)
        key = (_bigram_postings_key(list(phrase), self.bigram_first)
               if self.has_bigrams else None)
        if key is not None:
            # next-word index: the pair's postings ARE the phrase match —
            # tf == exact phrase frequency, no position decode at all.
            # Weight stays the PhraseQuery sum of MEMBER idfs, so scores
            # are bit-identical to the positional matcher (tested A/B).
            tp = self.lookup_postings([key]).get(key)
            if tp is None:
                return empty
            # member postings never read: df-only column scan for the
            # PhraseQuery weight (a pair in the index implies both
            # members are indexed)
            dfs = self.lookup_dfs(phrase)
            w = float(sum(self.idf(self._df(t, dfs[t])) for t in phrase))
            return tp.doc_ids, tp.tfs, w
        chain = (_bigram_chain_keys(list(phrase), self.bigram_first)
                 if self.has_bigrams and self.has_positions else None)
        if chain is not None:
            # combined index: run the exact matcher over the consecutive
            # PAIR position streams (first-token positions) — the same
            # freqs as member-position intersection, decoding far less
            dfs = self.lookup_dfs(phrase)  # member blobs never read
            if any(t not in dfs for t in phrase):
                return empty
            w = float(sum(self.idf(self._df(t, dfs[t])) for t in phrase))
            uniq = list(dict.fromkeys(chain))
            postings = self.lookup_postings(uniq, with_positions=True)
            if any(k not in postings for k in uniq):
                return np.empty(0, np.int64), np.empty(0, np.int64), w
            out = self._phrase_match_keys(chain, postings)
            if out is None:
                out = self._phrase_match_segments(chain, postings)
            return out[0], out[1], w
        postings = self.lookup_postings(list(phrase), with_positions=True)
        if any(t not in postings for t in phrase):
            return empty
        w = float(sum(self.idf(self._df(t, postings[t].df))
                        for t in phrase))
        out = self._phrase_match_keys(list(phrase), postings)
        if out is None:
            out = self._phrase_match_segments(list(phrase), postings)
        return out[0], out[1], w

    def eval_near(self, terms, slop: int) -> tuple:
        """Ordered proximity match ``"a b"~slop`` -> (doc_ids, freqs, w).

        Lucene SpanNearQuery(inOrder=true) semantics: an in-order chain
        of the member terms with span width <= slop; ``freqs`` counts
        matching first-term start positions; ``w`` is the PhraseQuery
        weight (sum of member idfs) — the documented scoring model for
        proximity clauses."""
        terms = list(terms)
        empty = (np.empty(0, np.int64), np.empty(0, np.int64), 0.0)
        postings = self.lookup_postings(terms, with_positions=True)
        if any(t not in postings for t in terms):
            return empty
        w = float(sum(self.idf(self._df(t, postings[t].df))
                        for t in terms))
        out = self._near_match_keys(terms, slop, postings)
        if out is None:
            out = self._near_match_segments(terms, slop, postings)
        return out[0], out[1], w

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def idf(self, df: int) -> float:
        return self.scoring.idf(self.n_docs, df)

    def _df(self, term: str, df: int) -> int:
        """The df scoring uses for ``term``: ``df``, this index's own
        count, or the df merged over every shard under
        ``collection_stats``."""
        return df if self._collection is None else self._collection.df(term)

    def _norm_factor(self, norm_bytes: np.ndarray) -> np.ndarray:
        """K(d) = k1 * (1 - b + b * decoded_dl / avgdl) as float64."""
        dl = DECODE_TABLE[norm_bytes]
        return self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)

    # -- per-field scoring (extra analyzed fields) --------------------- #
    def field_norms(self, fld: str) -> np.ndarray:
        """Dense doc_id -> SmallFloat norm byte for one analyzed field
        (the ``norm_<field>`` docs column)."""
        arr = self._cache.get("field_norms", fld)
        if arr is _MISS:
            t = self._field_table(f"norm_{fld}")
            arr = np.zeros(self.doc_space, dtype=np.uint8)
            arr[t["doc_id"].to_numpy()] = t[f"norm_{fld}"].to_numpy()
            self._cache.put("field_norms", fld, arr)
        return arr

    def _fstat(self, fld: str) -> tuple:
        """(docCount, avgdl) of an analyzed field (Lucene per-field
        collection stats; merged ones under ``collection_stats``)."""
        s = ((self.stats.get("field_stats") if self._collection is None
              else self._collection.field_stats) or {}).get(fld)
        if s is None:
            raise ValueError(
                f"field {fld!r} is not an analyzed field of this index "
                f"(analyzed: {list(self.scored_fields)})"
            )
        return int(s["n_docs"]), float(s["avgdl"]) or 1.0

    def field_term_postings(self, fld: str, term: str):
        """TermPostings of one fielded term (terms are stored
        field-prefixed in the shared postings structure)."""
        return self.lookup_postings([f"{fld}\x1f{term}"]).get(
            f"{fld}\x1f{term}"
        )

    def _field_score_vec(self, fld: str, tp) -> np.ndarray:
        """Per-posting BM25 with the FIELD's stats: idf from the field's
        docCount, K from the field's avgdl and the posting's field norm
        (norms ride per posting at build time)."""
        if tp.score_vec is None:
            doc_count, _avgdl = self._fstat(fld)
            w = self.scoring.idf(doc_count, self._df(tp.term, tp.df))
            tp.score_vec = w * self.scoring.impact(
                tp.tfs, self._field_norm_factor(fld, tp.doc_ids)
            )
        return tp.score_vec

    def _field_norm_factor(self, fld: str, docs: np.ndarray) -> np.ndarray:
        """K(d) of an analyzed field, from its norms and avgdl."""
        _doc_count, avgdl = self._fstat(fld)
        dl = DECODE_TABLE[self.field_norms(fld)[docs]]
        return self.k1 * (1.0 - self.b + self.b * dl / avgdl)

    def eval_field_phrase(self, fld: str, phrase) -> tuple:
        """Exact phrase over an analyzed FIELD's positional postings ->
        ``(doc_ids, freqs, w)`` — Lucene fielded PhraseQuery: w = sum of
        the member terms' FIELD idfs; tf = phrase frequency in the
        field's token stream."""
        empty = (np.empty(0, np.int64), np.empty(0, np.int64), 0.0)
        pref = [f"{fld}\x1f{t}" for t in phrase]
        postings = self.lookup_postings(pref, with_positions=True)
        if any(p not in postings for p in pref):
            return empty
        doc_count, _avgdl = self._fstat(fld)
        w = float(
            sum(self.scoring.idf(doc_count, self._df(p, postings[p].df))
                for p in pref)
        )
        out = self._phrase_match_keys(pref, postings)
        if out is None:
            out = self._phrase_match_segments(pref, postings)
        return out[0], out[1], w

    def _or_null(self, expr, fld: str):
        """``expr | fld is null``, or ``expr`` when no docs file holds a
        null ``fld`` — known from the parquet footers' null counts,
        read once per field and docs file."""
        has = self._null_cols.get(fld)
        if has is None:
            has = self._null_cols[fld] = any(
                _may_hold_nulls(f.metadata, fld) for f in self._docs_frags
            )
        return expr | pc.field(fld).is_null() if has else expr

    def _filter_rows(self, key, expr, fields) -> np.ndarray:
        """Dense doc_id -> whether its docs row makes the scan filter
        ``expr()`` true, over the docs columns ``fields``.  Evaluated
        over the resident docs columns by the filter a parquet scan
        applies (Acero's, through ``Table.filter``), so nulls count
        exactly as there, and cached under ``key`` with the number of
        rows covered: after an extend only the rows of the new docs
        files are evaluated.  Independent of the tombstones, so a delete
        keeps it."""
        cols = self._docs_table(["doc_id", *fields])
        n = cols.num_rows
        hit = self._cache.get("filters", key)
        mask, done = (np.zeros(0, dtype=bool), 0) if hit is _MISS else hit
        if done == n and mask.size == self.doc_space:
            return mask
        grown = np.zeros(self.doc_space, dtype=bool)
        grown[:mask.size] = mask
        grown[cols.slice(done).filter(expr())["doc_id"].to_numpy()] = True
        return self._cache.put("filters", key, (grown, n))[0]

    def _excluded_mask(self, parsed: ParsedQuery) -> np.ndarray | None:
        """Boolean mask of the docs a flat query's own filters and MUST_NOT
        clauses exclude (the deleted docs not included: :meth:`_match`
        adds them).

        Memoized per (filters, ``must_not``) for one generation — metadata
        filters repeat across queries; each filter clause's rows come
        from :meth:`_filter_rows`, which a commit keeps.
        """
        key = (
            tuple(sorted(set(parsed.filters))),
            tuple(parsed.range_filters),
            tuple(parsed.spatial_filters),
            repr(parsed.must_not),  # the dataclass repr names every clause
        )
        return self._cache.memo("masks", key,
                                lambda: self._build_excluded_mask(parsed))

    def _build_excluded_mask(self, parsed: ParsedQuery) -> np.ndarray | None:
        """The rows ``parsed``'s filters reject, plus the docs any clause
        (:meth:`_clauses`) or filter of its ``must_not`` query matches;
        ``None`` when there are none."""
        marks = list(self._filter_masks(parsed, accept=False))
        neg = parsed.must_not
        if neg is not None:
            marks += [docs for _label, docs, _contrib
                      in self._clauses(neg, self._term_postings(neg))]
            marks += self._filter_masks(neg, accept=True)
        if not marks:
            return None
        mask = np.zeros(self.doc_space, dtype=bool)
        for m in marks:
            mask[m] = True
        return mask

    def _filter_masks(self, parsed: ParsedQuery, accept: bool):
        """Dense row masks of ``parsed``'s metadata, range and spatial
        filters: the rows each accepts, or (``accept=False``) the rows it
        rejects, null rows included — ``~(f == v)`` is null there, and a
        scan filter drops null rows."""
        side = "in" if accept else "out"

        def rows(expr, fld):
            return expr if accept else self._or_null(~expr, fld)

        for fld, val in dict.fromkeys(parsed.filters):
            yield self._filter_rows(
                (side, fld, val),
                lambda: rows(self._filter_value_expr(fld, val), fld), [fld])
        for rf in parsed.range_filters:
            yield self._filter_rows(
                (side, rf), lambda: rows(self._range_expr(rf), rf.field),
                [rf.field])
        for sf in parsed.spatial_filters:
            expr = self._spatial_expr(sf)  # column validation
            yield self._filter_rows(
                (side, sf),
                lambda: expr if accept else _spatial_nonmatch_expr(sf),
                _spatial_columns(sf))

    def _spatial_expr(self, sf):
        """Validated pyarrow scan expression for one envelope predicate
        against this index's stored bbox columns."""
        schema_names = set(self._docs_ds.schema.names)
        cols = _spatial_columns(sf)
        missing = [c for c in cols if c not in schema_names]
        if missing:
            raise ValueError(
                f"spatial filter on {sf.field!r} needs stored columns "
                f"{cols} (missing: {missing}); build the "
                "index with extra_stored including them"
            )
        return _spatial_pred_expr(sf)

    def _range_expr(self, rf):
        return _typed_range_expr(self._docs_ds.schema, rf)

    @staticmethod
    def _filter_value_expr(fld: str, val: str):
        """One metadata filter; a trailing ``*`` prefix-matches the value."""
        if val.endswith("*") and len(val) > 1:
            return pc.starts_with(pc.field(fld), val[:-1])
        return pc.field(fld) == val

    def search(
        self,
        query: str,
        k: int = 10,
        fl=None,
        sort: str | None = None,
        start: int = 0,
        hl: bool = False,
        fq=None,
        search_after=None,
        qf: str | None = None,
        tie: float = 0.0,
        mm=None,
        pf: str | None = None,
        ps: int = 0,
        pf2: str | None = None,
        pf3: str | None = None,
        bf=None,
        boost=None,
        bq=None,
    ) -> pa.Table:
        """Top-k BM25 search; returns a table of stored fields + score.

        ``k=10`` mirrors Solr's default ``rows=10``; ``fl`` mirrors the
        field-projection parameter (``solrindexer/search.py:129-140``);
        ``sort`` mirrors Solr's sort param (``"doclen desc, path asc"`` —
        stored fields, ``score``, ``doc_id``; ascending ``doc_id`` is
        always appended as the final tie-break).  Default ranking is
        ``score desc`` (Solr default).  ``start`` pages into the ranking
        (Solr ``start``): rows [start, start+k) of the full ordering —
        deep paging costs a deeper top-k, exactly like Solr.  ``hl=True``
        (Solr ``hl``) appends an ``hl`` snippet column — requires an index
        built with ``store_content=True``.  ``fq`` is Solr's filter-query
        list: each entry restricts the match set WITHOUT contributing to
        the score; its doc-set mask is cached per fq string across queries
        (the filterCache analogue).  ``search_after=(score, doc_id)`` is
        cursor paging (Solr cursorMark / Lucene searchAfter): the k hits
        strictly after that ranking position — O(k) per page instead of
        ``start``'s O(start+k), the deep-paging form that scales.
        Relevance ranking only (pass the previous page's last row).
        A doc matches by the clauses it hits, never by its score (OR: one
        clause, ``AND``: every clause, ``mm``: at least that many), so a
        ``^0`` clause or ``qf`` field matches at score 0, as under
        Lucene's BoostQuery; :meth:`match_ids`, facets, ``fq`` and
        :meth:`explain` read the same match set.  ``qf``/``tie`` is the
        (e)dismax field list (:meth:`_apply_qf`); like ``mm``, ``pf``
        and ``bf``/``boost``/``bq`` it is rejected on a grouped boolean
        query.  ``mm`` is Solr (e)dismax minimum-should-match (int /
        ``"-1"`` / ``"75%"`` / conditional ``"2<-25% 9<-3"`` — see
        :func:`resolve_min_should_match`): a doc must match at least that
        many DISTINCT optional scoring clauses.  Applies to flat OR
        queries (Solr: ``mm`` governs the optional clauses of the main
        dismax boolean query; with ``AND`` every clause is already
        required, and the lucene parser ignores ``mm``); scores are
        unchanged — ``mm`` only gates membership.  Scores TAAT.
        ``bf`` / ``boost`` are Solr edismax FUNCTION QUERIES over stored
        numeric/timestamp fields (``recip(doclen,1,1000,1000)``,
        ``sqrt(stars)`` — see :mod:`..functions.funcquery`): ``bf``
        values ADD to each match's score, ``boost`` values MULTIPLY the
        final score (``final = (base + sum(bf)) * product(boost)``).
        Score-only — they never gate membership.  Each accepts one
        expression string or a list (repeated Solr params).
        ``bq`` is the Solr edismax BOOST QUERY (one query string or a
        list): each bq is parsed with the normal query syntax and its
        per-doc score is ADDED to docs matching both the main query and
        the bq (membership from the main query alone — edismax puts bq
        next to the required main query as a SHOULD clause).  A
        pure-metadata-filter bq (``lang:java^5``) contributes a
        ConstantScoreQuery-style constant = the product of its filter
        boosts (our metadata fields are filters, not scored text — a
        documented deviation from Solr's per-field BM25 there).
        Composition: ``final = (base + bf + pf + bq) * product(boost)``.
        Every ranking parameter composes with ``sort``, ``start``,
        ``search_after`` and a ``{!collapse}`` fq: each collects from the
        one prepared, scored match set (:meth:`_prepare`, :meth:`_match`).
        """
        _check_page(k, start)
        fq, collapse = _extract_collapse_fq(fq)
        if collapse is not None and (
                sort is not None or search_after is not None or hl):
            raise ValueError(
                "{!collapse} composes with relevance ranking only "
                "(no sort/search_after/hl)"
            )
        if _is_directive(query) and (
                sort is not None or search_after is not None):
            raise ValueError(_DIRECTIVE_ONLY)
        if search_after is not None and (sort is not None or start):
            raise ValueError(
                "search_after composes with relevance ranking only "
                "(no sort/start)"
            )
        parsed = self._prepare(query, qf, tie, mm, pf, ps, pf2, pf3,
                               bf, boost, bq, hl)
        if collapse is not None:
            heads = self._collapse(parsed, collapse[0], start + k, fq,
                                   collapse[1])
            ids, scores = heads["doc_id"].to_numpy(), heads["score"].to_numpy()
        elif sort is not None:
            ids, scores = self._sorted_hits(parsed, sort, start + k, fq)
        else:
            after = None if search_after is None else (
                float(search_after[0]), int(search_after[1]))
            ids, scores = self._ranked(parsed, start + k, fq, after)
        t = self._resolve(ids[start:], scores[start:], fl)
        return self._add_highlights(parsed, t, hl) if hl else t

    def _prepare(self, query: str, qf: str | None = None, tie: float = 0.0,
                 mm=None, pf: str | None = None, ps: int = 0,
                 pf2: str | None = None, pf3: str | None = None, bf=None,
                 boost=None, bq=None, hl=False) -> ParsedQuery:
        """``query`` parsed and ready for any collector: the (e)dismax
        parameters applied and checked and the source string attached.  A
        parenthesized boolean query is parsed once, into its clause tree,
        and takes none of the (e)dismax parameters; a filter directive
        takes none of them and keeps only its source."""
        if _is_directive(query):
            if (any(x is not None for x in (qf, mm, pf, pf2, pf3, bf,
                                            boost, bq)) or hl or ps):
                raise ValueError(_DIRECTIVE_ONLY)
            return ParsedQuery(source=query)
        has_pf = pf or pf2 or pf3
        if has_group_syntax(query or ""):
            if qf is not None:
                raise ValueError(
                    "qf is a dismax/edismax parameter; use fielded "
                    "clauses inside grouped boolean queries"
                )
            if has_pf:
                raise ValueError(
                    "pf is a dismax/edismax parameter; use explicit "
                    "phrase clauses inside grouped boolean queries"
                )
            if mm is not None:
                raise ValueError(
                    "mm is a dismax/edismax parameter; grouped boolean "
                    "queries express their own required counts"
                )
            if bf is not None or boost is not None or bq is not None:
                raise ValueError(
                    "bf/boost/bq are dismax/edismax parameters; not "
                    "supported with grouped boolean queries"
                )
            parsed = ParsedQuery(tree=self._parse_bool(query))
        else:
            parsed = self._parse(query)
            free_seq = list(parsed.terms)  # pf sequence, before qf rewrites
            if qf is not None:
                parsed = self._apply_qf(parsed, qf, tie)
            if mm is not None:
                self._apply_mm(parsed, mm)
            if has_pf:
                self._apply_pf(parsed, free_seq, pf, ps, pf2, pf3)
        self._prepare_rerank(parsed, bf, boost, bq, hl)
        parsed.source = query
        return parsed

    def _match(self, parsed: ParsedQuery, fq=None, after=None) -> tuple:
        """``(ids, scores)`` of a prepared query's WHOLE match set, in no
        particular order — what every collector (ranked top-k, sort,
        cursor, group, collapse, rerank) reads.

        :meth:`_match_core` decides it without the deleted and
        ``fq``-rejected docs; filter directives score 1.0.  Without a
        cursor, the docs Solr's QueryElevationComponent pins join the
        set with their organic score, or 0.0 when they do not match.
        ``after=(score, doc_id)`` keeps only the hits strictly after that
        position of the (-score, doc_id) ranking."""
        query = parsed.source
        if _is_directive(query):
            ids = self._filtered_match_ids(query, fq).astype(np.int64)
            scores = np.ones(ids.size)
        else:
            ids, scores = self._match_core(
                parsed, self._merge_fq_mask(self._dead_mask(), fq))
        if after is not None:
            return _after_cursor(ids, scores, after)
        pins = self._pins(query)
        if pins.size:
            new = pins[~np.isin(pins, ids)]
            ids = np.concatenate([ids, new])
            scores = np.concatenate([scores, np.zeros(new.size)])
        return ids, scores

    def _match_core(self, parsed: ParsedQuery, excluded=None) -> tuple:
        """``(ids, scores)`` of a prepared query that is no filter
        directive, ids ascending, without the docs its own filters and
        prohibitions reject or ``excluded`` marks: the one rule that
        decides a match set, read by every collector, :meth:`match_ids`,
        the fq masks, the boolean tree's leaves, ``bq`` and
        :meth:`explain`.  Flat queries count clauses in the TAAT
        accumulator, grouped boolean queries run the clause tree, and a
        query with no scoring clause matches every doc it keeps at score
        0.  No elevation pins."""
        if parsed.tree is not None:
            mask, dense = self._eval_bool_node(parsed.tree)
            mask &= self.present
            if excluded is not None:
                mask &= ~excluded
            ids = np.flatnonzero(mask)
            return ids, dense[ids]
        own = self._excluded_mask(parsed)
        if own is not None:
            excluded = own if excluded is None else own | excluded
        if parsed.scoring_clauses == 0:
            ids = self._match_all(excluded)
            return ids, np.zeros(ids.size)
        return self._match_score_arrays(
            parsed, self._term_postings(parsed), excluded)

    def _pins(self, query: str) -> np.ndarray:
        """The live docs elevated for ``query`` (Solr
        QueryElevationComponent), in editorial order."""
        if query not in self.elevate:
            return np.empty(0, np.int64)
        return np.array([
            d for d in dict.fromkeys(int(d) for d in self.elevate[query])
            if 0 <= d < self.doc_space and self.present[d]
            and d not in self.tombstones
        ], np.int64)

    def _ranked(self, parsed: ParsedQuery, k: int, fq=None,
                after=None) -> tuple:
        """The top ``k`` hits by (-score, doc_id) of :meth:`_match`'s
        set as ``(ids, scores)`` arrays, after the ``after`` cursor when
        given; without one, elevated docs lead in editorial order and the
        organic ranking follows."""
        ids, scores = self._match(parsed, fq, after)
        pins = self._pins(parsed.source) if after is None else ()
        if not len(pins):
            return _select_topk(ids, scores, k)
        pinned = np.isin(ids, pins)
        # _match put every pin in the set: its organic score, or 0.0
        order = np.argsort(ids)
        head = scores[order[np.searchsorted(ids, pins, sorter=order)]]
        top_ids, top_scores = _select_topk(ids[~pinned], scores[~pinned], k)
        return (np.concatenate([pins, top_ids])[:k],
                np.concatenate([head, top_scores])[:k])

    def _apply_mm(self, parsed: ParsedQuery, mm) -> None:
        """Resolve + attach Solr ``mm`` to a freshly-parsed flat query.

        ``mm`` governs the OPTIONAL clauses of a dismax main query; with
        ``AND`` every clause is already required and Solr's lucene parser
        ignores ``mm``, so it is rejected explicitly here instead of
        silently doing nothing."""
        if parsed.conjunctive:
            raise ValueError(
                "mm applies to optional (OR) clauses; AND already "
                "requires every clause"
            )
        parsed.min_should = resolve_min_should_match(
            mm, parsed.scoring_clauses
        )

    def _apply_pf(self, parsed: ParsedQuery, seq, pf, ps=0,
                  pf2=None, pf3=None) -> None:
        """Solr edismax phrase fields: append SCORE-ONLY phrase-boost
        clauses over the free-term sequence ``seq`` (captured before
        ``qf`` rewrites terms into dismax clauses).

        ``pf`` adds the WHOLE query as one phrase per listed field
        (skipped under 2 terms, like Solr); ``pf2``/``pf3`` add every
        adjacent bigram/trigram.  ``ps`` is the phrase slop: 0 = exact
        phrase, N = our ordered span-near (documented deviation: Lucene
        sloppy phrases allow transpositions at slop >= 2; fielded pf
        requires ps=0 — fielded proximity is not implemented).  Boost
        syntax ``field^2``; ``content`` = the default body field."""
        specs = [(pf, 0), (pf2, 2), (pf3, 3)]
        slop = int(ps)
        for spec, n in specs:
            if not spec:
                continue
            if n == 0:
                grams = [tuple(seq)] if len(seq) >= 2 else []
            else:
                grams = [
                    tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)
                ]
            for name, boost in self._field_boosts(spec, "pf"):
                if name != "content" and slop:
                    raise ValueError(
                        "ps > 0 on a fielded pf needs fielded proximity "
                        "(not implemented); use ps=0"
                    )
                for g in grams:
                    parsed.boost_phrases.append(
                        (None if name == "content" else name,
                         g, slop, boost)
                    )

    def _field_boosts(self, spec: str, param: str) -> list:
        """``"content^1 path_text^2"`` -> ``[(field, boost), ...]`` for
        the (e)dismax ``qf``/``pf`` lists (no ``^`` = boost 1.0).  Like
        Lucene's BoostQuery, a negative or non-finite boost is an error,
        so no per-field dismax contribution is ever below 0."""
        out = []
        for part in spec.split():
            name, _, b = part.partition("^")
            boost = float(b) if b else 1.0
            if not math.isfinite(boost) or boost < 0:
                raise ValueError(
                    f"{param} boost must be a finite float >= 0, "
                    f"got {part!r}"
                )
            if name != "content" and name not in self.scored_fields:
                raise ValueError(
                    f"{param} field {name!r} is not analyzed in this index "
                    f"(have: content, {', '.join(self.scored_fields)})"
                )
            out.append((name, boost))
        return out

    def _apply_qf(self, parsed: ParsedQuery, qf: str, tie: float):
        """Solr (e)dismax ``qf``: every free-text term becomes ONE
        DisjunctionMax clause over the listed fields
        (``qf="content^1 path_text^2"``; ``content`` = the default body
        field).  Per doc the clause scores max over the per-field BM25
        scores + ``tie`` * the rest (DisMax tiebreaker; Solr default 0).
        Query-time term boosts multiply every field's boost.  Documented
        deviation: query-time synonym expansion does not apply inside
        dismax clauses (the content side scores the literal term)."""
        import copy

        fpairs = self._field_boosts(qf, "qf")
        if not fpairs:
            raise ValueError("empty qf")
        out = copy.copy(parsed)
        out.dismax = list(parsed.dismax)
        out.terms = []
        out.dismax_tie = float(tie)
        for term in sorted(set(parsed.terms)):
            tb = parsed.boosts.get(term, 1.0)
            out.dismax.append(
                (term, tuple((f, b * tb) for f, b in fpairs))
            )
        return out

    def _merge_fq_mask(self, excluded, fq):
        """OR the filter-query exclusion masks into ``excluded``.

        Each distinct fq string computes its match set ONCE and caches the
        inverse as a dense exclusion mask (Solr filterCache: filters are
        evaluated independently of the main query and reused).  Every read
        ORs the deleted docs in, so a delete keeps the mask; only a join
        or block join, whose matches depend on what is deleted, is kept
        until the next commit."""
        if not fq:
            return excluded
        fqs = [fq] if isinstance(fq, str) else list(fq)
        for f in fqs:
            name, key = ("joins", ("fq", f)) if _links_docs(f) \
                else ("fq", f)
            m = self._cache.get(name, key)
            if m is _MISS:
                member = np.zeros(self.doc_space, dtype=bool)
                member[self.match_ids(f) if _is_directive(f)
                       else self._match_core(self._prepare(f))[0]] = True
                m = self._cache.put(name, key, ~member)
            excluded = m.copy() if excluded is None else (excluded | m)
        return excluded

    def _add_highlights(self, parsed: ParsedQuery, t: pa.Table,
                        opts=None) -> pa.Table:
        """Append an ``hl`` snippet column (Solr highlighting, best-effort):
        a window around each of the first ``hl.snippets`` matching tokens
        (default 1, ~``hl.fragsize`` chars, default 160) with every
        matching token inside wrapped in ``hl.tag.pre``/``post``
        (``<em>`` Solr defaults); multiple snippets join with ``" … "``.
        Like Solr's highlighters, the stored content is re-analyzed with
        offsets (:func:`token_spans`, by the doc's ``lang`` analyzer and
        the index's filter chain), and a token matches when its analyzed
        term is a query term (a ``qf`` dismax term over ``content``
        too), one of its query-time synonyms or a fuzzy expansion, or
        matches a prefix, wildcard or regex clause; docs with no
        matching token get null.
        A grouped boolean query highlights the clauses of its tree
        outside negated subtrees."""
        from solr_indexer_ray.functions.filters import FilteredRegistry
        from solr_indexer_ray.functions.tokenize import token_spans

        opts = opts if isinstance(opts, dict) else {}
        fragsize = max(1, int(opts.get("fragsize", 160)))
        n_snip = max(1, int(opts.get("snippets", 1)))
        pre = str(opts.get("pre", "<em>"))
        post = str(opts.get("post", "</em>"))

        words, prefixes, patterns = set(), [], []
        for leaf in _leaves(parsed):
            words.update(leaf.terms)
            # query-time synonyms score with their term (_synonym_group)
            words.update(m for w in leaf.terms
                         for m in self.synonyms.get(w, ()))
            # qf moves the free terms into dismax groups (_apply_qf)
            words.update(w for w, fields in leaf.dismax
                         if any(f == "content" for f, _ in fields))
            words.update(w for ph in leaf.phrases for w in ph)
            words.update(w for ph, _ in leaf.near_phrases for w in ph)
            prefixes += leaf.prefixes
            for word, edits in leaf.fuzzies:  # expansion terms highlight
                words.update(self.expand_fuzzy(word, edits))
            for wc in leaf.wildcards:
                try:  # a regex clause in RE2-only syntax highlights nothing
                    patterns.append(re.compile(
                        wc[1:-1] if wc.startswith("/") else
                        re.escape(wc).replace(r"\*", ".*")
                        .replace(r"\?", ".")))
                except re.error:
                    pass
        prefixes = tuple(prefixes)
        chain = (self.registry.chain.map_term
                 if isinstance(self.registry, FilteredRegistry) else None)

        def matches(tok: str) -> bool:
            term = tok if chain is None else chain(tok)
            return term is not None and (
                term in words or term.startswith(prefixes)
                or any(p.fullmatch(term) for p in patterns))

        if not (words or prefixes or patterns) or t.num_rows == 0:
            return t.append_column(
                "hl", pa.array([None] * t.num_rows, pa.string()))
        ids = t["doc_id"].to_numpy()
        idx, rows = self._hit_rows(ids)
        stored = dict(zip(ids[idx].tolist(), self._docs_take(
            ["lang", "content"], rows).to_pylist()))
        snippets = []
        lead = max(0, (fragsize * 3) // 8)
        for d in ids.tolist():
            row = stored.get(d) or {}
            text = row.get("content") or ""
            hits = [(a, b) for a, b, tok in token_spans(
                text, self.registry.analyzer_name(row.get("lang")))
                if matches(tok)]
            frags = []
            prev_hi = 0
            i = 0
            while len(frags) < n_snip and i < len(hits):
                # fragments stay disjoint (clamp at the previous end)
                # and always cover the full triggering token, even when
                # fragsize is smaller than the token
                start, end = hits[i]
                lo = max(prev_hi, start - lead)
                hi = min(len(text), max(lo + fragsize, end))
                parts, at = [], lo
                for a, b in hits[i:]:
                    if b > hi:
                        break
                    parts += [text[at:a], pre, text[a:b], post]
                    at = b
                frags.append("".join(parts) + text[at:hi])
                prev_hi = hi
                while i < len(hits) and hits[i][0] < hi:
                    i += 1
            snippets.append(" … ".join(frags) if frags else None)
        return t.append_column("hl", pa.array(snippets, pa.string()))

    def _sorted_hits(self, parsed: ParsedQuery, sort: str, n: int,
                     fq=None) -> tuple:
        """The first ``n`` hits of the match set in Solr ``sort=f1 desc,
        f2 asc`` order (:func:`_sort_top`) as ``(ids, scores)`` arrays.
        At cluster scale each range runs this and the driver merges with
        the same kernel (:func:`sorted_partitioned`)."""
        keys = _sort_keys(sort, self.stored_fields)
        doc_ids, scores = self._match(parsed, fq)
        sel = _sort_top(keys, doc_ids, scores,
                        self._sort_values(keys, doc_ids), n)
        return doc_ids[sel], scores[sel]

    def _sort_values(self, keys, doc_ids) -> dict:
        """The stored sort keys' values of ``doc_ids``: a gather from the
        cached dense per-doc column (docValues analogue), no join."""
        return {f: self._dense_field(f)[doc_ids] for f, _ in keys
                if f not in ("score", "doc_id")}

    def _match_all(self, excluded) -> np.ndarray:
        """Sorted ids of the docs rows ``excluded`` leaves — the matches
        of a query with no scoring clause, whose positive filters are in
        ``excluded`` already as the rows they reject."""
        return np.flatnonzero(
            self.present if excluded is None else self.present & ~excluded)

    def _term_score_vec(self, tp: TermPostings) -> np.ndarray:
        if tp.score_vec is None:
            w = self.idf(self._df(tp.term, tp.df))
            K = self._norm_factor(self.norms[tp.doc_ids])
            tp.score_vec = w * self.scoring.impact(tp.tfs, K)
        return tp.score_vec

    def _accumulate(self, parsed, postings, scores, seen):
        """Add every scoring clause's contribution (:meth:`_clauses`)
        into ``scores`` and count its hits in ``seen``
        (:func:`_count_hits`); returns the number of clauses present in
        the index."""
        n_present = 0
        for _label, docs, contrib in self._clauses(parsed, postings):
            _scatter_add(scores, docs, contrib)
            _count_hits(seen, docs)
            n_present += 1
        return n_present

    def _clauses(self, parsed, postings):
        """``(label, docs, contributions)`` of every scoring clause that
        matches some doc: ``docs`` ascending and unique, ``contributions``
        aligned with them (one constant for prefix and wildcard clauses).
        The one place clauses are ordered and scored.  The order is
        PINNED (terms and synonym groups asc, fielded terms, fielded
        phrases, dismax groups, fuzzies, phrases, proximity clauses,
        prefixes, wildcards/regexes): float64 summation order is part of
        the rank-identity contract across TAAT / distributed / oracle
        scorers and :meth:`explain`."""
        syn = self.synonyms
        for term in sorted(set(parsed.terms)) if syn else sorted(postings):
            b = parsed.boosts.get(term)  # query-time boost (term^2)
            if syn and term in syn:
                docs, tfs, df = self._synonym_group(term, postings)
                if docs is not None:
                    w = self.idf(df) * (1.0 if b is None else b)
                    yield "term:" + term, docs, self._weighted_impact(
                        w, docs, tfs)
                continue
            tp = postings.get(term)
            if tp is not None:
                vec = self._term_score_vec(tp)
                yield ("term:" + term, tp.doc_ids,
                       vec if b is None else vec * b)
        # fielded terms: per-field BM25 — field df/docCount/avgdl/norms
        # (Lucene fielded TermQuery over a second analyzed field)
        for ft in sorted(set(parsed.field_terms)):
            tp = self.field_term_postings(*ft)
            if tp is not None:
                vec = self._field_score_vec(ft[0], tp)
                b = parsed.field_term_boosts.get(ft)
                yield (f"field:{ft[0]}:{ft[1]}", tp.doc_ids,
                       vec if b is None else vec * b)
        # fielded phrases: Lucene fielded PhraseQuery — field idfs,
        # field norms/avgdl
        for fp in sorted(set(parsed.field_phrases)):
            fld, ph = fp
            docs, freqs, w = self.eval_field_phrase(fld, list(ph))
            if docs.size:
                w *= parsed.field_phrase_boosts.get(fp, 1.0)
                yield (f'field_phrase:{fld}:"{" ".join(ph)}"', docs,
                       self._weighted_impact(w, docs, freqs, fld))
        for term, fpairs in parsed.dismax:
            docs, contrib = self._dismax(term, fpairs, parsed.dismax_tie,
                                         postings)
            if docs is not None:
                yield (f"dismax:{term}({' '.join(f for f, _ in fpairs)})",
                       docs, contrib)
        # fuzzy clauses: blended SynonymQuery-stats groups
        for fz in sorted(set(parsed.fuzzies)):
            docs, tfs, df = self._fuzzy_group(*fz)
            if docs is not None:
                w = self.idf(df) * parsed.fuzzy_boosts.get(fz, 1.0)
                yield (f"fuzzy:{fz[0]}~{fz[1]}", docs,
                       self._weighted_impact(w, docs, tfs))
        for ph in sorted(map(tuple, parsed.phrases)):
            docs, freqs, w = self.eval_phrase(list(ph))
            if docs.size:
                w *= parsed.phrase_boosts.get(ph, 1.0)
                yield (f'phrase:"{" ".join(ph)}"', docs,
                       self._weighted_impact(w, docs, freqs))
        # proximity clauses: span-near match, phrase scoring (duplicates
        # iterate like duplicate phrases — required-count parity)
        for near in sorted(parsed.near_phrases):
            docs, freqs, w = self.eval_near(*near)
            if docs.size:
                w *= parsed.near_boosts.get(near, 1.0)
                yield (f'near:"{" ".join(near[0])}"~{near[1]}', docs,
                       self._weighted_impact(w, docs, freqs))
        # prefixes, then wildcards and regexes: constant score (1.0, or
        # the clause boost) per matching doc (Solr CONSTANT_SCORE rewrite)
        for pre in sorted(parsed.prefixes):
            docs = self.eval_prefix(pre)
            if docs.size:
                yield (f"prefix:{pre}*", docs,
                       parsed.prefix_boosts.get(pre, 1.0))
        for pat in sorted(set(parsed.wildcards)):
            docs = self.eval_pattern(pat)
            if docs.size:
                kind = "regex" if pat.startswith("/") else "wildcard"
                yield (f"{kind}:{pat}", docs,
                       parsed.wildcard_boosts.get(pat, 1.0))

    def _weighted_impact(self, w, docs, tfs, fld=None) -> np.ndarray:
        """``w · impact(tf, K)`` of ``docs``: the BM25 of a clause whose
        weight and tf are computed per query (phrases, proximity,
        synonym and fuzzy groups, pf boosts), K from the body's norms or,
        with ``fld``, from that analyzed field's."""
        K = (self._norm_factor(self.norms[docs]) if fld is None
             else self._field_norm_factor(fld, docs))
        return w * self.scoring.impact(tfs.astype(np.float64), K)

    def _dismax(self, term, fpairs, tie, postings) -> tuple:
        """``(docs, contributions)`` of a dismax group, or ``(None,
        None)`` when no field holds ``term``: per doc the max over its
        per-field scores + ``tie`` * the sum of the rest (Solr
        DisjunctionMaxQuery with tiebreaker)."""
        tps = []
        for fld, fboost in fpairs:
            if fld == "content":
                tp = (postings.get(term)
                      or self.lookup_postings([term]).get(term))
                if tp is None:
                    continue
                fvec = self._term_score_vec(tp) * fboost
            else:
                tp = self.field_term_postings(fld, term)
                if tp is None:
                    continue
                fvec = self._field_score_vec(fld, tp) * fboost
            tps.append((tp, fvec))
        if not tps:
            return None, None
        if len(tps) == 1:
            return tps[0][0].doc_ids, tps[0][1]
        # union-sized max/sum instead of doc_space-dense passes
        # (identical per-element float op order: scatter per field in qf
        # order, max, then + tie·(sum − max))
        docs = self._union_doc_ids([tp for tp, _ in tps])
        best = np.zeros(docs.size, dtype=np.float64)
        tot = np.zeros(docs.size, dtype=np.float64) if tie != 0.0 else None
        buf = np.zeros(docs.size, dtype=np.float64)
        for tp, fvec in tps:
            pos = np.searchsorted(docs, tp.doc_ids)
            buf[:] = 0.0
            buf[pos] = fvec
            np.maximum(best, buf, out=best)
            if tot is not None:
                tot += buf
        return docs, best if tie == 0.0 else best + tie * (tot - best)

    def func_column(self, field: str) -> np.ndarray:
        """Dense float64 doc-space array for a numeric/timestamp stored
        column — the function-query (``bf``/``boost``) value source.

        Missing values (null, or doc rows absent from the docs table)
        read as 0.0 — Solr's default for absent numeric DocValues.
        Timestamp columns evaluate as epoch MILLISECONDS (the ``ms()``
        convention).  Atomic-update overlays are applied, so function
        scores track ``update_doc`` changes like ``fl`` reads do."""
        cached = self._cache.get("func", field)
        if cached is not _MISS:
            return cached
        if field not in self.stored_fields or field in ("doc_id",):
            raise ValueError(
                f"function queries need a stored numeric field; {field!r} "
                f"is not one (have: {sorted(self.stored_fields)})"
            )
        t = self._field_table(field)
        col = t[field]
        if not (
            pa.types.is_timestamp(col.type)
            or pa.types.is_integer(col.type)
            or pa.types.is_floating(col.type)
        ):
            raise ValueError(
                f"function queries need a numeric/timestamp field; "
                f"{field!r} is {col.type}"
            )
        dense = np.zeros(self.doc_space, dtype=np.float64)
        dense[t["doc_id"].to_numpy()] = _func_values(col)
        for did, cols in self._load_overlays().items():
            v = cols.get(field)
            if isinstance(v, (int, float)) and 0 <= did < self.doc_space:
                dense[did] = float(v)
        return self._cache.put("func", field, dense)

    def _prepare_funcs(self, bf, boost):
        """Parse + validate ``bf``/``boost`` expressions into AST lists.

        Accepts a single expression string or a list of them (Solr allows
        repeated ``bf``/``boost`` params; we do NOT whitespace-split a
        single string — unlike Solr's infamous bf tokenization, an
        expression with spaces inside parens stays one expression)."""
        from solr_indexer_ray.functions.funcquery import (
            func_fields,
            parse_func,
        )

        def to_nodes(spec):
            if spec is None:
                return []
            exprs = [spec] if isinstance(spec, str) else list(spec)
            nodes = [parse_func(e) for e in exprs]
            for nd in nodes:
                for f in sorted(func_fields(nd)):
                    self.func_column(f)  # eager validation + cache warm
            return nodes

        return to_nodes(bf), to_nodes(boost)

    def _prepare_bq(self, bq) -> list:
        """Parse + validate edismax ``bq`` boost queries.

        One query string or a list (Solr allows repeated ``bq`` params).
        Returns ``[(sub ParsedQuery, constant), ...]``: ``constant`` is
        the ConstantScoreQuery weight for a PURE-FILTER bq (product of
        its ``^w`` filter boosts, default 1.0 — our metadata fields are
        filters, not scored text fields; Solr would BM25-score them) and
        0.0 for a scored bq (its contribution is its own query score,
        clause boosts included in the parse)."""
        specs = [bq] if isinstance(bq, str) else list(bq)
        out = []
        for s in specs:
            if has_group_syntax(s or ""):
                raise ValueError(
                    "grouped boolean bq is not supported; flatten the "
                    "boost query or use several bq params"
                )
            sub = self._parse(s)
            if sub.is_match_all:
                raise ValueError(
                    "match-all bq adds the same constant to every match "
                    "— a no-op for ranking; use bf for constant offsets"
                )
            const = 0.0
            if sub.scoring_clauses == 0:
                const = 1.0
                for w in sub.filter_boosts.values():
                    const *= float(w)
            out.append((sub, const))
        return out

    def _add_bq_scores(self, parsed, scores, cand) -> None:
        """Add edismax ``bq`` contributions to the matched docs' scores.

        Each bq's ``(ids, scores)`` come from :meth:`_match_core`, the
        rule every match set follows, and fold in only where the MAIN
        query already matched — bq never extends membership.  Pure-filter
        bq adds its constant; scored bq adds its own per-doc score."""
        for sub, const in parsed.boost_queries:
            ids, s = self._match_core(sub)
            keep = np.isin(ids, cand, assume_unique=True)
            idx = ids[keep]
            if idx.size == 0:
                continue
            scores[idx] += s[keep]
            if const:
                scores[idx] += const

    def _apply_func_scores(self, parsed, scores, cand) -> None:
        """Apply function-query boosts to the matched docs' scores.

        Solr edismax composition: ``bf`` functions join the main boolean
        query as additive SHOULD clauses, then ``boost`` wraps the whole
        thing in a multiplicative BoostedQuery — so
        ``final = (base + sum(bf)) * product(boost)``.  Membership is
        decided before this runs (function values never match docs)."""
        from solr_indexer_ray.functions.funcquery import (
            eval_func,
            func_fields,
        )

        def value(node):
            cols = {f: self.func_column(f)[cand]
                    for f in sorted(func_fields(node))}
            if not cols:  # constant expression
                cols = {"": np.zeros(cand.size, dtype=np.float64)}
                cols.pop("")
                n1 = eval_func(node, {})
                return np.full(cand.size, n1[0], dtype=np.float64)
            return eval_func(node, cols)

        for node in parsed.boost_funcs:
            scores[cand] += value(node)
        for node in parsed.mult_funcs:
            scores[cand] *= value(node)

    def _add_boost_scores(self, parsed, scores) -> None:
        """Add the edismax pf phrase-boost contributions into ``scores``.

        Called AFTER membership is decided (Solr: the pf boost query
        reranks the main query's matches, it never creates or removes
        them — a doc matching only the pf phrase, possible with a fielded
        pf, stays out).  No seen/n_present interaction by construction."""
        for fld, g, slop, boost in sorted(
            parsed.boost_phrases,
            key=lambda c: (c[0] or "", c[1], c[2], c[3]),
        ):
            if fld is not None:
                docs, freqs, w = self.eval_field_phrase(fld, list(g))
            elif slop == 0:
                docs, freqs, w = self.eval_phrase(list(g))
            else:
                docs, freqs, w = self.eval_near(g, slop)
            if docs.size:
                scores[docs] += self._weighted_impact(w * boost, docs, freqs,
                                                      fld)

    def _match_score_arrays(self, parsed, postings, excluded):
        """The TAAT scorer up to (but not including) the top-k cut:
        ``(cand ids, their scores)`` of a flat scored query, UNRANKED —
        what :meth:`_match` returns for it and the ranked path's
        ``_select_topk`` reads."""
        #: a doc matches by the clauses it hits, never by its score (a
        #: ``^0`` clause matches at score 0, Lucene BoostQuery).  AND
        #: requires every DISTINCT query clause — terms absent from the
        #: index included (Lucene: AND with a non-existent term matches
        #: nothing), so count from the parse, not the lookup; Solr ``mm``
        #: requires ``min_should`` optional clauses; OR requires one.
        if parsed.conjunctive:
            required = parsed.scoring_clauses
        else:
            required = max(parsed.min_should, 1)
        scores = np.zeros(self.doc_space, dtype=np.float64)
        seen = np.zeros(self.doc_space,
                        dtype=bool if required == 1 else np.int32)
        if self._accumulate(parsed, postings, scores, seen) == 0:
            return np.empty(0, np.int64), np.empty(0)
        cand = np.flatnonzero(seen >= required)
        if parsed.boost_phrases:
            # pf boost scores join AFTER membership (they rerank the
            # main query's matches, never extend them; the ranking a
            # cursor walks includes them)
            self._add_boost_scores(parsed, scores)
        if parsed.boost_queries:
            # bq boost queries: additive, before the multiplicative
            # boost= functions so they're wrapped like every SHOULD clause
            self._add_bq_scores(parsed, scores, cand)
        if parsed.boost_funcs or parsed.mult_funcs:
            # function boosts (bf/boost): same score-only contract as pf
            self._apply_func_scores(parsed, scores, cand)
        if excluded is not None:
            cand = cand[~excluded[cand]]
        return cand, scores[cand]

    # -- parenthesized boolean grouping --------------------------------- #
    def _eval_leaf(self, parsed: ParsedQuery):
        """(match_mask, scores) dense arrays of one atom of a boolean
        tree: :meth:`_match_core`'s, scores 0 outside its match set so a
        parent node can sum child score vectors directly."""
        ids, s = self._match_core(parsed)
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        scores = np.zeros(self.doc_space, dtype=np.float64)
        scores[ids] = s
        return mask, scores

    def _eval_bool_node(self, node):
        """Recursive (mask, scores) evaluation of a boolean clause tree.

        Lucene BooleanQuery scoring: a matching doc's score is the SUM of
        every matching scoring clause inside every MATCHED branch — an
        unmatched AND branch contributes nothing even where its individual
        clauses matched, which the per-node ``scores[~mask] = 0`` below
        enforces.  A negated child is MUST_NOT over its node in BOTH ops
        (Lucene treats ``-x`` as a clause type, never a satisfying
        alternative: ``(a OR b) -c`` = ``(a|b) AND NOT c``); ``OPT``
        nodes are mask-neutral score carriers (the SHOULD clauses of a
        MUST+SHOULD list); ``boost`` scales the subtree's scores."""
        if not isinstance(node, BoolNode):
            return self._eval_leaf(node)
        pos_mask = None
        neg_mask = None
        scores = np.zeros(self.doc_space, dtype=np.float64)
        for negated, child in node.children:
            m, s = self._eval_bool_node(child)
            if negated:
                neg_mask = m.copy() if neg_mask is None else (neg_mask | m)
                continue
            scores += s
            if pos_mask is None:
                pos_mask = m.copy()
            elif node.op == "AND":
                pos_mask &= m
            else:
                pos_mask |= m
        if node.op == "OPT":
            # mask-neutral: contributes score wherever its child matched,
            # never constrains the parent's match set
            mask = np.ones(self.doc_space, dtype=bool)
        elif pos_mask is None:
            # pure-negative node: Lucene BooleanQuery with only MUST_NOT
            # clauses matches NOTHING (the top-level *:* courtesy wrap is
            # applied by parse_boolean, not here)
            mask = np.zeros(self.doc_space, dtype=bool)
        else:
            mask = pos_mask
        if neg_mask is not None:
            mask = mask & ~neg_mask
        scores[~mask] = 0.0
        if node.boost != 1.0:
            scores *= node.boost
        return mask, scores

    def _prepare_rerank(self, parsed: ParsedQuery, bf, boost, bq,
                        hl) -> None:
        """Attach the ``bf``/``boost`` functions and ``bq`` queries to a
        parsed query, or reject them (and ``hl`` without stored
        content)."""
        if bf is not None or boost is not None:
            if parsed.scoring_clauses == 0:
                raise ValueError(
                    "bf/boost rerank a scored match set; match-all / "
                    "pure-filter queries have none (sort by the field "
                    "instead)"
                )
            parsed.boost_funcs, parsed.mult_funcs = self._prepare_funcs(
                bf, boost
            )
        if bq is not None:
            if parsed.scoring_clauses == 0:
                raise ValueError(
                    "bq reranks a scored match set; match-all / "
                    "pure-filter main queries have none"
                )
            parsed.boost_queries = self._prepare_bq(bq)
        if hl and not self.stats.get("store_content"):
            raise ValueError(
                "highlighting needs stored content; rebuild with "
                "IndexConfig(store_content=True)"
            )

    # ------------------------------------------------------------------ #
    # resolution / projection (reference: fl field lists, realtime get)
    # ------------------------------------------------------------------ #
    def _parse_fl(self, fl):
        """Split an ``fl`` list into source-field names + transformers.

        Solr field-transformer syntax (reference ``solrindexer/search.py:46-47``:
        ``fl="*,personnel_json:[json]"`` / ``"mmd_xml_file:[xml]"``):

        - ``field:[json]`` — the stored string field holds serialized JSON;
          parse it and return the structured value under the same name.
        - ``field:[xml]``  — the stored string field holds raw XML; returned
          verbatim (the CLI owns pretty display, like the reference's
          ``_print_pretty_xml``).
        - ``*`` — every stored field (reference ``SOLR_FL`` leads with it).

        Returns ``(fields, transforms)`` where ``fields`` is the projection
        list (order preserved) and ``transforms`` is ``[(field, kind)]``.
        """
        fields, transforms, seen = [], [], set()

        def add(name):
            if name not in seen:
                seen.add(name)
                fields.append(name)

        for entry in fl:
            m = _FL_TRANSFORMER_RE.match(entry)
            if m:
                field, kind = m.group(1), m.group(2)
                add(field)
                transforms.append((field, kind))
            elif entry == "*":
                for name in self.stored_fields:
                    add(name)
            else:
                add(entry)
        return fields, transforms

    @staticmethod
    def _apply_fl_transforms(t: pa.Table, transforms) -> pa.Table:
        """Apply ``[json]``/``[xml]`` fl transformers to resolved columns.

        ``[json]`` parses each string value into a structured Arrow value
        (struct/list/scalar inferred); values that fail to parse — and
        columns whose parsed values do not share an inferrable type — fall
        back to the raw string, matching Solr's raw-value behavior.
        """
        import json as _json

        for field, kind in transforms:
            if kind != "json" or field not in t.column_names:
                continue  # [xml] is verbatim passthrough
            raw = t[field].to_pylist()
            parsed = []
            ok = True
            for v in raw:
                if v is None:
                    parsed.append(None)
                    continue
                try:
                    parsed.append(_json.loads(v))
                except (ValueError, TypeError):
                    ok = False
                    break
            if not ok:
                continue
            try:
                arr = pa.array(parsed)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                continue
            t = t.set_column(t.column_names.index(field), field, arr)
        return t

    def _resolve(self, ids, scores, fl=None) -> pa.Table:
        """The response table of the hits ``(ids, scores)`` (aligned
        arrays, in rank order): the ``fl`` stored fields of every hit
        with a docs row, then ``score``."""
        fl = list(fl) if fl else self.stored_fields
        fl, fl_transforms = self._parse_fl(fl)
        if set(fl) <= {"doc_id"} and not self._load_overlays():
            # fast path: the ranking already carries doc_id — no stored-field
            # read needed (the hot path for bench + contract queries)
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "score": pa.array(scores, pa.float64())})
        # stored fields by docs-table row position, gathered from the
        # resident docs table in one take (Lucene's stored-fields reader is
        # random access by doc id, not a scan per read)
        idx, rows = self._hit_rows(ids)
        t = self._docs_take(sorted(set(fl) | {"doc_id"}), rows)
        # typed float64 unless every hit drops out: those keep the untyped
        # empty score column the docs-table scan gave
        t = t.append_column(
            "score", pa.array(scores[idx]) if idx.size or not ids.size
            else pa.array([]))
        t = self._apply_overlays(t)
        return self._apply_fl_transforms(t.select([*fl, "score"]),
                                         fl_transforms)

    def _hit_rows(self, ids):
        """``(hit index, docs-table row)`` arrays for the ids that have a
        docs row, in hit order: ids outside the doc-id space or in
        inline-validation holes drop out, and a repeated id keeps only
        its last hit."""
        loc = self._docs_locator()
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.full(ids.size, -1, dtype=np.int64)
        inside = (ids >= 0) & (ids < loc.size)
        rows[inside] = loc[ids[inside]]
        idx = np.flatnonzero(rows >= 0)
        if np.unique(ids[idx]).size != idx.size:
            rev = idx[::-1]
            _, first = np.unique(ids[rev], return_index=True)
            idx = np.sort(rev[first])
        return idx, rows[idx]

    def _docs_locator(self) -> np.ndarray:
        """Dense doc_id -> docs-table row position, -1 for id slots with
        no docs row."""
        self.norms  # built together
        return self._locator

    def _docs_table(self, names) -> pa.Table:
        """The resident docs table projected to ``names`` (each once), in
        table row order (the order the locator points into): columns are
        read in one scan for all that are missing and kept resident,
        growing by the rows an extend appends — the stored-fields /
        docValues analogue.  Every per-doc read of a stored field
        (``fl``, sort, facets, stats, joins, spatial arrays, function
        columns, field norms, filters) is served from here; only
        ``content`` is read per request (:meth:`_content_take`)."""
        self.norms  # the locator's row order comes first
        names = list(dict.fromkeys(names))
        schema = self._docs.schema
        missing = [n for n in names if schema.get_field_index(n) < 0]
        if missing:
            t = self._docs_ds.to_table(columns=missing)
            for n in missing:
                self._docs = self._docs.append_column(n, _one_array(t[n]))
        return self._docs.select(names)

    def _docs_take(self, cols, rows) -> pa.Table:
        """The docs-table rows at positions ``rows`` (in that order),
        projected to ``cols`` (``doc_id`` or another stored field among
        them): one ``take`` over the resident docs table.  ``content`` is
        never kept resident: it is read for the wanted rows only."""
        t = self._docs_table([c for c in cols if c != "content"]).take(
            pa.array(rows, pa.int64()))
        if "content" not in cols:
            return t
        return t.add_column(list(dict.fromkeys(cols)).index("content"),
                            "content", self._content_take(rows))

    def _content_take(self, rows) -> pa.Array:
        """``content`` at docs-table positions ``rows``: one filtered read
        of the wanted doc ids (bodies are too large to keep resident)."""
        ids = self._docs["doc_id"].chunk(0).take(pa.array(rows, pa.int64()))
        if self._lo:
            ids = pc.add(ids, self._lo)  # filters see the stored doc_id
        ct = self._docs_ds.to_table(columns=["doc_id", "content"],
                                    filter=pc.field("doc_id").isin(ids))
        got = self._docs_locator()[ct["doc_id"].to_numpy()]
        order = np.argsort(got)
        at = order[np.searchsorted(got[order], rows)]
        return ct["content"].combine_chunks().take(pa.array(at, pa.int64()))

    def _apply_overlays(self, t: pa.Table) -> pa.Table:
        overlays = self._load_overlays()
        if not overlays:
            return t
        extra_cols: dict = {}
        for did in t["doc_id"].to_pylist():
            for col, val in overlays.get(did, {}).items():
                extra_cols.setdefault(col, {})[did] = val
        for col, vals in extra_cols.items():
            arr = [vals.get(d) for d in t["doc_id"].to_pylist()]
            if col in t.column_names:
                t = t.drop_columns([col])
            t = t.append_column(col, pa.array(arr))
        return t

    def _load_overlays(self) -> dict:
        if self._overlays is None:
            path = os.path.join(self.index_dir, "overlays.parquet")
            self._overlays = {}
            if os.path.exists(path):
                import pyarrow.parquet as pq

                import json

                t = pq.ParquetFile(path).read()
                hi = self._lo + self.doc_space
                for row in t.to_pylist():  # later rows win (append order)
                    d = row["doc_id"]
                    if self._range is not None:
                        if not self._lo <= d < hi:
                            continue
                        d -= self._lo
                    self._overlays.setdefault(d, {})[row["column"]] = (
                        json.loads(row["value"])
                    )
        return self._overlays

    def range_facet(self, query: str, field: str, start, end,
                    gap, fq=None) -> dict:
        """Solr ``facet.range``: histogram buckets ``[start+i·gap,
        start+(i+1)·gap)`` over a numeric or TIMESTAMP ``field`` of the
        FULL match set, plus ``before``/``after`` counts
        (``facet.range.other=all``).  Every bucket starting in
        [start, end) is emitted, zero counts included.  Solr's default
        ``facet.range.hardend=false``: the last bucket keeps its full
        width even past ``end``, and ``after`` counts from its upper edge.

        Date ranges (Solr date faceting / the timeseries() stream
        shape): ``start``/``end`` are strict ISO instants
        (``2024-01-01T00:00:00Z``) and ``gap`` is DateMath — fixed-length
        (``+1HOUR`` / ``+6HOURS`` / ``+1DAY`` / ``+30MINUTES`` /
        ``+N SECONDS``) or calendar-length (``+1MONTH`` / ``+N MONTHS``
        / ``+1YEAR``); bucket labels are the bucket-start instants.
        Calendar buckets follow Solr's DateMathParser semantics: each
        edge is the previous edge plus the gap (java.util.Calendar
        month-add, day-of-month clamped to the target month's length),
        so a Jan-31 start yields Feb-28/29 then Mar-28/29 edges."""
        ids = self._filtered_match_ids(query, fq)
        if field == "doclen":
            s_i, e_i, g_i = _int_range_bounds(field, start, end, gap)
            vals = self._matched_rows(ids, [field])[field].to_numpy()
        else:
            col_field = self._docs_ds.schema.field(field) \
                if field in self.stored_fields else None
            if col_field is None or not pa.types.is_timestamp(
                col_field.type
            ):
                raise ValueError(
                    "range facets support doclen or a timestamp "
                    f"stored column; {field!r} is neither"
                )
            s_i = int(np.datetime64(str(start).rstrip("Z"), "us")
                      .astype(np.int64))
            e_i = int(np.datetime64(str(end).rstrip("Z"), "us")
                      .astype(np.int64))
            if e_i <= s_i:
                raise ValueError("need end > start")
            vals = (self._matched_rows(ids, [field])[field]
                    .cast(pa.timestamp("us")).to_numpy()
                    .astype("datetime64[us]").astype(np.int64))
            bounds = _date_bucket_bounds(s_i, e_i, gap)
            n_buckets = len(bounds) - 1
            idx = np.searchsorted(bounds, vals, side="right") - 1
            inside = (idx >= 0) & (idx < n_buckets)
            counts = np.bincount(idx[inside].astype(np.int64),
                                 minlength=n_buckets)
            from datetime import datetime, timezone

            def _lab(us):
                return datetime.fromtimestamp(
                    us / 1e6, tz=timezone.utc
                ).strftime("%Y-%m-%dT%H:%M:%SZ")

            return {
                "buckets": [(_lab(int(bounds[i])), int(counts[i]))
                            for i in range(n_buckets)],
                "before": int((vals < s_i).sum()),
                "after": int((vals >= bounds[-1]).sum()),
            }

        n_buckets = (e_i - s_i + g_i - 1) // g_i
        idx = (vals - s_i) // g_i
        inside = (idx >= 0) & (idx < n_buckets)
        counts = np.bincount(idx[inside].astype(np.int64),
                             minlength=n_buckets)
        return {
            "buckets": [
                (int(s_i + i * g_i), int(counts[i]))
                for i in range(n_buckets)
            ],
            "before": int((vals < s_i).sum()),
            "after": int((vals >= s_i + n_buckets * g_i).sum()),
        }

    def pivot_facet(self, query: str, fields, mincount: int = 1,
                    fq=None) -> list:
        """Solr ``facet.pivot=f1,f2``: nested value counts over the match
        set, flattened to ``(v1, v2, count)`` rows ordered count desc then
        values asc, a null value after the others (two-level pivots;
        Solr's common case)."""
        if len(fields) != 2:
            raise ValueError("pivot_facet supports exactly two fields")
        for f in fields:
            if f not in self.stored_fields or f == "doc_id":
                raise ValueError(f"cannot pivot on field {f!r}")
        t = self._matched_rows(self._filtered_match_ids(query, fq),
                               ["doc_id", *fields])
        agg = pa.TableGroupBy(t, list(fields)).aggregate([("doc_id", "count")])
        rows = sorted(
            zip(
                agg[fields[0]].to_pylist(),
                agg[fields[1]].to_pylist(),
                agg["doc_id_count"].to_pylist(),
            ),
            key=lambda r: (-r[2], r[0] is None, r[0], r[1] is None, r[1]),
        )
        return [(a, b, int(c)) for a, b, c in rows if c >= mincount]

    def _synonym_group(self, term, postings):
        """Blended stats of a mapped term and its synonyms."""
        members = dict.fromkeys([term, *self.synonyms.get(term, [])])
        return self._blended_group(list(members), postings)

    def join_match_ids(self, inner_query: str, from_field: str,
                       to_field: str) -> np.ndarray:
        """Solr JoinQParserPlugin (``{!join from=F to=T}inner``): doc ids
        whose ``to_field`` value appears among the ``from_field`` values
        of the inner query's matches — a query-time semi-join.

        Ray shape: the inner match set reduces to a DISTINCT value set
        (small by construction — field cardinality, not match count),
        then one vectorized ``pc.is_in`` scan over the ``to_field``
        column; at corpus scale the value set broadcasts and each doc
        range scans its own slice.  Like Solr, join matches are
        constant-score (score mode ``none``)."""
        for f in (from_field, to_field):
            if f not in self.stored_fields or f == "doc_id":
                raise ValueError(f"cannot join on field {f!r}")
        vals = self._matched_rows(self.match_ids(inner_query),
                                  [from_field])[from_field]
        vset = pc.unique(pc.drop_null(vals))
        if len(vset) == 0:
            return np.array([], dtype=np.int64)
        dst = self._field_table(to_field)
        hit = pc.is_in(dst[to_field], value_set=vset)
        ids = dst["doc_id"].to_numpy()[
            pc.fill_null(hit, False).to_numpy(zero_copy_only=False)
        ]
        return self._live_ids(ids)

    def _live_ids(self, ids: np.ndarray) -> np.ndarray:
        """Restrict raw docs-table ids to live docs (present, not
        tombstoned), sorted ascending."""
        ids = np.asarray(ids, dtype=np.int64)
        ids = ids[self.present[ids]]
        dead = self._dead_mask()
        if dead is not None:
            ids = ids[~dead[ids]]
        return np.sort(ids)

    def _field_table(self, field: str) -> pa.Table:
        """``(doc_id, field)`` projection of the whole docs table, served
        from the resident docs table: the source of every dense per-doc
        array (sort keys, facet codes, function columns, field norms,
        spatial arrays) and of a join's target values."""
        return self._docs_table(["doc_id", field])

    def _dense_field(self, field: str) -> np.ndarray:
        """Dense per-doc column array (position d = doc d's value):
        float64/NaN for numerics, datetime64/NaT for timestamps, object/
        None otherwise — the sort-key value source, cached per engine."""
        hit = self._cache.get("dense_fields", field)
        if hit is _MISS:
            t = self._field_table(field)
            ids = t["doc_id"].to_numpy()
            col = t[field]
            if pa.types.is_timestamp(col.type):
                dense = np.full(self.doc_space, np.datetime64("NaT"),
                                dtype="datetime64[us]")
                dense[ids] = (col.cast(pa.timestamp("us"))
                              .to_numpy(zero_copy_only=False))
            elif pa.types.is_integer(col.type) and col.null_count == 0:
                # exact int64 sort keys (values past 2^53 would lose
                # low bits as float64); holes never appear in match sets
                dense = np.zeros(self.doc_space, dtype=np.int64)
                dense[ids] = col.to_numpy(zero_copy_only=False).astype(
                    np.int64)
            elif (pa.types.is_integer(col.type)
                  or pa.types.is_floating(col.type)):
                dense = np.full(self.doc_space, np.nan)
                dense[ids] = col.to_numpy(zero_copy_only=False).astype(
                    np.float64)
            else:
                dense = np.full(self.doc_space, None, dtype=object)
                dense[ids] = np.asarray(col.to_pylist(), dtype=object)
            hit = self._cache.put("dense_fields", field, dense)
        return hit

    def _field_codes(self, field: str):
        """``(dense codes, labels, has_null)`` for a stored field:
        position d of the dense int64 array is doc d's factorized group
        code (-1 for null/missing), ``labels[c]`` its display value,
        ``has_null`` whether the COLUMN itself holds nulls (code -1 in a
        sparse doc-id space can also mean "slot outside the docs
        table").  Factorized once per engine per field — collapse/group/
        facet queries then just gather, no per-query join or factorize."""
        hit = self._cache.get("field_codes", field)
        if hit is _MISS:
            import pandas as pd

            t = self._field_table(field)
            col = t[field]
            codes, uniques = pd.factorize(
                col.to_pandas(), use_na_sentinel=True
            )
            if pa.types.is_integer(col.type):
                # int64-with-nulls round-trips through pandas as
                # float64; str() labels must stay '5', not '5.0'
                labels = [str(int(u)) for u in uniques]
            else:
                labels = [str(u) for u in uniques]
            dense = np.full(self.doc_space, -1, dtype=np.int64)
            dense[t["doc_id"].to_numpy()] = codes.astype(np.int64)
            hit = self._cache.put("field_codes", field,
                                  (dense, labels, col.null_count > 0))
        return hit

    def _geo_columns(self, sfield: str):
        """Dense per-doc (lat, lon) arrays for a spatial field spec —
        either ``"latcol,loncol"`` (two stored numeric columns) or one
        stored string column holding Solr's ``"lat,lon"`` point format.
        Parsed once per engine instance (the spatial analogue of the
        filterCache)."""
        cached = self._cache.get("geo", sfield)
        if cached is not _MISS:
            return cached
        lat = np.full(self.doc_space, np.nan)
        lon = np.full(self.doc_space, np.nan)
        if "," in sfield:
            latc, lonc = (c.strip() for c in sfield.split(",", 1))
            for c in (latc, lonc):
                if c not in self.stored_fields:
                    raise ValueError(f"unknown spatial column {c!r}")
            t = self._docs_table(["doc_id", latc, lonc])
            ids = t["doc_id"].to_numpy()
            lat[ids] = t[latc].to_numpy(zero_copy_only=False).astype(float)
            lon[ids] = t[lonc].to_numpy(zero_copy_only=False).astype(float)
        else:
            if sfield not in self.stored_fields:
                raise ValueError(f"unknown spatial field {sfield!r}")
            t = self._field_table(sfield)
            ids = t["doc_id"].to_numpy()
            for i, v in zip(ids, t[sfield].to_pylist()):
                if not v:
                    continue
                try:
                    a, b = v.split(",", 1)
                    lat[i], lon[i] = float(a), float(b)
                except ValueError:
                    continue
        return self._cache.put("geo", sfield, (lat, lon))

    def geo_match_ids(self, kind: str, params: dict) -> np.ndarray:
        """Solr spatial filters: ``{!geofilt sfield=lat,lon pt=LAT,LON
        d=KM}`` (great-circle haversine radius, Solr's mean earth radius)
        and ``{!bbox ...}`` (the rectangle that circumscribes the circle —
        Solr's cheaper approximation), with dateline wrap on longitude.

        Reference analogue: the geo extent fields the reference feeds
        Solr's spatial search (``solrindexer/spatial.py:86-112`` builds
        the ENVELOPE / point fields this filters against)."""
        for p in ("sfield", "pt", "d"):
            if p not in params:
                raise ValueError(f"{{!{kind}}} requires {p}=")
        lat, lon = self._geo_columns(params["sfield"])
        try:
            plat, plon = (float(x) for x in params["pt"].split(",", 1))
            d = float(params["d"])
        except ValueError as e:
            raise ValueError(f"bad {{!{kind}}} pt/d: {e}") from None
        R = 6371.0087714150598  # Solr DistanceUtils.EARTH_MEAN_RADIUS_KM
        if kind == "geofilt":
            la1, la2 = np.radians(plat), np.radians(lat)
            dla = np.radians(lat - plat)
            dlo = np.radians(lon - plon)
            a = (np.sin(dla / 2.0) ** 2
                 + np.cos(la1) * np.cos(la2) * np.sin(dlo / 2.0) ** 2)
            dist = 2.0 * R * np.arcsin(np.sqrt(np.minimum(a, 1.0)))
            with np.errstate(invalid="ignore"):
                hit = dist <= d
        else:  # bbox: circumscribing rectangle, lon wraps the dateline
            dlat = np.degrees(d / R)
            coslat = np.cos(np.radians(plat))
            with np.errstate(invalid="ignore"):
                hit = np.abs(lat - plat) <= dlat
                if coslat <= 1e-12 or np.degrees(d / (R * coslat)) >= 180:
                    hit &= ~np.isnan(lon)  # pole / global span: any lon
                else:
                    dlon = np.degrees(d / (R * coslat))
                    dd = np.abs((lon - plon + 180.0) % 360.0 - 180.0)
                    hit &= dd <= dlon
        hit &= ~np.isnan(lat) & ~np.isnan(lon)
        return self._live_ids(np.flatnonzero(hit))

    def envelope_match_ids(self, field: str, envelope: str) -> np.ndarray:
        """Solr RPT-style rectangle intersection (``bbox:"Intersects(
        ENVELOPE(w, e, n, s))"``, spelled ``{!intersects sfield=F}
        ENVELOPE(...)`` here): docs whose stored ENVELOPE rectangle
        intersects the query rectangle, dateline-crossing (w > e) handled
        on both sides by interval splitting — the query shape the
        reference's ``bbox`` field exists for (``solrindexer/spatial.py:
        86-112``, searched via Solr spatial syntax)."""
        from solr_indexer_ray.functions.spatial import (
            SpatialError,
            parse_envelope_to_bbox,
        )

        if field not in self.stored_fields:
            raise ValueError(f"unknown spatial field {field!r}")
        qw, qs, qe, qn = parse_envelope_to_bbox(envelope)
        cached = self._cache.get("geo", ("env", field))
        if cached is _MISS:
            w = np.full(self.doc_space, np.nan)
            s = np.full(self.doc_space, np.nan)
            e = np.full(self.doc_space, np.nan)
            n = np.full(self.doc_space, np.nan)
            t = self._field_table(field)
            for i, v in zip(t["doc_id"].to_numpy(),
                            t[field].to_pylist()):
                if not v:
                    continue
                try:
                    w[i], s[i], e[i], n[i] = parse_envelope_to_bbox(v)
                except SpatialError:
                    continue
            cached = self._cache.put("geo", ("env", field), (w, s, e, n))
        w, s, e, n = cached

        def lon_overlap(aw, ae, bw, be):
            # split dateline-crossing rectangles into two intervals
            a_parts = [(aw, ae)] if aw <= ae else [(aw, 180.0),
                                                   (-180.0, ae)]
            hit = np.zeros(self.doc_space, dtype=bool)
            b_cross = bw > be
            for lo, hi in a_parts:
                with np.errstate(invalid="ignore"):
                    plain = (bw <= hi) & (be >= lo) & ~b_cross
                    crossed = b_cross & ((bw <= hi) | (be >= lo))
                hit |= np.where(np.isnan(bw), False, plain | crossed)
            return hit

        with np.errstate(invalid="ignore"):
            lat_hit = (s <= qn) & (n >= qs)
        hit = lon_overlap(qw, qe, w, e) & np.where(np.isnan(s), False,
                                                   lat_hit)
        return self._live_ids(np.flatnonzero(hit))

    def block_join_ids(self, kind: str, params: dict,
                       inner_query: str) -> np.ndarray:
        """Solr block-join query parsers over FLAT parent/child rows:
        ``{!parent which='<parentFilter>' key=K ref=R}childQuery`` —
        parents (docs matching ``which``) having at least one child
        (``child.R == parent.K``) matching the child query — and
        ``{!child of='<parentFilter>' key=K ref=R}parentQuery`` —
        children of parents matching both ``of`` and the parent query.

        Solr's BlockJoinQParser requires nested-block indexing; our rows
        are flat with an explicit reference column (the reference's own
        shape: ``related_dataset_id`` child→parent refs resolved by a
        post-pass semi-join, ``solrindexer/tools.py:106-136``), so the
        same semantics compose from :meth:`join_match_ids` + the
        parent-filter intersection."""
        for p in ("key", "ref"):
            if p not in params:
                raise ValueError(f"{{!{kind}}} requires {p}=")
        key, ref = params["key"], params["ref"]
        pfilter = params.get("which" if kind == "parent" else "of")
        if pfilter is None:
            raise ValueError(
                "{!parent} requires which= / {!child} requires of="
            )
        if kind == "parent":
            cand = self.join_match_ids(inner_query, ref, key)
            gate = self.match_ids(pfilter)
            return np.intersect1d(cand, gate).astype(np.int64)
        # child: docs referencing a parent that matches both the parent
        # query and the of-filter; parents themselves are excluded (Solr
        # {!child} returns child documents only)
        pq_ = (f"({inner_query}) AND ({pfilter})"
               if inner_query.strip() else pfilter)
        cand = self.join_match_ids(pq_, key, ref)
        parents_all = self.match_ids(pfilter)
        return np.setdiff1d(cand, parents_all).astype(np.int64)

    def match_ids(self, query: str) -> np.ndarray:
        """ALL doc ids matching a query (no top-k) — delete-by-query and
        faceting both consume the full match set.  It is exactly the set
        :meth:`search` ranks, decided by the same rule
        (:meth:`_match_core`: a ``^0`` clause matches at score 0), without
        the docs elevation pins.  Filter directives route to their own
        evaluators, so they work anywhere a query string does — fq,
        delete-by-query, facet.query:
        ``{!join from=F to=T}inner`` (Solr JoinQParserPlugin),
        ``{!parent}`` / ``{!child}`` (block joins over flat rows),
        ``{!geofilt}`` / ``{!bbox}`` (spatial radius), and
        ``{!intersects sfield=F}ENVELOPE(...)`` (rectangle
        intersection).  A join or block join links docs across doc
        ranges, so a range engine matches it over the whole index and
        keeps its own range's ids."""
        bm = _BLOCKJOIN_Q_RE.match(query or "")
        if self._range is not None and (
                bm is not None or _JOIN_Q_RE.match(query or "")):
            if self._collection is None:
                raise ValueError(
                    "a join or block join on a doc-range engine needs "
                    "the whole index: open SearchEngine(doc_range=...) "
                    "with collection_stats"
                )
            ids = self._collection.match_ids(query)
            ids = ids[(ids >= self._lo) & (ids < self._lo + self.doc_space)]
            return ids - self._lo
        if bm is not None:
            params = {
                k: v.strip("'\"")
                for k, v in re.findall(
                    r"(\w+)=('[^']*'|\"[^\"]*\"|\S+)", bm.group(2)
                )
            }
            return self.block_join_ids(bm.group(1), params,
                                       bm.group(3).strip())
        gm = _GEO_Q_RE.match(query or "")
        if gm is not None:
            params = dict(
                p.split("=", 1) for p in gm.group(2).split() if "=" in p
            )
            return self.geo_match_ids(gm.group(1), params)
        im = _INTERSECTS_Q_RE.match(query or "")
        if im is not None:
            params = dict(
                p.split("=", 1) for p in im.group(1).split() if "=" in p
            )
            if "sfield" not in params:
                raise ValueError("{!intersects} requires sfield=")
            return self.envelope_match_ids(params["sfield"],
                                           im.group(2).strip())
        jm = _JOIN_Q_RE.match(query or "")
        if jm is not None:
            params = dict(
                p.split("=", 1) for p in jm.group(1).split() if "=" in p
            )
            if "from" not in params or "to" not in params:
                raise ValueError("{!join} requires from= and to=")
            return self.join_match_ids(
                jm.group(2).strip(), params["from"], params["to"]
            )
        ids, _ = self._match_core(self._prepare(query))
        dead = self._dead_mask()
        return ids if dead is None else ids[~dead[ids]]

    def _filtered_match_ids(self, query: str, fq=None) -> np.ndarray:
        """:meth:`match_ids` of ``query`` without the docs ``fq``
        excludes (Solr filter queries)."""
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
        return ids

    def _matched_rows(self, ids, cols) -> pa.Table:
        """Docs rows of the (present) docs ``ids``, in that order,
        projected to ``cols`` from the resident docs table."""
        return self._docs_take(cols, self._docs_locator()[ids])

    # ------------------------------------------------------------------ #
    # faceting (Solr field facets)
    # ------------------------------------------------------------------ #
    def facet(self, query: str, fields, limit: int = 100,
              mincount: int = 0, fq=None, prefix: str = "",
              sort: str = "count", offset: int = 0) -> dict:
        """Field facets over the FULL match set of ``query`` (Solr
        semantics: buckets ordered count desc then value asc;
        ``facet.limit`` / ``facet.mincount`` defaults 100 / 0 — with
        mincount 0 every distinct value of the field appears, zero-count
        buckets included, exactly Solr's string-field behavior).
        ``prefix`` is ``facet.prefix`` (bucket values restricted to the
        literal prefix); ``sort="index"`` is ``facet.sort=index``
        (ascending value order instead of the count-desc default);
        ``offset`` is ``facet.offset`` (bucket paging — skip the first
        N buckets of the chosen order before applying ``limit``).

        Reference analogue: the ``*_facet`` copy-fields the reference
        maintains for Solr's faceting UI (``solrindexer/mmd.py:623-627,
        794, 1074-1076``; hidden from CLI output in
        ``solrindexer/search.py:59``).

        Single-node implementation scans the docs-table columns once; the
        distributed equivalent is :func:`facet_partitioned` (per-range
        partial counts -> driver sum — a pre-aggregated groupby, no
        shuffle).
        """
        ids = self._filtered_match_ids(query, fq)
        return {
            fld: _facet_buckets(self._facet_counts(fld, ids, mincount <= 0),
                                limit, mincount, prefix, sort, offset)
            for fld in fields
        }

    def _facet_counts(self, fld: str, ids, with_zero: bool) -> dict:
        """Value -> count of ``fld`` over the docs ``ids`` (nulls under
        ``"None"``); with ``with_zero``, every value of the column too.
        Cached dense per-doc codes (docValues analogue): one gather +
        bincount per query, no parquet re-read or hash-based
        value_counts."""
        dense, labels, has_null = self._field_codes(fld)
        codes = dense[ids]
        real = codes[codes >= 0]
        cnt = np.bincount(real, minlength=len(labels))
        counts = {labels[i]: int(cnt[i]) for i in np.nonzero(cnt)[0]}
        n_null = int(codes.size - real.size)
        if n_null:  # null bucket, same str() key as before
            counts["None"] = n_null
        if with_zero:
            for v in labels:
                counts.setdefault(v, 0)
            if has_null:  # true column nulls only, not doc-id holes
                counts.setdefault("None", 0)
        return counts

    def facet_stats(self, query: str, by: str, metrics: dict,
                    fq=None, limit: int = 100,
                    mincount: int = 1) -> pa.Table:
        """Solr JSON Facet API analogue: a ``terms`` facet over ``by``
        with nested stat aggregates per bucket.

        ``metrics`` maps output column name -> a Solr JSON-facet stat
        expression string: ``sum(field)`` / ``avg(field)`` /
        ``min(field)`` / ``max(field)`` over a stored numeric field,
        e.g. ``{"avg_len": "avg(doclen)"}``.  Buckets are ordered count
        desc then value asc (Solr default ``sort: count desc``),
        ``mincount`` defaults 1 and NULL bucket values are excluded
        (JSON facet's ``missing`` bucket is opt-in and not implemented).

        Returns a table ``(value, count, <metric columns...>)``.  The
        distributed equivalent is :func:`facet_stats_partitioned`
        (per-range partial (count, sum, min, max) rows -> small driver
        merge — a pre-aggregated groupby, no shuffle; ``avg`` derives
        from merged sum/count).
        """
        specs = self._parse_facet_stats(by, metrics)
        return self._facet_stats_rows(
            self._facet_stats_groups(query, by, _stat_fields(specs),
                                     fq).to_pylist(), by,
            specs, mincount, limit)

    def _facet_stats_groups(self, query, by, fields, fq) -> pa.Table:
        """:func:`_group_aggregates` of the matches of ``query`` (under
        ``fq``) with a non-null ``by``: one row per bucket value.  A stat
        field may be ``by`` itself: each column is read once."""
        t = self._matched_rows(self._filtered_match_ids(query, fq),
                               list(dict.fromkeys([by, *fields])))
        return _group_aggregates(t.filter(pc.is_valid(t[by])), by, fields)

    def json_facet(self, query: str, spec: dict, fq=None) -> dict:
        """Solr JSON Facet API subset (``json.facet=...``): RECURSIVE
        ``terms`` facets with nested stat aggregates and sub-facets.

        ``spec`` maps facet name -> either a stat expression string
        (``sum(f)`` / ``avg(f)`` / ``min(f)`` / ``max(f)``) or a terms
        node ``{"type": "terms", "field": F, "limit": 10, "mincount": 1,
        "sort": "count"|"index", "facet": {<nested spec>}}``.  Returns
        the Solr response shape: ``{"count": N, <name>: {"buckets":
        [{"val": v, "count": c, <nested...>}, ...]}}``.  Bucket doc
        subsets flow down the recursion, so nested stats/terms see only
        their parent bucket's matches (exactly Solr's domain rule); the
        flat single-level form is :meth:`facet_stats`, whose
        distributed twin (:func:`facet_stats_partitioned` — per-range
        partial (count, sum, min, max) rows, small driver merge) is the
        scale path for each level of the tree; ``unique``/``percentile``
        leaves are engine-local by nature (exact distinct/quantiles
        don't merge from partials without sketches — the KMV/quantile
        sketches in ``stages/sketch.py`` are the approximate distributed
        route)."""
        ids = self._filtered_match_ids(query, fq)
        out = {"count": int(ids.size)}
        out.update(self._json_facet_level(spec, ids))
        return out

    def _json_facet_level(self, spec: dict, ids: np.ndarray) -> dict:
        out: dict = {}
        for name in sorted(spec):
            node = spec[name]
            if isinstance(node, str):
                mp = re.fullmatch(
                    r"percentile\((\w+)\s*,\s*([\d.]+(?:\s*,\s*[\d.]+)*)\)",
                    node.strip(),
                )
                if mp is not None:
                    # Solr percentile(f, p...): exact linear-interp
                    # (vs Solr's t-digest approximation — exactness
                    # documented like stats_percentiles)
                    f = mp.group(1)
                    ps = [float(x) for x in mp.group(2).split(",")]
                    dv = self._dense_field(f)
                    if getattr(dv, "dtype", None) is None or \
                            dv.dtype.kind not in "if":
                        raise ValueError(
                            f"percentile field {f!r} must be numeric"
                        )
                    v = np.asarray(dv[ids], dtype=np.float64)
                    v = v[~np.isnan(v)]
                    if v.size == 0:
                        res = [None] * len(ps)
                    else:
                        res = [float(x) for x in np.percentile(v, ps)]
                    out[name] = res[0] if len(res) == 1 else res
                    continue
                m = re.fullmatch(r"(sum|avg|min|max|unique)\((\w+)\)",
                                 node.strip())
                if m is None:
                    raise ValueError(f"bad stat expression {node!r}")
                op, f = m.group(1), m.group(2)
                if op == "unique":
                    # Solr unique(): distinct values of the field in
                    # the domain (exact — the dense factorized codes
                    # make it one gather + unique, no hashing)
                    dense_u, _lab, _hn = self._field_codes(f)
                    cu = dense_u[ids]
                    out[name] = int(np.unique(cu[cu >= 0]).size)
                    continue
                vals = self._dense_field(f)
                if getattr(vals, "dtype", None) is None or \
                        vals.dtype.kind not in "if":
                    raise ValueError(f"stat field {f!r} must be numeric")
                v = np.asarray(vals[ids], dtype=np.float64)
                v = v[~np.isnan(v)]
                if v.size == 0:
                    out[name] = None
                elif op == "sum":
                    out[name] = float(v.sum())
                elif op == "avg":
                    out[name] = float(v.mean())
                elif op == "min":
                    out[name] = float(v.min())
                else:
                    out[name] = float(v.max())
                continue
            if not isinstance(node, dict):
                raise ValueError(
                    f"facet node {name!r} must be a stat string or a "
                    f"terms node"
                )
            ntype = node.get("type", "terms")
            if ntype == "query":
                # {"type":"query","q":...}: the node's domain is the
                # parent domain ∩ the query's match set — via the fq
                # membership-mask cache (Solr filterCache analogue), so
                # a query node nested under a 100-bucket terms facet
                # evaluates its q once, not per bucket
                fqm = self._merge_fq_mask(None, [node["q"]])
                dom = ids[~fqm[ids]] if fqm is not None else ids
                b: dict = {"count": int(dom.size)}
                sub_spec = node.get("facet", {}) or {}
                if sub_spec:
                    b.update(self._json_facet_level(sub_spec, dom))
                out[name] = b
                continue
            if ntype == "range":
                # numeric range facet over the parent domain (date
                # gaps stay on the dedicated range_facet/DateMath path)
                f = node["field"]
                start, end = float(node["start"]), float(node["end"])
                gap = float(node["gap"])
                if gap <= 0 or end <= start:
                    raise ValueError("need gap > 0 and end > start")
                dvals = self._dense_field(f)
                if getattr(dvals, "dtype", None) is None or \
                        dvals.dtype.kind not in "if":
                    raise ValueError(
                        f"range facet field {f!r} must be numeric"
                    )
                vals = np.asarray(dvals[ids], dtype=np.float64)
                ok = ~np.isnan(vals)
                sub_spec = node.get("facet", {}) or {}
                # exact edge/index arithmetic (start + i·gap and
                # floor((v−start)/gap)) — accumulating lo += gap leaks
                # float error into bucket edges and emits sliver buckets
                # for fractional gaps.  Solr's default hardend=false: the
                # last bucket keeps its full [edge, edge+gap) width even
                # past ``end``.
                n_b = int(np.ceil((end - start) / gap))
                bidx = np.floor((vals - start) / gap).astype(np.int64)
                inr = ok & (vals >= start) & (bidx < n_b)
                buckets = []
                for i in range(n_b):
                    edge = start + i * gap
                    inb = inr & (bidx == i)
                    b = {"val": int(edge) if float(edge).is_integer()
                         else edge, "count": int(inb.sum())}
                    if sub_spec:
                        b.update(self._json_facet_level(
                            sub_spec, ids[inb]
                        ))
                    buckets.append(b)
                out[name] = {"buckets": buckets}
                continue
            if ntype != "terms":
                raise ValueError(
                    f"facet node {name!r} must be a stat string or a "
                    f"terms node"
                )
            field = node["field"]
            limit = int(node.get("limit", 10))
            mincount = int(node.get("mincount", 1))
            sort_mode = node.get("sort", "count")
            dense, labels, _hn = self._field_codes(field)
            codes = dense[ids]
            real = codes[codes >= 0]
            cnt = np.bincount(real, minlength=len(labels))
            # mincount<=0 emits zero-count buckets (Solr mincount:0),
            # matching facet()'s dense-codes behavior
            eligible = (np.flatnonzero(cnt >= mincount) if mincount > 0
                        else np.arange(len(labels)))
            order = sorted(
                (int(ci) for ci in eligible),
                key=(lambda c: (-cnt[c], labels[c]))
                if sort_mode == "count" else (lambda c: labels[c]),
            )[:limit]
            sub_spec = node.get("facet", {}) or {}
            buckets = []
            for ci in order:
                b = {"val": labels[ci], "count": int(cnt[ci])}
                if sub_spec:
                    b.update(self._json_facet_level(
                        sub_spec, ids[codes == ci]
                    ))
                buckets.append(b)
            out[name] = {"buckets": buckets}
        return out

    def _parse_facet_stats(self, by: str, metrics: dict) -> list:
        """Validate + parse ``metrics`` stat expressions into
        ``[(name, (op, field)), ...]`` (sorted by name for a stable
        output schema)."""
        if by not in self.stored_fields or by == "doc_id":
            raise ValueError(f"cannot facet on field {by!r}")
        if not metrics:
            raise ValueError("facet_stats needs at least one metric")
        specs = []
        for name in sorted(metrics):
            m = re.fullmatch(r"(sum|avg|min|max)\((\w+)\)",
                             str(metrics[name]).strip())
            if m is None:
                raise ValueError(
                    f"bad stat expression {metrics[name]!r} for "
                    f"{name!r} (want op(field), op in sum/avg/min/max)"
                )
            op, f = m.group(1), m.group(2)
            if f not in self.stored_fields or f == "doc_id":
                raise ValueError(f"unknown stat field {f!r}")
            ftype = self._docs_ds.schema.field(f).type
            if not (pa.types.is_integer(ftype) or pa.types.is_floating(ftype)):
                raise ValueError(
                    f"stat field {f!r} must be numeric, is {ftype}"
                )
            specs.append((name, (op, f)))
        return specs

    @staticmethod
    def _facet_stats_rows(records, by, specs, mincount, limit) -> pa.Table:
        """The facet-stats table of per-bucket aggregates (``by``,
        ``count_all`` and each field's sum, min and max): buckets of at
        least ``mincount`` docs, count desc then value asc, at most
        ``limit``."""
        rows = []
        for r in records:
            row = {"value": str(r[by]), "count": int(r["count_all"])}
            for name, (op, f) in specs:
                if op == "avg":
                    row[name] = (
                        float(r[f"{f}_sum"]) / row["count"]
                        if row["count"] else None
                    )
                else:
                    v = r[f"{f}_{op}"]
                    row[name] = float(v) if v is not None else None
            rows.append(row)
        rows = sorted(
            (r for r in rows if r["count"] >= mincount),
            key=lambda r: (-r["count"], r["value"]),
        )[:limit]
        return SearchEngine._facet_stats_table(rows, specs)

    @staticmethod
    def _facet_stats_table(rows, specs) -> pa.Table:
        schema = pa.schema(
            [("value", pa.string()), ("count", pa.int64())]
            + [(name, pa.float64()) for name, _ in specs]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    def terms(self, prefix: str = "", limit: int = 10,
              mincount: int = 1, sort: str = "count") -> list:
        """Solr /terms component: enumerate index terms with their df.

        Returns ``[(term, df), ...]`` ordered by count desc then term asc
        (Solr ``terms.sort=count`` default, ascending index order on
        ties; ``sort="index"`` gives plain ascending term order),
        optionally restricted to a prefix (``terms.prefix``) and a minimum
        df (``terms.mincount``).  df sums the term's doc-range rows and
        subtracts nothing for tombstones (Lucene: deleted docs count until
        merge).  Served from the term dictionary's default-field view; a
        prefix is two bisects.
        """
        arr, dfs = self._dict_state()
        lo = 0
        if prefix:
            arr, _full, lo = self._dict_slice(prefix)
        c = dfs[lo:lo + len(arr)]
        keep = np.flatnonzero(c >= mincount)
        if sort == "count":  # stable: ties stay in term order
            keep = keep[np.argsort(-c[keep], kind="stable")]
        keep = keep[:limit]
        return list(zip(arr.take(keep).to_pylist(), c[keep].tolist()))

    def luke(self) -> dict:
        """Solr Luke handler (``/admin/luke``) analogue: index
        introspection — doc counts, distinct default-field term count,
        build toggles, and per-stored-field type + non-null doc count.
        The reference surfaces the same shape through Solr's admin API
        (``solrindexer/mmd.py:1306-1332`` ``get_status``)."""
        n_terms = len(self._dict_state()[0])
        docs = self._docs_ds.to_table()
        fields = {}
        for name in docs.column_names:
            col = docs[name]
            fields[name] = {
                "type": str(col.type),
                "docs": int(len(col) - col.null_count),
            }
        deleted = len(self.tombstones)
        return {
            "n_docs": int(self.n_docs),
            "live_docs": int(docs.num_rows - deleted),
            "deleted_docs": int(deleted),
            "n_terms": int(n_terms),
            "has_positions": bool(self.has_positions),
            "has_bigrams": bool(self.has_bigrams),
            "bigram_first": sorted(self.bigram_first),
            "store_content": bool(self.stats.get("store_content")),
            "filters": list(self.stats.get("filters", []) or []),
            "fields": fields,
        }

    def significant_terms(self, query: str, limit: int = 10,
                          min_doc_freq: int = 5,
                          max_doc_freq: float = 0.5,
                          round_scores: int | None = None) -> pa.Table:
        """Solr SignificantTermsQParser analogue: terms unusually common
        in the query's match set (foreground) relative to the whole
        index (background), scored with the published JLH heuristic
        (the significance default ES documents):
        ``score = (fg_pct - bg_pct) * (fg_pct / bg_pct)`` when the
        foreground rate exceeds the background rate, else 0.

        ``min_doc_freq`` / ``max_doc_freq`` bound candidate background
        df (absolute int / fraction of the index — Solr's minDocFreq /
        maxDocFreq).  Returns ``(term, fg, bg, score)`` rows, score desc
        then term asc, foreground-present terms only.  df is Lucene-style
        (tombstones count until merge, like /terms).

        Single-engine shape: candidate postings intersect a dense match
        mask (vectorized); at corpus scale the same computation is a
        ``map_batches`` over the postings dataset against a broadcast
        mask, then a per-term sum — no shuffle beyond the existing
        postings partitioning.
        """
        return self.significant_terms_for_ids(
            self.match_ids(query), limit=limit,
            min_doc_freq=min_doc_freq, max_doc_freq=max_doc_freq,
            round_scores=round_scores,
        )

    def significant_terms_for_ids(self, ids, limit: int = 10,
                                  min_doc_freq: int = 5,
                                  max_doc_freq: float = 0.5,
                                  round_scores: int | None = None
                                  ) -> pa.Table:
        """JLH significant terms over an EXPLICIT foreground doc-id set
        — the label source for result clustering (carrot2 labels a
        cluster by its most distinctive terms; here: member docs as
        foreground vs the index as background)."""
        ids = np.asarray(ids, dtype=np.int64)
        fg_size = int(ids.size)
        bg_size = int(self.n_docs)
        empty = pa.table(
            {"term": pa.array([], pa.string()),
             "fg": pa.array([], pa.int64()),
             "bg": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}
        )
        if fg_size == 0:
            return empty
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        max_df = (max_doc_freq if max_doc_freq > 1
                  else max_doc_freq * bg_size)
        # term dictionary + summed df, cached per engine (the same
        # sorted dictionary the suggester walks); only the df-surviving
        # terms materialize as Python strings
        arr, dfs_all = self._dict_state()
        keep = np.flatnonzero(
            (dfs_all >= min_doc_freq) & (dfs_all <= max_df)
        )
        cand = list(zip(arr.take(keep).to_pylist(),
                        (int(x) for x in dfs_all[keep])))
        rows = []
        for i in range(0, len(cand), 256):
            chunk = cand[i:i + 256]
            postings = self.lookup_postings([c[0] for c in chunk])
            for term, bg in chunk:
                tp = postings.get(term)
                if tp is None:
                    continue
                fg = int(mask[tp.doc_ids].sum())
                if fg == 0:
                    continue
                fg_pct = fg / fg_size
                bg_pct = bg / bg_size
                score = (
                    (fg_pct - bg_pct) * (fg_pct / bg_pct)
                    if fg_pct > bg_pct else 0.0
                )
                if round_scores is not None:
                    score = float(_round_half_away(score, round_scores))
                rows.append((term, fg, bg, score))
        rows.sort(key=lambda r: (-r[3], r[0]))
        rows = rows[:limit]
        return pa.table(
            {"term": pa.array([r[0] for r in rows], pa.string()),
             "fg": pa.array([r[1] for r in rows], pa.int64()),
             "bg": pa.array([r[2] for r in rows], pa.int64()),
             "score": pa.array([r[3] for r in rows], pa.float64())}
        )

    def autocomplete(self, prefix: str, count: int = 5,
                     context_fq=None) -> list:
        """Solr Suggester (``/suggest``, AnalyzingInfixSuggester shape)
        analogue: prefix-completion over the term dictionary ranked by
        weight = document frequency, with optional CONTEXT FILTERING
        (Solr ``suggest.cfq``): when ``context_fq`` is given, the weight
        becomes the term's df WITHIN the context's match set, and terms
        absent from the context drop out.

        Returns ``[(term, weight), ...]`` ordered weight desc then term
        asc.  Context weights intersect candidate postings with the
        cached context mask — bounded by the candidate count, and the
        same postings-vs-mask shape :meth:`significant_terms` uses."""
        if not prefix:
            return []
        cands = self.terms(prefix=prefix, limit=10 ** 9, mincount=1)
        if context_fq is None:
            ranked = sorted(cands, key=lambda t: (-t[1], t[0]))
            return ranked[:count]
        fqm = self._merge_fq_mask(None, context_fq)
        member = ~fqm if fqm is not None else np.ones(
            self.doc_space, dtype=bool
        )
        dead = self._dead_mask()
        if dead is not None:
            member &= ~dead
        out = []
        names = [t for t, _ in cands]
        for i in range(0, len(names), 256):
            postings = self.lookup_postings(names[i:i + 256])
            for t_ in names[i:i + 256]:
                tp = postings.get(t_)
                if tp is None:
                    continue
                w = int(member[tp.doc_ids].sum())
                if w > 0:
                    out.append((t_, w))
        out.sort(key=lambda t: (-t[1], t[0]))
        return out[:count]

    def collate(self, query: str, max_distance: int = 2) -> dict:
        """Solr spellcheck collation (``spellcheck.collate=true``):
        rewrite the query by replacing every FREE term absent from the
        index dictionary with its best suggestion (distance asc, df
        desc, term asc — the suggester's ranking), then report the
        corrected query and its hit count.  Terms with no suggestion,
        fielded filters, phrases and operators pass through unchanged —
        Solr collations substitute only the misspelled tokens.

        Returns ``{"collation": str | None, "hits": int, "corrections":
        {orig: fixed}}``; ``collation`` is None when nothing needed
        correcting (Solr omits the collation then)."""
        parsed = self._parse(query)
        known = set(self.lookup_postings(sorted(set(parsed.terms))))
        corrections: dict = {}
        for term in sorted(set(parsed.terms)):
            if term in known:
                continue
            sugg = self.suggest(term, count=1,
                                max_distance=max_distance)
            if sugg:
                corrections[term] = sugg[0][0]
        if not corrections:
            return {"collation": None, "hits": int(len(
                self.match_ids(query)
            )), "corrections": {}}
        out_tokens = []
        for raw in (query or "").split():
            # substitute only bare free terms (no field:, quotes, ops,
            # wildcards, boosts) whose analyzed form was corrected
            bare = re.fullmatch(r"[A-Za-z0-9_]+", raw)
            toks = self.registry.tokenize(raw, None) if bare else []
            if bare and len(toks) == 1 and toks[0] in corrections:
                out_tokens.append(corrections[toks[0]])
            else:
                out_tokens.append(raw)
        collation = " ".join(out_tokens)
        return {
            "collation": collation,
            "hits": int(len(self.match_ids(collation))),
            "corrections": corrections,
        }

    def suggest(self, word: str, count: int = 5,
                max_distance: int = 2) -> list:
        """Solr spellcheck component: suggest index terms within
        ``max_distance`` Levenshtein edits of ``word``, ordered by edit
        distance asc, then df desc, then term asc (Solr's default
        score-then-frequency ranking).  The exact input term itself is
        excluded (Solr reports it as correctly spelled instead).

        Runs the Levenshtein-automaton walk over the sorted term
        dictionary (:func:`_fuzzy_scan`) — the array-trie analogue of
        Lucene's FST-backed DirectSpellChecker, so adversarial
        vocabularies (tens of thousands of genuinely-near identifiers)
        cost visited-trie-nodes, not whole-dictionary DP.  At 10^12-doc
        scale the dictionary walk shards naturally over the postings
        layout (one walk per term-shard, merged by (d, -df, term)).
        """
        word = (word or "").lower()
        if not word:
            return []
        terms, dfs = self._suggest_state()
        out = [
            (d, -int(dfs[i]), terms[i])
            for i, d in _fuzzy_scan(word, terms, max_distance)
            if terms[i] != word
        ]
        out.sort()
        return [(term, d, -negdf) for d, negdf, term in out[:count]]

    def _dict_state(self):
        """Default-field view of the term dictionary: sorted terms
        (Arrow) + aligned summed df (numpy), synthetic terms left out.
        Arrow-native so prefix/wildcard slicing never pays a full
        to_pylist; the fuzzy/suggest trie walkers get the Python-list
        form lazily from :meth:`_suggest_state`."""
        return self._terms_dict().default_view(
            bool(self.scored_fields or self.has_bigrams)
        )

    @staticmethod
    def _arr_bisect_left(arr, needle: str, lo: int = 0) -> int:
        """bisect_left over a sorted Arrow string array — O(log n)
        scalar probes, no list materialization."""
        hi = len(arr)
        while lo < hi:
            mid = (lo + hi) // 2
            if arr[mid].as_py() < needle:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _suggest_state(self):
        """Python-list form of :meth:`_dict_state` for the
        suggester/fuzzy automaton walk (ascending term order — the
        sorted list IS the trie).  Materialized lazily: engines that
        only serve prefix/wildcard queries never pay the full-dictionary
        to_pylist."""
        if self._suggest_cache is None:
            arr, dfs = self._dict_state()
            self._suggest_cache = (arr.to_pylist(), dfs)
        return self._suggest_cache

    def analyze(self, text: str, lang=None) -> pa.Table:
        """Solr FieldAnalysisRequestHandler (``/analysis/field``)
        analogue: the token stream after each stage of the index's
        PINNED analysis chain — stage 0 is the tokenizer (per-``lang``
        routing, like the build), then one stage per token filter in
        chain order.  Returns ``(stage, stage_name, position, term)``
        rows.

        Positions re-enumerate after a removing filter (our positional
        postings store post-filter stream indices — unlike Lucene's
        position-increment gaps, a documented deviation pinned in the
        phrase tests).  The reference's analysis debugging happens
        server-side in Solr's analysis screen over the same chain
        concept (analyzers declared by the configset, README.md:25).
        """
        from solr_indexer_ray.functions.filters import FilteredRegistry

        if isinstance(self.registry, FilteredRegistry):
            base = self.registry.registry
            chain = self.registry.chain
            filters = list(chain.filters)
        else:
            base, chain, filters = self.registry, None, []
        rows = []

        def emit(stage, name, toks):
            rows.extend(
                {"stage": stage, "stage_name": name, "position": i,
                 "term": t}
                for i, t in enumerate(toks)
            )

        toks = base.tokenize(text or "", lang)
        emit(0, f"tokenizer:{base.analyzer_name(lang)}", toks)
        for si, f in enumerate(filters):
            sub = type(chain)((f,), stopwords=chain.stopwords)
            toks = [m for m in (sub.map_term(t) for t in toks)
                    if m is not None]
            emit(si + 1, f"filter:{f}", toks)
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("stage", pa.int64()), ("stage_name", pa.string()),
                 ("position", pa.int64()), ("term", pa.string())]
            ),
        )

    def field_stats(self, query: str, field: str, fq=None,
                    percentiles=None) -> dict:
        """Solr stats component (``stats.field``) over the numeric
        ``doclen`` field or any stored field: min/max/sum/mean/count/
        missing of the FULL match set of ``query``.

        ``percentiles`` (Solr ``stats.field={!percentiles='5,50,95'}f``)
        adds a ``percentiles`` dict for numeric fields — EXACT
        linear-interpolated quantiles (SQL ``quantile_cont`` semantics),
        computed from the match set's value histogram; Solr approximates
        with a t-digest, we don't need to (documented deviation: ours are
        exact)."""
        vals = self._stats_values(query, field, fq)
        out = _value_stats(vals)
        if percentiles is not None:
            vs, cs = _value_histogram(vals, field)
            pv = _weighted_percentiles(vs, cs, list(percentiles))
            out["percentiles"] = dict(zip(map(str, percentiles), pv))
        return out

    def _stats_values(self, query: str, field: str, fq=None):
        """``field``'s values over the FULL match set of ``query``."""
        if field not in self.stored_fields or field == "doc_id":
            raise ValueError(f"cannot compute stats on field {field!r}")
        ids = self._filtered_match_ids(query, fq)
        return self._matched_rows(ids, [field])[field]

    def group_search(self, query: str, group_field: str,
                     k_groups: int = 10, group_limit: int = 1,
                     round_scores: int | None = None, fq=None,
                     with_ngroups: bool = False):
        """Solr result grouping (``group=true&group.field=F``): the top
        ``k_groups`` groups ordered by their best document's relevance
        (Solr default ``group.sort=score desc``; ties by ascending doc id),
        each contributing its top ``group_limit`` docs.

        Returns ``(group, group_rank, position, doc_id, score)`` rows —
        ``group_rank`` orders groups, ``position`` orders docs inside one.
        Docs with a NULL group value form their own null group (Solr
        behavior for a missing field value).  ``round_scores`` rounds
        (half-away) before ranking — the contract pins ranking on rounded
        scores so a SQL oracle is float-order-independent.
        """
        _check_page(k_groups)
        if group_field not in self.stored_fields or group_field == "doc_id":
            raise ValueError(f"cannot group on field {group_field!r}")
        # grouping IS collapsing with all nulls folded into one group and
        # group_limit members kept
        ids, scores = self._match(self._prepare(query), fq)
        dense, uniques, _hn = self._field_codes(group_field)
        codes = dense[ids]
        t = _group_rows(_collapse_codes(ids, scores, codes, uniques,
                                        k_groups, "collapse",
                                        group_limit - 1, round_scores))
        if not with_ngroups:
            return t
        # group.ngroups from the codes already gathered: distinct non-null
        # groups + the folded null group if present
        return t, int(np.unique(codes[codes >= 0]).size
                      + bool((codes < 0).any()))

    def collapse_search(self, query: str, field: str, k: int = 10,
                        fq=None, null_policy: str = "ignore",
                        expand_limit: int = 0,
                        round_scores: int | None = None) -> pa.Table:
        """Solr field collapsing (CollapsingQParser ``{!collapse
        field=F}`` + ExpandComponent ``expand=true``): collapse the match
        set to one document per ``field`` value — the group head is the
        highest-scoring doc (ties by ascending doc id, the max-score
        selector Solr defaults to) — and rank the heads by relevance.

        ``null_policy`` mirrors Solr's ``nullPolicy``: ``"ignore"``
        (default) drops docs with a null collapse value, ``"expand"``
        treats each null doc as its own group, ``"collapse"`` folds all
        nulls into one group.  ``expand_limit`` > 0 is the
        ExpandComponent: each returned head also carries its group's next
        ``expand_limit`` docs by score (Solr ``expand.rows``, default
        ``expand.sort=score desc``).

        Returns ``(rank, position, doc_id, score, group)`` rows: ``rank``
        orders the k heads, ``position`` 0 is the head, 1.. are expanded
        members.  ``round_scores`` rounds (half-away) before ranking so a
        SQL oracle is float-order-independent.  ``search(fq="{!collapse
        field=F}", ...)`` collapses a query prepared with any ranking
        parameter (``qf``, ``mm``, ``bf``/``boost``/``bq``…).

        The reference delegates this to Solr; collapsing is how its
        dataset catalogue shows one hit per parent dataset
        (``solrindexer/search.py:125-140`` passes arbitrary Solr params).
        """
        return self._collapse(self._prepare(query), field, k, fq,
                              null_policy, expand_limit, round_scores)

    def _collapse(self, parsed: ParsedQuery, field: str, k: int, fq=None,
                  null_policy: str = "ignore", expand_limit: int = 0,
                  round_scores: int | None = None) -> pa.Table:
        """:meth:`collapse_search` of a prepared query: its match arrays
        collapsed over a cached per-doc factorization of ``field`` (the
        docValues analogue) — no join, no full top-k sort."""
        _check_page(k)
        if field not in self.stored_fields or field == "doc_id":
            raise ValueError(f"cannot collapse on field {field!r}")
        if null_policy not in ("ignore", "expand", "collapse"):
            raise ValueError(f"bad nullPolicy {null_policy!r}")
        ids, scores = self._match(parsed, fq)
        dense, uniques, _hn = self._field_codes(field)
        return _collapse_codes(ids, scores, dense[ids], uniques, k,
                               null_policy, expand_limit, round_scores)

    def rerank_search(self, query: str, rerank_query: str, k: int = 10,
                      rerank_docs: int = 200, rerank_weight: float = 2.0,
                      fq=None, fl=None, start: int = 0,
                      round_scores: int | None = None) -> pa.Table:
        """Solr ReRankQParserPlugin (``rq={!rerank reRankQuery=...
        reRankDocs=N reRankWeight=W}``): rescore the main query's top
        ``rerank_docs`` hits by adding ``rerank_weight`` x the rerank
        query's BM25 score (docs not matching the rerank query keep their
        main score), re-sort that segment by the combined score (ties by
        ascending doc id), and leave hits below the segment in their
        original order — exactly Solr's two-pass rescoring shape, where
        only the top-N window is eligible to move.

        ``round_scores`` rounds both component scores (half-away) before
        combining so a SQL oracle reproduces the ranking.  Returns rows
        ``[start, start+k)`` of the rescored ranking via the normal
        stored-field resolution (``fl``).
        """
        if rerank_docs < 1:
            raise ValueError("rerank_docs must be >= 1")
        _check_page(k, start)
        ids, scores = self._ranked(self._prepare(query),
                                   max(int(rerank_docs), start + k), fq)
        seg = min(int(rerank_docs), ids.size)
        ids, scores = _rerank_combine(
            ids, scores, self._rerank_scores(rerank_query, ids[:seg]),
            float(rerank_weight), round_scores)
        return self._resolve(ids[start:start + k], scores[start:start + k],
                             fl)

    def _rerank_scores(self, rerank_query: str, cand) -> np.ndarray:
        """The rerank-query score of each doc of ``cand`` (0.0 where it
        does not match), read from the rerank query's match arrays."""
        ids, scores = self._match(self._prepare(rerank_query))
        dense = np.zeros(self.doc_space)
        dense[ids] = scores
        return dense[cand]

    def ltr_search(self, query: str, model: dict, k: int = 10,
                   rerank_docs: int = 200, fl=None, fq=None,
                   start: int = 0,
                   round_scores: int | None = None) -> pa.Table:
        """Solr Learning-to-Rank plugin analogue: rescore the main
        query's top ``rerank_docs`` window with a feature model, tail
        order preserved — the same two-pass window shape as
        :meth:`rerank_search` (Solr LTR reranks through the same rq
        mechanism).  Two model classes, mirroring Solr's:

        - ``type="linear"`` (LinearModel): weighted feature sum.
        - ``type="trees"`` / ``"multipleadditivetrees"``
          (MultipleAdditiveTreesModel — lambdaMART ensembles train into
          this format): ``score = Σ_t weight_t · tree_t(features)``
          where each tree node is ``{"feature": F, "threshold": T,
          "left": ..., "right": ...}`` (left when feature <= threshold,
          Solr branching) and each leaf ``{"value": v}``; evaluation is
          vectorized ``np.where`` over the candidate window.

        ``model`` mirrors Solr's LinearModel JSON::

            {"type": "linear",
             "features": [
               {"name": "bm25",  "type": "originalScore"},
               {"name": "decay", "type": "function",
                "expr": "recip(doclen,1,1000,1000)"},
               {"name": "is_py", "type": "query", "q": "lang:python"},
               {"name": "aux",   "type": "queryScore", "q": "merge"},
               {"name": "bias",  "type": "value", "value": 0.1}],
             "weights": {"bm25": 1.0, "decay": 2.0, ...}}

        Feature types map to Solr's: ``originalScore`` =
        OriginalScoreFeature; ``function`` = a function-query expression
        over stored fields (covers FieldValueFeature via a bare field
        name); ``query`` = SolrFeature as a 0/1 match indicator;
        ``queryScore`` = SolrFeature's score; ``value`` =
        ValueFeature.  ``round_scores`` rounds query-score components
        before weighting and the final model score (half-away), so a SQL
        oracle reproduces the ranking.  ``fq`` filters the main query's
        match set (same as :meth:`rerank_search` — Solr applies fq
        before the LTR rescoring window); ``start`` pages the rescored
        ranking.
        """
        from solr_indexer_ray.functions.funcquery import (
            eval_func,
            func_fields,
            parse_func,
        )

        mtype = model.get("type", "linear")
        if mtype not in ("linear", "trees", "multipleadditivetrees"):
            raise ValueError(f"unknown LTR model type {mtype!r}")
        is_linear = mtype == "linear"
        feats = model.get("features") or []
        weights = model.get("weights") or {}
        trees = model.get("trees") or []
        if not feats:
            raise ValueError("LTR model needs at least one feature")
        feat_names = {f.get("name") for f in feats}
        _FEAT_REQ = {"function": "expr", "query": "q",
                     "queryScore": "q", "value": "value"}
        for f in feats:
            if is_linear and f.get("name") not in weights:
                raise ValueError(f"no weight for feature {f.get('name')!r}")
            need = _FEAT_REQ.get(f.get("type", "function"))
            if need and need not in f:
                raise ValueError(
                    f"feature {f.get('name')!r} ({f.get('type')}) "
                    f"needs a {need!r} key")
        if not is_linear:
            if not trees:
                raise ValueError("tree LTR model needs a trees list")
            for t_ in trees:
                _validate_ltr_tree(t_.get("root"), feat_names)
        if rerank_docs < 1:
            raise ValueError("rerank_docs must be >= 1")
        _check_page(k, start)

        def _r(x):
            return _round_half_away(x, round_scores)

        ids, scores = self._ranked(self._prepare(query),
                                   max(int(rerank_docs), start + k), fq)
        seg = min(int(rerank_docs), ids.size)
        cand = ids[:seg]
        total = np.zeros(seg, dtype=np.float64)
        fvals: dict[str, np.ndarray] = {}
        for f in feats:
            ftype = f.get("type", "function")
            if ftype == "originalScore":
                vals = _r(scores[:seg])
            elif ftype == "function":
                node = parse_func(f["expr"])
                cols = {name: self.func_column(name)
                        for name in sorted(func_fields(node))}
                full = eval_func(node, cols if cols else
                                 {"__n__": np.zeros(self.doc_space)})
                vals = full[cand]
            elif ftype == "query":
                mask = np.zeros(self.doc_space, dtype=bool)
                mask[self.match_ids(f["q"])] = True
                vals = mask[cand].astype(np.float64)
            elif ftype == "queryScore":
                vals = _r(self._rerank_scores(f["q"], cand))
            elif ftype == "value":
                vals = np.full(seg, float(f["value"]))
            else:
                raise ValueError(f"unknown LTR feature type {ftype!r}")
            fvals[f["name"]] = vals
            if is_linear:
                total += float(weights[f["name"]]) * vals
        if not is_linear:
            # Solr MultipleAdditiveTreesModel: score = Σ weight_t ·
            # tree_t(features), branch left when feature <= threshold
            for t_ in trees:
                total += (float(t_.get("weight", 1.0))
                          * _eval_ltr_tree(t_["root"], fvals, seg))
        total = _r(total)
        order = np.lexsort((cand, -total))
        ids = np.concatenate([cand[order], ids[seg:]])
        scores = np.concatenate([total[order], _r(scores[seg:])])
        return self._resolve(ids[start:start + k], scores[start:start + k],
                             fl)

    def term_vectors(self, doc_id: int,
                     with_positions: bool = False) -> pa.Table:
        """Solr TermVectorComponent (``/tvrh``): one document's term
        vector over the default field — ``(term, tf, df)`` rows ordered
        by term asc, plus a comma-joined ``positions`` column (0-based
        token indices, the same coordinates the positional postings
        store) when ``with_positions``.

        Like :meth:`more_like_this`, the vector is re-derived from the
        stored body with the pinned analyzer chain (Solr reanalyzes the
        stored field when ``termVectors`` aren't stored), so it requires
        ``store_content=True``.  ``df`` is the index-wide document
        frequency (tombstoned docs still count until compaction — Lucene
        semantics, same as the /terms component).
        """
        if not self.stats.get("store_content"):
            raise ValueError(
                "term_vectors needs stored content; rebuild with "
                "IndexConfig(store_content=True)"
            )
        row = self.get(doc_id)
        if row is None:
            raise ValueError(f"doc {doc_id} not found")
        toks = self.registry.tokenize(row.get("content") or "",
                                      row.get("lang"))
        tfm: dict = {}
        pos: dict = {}
        for i, t in enumerate(toks):
            tfm[t] = tfm.get(t, 0) + 1
            if with_positions:
                pos.setdefault(t, []).append(i)
        terms = sorted(tfm)
        dfs = self.lookup_dfs(terms)  # df-only: blobs never read
        cols = {
            "term": pa.array(terms, pa.string()),
            "tf": pa.array([tfm[t] for t in terms], pa.int64()),
            "df": pa.array(
                [int(dfs.get(t, 0)) for t in terms], pa.int64(),
            ),
        }
        if with_positions:
            cols["positions"] = pa.array(
                [",".join(map(str, pos[t])) for t in terms], pa.string()
            )
        return pa.table(cols)

    def more_like_this(self, doc_id: int, k: int = 10, fl=None,
                       max_query_terms: int = 25, min_term_freq: int = 2,
                       min_doc_freq: int = 5) -> pa.Table:
        """Solr MoreLikeThis handler: find docs similar to ``doc_id``.

        Lucene MLT discipline: rank the source doc's terms by classic
        ``tf · (1 + ln(N/df))`` (selection score rounded to 6 decimals,
        ties by ascending term — pinned so the DuckDB oracle reproduces the
        exact term set), keep terms with ``tf >= min_term_freq`` and
        ``df >= min_doc_freq``, take the top ``max_query_terms``, then run
        them as an unboosted OR query (Solr ``mlt.boost=false`` default)
        under the engine's BM25, excluding the source doc.  Requires
        ``store_content=True`` (the term vector is re-derived from the
        stored body with the pinned analyzer).
        """
        _check_page(k)
        if not self.stats.get("store_content"):
            raise ValueError(
                "more_like_this needs stored content; rebuild with "
                "IndexConfig(store_content=True)"
            )
        row = self.get(doc_id)
        if row is None:
            raise ValueError(f"doc {doc_id} not found")
        toks = self.registry.tokenize(row.get("content") or "",
                                      row.get("lang"))
        tfm: dict = {}
        for t in toks:
            tfm[t] = tfm.get(t, 0) + 1
        cand = sorted(t for t, c in tfm.items() if c >= min_term_freq)
        # two-phase: rank candidates from the df metadata columns alone,
        # then fetch postings ONLY for the <= max_query_terms selected
        # (a long source doc no longer pulls every term's blob)
        dfs = self.lookup_dfs(cand)
        scored = []
        for t in cand:
            df = dfs.get(t)
            if df is None or df < min_doc_freq:
                continue
            sc = round(tfm[t] * (1.0 + math.log(self.n_docs / df)), 6)
            scored.append((-sc, t))
        scored.sort()
        sel = [t for _, t in scored[:max_query_terms]]
        if not sel:
            return self._resolve(*_NO_HITS, fl)
        postings = self.lookup_postings(sel)
        ids, scores = _select_topk(*self._match_score_arrays(
            ParsedQuery(terms=sel), {t: postings[t] for t in sel},
            self._dead_mask()), k + 1)
        other = ids != doc_id
        return self._resolve(ids[other][:k], scores[other][:k], fl)

    def get(self, doc_id: int, fl=None) -> dict | None:
        """Realtime-get analogue (``solrindexer/tools.py:68-85``): point
        lookup through the docs-row locator."""
        if doc_id in self.tombstones:
            return None
        _, rows = self._hit_rows(np.array([doc_id]))
        if rows.size == 0:
            return None
        cols = [c for c in self._docs_ds.schema.names
                if not fl or c in fl or c == "doc_id"]
        t = self._apply_overlays(self._docs_take(cols, rows))
        row = t.to_pylist()[0]
        if fl:
            row = {k: v for k, v in row.items() if k in fl}
        return row

    def explain(self, query: str, doc_id: int, qf: str | None = None,
                tie: float = 0.0) -> dict:
        """Solr ``debugQuery`` analogue: per-clause score contributions of
        one document.

        Returns ``{"doc_id", "matches", "score", "clauses": [(desc,
        contribution), ...]}``.  ``score`` is the document's EXACT search
        score.  The clauses are the ones the scorer adds (:meth:`_clauses`),
        in its order and with its values, so for a matching doc their
        contributions added from 0.0 in listed order equal ``score``
        exactly (``pf``/``bq``/``bf``/``boost`` reranking is not listed).
        ``matches`` and ``score`` come from the match set
        :meth:`search` ranks (:meth:`_match_core`), so a doc that matches
        only ``^0`` clauses matches at score 0; ``matches=False``
        (excluded / missing a required clause / deleted) reports score 0
        with the clause evidence kept.
        """
        parsed = self._prepare(query, qf, tie)
        if parsed.tree is not None:
            raise ValueError(
                "explain covers flat queries (grouped boolean trees "
                "report per-leaf via their own flat explains)"
            )
        d = int(doc_id)
        if not (0 <= d < self.doc_space):
            raise ValueError(f"doc_id {d} outside [0, {self.doc_space})")
        clauses = []
        for label, docs, contrib in self._clauses(
                parsed, self._term_postings(parsed)):
            at = int(np.searchsorted(docs, d))
            if at < docs.size and docs[at] == d:
                clauses.append((label, float(
                    contrib if np.ndim(contrib) == 0 else contrib[at])))
        ids, scores = self._match_core(parsed, self._dead_mask())
        at = int(np.searchsorted(ids, d))
        matches = at < ids.size and int(ids[at]) == d
        return {
            "doc_id": d,
            "matches": matches,
            "score": float(scores[at]) if matches else 0.0,
            "clauses": clauses,
        }

    def facet_query(self, query: str, facet_queries, fq=None) -> dict:
        """Solr ``facet.query``: count of the main query's match set
        intersected with each sub-query's match set (same grammar as
        search; non-scoring, like fq)."""
        base = self._filtered_match_ids(query, fq)
        out = {}
        for sub in facet_queries:
            m = self.match_ids(sub)
            out[sub] = int(np.intersect1d(base, m, assume_unique=True).size)
        return out

    def count(self) -> int:
        """Live doc count (reference: ``get_status`` doc counts)."""
        return self.n_docs - len(self.tombstones)

    def status(self) -> dict:
        st = self.manifest.status()
        st["live_docs"] = self.count()
        st["deleted_docs"] = len(self.tombstones)
        return st


def _bigram_postings_key(group, first=()) -> str | None:
    """The next-word-index postings term serving an exact-phrase group, or
    None when the group isn't bigram-servable (not 2 terms; fielded —
    bigrams are built from the content stream only; or a non-empty
    ``bigram_first`` list is pinned and the leading token isn't in it —
    the common-word nextword restriction, IndexConfig.bigram_first)."""
    if len(group) == 2 and "\x1f" not in group[0] and "\x1f" not in group[1]:
        if first and group[0] not in first:
            return None
        return f"{group[0]}\x1e{group[1]}"
    return None


def _bigram_chain_keys(group, first=()) -> list | None:
    """Consecutive-pair next-word postings terms for a 3+-term exact
    phrase, or None when any member is fielded (or, under a pinned
    ``bigram_first`` list, any pair's leading token isn't in it).  On an
    index with BOTH bigrams and positions, a phrase occurs at start
    ``s`` iff pair ``i`` occurs at ``s + i`` for every ``i`` (bigram
    positions store the pair's FIRST-token position), so the standard
    ExactPhraseMatcher run over the pair streams — far rarer than
    common member terms — yields the exact phrase frequency."""
    if len(group) < 3 or any("\x1f" in t for t in group):
        return None
    if first and any(t not in first for t in group[:-1]):
        return None
    return [f"{a}\x1e{b}" for a, b in zip(group, group[1:])]


class _MergedStats:
    """Collection statistics over whole indexes (Solr's ExactStatsCache):
    the ``collection_stats`` of a federated shard's :class:`SearchEngine`
    (summed over every shard) or of a doc range's (the whole index's,
    from one engine).  N, avgdl and per-field docCount/avgdl are merged
    up front; a term's df and a prefix, wildcard or fuzzy expansion when
    scoring asks.  ``engines`` are opened WITHOUT outside stats, so every
    value summed is one index's own count, and an expansion is the union
    of theirs, capped as a whole and memoized in the first engine's
    caches, since every engine fed these statistics asks for the same
    ones."""

    def __init__(self, engines):
        self._engines = engines
        self._cache = engines[0]._cache
        self.n_docs = sum(e.n_docs for e in engines)
        sum_dl = sum(int(e.stats["sum_dl"]) for e in engines)
        self.avgdl = (sum_dl / self.n_docs) if self.n_docs else 0.0
        self.field_stats = {}
        for fld in engines[0].scored_fields:
            per = [(e.stats.get("field_stats") or {}).get(fld, {})
                   for e in engines]
            nd = sum(int(s.get("n_docs", 0)) for s in per)
            sdl = sum(int(s.get("sum_dl", 0)) for s in per)
            self.field_stats[fld] = {
                "n_docs": nd, "avgdl": (sdl / nd) if nd else 1.0,
            }

    def df(self, term: str) -> int:
        return sum(e.lookup_dfs([term]).get(term, 0) for e in self._engines)

    def _union(self, key, label: str, part, cap: int) -> list:
        """The sorted union of ``part(engine)`` (each engine's sorted
        Arrow array of expansion terms) over the engines, or
        TooManyClauses when it has more than ``cap`` terms — counted in
        Arrow, before any term becomes a Python string."""
        hit = self._cache.get("expansions", key)
        if hit is _MISS:
            parts = [part(e) for e in self._engines]
            terms = (parts[0] if len(parts) == 1
                     else pc.unique(pa.chunked_array(parts)))
            hit = self._cache.put("expansions", key, sorted(
                _capped(label, terms, cap).to_pylist()))
        return hit

    def expand_prefix(self, prefix: str, cap: int) -> list:
        return self._union(("prefix", prefix, cap), f"wildcard {prefix}*",
                           lambda e: e._prefix_terms(prefix), cap)

    def expand_pattern(self, pattern: str, cap: int) -> list:
        return self._union(("pattern", pattern, cap), _pattern_label(pattern),
                           lambda e: e._pattern_terms(pattern), cap)

    def expand_fuzzy(self, word: str, max_edits: int, cap: int) -> list:
        return self._union(
            ("fuzzy", word, max_edits, cap), f"fuzzy {word}~{max_edits}",
            lambda e: pa.array(e._fuzzy_terms(word, max_edits), pa.string()),
            cap,
        )

    def match_ids(self, query: str) -> np.ndarray:
        """The whole index's matches for a doc range's join or block
        join (a range's statistics come from one whole-index engine),
        kept for the last few queries: every range of a task asks."""
        (engine,) = self._engines
        return self._cache.memo("joins", query,
                                lambda: engine.match_ids(query))


def _check_page(k: int, start: int = 0) -> None:
    """Reject a negative ``k`` or ``start``, as Solr rejects a negative
    ``rows`` or ``start``."""
    if k < 0:
        raise ValueError(f"k must be >= 0 (got {k})")
    if start < 0:
        raise ValueError("start must be >= 0")


def _merge_top(parts, k: int, keys=("doc_id",)) -> pa.Table:
    """The top ``k`` rows of disjoint per-part top-k tables, ranked as
    the engine ranks: score descending, ties by ``keys`` ascending."""
    schema = pa.schema([(c, pa.int64()) for c in keys]
                       + [("score", pa.float64())])
    t = pa.concat_tables(
        [p.select(schema.names).cast(schema) for p in parts]
    ) if parts else schema.empty_table()
    order = pc.sort_indices(t, sort_keys=[("score", "descending")]
                            + [(c, "ascending") for c in keys])
    return t.take(order[:k])


def _merge_hits(parts, k: int, fq=None) -> pa.Table:
    """The top ``k`` of the ranges' :func:`_range_search` parts over
    disjoint doc ranges: :func:`_merge_top`, or, under a ``{!collapse}``
    fq, :func:`_merge_groups` of the ranges' top-k heads.  A group of the
    global top k has its head among its own range's top-k heads, so
    collapsing the ranges' heads again equals collapsing the whole match
    set."""
    _, collapse = _extract_collapse_fq(fq)
    if collapse is None:
        return _merge_top(parts, k)
    return _merge_groups(parts, k, collapse[1])


def _merge_groups(parts, k: int, null_policy: str,
                  expand_limit: int = 0) -> pa.Table:
    """:func:`_collapse_codes` over the ranges' collapse rows, coded by
    their group labels (null: the null group): the driver half of
    distributed grouping and collapsing.  The parts hold every row a
    group's global head or expanded members can come from, with scores
    already rounded as the ranges rank them."""
    t = pa.concat_tables(parts)
    enc = pc.dictionary_encode(t["group"].combine_chunks())
    return _collapse_codes(
        t["doc_id"].to_numpy(), t["score"].to_numpy(),
        enc.indices.fill_null(-1).to_numpy().astype(np.int64),
        enc.dictionary.to_pylist(), k, null_policy, expand_limit, None)


def search_sharded(index_dirs, query: str, k: int = 10,
                   qf: str | None = None, tie: float = 0.0,
                   fq=None) -> pa.Table:
    """Distributed search across MULTIPLE independent indexes — Solr's
    ``shards=`` multi-core search with **exact global statistics**
    (ExactStatsCache): N, avgdl, per-field stats, every term's df and
    every multi-term expansion are merged across shards
    (:class:`_MergedStats`), then each shard runs its own engine's
    ranked path with the merged stats, so scores equal a single index
    over the union corpus (Solr's default per-shard IDF skew does not
    occur).  Only the per-shard top-k lists are merged here.

    Returns ``(shard, doc_id, score)`` rows — doc ids are shard-local
    (Solr returns per-core ids + shard address the same way).  Any
    query the engine's ranked path scores works, ``qf``/``tie`` dismax
    included; ``fq`` applies per shard (Solr evaluates filter queries on
    every shard); ties break by (shard, doc_id) ascending.
    """
    peers = [SearchEngine(d) for d in index_dirs]
    pins = {
        (e.stats.get("analyzer_default"),
         tuple(sorted((e.stats.get("analyzer_lang_map") or {}).items())),
         tuple(e.stats.get("filters", ()) or ()),
         tuple(e.stats.get("stopwords", ()) or ()),
         e.k1, e.b)
        for e in peers
    }
    if len(pins) != 1:
        raise ValueError("shards disagree on analyzer/BM25 pins")
    parsed = peers[0]._prepare(query, qf=qf, tie=tie)
    if any(leaf.field_terms or leaf.field_phrases or leaf.dismax
           for leaf in _leaves(parsed, negated=True)):
        fps = {tuple(sorted(e.scored_fields)) for e in peers}
        if len(fps) != 1 or not fps.pop():
            raise ValueError(
                "fielded clauses need every shard built with the same "
                "analyzed_fields"
            )
    merged = _MergedStats(peers)
    parts = []
    for si, d in enumerate(index_dirs):
        t = SearchEngine(d, collection_stats=merged).search(
            query, k=k, fl=["doc_id"], fq=fq, qf=qf, tie=tie
        )
        parts.append(t.add_column(
            0, "shard", pa.array([si] * t.num_rows, pa.int64())))
    return _merge_top(parts, k, keys=("shard", "doc_id"))


def export_matches(index_dir: str, query: str, dest: str, fl=None,
                   fq=None, sort: str | None = None) -> dict:
    """Solr /export handler analogue: stream EVERY doc matching ``query``
    into partitioned parquet at ``dest``.

    The match set ships as a broadcast bitmap (``ray.put`` once — 1 bit
    per doc-id slot, ~128 MB per 10^9 docs); each docs-table block filters
    against it inside ``map_batches`` and the streaming executor writes
    shards as they complete — no driver materialization, no shuffle.
    ``sort`` (Solr /export REQUIRES one; ours defaults to doc-id order)
    runs a distributed ``Dataset.sort`` on the filtered stream before the
    write — the one genuinely wide step, and exactly the sort-exchange
    Solr's export does per shard.
    """
    import ray
    import ray.data as rd

    engine = SearchEngine(index_dir)
    keys = _sort_keys(sort, engine.stored_fields) if sort else []
    if any(f == "score" for f, _ in keys):
        raise ValueError("the export has no scores to sort on")
    ids = engine._filtered_match_ids(query, fq)
    mask = np.zeros(engine.doc_space, dtype=bool)
    mask[ids] = True
    mask_ref = ray.put(mask)
    columns = sorted(set(fl) | {"doc_id"}) if fl else None
    # the sort keys are read too, and dropped again before the write
    read = sorted({*columns, *(f for f, _ in keys)}) if fl else None

    def keep(batch: pa.Table) -> pa.Table:
        m = ray.get(mask_ref)  # zero-copy view of the broadcast bitmap
        return batch.filter(pa.array(m[batch["doc_id"].to_numpy()]))

    ds = rd.read_parquet(
        BuildManifest(engine.index_dir).committed_paths("docs", engine.stats),
        columns=read,
    ).map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    if keys:
        ds = ds.sort([f for f, _ in keys],
                     descending=[not asc for _, asc in keys])
    if read != columns:
        ds = ds.select_columns(columns)
    ds.write_parquet(dest)
    return {"dest": os.fspath(dest), "n_docs": int(ids.size)}


def _n_ranges(stats: dict) -> int:
    """Doc ranges of an index (at least one)."""
    space = int(stats.get("doc_id_space", stats["n_docs"]))
    return max(1, -(-space // int(stats["docs_per_range"])))


def _range_engines(index_dir: str, range_ids, synonyms=None):
    """``(r, range engine)`` for every doc range ``r`` in ``range_ids``
    (``SearchEngine(..., doc_range=r)``), built one at a time and all fed
    the whole index's collection statistics from one shared engine —
    which reads only its term dictionary's df columns, never a postings
    blob — so each range scores exactly as the whole-index engine does."""
    stats = _MergedStats([SearchEngine(index_dir)])
    for r in range_ids:
        yield r, SearchEngine(index_dir, synonyms=synonyms,
                              collection_stats=stats, doc_range=r)


@contextlib.contextmanager
def _task_errors():
    """Re-raise the exception a Ray task raised as itself, so a
    distributed call rejects a query with the engine's exception type."""
    import ray

    try:
        yield
    except ray.exceptions.RayTaskError as e:
        if e.cause is None:
            raise
        raise e.cause from e


def _run_task(engines, task, args=()) -> list:
    """``(r, task(engine, *args))`` for every ``(r, range engine)``: how
    a per-job range task (:func:`_map_ranges`) and a resident range actor
    (``serving._RangeActor``) both run a task over their ranges."""
    return [(r, task(e, *args)) for r, e in engines]


def _map_ranges(index_dir: str, task, args=(), synonyms=None) -> list:
    """``task(range engine, *args)`` for every doc range of the index;
    the results in range order.  The ranges split into one Ray Data task
    per cluster CPU (at most one per range): a task walks its ranges one
    range engine at a time (:func:`_range_engines`, :func:`_run_task`),
    reading only that range's postings files and docs rows, and opens
    the whole-index statistics once for all of them.  Results travel
    pickled, so a task may return any partial: a top-k table, counts, a
    histogram."""
    import pickle

    import ray
    import ray.data as rd

    n = _n_ranges(BuildManifest(index_dir).read_stats())
    # ray.cluster_resources() raises before init; the Dataset job below
    # auto-inits, so estimate from the host until then
    cpus = (int(ray.cluster_resources().get("CPU", 1))
            if ray.is_initialized() else (os.cpu_count() or 1))
    bounds = np.linspace(0, n, min(n, max(cpus, 1)) + 1).astype(np.int64)

    def run(batch: dict) -> pa.Table:
        rids = range(int(batch["lo"][0]), int(batch["hi"][0]))
        done = _run_task(_range_engines(index_dir, rids, synonyms), task,
                         args)
        return pa.table({
            "range_id": pa.array([r for r, _ in done], pa.int64()),
            "result": pa.array([pickle.dumps(p) for _, p in done],
                               pa.binary()),
        })

    ds = rd.from_items([
        {"lo": int(lo), "hi": int(hi)}
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]).map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
    ds.context.raise_original_map_exception = True
    with _task_errors():
        rows = ds.take_all()
    rows.sort(key=lambda r: r["range_id"])
    return [pickle.loads(r["result"]) for r in rows]


def _global_ids(engine: SearchEngine, t: pa.Table) -> pa.Table:
    """A range engine's result table with its ``doc_id``s made global."""
    i = t.schema.get_field_index("doc_id")
    return t.set_column(i, "doc_id", pc.add(t["doc_id"], engine._lo))


def _range_search(engine: SearchEngine, query: str, k: int,
                  params: dict) -> pa.Table:
    """A range's part of a distributed search (``params``: the engine's
    ranking parameters and ``fq``): its ranked top-k ``(doc_id, score)``
    or, under a ``{!collapse}`` fq, its top-k collapse heads with their
    group labels, for :func:`_merge_hits`."""
    fq, collapse = _extract_collapse_fq(params.get("fq"))
    if collapse is None:
        return _global_ids(engine, engine.search(query, k=k,
                                                 fl=["doc_id"], **params))
    rank = {p: v for p, v in params.items() if p != "fq"}
    return _global_ids(engine, engine._collapse(
        engine._prepare(query, **rank), collapse[0], k, fq, collapse[1]))


def search_partitioned(index_dir: str, query: str, k: int = 10,
                       synonyms=None, qf: str | None = None,
                       tie: float = 0.0, mm=None,
                       pf: str | None = None, ps: int = 0,
                       pf2: str | None = None,
                       pf3: str | None = None,
                       bf=None, boost=None, bq=None,
                       fq=None) -> pa.Table:
    """Distributed top-k: fan out per doc range, merge local top-k.

    Each doc range runs ``SearchEngine.search`` on a range engine — an
    engine over that range's postings files and docs rows only, fed the
    whole index's statistics (:func:`_range_engines`) — with every
    parameter given here, so it applies ``fq``, tombstones, prohibitions
    and filters itself.  The driver evaluates nothing: it k-way merges
    the ranges' top-k lists by ``(-score, doc_id)``, the same merge
    :func:`search_sharded` does.  Results equal ``SearchEngine.search``
    exactly (tested), and a query the engine rejects raises the same
    exception here.  A range task's dense state is bounded by
    ``docs_per_range``.  Joins and block joins (in ``fq`` or as the
    query) link docs across ranges, so each range matches them over the
    whole index and keeps its own ids; under a ``{!collapse}`` fq each
    range returns its group heads and the merge collapses them again.
    """
    _check_page(k)
    params = dict(qf=qf, tie=tie, mm=mm, pf=pf, ps=ps, pf2=pf2, pf3=pf3,
                  bf=bf, boost=boost, bq=bq, fq=fq)
    parts = _map_ranges(index_dir, _range_search, (query, k, params),
                        synonyms)
    return _merge_hits(parts, k, fq).select(["doc_id", "score"])


def _int_range_bounds(field: str, start, end, gap) -> tuple:
    """``(start, end, gap)`` of an integer field's range facet, as ints.
    A fractional value raises, as in Solr, instead of being truncated."""
    bounds = []
    for name, v in (("start", start), ("end", end), ("gap", gap)):
        if not float(v).is_integer():
            raise ValueError(f"range facet on integer field {field!r}: "
                             f"{name}={v!r} is not an integer")
        bounds.append(int(float(v)))
    if bounds[2] <= 0 or bounds[1] <= bounds[0]:
        raise ValueError("need gap > 0 and end > start")
    return tuple(bounds)


def range_facet_partitioned(index_dir: str, query: str, field: str,
                            start, end, gap, fq=None) -> dict:
    """Distributed ``facet.range``: every doc range runs
    :meth:`SearchEngine.range_facet` over its own matches and the driver
    sums the per-bucket counts — identical buckets to the single engine
    (tested).  Bucket boundaries depend only on ``start``/``end``/``gap``,
    so every range reports the same buckets."""
    parts = _map_ranges(
        index_dir,
        lambda e: e.range_facet(query, field, start, end, gap, fq=fq),
    )
    return {
        "buckets": [
            (label, sum(p["buckets"][i][1] for p in parts))
            for i, (label, _) in enumerate(parts[0]["buckets"])
        ],
        "before": sum(p["before"] for p in parts),
        "after": sum(p["after"] for p in parts),
    }


def facet_partitioned(index_dir: str, query: str, fields, limit: int = 100,
                      mincount: int = 0, fq=None, prefix: str = "",
                      sort: str = "count", offset: int = 0) -> dict:
    """Distributed field facets: every doc range counts the values of its
    own matches (zero-count values too when ``mincount`` <= 0), the
    driver sums the counts and orders the buckets — identical to
    ``SearchEngine.facet`` (tested).  A pre-aggregated groupby with no
    shuffle, which is how faceting must run at 10^12 docs."""
    fields = list(fields)

    def task(e: SearchEngine) -> list:
        ids = e._filtered_match_ids(query, fq)
        return [e._facet_counts(fld, ids, mincount <= 0) for fld in fields]

    totals = [{} for _ in fields]
    for part in _map_ranges(index_dir, task):
        for tot, counts in zip(totals, part):
            for v, c in counts.items():
                tot[v] = tot.get(v, 0) + c
    return {
        fld: _facet_buckets(tot, limit, mincount, prefix, sort, offset)
        for fld, tot in zip(fields, totals)
    }


def _facet_buckets(counts: dict, limit: int, mincount: int, prefix: str,
                   sort: str, offset: int) -> list:
    """Solr facet bucket order and paging over value -> count: count desc
    then value asc (``sort="index"``: value asc), ``facet.mincount``,
    ``facet.prefix``, ``facet.offset`` and ``facet.limit``."""
    return sorted(
        ((v, c) for v, c in counts.items()
         if c >= mincount and (not prefix or str(v).startswith(prefix))),
        key=(lambda b: (-b[1], b[0])) if sort == "count"
        else (lambda b: b[0]),
    )[offset:offset + limit]


def _group_aggregates(t: pa.Table, by: str, fields) -> pa.Table:
    """``count_all`` plus each field's ``sum``/``min``/``max`` over
    ``t``'s rows grouped by ``by`` — the JSON-facet stats partial."""
    aggs = [([], "count_all")]
    for f in fields:
        aggs += [(f, "sum"), (f, "min"), (f, "max")]
    return pa.TableGroupBy(t, by).aggregate(aggs)


def _value_stats(vals) -> dict:
    """Solr stats-component fields of a value column: count, missing,
    min, max and, for numerics, sum and mean."""
    count = len(vals) - vals.null_count
    out = {
        "count": int(count),
        "missing": int(vals.null_count),
        "min": pc.min(vals).as_py(),
        "max": pc.max(vals).as_py(),
    }
    if pa.types.is_integer(vals.type) or pa.types.is_floating(vals.type):
        s = pc.sum(vals).as_py() or 0
        out["sum"] = s
        out["mean"] = (s / count) if count else None
    return out


def _value_histogram(vals, field: str) -> tuple:
    """(sorted distinct values, their counts) of a numeric value column,
    nulls dropped — the mergeable form exact percentiles derive from."""
    if not (pa.types.is_integer(vals.type)
            or pa.types.is_floating(vals.type)):
        raise ValueError(
            f"percentiles need a numeric field; {field!r} is {vals.type}"
        )
    vc = pc.value_counts(pc.drop_null(vals)).to_pylist()
    vs = np.array([r["values"] for r in vc], dtype=np.float64)
    cs = np.array([r["counts"] for r in vc], dtype=np.int64)
    order = np.argsort(vs)
    return vs[order], cs[order]


def _weighted_percentiles(values: np.ndarray, counts: np.ndarray,
                          ps) -> list:
    """Exact linear-interpolated percentiles (numpy ``linear`` / SQL
    ``quantile_cont`` semantics) from a sorted-distinct-value histogram —
    rank space never expands, so a merged per-range histogram yields the
    same result as the raw value multiset."""
    n = int(counts.sum()) if counts.size else 0
    if n == 0:
        return [None] * len(ps)
    cum = np.cumsum(counts)
    out = []
    for p in ps:
        r = (float(p) / 100.0) * (n - 1)
        i0 = int(np.floor(r))
        frac = r - i0
        v0 = float(values[np.searchsorted(cum, i0, side="right")])
        if frac == 0.0:
            out.append(v0)
            continue
        v1 = float(values[np.searchsorted(cum, i0 + 1, side="right")])
        out.append(v0 + (v1 - v0) * frac)
    return out


def stats_partitioned(index_dir: str, query: str, field: str,
                      percentiles=None, fq=None) -> dict:
    """Distributed stats component: every doc range computes the stats
    of its own matches' values (plus, with ``percentiles``, their value
    HISTOGRAM — one row per distinct value), the driver merges them —
    identical to ``SearchEngine.field_stats`` (tested; integer fields
    merge exactly, float sums can differ in the last ulp).  The
    histogram makes the merged percentiles exact (t-digest-free) when
    field cardinality is bounded, as it is for doc-length-like
    numerics."""
    def task(e: SearchEngine):
        vals = e._stats_values(query, field, fq)
        return (_value_stats(vals), None if percentiles is None
                else _value_histogram(vals, field))

    parts = _map_ranges(index_dir, task)
    stats = [p[0] for p in parts]
    count = sum(s["count"] for s in stats)
    mins = [s["min"] for s in stats if s["min"] is not None]
    maxs = [s["max"] for s in stats if s["max"] is not None]
    out = {
        "count": count,
        "missing": sum(s["missing"] for s in stats),
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
    }
    if "sum" in stats[0]:
        out["sum"] = sum(s["sum"] for s in stats)
        out["mean"] = (out["sum"] / count) if count else None
    if percentiles is not None:
        vs = np.concatenate([p[1][0] for p in parts])
        cs = np.concatenate([p[1][1] for p in parts])
        vs, inv = np.unique(vs, return_inverse=True)
        cs = np.bincount(inv, weights=cs, minlength=vs.size).astype(np.int64)
        out["percentiles"] = dict(zip(
            map(str, percentiles),
            _weighted_percentiles(vs, cs, list(percentiles)),
        ))
    return out


def facet_stats_partitioned(index_dir: str, query: str, by: str,
                            metrics: dict, limit: int = 100,
                            mincount: int = 1, fq=None) -> pa.Table:
    """Distributed JSON-facet stats: every range validates the spec and
    ships its :meth:`SearchEngine._facet_stats_groups` partial (one
    (value, count, sum, min, max) row per bucket value, the value in its
    stored type), and the driver merges them with the same Arrow groupby
    and labels the buckets as the engine does — identical output to
    ``SearchEngine.facet_stats`` (tested; integer stat fields merge
    exactly, float sums can differ in the last ulp from the single-pass
    order).  No shuffle, and no engine opens on the driver."""
    def task(e: SearchEngine) -> tuple:
        specs = e._parse_facet_stats(by, metrics)
        return specs, e._facet_stats_groups(query, by, _stat_fields(specs),
                                            fq)

    parts = _map_ranges(index_dir, task)
    specs = parts[0][0]
    groups = [g for _, g in parts if g.num_rows]
    if not groups:
        return SearchEngine._facet_stats_table([], specs)
    aggs = [("count_all", "sum")]
    for f in _stat_fields(specs):
        aggs += [(f"{f}_sum", "sum"), (f"{f}_min", "min"),
                 (f"{f}_max", "max")]
    m = pa.TableGroupBy(pa.concat_tables(groups), by).aggregate(aggs)
    names = {f"{c}_{op}": c for c, op in aggs}  # count_all_sum -> count_all
    m = m.rename_columns([names.get(n, n) for n in m.column_names])
    return SearchEngine._facet_stats_rows(m.to_pylist(), by, specs,
                                          mincount, limit)


def _stat_fields(specs) -> list:
    """The distinct stat fields of parsed facet-stats ``specs``."""
    return sorted({f for _, (_, f) in specs})


def _range_groups(engine: SearchEngine, query: str, field: str,
                  limit: int, fq, round_scores: int | None) -> pa.Table:
    """A range's part of distributed grouping or collapsing: the top
    ``limit`` rows of EVERY ``field`` group of its matches (nulls folded
    into one group), ids made global — a superset of each group's global
    head and members, whichever groups win globally."""
    return _global_ids(engine, engine._collapse(
        engine._prepare(query), field, engine.doc_space + 1, fq,
        "collapse", limit - 1, round_scores))


def group_partitioned(index_dir: str, query: str, group_field: str,
                      k_groups: int = 10, group_limit: int = 1,
                      fq=None) -> pa.Table:
    """Distributed result grouping: each range runs the engine's collapse
    collector (:func:`_range_groups`), the driver collapses the ranges'
    rows again (:func:`_merge_groups`) — identical to
    ``SearchEngine.group_search`` (tested)."""
    _check_page(k_groups)
    parts = _map_ranges(index_dir, _range_groups,
                        (query, group_field, group_limit, fq, None))
    return _group_rows(_merge_groups(parts, k_groups, "collapse",
                                     group_limit - 1))


def _group_rows(heads: pa.Table) -> pa.Table:
    """Collapse rows with all nulls folded into one group, as result
    grouping's ``(group, group_rank, position, doc_id, score)`` rows."""
    return pa.table({"group": heads["group"], "group_rank": heads["rank"],
                     "position": heads["position"],
                     "doc_id": heads["doc_id"], "score": heads["score"]})


_DATEMATH_GAP = re.compile(r"^\+(\d+)(SECONDS?|MINUTES?|HOURS?|DAYS?)$")
_DATEMATH_CAL_GAP = re.compile(r"^\+(\d+)(MONTHS?|YEARS?)$")


def _add_months_clamped(dt, n: int):
    """``dt`` plus ``n`` calendar months, day-of-month clamped to the
    target month's length — java.util.Calendar.add semantics, which is
    what Solr's DateMathParser applies for +NMONTHS/+NYEARS."""
    import calendar

    y = dt.year + (dt.month - 1 + n) // 12
    m = (dt.month - 1 + n) % 12 + 1
    d = min(dt.day, calendar.monthrange(y, m)[1])
    return dt.replace(year=y, month=m, day=d)


def _date_bucket_bounds(s_us: int, e_us: int, gap) -> np.ndarray:
    """Bucket boundary instants (epoch microseconds, ascending) for a
    date range facet: ``[b0=start, b1, ..., bK]`` with bucket i =
    ``[b_i, b_{i+1})`` and ``b_{K-1} < end <= b_K``.

    Fixed-length gaps are start + i*gap; calendar gaps (MONTH/YEAR)
    follow Solr's iterative DateMathParser evaluation — each edge is the
    PREVIOUS edge plus the gap, so day-of-month clamping "sticks" (a
    Jan-31 monthly series runs Jan 31, Feb 28/29, Mar 28/29, ...).
    """
    m = _DATEMATH_CAL_GAP.match(str(gap).strip().upper())
    if m is None:
        g_us = _parse_datemath_gap_us(gap)
        n = (e_us - s_us + g_us - 1) // g_us
        return s_us + g_us * np.arange(n + 1, dtype=np.int64)
    months = int(m.group(1)) * (12 if m.group(2).startswith("Y") else 1)
    if months <= 0:
        raise ValueError("gap must be positive")
    from datetime import datetime, timedelta, timezone

    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    us = timedelta(microseconds=1)
    cur = epoch + timedelta(microseconds=s_us)
    bounds = [s_us]
    while bounds[-1] < e_us:
        cur = _add_months_clamped(cur, months)
        bounds.append((cur - epoch) // us)
    return np.asarray(bounds, dtype=np.int64)


def _parse_datemath_gap_us(gap) -> int:
    """Fixed-length Solr DateMath gap -> microseconds (+1DAY, +6HOURS,
    +30MINUTES, +45SECONDS)."""
    m = _DATEMATH_GAP.match(str(gap).strip().upper())
    if m is None:
        raise ValueError(
            f"bad date gap {gap!r}; want +N(SECONDS|MINUTES|HOURS|DAYS)"
        )
    n = int(m.group(1))
    unit = m.group(2).rstrip("S") + "S"
    scale = {"SECONDS": 1, "MINUTES": 60, "HOURS": 3600,
             "DAYS": 86400}[unit]
    us = n * scale * 1_000_000
    if us <= 0:
        raise ValueError("gap must be positive")
    return us


_COLLAPSE_FQ_RE = re.compile(r"^\{!collapse\s+([^}]*)\}\s*$")
_JOIN_Q_RE = re.compile(r"^\{!join\s+([^}]*)\}(.*)$")
_GEO_Q_RE = re.compile(r"^\{!(geofilt|bbox)\s+([^}]*)\}\s*$")
_BLOCKJOIN_Q_RE = re.compile(r"^\{!(parent|child)\s+([^}]*)\}(.*)$")
_INTERSECTS_Q_RE = re.compile(r"^\{!intersects\s+([^}]*)\}(.*)$")
_DIRECTIVE_ONLY = (
    "filter directives as the main query are constant-score; only "
    "k/fl/start/fq compose with them"
)


def _is_directive(query: str) -> bool:
    """Whether ``query`` is a filter directive: a join, spatial or block
    join query (:meth:`SearchEngine.match_ids`)."""
    return any(r.match(query or "") for r in (
        _JOIN_Q_RE, _GEO_Q_RE, _INTERSECTS_Q_RE, _BLOCKJOIN_Q_RE))


def _links_docs(query: str) -> bool:
    """Whether ``query`` is a join or block join, whose matches depend on
    what is deleted: a deleted doc links no other."""
    return any(r.match(query or "") for r in (_JOIN_Q_RE, _BLOCKJOIN_Q_RE))


def _extract_collapse_fq(fq):
    """Split Solr ``{!collapse field=F nullPolicy=P}`` directives out of a
    filter-query list.  Returns ``(remaining_fq, (field, null_policy) |
    None)``; at most one collapse directive is allowed (Solr rejects
    multiple collapses on different fields too)."""
    if not fq:
        return fq, None
    fqs = [fq] if isinstance(fq, str) else list(fq)
    rest, spec = [], None
    for f in fqs:
        m = _COLLAPSE_FQ_RE.match(f) if isinstance(f, str) else None
        if m is None:
            rest.append(f)
            continue
        if spec is not None:
            raise ValueError("at most one {!collapse} filter per query")
        params = dict(
            p.split("=", 1) for p in m.group(1).split() if "=" in p
        )
        if "field" not in params:
            raise ValueError("{!collapse} requires field=")
        spec = (params["field"], params.get("nullPolicy", "ignore"))
    return (rest or None), spec


def _collapse_codes(doc_ids, scores, codes, uniques, k: int,
                    null_policy: str, expand_limit: int,
                    round_scores: int | None) -> pa.Table:
    """Collapse pre-factorized ``(doc_id, score, group-code)`` arrays
    (``uniques``: list of group labels, code -1 = null group value) to
    ``(rank, position, doc_id, score, group)`` rows: the engine's group
    and collapse collector, and the driver's merge of the ranges' rows
    (:func:`_merge_groups`)."""
    empty = pa.table(
        {"rank": pa.array([], pa.int64()),
         "position": pa.array([], pa.int64()),
         "doc_id": pa.array([], pa.int64()),
         "score": pa.array([], pa.float64()),
         "group": pa.array([], pa.string())}
    )
    if doc_ids.size == 0:
        return empty
    scores = _round_half_away(scores, round_scores)
    n_real = len(uniques)
    null_rows = codes < 0
    if null_policy == "ignore":
        keep = ~null_rows
        if not keep.any():
            return empty
        doc_ids, scores, codes = (doc_ids[keep], scores[keep],
                                  codes[keep])
    elif null_policy == "expand":  # each null doc is its own group
        codes = codes.copy()
        codes[null_rows] = n_real + np.arange(int(null_rows.sum()))
    else:  # "collapse": all nulls fold into one group
        codes = codes.copy()
        codes[null_rows] = n_real
    n = doc_ids.size
    if expand_limit == 0:
        # heads-only fast path: per-group max score / min doc id by
        # scatter reduction — no O(n log n) sort of the match set
        n_codes = int(codes.max()) + 1
        best = np.full(n_codes, -np.inf)
        np.maximum.at(best, codes, scores)
        is_head = scores == best[codes]
        head_doc = np.full(n_codes, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(head_doc, codes[is_head], doc_ids[is_head])
        alive = np.flatnonzero(best > -np.inf)
        # same rank rule as the sorted path: score desc, head id asc
        top = alive[np.lexsort((head_doc[alive], -best[alive]))[:k]]
        return pa.table(
            {
                "rank": pa.array(np.arange(top.size), pa.int64()),
                "position": pa.array(np.zeros(top.size, np.int64),
                                     pa.int64()),
                "doc_id": pa.array(head_doc[top], pa.int64()),
                "score": pa.array(best[top], pa.float64()),
                "group": pa.array(
                    [str(uniques[c]) if c < n_real else None
                     for c in top],
                    pa.string(),
                ),
            }
        )
    # rank order (score desc, doc_id asc), then a vectorized per-group
    # cumcount in that order — no pandas groupby machinery in the loop
    order = np.lexsort((doc_ids, -scores))
    codes_r = codes[order]
    perm = np.argsort(codes_r, kind="stable")  # groups contiguous,
    sorted_codes = codes_r[perm]               # rank order kept inside
    starts = np.flatnonzero(
        np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
    )
    sizes = np.diff(np.r_[starts, n])
    cum = np.arange(n) - np.repeat(starts, sizes)
    position = np.empty(n, dtype=np.int64)
    position[perm] = cum
    head_rows = np.flatnonzero(position == 0)[:k]  # rank order already
    rank_of_code = np.full(int(codes_r.max()) + 1, -1, dtype=np.int64)
    rank_of_code[codes_r[head_rows]] = np.arange(head_rows.size)
    ranks = rank_of_code[codes_r]
    sel = (ranks >= 0) & (position <= expand_limit)
    out_order = np.lexsort((position[sel], ranks[sel]))
    idx = np.flatnonzero(sel)[out_order]
    ids_r = doc_ids[order]
    scores_r = scores[order]
    out_codes = codes_r[idx]
    return pa.table(
        {
            "rank": pa.array(ranks[idx], pa.int64()),
            "position": pa.array(position[idx], pa.int64()),
            "doc_id": pa.array(ids_r[idx], pa.int64()),
            "score": pa.array(scores_r[idx], pa.float64()),
            "group": pa.array(
                [str(uniques[c]) if c < n_real else None
                 for c in out_codes],
                pa.string(),
            ),
        }
    )


def _validate_ltr_tree(node, feat_names: set) -> None:
    """Recursively validate a MultipleAdditiveTrees node: a leaf holds
    ``value``; an internal node holds feature/threshold/left/right with
    a declared feature name."""
    if not isinstance(node, dict):
        raise ValueError("tree node must be an object")
    if "value" in node:
        float(node["value"])
        return
    for key in ("feature", "threshold", "left", "right"):
        if key not in node:
            raise ValueError(f"tree node missing {key!r}")
    if node["feature"] not in feat_names:
        raise ValueError(
            f"tree references undeclared feature {node['feature']!r}")
    float(node["threshold"])
    _validate_ltr_tree(node["left"], feat_names)
    _validate_ltr_tree(node["right"], feat_names)


def _eval_ltr_tree(node, fvals: dict, n: int) -> np.ndarray:
    """Vectorized regression-tree evaluation over the candidate window
    (Solr MultipleAdditiveTreesModel: left branch when feature value
    <= threshold)."""
    if "value" in node:
        return np.full(n, float(node["value"]))
    mask = fvals[node["feature"]] <= float(node["threshold"])
    return np.where(
        mask,
        _eval_ltr_tree(node["left"], fvals, n),
        _eval_ltr_tree(node["right"], fvals, n),
    )


def _round_half_away(x, digits: int | None):
    """``x`` (a number or an array) rounded half away from zero to
    ``digits`` decimals, so a SQL oracle reproduces a ranking; as is
    when ``digits`` is None."""
    if digits is None:
        return x
    m = 10.0 ** digits
    return np.copysign(np.floor(np.abs(x) * m + 0.5) / m, x)


def _rerank_combine(ids, scores, rerank, rerank_weight: float,
                    round_scores: int | None) -> tuple:
    """Combine the ranked main hits ``(ids, scores)`` with the rerank
    scores of their head segment ``ids[:len(rerank)]``: the head is
    rescored ``main + weight * rerank`` and re-sorted (score desc, doc id
    asc); the tail keeps its original order and scores — shared by
    ``SearchEngine.rerank_search`` and ``rerank_partitioned``."""
    seg = len(rerank)
    scores = _round_half_away(scores, round_scores)
    head = scores[:seg] + rerank_weight * _round_half_away(rerank,
                                                           round_scores)
    order = np.lexsort((ids[:seg], -head))
    return (np.concatenate([ids[:seg][order], ids[seg:]]),
            np.concatenate([head[order], scores[seg:]]))


def rerank_partitioned(index_dir: str, query: str, rerank_query: str,
                       k: int = 10, rerank_docs: int = 200,
                       rerank_weight: float = 2.0,
                       round_scores: int | None = None,
                       fq=None) -> pa.Table:
    """Distributed reranking: the main top-N comes from
    ``search_partitioned`` (k rows per range), the rerank scores from
    each range's engine for the candidates in that range only — O(N)
    rows total, never the rerank query's full match set — identical to
    ``SearchEngine.rerank_search`` (tested)."""
    if rerank_docs < 1:
        raise ValueError("rerank_docs must be >= 1")
    _check_page(k)
    n = max(int(rerank_docs), k)
    main = search_partitioned(index_dir, query, k=n, fq=fq)
    ids = main["doc_id"].to_numpy()
    cand = ids[:min(int(rerank_docs), ids.size)]

    def task(e: SearchEngine) -> tuple:
        mine = np.flatnonzero((cand >= e._lo) & (cand < e._lo + e.doc_space))
        return mine, e._rerank_scores(rerank_query, cand[mine] - e._lo)

    rerank = np.zeros(cand.size)
    for mine, got in _map_ranges(index_dir, task):
        rerank[mine] = got
    ids, scores = _rerank_combine(ids, main["score"].to_numpy(), rerank,
                                  float(rerank_weight), round_scores)
    return pa.table({"doc_id": pa.array(ids[:k], pa.int64()),
                     "score": pa.array(scores[:k], pa.float64())})


def collapse_partitioned(index_dir: str, query: str, field: str,
                         k: int = 10, null_policy: str = "ignore",
                         expand_limit: int = 0,
                         round_scores: int | None = None,
                         fq=None) -> pa.Table:
    """Distributed field collapsing: each range ships every group's top
    rows (:func:`_range_groups`), the driver collapses them with the real
    ``null_policy`` (:func:`_merge_groups`) — identical to
    ``SearchEngine.collapse_search`` (tested)."""
    _check_page(k)
    if null_policy not in ("ignore", "expand", "collapse"):
        raise ValueError(f"bad nullPolicy {null_policy!r}")
    # per-range cap: head + expand members per group; under
    # nullPolicy=expand each null doc is a 1-doc group, so a range must
    # ship its k best nulls (they all compete for the k head slots)
    limit = expand_limit + 1
    if null_policy == "expand":
        limit = max(limit, k)
    parts = _map_ranges(index_dir, _range_groups,
                        (query, field, limit, fq, round_scores))
    return _merge_groups(parts, k, null_policy, expand_limit)


def _sort_keys(sort: str, stored) -> list:
    """``[(field, ascending)]`` of a Solr sort spec (``"doclen desc,
    path asc"``) over ``score``, ``doc_id`` and the ``stored`` fields."""
    keys = []
    for part in sort.split(","):
        toks = part.split()
        if not toks:
            continue
        fld = toks[0]
        order = toks[1].lower() if len(toks) > 1 else "asc"
        if order not in ("asc", "desc"):
            raise ValueError(f"bad sort direction {order!r} in {sort!r}")
        if fld != "score" and fld != "doc_id" and fld not in stored:
            raise ValueError(f"cannot sort on unknown field {fld!r}")
        keys.append((fld, order == "asc"))
    if not keys:
        raise ValueError(f"empty sort spec {sort!r}")
    return keys


def _sort_top(keys, doc_ids, scores, values: dict, n: int) -> np.ndarray:
    """Positions of the first ``n`` rows of ``(doc_ids, scores)`` in the
    order of the sort ``keys`` (:func:`_sort_keys`): ``score`` is the
    relevance score, ``doc_id`` the id, any other key reads its column in
    ``values``; ascending doc id breaks the last tie and missing values
    sort last.  The engine's sorted collector and the driver's merge of
    the ranges' sorted top-n (:func:`sorted_partitioned`) both run it."""
    cols = {"score": scores, "doc_id": doc_ids, **values}
    if len(keys) == 1 and cols[keys[0][0]].dtype.kind in "bif":
        # single-key numeric sort: O(n) partition top-n with doc-id tie
        # resolution instead of a full mergesort of the match set (the
        # common browse shape — n ≪ matches)
        f, asc = keys[0]
        vals = cols[f]
        # int keys stay int64 (no 2^53 float precision loss); uint is
        # excluded (order reversal would wrap)
        key = np.asarray(
            vals, dtype=np.float64 if vals.dtype.kind == "f" else np.int64)
        if not asc:
            # ints reverse via bitwise NOT (monotone decreasing, int64
            # min safe); floats via negation
            key = -key if key.dtype.kind == "f" else ~key
        nan = (np.isnan(key) if key.dtype.kind == "f"
               else np.zeros(key.size, dtype=bool))
        cand = np.flatnonzero(~nan)
        sel = np.empty(0, np.int64)
        if cand.size and n:
            if cand.size > n:
                part = cand[np.argpartition(key[cand], n - 1)[:n]]
                kv = key[part].max()
                strict = cand[key[cand] < kv]
                ties = cand[key[cand] == kv]
                ties = ties[np.argsort(doc_ids[ties], kind="stable")]
                head = strict[np.lexsort((doc_ids[strict], key[strict]))]
                sel = np.concatenate([head, ties[:n - head.size]])
            else:
                sel = cand[np.lexsort((doc_ids[cand], key[cand]))]
        if sel.size < n and nan.any():
            # missing values last (sortMissingLast), id ascending
            tail = np.flatnonzero(nan)
            tail = tail[np.argsort(doc_ids[tail], kind="stable")]
            sel = np.concatenate([sel, tail[:n - sel.size]])
        return sel
    # multi-key (or non-numeric) sort: NaN/NaT/None read as nulls, which
    # sort last under every key (Solr sortMissingLast-ish); ascending
    # doc_id is the final tie-break
    t = pa.table({f: pa.array(cols[f], from_pandas=True)
                  for f in {f for f, _ in keys} | {"doc_id"}})
    order = pc.sort_indices(
        t, sort_keys=[(f, "ascending" if asc else "descending")
                      for f, asc in keys] + [("doc_id", "ascending")],
        null_placement="at_end")
    return order.to_numpy()[:n]


def _range_sorted(engine: SearchEngine, query: str, sort: str, k: int,
                  fq) -> tuple:
    """A range's part of a distributed sorted browse: its sorted top k
    (``SearchEngine._sorted_hits``) as global ids, scores and the stored
    sort keys' values."""
    ids, scores = engine._sorted_hits(engine._prepare(query), sort, k, fq)
    keys = _sort_keys(sort, engine.stored_fields)
    return ids + engine._lo, scores, engine._sort_values(keys, ids)


def sorted_partitioned(index_dir: str, query: str, sort: str,
                       k: int = 10, fq=None) -> pa.Table:
    """Distributed field-sorted browse: each range ships its sorted top k
    (:func:`_range_sorted`, never the full match set), the driver merges
    with the engine's sort kernel (:func:`_sort_top`) — identical to
    ``SearchEngine.search(..., sort=...)`` (tested)."""
    _check_page(k)
    parts = _map_ranges(index_dir, _range_sorted, (query, sort, k, fq))
    ids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    values = {f: np.concatenate([p[2][f] for p in parts])
              for f in parts[0][2]}
    # the ranges checked the sort fields: the stored ones are shipped
    sel = _sort_top(_sort_keys(sort, values), ids, scores, values, k)
    return pa.table({"doc_id": pa.array(ids[sel], pa.int64()),
                     "score": pa.array(scores[sel], pa.float64())})


class BatchSearcher:
    """Actor-pool query stage: one ``SearchEngine`` per actor (index stats +
    norms loaded once in ``__init__``), scoring a batch of query strings per
    call.  The distributed query path: ``rd.from_items(queries).map_batches(
    BatchSearcher, fn_constructor_kwargs=..., concurrency=N)``.

    Reference analogue: one pysolr session per worker process, reused across
    requests (``solrindexer/indexer.py:83-88`` ST5).
    """

    def __init__(self, index_dir: str, k: int = 10):
        self.engine = SearchEngine(index_dir)
        self.engine.norms  # eager warm-up, once per actor
        self.k = k

    def __call__(self, batch: dict) -> pa.Table:
        queries, hits, top_doc, top_score = [], [], [], []
        for q in batch["query"]:
            q = str(q)
            t = self.engine.search(q, k=self.k, fl=["doc_id"])
            queries.append(q)
            hits.append(t.num_rows)
            top_doc.append(t["doc_id"][0].as_py() if t.num_rows else None)
            top_score.append(t["score"][0].as_py() if t.num_rows else None)
        return pa.table(
            {
                "query": pa.array(queries, pa.string()),
                "n_hits": pa.array(hits, pa.int32()),
                "top_doc_id": pa.array(top_doc, pa.int64()),
                "top_score": pa.array(top_score, pa.float64()),
            }
        )


