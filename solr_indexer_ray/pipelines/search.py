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
  in ascending-term order in *every* scorer (TAAT, BMW, oracle) so float64
  results are bit-identical across methods.

- ``method="taat"`` — vectorized term-at-a-time: a dense numpy score
  accumulator per doc range; the fast path (numpy kernels, no per-doc
  Python).  At 10^12-doc scale this runs per doc-range partition and the
  per-range top-k heaps k-way merge (the doc-range layout from the build
  makes that fan-out trivial).
- ``method="bmw"`` — document-at-a-time Block-Max WAND using the per-block
  ``(last_doc_id, max_tf, min_norm)`` metadata written at merge time; skips
  blocks whose upper bound cannot enter the current top-k (the north-star
  pruning path; validated rank-identical to TAAT in tests).

Term lookup reads only the postings parquet row groups whose stats may
contain the query terms (predicate pushdown on the ``term`` column).
"""

from __future__ import annotations

import bisect
import math
import os
import re

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
from solr_indexer_ray.functions.varint import (
    decode_doc_ids,
    decode_positions,
    varint_decode,
)
from solr_indexer_ray.state.manifest import BuildManifest

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
    columns parse numerics, strings compare raw.  Shared by the single
    engine and the per-range distributed tasks."""
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


def _rf_to_dict(rf) -> dict:
    return {"field": rf.field, "lo": rf.lo, "hi": rf.hi,
            "lo_incl": rf.lo_incl, "hi_incl": rf.hi_incl}


def _rf_from_dict(d) -> "RangeFilter":
    from solr_indexer_ray.functions.queryparse import RangeFilter

    return RangeFilter(d["field"], d["lo"], d["hi"],
                       lo_incl=bool(d["lo_incl"]),
                       hi_incl=bool(d["hi_incl"]))


def _sf_to_list(sf) -> list:
    return [sf.field, sf.op, sf.west, sf.east, sf.south, sf.north]


def _sf_from_list(v) -> "SpatialFilter":
    return SpatialFilter(str(v[0]), str(v[1]), float(v[2]), float(v[3]),
                         float(v[4]), float(v[5]))


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


def _one_array(col: pa.ChunkedArray) -> pa.Array:
    """``col`` as one contiguous array (zero-copy when it has one chunk):
    ``take`` on a many-chunk column pays per call what this pays once."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _select_topk(cand, s, k):
    """Exact top-k with (-score, doc_id) tie-break: find the k-th score,
    keep everything >= it (boundary ties resolved by doc_id, not by
    argpartition's arbitrary choice), then lexsort."""
    if k <= 0:  # Solr rows=0
        return []
    if cand.size > k:
        # ascending partition at n-k = k-th LARGEST without the
        # negated copy the (-s, k-1) form allocated per query
        kth = np.partition(s, s.size - k)[s.size - k]
        idx = np.flatnonzero(s >= kth)
        order = np.lexsort((cand[idx], -s[idx]))[:k]
        sel = idx[order]
    else:
        sel = np.lexsort((cand, -s))
    return [(int(cand[i]), float(s[i])) for i in sel]


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
    The single shared core of :func:`_phrase_freqs`,
    :func:`_phrase_keys_local` and ``SearchEngine._phrase_match_keys``
    (the three layouts differ only in how keys are built and how the
    surviving keys are reduced to freqs)."""
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
    :func:`_near_freqs`, :func:`_near_keys_local` and
    ``SearchEngine._near_match_keys``."""
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


def _decoded_key_streams(decoded, margin):
    """One-shot global key streams for range-local phrase matching.

    ``decoded`` maps term -> ``(doc_ids, tfs, positions_blob)``; returns
    ``(keys_by_term, stride)`` built straight from the delta cumsum
    (rebase = cumsum before segment start — no flat position stream is
    ever materialized), or None when int64 keys can't cover the range's
    id space (caller uses the segment matcher)."""
    from solr_indexer_ray.functions.varint import varint_cumsum

    parts = {}
    maxp = 0
    hi_id = 0
    for t, (ids, tfs, blob) in decoded.items():
        cs = varint_cumsum(blob)
        offs = np.cumsum(tfs, dtype=np.int64)
        starts = offs - tfs
        base = np.where(starts > 0, cs[np.maximum(starts - 1, 0)], 0)
        if cs.size:
            maxp = max(maxp, int((cs[offs - 1] - base).max()))
        if ids.size:
            hi_id = max(hi_id, int(ids[-1]))
        parts[t] = (cs, base)
    stride = maxp + margin
    if (hi_id + 1) * stride > (1 << 62):
        return None
    keys = {}
    for t, (ids, tfs, _blob) in decoded.items():
        cs, base = parts[t]
        np.add(
            cs,
            np.repeat(ids.astype(np.int64) * stride - base, tfs),
            out=cs,
        )
        keys[t] = cs
    return keys, stride


def _phrase_keys_local(decoded, phrase):
    """(docs, freqs) of an exact phrase from per-term range-local
    ``(ids, tfs, blob)`` — the one-shot form of the engine's global-key
    matcher.  None on int64 overflow."""
    out = _decoded_key_streams(decoded, len(phrase) + 2)
    if out is None:
        return None
    keys, stride = out
    return _run_lengths(_phrase_survivors(keys, phrase) // stride)


def _near_keys_local(decoded, terms, slop):
    """(docs, freqs) of an ordered span-near from per-term range-local
    ``(ids, tfs, blob)`` — greedy earliest-next chain over one-shot key
    streams (docs lacking a member term fail the same-doc check, so no
    doc-level pre-intersection is needed).  None on int64 overflow."""
    out = _decoded_key_streams(decoded, len(terms) + slop + 2)
    if out is None:
        return None
    keys, stride = out
    if len(terms) == 2:
        return _near2_from_keys(keys[terms[0]], keys[terms[1]],
                                slop, stride)
    surv = _chain_survivors(keys, terms, slop, keys[terms[0]], stride)
    return _run_lengths(surv // stride)


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


def _segments_local(decoded, terms, slop):
    """Range-local fallback matcher over per-term ``(ids, tfs, blob)``:
    doc-level conjunction, candidate position segments, then the exact
    (``slop is None``) or span-near matcher.  Only reached on int64 key
    overflow."""
    from solr_indexer_ray.functions.varint import decode_positions

    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    uniq = list(decoded)
    docs = decoded[uniq[0]][0]
    for t in uniq[1:]:
        docs = _sorted_intersect(docs, decoded[t][0])
        if docs.size == 0:
            return empty
    segments = {}
    for t in uniq:
        ids, tfs, blob = decoded[t]
        flat, offs = decode_positions(blob, tfs)
        ti = np.searchsorted(ids, docs)
        lengths = tfs[ti]
        seg_flat, _ = _gather_segments(flat, offs[ti], lengths)
        segments[t] = (seg_flat, lengths)
    if slop is None:
        return _phrase_freqs(docs, segments, terms)
    return _near_freqs(docs, segments, terms, slop)


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
    default is Lucene BM25; registry keyed by name.

    ``impact_monotone_in_tf`` declares that ``impact`` is nondecreasing in
    ``tf`` at fixed ``K`` — the same contract Lucene's impact/block-max
    machinery assumes of every Similarity.  The phrase/proximity top-k
    pruner relies on it (phrase tf is bounded by the member tfs, so a
    monotone impact yields a sound score upper bound); a custom model
    whose impact can DECREASE as tf grows must set it False to keep
    rank-exact results (it then scores without pruning).
    """

    name = "bm25"
    impact_monotone_in_tf = True

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
    """Decoded posting list of one term (all doc ranges concatenated).

    ``score_vec`` memoizes the per-posting BM25 contribution
    ``idf · tf/(tf + K(norm))`` — valid for the lifetime of the index
    (N, avgdl, norms are immutable once committed), so repeated queries pay
    one fancy-indexed add per term instead of recomputing the norm math.
    """

    __slots__ = ("term", "df", "cf", "doc_ids", "tfs",
                 "block_last", "block_max_tf", "block_min_norm", "score_vec",
                 "block_ub_vec", "pos_flat", "pos_offsets", "pos_raw",
                 "lazy_decoded", "gkeys", "gkeys_stride", "maxpos",
                 "_ckparts")

    def __init__(self, term, df, cf, doc_ids, tfs,
                 block_last, block_max_tf, block_min_norm,
                 pos_flat=None, pos_offsets=None, pos_raw=None):
        self.term = term
        self.df = df
        self.cf = cf
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.block_last = block_last
        self.block_max_tf = block_max_tf
        self.block_min_norm = block_min_norm
        self.score_vec = None
        self.block_ub_vec = None  # per-block UB, memoized like score_vec
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
        for a in (self.block_last, self.block_max_tf,
                  self.block_min_norm, self.score_vec, self.block_ub_vec,
                  self.pos_flat, self.pos_offsets, self.gkeys):
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

class SearchEngine:
    """Read-side handle on a committed index directory.

    Loads small state eagerly (stats, norms) and postings lazily per query —
    the analogue of the reference's one-session-per-process Solr client
    (``solrindexer/indexer.py:83-88``); in Ray pipelines one engine instance
    lives per actor (built once in ``__init__``).

    Scale note: the dense norm/mask arrays are O(doc_id_space) bytes — fine
    for a per-node slice, not for 10^12 docs in one process.  At cluster
    scale queries run through the per-doc-range fan-out
    (:func:`search_partitioned` / :class:`RangeScorer`), whose state is
    range-local, or across per-node indexes via :func:`search_sharded`.
    """

    def __init__(self, index_dir: str, scoring="bm25", synonyms=None):
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
        self.stats = stats
        self.n_docs = int(stats["n_docs"])          # indexed (valid) docs
        #: size of the dense doc-id address space (>= n_docs when
        #: inline validation skipped rows but kept their id slots)
        self.doc_space = int(stats.get("doc_id_space", stats["n_docs"]))
        self.avgdl = float(stats["avgdl"])
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
        self._postings_ds = pads.dataset(
            os.path.join(self.index_dir, "postings"), partitioning="hive"
        )
        self._docs_ds = pads.dataset(os.path.join(self.index_dir, "docs"))
        self._drop_generation_state()
        self._tombstones = None     # set[int] or None
        self._overlays = None       # doc_id -> {col: value}
        self.term_cache_size = 1024
        #: byte budget for the decoded-postings cache — a count-only cap
        #: lets 1024 stop-word streams (8-9 B/occurrence with positions
        #: and key streams) blow a worker heap on a big shard; eviction
        #: drops the least-recently-used entries until under budget,
        #: never the current query's terms.  0 disables the byte cap.
        self.term_cache_bytes = 1 << 30
        #: wildcard-expansion cap (Lucene BooleanQuery.maxClauseCount)
        self.max_expansions = 1024
        self._mask_cache: dict = {}  # (filters, prohibited, n_tomb) -> mask
        self._fq_cache: dict = {}    # fq string -> exclusion mask (filterCache)
        self._fuzzy_cache: dict = {}  # (word, edits) -> expansion terms
        self._pattern_cache: dict = {}  # wildcard pattern -> expansion
        #: stride of the global phrase-key encoding (doc·stride + pos).
        #: Grows monotonically to the next power of two covering the
        #: longest position seen (+ query margin), so cached per-term key
        #: streams stay valid across queries once it stabilizes.
        self._gkey_stride = 0
        self._bmw_cell_cache: dict = {}  # terms tuple -> cell grid/offsets
        self._func_cols: dict = {}   # field -> dense float64 (bf/boost)
        self._geo_cache: dict = {}   # sfield -> dense lat/lon (or bbox)
        self._filter_fields = None   # dynamic filterable-column set

    # ------------------------------------------------------------------ #
    # small state
    # ------------------------------------------------------------------ #
    def _drop_generation_state(self) -> None:
        """Forget everything derived from one index generation's docs and
        postings tables (a commit can grow the doc-id space, so none of
        it may survive a generation change)."""
        self._norms = None          # doc_id -> norm byte (dense)
        self._present = None        # doc_id -> row exists in docs table
        #: dense doc_id -> docs-table row position (-1: no row)
        self._locator = None
        #: docs-table columns in table row order, read once per generation
        self._doc_cols: dict = {}
        self._field_norms: dict = {}  # analyzed field -> dense norm bytes
        self._dense_field_cache: dict = {}  # field -> dense sort keys
        self._field_codes_cache: dict = {}  # field -> factorized codes
        self._term_cache: dict = {}  # decoded TermPostings LRU (insertion order)
        self._df_cache: dict = {}    # term -> summed df (None: absent)
        self._dict_cache = None      # sorted term dictionary + dfs
        self._suggest_cache = None
        self._stored_fields = None

    @property
    def norms(self) -> np.ndarray:
        if self._norms is None:
            t = self._docs_ds.to_table(columns=["doc_id", "norm"])
            arr = np.zeros(self.doc_space, dtype=np.uint8)
            ids = t["doc_id"].to_numpy()
            arr[ids] = t["norm"].to_numpy()
            self._norms = arr
            present = np.zeros(self.doc_space, dtype=bool)
            present[ids] = True
            self._present = present
            locator = np.full(self.doc_space, -1, dtype=np.int64)
            locator[ids] = np.arange(ids.size, dtype=np.int64)
            self._locator = locator
            self._doc_cols = {c: _one_array(t[c]) for c in t.column_names}
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
            path = os.path.join(self.index_dir, "tombstones.parquet")
            if os.path.exists(path):
                import pyarrow.parquet as pq

                self._tombstones = set(
                    pq.read_table(path, columns=["doc_id"])["doc_id"].to_pylist()
                )
            else:
                self._tombstones = set()
        return self._tombstones

    def invalidate_caches(self) -> None:
        self._tombstones = None
        self._overlays = None
        self._mask_cache = {}
        self._fq_cache = {}
        self._fuzzy_cache = {}
        self._pattern_cache = {}
        self._bmw_cell_cache = {}
        self._func_cols = {}  # overlays (atomic updates) can move values
        self._geo_cache = {}

    def refresh(self) -> bool:
        """Reopen the searcher (Solr: openSearcher after a commit): re-read
        the committed stats and drop every cache if the index generation
        moved.  Returns True when a newer commit was picked up — the
        long-lived-actor pattern (BatchSearcher) calls this between
        batches instead of constructing a new engine."""
        new_stats = self.manifest.read_stats()
        if int(new_stats.get("generation", 1)) == int(
            self.stats.get("generation", 1)
        ) and new_stats.get("n_docs") == self.stats.get("n_docs"):
            return False
        self.stats = new_stats
        self.n_docs = int(new_stats["n_docs"])
        self.doc_space = int(new_stats.get("doc_id_space", self.n_docs))
        self.avgdl = float(new_stats["avgdl"])
        self._postings_ds = pads.dataset(
            os.path.join(self.index_dir, "postings"), partitioning="hive"
        )
        self._docs_ds = pads.dataset(os.path.join(self.index_dir, "docs"))
        self._drop_generation_state()
        self.invalidate_caches()
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

    def lookup_postings(self, terms, with_positions: bool = False) -> dict:
        """Fetch + decode postings for terms (predicate-pushdown read).

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
        cached = {
            t: self._term_cache[t]
            for t in terms
            if t in self._term_cache
            and not (
                with_positions
                and self._term_cache[t] is not None
                and self._term_cache[t].pos_flat is None
                and self._term_cache[t].pos_raw is None
            )
        }
        for t in cached:
            # LRU touch: re-accessed entries move to the recent end so
            # byte eviction drops genuinely cold streams first
            self._term_cache[t] = self._term_cache.pop(t)
        terms = [t for t in terms if t not in cached]
        if not terms:
            return {t: tp for t, tp in cached.items() if tp is not None}
        n_shards = int(self.stats["n_shards"])
        shards = sorted({term_shard(t, n_shards) for t in terms})
        # hive-partition pruning on shard + row-group stats on sorted terms
        cols = [
            "term", "range_id", "doc_ids", "tfs",
            "block_last", "block_max_tf", "block_min_norm",
        ]
        if with_positions:
            cols.append("positions")
        tbl = self._postings_ds.to_table(
            columns=cols,
            filter=pc.field("shard").isin(shards) & pc.field("term").isin(terms),
        )
        by_term: dict = {}
        term_l = tbl["term"].to_pylist()
        range_l = tbl["range_id"].to_pylist()
        docids_l = tbl["doc_ids"].to_pylist()
        tfsb_l = tbl["tfs"].to_pylist()
        bl_l = tbl["block_last"].to_pylist()
        bmt_l = tbl["block_max_tf"].to_pylist()
        bmn_l = tbl["block_min_norm"].to_pylist()
        pos_l = tbl["positions"].to_pylist() if with_positions else None
        for i in range(tbl.num_rows):
            tfs_i = varint_decode(tfsb_l[i]).astype(np.int64)
            row = [
                range_l[i],
                decode_doc_ids(docids_l[i]),
                tfs_i,
                np.asarray(bl_l[i], dtype=np.int64),
                np.asarray(bmt_l[i], dtype=np.int64),
                np.asarray(bmn_l[i], dtype=np.int64),
            ]
            if with_positions:
                # LAZY: keep the raw delta-varint blob; positions_for()
                # decodes only the candidate postings a phrase/near match
                # actually inspects (a common member term never pays an
                # O(total positions) decode).
                row.append(pos_l[i] or b"")
            by_term.setdefault(term_l[i], []).append(tuple(row))
        out = {}
        for term, rows in by_term.items():
            rows.sort(key=lambda r: r[0])  # doc-range order -> global order
            tfs = np.concatenate([r[2] for r in rows])
            pos_raw = None
            if with_positions:
                pos_raw = [
                    [len(r[2]), r[6], r[2], None] for r in rows
                ]
            out[term] = TermPostings(
                term,
                df=int(sum(len(r[1]) for r in rows)),
                cf=int(sum(int(r[2].sum()) for r in rows)),
                doc_ids=np.concatenate([r[1] for r in rows]),
                tfs=tfs,
                block_last=np.concatenate([r[3] for r in rows]),
                block_max_tf=np.concatenate([r[4] for r in rows]),
                block_min_norm=np.concatenate([r[5] for r in rows]),
                pos_raw=pos_raw,
            )
        # bounded decoded-postings cache (misses cached as None too);
        # pop-then-insert so a re-decode (positions upgrade) of an old
        # entry lands at the recent end like any other fresh entry
        for t in terms:
            self._term_cache.pop(t, None)
            self._term_cache[t] = out.get(t)
        while len(self._term_cache) > self.term_cache_size:
            self._term_cache.pop(next(iter(self._term_cache)))
        if self.term_cache_bytes:
            # byte-aware pass: evict cold entries until under budget,
            # keeping at least the current query's terms (just touched /
            # inserted, so they sit at the recent end)
            total = sum(
                tp.nbytes() for tp in self._term_cache.values()
                if tp is not None
            )
            floor = len(terms) + len(cached)
            while (total > self.term_cache_bytes
                   and len(self._term_cache) > floor):
                tp = self._term_cache.pop(next(iter(self._term_cache)))
                if tp is not None:
                    total -= tp.nbytes()
        out.update({t: tp for t, tp in cached.items() if tp is not None})
        return out

    def lookup_dfs(self, terms) -> dict:
        """Global df per term from the postings ``(term, df)`` columns
        ONLY — no posting-blob reads or varint decodes.  Sums the
        per-(term, doc-range) row counts, identical to
        ``lookup_postings(t).df`` (Lucene df: tombstones included until
        compact; absent terms absent from the dict, like a
        ``lookup_postings`` miss).  The distributed driver scout and the
        bigram phrase fast paths need exactly this: at corpus scale,
        reading a stop-word's doc_ids blob to learn its df is the
        difference between a metadata column scan and shipping the whole
        postings list to the driver."""
        out: dict = {}
        todo = []
        for t in sorted(set(terms)):
            if t in self._df_cache:
                df = self._df_cache[t]
                if df is not None:
                    out[t] = df
            elif t in self._term_cache:
                tp = self._term_cache[t]
                if tp is not None:
                    out[t] = int(tp.df)
            else:
                todo.append(t)
        if todo:
            n_shards = int(self.stats["n_shards"])
            shards = sorted({term_shard(t, n_shards) for t in todo})
            tbl = self._postings_ds.to_table(
                columns=["term", "df"],
                filter=pc.field("shard").isin(shards)
                & pc.field("term").isin(todo),
            )
            agg = pa.TableGroupBy(tbl, "term").aggregate([("df", "sum")])
            got = dict(zip(agg["term"].to_pylist(),
                           agg["df_sum"].to_pylist()))
            for t in todo:  # misses cached as None too
                df = got.get(t)
                self._df_cache[t] = int(df) if df is not None else None
                if df is not None:
                    out[t] = int(df)
            while len(self._df_cache) > self.term_cache_size * 4:
                self._df_cache.pop(next(iter(self._df_cache)))
        return out

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
        the matching slice is materialized as Python strings."""
        sl, _arr, _lo = self._dict_slice(prefix)
        if len(sl) > self.max_expansions:
            # Lucene: TooManyClauses beyond maxClauseCount
            raise ValueError(
                f"wildcard {prefix}* expands to {len(sl)} terms "
                f"(> max_expansions={self.max_expansions})"
            )
        return sl.to_pylist()

    def eval_prefix(self, prefix: str) -> np.ndarray:
        """Docs containing ANY expansion of ``prefix*`` (constant-score:
        each matching doc scores 1.0 for the clause, the Solr/Lucene
        default multi-term rewrite)."""
        terms = self.expand_prefix(prefix)
        if not terms:
            return np.empty(0, np.int64)
        postings = self.lookup_postings(terms)
        if not postings:
            return np.empty(0, np.int64)
        return self._union_doc_ids(list(postings.values()))

    def expand_pattern(self, pattern: str) -> list:
        """Dictionary terms matching a general wildcard (``*`` / ``?``
        anywhere) or a ``/regex/`` clause (Lucene RegexpQuery).  The
        literal prefix before the first metacharacter bisects the cached
        sorted term dictionary (same as :meth:`expand_prefix` — no
        per-query parquet scan); the pattern itself runs as a vectorized
        kernel over the surviving slice (``pc.match_like`` for wildcards,
        anchored ``pc.match_substring_regex`` — RE2, the same engine DuckDB
        uses, so the SQL oracle agrees bit-for-bit — for regexes)."""
        hit = self._pattern_cache.get(pattern)
        if hit is not None:
            return hit
        if pattern.startswith("/") and pattern.endswith("/") and len(pattern) > 2:
            inner = pattern[1:-1]
            # literal prefix: leading word chars not consumed by a
            # quantifier on the last one (/abc*/ -> literal "ab")
            lit = re.match(r"^[A-Za-z0-9_]*", inner).group(0)
            if lit and len(lit) < len(inner) and inner[len(lit)] in "*+?{":
                lit = lit[:-1]
            terms, _, _ = self._dict_slice(lit)
            mask = pc.match_substring_regex(terms, f"^(?:{inner})$")
            out = sorted(terms.filter(mask).to_pylist())
            if len(out) > self.max_expansions:
                raise ValueError(
                    f"regex {pattern} expands to {len(out)} terms "
                    f"(> max_expansions={self.max_expansions})"
                )
            if len(self._pattern_cache) > 1024:
                self._pattern_cache.clear()
            self._pattern_cache[pattern] = out
            return out
        lit = re.match(r"^[^*?]*", pattern).group(0)
        terms, _, _ = self._dict_slice(lit)
        like = (
            pattern.replace("\\", "\\\\").replace("%", "\\%")
            .replace("_", "\\_").replace("*", "%").replace("?", "_")
        )
        out = sorted(terms.filter(pc.match_like(terms, like)).to_pylist())
        if len(out) > self.max_expansions:
            raise ValueError(
                f"wildcard {pattern} expands to {len(out)} terms "
                f"(> max_expansions={self.max_expansions})"
            )
        if len(self._pattern_cache) > 1024:
            self._pattern_cache.clear()
        self._pattern_cache[pattern] = out
        return out

    def eval_pattern(self, pattern: str) -> np.ndarray:
        """Docs containing ANY expansion of a general wildcard pattern
        (constant-score, like :meth:`eval_prefix`)."""
        terms = self.expand_pattern(pattern)
        if not terms:
            return np.empty(0, np.int64)
        postings = self.lookup_postings(terms)
        if not postings:
            return np.empty(0, np.int64)
        return self._union_doc_ids(list(postings.values()))

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
        matches at distance 0).  Shares the spellcheck suggester's
        sorted-trie automaton walk (:func:`_fuzzy_scan`), memoized per
        (word, edits)."""
        word = (word or "").lower()
        key = (word, max_edits)
        hit = self._fuzzy_cache.get(key)
        if hit is not None:
            return hit
        terms, _dfs = self._suggest_state()
        out = [terms[i] for i, _d in _fuzzy_scan(word, terms, max_edits)]
        if len(out) > self.max_expansions:
            raise ValueError(
                f"fuzzy {word}~{max_edits} expands to {len(out)} terms "
                f"(> max_expansions={self.max_expansions})"
            )
        if len(self._fuzzy_cache) > 1024:
            self._fuzzy_cache.clear()
        self._fuzzy_cache[key] = out
        return out

    def _fuzzy_group(self, word: str, edits: int):
        """Blended stats for a fuzzy clause (Lucene
        TopTermsBlendedFreqScoringRewrite ~ SynonymQuery): union doc ids,
        per-doc tf = SUM over expansion members, df = MAX over members.
        Returns (None, None, 0) when nothing matches."""
        members = self.expand_fuzzy(word, edits)
        if not members:
            return None, None, 0
        postings = self.lookup_postings(members)
        tps = [postings[m] for m in members if m in postings]
        if not tps:
            return None, None, 0
        acc = np.zeros(self.doc_space, dtype=np.int64)
        for tp in tps:
            acc[tp.doc_ids] += tp.tfs
        docs = np.flatnonzero(acc)
        return docs, acc[docs], max(tp.df for tp in tps)

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
            w = float(sum(self.idf(dfs[t]) for t in phrase))
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
            w = float(sum(self.idf(dfs[t]) for t in phrase))
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
        w = float(sum(self.idf(postings[t].df) for t in phrase))
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
        w = float(sum(self.idf(postings[t].df) for t in terms))
        out = self._near_match_keys(terms, slop, postings)
        if out is None:
            out = self._near_match_segments(terms, slop, postings)
        return out[0], out[1], w

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def idf(self, df: int) -> float:
        return self.scoring.idf(self.n_docs, df)

    def _norm_factor(self, norm_bytes: np.ndarray) -> np.ndarray:
        """K(d) = k1 * (1 - b + b * decoded_dl / avgdl) as float64."""
        dl = DECODE_TABLE[norm_bytes]
        return self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)

    # -- per-field scoring (extra analyzed fields) --------------------- #
    def field_norms(self, fld: str) -> np.ndarray:
        """Dense doc_id -> SmallFloat norm byte for one analyzed field
        (the ``norm_<field>`` docs column)."""
        if fld not in self._field_norms:
            t = self._docs_ds.to_table(columns=["doc_id", f"norm_{fld}"])
            arr = np.zeros(self.doc_space, dtype=np.uint8)
            arr[t["doc_id"].to_numpy()] = t[f"norm_{fld}"].to_numpy()
            self._field_norms[fld] = arr
        return self._field_norms[fld]

    def _fstat(self, fld: str) -> tuple:
        """(docCount, avgdl) of an analyzed field (Lucene per-field
        collection stats)."""
        s = (self.stats.get("field_stats") or {}).get(fld)
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
            doc_count, avgdl = self._fstat(fld)
            w = self.scoring.idf(doc_count, tp.df)
            dl = DECODE_TABLE[self.field_norms(fld)[tp.doc_ids]]
            K = self.k1 * (1.0 - self.b + self.b * dl / avgdl)
            tp.score_vec = w * self.scoring.impact(tp.tfs, K)
        return tp.score_vec

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
            sum(self.scoring.idf(doc_count, postings[p].df) for p in pref)
        )
        out = self._phrase_match_keys(pref, postings)
        if out is None:
            out = self._phrase_match_segments(pref, postings)
        return out[0], out[1], w

    def _excluded_mask(self, parsed: ParsedQuery) -> np.ndarray | None:
        """Boolean mask of docs excluded by filters/prohibitions/tombstones.

        Memoized per (filters, prohibited, tombstone-count) — metadata
        filters repeat across queries and the mask build reads the docs
        table, which should happen once per distinct filter, not per query.
        """
        key = (
            tuple(sorted(parsed.filters.items())),
            tuple(sorted(parsed.neg_filters.items())),
            tuple(parsed.range_filters),
            tuple(parsed.neg_range_filters),
            tuple(parsed.spatial_filters),
            tuple(parsed.neg_spatial_filters),
            tuple(sorted(set(parsed.prohibited))),
            tuple(sorted(map(tuple, parsed.prohibited_phrases))),
            tuple(sorted(set(parsed.prohibited_prefixes))),
            tuple(sorted(set(parsed.prohibited_fuzzies))),
            tuple(sorted(set(parsed.prohibited_wildcards))),
            tuple(sorted(set(parsed.prohibited_near))),
            tuple(sorted(set(parsed.prohibited_field_terms))),
            tuple(sorted(set(parsed.prohibited_field_phrases))),
            len(self.tombstones),
        )
        if key in self._mask_cache:
            return self._mask_cache[key]
        mask = self._build_excluded_mask(parsed)
        if len(self._mask_cache) > 256:
            self._mask_cache.clear()
        self._mask_cache[key] = mask
        return mask

    def _build_excluded_mask(self, parsed: ParsedQuery) -> np.ndarray | None:
        mask = None

        def ensure():
            nonlocal mask
            if mask is None:
                mask = np.zeros(self.doc_space, dtype=bool)
            return mask

        if self.tombstones:
            m = ensure()
            m[np.fromiter(self.tombstones, dtype=np.int64)] = True
        if parsed.prohibited:
            for tp in self.lookup_postings(parsed.prohibited).values():
                ensure()[tp.doc_ids] = True
        for ph in parsed.prohibited_phrases:
            docs, _, _ = self.eval_phrase(ph)
            if docs.size:
                ensure()[docs] = True
        for pre in parsed.prohibited_prefixes:
            docs = self.eval_prefix(pre)
            if docs.size:
                ensure()[docs] = True
        for word, edits in parsed.prohibited_fuzzies:
            members = self.expand_fuzzy(word, edits)
            for tp in self.lookup_postings(members).values():
                ensure()[tp.doc_ids] = True
        for pat in parsed.prohibited_wildcards:
            docs = self.eval_pattern(pat)
            if docs.size:
                ensure()[docs] = True
        for fld, term in parsed.prohibited_field_terms:
            tp = self.field_term_postings(fld, term)
            if tp is not None:
                ensure()[tp.doc_ids] = True
        for fld, ph in parsed.prohibited_field_phrases:
            docs, _, _ = self.eval_field_phrase(fld, list(ph))
            if docs.size:
                ensure()[docs] = True
        for np_clause in parsed.prohibited_near:
            docs, _, _ = self.eval_near(*np_clause)
            if docs.size:
                ensure()[docs] = True
        if parsed.filters:
            t = self._docs_ds.to_table(
                columns=["doc_id"], filter=~self._filters_expr(parsed.filters)
            )
            ensure()[t["doc_id"].to_numpy()] = True
        for fld, val in parsed.neg_filters.items():
            t = self._docs_ds.to_table(
                columns=["doc_id"], filter=self._filter_value_expr(fld, val)
            )
            ensure()[t["doc_id"].to_numpy()] = True
        for rf in parsed.range_filters:
            t = self._docs_ds.to_table(
                columns=["doc_id"], filter=~self._range_expr(rf)
            )
            ensure()[t["doc_id"].to_numpy()] = True
        for rf in parsed.neg_range_filters:
            t = self._docs_ds.to_table(
                columns=["doc_id"], filter=self._range_expr(rf)
            )
            ensure()[t["doc_id"].to_numpy()] = True
        for sf in parsed.spatial_filters:
            self._spatial_expr(sf)  # column validation
            t = self._docs_ds.to_table(
                columns=["doc_id"], filter=_spatial_nonmatch_expr(sf)
            )
            ensure()[t["doc_id"].to_numpy()] = True
        for sf in parsed.neg_spatial_filters:
            t = self._docs_ds.to_table(
                columns=["doc_id"], filter=self._spatial_expr(sf)
            )
            ensure()[t["doc_id"].to_numpy()] = True
        return mask

    def _spatial_expr(self, sf):
        """Validated pyarrow scan expression for one envelope predicate
        against this index's stored bbox columns."""
        schema_names = set(self._docs_ds.schema.names)
        cols = [f"{sf.field}_{p}" for p in ("west", "east", "south", "north")]
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

    @classmethod
    def _filters_expr(cls, filters: dict):
        expr = None
        for fld, val in filters.items():
            e = cls._filter_value_expr(fld, val)
            expr = e if expr is None else expr & e
        return expr

    def search(
        self,
        query: str,
        k: int = 10,
        fl=None,
        method: str = "taat",
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
        ``mm`` is Solr (e)dismax minimum-should-match (int / ``"-1"`` /
        ``"75%"`` / conditional ``"2<-25% 9<-3"`` — see
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
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        fq, _collapse = _extract_collapse_fq(fq)
        if _collapse is not None:
            field, npol = _collapse
            if sort is not None or search_after is not None or hl:
                raise ValueError(
                    "{!collapse} composes with relevance ranking only "
                    "(no sort/search_after/hl)"
                )
            # pass only non-default rank params through: an empty
            # search_kwargs lets collapse_search take the unranked
            # _full_match_arrays fast path instead of a full top-k sort
            extra = {
                kk: vv for kk, vv in dict(
                    qf=qf, mm=mm, pf=pf, pf2=pf2, pf3=pf3,
                    bf=bf, boost=boost, bq=bq,
                ).items() if vv is not None
            }
            if ps:  # proximity slop: default 0
                extra["ps"] = ps
            if tie:
                extra["tie"] = tie
            if method != "taat":
                extra["method"] = method
            heads = self.collapse_search(
                query, field, k=start + k, fq=fq, null_policy=npol,
                **extra,
            )
            hits = list(zip(heads["doc_id"].to_pylist(),
                            heads["score"].to_pylist()))[start:start + k]
            return self._resolve(hits, fl)
        if (_JOIN_Q_RE.match(query or "")
                or _GEO_Q_RE.match(query or "")
                or _INTERSECTS_Q_RE.match(query or "")
                or _BLOCKJOIN_Q_RE.match(query or "")):
            # Solr {!join} / {!geofilt} / {!bbox} / {!intersects} /
            # {!parent} / {!child} as the main query: constant-score
            # matches, ascending doc id
            if (any(x is not None for x in (sort, search_after, qf, mm,
                                            pf, pf2, pf3, bf, boost, bq))
                    or hl or ps):
                raise ValueError(
                    "filter directives as the main query are "
                    "constant-score; only k/fl/start/fq compose with them"
                )
            ids = self.match_ids(query)
            fqm = self._merge_fq_mask(None, fq)
            if fqm is not None and ids.size:
                ids = ids[~fqm[ids]]
            hits = [(int(d), 1.0) for d in ids[start:start + k]]
            return self._resolve(hits, fl)
        if qf is not None and (sort is not None or start or search_after):
            raise ValueError("qf composes with relevance ranking only")
        if mm is not None and sort is not None:
            raise ValueError("mm composes with relevance ranking only")
        has_pf = pf or pf2 or pf3
        if has_pf and sort is not None:
            raise ValueError("pf composes with relevance ranking only")
        if has_pf and has_group_syntax(query or ""):
            raise ValueError(
                "pf is a dismax/edismax parameter; use explicit phrase "
                "clauses inside grouped boolean queries"
            )
        has_func = bf is not None or boost is not None
        if (has_func or bq is not None) and sort is not None:
            raise ValueError(
                "bf/boost/bq compose with relevance ranking only"
            )
        if (has_func or bq is not None) and has_group_syntax(query or ""):
            raise ValueError(
                "bf/boost/bq are dismax/edismax parameters; not supported "
                "with grouped boolean queries"
            )
        if search_after is not None:
            if sort is not None or start:
                raise ValueError(
                    "search_after composes with relevance ranking only "
                    "(no sort/start)"
                )
            return self._search_after(query, k, fl, method, fq,
                                      search_after, hl, mm=mm,
                                      pf=pf, ps=ps, pf2=pf2, pf3=pf3,
                                      bf=bf, boost=boost, bq=bq)
        parsed = self._parse(query)
        free_seq = list(parsed.terms)  # pf sequence, before qf rewrites
        if qf is not None:
            parsed = self._apply_qf(parsed, qf, tie)
        if mm is not None:
            self._apply_mm(parsed, query, mm)
        if has_pf:
            self._apply_pf(parsed, free_seq, pf, ps, pf2, pf3)
        if has_func:
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
        if sort is not None:
            t = self._search_sorted(parsed, query, k, fl, sort, start, fq=fq)
        elif start:
            deep = self.search(query, k=start + k, fl=["doc_id"],
                               method=method, fq=fq, mm=mm,
                               pf=pf, ps=ps, pf2=pf2, pf3=pf3,
                               bf=bf, boost=boost, bq=bq)
            hits = list(
                zip(deep["doc_id"].to_pylist(), deep["score"].to_pylist())
            )[start:]
            t = self._resolve(hits, fl)
        else:
            ast = (
                self._parse_bool(query)
                if has_group_syntax(query or "") else None
            )
            if ast is not None:
                # parenthesized boolean grouping: clause-tree evaluation
                hits = self._score_ast(ast, fq, k)
                if query in self.elevate:
                    hits = self._apply_elevation(query, hits, k)
                t = self._resolve(hits, fl)
                return self._add_highlights(parsed, t, hl) if hl else t
            want = list(parsed.terms)
            if self.synonyms:
                for t_ in parsed.terms:
                    want += self.synonyms.get(t_, [])
                if any(t_ in self.synonyms for t_ in parsed.terms):
                    method = "taat"  # synonym groups score TAAT
            postings = self.lookup_postings(want)
            excluded = self._merge_fq_mask(self._excluded_mask(parsed), fq)

            if parsed.scoring_clauses == 0:
                # no scoring clause (match-all / pure-filter query):
                # filter match, score 0, doc_id order
                hits = self._match_all(parsed, excluded, k)
            elif method == "bmw" and parsed.min_should <= 1 and not (
                parsed.phrases or parsed.prefixes
                or parsed.fuzzies or parsed.wildcards
                or parsed.near_phrases
                or parsed.field_terms or parsed.dismax
                or parsed.field_phrases or parsed.boost_phrases
                or parsed.boost_funcs or parsed.mult_funcs
                or parsed.boost_queries
            ):
                hits = self._score_bmw(parsed, postings, excluded, k)
            else:
                # phrase/prefix/fuzzy/wildcard clauses always score TAAT
                # (positional intersection / constant-score unions /
                # blended groups have no block-max bound); rank-identical
                # to BMW for pure-term queries (tested)
                hits = self._score_taat(parsed, postings, excluded, k)
            if query in self.elevate:
                hits = self._apply_elevation(query, hits, k)
            t = self._resolve(hits, fl)
        return self._add_highlights(parsed, t, hl) if hl else t

    def _full_match_arrays(self, query: str, fq=None):
        """``(ids, scores)`` of a plain query's FULL match set, UNRANKED
        — the value source for grouping/collapsing, which re-order
        themselves (skips ``_select_topk``'s full sort + tuple list +
        ``_resolve`` round-trip).  Returns None for query shapes with
        their own pipelines (grouped boolean, filter directives,
        match-all, elevation) — callers fall back to ``search()``.
        Scores are bit-identical to the ranked path (same
        ``_match_score_arrays`` under ``_score_taat``)."""
        if has_group_syntax(query or ""):
            return None
        if (_JOIN_Q_RE.match(query or "")
                or _GEO_Q_RE.match(query or "")
                or _INTERSECTS_Q_RE.match(query or "")
                or _BLOCKJOIN_Q_RE.match(query or "")):
            return None
        if query in self.elevate:
            return None
        parsed = self._parse(query)
        if parsed.scoring_clauses == 0:
            return None
        want = list(parsed.terms)
        if self.synonyms:
            for t_ in parsed.terms:
                want += self.synonyms.get(t_, [])
        postings = self.lookup_postings(want)
        excluded = self._merge_fq_mask(self._excluded_mask(parsed), fq)
        arrays = self._match_score_arrays(parsed, postings, excluded)
        if arrays is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return arrays

    def _apply_mm(self, parsed: ParsedQuery, query: str, mm) -> None:
        """Resolve + attach Solr ``mm`` to a freshly-parsed query.

        ``mm`` governs the OPTIONAL clauses of a dismax main query; with
        ``AND`` every clause is already required and Solr's lucene parser
        ignores ``mm``, so both are rejected explicitly here instead of
        silently doing nothing."""
        if parsed.conjunctive:
            raise ValueError(
                "mm applies to optional (OR) clauses; AND already "
                "requires every clause"
            )
        if has_group_syntax(query or ""):
            raise ValueError(
                "mm is a dismax/edismax parameter; grouped boolean "
                "queries express their own required counts"
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
            for part in spec.split():
                name, _, b = part.partition("^")
                boost = float(b) if b else 1.0
                if name != "content" and name not in self.scored_fields:
                    raise ValueError(
                        f"pf field {name!r} is not analyzed in this index "
                        f"(have: content, {', '.join(self.scored_fields)})"
                    )
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

        fpairs = []
        for part in qf.split():
            name, _, b = part.partition("^")
            if name != "content" and name not in self.scored_fields:
                raise ValueError(
                    f"qf field {name!r} is not analyzed in this index "
                    f"(have: content, {', '.join(self.scored_fields)})"
                )
            fpairs.append((name, float(b) if b else 1.0))
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

    def _apply_elevation(self, query, hits, k):
        """Solr QueryElevationComponent: pinned ids first (editorial
        order, organic score kept, 0.0 when unmatched), organic hits
        follow minus the pinned ones."""
        organic = {d: s for d, s in hits}
        head = []
        for d in self.elevate[query]:
            d = int(d)
            if d in self.tombstones or d < 0 or d >= self.doc_space:
                continue
            if not self.present[d]:
                continue
            head.append((d, organic.get(d, 0.0)))
        pinned = {d for d, _ in head}
        tail = [(d, s) for d, s in hits if d not in pinned]
        return (head + tail)[:k]

    def _merge_fq_mask(self, excluded, fq):
        """OR the filter-query exclusion masks into ``excluded``.

        Each distinct fq string computes its match set ONCE and caches the
        inverse as a dense exclusion mask (Solr filterCache: filters are
        evaluated independently of the main query and reused)."""
        if not fq:
            return excluded
        fqs = [fq] if isinstance(fq, str) else list(fq)
        for f in fqs:
            m = self._fq_cache.get(f)
            if m is None:
                member = np.zeros(self.doc_space, dtype=bool)
                member[self.match_ids(f)] = True
                m = ~member
                if len(self._fq_cache) > 256:
                    self._fq_cache.clear()
                self._fq_cache[f] = m
            excluded = m.copy() if excluded is None else (excluded | m)
        return excluded

    def _add_highlights(self, parsed: ParsedQuery, t: pa.Table,
                        opts=None) -> pa.Table:
        """Append an ``hl`` snippet column (Solr highlighting, best-effort):
        a window around each of the first ``hl.snippets`` query-term
        occurrences (default 1, ~``hl.fragsize`` chars, default 160)
        with all occurrences wrapped in ``hl.tag.pre``/``post``
        (``<em>`` Solr defaults); multiple snippets join with ``" … "``.
        Matching is case-insensitive on the raw stored content; docs
        with no literal occurrence (e.g. matched via
        identifier-splitting) get null."""
        import re

        opts = opts if isinstance(opts, dict) else {}
        fragsize = max(1, int(opts.get("fragsize", 160)))
        n_snip = max(1, int(opts.get("snippets", 1)))
        pre = str(opts.get("pre", "<em>"))
        post = str(opts.get("post", "</em>"))

        words = set(parsed.terms) | {
            w for ph in parsed.phrases for w in ph
        } | {
            w for ph, _ in parsed.near_phrases for w in ph
        } | set(parsed.prefixes)
        for word, edits in parsed.fuzzies:  # expansion terms highlight
            words.update(self.expand_fuzzy(word, edits))
        alts = [
            re.escape(w) + (r"\w*" if w in parsed.prefixes else "")
            for w in sorted(words, key=len, reverse=True)
        ]
        for wc in parsed.wildcards:  # * -> \w*, ? -> \w
            if wc.startswith("/") and wc.endswith("/") and len(wc) > 2:
                try:  # regex clause: highlight the pattern itself
                    re.compile(wc[1:-1])
                    alts.append(f"(?:{wc[1:-1]})")
                except re.error:
                    pass  # RE2-only syntax: skip highlight for the clause
                continue
            alts.append(
                re.escape(wc).replace(r"\*", r"\w*").replace(r"\?", r"\w")
            )
        if not alts or t.num_rows == 0:
            return t.append_column(
                "hl", pa.array([None] * t.num_rows, pa.string())
            )
        pat = re.compile("|".join(alts), re.IGNORECASE)
        ids = t["doc_id"].to_pylist()
        ct = self._docs_ds.to_table(
            columns=["doc_id", "content"],
            filter=pc.field("doc_id").isin(ids),
        )
        content = dict(zip(ct["doc_id"].to_pylist(), ct["content"].to_pylist()))
        snippets = []
        lead = max(0, (fragsize * 3) // 8)
        for d in ids:
            text = content.get(d) or ""
            frags = []
            pos = 0
            prev_hi = 0
            while len(frags) < n_snip:
                m = pat.search(text, pos)
                if not m:
                    break
                # fragments stay disjoint (clamp at the previous end)
                # and always cover the full triggering match, even when
                # fragsize is smaller than the matched term
                lo = max(prev_hi, 0, m.start() - lead)
                hi = min(len(text), max(lo + fragsize, m.end()))
                frags.append(pat.sub(
                    lambda mm: f"{pre}{mm.group(0)}{post}", text[lo:hi]
                ))
                prev_hi = hi
                pos = max(hi, m.end())
            snippets.append(" … ".join(frags) if frags else None)
        return t.append_column("hl", pa.array(snippets, pa.string()))

    def _search_sorted(self, parsed, query, k, fl, sort, start: int = 0,
                       fq=None):
        """Field-sorted retrieval (Solr ``sort=f1 desc, f2 asc``): rank the
        FULL match set by the sort keys instead of relevance.  ``score`` as
        a sort key uses the BM25 score; other keys read the stored fields
        of the matched docs only (at cluster scale this is a per-range
        top-k + k-way merge, same layout as ``search_partitioned``)."""
        keys = []
        for part in sort.split(","):
            toks = part.split()
            if not toks:
                continue
            fld = toks[0]
            order = toks[1].lower() if len(toks) > 1 else "asc"
            if order not in ("asc", "desc"):
                raise ValueError(f"bad sort direction {order!r} in {sort!r}")
            if fld != "score" and fld != "doc_id" and fld not in self.stored_fields:
                raise ValueError(f"cannot sort on unknown field {fld!r}")
            keys.append((fld, order == "asc"))
        if not keys:
            raise ValueError(f"empty sort spec {sort!r}")

        # full match set with scores (score may itself be a sort key);
        # the unranked arrays skip the ranked path's full top-k sort +
        # Python tuple materialization
        arrays = self._full_match_arrays(query, fq=fq)
        if arrays is not None:
            doc_ids, scores = arrays
        else:
            full = self.search(query, k=self.doc_space, fl=["doc_id"],
                               fq=fq)
            doc_ids = full["doc_id"].to_numpy()
            scores = full["score"].to_numpy()
        if doc_ids.size == 0:
            return self._resolve([], fl)
        if len(keys) == 1:
            # single-key numeric sort: O(n) partition top-(start+k) with
            # doc-id tie resolution instead of a full mergesort of the
            # match set (the common browse shape — k ≪ matches)
            f, asc = keys[0]
            col = (scores if f == "score"
                   else doc_ids if f == "doc_id"
                   else self._dense_field(f))
            # dtype inspected BEFORE any gather so non-numeric sorts
            # (dates, strings) don't pay a wasted match-set gather
            if getattr(col, "dtype", None) is not None \
                    and col.dtype.kind in "bif":
                vals = col if col is scores or col is doc_ids \
                    else col[doc_ids]
                # int keys stay int64 (no 2^53 float precision loss);
                # uint is excluded (order reversal would wrap)
                key = np.asarray(
                    vals,
                    dtype=np.float64 if vals.dtype.kind == "f"
                    else np.int64,
                )
                if not asc:
                    # ints reverse via bitwise NOT (monotone decreasing,
                    # int64 min safe); floats via negation
                    key = -key if key.dtype.kind == "f" else ~key
                nan = (np.isnan(key) if key.dtype.kind == "f"
                       else np.zeros(key.size, dtype=bool))
                cand = np.flatnonzero(~nan)
                need = start + k
                sel = np.empty(0, np.int64)
                if cand.size and need:
                    if cand.size > need:
                        part = cand[np.argpartition(key[cand],
                                                    need - 1)[:need]]
                        kv = key[part].max()
                        strict = cand[key[cand] < kv]
                        ties = cand[key[cand] == kv]
                        ties = ties[np.argsort(doc_ids[ties],
                                               kind="stable")]
                        head = strict[np.lexsort((doc_ids[strict],
                                                  key[strict]))]
                        sel = np.concatenate(
                            [head, ties[:need - head.size]]
                        )
                    else:
                        sel = cand[np.lexsort((doc_ids[cand], key[cand]))]
                if sel.size < need and nan.any():
                    # missing values last (sortMissingLast), id ascending
                    tail = np.flatnonzero(nan)
                    tail = tail[np.argsort(doc_ids[tail], kind="stable")]
                    sel = np.concatenate([sel, tail[:need - sel.size]])
                sel = sel[start:start + k]
                return self._resolve(
                    list(zip(doc_ids[sel].tolist(),
                             scores[sel].tolist())), fl
                )
        import pandas as pd

        df = pd.DataFrame({"doc_id": doc_ids, "score": scores})
        for f in {f for f, _ in keys if f not in ("score", "doc_id")}:
            # cached dense per-doc column (docValues analogue): one
            # gather per query instead of a hash join
            df[f] = self._dense_field(f)[doc_ids]
        # vectorized multi-key sort; NaN/None always last (Solr
        # sortMissingLast-ish), ascending doc_id as the final tie-break
        df = df.sort_values(
            [f for f, _ in keys] + ["doc_id"],
            ascending=[asc for _, asc in keys] + [True],
            kind="mergesort",
            na_position="last",
        ).iloc[start:start + k]
        return self._resolve(
            list(zip(df["doc_id"].tolist(), df["score"].tolist())), fl
        )

    def _match_all(self, parsed, excluded, k):
        expr = self._filters_expr(parsed.filters) if parsed.filters else None
        for rf in parsed.range_filters:
            e = self._range_expr(rf)
            expr = e if expr is None else expr & e
        for sf in parsed.spatial_filters:
            e = self._spatial_expr(sf)
            expr = e if expr is None else expr & e
        t = self._docs_ds.to_table(columns=["doc_id"], filter=expr)
        ids = np.sort(t["doc_id"].to_numpy())
        if excluded is not None:
            ids = ids[~excluded[ids]]
        return [(int(i), 0.0) for i in ids[:k]]

    def _term_score_vec(self, tp: TermPostings) -> np.ndarray:
        if tp.score_vec is None:
            w = self.idf(tp.df)
            K = self._norm_factor(self.norms[tp.doc_ids])
            tp.score_vec = w * self.scoring.impact(tp.tfs, K)
        return tp.score_vec

    def _accumulate(self, parsed, postings, scores, seen):
        """Add every positive scoring clause's contribution into ``scores``
        (bumping ``seen`` per clause when provided); returns the number of
        clauses present in the index.  Clause order is PINNED (terms asc,
        fuzzies asc, phrases asc, prefixes asc, wildcards asc): float64
        summation order is part of the rank-identity contract across
        TAAT / BMW / distributed / oracle scorers."""
        n_present = 0
        syn = self.synonyms
        grouped = sorted(set(parsed.terms)) if syn else None
        term_iter = grouped if syn else sorted(postings)
        for term in term_iter:  # ascending order: pinned float order
            if syn and term in syn:
                docs, tfs, df = self._synonym_group(term, postings)
                if docs is None:
                    continue
                w = self.idf(df)
                b = parsed.boosts.get(term)
                if b is not None:
                    w *= b
                K = self._norm_factor(self.norms[docs])
                _scatter_add(scores, docs, w * self.scoring.impact(
                    tfs.astype(np.float64), K
                ))
                if seen is not None:
                    _scatter_add(seen, docs, 1)
                n_present += 1
                continue
            tp = postings.get(term)
            if tp is None:
                continue
            vec = self._term_score_vec(tp)
            b = parsed.boosts.get(term)  # query-time boost (term^2)
            _scatter_add(scores, tp.doc_ids,
                         vec if b is None else vec * b)
            if seen is not None:
                _scatter_add(seen, tp.doc_ids, 1)
            n_present += 1
        # fielded scored terms after plain terms (pinned float order):
        # per-field BM25 — field df/docCount/avgdl/norms (Lucene fielded
        # TermQuery over a second analyzed field)
        for ft in sorted(set(parsed.field_terms)):
            fld, term = ft
            tp = self.field_term_postings(fld, term)
            if tp is None:
                continue
            vec = self._field_score_vec(fld, tp)
            b = parsed.field_term_boosts.get(ft)
            scores[tp.doc_ids] += vec if b is None else vec * b
            if seen is not None:
                seen[tp.doc_ids] += 1
            n_present += 1
        # fielded phrases after fielded terms (pinned order): Lucene
        # fielded PhraseQuery — field idfs, field norms/avgdl
        for fp in sorted(set(parsed.field_phrases)):
            fld, ph = fp
            docs, freqs, w = self.eval_field_phrase(fld, list(ph))
            b = parsed.field_phrase_boosts.get(fp)
            if b is not None:
                w = w * b
            if docs.size:
                doc_count, avgdl_f = self._fstat(fld)
                dl = DECODE_TABLE[self.field_norms(fld)[docs]]
                K = self.k1 * (1.0 - self.b + self.b * dl / avgdl_f)
                scores[docs] += w * self.scoring.impact(
                    freqs.astype(np.float64), K
                )
                if seen is not None:
                    seen[docs] += 1
                n_present += 1
        # dismax groups after fielded terms: per doc the group contributes
        # max over its per-field scores + tie * (sum of the rest) — Solr
        # DisjunctionMaxQuery with tiebreaker
        for term, fpairs in parsed.dismax:
            tps = []
            for fld, fboost in fpairs:
                if fld == "content":
                    tp = postings.get(term) or self.lookup_postings(
                        [term]
                    ).get(term)
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
                continue
            tie = parsed.dismax_tie
            if len(tps) == 1:
                docs, contrib = tps[0][0].doc_ids, tps[0][1]
            else:
                # union-sized max/sum instead of doc_space-dense passes
                # (identical per-element float op order: scatter per
                # field in qf order, max, then + tie·(sum − max))
                docs = self._union_doc_ids([tp for tp, _ in tps])
                best = np.zeros(docs.size, dtype=np.float64)
                tot = (np.zeros(docs.size, dtype=np.float64)
                       if tie != 0.0 else None)
                buf = np.zeros(docs.size, dtype=np.float64)
                for tp, fvec in tps:
                    pos = np.searchsorted(docs, tp.doc_ids)
                    buf[:] = 0.0
                    buf[pos] = fvec
                    np.maximum(best, buf, out=best)
                    if tot is not None:
                        tot += buf
                contrib = (best if tie == 0.0
                           else best + tie * (tot - best))
            _scatter_add(scores, docs, contrib)
            if seen is not None:
                _scatter_add(seen, docs, 1)
            n_present += 1
        # fuzzy clauses after terms: blended SynonymQuery-stats groups
        for fz in sorted(set(parsed.fuzzies)):
            docs, tfs, df = self._fuzzy_group(*fz)
            if docs is None:
                continue
            w = self.idf(df)
            b = parsed.fuzzy_boosts.get(fz)
            if b is not None:
                w *= b
            K = self._norm_factor(self.norms[docs])
            scores[docs] += w * self.scoring.impact(tfs.astype(np.float64), K)
            if seen is not None:
                seen[docs] += 1
            n_present += 1
        # phrase clauses after terms, ascending by tuple: pinned float order
        for ph in sorted(map(tuple, parsed.phrases)):
            docs, freqs, w = self.eval_phrase(list(ph))
            b = parsed.phrase_boosts.get(ph)
            if b is not None:
                w = w * b
            if docs.size:
                K = self._norm_factor(self.norms[docs])
                scores[docs] += w * self.scoring.impact(
                    freqs.astype(np.float64), K
                )
                if seen is not None:
                    seen[docs] += 1
                n_present += 1
        # proximity clauses after phrases: span-near match, phrase scoring
        # (duplicates iterate like duplicate phrases — required-count parity)
        for np_clause in sorted(parsed.near_phrases):
            docs, freqs, w = self.eval_near(*np_clause)
            b = parsed.near_boosts.get(np_clause)
            if b is not None:
                w = w * b
            if docs.size:
                K = self._norm_factor(self.norms[docs])
                scores[docs] += w * self.scoring.impact(
                    freqs.astype(np.float64), K
                )
                if seen is not None:
                    seen[docs] += 1
                n_present += 1
        # prefix clauses last, ascending: constant score (1.0, or the
        # clause boost) per matching doc (Solr CONSTANT_SCORE rewrite)
        for pre in sorted(parsed.prefixes):
            docs = self.eval_prefix(pre)
            if docs.size:
                _scatter_add(scores, docs,
                             parsed.prefix_boosts.get(pre, 1.0))
                if seen is not None:
                    _scatter_add(seen, docs, 1)
                n_present += 1
        # general wildcards: same constant-score union as prefixes
        for pat in sorted(set(parsed.wildcards)):
            docs = self.eval_pattern(pat)
            if docs.size:
                _scatter_add(scores, docs,
                             parsed.wildcard_boosts.get(pat, 1.0))
                if seen is not None:
                    _scatter_add(seen, docs, 1)
                n_present += 1
        return n_present

    def func_column(self, field: str) -> np.ndarray:
        """Dense float64 doc-space array for a numeric/timestamp stored
        column — the function-query (``bf``/``boost``) value source.

        Missing values (null, or doc rows absent from the docs table)
        read as 0.0 — Solr's default for absent numeric DocValues.
        Timestamp columns evaluate as epoch MILLISECONDS (the ``ms()``
        convention).  Atomic-update overlays are applied, so function
        scores track ``update_doc`` changes like ``fl`` reads do."""
        cached = self._func_cols.get(field)
        if cached is not None:
            return cached
        if field not in self.stored_fields or field in ("doc_id",):
            raise ValueError(
                f"function queries need a stored numeric field; {field!r} "
                f"is not one (have: {sorted(self.stored_fields)})"
            )
        t = self._docs_ds.to_table(columns=["doc_id", field])
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
        self._func_cols[field] = dense
        return dense

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

        Each bq is evaluated as a dense (mask, scores) atom with the
        SAME leaf evaluator the boolean-grouping path uses, then folded
        in only where the MAIN query already matched — bq never extends
        membership.  Pure-filter bq adds its constant; scored bq adds
        its own per-doc score (zeros outside its match set already)."""
        for sub, const in parsed.boost_queries:
            mask, s = self._eval_leaf(sub)
            sel = mask[cand]
            idx = cand[sel]
            if idx.size == 0:
                continue
            scores[idx] += s[idx]
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
            if fld is None:
                docs, freqs, w = (
                    self.eval_phrase(list(g)) if slop == 0
                    else self.eval_near(g, slop)
                )
                if not docs.size:
                    continue
                K = self._norm_factor(self.norms[docs])
            else:
                docs, freqs, w = self.eval_field_phrase(fld, list(g))
                if not docs.size:
                    continue
                doc_count, avgdl_f = self._fstat(fld)
                dl = DECODE_TABLE[self.field_norms(fld)[docs]]
                K = self.k1 * (1.0 - self.b + self.b * dl / avgdl_f)
            scores[docs] += (w * boost) * self.scoring.impact(
                freqs.astype(np.float64), K
            )

    def _score_taat(self, parsed, postings, excluded, k, after=None):
        pruned = self._score_phrase_pruned(parsed, excluded, k, after)
        if pruned is not None:
            return pruned
        arrays = self._match_score_arrays(parsed, postings, excluded,
                                          after=after)
        if arrays is None:
            return []
        cand, s = arrays
        if cand.size == 0:
            return []
        return _select_topk(cand, s, k)

    def _score_phrase_pruned(self, parsed, excluded, k, after=None):
        """Exact top-k for a PURE single-phrase / single-proximity query
        without decoding positions for most candidates.

        The score of a phrase match is ``w · impact(phrase_tf, K)`` and
        ``impact`` is nondecreasing in tf (``ScoringModel`` contract), so
        each candidate doc in the member-term conjunction has a sound
        upper bound from data already decoded: ``phrase_tf ≤ min(member
        tfs)`` (every distinct phrase start consumes a distinct position
        of every member slot) and ``near_tf ≤ tf(first term)`` (match
        starts are distinct first-term positions; later positions CAN be
        shared between chains, so the min is NOT a near bound).
        Candidates verify positions in descending-UB chunks; iteration
        stops when the running k-th score strictly beats the next chunk's
        best bound — a remaining doc can then at best tie a kept score
        while every kept doc with that score stays, so the (-score,
        doc_id) ranking is bit-identical to the unpruned path (tested
        A/B).  Returns None when the query shape doesn't qualify (the
        caller falls through to the dense TAAT scorer).
        """
        if (
            k <= 0
            or parsed.min_should > 1 or parsed.terms or parsed.prefixes
            or parsed.wildcards or parsed.fuzzies or parsed.field_terms
            or parsed.field_phrases or parsed.dismax
            or parsed.boost_phrases or parsed.boost_funcs
            or parsed.mult_funcs or parsed.boost_queries
            or len(parsed.phrases) + len(parsed.near_phrases) != 1
            or not getattr(type(self.scoring),
                           "impact_monotone_in_tf", False)
        ):
            return None
        if parsed.phrases:
            phrase = list(parsed.phrases[0])
            slop = None
            boost = parsed.phrase_boosts.get(tuple(phrase))
        else:
            near = parsed.near_phrases[0]
            phrase = list(near[0])
            slop = int(near[1])
            boost = parsed.near_boosts.get(near)
        if slop is None and self.has_bigrams and (
            _bigram_postings_key(phrase, self.bigram_first) is not None
            or (self.has_positions
                and _bigram_chain_keys(phrase, self.bigram_first)
                is not None)
        ):
            # next-word index: exact match set + freqs from one postings
            # lookup (2 terms) or the pair-stream chain matcher (3+) —
            # no upper bounds, no chunked verification needed
            docs, freqs, w = self.eval_phrase(phrase)
            if boost is not None:
                w *= boost
            if excluded is not None and docs.size:
                m = ~excluded[docs]
                docs, freqs = docs[m], freqs[m]
            if docs.size == 0:
                return []
            sc = w * self.scoring.impact(
                freqs.astype(np.float64), self._norm_factor(self.norms[docs])
            )
            if after is not None:
                cs, cid = after
                m = (sc < cs) | ((sc == cs) & (docs > cid))
                docs, sc = docs[m], sc[m]
            return _select_topk(docs, sc, k)
        postings = self.lookup_postings(phrase, with_positions=True)
        if any(t not in postings for t in phrase):
            return []
        w = float(sum(self.idf(postings[t].df) for t in phrase))
        if boost is not None:
            w *= boost
        # global-key matchers: exact freqs for every matching doc from
        # cached per-term key streams — cheaper than chunked UB
        # verification (no gather / argsort), so score-and-select
        # directly like the bigram branch
        out = (self._phrase_match_keys(phrase, postings) if slop is None
               else self._near_match_keys(phrase, slop, postings))
        if out is not None:
            docs, freqs = out
            if excluded is not None and docs.size:
                m = ~excluded[docs]
                docs, freqs = docs[m], freqs[m]
            if docs.size == 0:
                return []
            sc = w * self.scoring.impact(
                freqs.astype(np.float64),
                self._norm_factor(self.norms[docs]),
            )
            if after is not None:
                cs, cid = after
                m = (sc < cs) | ((sc == cs) & (docs > cid))
                docs, sc = docs[m], sc[m]
            return _select_topk(docs, sc, k)
        # int64 key overflow (enormous doc space · doc length): fall back
        # to per-candidate segments with chunked upper-bound verification
        uniq = list(dict.fromkeys(phrase))
        docs = postings[uniq[0]].doc_ids
        for t in uniq[1:]:
            docs = _sorted_intersect(docs, postings[t].doc_ids)
            if docs.size == 0:
                return []
        if excluded is not None:
            docs = docs[~excluded[docs]]
            if docs.size == 0:
                return []
        ti = {}
        ub_tf = None
        for t in uniq:
            tp = postings[t]
            idx = np.searchsorted(tp.doc_ids, docs)
            ti[t] = idx
            tfs = tp.tfs[idx]
            if slop is None:
                ub_tf = tfs if ub_tf is None else np.minimum(ub_tf, tfs)
            elif t == phrase[0]:
                ub_tf = tfs
        ub = w * self.scoring.impact(
            ub_tf.astype(np.float64), self._norm_factor(self.norms[docs])
        )
        order = np.argsort(-ub, kind="stable")
        kept_docs = np.empty(0, np.int64)
        kept_scores = np.empty(0, np.float64)
        chunk = max(32 * k, 4096)
        pos = 0
        n = docs.size
        while pos < n:
            if kept_docs.size >= k:
                kth = -np.partition(-kept_scores, k - 1)[k - 1]
                if ub[order[pos]] < kth:
                    break
                # compact: anything strictly under the k-th score can
                # never be selected (boundary ties keep every equal)
                keep = kept_scores >= kth
                kept_docs, kept_scores = kept_docs[keep], kept_scores[keep]
            take = order[pos:pos + chunk]
            pos += take.size
            chunk *= 4
            take.sort()  # docs[take] ascending — the matcher's contract
            sub_docs = docs[take]
            segments = {}
            for t in uniq:
                tp = postings[t]
                sub_ti = ti[t][take]
                lengths = tp.tfs[sub_ti]
                segments[t] = (tp.positions_for(sub_ti, lengths), lengths)
            if slop is None:
                out_docs, freqs = _phrase_freqs(sub_docs, segments, phrase)
            else:
                out_docs, freqs = _near_freqs(sub_docs, segments, phrase,
                                              slop)
            if out_docs.size == 0:
                continue
            sc = w * self.scoring.impact(
                freqs.astype(np.float64),
                self._norm_factor(self.norms[out_docs]),
            )
            if after is not None:
                cs, cid = after
                m = (sc < cs) | ((sc == cs) & (out_docs > cid))
                out_docs, sc = out_docs[m], sc[m]
                if out_docs.size == 0:
                    continue
            kept_docs = np.concatenate([kept_docs, out_docs])
            kept_scores = np.concatenate([kept_scores, sc])
        return _select_topk(kept_docs, kept_scores, k)

    def _match_score_arrays(self, parsed, postings, excluded,
                            after=None):
        """The TAAT scorer up to (but not including) the top-k cut:
        ``(cand ids, their scores)`` UNRANKED — the value source for
        components that re-order themselves (grouping, collapsing) and
        for the ranked path's ``_select_topk``.  Returns None when
        nothing matches."""
        scores = np.zeros(self.doc_space, dtype=np.float64)
        #: conjunction requires every DISTINCT query clause — including
        #: terms absent from the index (Lucene: AND with a non-existent
        #: term matches nothing), so count from the parse, not the lookup.
        required = parsed.scoring_clauses
        if not parsed.conjunctive and parsed.min_should > 1:
            # Solr mm: membership needs >= min_should optional clauses;
            # scores are the plain OR scores of the survivors
            required = parsed.min_should
        seen = (
            np.zeros(self.doc_space, dtype=np.int32)
            if parsed.conjunctive or parsed.min_should > 1 else None
        )
        n_present = self._accumulate(parsed, postings, scores, seen)
        if n_present == 0:
            return None
        if seen is not None:
            cand = np.flatnonzero(seen >= required)
        else:
            # OR semantics: every contribution is > 0, so matches are
            # exactly the docs with a positive score
            cand = np.flatnonzero(scores > 0.0)
        if parsed.boost_phrases:
            # pf boost scores join AFTER membership (they rerank the
            # main query's matches, never extend them) and BEFORE the
            # cursor filter (the ranking the cursor walks includes them)
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
        if after is not None:
            # cursor paging: survivors strictly after (score, id) in
            # (-score, id) ranking order
            cs, cid = after
            sa = scores[cand]
            cand = cand[(sa < cs) | ((sa == cs) & (cand > cid))]
        return cand, scores[cand]

    # -- parenthesized boolean grouping --------------------------------- #
    def _eval_leaf(self, parsed: ParsedQuery):
        """(match_mask, scores) dense arrays for one atom of a boolean
        tree.  Scores are zeroed outside the leaf's own match set so a
        parent node can sum child score vectors directly."""
        excluded = self._excluded_mask(parsed)
        if parsed.scoring_clauses == 0:
            # pure filter / match-all atom: mask from the docs table,
            # score 0 (Lucene: filter clauses contribute no score)
            hits = self._match_all(parsed, excluded, k=self.doc_space)
            mask = np.zeros(self.doc_space, dtype=bool)
            if hits:
                mask[np.array([d for d, _ in hits], dtype=np.int64)] = True
            return mask, np.zeros(self.doc_space, dtype=np.float64)
        want = list(parsed.terms)
        for t_ in parsed.terms:
            want += self.synonyms.get(t_, [])
        postings = self.lookup_postings(want)
        scores = np.zeros(self.doc_space, dtype=np.float64)
        seen = np.zeros(self.doc_space, dtype=np.int32)
        n_present = self._accumulate(parsed, postings, scores, seen)
        required = parsed.scoring_clauses if parsed.conjunctive else 1
        if n_present == 0 or (
            parsed.conjunctive and n_present < required
        ):
            return (
                np.zeros(self.doc_space, dtype=bool),
                np.zeros(self.doc_space, dtype=np.float64),
            )
        mask = seen >= required
        if excluded is not None:
            mask &= ~excluded
        scores[~mask] = 0.0
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

    def _score_ast(self, ast, fq, k, after=None):
        """Top-k for a grouped boolean query: evaluate the tree, apply the
        global exclusions a NOT branch may have re-included (tombstones,
        validation-rejected id slots), then the usual candidate top-k."""
        mask, scores = self._eval_bool_node(ast)
        mask &= self.present
        if self.tombstones:
            mask[np.fromiter(self.tombstones, dtype=np.int64)] = False
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None:
            mask &= ~fqm
        cand = np.flatnonzero(mask)
        if after is not None:
            cs, cid = after
            sa = scores[cand]
            cand = cand[(sa < cs) | ((sa == cs) & (cand > cid))]
        if cand.size == 0:
            return []
        return _select_topk(cand, scores[cand], k)

    def _search_after(self, query, k, fl, method, fq, cursor, hl,
                      mm=None, pf=None, ps=0, pf2=None, pf3=None,
                      bf=None, boost=None, bq=None):
        """Cursor paging (Solr cursorMark): score candidates once, keep
        those strictly after ``(score, doc_id)`` in ranking order, take
        top-k of the remainder."""
        cs, cid = float(cursor[0]), int(cursor[1])
        parsed = self._parse(query)
        if mm is not None:
            self._apply_mm(parsed, query, mm)
        if pf or pf2 or pf3:
            self._apply_pf(parsed, list(parsed.terms), pf, ps, pf2, pf3)
        if bf is not None or boost is not None:
            if parsed.scoring_clauses == 0:
                raise ValueError(
                    "bf/boost rerank a scored match set; match-all / "
                    "pure-filter queries have none"
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
        ast = (
            self._parse_bool(query)
            if has_group_syntax(query or "") else None
        )
        if ast is not None:
            hits = self._score_ast(ast, fq, k, after=(cs, cid))
            t = self._resolve(hits, fl)
            return self._add_highlights(parsed, t, hl) if hl else t
        excluded = self._merge_fq_mask(self._excluded_mask(parsed), fq)
        if parsed.scoring_clauses == 0:
            # match-all ranking is (score 0, ascending id): after-cursor
            # means ids > cid
            hits = self._match_all(parsed, excluded, self.doc_space)
            hits = [(d, s) for d, s in hits if d > cid][:k]
        else:
            want = list(parsed.terms)
            for t_ in parsed.terms:
                want += self.synonyms.get(t_, [])
            postings = self.lookup_postings(want)
            hits = self._score_taat(parsed, postings, excluded, k=k,
                                    after=(cs, cid))
        t = self._resolve(hits, fl)
        return self._add_highlights(parsed, t, hl) if hl else t

    # -- Block-Max WAND ------------------------------------------------- #
    def _score_bmw(self, parsed, postings, excluded, k):
        """Vectorized block-max pruned top-k (the BMW role, score-at-a-time
        over block-aligned cells instead of a per-doc Python cursor walk).

        Cells = doc-id intervals bounded by the UNION of every query
        term's block boundaries, so each cell lies entirely inside exactly
        one block of each term; a cell's upper bound is the ascending-term
        sum of those blocks' precomputed bounds (the same float order the
        exact scorer uses, so UB >= score holds in float64 too).

        Two phases over the descending-UB cell order: a short per-cell
        seed loop establishes theta (the kth true score), then every
        remaining cell with UB >= theta is scored in ONE bulk vectorized
        pass (flat gather of the surviving posting ranges, dense
        accumulation per term in ascending-term order — the exact float
        sequence dense TAAT performs).  Cells below theta are skipped
        with their postings untouched: the block-max pruning the north
        star names, with no per-doc Python.  Rank-identical to TAAT
        (tested).
        """
        if not postings:
            return []
        terms = sorted(postings)
        tps = [postings[t] for t in terms]
        ws = []
        for t, tp in zip(terms, tps):
            w = self.idf(tp.df)
            b = parsed.boosts.get(t)
            ws.append(w if b is None else w * b)
        # distinct PARSED terms, not found terms: AND with a term absent
        # from the index matches nothing (same rule as _score_taat)
        required = len(set(parsed.terms)) if parsed.conjunctive else 1
        if parsed.conjunctive and len(terms) < required:
            return []

        # per-term per-block upper bounds (one vectorized impact() each,
        # memoized on the TermPostings like score_vec; query boosts
        # multiply after, mirroring vec * b in the scorer)
        block_ubs = []
        for w, tp, t in zip(ws, tps, terms):
            if tp.block_ub_vec is None:
                dl = DECODE_TABLE[tp.block_min_norm]
                K = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
                tp.block_ub_vec = self.idf(tp.df) * self.scoring.impact(
                    tp.block_max_tf.astype(np.float64), K
                )
            b = parsed.boosts.get(t)
            block_ubs.append(
                tp.block_ub_vec if b is None else tp.block_ub_vec * b
            )

        # cell grid: union of all block end-docids -> each cell maps to
        # ONE block per term (no boundary falls inside a cell).  The grid
        # and the per-term posting offsets of every cell boundary are
        # query-independent for a term set — memoized across queries.
        ckey = tuple(terms)
        cached = self._bmw_cell_cache.get(ckey)
        if cached is None:
            grid = np.unique(np.concatenate([tp.block_last for tp in tps]))
            cell_lo = np.concatenate(([0], grid[:-1] + 1))
            cell_hi = grid
            starts = [
                np.searchsorted(tp.doc_ids, cell_lo, side="left")
                for tp in tps
            ]
            ends = [
                np.searchsorted(tp.doc_ids, cell_hi, side="right")
                for tp in tps
            ]
            block_of = [np.searchsorted(tp.block_last, grid) for tp in tps]
            if len(self._bmw_cell_cache) > 128:
                self._bmw_cell_cache.clear()
            self._bmw_cell_cache[ckey] = (grid, starts, ends, block_of)
        else:
            grid, starts, ends, block_of = cached
        n_cells = grid.size
        cell_ub = np.zeros(n_cells, dtype=np.float64)
        for tp, ub, bi in zip(tps, block_ubs, block_of):
            valid = bi < tp.block_last.size
            cell_ub += np.where(valid, ub[np.minimum(bi, ub.size - 1)], 0.0)

        order = np.argsort(-cell_ub, kind="stable")

        # reusable dense accumulators (allocated once, cleaned after each
        # score_cells call by zeroing only the touched slots)
        dense = np.zeros(self.doc_space, dtype=np.float64)
        touched_mask = np.zeros(self.doc_space, dtype=bool)
        dense_seen = (
            np.zeros(self.doc_space, dtype=np.int32) if required > 1 else None
        )

        def score_cells(cells: np.ndarray):
            """Exact (udocs, scores) over a set of disjoint ASCENDING
            cells.  Adjacent surviving cells merge into contiguous posting
            runs per term (for weakly-pruned common-term queries this
            collapses to one slice = plain TAAT cost), then one dense
            ``+=`` per term in ascending-term order — the EXACT float
            sequence dense TAAT performs."""
            touched = []
            for ti, (t, tp) in enumerate(zip(terms, tps)):
                s = starts[ti][cells]
                e = ends[ti][cells]
                nz = e > s
                s, e = s[nz], e[nz]
                if s.size == 0:
                    continue
                # cells are disjoint and ascending -> e[i] <= s[i+1];
                # equality means contiguous postings: merge the runs
                brk = np.flatnonzero(s[1:] > e[:-1]) + 1
                rs = s[np.concatenate(([0], brk))]
                re_ = e[np.concatenate((brk - 1, [e.size - 1]))]
                if rs.size == 1:
                    d = tp.doc_ids[rs[0]:re_[0]]
                    vec = self._term_score_vec(tp)[rs[0]:re_[0]]
                else:
                    d = np.concatenate(
                        [tp.doc_ids[a:b] for a, b in zip(rs, re_)]
                    )
                    sv = self._term_score_vec(tp)
                    vec = np.concatenate([sv[a:b] for a, b in zip(rs, re_)])
                b = parsed.boosts.get(t)  # same float order as TAAT: vec*b
                dense[d] += vec if b is None else vec * b
                touched_mask[d] = True
                if dense_seen is not None:
                    dense_seen[d] += 1
                touched.append(d)
            if not touched:
                return None, None
            # dense flatnonzero beats sorting the concatenated doc lists
            # (already sorted ascending as a bonus)
            udocs = np.flatnonzero(touched_mask)
            touched_mask[udocs] = False
            scores = dense[udocs]
            if dense_seen is not None:
                keep = dense_seen[udocs] >= required
                out_d, out_s = udocs[keep], scores[keep]
                dense_seen[udocs] = 0
            else:
                out_d, out_s = udocs, scores
            dense[udocs] = 0.0  # cheap cleanup: only touched slots
            if excluded is not None and out_d.size:
                m = ~excluded[out_d]
                out_d, out_s = out_d[m], out_s[m]
            return out_d, out_s

        top_d = np.empty(0, dtype=np.int64)
        top_s = np.empty(0, dtype=np.float64)
        theta = -math.inf

        def merge_top(udocs, scores):
            nonlocal top_d, top_s, theta
            d = np.concatenate([top_d, udocs])
            s = np.concatenate([top_s, scores])
            # partition-first selection (exact ties via _select_topk) —
            # a full lexsort of a big bulk result would dominate the
            # no-pruning worst case
            sel = _select_topk(d, s, k)
            top_d = np.array([x for x, _ in sel], dtype=np.int64)
            top_s = np.array([x for _, x in sel], dtype=np.float64)
            if top_d.size == k:
                theta = top_s[-1]

        # phase 1: seed theta from the highest-bound cells, one at a time
        seed_n = 0
        for ci in order[: min(8, order.size)]:
            if top_d.size >= k and cell_ub[ci] < theta - 1e-9 * abs(theta):
                seed_n = order.size  # everything below already prunable
                break
            udocs, scores = score_cells(np.array([ci]))
            seed_n += 1
            if udocs is not None and udocs.size:
                merge_top(udocs, scores)

        # phase 2: bulk-score every remaining cell whose bound can still
        # beat theta (epsilon guard: bound and score multiply idf/boost/
        # impact in different associations, which can cost an ulp)
        rest = order[seed_n:]
        if rest.size:
            if top_d.size >= k:
                rest = rest[cell_ub[rest] >= theta - 1e-9 * abs(theta)]
            if rest.size:
                udocs, scores = score_cells(np.sort(rest))
                if udocs is not None and udocs.size:
                    merge_top(udocs, scores)
        return list(zip(top_d.tolist(), top_s.tolist()))

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

    def _resolve(self, hits, fl=None) -> pa.Table:
        fl = list(fl) if fl else self.stored_fields
        fl, fl_transforms = self._parse_fl(fl)
        ids = [d for d, _ in hits]
        if set(fl) <= {"doc_id"} and not self._load_overlays():
            # fast path: the ranking already carries doc_id — no stored-field
            # read needed (the hot path for bench + contract queries)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "score": pa.array([s for _, s in hits], pa.float64()),
                }
            )
        # stored fields by docs-table row position, gathered from the
        # resident columns (Lucene's stored-fields reader is random access
        # by doc id, not a scan per read)
        idx, rows = self._hit_rows(ids)
        t = self._docs_take(sorted(set(fl) | {"doc_id"}), rows)
        # typed float64 only for an empty hit list: hits that all drop out
        # keep the untyped empty score column the docs-table scan gave
        t = t.append_column(
            "score",
            pa.array([hits[i][1] for i in idx]) if ids
            else pa.array([], pa.float64()),
        )
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

    def _docs_columns(self, names) -> dict:
        """Docs-table columns by name, in table row order (the order the
        locator points into): read once per index generation, in one scan
        for all that are missing, and kept until the next generation —
        the stored-fields / docValues analogue."""
        self.norms  # the locator's row order comes first
        missing = [n for n in dict.fromkeys(names) if n not in self._doc_cols]
        if missing:
            t = self._docs_ds.to_table(columns=missing)
            for n in missing:
                self._doc_cols[n] = _one_array(t[n])
        return {n: self._doc_cols[n] for n in names}

    def _docs_take(self, cols, rows) -> pa.Table:
        """The docs-table rows at positions ``rows`` (in that order),
        projected to ``cols``.  ``content`` is never kept resident: it is
        read for the wanted rows only."""
        sel = pa.array(rows, pa.int64())
        kept = self._docs_columns([c for c in cols if c != "content"])
        return pa.table({
            c: self._content_take(rows) if c == "content"
            else kept[c].take(sel)
            for c in cols
        })

    def _content_take(self, rows) -> pa.Array:
        """``content`` at docs-table positions ``rows``: one filtered read
        of the wanted doc ids (bodies are too large to keep resident)."""
        ids = self._docs_columns(["doc_id"])["doc_id"].take(
            pa.array(rows, pa.int64()))
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

                t = pq.read_table(path)
                for row in t.to_pylist():  # later rows win (append order)
                    self._overlays.setdefault(row["doc_id"], {})[row["column"]] = (
                        json.loads(row["value"])
                    )
        return self._overlays

    def range_facet(self, query: str, field: str, start, end,
                    gap, fq=None) -> dict:
        """Solr ``facet.range``: histogram buckets ``[start+i·gap,
        start+(i+1)·gap)`` over a numeric or TIMESTAMP ``field`` of the
        FULL match set, plus ``before``/``after`` counts
        (``facet.range.other=all``).  Every bucket in [start, end) is
        emitted, zero counts included.

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
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        if field == "doclen":
            if gap <= 0 or end <= start:
                raise ValueError("need gap > 0 and end > start")
            t = self._docs_ds.to_table(columns=["doc_id", field])
            vals = t[field].to_numpy()[mask[t["doc_id"].to_numpy()]]
            s_i, e_i, g_i = int(start), int(end), int(gap)
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
            t = self._docs_ds.to_table(columns=["doc_id", field])
            hit = mask[t["doc_id"].to_numpy()]
            vals = (t[field].cast(pa.timestamp("us")).to_numpy()
                    .astype("datetime64[us]").astype(np.int64)[hit])
            bounds = _date_bucket_bounds(s_i, e_i, gap)
            n_buckets = len(bounds) - 1
            idx = np.searchsorted(bounds, vals, side="right") - 1
            inside = (idx >= 0) & (idx < n_buckets) & (vals < e_i)
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
                "after": int((vals >= e_i).sum()),
            }

        n_buckets = (e_i - s_i + g_i - 1) // g_i
        idx = (vals - s_i) // g_i
        inside = (idx >= 0) & (idx < n_buckets) & (vals < e_i)
        counts = np.bincount(idx[inside].astype(np.int64),
                             minlength=n_buckets)
        return {
            "buckets": [
                (int(s_i + i * g_i), int(counts[i]))
                for i in range(n_buckets)
            ],
            "before": int((vals < s_i).sum()),
            "after": int((vals >= e_i).sum()),
        }

    def pivot_facet(self, query: str, fields, mincount: int = 1,
                    fq=None) -> list:
        """Solr ``facet.pivot=f1,f2``: nested value counts over the match
        set, flattened to ``(v1, v2, count)`` rows ordered count desc then
        values asc (two-level pivots; Solr's common case)."""
        if len(fields) != 2:
            raise ValueError("pivot_facet supports exactly two fields")
        for f in fields:
            if f not in self.stored_fields or f == "doc_id":
                raise ValueError(f"cannot pivot on field {f!r}")
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        t = self._docs_ds.to_table(columns=["doc_id", *fields])
        t = t.filter(pa.array(mask[t["doc_id"].to_numpy()]))
        agg = pa.TableGroupBy(t, list(fields)).aggregate([("doc_id", "count")])
        rows = sorted(
            zip(
                agg[fields[0]].to_pylist(),
                agg[fields[1]].to_pylist(),
                agg["doc_id_count"].to_pylist(),
            ),
            key=lambda r: (-r[2], r[0], r[1]),
        )
        return [(a, b, int(c)) for a, b, c in rows if c >= mincount]

    def _synonym_group(self, term, postings):
        """Lucene SynonymQuery stats for a mapped term: union doc ids,
        per-doc tf = SUM over members, df = MAX over members.  Returns
        (None, None, 0) when no member exists in the index."""
        members = [term, *self.synonyms.get(term, [])]
        tps = [postings[m] for m in dict.fromkeys(members) if m in postings]
        if not tps:
            return None, None, 0
        acc = np.zeros(self.doc_space, dtype=np.int64)
        for tp in tps:
            acc[tp.doc_ids] += tp.tfs
        docs = np.flatnonzero(acc)
        return docs, acc[docs], max(tp.df for tp in tps)

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
        inner = self.match_ids(inner_query)
        src = self._docs_ds.to_table(columns=["doc_id", from_field])
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[inner] = True
        vals = src[from_field].filter(
            pa.array(mask[src["doc_id"].to_numpy()])
        )
        vset = pc.unique(pc.drop_null(vals))
        if len(vset) == 0:
            return np.array([], dtype=np.int64)
        dst = self._docs_ds.to_table(columns=["doc_id", to_field])
        hit = pc.is_in(dst[to_field], value_set=vset)
        ids = dst["doc_id"].to_numpy()[
            pc.fill_null(hit, False).to_numpy(zero_copy_only=False)
        ]
        return self._live_ids(ids)

    def _live_ids(self, ids: np.ndarray) -> np.ndarray:
        """Restrict raw docs-table ids to live docs (present, not
        tombstoned), sorted ascending."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            ids = ids[self.present[ids]]
        if self.tombstones and ids.size:
            ids = ids[~np.isin(
                ids, np.fromiter(self.tombstones, dtype=np.int64)
            )]
        return np.sort(ids)

    def _field_table(self, field: str) -> pa.Table:
        """``(doc_id, field)`` projection of the docs table, served from
        the resident columns — the grouping/collapsing value source."""
        cols = self._docs_columns(["doc_id", field])
        return pa.Table.from_arrays([cols["doc_id"], cols[field]],
                                    names=["doc_id", field])

    def _dense_field(self, field: str) -> np.ndarray:
        """Dense per-doc column array (position d = doc d's value):
        float64/NaN for numerics, datetime64/NaT for timestamps, object/
        None otherwise — the sort-key value source, cached per engine."""
        cache = self._dense_field_cache
        hit = cache.get(field)
        if hit is None:
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
            if len(cache) > 16:
                cache.clear()
            cache[field] = dense
            hit = dense
        return hit

    def _field_codes(self, field: str):
        """``(dense codes, labels, has_null)`` for a stored field:
        position d of the dense int64 array is doc d's factorized group
        code (-1 for null/missing), ``labels[c]`` its display value,
        ``has_null`` whether the COLUMN itself holds nulls (code -1 in a
        sparse doc-id space can also mean "slot outside the docs
        table").  Factorized once per engine per field — collapse/group/
        facet queries then just gather, no per-query join or factorize."""
        cache = self._field_codes_cache
        hit = cache.get(field)
        if hit is None:
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
            hit = (dense, labels, col.null_count > 0)
            if len(cache) > 16:
                cache.clear()
            cache[field] = hit
        return hit

    def _geo_columns(self, sfield: str):
        """Dense per-doc (lat, lon) arrays for a spatial field spec —
        either ``"latcol,loncol"`` (two stored numeric columns) or one
        stored string column holding Solr's ``"lat,lon"`` point format.
        Parsed once per engine instance (the spatial analogue of the
        filterCache)."""
        cached = self._geo_cache.get(sfield)
        if cached is not None:
            return cached
        lat = np.full(self.doc_space, np.nan)
        lon = np.full(self.doc_space, np.nan)
        if "," in sfield:
            latc, lonc = (c.strip() for c in sfield.split(",", 1))
            for c in (latc, lonc):
                if c not in self.stored_fields:
                    raise ValueError(f"unknown spatial column {c!r}")
            t = self._docs_ds.to_table(columns=["doc_id", latc, lonc])
            ids = t["doc_id"].to_numpy()
            lat[ids] = t[latc].to_numpy(zero_copy_only=False).astype(float)
            lon[ids] = t[lonc].to_numpy(zero_copy_only=False).astype(float)
        else:
            if sfield not in self.stored_fields:
                raise ValueError(f"unknown spatial field {sfield!r}")
            t = self._docs_ds.to_table(columns=["doc_id", sfield])
            ids = t["doc_id"].to_numpy()
            for i, v in zip(ids, t[sfield].to_pylist()):
                if not v:
                    continue
                try:
                    a, b = v.split(",", 1)
                    lat[i], lon[i] = float(a), float(b)
                except ValueError:
                    continue
        self._geo_cache[sfield] = (lat, lon)
        return lat, lon

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
        cached = self._geo_cache.get(("env", field))
        if cached is None:
            w = np.full(self.doc_space, np.nan)
            s = np.full(self.doc_space, np.nan)
            e = np.full(self.doc_space, np.nan)
            n = np.full(self.doc_space, np.nan)
            t = self._docs_ds.to_table(columns=["doc_id", field])
            for i, v in zip(t["doc_id"].to_numpy(),
                            t[field].to_pylist()):
                if not v:
                    continue
                try:
                    w[i], s[i], e[i], n[i] = parse_envelope_to_bbox(v)
                except SpatialError:
                    continue
            cached = (w, s, e, n)
            self._geo_cache[("env", field)] = cached
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
        faceting both consume the full match set.  Same clause semantics as
        :meth:`search` (terms/phrases/prefixes/filters/prohibitions).
        Filter directives route to their own evaluators, so they work
        anywhere a query string does — fq, delete-by-query, facet.query:
        ``{!join from=F to=T}inner`` (Solr JoinQParserPlugin),
        ``{!parent}`` / ``{!child}`` (block joins over flat rows),
        ``{!geofilt}`` / ``{!bbox}`` (spatial radius), and
        ``{!intersects sfield=F}ENVELOPE(...)`` (rectangle
        intersection)."""
        bm = _BLOCKJOIN_Q_RE.match(query or "")
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
        ast = (
            self._parse_bool(query)
            if has_group_syntax(query or "") else None
        )
        if ast is not None:
            mask, _ = self._eval_bool_node(ast)
            mask &= self.present
            if self.tombstones:
                mask[np.fromiter(self.tombstones, dtype=np.int64)] = False
            return np.flatnonzero(mask).astype(np.int64)
        parsed = self._parse(query)
        excluded = self._excluded_mask(parsed)
        if parsed.scoring_clauses == 0:
            hits = self._match_all(parsed, excluded, k=self.doc_space)
            return np.array([d for d, _ in hits], dtype=np.int64)
        seen = np.zeros(self.doc_space, dtype=np.int32)
        required = parsed.scoring_clauses if parsed.conjunctive else 1
        want = list(parsed.terms)
        for t_ in parsed.terms:
            want += self.synonyms.get(t_, [])
        postings = self.lookup_postings(want)
        for term in sorted(set(parsed.terms)):
            if term in self.synonyms:
                docs, _, _ = self._synonym_group(term, postings)
                if docs is not None:
                    seen[docs] += 1
            elif term in postings:
                seen[postings[term].doc_ids] += 1
        for fz in sorted(set(parsed.fuzzies)):
            docs, _, _ = self._fuzzy_group(*fz)
            if docs is not None:
                seen[docs] += 1
        for ph in parsed.phrases:
            docs, _, _ = self.eval_phrase(list(ph))
            seen[docs] += 1
        for np_clause in parsed.near_phrases:
            docs, _, _ = self.eval_near(*np_clause)
            seen[docs] += 1
        for pre in parsed.prefixes:
            seen[self.eval_prefix(pre)] += 1
        for pat in sorted(set(parsed.wildcards)):
            seen[self.eval_pattern(pat)] += 1
        for fld, term in sorted(set(parsed.field_terms)):
            tp = self.field_term_postings(fld, term)
            if tp is not None:
                seen[tp.doc_ids] += 1
        for fld, ph in sorted(set(parsed.field_phrases)):
            docs, _, _ = self.eval_field_phrase(fld, list(ph))
            seen[docs] += 1
        cand = np.flatnonzero(seen >= required)
        if excluded is not None and cand.size:
            cand = cand[~excluded[cand]]
        return cand.astype(np.int64)

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
        distributed equivalent is :func:`facet_partitioned` (per-file
        partial counts -> driver sum — a pre-aggregated groupby, no
        shuffle).
        """
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
        out = {}
        for fld in fields:
            # cached dense per-doc codes (docValues analogue): one
            # gather + bincount per query, no parquet re-read or
            # hash-based value_counts
            dense, labels, has_null = self._field_codes(fld)
            codes = dense[ids]
            real = codes[codes >= 0]
            cnt = np.bincount(real, minlength=len(labels))
            counts = {labels[i]: int(cnt[i]) for i in np.nonzero(cnt)[0]}
            n_null = int(codes.size - real.size)
            if n_null:  # null bucket, same str() key as before
                counts["None"] = n_null
            if mincount <= 0:
                for v in labels:
                    counts.setdefault(v, 0)
                if has_null:  # true column nulls only, not doc-id holes
                    counts.setdefault("None", 0)
            buckets = sorted(
                ((v, c) for v, c in counts.items()
                 if c >= mincount
                 and (not prefix or str(v).startswith(prefix))),
                key=(lambda b: (-b[1], b[0])) if sort == "count"
                else (lambda b: b[0]),
            )[offset:offset + limit]
            out[fld] = buckets
        return out

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
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
        fields = sorted({f for _, (_, f) in specs})
        t = self._docs_ds.to_table(columns=["doc_id", by, *fields])
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        t = t.filter(pa.array(mask[t["doc_id"].to_numpy()]))
        t = t.filter(pc.is_valid(t[by]))
        if t.num_rows == 0:
            return self._facet_stats_table([], specs)
        aggs = [([], "count_all")]
        for f in fields:
            aggs += [(f, "sum"), (f, "min"), (f, "max")]
        g = pa.TableGroupBy(t.select([by, *fields]), by).aggregate(aggs)
        rows = []
        for r in g.to_pylist():
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
        return self._facet_stats_table(rows, specs)

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
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
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
                # for fractional gaps
                n_b = int(np.ceil((end - start) / gap))
                bidx = np.floor((vals - start) / gap).astype(np.int64)
                inr = ok & (vals >= start) & (vals < end)
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
        merge).  The scan reads only the (term, df) columns; prefix scans
        prune via sorted-term row-group stats.
        """
        flt = None
        if prefix:
            hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
            flt = (pc.field("term") >= prefix) & (pc.field("term") < hi)
        t = self._postings_ds.to_table(columns=["term", "df"], filter=flt)
        if self.scored_fields or self.has_bigrams:
            t = t.filter(pc.invert(
                pc.match_substring_regex(t["term"], _SYNTHETIC_TERM_RE)
            ))
        agg = pa.TableGroupBy(t, "term").aggregate([("df", "sum")])
        rows = sorted(
            zip(agg["term"].to_pylist(), agg["df_sum"].to_pylist()),
            key=(lambda r: (-r[1], r[0])) if sort == "count"
            else (lambda r: r[0]),
        )
        return [(t_, int(c)) for t_, c in rows if c >= mincount][:limit]

    def luke(self) -> dict:
        """Solr Luke handler (``/admin/luke``) analogue: index
        introspection — doc counts, distinct default-field term count,
        build toggles, and per-stored-field type + non-null doc count.
        The reference surfaces the same shape through Solr's admin API
        (``solrindexer/mmd.py:1306-1332`` ``get_status``)."""
        t = self._postings_ds.to_table(columns=["term"])
        terms = t["term"]
        if self.scored_fields or self.has_bigrams:
            terms = terms.filter(
                pc.invert(pc.match_substring_regex(terms, _SYNTHETIC_TERM_RE))
            )
        n_terms = len(pc.unique(terms))
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
                    m = 10.0 ** round_scores
                    score = float(
                        np.copysign(np.floor(abs(score) * m + 0.5) / m,
                                    score)
                    )
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
        """Sorted term dictionary (Arrow) + aligned summed df (numpy),
        built once per engine.  Arrow-native so prefix/wildcard slicing
        never pays a full to_pylist; the fuzzy/suggest trie walkers get
        the Python-list form lazily from :meth:`_suggest_state`."""
        if self._dict_cache is None:
            t = self._postings_ds.to_table(columns=["term", "df"])
            if self.scored_fields or self.has_bigrams:
                # default-field dictionary only
                t = t.filter(pc.invert(
                    pc.match_substring_regex(t["term"], _SYNTHETIC_TERM_RE)
                ))
            agg = pa.TableGroupBy(t, "term").aggregate([("df", "sum")])
            agg = agg.sort_by("term")
            arr = agg["term"].combine_chunks()
            dfs = agg["df_sum"].combine_chunks().to_numpy(
                zero_copy_only=False
            ).astype(np.int64, copy=False)
            self._dict_cache = (arr, dfs)
        return self._dict_cache

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
        if field not in self.stored_fields or field == "doc_id":
            raise ValueError(f"cannot compute stats on field {field!r}")
        ids = self.match_ids(query)
        fqm = self._merge_fq_mask(None, fq)
        if fqm is not None and ids.size:
            ids = ids[~fqm[ids]]
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        t = self._docs_ds.to_table(columns=["doc_id", field])
        vals = t[field].filter(pa.array(mask[t["doc_id"].to_numpy()]))
        count = len(vals) - vals.null_count
        out = {
            "count": int(count),
            "missing": int(vals.null_count),
            "min": pc.min(vals).as_py(),
            "max": pc.max(vals).as_py(),
        }
        numeric = (pa.types.is_integer(vals.type)
                   or pa.types.is_floating(vals.type))
        if numeric:
            s = pc.sum(vals).as_py() or 0
            out["sum"] = s
            out["mean"] = (s / count) if count else None
        if percentiles is not None:
            if not numeric:
                raise ValueError(
                    f"percentiles need a numeric field; {field!r} "
                    f"is {vals.type}"
                )
            vc = pc.value_counts(pc.drop_null(vals)).to_pylist()
            vs = np.array([r["values"] for r in vc], dtype=np.float64)
            cs = np.array([r["counts"] for r in vc], dtype=np.int64)
            order = np.argsort(vs)
            pv = _weighted_percentiles(vs[order], cs[order],
                                       list(percentiles))
            out["percentiles"] = dict(zip(map(str, percentiles), pv))
        return out

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
        if group_field not in self.stored_fields or group_field == "doc_id":
            raise ValueError(f"cannot group on field {group_field!r}")
        import pandas as pd

        arrays = self._full_match_arrays(query, fq=fq)
        if arrays is not None:
            # dense-codes fast path: grouping IS collapsing with all
            # nulls folded into one group and group_limit members kept
            ids = arrays[0].astype(np.int64)
            scores = arrays[1].astype(np.float64)
            dense, uniques, _hn = self._field_codes(group_field)
            codes = dense[ids]
            t = _collapse_codes(ids, scores, codes, uniques,
                                k_groups, "collapse", group_limit - 1,
                                round_scores)
            out_t = pa.table(
                {"group": t["group"], "group_rank": t["rank"],
                 "position": t["position"], "doc_id": t["doc_id"],
                 "score": t["score"]}
            )
            if not with_ngroups:
                return out_t
            # group.ngroups from the codes already gathered: distinct
            # non-null groups + the folded null group if present
            ng = int(np.unique(codes[codes >= 0]).size
                     + bool((codes < 0).any()))
            return out_t, ng
        full = self.search(query, k=self.doc_space, fl=["doc_id"],
                           fq=fq)
        df = pd.DataFrame(
            {"doc_id": full["doc_id"].to_numpy(),
             "score": full["score"].to_numpy()}
        )
        if df.empty:
            empty_t = pa.table(
                {"group": pa.array([], pa.string()),
                 "group_rank": pa.array([], pa.int64()),
                 "position": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.float64())}
            )
            return (empty_t, 0) if with_ngroups else empty_t
        ids = df["doc_id"].to_numpy()
        t = self._field_table(group_field)
        mask = np.zeros(self.doc_space, dtype=bool)
        mask[ids] = True
        t = t.filter(pa.array(mask[t["doc_id"].to_numpy()]))
        df = df.merge(t.to_pandas(), on="doc_id", how="left")
        if round_scores is not None:
            m = 10.0 ** round_scores
            s = df["score"].to_numpy()
            df["score"] = np.copysign(np.floor(np.abs(s) * m + 0.5) / m, s)
        _null = "\x00<null>"  # NaN-safe grouping sentinel
        df["_grp"] = df[group_field].fillna(_null)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                            kind="mergesort")
        df["position"] = df.groupby("_grp", sort=False).cumcount()
        heads = df[df["position"] == 0].reset_index(drop=True)
        order = {v: i for i, v in enumerate(heads["_grp"].head(k_groups))}
        out = df[
            df["_grp"].isin(order) & (df["position"] < group_limit)
        ].copy()
        out["group_rank"] = out["_grp"].map(order)
        out = out.sort_values(["group_rank", "position"])
        out_t = pa.table(
            {
                "group": pa.array(
                    [None if v == _null else str(v)
                     for v in out["_grp"]], pa.string()
                ),
                "group_rank": pa.array(out["group_rank"].astype("int64")),
                "position": pa.array(out["position"].astype("int64")),
                "doc_id": pa.array(out["doc_id"].astype("int64")),
                "score": pa.array(out["score"].astype("float64")),
            }
        )
        if with_ngroups:
            return out_t, int(df["_grp"].nunique())
        return out_t

    def collapse_search(self, query: str, field: str, k: int = 10,
                        fq=None, null_policy: str = "ignore",
                        expand_limit: int = 0,
                        round_scores: int | None = None,
                        **search_kwargs) -> pa.Table:
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
        SQL oracle is float-order-independent.  Extra ``search_kwargs``
        (``qf``, ``mm``, ``bf``/``boost``/``bq``…) pass through to the
        underlying relevance query.

        The reference delegates this to Solr; collapsing is how its
        dataset catalogue shows one hit per parent dataset
        (``solrindexer/search.py:125-140`` passes arbitrary Solr params).
        """
        if field not in self.stored_fields or field == "doc_id":
            raise ValueError(f"cannot collapse on field {field!r}")
        if null_policy not in ("ignore", "expand", "collapse"):
            raise ValueError(f"bad nullPolicy {null_policy!r}")
        arrays = (self._full_match_arrays(query, fq=fq)
                  if not search_kwargs else None)
        if arrays is not None:
            # dense-codes fast path: unranked match arrays + a cached
            # per-doc factorization of the collapse field (the docValues
            # analogue) — no pandas join, no full top-k sort
            ids = arrays[0].astype(np.int64)
            scores = arrays[1].astype(np.float64)
            dense, uniques, _hn = self._field_codes(field)
            return _collapse_codes(ids, scores, dense[ids], uniques, k,
                                   null_policy, expand_limit,
                                   round_scores)
        import pandas as pd

        full = self.search(query, k=self.doc_space, fl=["doc_id"],
                           fq=fq, **search_kwargs)
        df = pd.DataFrame(
            {"doc_id": full["doc_id"].to_numpy(),
             "score": full["score"].to_numpy()}
        )
        if not df.empty:
            ids = df["doc_id"].to_numpy()
            t = self._field_table(field)
            mask = np.zeros(self.doc_space, dtype=bool)
            mask[ids] = True
            t = t.filter(pa.array(mask[t["doc_id"].to_numpy()]))
            df = df.merge(t.to_pandas(), on="doc_id", how="left")
        return _collapse_frame(df, field, k, null_policy, expand_limit,
                               round_scores)

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
        if start < 0:
            raise ValueError("start must be >= 0")
        n = max(int(rerank_docs), start + k)
        main = self.search(query, k=n, fl=["doc_id"], fq=fq)
        # rerank scores come from the dense leaf evaluator (the boolean
        # path's atom): no full-match top-k sort just to read scores for
        # an N-doc window (was the dominant cost at match sets >> N)
        if has_group_syntax(rerank_query or ""):
            rr = self.search(rerank_query, k=self.doc_space,
                             fl=["doc_id"])
            rmap = dict(zip(rr["doc_id"].to_pylist(),
                            rr["score"].to_pylist()))
        else:
            mask, dense = self._eval_leaf(self._parse(rerank_query))
            cand = np.asarray(main["doc_id"].to_pylist(),
                              dtype=np.int64)
            rmap = {int(d): float(dense[d])
                    for d in cand if mask[d]}
        hits = _rerank_combine(
            main["doc_id"].to_pylist(), main["score"].to_pylist(),
            rmap, int(rerank_docs), float(rerank_weight), round_scores,
        )
        return self._resolve(hits[start:start + k], fl)

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
        if start < 0:
            raise ValueError("start must be >= 0")

        def _r(x):
            if round_scores is None:
                return float(x)
            m = 10.0 ** round_scores
            return float(np.copysign(np.floor(abs(x) * m + 0.5) / m, x))

        main = self.search(query, k=max(int(rerank_docs), start + k),
                           fl=["doc_id"], fq=fq)
        ids = main["doc_id"].to_pylist()
        scores = main["score"].to_pylist()
        seg = min(int(rerank_docs), len(ids))
        cand = np.asarray(ids[:seg], dtype=np.int64)
        total = np.zeros(seg, dtype=np.float64)
        fvals: dict[str, np.ndarray] = {}
        for f in feats:
            ftype = f.get("type", "function")
            if ftype == "originalScore":
                vals = np.array([_r(s) for s in scores[:seg]])
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
                # dense leaf evaluation: candidate lookups only, no
                # full-match top-k sort (same shortcut as rerank_search)
                mask, dense = self._eval_leaf(self._parse(f["q"]))
                vals = np.array([
                    _r(dense[int(d)]) if mask[int(d)] else 0.0
                    for d in cand
                ])
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
        head = sorted(
            ((int(d), _r(s)) for d, s in zip(cand, total)),
            key=lambda t_: (-t_[1], t_[0]),
        )
        tail = [(int(d), _r(s)) for d, s in zip(ids[seg:], scores[seg:])]
        return self._resolve((head + tail)[start:start + k], fl)

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
            return self._resolve([], fl)
        postings = self.lookup_postings(sel)
        parsed = ParsedQuery(terms=sel)
        hits = self._score_taat(
            parsed, {t: postings[t] for t in sel},
            self._excluded_mask(parsed), k + 1,
        )
        hits = [(d, s) for d, s in hits if d != doc_id][:k]
        return self._resolve(hits, fl)

    def get(self, doc_id: int, fl=None) -> dict | None:
        """Realtime-get analogue (``solrindexer/tools.py:68-85``): point
        lookup through the docs-row locator."""
        if doc_id in self.tombstones:
            return None
        _, rows = self._hit_rows([doc_id])
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
        score (same accumulator, same float order); each clause
        contribution is computed independently (Lucene Explanation
        style), so their sum equals the score up to float re-association
        only.  ``matches=False`` (excluded / missing a required clause /
        deleted) reports score 0 with the clause evidence kept.
        """
        parsed = self._parse(query)
        if qf is not None:
            parsed = self._apply_qf(parsed, qf, tie)
        if has_group_syntax(query or ""):
            raise ValueError(
                "explain covers flat queries (grouped boolean trees "
                "report per-leaf via their own flat explains)"
            )
        d = int(doc_id)
        if not (0 <= d < self.doc_space):
            raise ValueError(f"doc_id {d} outside [0, {self.doc_space})")
        want = list(parsed.terms)
        if self.synonyms:
            for t_ in parsed.terms:
                want += self.synonyms.get(t_, [])
        postings = self.lookup_postings(want)

        import copy

        def single(desc, **parts):
            """One clause on fresh arrays -> its independent contribution."""
            sub = copy.copy(parsed)
            for f_ in ("terms", "field_terms", "field_phrases", "dismax",
                       "fuzzies", "phrases", "near_phrases", "prefixes",
                       "wildcards"):
                setattr(sub, f_, parts.get(f_, []))
            sub_post = {
                t: postings[t]
                for t in parts.get("terms", [])
                for t in ([t, *self.synonyms.get(t, [])]
                          if self.synonyms else [t])
                if t in postings
            }
            s = np.zeros(self.doc_space, dtype=np.float64)
            seen1 = np.zeros(self.doc_space, dtype=np.int32)
            self._accumulate(sub, sub_post, s, seen1)
            return desc, float(s[d]), int(seen1[d])

        order = []
        for t in sorted(set(parsed.terms)):
            order.append(("term:" + t, {"terms": [t]}))
        for ft in sorted(set(parsed.field_terms)):
            order.append((f"field:{ft[0]}:{ft[1]}", {"field_terms": [ft]}))
        for fp in sorted(set(parsed.field_phrases)):
            order.append(
                (f'field_phrase:{fp[0]}:"{" ".join(fp[1])}"',
                 {"field_phrases": [fp]})
            )
        for term, fpairs in parsed.dismax:
            order.append(
                (f"dismax:{term}({' '.join(f for f, _ in fpairs)})",
                 {"dismax": [(term, fpairs)]})
            )
        for fz in sorted(set(parsed.fuzzies)):
            order.append((f"fuzzy:{fz[0]}~{fz[1]}", {"fuzzies": [fz]}))
        for ph in sorted(map(tuple, parsed.phrases)):
            order.append(
                (f'phrase:"{" ".join(ph)}"', {"phrases": [list(ph)]})
            )
        for np_clause in sorted(parsed.near_phrases):
            order.append(
                (f'near:"{" ".join(np_clause[0])}"~{np_clause[1]}',
                 {"near_phrases": [np_clause]})
            )
        for pre in sorted(parsed.prefixes):
            order.append((f"prefix:{pre}*", {"prefixes": [pre]}))
        for pat in sorted(set(parsed.wildcards)):
            kind = "regex" if pat.startswith("/") else "wildcard"
            order.append((f"{kind}:{pat}", {"wildcards": [pat]}))

        clauses = []
        seen_d = 0
        for desc, parts in order:
            name, contrib, hit = single(desc, **parts)
            seen_d += hit
            if hit:
                clauses.append((name, contrib))

        # exact score: the real accumulator over the whole query
        scores = np.zeros(self.doc_space, dtype=np.float64)
        self._accumulate(parsed, postings, scores, None)
        excluded = self._excluded_mask(parsed)
        required = parsed.scoring_clauses if parsed.conjunctive else 1
        matches = (
            seen_d >= required
            and not (excluded is not None and excluded[d])
            and bool(self.present[d])
            and seen_d > 0
        )
        return {
            "doc_id": d,
            "matches": bool(matches),
            "score": float(scores[d]) if matches else 0.0,
            "clauses": clauses,
        }

    def facet_query(self, query: str, facet_queries, fq=None) -> dict:
        """Solr ``facet.query``: count of the main query's match set
        intersected with each sub-query's match set (same grammar as
        search; non-scoring, like fq)."""
        base = self.match_ids(query)
        if fq:
            excl = self._merge_fq_mask(None, fq)
            if excl is not None and base.size:
                base = base[~excl[base]]
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


#: sentinel distinguishing "not cached" from a cached absent-term None
_DEC_MISS = object()


class RangeScorer:
    """Per-doc-range scoring task for the distributed query path.

    The build's doc-range layout partitions both the postings
    (``postings/shard=S/range-R.parquet``) and the docs table (unit files
    cover contiguous doc-id intervals), so query evaluation fans out as one
    task per doc range: each task reads only its range's postings rows and
    norm bytes, scores with the globally-computed idf weights (passed in —
    df is global state, tiny), and returns its local top-k.  Ranges are
    disjoint, so the global top-k is a simple k-way merge of the partials.
    Per-doc float addition order matches the single-process TAAT scorer
    (ascending terms), so merged results are bit-identical to it.
    """

    def __init__(self, index_dir: str, k: int = 10):
        self.index_dir = os.fspath(index_dir)
        self.manifest = BuildManifest(index_dir)
        self.stats = self.manifest.read_stats()
        self.k1 = float(self.stats["k1"])
        self.b = float(self.stats["b"])
        self.avgdl = float(self.stats["avgdl"])
        self.dpr = int(self.stats["docs_per_range"])
        self.n_shards = int(self.stats["n_shards"])
        #: next-word index present: eligible 2-term exact-phrase groups
        #: evaluate from one bigram-postings row per range instead of a
        #: positional intersection (same scores — the bigram tf IS the
        #: phrase frequency; see SearchEngine.eval_phrase fast path), and
        #: with positions too, 3+-term phrases chain the pair streams
        self.has_bigrams = bool(self.stats.get("store_bigrams", False))
        self.bigram_first = frozenset(self.stats.get("bigram_first") or ())
        self.has_positions = bool(self.stats.get("store_positions", False))
        self.doc_space = int(
            self.stats.get("doc_id_space", self.stats["n_docs"])
        )
        self.k = k
        self._postings = pads.dataset(
            os.path.join(self.index_dir, "postings"), partitioning="hive"
        )
        self._docs = pads.dataset(os.path.join(self.index_dir, "docs"))

    def _decoded_row(self, tbl, rows, rid, term, lo):
        """Decoded ``(local doc ids, float64 tfs)`` of one term's
        postings row in this range, or None when the term has no row —
        LRU-cached per ``(range, term)`` with a byte budget, so a
        resident actor (PartitionedSearchService) re-serves hot terms
        without re-decoding the varint streams every query.  Arrays are
        read-only downstream, like the raw-table read cache.  Callers
        only ask for terms in their own ``want`` set, so a missing row
        really means "term absent from this range" and None is
        cacheable."""
        key = (rid, term)
        pinned = getattr(self, "_pinned", None)
        if pinned is not None and key in pinned:
            # snapshotted at scan-prune time: correct even if the LRU
            # evicted the entry since (the term was dropped from the
            # scan, so rows would wrongly report it absent)
            return pinned[key]
        cache = getattr(self, "_dec_cache", None)
        if cache is None:
            cache = self._dec_cache = {}
            self._dec_bytes = 0
        _MISS = _DEC_MISS
        hit = cache.pop(key, _MISS)
        if hit is not _MISS:
            cache[key] = hit  # LRU touch
            return hit
        ri = rows.get(term)
        if ri is None:
            out = None
        else:
            out = (
                decode_doc_ids(tbl["doc_ids"][ri].as_py()) - lo,
                varint_decode(tbl["tfs"][ri].as_py()).astype(np.float64),
            )
            self._dec_bytes += out[0].nbytes + out[1].nbytes
        cache[key] = out
        while cache and (len(cache) > 4096
                         or self._dec_bytes > (256 << 20)):
            oldest = next(iter(cache))
            if oldest == key:
                break  # never evict the entry just built
            old = cache.pop(oldest)
            if old is not None:
                self._dec_bytes -= old[0].nbytes + old[1].nbytes
        return out

    def _term_vec(self, tbl, rows, rid, term, lo, w, norms):
        """Unboosted per-term BM25 contribution ``w·tf/(tf+K)`` for one
        range row -> ``(local ids, float64 vec)`` or None, LRU-cached
        per ``(range, term)``.  The idf ``w`` ships from the driver and
        is constant per index snapshot (global df), so resident actors
        reuse the whole impact product across queries — the range-side
        analogue of the engine's cached ``_term_score_vec``; query-time
        boosts multiply AFTER, preserving the pinned float order.  The
        shipped ``w`` is still compared on every hit as a defensive
        invalidation (a changed idf recomputes instead of serving a
        stale product)."""
        vc = getattr(self, "_vec_cache", None)
        if vc is None:
            vc = self._vec_cache = {}
            self._vec_bytes = 0
        key = (rid, term)
        hit = vc.pop(key, None)
        if hit is not None and hit[0] == w:
            vc[key] = hit  # LRU touch
            return hit[1], hit[2]
        if hit is not None:
            self._vec_bytes -= hit[2].nbytes + hit[1].nbytes
        dec = self._decoded_row(tbl, rows, rid, term, lo)
        if dec is None:
            return None
        ids, tfs = dec
        dl = DECODE_TABLE[norms[ids]]
        K = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        vec = w * (tfs / (tfs + K))
        vc[key] = (w, ids, vec)
        # ids counted too: the tuple pins it even after the _dec_cache
        # entry that built it is evicted, so "shared" bytes can become
        # exclusively this cache's (conservative double-count while
        # both caches hold it — bounds resident memory either way)
        self._vec_bytes += vec.nbytes + ids.nbytes
        while vc and (len(vc) > 4096 or self._vec_bytes > (256 << 20)):
            oldest = next(iter(vc))
            if oldest == key:
                break
            old = vc.pop(oldest)
            self._vec_bytes -= old[2].nbytes + old[1].nbytes
        return ids, vec

    def __call__(self, batch: dict) -> pa.Table:
        import json

        out = []
        n = len(batch["range_id"])
        for i in range(n):
            out.extend(
                self._score_range(
                    int(batch["range_id"][i]),
                    list(batch["terms"][i]),
                    list(batch["idfs"][i]),
                    list(batch["prohibited"][i]),
                    dict(zip(batch["filter_keys"][i], batch["filter_vals"][i])),
                    bool(batch["conjunctive"][i]),
                    json.loads(str(batch["phrases_json"][i]))
                    if "phrases_json" in batch else [],
                    json.loads(str(batch["prefix_groups_json"][i]))
                    if "prefix_groups_json" in batch else [],
                    json.loads(str(batch["fuzzy_groups_json"][i]))
                    if "fuzzy_groups_json" in batch else [],
                    json.loads(str(batch["near_groups_json"][i]))
                    if "near_groups_json" in batch else [],
                    json.loads(str(batch["syn_groups_json"][i]))
                    if "syn_groups_json" in batch else [],
                    *(json.loads(str(batch["extras_json"][i]))
                      if "extras_json" in batch else ([], [], [], [], [], [], [])),
                    min_should=(
                        int(batch["min_should"][i])
                        if "min_should" in batch else 0
                    ),
                    excl=(list(batch["excl"][i])
                          if "excl" in batch else ()),
                    match_all=(bool(batch["match_all"][i])
                               if "match_all" in batch else False),
                )
            )
        return pa.Table.from_pylist(
            out,
            schema=pa.schema(
                [("doc_id", pa.int64()), ("score", pa.float64())]
            ),
        )

    def _score_range(self, rid, terms, idfs, prohibited, filters, conjunctive,
                     phrases=(), prefix_groups=(), fuzzy_groups=(),
                     near_groups=(), syn_groups=(), neg_filters=(),
                     range_filters=(), neg_range_filters=(),
                     prohibited_groups=(), prohibited_pos=(),
                     spatial_filters=(), neg_spatial_filters=(),
                     field_clauses=(), dismax_clauses=(),
                     field_phrase_groups=(), term_boosts=(),
                     boost_groups=(), func_boosts=(), bq_plans=(),
                     min_should=0, excl=(), match_all=False):
        cand, scores, lo = self._candidates_range(
            rid, terms, idfs, prohibited, filters, conjunctive,
            phrases, prefix_groups, fuzzy_groups, near_groups, syn_groups,
            neg_filters, range_filters, neg_range_filters,
            prohibited_groups, prohibited_pos,
            spatial_filters, neg_spatial_filters,
            field_clauses, dismax_clauses, field_phrase_groups,
            term_boosts, boost_groups, min_should=min_should,
            match_all=match_all,
        )
        if len(excl) and cand.size:
            # per-range fq exclusion slice (Solr applies fq on every
            # shard before collecting) — removed BEFORE the local top-k
            cand = cand[~np.isin(
                cand + lo, np.asarray(list(excl), dtype=np.int64)
            )]
        if cand.size == 0:
            return []
        if bq_plans:
            # bq boost queries: each ships as one compiled clause plan,
            # evaluated range-locally and added to MAIN-query matches
            # only — before the multiplicative boost= functions, same
            # order as the single engine
            self._apply_bq_boosts(bq_plans, cand, scores, lo)
        if func_boosts:
            # bf/boost function queries: score-only per-doc adjustments
            # from RANGE-LOCAL stored columns (driver ships only the
            # parsed ASTs + any overlay values) — local = global because
            # functions depend on nothing outside the doc's own row
            self._apply_func_boosts(func_boosts, cand, scores,
                                    lo, scores.shape[0])
        s = scores[cand]
        kk = min(self.k, cand.size)
        kth = -np.partition(-s, kk - 1)[kk - 1]
        idx = np.flatnonzero(s >= kth)
        order = np.lexsort((cand[idx], -s[idx]))[:kk]
        return [
            {"doc_id": int(cand[idx[o]] + lo), "score": float(s[idx[o]])}
            for o in order
        ]

    def _apply_bq_boosts(self, bq_plans, cand, scores, lo):
        """Fold shipped bq plans into the candidate scores (same
        contract as ``SearchEngine._add_bq_scores``: contribution =
        the bq's own range-local score + its pure-filter constant,
        added only where the main query matched)."""
        width = scores.shape[0]
        rid = lo // self.dpr
        for plan, const in bq_plans:
            mask, s = _eval_plan_range(self, rid, plan, lo, width)
            sel = mask[cand]
            idx = cand[sel]
            if idx.size == 0:
                continue
            scores[idx] += s[idx]
            if const:
                scores[idx] += const

    def _apply_func_boosts(self, func_boosts, cand, scores, lo, width):
        """Evaluate shipped bf/boost ASTs over this range's stored
        columns and fold them into the candidate scores (same
        ``(base + sum(bf)) * product(boost)`` composition as the single
        engine's ``_apply_func_scores``)."""
        from solr_indexer_ray.functions.funcquery import (
            eval_func,
            func_fields,
        )

        bf_nodes, mult_nodes, fov = func_boosts
        if not (bf_nodes and len(bf_nodes)) and not (
            mult_nodes and len(mult_nodes)
        ):
            return
        fields = sorted({
            f for nd in (*bf_nodes, *mult_nodes) for f in func_fields(nd)
        })
        dense: dict = {}
        if fields:
            flt = (pads.field("doc_id") >= lo) & (
                pads.field("doc_id") < lo + width
            )
            t = self._docs.to_table(columns=["doc_id", *fields], filter=flt)
            ids = t["doc_id"].to_numpy() - lo
            for f in fields:
                arr = np.zeros(width, dtype=np.float64)
                arr[ids] = _func_values(t[f])
                for did_s, v in (fov or {}).get(f, {}).items():
                    did = int(did_s)
                    if lo <= did < lo + width:
                        arr[did - lo] = float(v)
                dense[f] = arr
        cols = {f: a[cand] for f, a in dense.items()}
        for nd in bf_nodes:
            v = eval_func(nd, cols)
            scores[cand] += v if v.shape == cand.shape else v[0]
        for nd in mult_nodes:
            v = eval_func(nd, cols)
            scores[cand] *= v if v.shape == cand.shape else v[0]

    def _candidates_range(self, rid, terms, idfs, prohibited, filters,
                          conjunctive, phrases=(), prefix_groups=(),
                          fuzzy_groups=(), near_groups=(),
                          syn_groups=(), neg_filters=(), range_filters=(),
                          neg_range_filters=(), prohibited_groups=(),
                          prohibited_pos=(), spatial_filters=(),
                          neg_spatial_filters=(),
                          field_clauses=(), dismax_clauses=(),
                          field_phrase_groups=(), term_boosts=(),
                          boost_groups=(), func_boosts=(), bq_plans=(),
                          min_should=0, match_all=False):
        """Range-local match set + scores -> ``(cand_local_ids, scores, lo)``.

        ``func_boosts`` and ``bq_plans`` are accepted (the shipped extras
        list carries them positionally) but IGNORED here: bf/boost/bq are
        score-only and never affect candidacy — ``_score_range`` applies
        them after this returns.  Components that only need the match
        set (stats/group/sorted/facet) therefore unpack the same extras
        without scoring drift.

        ``phrases``: list of ``[member_terms, weight]`` — weights are the
        global phrase idf sums, computed driver-side like the term idfs.
        ``prefix_groups``: driver-expanded wildcard term groups (each scores
        1.0 per matching doc, Solr CONSTANT_SCORE rewrite).
        ``fuzzy_groups``: driver-expanded blended SynonymQuery-stats groups
        ``[members, weight]`` (weight = idf of the GLOBAL max member df ×
        boost): per range, tf sums over the members present and scores as
        ONE clause — the fuzzy clause shape, shipped distributed."""
        lo = rid * self.dpr
        # clamp to the id space: the tail range's dense accumulators
        # (scores/seen/dead) need only cover ids that can exist, not the
        # full docs_per_range width
        hi = min((rid + 1) * self.dpr, max(self.doc_space, lo))
        group_terms = {t for g, _ in prefix_groups for t in g}
        fuzzy_terms = {t for g, _ in fuzzy_groups for t in g}
        near_terms = {t for g, _, _ in near_groups for t in g}
        syn_terms = {t for _, g, _ in syn_groups for t in g}
        pg_terms = {t for g in prohibited_groups for t in g}
        fld_terms = {pt for _, pt, _, _, _ in field_clauses}
        dm_terms = {lt for _, sides, _ in dismax_clauses
                    for _, lt, _, _, _ in sides}
        fph_terms = {t for _, g, _, _ in field_phrase_groups for t in g}
        # next-word index: every eligible exact-phrase group reads its
        # bigram postings row(s) — one row for 2 terms, the chain rows
        # for 3+ when positions exist — instead of its members'
        # positional rows (prohibited exact phrases and slop-0 content
        # pf groups are the same shape).  Members of bigram-served
        # groups are NOT read (their weights ship from the driver);
        # ineligible groups keep the positional member path.
        phrase_terms: set = set()
        ppos_terms: set = set()
        bg_terms: set = set()
        pos_phrases = pos_ppos = pos_bg = False
        for ph, _w in phrases:
            t_, needs_pos = self._phrase_fetch_terms(list(ph))
            phrase_terms.update(t_)
            pos_phrases |= needs_pos
        for g, slop in prohibited_pos:
            t_, needs_pos = (
                self._phrase_fetch_terms(list(g))
                if int(slop) < 0 else (list(g), True)
            )
            ppos_terms.update(t_)
            pos_ppos |= needs_pos
        for _fld, g, slop, _w, _a in boost_groups:
            t_, needs_pos = (
                self._phrase_fetch_terms(list(g))
                if int(slop) == 0 else (list(g), True)
            )
            bg_terms.update(t_)
            pos_bg |= needs_pos
        want = sorted(
            set(terms) | set(prohibited) | phrase_terms | group_terms
            | fuzzy_terms | near_terms | syn_terms | pg_terms | ppos_terms
            | fld_terms | dm_terms | fph_terms | bg_terms
        )
        # positional matchers read their rows from ``tbl`` directly, so
        # those terms must always be scanned; every other term can skip
        # the parquet scan when its decoded row is already cached.  The
        # pruned terms' cached values are SNAPSHOTTED into a per-query
        # pinned dict (local references survive any mid-query LRU
        # eviction — without this, an eviction between prune and
        # consume would make _decoded_row cache a poisoned None for a
        # term that exists in the range but was pruned from the scan).
        pos_need = (phrase_terms | near_terms | ppos_terms | fph_terms
                    | bg_terms)
        dec_cache = getattr(self, "_dec_cache", None)
        pinned: dict = {}
        if dec_cache:
            keep = []
            for t in want:
                if t in pos_need:
                    keep.append(t)
                    continue
                hit = dec_cache.pop((rid, t), _DEC_MISS)
                if hit is _DEC_MISS:
                    keep.append(t)
                else:
                    dec_cache[(rid, t)] = hit  # LRU touch
                    pinned[(rid, t)] = hit
            want = keep
        self._pinned = pinned
        shards = sorted({term_shard(t, self.n_shards) for t in want})
        if pos_phrases or near_terms or pos_ppos or fph_terms or pos_bg:
            cols = [
                "term", "range_id", "doc_ids", "tfs", "positions",
                "block_last", "block_max_tf", "block_min_norm",
            ]
        else:
            # no positional matcher runs (terms / bigram-served phrase
            # groups only): skip the positions blob and df/cf/block
            # metadata columns entirely
            cols = ["term", "range_id", "doc_ids", "tfs"]
        if want:
            # bounded read cache: a resident actor serving repeated
            # queries reuses the (range, term-set) postings slice instead
            # of re-scanning parquet (read-only downstream; harmless for
            # one-shot per-job tasks)
            if getattr(self, "_read_cache", None) is None:
                self._read_cache: dict = {}
            rkey = (rid, tuple(want), len(cols))
            tbl = self._read_cache.get(rkey)
            if tbl is None:
                tbl = self._postings.to_table(
                    columns=cols,
                    filter=pc.field("shard").isin(shards)
                    & pc.field("range_id").isin([rid])
                    & pc.field("term").isin(want)
                )
                self._read_cache[rkey] = tbl
                while len(self._read_cache) > 64:
                    self._read_cache.pop(next(iter(self._read_cache)))
        else:  # match-all without prohibited terms: no postings needed
            tbl = self._postings.schema.empty_table()
        rows = {tbl["term"][i].as_py(): i for i in range(tbl.num_rows)}

        width = hi - lo
        # range-local norms — static per (range, field set), so resident
        # actors (PartitionedSearchService) and multi-range batches reuse
        # them across queries instead of re-reading the docs parquet
        docs_flt = (pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi)
        flds = sorted(
            {f for f, _, _, _, _ in field_clauses}
            | {f for _, sides, _ in dismax_clauses
               for f, _, _, _, a in sides if a is not None}
            | {f for f, _, _, _ in field_phrase_groups}
            | {f for f, _, _, _, _ in boost_groups if f}
        )
        if getattr(self, "_norms_cache", None) is None:
            self._norms_cache: dict = {}
        nkey = (rid, tuple(flds))
        hit = self._norms_cache.get(nkey)
        if hit is not None:
            norms, fnorms = hit
        else:
            dtab = self._docs.to_table(
                columns=["doc_id", "norm", *[f"norm_{f}" for f in flds]],
                filter=docs_flt,
            )
            norms = np.zeros(width, dtype=np.uint8)
            norms[dtab["doc_id"].to_numpy() - lo] = dtab["norm"].to_numpy()
            fnorms = {}
            for f in flds:
                a = np.zeros(width, dtype=np.uint8)
                a[dtab["doc_id"].to_numpy() - lo] = \
                    dtab[f"norm_{f}"].to_numpy()
                fnorms[f] = a
            self._norms_cache[nkey] = (norms, fnorms)
            while len(self._norms_cache) > 64:
                self._norms_cache.pop(next(iter(self._norms_cache)))

        scores = np.zeros(width, dtype=np.float64)
        seen = (
            np.zeros(width, dtype=np.int32)
            if conjunctive or min_should > 1 else None
        )
        n_terms = 0
        # plain terms and synonym groups interleave at the mapped term's
        # sort position — the single-engine _accumulate iterates
        # sorted(set(terms)) dispatching per kind, so the float order
        # matches bit-for-bit
        tb = (
            list(term_boosts) if len(term_boosts) == len(terms)
            else [1.0] * len(terms)
        )
        term_clauses = [
            (t, None, w, b) for t, w, b in zip(terms, idfs, tb)
        ] + [
            (key, list(g), w, 1.0) for key, g, w in syn_groups
        ]
        for term, members, w, b in sorted(term_clauses, key=lambda c: c[0]):
            n_terms += 1
            if members is None:
                tv = self._term_vec(tbl, rows, rid, term, lo, w, norms)
                if tv is None:
                    continue
                ids, vec = tv
                # boost AFTER the idf*impact product — the engine's
                # (cached score_vec) * boost float order, bit-identical
                # (×1.0 is an IEEE identity, so skipping it is exact)
                scores[ids] += vec if b == 1.0 else vec * b
                if seen is not None:
                    seen[ids] += 1
                continue
            acc = np.zeros(width, dtype=np.int64)
            hit = False
            for t in members:
                dec = self._decoded_row(tbl, rows, rid, t, lo)
                if dec is not None:
                    ids_t, tfs_t = dec
                    acc[ids_t] += tfs_t.astype(np.int64)
                    hit = True
            if hit:
                ids = np.flatnonzero(acc)
                tfs = acc[ids].astype(np.float64)
                dl = DECODE_TABLE[norms[ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
                scores[ids] += w * (tfs / (tfs + K))
                if seen is not None:
                    seen[ids] += 1
        # fielded clauses after plain terms (the _accumulate order):
        # per-field BM25 — field avgdl shipped, field norms range-local
        for fld, pterm, w, b, avgdl_f in sorted(
            field_clauses, key=lambda c: (c[0], c[1])
        ):
            n_terms += 1
            dec = self._decoded_row(tbl, rows, rid, pterm, lo)
            if dec is None:
                continue
            ids, tfs = dec
            dl = DECODE_TABLE[fnorms[fld][ids]]
            K = self.k1 * (1.0 - self.b + self.b * dl / avgdl_f)
            scores[ids] += (w * (tfs / (tfs + K))) * b
            if seen is not None:
                seen[ids] += 1
        # fielded phrase groups after fielded terms (_accumulate order):
        # span match over the field's positional stream, field norms/avgdl
        for fld, g, w, avgdl_f in sorted(
            field_phrase_groups, key=lambda c: (c[0], tuple(c[1]))
        ):
            n_terms += 1
            ids, freqs = self._eval_phrase_local(tbl, rows, g, lo)
            if ids.size:
                dl = DECODE_TABLE[fnorms[fld][ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / avgdl_f)
                scores[ids] += w * (freqs / (freqs + K))
                if seen is not None:
                    seen[ids] += 1
        # dismax clauses after fielded terms: max over per-field scores
        # + tie * rest (ship order = the engine's sorted-term order)
        for term, sides, tie in dismax_clauses:
            n_terms += 1
            parts = []
            for fld, lterm, w, fboost, avgdl_f in sides:
                dec = self._decoded_row(tbl, rows, rid, lterm, lo)
                if dec is None:
                    continue
                ids, tfs = dec
                nsrc = norms if avgdl_f is None else fnorms[fld]
                adl = self.avgdl if avgdl_f is None else avgdl_f
                dl = DECODE_TABLE[nsrc[ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / adl)
                # (idf * impact) * fboost — engine's score_vec * fboost
                parts.append((ids, (w * (tfs / (tfs + K))) * fboost))
            if not parts:
                continue
            if len(parts) == 1:
                ids, contrib = parts[0]
            else:
                # union-sized max/sum instead of width-dense passes —
                # the engine's sparse dismax shape, same float order
                ids = np.unique(np.concatenate([p[0] for p in parts]))
                best = np.zeros(ids.size, dtype=np.float64)
                tot = (np.zeros(ids.size, dtype=np.float64)
                       if tie != 0.0 else None)
                buf = np.zeros(ids.size, dtype=np.float64)
                for pids, pvec in parts:
                    pos = np.searchsorted(ids, pids)
                    buf[:] = 0.0
                    buf[pos] = pvec
                    np.maximum(best, buf, out=best)
                    if tot is not None:
                        tot += buf
                contrib = (best if tie == 0.0
                           else best + tie * (tot - best))
            scores[ids] += contrib
            if seen is not None:
                seen[ids] += 1
        # fuzzy groups after terms (the _accumulate clause order): tf
        # summed over members present in THIS range, one clause each
        for g, gw in fuzzy_groups:
            n_terms += 1
            acc = np.zeros(width, dtype=np.int64)
            hit = False
            for t in g:
                dec = self._decoded_row(tbl, rows, rid, t, lo)
                if dec is not None:
                    ids_t, tfs_t = dec
                    acc[ids_t] += tfs_t.astype(np.int64)
                    hit = True
            if hit:
                ids = np.flatnonzero(acc)
                tfs = acc[ids].astype(np.float64)
                dl = DECODE_TABLE[norms[ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
                scores[ids] += gw * (tfs / (tfs + K))
                if seen is not None:
                    seen[ids] += 1
        # phrase clauses after terms, ascending by member tuple — the same
        # pinned float order as SearchEngine._score_taat
        for ph, w in sorted(phrases, key=lambda p: tuple(p[0])):
            n_terms += 1
            ids, freqs = self._eval_phrase_local(tbl, rows, ph, lo)
            if ids.size:
                dl = DECODE_TABLE[norms[ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
                scores[ids] += w * (freqs / (freqs + K))
                if seen is not None:
                    seen[ids] += 1
        # proximity groups after phrases (_accumulate order): per-range
        # span-near match, weight from GLOBAL member dfs (shipped)
        for g, slop, w in near_groups:
            n_terms += 1
            ids, freqs = self._eval_near_local(tbl, rows, g, int(slop), lo)
            if ids.size:
                dl = DECODE_TABLE[norms[ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
                scores[ids] += w * (freqs / (freqs + K))
                if seen is not None:
                    seen[ids] += 1
        # wildcard groups: union of the group's local postings, + the
        # group's constant weight (1.0 or the clause boost) each
        for g, gw in prefix_groups:
            n_terms += 1
            hit = []
            for t in g:
                dec = self._decoded_row(tbl, rows, rid, t, lo)
                if dec is not None:
                    hit.append(dec[0])
            if hit:
                ids = np.unique(np.concatenate(hit))
                scores[ids] += gw
                if seen is not None:
                    seen[ids] += 1
        if match_all:
            # match-all / pure-filter shape: every doc present in this
            # range is a candidate at score 0.0 (Solr *:* semantics);
            # prohibitions + filters below subtract from it
            cand = np.sort(dtab["doc_id"].to_numpy() - lo)
        elif seen is not None:
            # conjunctive: every shipped clause; mm: the driver-resolved
            # optional-clause minimum (same per-range gating — each doc
            # lives in exactly one range, so local counts are global)
            cand = np.flatnonzero(
                seen >= (n_terms if conjunctive else min_should)
            )
        else:
            cand = np.flatnonzero(scores > 0.0)
        # edismax pf boost clauses join AFTER membership (score-only:
        # they rerank the main query's matches, never extend them)
        for fld, g, slop, w, avgdl_f in boost_groups:
            if int(slop) == 0:
                ids, freqs = self._eval_phrase_local(tbl, rows, g, lo)
            else:
                ids, freqs = self._eval_near_local(tbl, rows, g,
                                                   int(slop), lo)
            if ids.size:
                nsrc = norms if not fld else fnorms[fld]
                adl = self.avgdl if not fld else float(avgdl_f)
                dl = DECODE_TABLE[nsrc[ids]]
                K = self.k1 * (1.0 - self.b + self.b * dl / adl)
                scores[ids] += w * (freqs / (freqs + K))
        if cand.size:
            # prohibitions + metadata/range filters, range-local
            dead = np.zeros(width, dtype=bool)
            for term in prohibited:
                dec = self._decoded_row(tbl, rows, rid, term, lo)
                if dec is not None:
                    dead[dec[0]] = True
            # prohibited expansion groups (negated prefix/wildcard/fuzzy):
            # union of the members' local postings
            for g in prohibited_groups:
                for t in g:
                    dec = self._decoded_row(tbl, rows, rid, t, lo)
                    if dec is not None:
                        dead[dec[0]] = True
            # prohibited positional clauses: [members, slop] with slop -1
            # meaning exact phrase
            for g, slop in prohibited_pos:
                if int(slop) < 0:
                    ids, _ = self._eval_phrase_local(tbl, rows, g, lo)
                else:
                    ids, _ = self._eval_near_local(tbl, rows, g, int(slop), lo)
                dead[ids] = True
            if filters:
                # dead = docs failing ANY positive filter (NOT the AND of
                # matches; a doc passing one filter but failing another is
                # still excluded)
                match = None
                for fld, val in filters.items():
                    e = SearchEngine._filter_value_expr(fld, val)
                    match = e if match is None else match & e
                bad = self._docs.to_table(
                    columns=["doc_id"], filter=docs_flt & ~match
                )
                dead[bad["doc_id"].to_numpy() - lo] = True
            for fld, val in neg_filters:
                bad = self._docs.to_table(
                    columns=["doc_id"],
                    filter=docs_flt
                    & SearchEngine._filter_value_expr(fld, val),
                )
                dead[bad["doc_id"].to_numpy() - lo] = True
            schema = self._docs.schema
            for rf in range_filters:
                bad = self._docs.to_table(
                    columns=["doc_id"],
                    filter=docs_flt
                    & ~_typed_range_expr(schema, _rf_from_dict(rf)),
                )
                dead[bad["doc_id"].to_numpy() - lo] = True
            for rf in neg_range_filters:
                bad = self._docs.to_table(
                    columns=["doc_id"],
                    filter=docs_flt
                    & _typed_range_expr(schema, _rf_from_dict(rf)),
                )
                dead[bad["doc_id"].to_numpy() - lo] = True
            for sv in spatial_filters:
                bad = self._docs.to_table(
                    columns=["doc_id"],
                    filter=docs_flt
                    & _spatial_nonmatch_expr(_sf_from_list(sv)),
                )
                dead[bad["doc_id"].to_numpy() - lo] = True
            for sv in neg_spatial_filters:
                bad = self._docs.to_table(
                    columns=["doc_id"],
                    filter=docs_flt & _spatial_pred_expr(_sf_from_list(sv)),
                )
                dead[bad["doc_id"].to_numpy() - lo] = True
            cand = cand[~dead[cand]]
        return cand, scores, lo

    def _phrase_fetch_terms(self, group):
        """Postings terms an exact-phrase group reads in this range, and
        whether it needs the positions column: the single bigram key
        (2 terms), the bigram chain keys (3+, positions present), or the
        member terms themselves (positional fallback).  Must stay in
        lockstep with the routing in :meth:`_eval_phrase_local`."""
        if self.has_bigrams:
            key = _bigram_postings_key(group, self.bigram_first)
            if key is not None:
                return [key], False
            if self.has_positions:
                chain = _bigram_chain_keys(group, self.bigram_first)
                if chain is not None:
                    return chain, True
        return list(group), True

    def _eval_phrase_local(self, tbl, rows, phrase, lo):
        """Exact-phrase match within one doc range -> (local ids, freqs)."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if self.has_bigrams:
            key = _bigram_postings_key(list(phrase), self.bigram_first)
            if key is not None:
                # one bigram postings row IS the range's phrase match set
                # (_candidates_range added the key to the postings read);
                # absence means no doc in this range contains the pair
                ri = rows.get(key)
                if ri is None:
                    return empty
                ids = decode_doc_ids(tbl["doc_ids"][ri].as_py())
                tfs = varint_decode(tbl["tfs"][ri].as_py())
                return ids - lo, tfs.astype(np.float64)
            if self.has_positions:
                chain = _bigram_chain_keys(list(phrase),
                                           self.bigram_first)
                if chain is not None:
                    # 3+ terms: the exact matcher below runs over the
                    # pair streams (first-token positions) — same freqs,
                    # far rarer rows than the common member terms
                    phrase = chain
        decoded = {}
        for t in dict.fromkeys(phrase):
            ri = rows.get(t)
            if ri is None:
                return empty
            ids = decode_doc_ids(tbl["doc_ids"][ri].as_py())
            tfs = varint_decode(tbl["tfs"][ri].as_py()).astype(np.int64)
            decoded[t] = (ids, tfs, tbl["positions"][ri].as_py() or b"")
        out = _phrase_keys_local(decoded, list(phrase))
        if out is None:
            out = _segments_local(decoded, list(phrase), None)
        out_docs, freqs = out
        return out_docs - lo, freqs.astype(np.float64)

    @staticmethod
    def _eval_near_local(tbl, rows, terms, slop, lo):
        """Span-near match within one doc range -> (local ids, freqs)."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        decoded = {}
        for t in dict.fromkeys(terms):
            ri = rows.get(t)
            if ri is None:
                return empty
            ids = decode_doc_ids(tbl["doc_ids"][ri].as_py())
            tfs = varint_decode(tbl["tfs"][ri].as_py()).astype(np.int64)
            decoded[t] = (ids, tfs, tbl["positions"][ri].as_py() or b"")
        out = _near_keys_local(decoded, list(terms), slop)
        if out is None:
            out = _segments_local(decoded, list(terms), slop)
        out_docs, freqs = out
        return out_docs - lo, freqs.astype(np.float64)


def search_sharded(index_dirs, query: str, k: int = 10,
                   qf: str | None = None, tie: float = 0.0,
                   fq=None) -> pa.Table:
    """Distributed search across MULTIPLE independent indexes — Solr's
    ``shards=`` multi-core search with **exact global statistics**
    (ExactStatsCache): N, avgdl and every term's df are merged across
    shards before scoring, so scores equal a single index over the union
    corpus (Solr's default per-shard IDF skew does not occur).

    Returns ``(shard, doc_id, score)`` rows — doc ids are shard-local
    (Solr returns per-core ids + shard address the same way).  Supports
    terms/phrases/prefixes/fuzzies/wildcards with boosts, filters,
    prohibitions and range filters; ``fq`` applies per shard (Solr
    evaluates filter queries on every shard); ties break by (shard,
    doc_id) ascending.  Parenthesized boolean grouping is not federated
    yet.
    """
    if has_group_syntax(query or ""):
        raise ValueError(
            "grouped boolean queries are not supported across shard "
            "federation yet; query each shard's engine directly"
        )
    engines = [SearchEngine(d) for d in index_dirs]
    pins = {
        (e.stats.get("analyzer_default"),
         tuple(sorted((e.stats.get("analyzer_lang_map") or {}).items())),
         tuple(e.stats.get("filters", ()) or ()),
         tuple(e.stats.get("stopwords", ()) or ()),
         e.k1, e.b)
        for e in engines
    }
    if len(pins) != 1:
        raise ValueError("shards disagree on analyzer/BM25 pins")
    e0 = engines[0]
    parsed = e0._parse(query)
    if qf is not None:
        parsed = e0._apply_qf(parsed, qf, tie)
    if parsed.field_terms or parsed.field_phrases or parsed.dismax \
            or parsed.prohibited_field_terms \
            or parsed.prohibited_field_phrases:
        fps = {tuple(sorted(e.scored_fields)) for e in engines}
        if len(fps) != 1 or not fps.pop():
            raise ValueError(
                "fielded clauses need every shard built with the same "
                "analyzed_fields"
            )

    # ---- exact global stats (the ExactStatsCache exchange) --------------
    n_global = sum(e.n_docs for e in engines)
    sum_dl = sum(int(e.stats["sum_dl"]) for e in engines)
    avgdl = (sum_dl / n_global) if n_global else 0.0
    per_shard = [e.lookup_postings(parsed.terms) for e in engines]
    terms = sorted({t for p in per_shard for t in p})
    df_global = {
        t: sum(p[t].df for p in per_shard if t in p) for t in terms
    }

    def idf(df):
        return math.log(1.0 + (n_global - df + 0.5) / (df + 0.5))

    # phrase + proximity member dfs, merged once across shards (same
    # exchange)
    member_terms = sorted(
        {t for ph in parsed.phrases for t in ph}
        | {t for ph, _ in parsed.near_phrases for t in ph}
    )
    # df-only per shard: phrase/near weights need member dfs, never
    # member postings (each shard's span match re-reads its own slice)
    member_shard = [e.lookup_dfs(member_terms) for e in engines]
    mdf_global = {
        t: sum(p[t] for p in member_shard if t in p)
        for t in member_terms
    }

    # fuzzy expansion = union of every shard's dictionary matches; the
    # blended group df is the MAX over GLOBAL member dfs (same
    # ExactStatsCache discipline as terms/phrases)
    fuzzy_members = {
        fz: sorted(set().union(*(set(e.expand_fuzzy(*fz)) for e in engines)))
        for fz in sorted(set(parsed.fuzzies))
    }
    all_fz_members = sorted(
        {m for mem in fuzzy_members.values() for m in mem}
    )
    fz_shard = [e.lookup_postings(all_fz_members) for e in engines]
    fdf_global = {
        m: sum(p[m].df for p in fz_shard if m in p) for m in all_fz_members
    }

    # per-field exact global stats: docCount/avgdl merged like N/avgdl;
    # field-term / field-phrase-member / dismax dfs merged over the
    # shards' prefixed postings (the same ExactStatsCache exchange)
    fstat_global = {}
    for fld in e0.scored_fields:
        nd = sum(
            int((e.stats.get("field_stats") or {}).get(fld, {})
                .get("n_docs", 0)) for e in engines
        )
        sdl = sum(
            int((e.stats.get("field_stats") or {}).get(fld, {})
                .get("sum_dl", 0)) for e in engines
        )
        fstat_global[fld] = (nd, (sdl / nd) if nd else 1.0)
    f_pref = sorted(
        {f"{fld}\x1f{t}" for fld, t in parsed.field_terms}
        | {f"{fld}\x1f{t}" for fld, ph in parsed.field_phrases for t in ph}
    )
    fp_shard = [e.lookup_postings(f_pref) for e in engines]
    fpdf_global = {
        p: sum(s[p].df for s in fp_shard if p in s) for p in f_pref
    }

    def fidf(fld, df):
        nd, _ = fstat_global[fld]
        return math.log(1.0 + (nd - df + 0.5) / (df + 0.5))

    dm_content = sorted(
        {t for t, fp in parsed.dismax for f, _ in fp if f == "content"}
    )
    dmc_shard = [e.lookup_postings(dm_content) for e in engines]
    dmc_df = {
        t: sum(s[t].df for s in dmc_shard if t in s) for t in dm_content
    }
    dm_field = sorted(
        {(f, t) for t, fp in parsed.dismax for f, _ in fp if f != "content"}
    )
    dmf_shard = [
        e.lookup_postings([f"{f}\x1f{t}" for f, t in dm_field])
        for e in engines
    ]
    dmf_df = {
        (f, t): sum(
            s[f"{f}\x1f{t}"].df for s in dmf_shard
            if f"{f}\x1f{t}" in s
        )
        for f, t in dm_field
    }

    required = parsed.scoring_clauses if parsed.conjunctive else 1
    hits = []
    for si, e in enumerate(engines):
        scores = np.zeros(e.doc_space, dtype=np.float64)
        seen = (
            np.zeros(e.doc_space, dtype=np.int32)
            if parsed.conjunctive else None
        )
        K_cache: dict = {}

        def K_of(eng, ids):
            dl = DECODE_TABLE[eng.norms[ids]]
            return eng.k1 * (1.0 - eng.b + eng.b * dl / avgdl)

        for t in terms:
            tp = per_shard[si].get(t)
            if tp is None:
                continue
            w = idf(df_global[t])
            b = parsed.boosts.get(t)
            if b is not None:
                w *= b
            scores[tp.doc_ids] += w * (
                tp.tfs / (tp.tfs + K_of(e, tp.doc_ids))
            )
            if seen is not None:
                seen[tp.doc_ids] += 1

        def K_field(eng, fld, ids):
            _, av = fstat_global[fld]
            dl = DECODE_TABLE[eng.field_norms(fld)[ids]]
            return eng.k1 * (1.0 - eng.b + eng.b * dl / av)

        for ft in sorted(set(parsed.field_terms)):
            fld, term = ft
            p = f"{fld}\x1f{term}"
            df_f = fpdf_global.get(p, 0)
            tp = fp_shard[si].get(p)
            if tp is None or df_f == 0:
                continue
            w = fidf(fld, df_f)
            b = parsed.field_term_boosts.get(ft)
            if b is not None:
                w *= b
            scores[tp.doc_ids] += w * (
                tp.tfs / (tp.tfs + K_field(e, fld, tp.doc_ids))
            )
            if seen is not None:
                seen[tp.doc_ids] += 1
        for fp in sorted(set(parsed.field_phrases)):
            fld, ph = fp
            if any(
                fpdf_global.get(f"{fld}\x1f{t}", 0) == 0 for t in ph
            ):
                continue  # a member absent on every shard
            w = float(
                sum(fidf(fld, fpdf_global[f"{fld}\x1f{t}"]) for t in ph)
            )
            b = parsed.field_phrase_boosts.get(fp)
            if b is not None:
                w *= b
            docs, freqs, _ = e.eval_field_phrase(fld, list(ph))
            if docs.size:
                scores[docs] += w * (
                    freqs.astype(np.float64)
                    / (freqs + K_field(e, fld, docs))
                )
                if seen is not None:
                    seen[docs] += 1
        for term, fpairs in parsed.dismax:
            best = tot = matched = None
            for fld, fboost in fpairs:
                if fld == "content":
                    tp = dmc_shard[si].get(term)
                    dfv = dmc_df.get(term, 0)
                    if tp is None or dfv == 0:
                        continue
                    val = (idf(dfv) * (
                        tp.tfs / (tp.tfs + K_of(e, tp.doc_ids))
                    )) * fboost
                else:
                    p = f"{fld}\x1f{term}"
                    tp = dmf_shard[si].get(p)
                    dfv = dmf_df.get((fld, term), 0)
                    if tp is None or dfv == 0:
                        continue
                    val = (fidf(fld, dfv) * (
                        tp.tfs
                        / (tp.tfs + K_field(e, fld, tp.doc_ids))
                    )) * fboost
                dense = np.zeros(e.doc_space, dtype=np.float64)
                dense[tp.doc_ids] = val
                if best is None:
                    best, tot = dense, dense.copy()
                    matched = np.zeros(e.doc_space, dtype=bool)
                else:
                    np.maximum(best, dense, out=best)
                    tot += dense
                matched[tp.doc_ids] = True
            if best is None:
                continue
            tie = parsed.dismax_tie
            contrib = best if tie == 0.0 else best + tie * (tot - best)
            docs = np.flatnonzero(matched)
            scores[docs] += contrib[docs]
            if seen is not None:
                seen[docs] += 1
        for fz in sorted(set(parsed.fuzzies)):
            members = [
                m for m in fuzzy_members[fz] if m in fz_shard[si]
            ]
            group_df = max(
                (fdf_global[m] for m in fuzzy_members[fz]
                 if fdf_global.get(m, 0) > 0),
                default=0,
            )
            if not members or group_df == 0:
                continue
            acc = np.zeros(e.doc_space, dtype=np.int64)
            for m in members:
                tp = fz_shard[si][m]
                acc[tp.doc_ids] += tp.tfs
            docs = np.flatnonzero(acc)
            w = idf(group_df)
            b = parsed.fuzzy_boosts.get(fz)
            if b is not None:
                w *= b
            tfs = acc[docs].astype(np.float64)
            scores[docs] += w * (tfs / (tfs + K_of(e, docs)))
            if seen is not None:
                seen[docs] += 1
        for ph in sorted(map(tuple, parsed.phrases)):
            # per-shard positional match; weight from GLOBAL member dfs
            if any(mdf_global.get(t, 0) == 0 for t in ph):
                continue  # a member absent everywhere: unmatchable
            w = float(sum(idf(mdf_global[t]) for t in ph))
            b = parsed.phrase_boosts.get(ph)
            if b is not None:
                w *= b
            docs, freqs, _ = e.eval_phrase(list(ph))
            if docs.size:
                scores[docs] += w * (
                    freqs.astype(np.float64)
                    / (freqs + K_of(e, docs))
                )
                if seen is not None:
                    seen[docs] += 1
        for np_clause in sorted(parsed.near_phrases):
            # per-shard span-near match; weight from GLOBAL member dfs
            terms_np, slop = np_clause
            if any(mdf_global.get(t, 0) == 0 for t in terms_np):
                continue  # a member absent everywhere: unmatchable
            w = float(sum(idf(mdf_global[t]) for t in terms_np))
            b = parsed.near_boosts.get(np_clause)
            if b is not None:
                w *= b
            docs, freqs, _ = e.eval_near(terms_np, slop)
            if docs.size:
                scores[docs] += w * (
                    freqs.astype(np.float64) / (freqs + K_of(e, docs))
                )
                if seen is not None:
                    seen[docs] += 1
        for pre in sorted(parsed.prefixes):
            docs = e.eval_prefix(pre)
            if docs.size:
                scores[docs] += parsed.prefix_boosts.get(pre, 1.0)
                if seen is not None:
                    seen[docs] += 1
        for pat in sorted(set(parsed.wildcards)):
            docs = e.eval_pattern(pat)
            if docs.size:
                scores[docs] += parsed.wildcard_boosts.get(pat, 1.0)
                if seen is not None:
                    seen[docs] += 1
        cand = (
            np.flatnonzero(seen >= required)
            if seen is not None else np.flatnonzero(scores > 0.0)
        )
        excluded = e._merge_fq_mask(e._excluded_mask(parsed), fq)
        if excluded is not None and cand.size:
            cand = cand[~excluded[cand]]
        for d, s in _select_topk(cand, scores[cand], k):
            hits.append((si, d, s))

    hits.sort(key=lambda h: (-h[2], h[0], h[1]))
    top = hits[:k]
    return pa.table(
        {
            "shard": pa.array([h[0] for h in top], pa.int64()),
            "doc_id": pa.array([h[1] for h in top], pa.int64()),
            "score": pa.array([h[2] for h in top], pa.float64()),
        }
    )


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
    ids = engine.match_ids(query)
    fqm = engine._merge_fq_mask(None, fq)
    if fqm is not None and ids.size:
        ids = ids[~fqm[ids]]
    mask = np.zeros(engine.doc_space, dtype=bool)
    mask[ids] = True
    mask_ref = ray.put(mask)
    columns = sorted(set(fl) | {"doc_id"}) if fl else None

    def keep(batch: pa.Table) -> pa.Table:
        m = ray.get(mask_ref)  # zero-copy view of the broadcast bitmap
        return batch.filter(pa.array(m[batch["doc_id"].to_numpy()]))

    ds = rd.read_parquet(
        os.path.join(engine.index_dir, "docs"), columns=columns
    ).map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    if sort:
        keys, desc = [], []
        for part in sort.split(","):
            toks = part.split()
            if not toks:
                continue
            keys.append(toks[0])
            order = toks[1].lower() if len(toks) > 1 else "asc"
            if order not in ("asc", "desc"):
                raise ValueError(f"bad sort direction in {sort!r}")
            desc.append(order == "desc")
        ds = ds.sort(keys, descending=desc)
    ds.write_parquet(dest)
    return {"dest": os.fspath(dest), "n_docs": int(ids.size)}


def _search_partitioned_match_all(engine: SearchEngine, parsed,
                                  index_dir: str, k: int, fq) -> pa.Table:
    """Distributed match-all / pure-filter query (formerly a single-engine
    fallback): every range returns its first-k live docs at score 0.0
    after applying the shipped filter recipe; the driver k-way merges by
    doc id — the same order the single engine produces for score ties."""
    import json

    import ray.data as rd

    extras = list(_exclusion_extras(engine, parsed)) + [
        [], [], [], [], [], [], [],
    ]
    dpr = int(engine.stats["docs_per_range"])
    n_ranges = (engine.doc_space + dpr - 1) // dpr
    excl_map = _fq_excluded_by_range(engine, fq, dpr)
    for d_ in engine.tombstones:
        excl_map.setdefault(d_ // dpr, []).append(int(d_))
    items = [
        {
            "range_id": r,
            "terms": [],
            "idfs": [],
            "prohibited": sorted(set(parsed.prohibited)),
            "filter_keys": sorted(parsed.filters),
            "filter_vals": [parsed.filters[f] for f in sorted(parsed.filters)],
            "conjunctive": False,
            "min_should": 0,
            "match_all": True,
            "extras_json": json.dumps(extras),
            "excl": sorted(set(excl_map.get(r, ()))),
        }
        for r in range(n_ranges)
    ]

    def run(batch: dict) -> pa.Table:
        return RangeScorer(index_dir, k)(batch)

    partials = (
        rd.from_items(items)
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    partials.sort(key=lambda r: (-r["score"], r["doc_id"]))
    top = partials[:k]
    return pa.Table.from_pylist(
        top, schema=pa.schema([("doc_id", pa.int64()), ("score", pa.float64())])
    )


def _exclusion_extras(engine: SearchEngine, parsed: ParsedQuery) -> tuple:
    """The per-range dead-mask recipe (negative / range / spatial filters
    + prohibited expansion/positional clauses), in the wire shape the
    ``RangeScorer`` extras bundle carries — shared by the scored
    distributed path and the distributed match-all path."""
    for rf in (*parsed.range_filters, *parsed.neg_range_filters):
        engine._range_expr(rf)  # eager bound validation (driver-side raise)
    neg_filters = [[f, v] for f, v in sorted(parsed.neg_filters.items())]
    range_filters = [_rf_to_dict(rf) for rf in parsed.range_filters]
    neg_range_filters = [_rf_to_dict(rf) for rf in parsed.neg_range_filters]
    prohibited_groups = []
    for pre in sorted(set(parsed.prohibited_prefixes)):
        g = engine.expand_prefix(pre)
        if g:
            prohibited_groups.append(g)
    for pat in sorted(set(parsed.prohibited_wildcards)):
        g = engine.expand_pattern(pat)
        if g:
            prohibited_groups.append(g)
    for fz in sorted(set(parsed.prohibited_fuzzies)):
        g = engine.expand_fuzzy(*fz)
        if g:
            prohibited_groups.append(g)
    for fld, term in sorted(set(parsed.prohibited_field_terms)):
        # field-prefixed terms live in the shared postings structure, so
        # a singleton exclusion group is the whole recipe
        prohibited_groups.append([f"{fld}\x1f{term}"])
    prohibited_pos = [
        [list(ph), -1] for ph in sorted(map(tuple, parsed.prohibited_phrases))
    ] + [
        [list(nt), int(slop)]
        for nt, slop in sorted(set(parsed.prohibited_near))
    ] + [
        # prohibited FIELD phrases: prefixed members, the positional
        # matcher is field-agnostic (exclusion needs no stats)
        [[f"{fld}\x1f{t}" for t in ph], -1]
        for fld, ph in sorted(set(parsed.prohibited_field_phrases))
    ]
    for sf in (*parsed.spatial_filters, *parsed.neg_spatial_filters):
        engine._spatial_expr(sf)  # eager column validation (driver-side)
    spatial_filters = [_sf_to_list(sf) for sf in parsed.spatial_filters]
    neg_spatial_filters = [_sf_to_list(sf) for sf in parsed.neg_spatial_filters]
    return (neg_filters, range_filters, neg_range_filters,
            prohibited_groups, prohibited_pos,
            spatial_filters, neg_spatial_filters)


def _distributed_clauses(engine: SearchEngine, parsed: ParsedQuery,
                         query: str = ""):
    """Driver-side clause preparation shared by the distributed query and
    facet paths.

    Returns ``None`` when the query shape needs the single-engine path
    (match-all / negative phrase-or-prefix / fuzzy / grouped boolean /
    wildcard metadata filters), the string ``"zero"`` when the query
    provably matches nothing (AND with a clause absent from the index),
    else ``(terms, idfs, phrases, prefix_groups)`` ready to ship to range
    tasks."""
    if has_group_syntax(query):
        return None  # boolean tree: compiled separately (search_partitioned)
    if parsed.scoring_clauses == 0:
        return None  # match-all / pure-filter: single-engine path
    if (
        parsed.phrases or parsed.near_phrases
        or parsed.prohibited_phrases or parsed.prohibited_near
        or parsed.field_phrases or parsed.prohibited_field_phrases
        or parsed.boost_phrases
    ) and not engine.has_positions:
        # next-word index: 2-term exact phrases (incl. prohibited ones
        # and slop-0 content pf groups) ship distributed without
        # positions — the range tasks read bigram postings rows instead
        bf_ = engine.bigram_first
        bigram_serves = (
            engine.has_bigrams
            and not (parsed.near_phrases or parsed.prohibited_near
                     or parsed.field_phrases
                     or parsed.prohibited_field_phrases)
            and all(_bigram_postings_key(list(ph), bf_) is not None
                    for ph in parsed.phrases)
            and all(_bigram_postings_key(list(ph), bf_) is not None
                    for ph in parsed.prohibited_phrases)
            and all(fld is None and int(slop) == 0
                    and _bigram_postings_key(list(g), bf_) is not None
                    for fld, g, slop, _b in parsed.boost_phrases)
        )
        if not bigram_serves:
            return None  # positional clause on a non-positional index:
            #              the single engine raises its rebuild error
    # global df -> idf (small driver-side scout over postings df column;
    # phrase member dfs come from the same lookup)
    phrase_members = [t for ph in parsed.phrases for t in ph]
    syn_map = engine.synonyms or {}
    syn_members = [
        m for t in set(parsed.terms) if t in syn_map
        for m in (t, *syn_map[t])
    ]
    # df-only scout (lookup_dfs): the driver computes global idfs from
    # the (term, df) metadata columns and never reads postings blobs —
    # ranges read their own slices
    postings = engine.lookup_dfs(
        list(parsed.terms) + phrase_members + syn_members
    )
    # mapped terms score as blended groups at their sort position; the
    # group's presence (ANY member indexed) is what conjunction requires
    syn_groups = []
    plain = []
    for t in sorted(set(parsed.terms)):
        if t in syn_map:
            members = [m for m in dict.fromkeys((t, *syn_map[t]))
                       if m in postings]
            if not members:
                if parsed.conjunctive:
                    return "zero"
                continue
            w = engine.idf(max(postings[m] for m in members))
            b = parsed.boosts.get(t)
            if b is not None:
                w *= b
            syn_groups.append([t, members, float(w)])
        else:
            plain.append(t)
    terms = sorted(t for t in plain if t in postings)
    if parsed.conjunctive and len(terms) < len(plain):
        return "zero"  # AND with a term absent from the index
    phrases = []
    for ph in parsed.phrases:
        if all(t in postings for t in ph):
            w = float(sum(engine.idf(postings[t]) for t in ph))
            b = parsed.phrase_boosts.get(tuple(ph))
            if b is not None:
                w = w * b
            phrases.append([list(ph), w])
        elif parsed.conjunctive:
            return "zero"  # AND with an unmatchable phrase
    # wildcard clauses: expand once driver-side, ship [terms, weight]
    # groups — each range unions its local postings for the group
    # (constant score = 1.0 or the clause boost)
    prefix_groups = []
    for pre in parsed.prefixes:
        group = engine.expand_prefix(pre)
        if group:
            prefix_groups.append(
                [group, float(parsed.prefix_boosts.get(pre, 1.0))]
            )
        elif parsed.conjunctive:
            return "zero"  # AND with an unmatchable wildcard
    # general wildcards ship the same way: driver-side expansion into a
    # constant-score [terms, weight] group
    for pat in sorted(set(parsed.wildcards)):
        group = engine.expand_pattern(pat)
        if group:
            prefix_groups.append(
                [group, float(parsed.wildcard_boosts.get(pat, 1.0))]
            )
        elif parsed.conjunctive:
            return "zero"
    # fuzzy clauses: expand against the global dictionary once, ship
    # [members, weight] with weight = idf(max member GLOBAL df) x boost —
    # per-range tf-sum grouping then matches the single-engine blend
    fuzzy_groups = []
    for fz in sorted(set(parsed.fuzzies)):
        members = engine.expand_fuzzy(*fz)
        mpost = engine.lookup_dfs(members)
        dfs = [mpost[m] for m in members if m in mpost]
        if not dfs:
            if parsed.conjunctive:
                return "zero"  # AND with an unmatchable fuzzy clause
            continue
        w = engine.idf(max(dfs))
        b = parsed.fuzzy_boosts.get(fz)
        if b is not None:
            w *= b
        fuzzy_groups.append([sorted(m for m in members if m in mpost),
                             float(w)])
    # proximity clauses: weight = sum of GLOBAL member idfs x boost; the
    # per-range task span-near matches positions locally
    near_groups = []
    if parsed.near_phrases:
        near_members = sorted(
            {t for nt, _ in parsed.near_phrases for t in nt}
        )
        npost = engine.lookup_dfs(near_members)
        for nt, slop in sorted(parsed.near_phrases):
            if any(t not in npost for t in nt):
                if parsed.conjunctive:
                    return "zero"  # AND with an unmatchable near clause
                continue
            w = float(sum(engine.idf(npost[t]) for t in nt))
            b = parsed.near_boosts.get((nt, slop))
            if b is not None:
                w *= b
            near_groups.append([list(nt), int(slop), w])
    # fielded scored clauses: ship [fld, prefixed_term, idf_f x boost,
    # avgdl_f] — per-field stats are global driver state, the range task
    # reads its slice of the field's norm column
    field_clauses = []
    for ft in sorted(set(parsed.field_terms)):
        fld, term = ft
        fdf = engine.lookup_dfs([f"{fld}\x1f{term}"]).get(
            f"{fld}\x1f{term}"
        )
        if fdf is None:
            if parsed.conjunctive:
                return "zero"  # AND with an unmatchable field term
            continue
        doc_count, avgdl_f = engine._fstat(fld)
        w = engine.scoring.idf(doc_count, fdf)
        b = float(parsed.field_term_boosts.get(ft, 1.0))
        field_clauses.append(
            [fld, f"{fld}\x1f{term}", float(w), b, float(avgdl_f)]
        )
    # fielded PHRASE clauses: prefixed members + w = sum field idfs x
    # boost + field avgdl; the range task span-matches the field's
    # positional stream locally (positions are per-field by construction)
    field_phrase_groups = []
    for fp in sorted(set(parsed.field_phrases)):
        fld, ph = fp
        pref = [f"{fld}\x1f{t}" for t in ph]
        fpost = engine.lookup_dfs(pref)
        if any(p not in fpost for p in pref):
            if parsed.conjunctive:
                return "zero"  # AND with an unmatchable field phrase
            continue
        doc_count, avgdl_f = engine._fstat(fld)
        w = float(
            sum(engine.scoring.idf(doc_count, fpost[p]) for p in pref)
        )
        b = parsed.field_phrase_boosts.get(fp)
        if b is not None:
            w *= b
        field_phrase_groups.append([fld, pref, w, float(avgdl_f)])
    # dismax (qf) clauses: per term a [field, lookup_term, idf x fboost,
    # avgdl_f or None(=content)] side list + the tiebreaker
    dismax_clauses = []
    for term, fpairs in parsed.dismax:
        sides = []
        for fld, fboost in fpairs:
            if fld == "content":
                tpc = engine.lookup_dfs([term]).get(term)
                if tpc is None:
                    continue
                sides.append(
                    ["content", term, float(engine.idf(tpc)),
                     float(fboost), None]
                )
            else:
                fdf = engine.lookup_dfs(
                    [f"{fld}\x1f{term}"]
                ).get(f"{fld}\x1f{term}")
                if fdf is None:
                    continue
                doc_count, avgdl_f = engine._fstat(fld)
                sides.append(
                    [fld, f"{fld}\x1f{term}",
                     float(engine.scoring.idf(doc_count, fdf)),
                     float(fboost), float(avgdl_f)]
                )
        if not sides:
            if parsed.conjunctive:
                return "zero"  # AND with a fully-absent dismax clause
            continue
        dismax_clauses.append([term, sides, float(parsed.dismax_tie)])
    # edismax pf boost clauses: SCORE-ONLY groups [fld_or_"", members
    # (field-prefixed for fielded), slop, w = idf_sum x boost, avgdl_f
    # (0 = content) — absent members just drop the clause (pf never
    # gates membership, so no conjunctive/zero interaction)
    boost_groups = []
    for fld, g, slop, b in sorted(
        parsed.boost_phrases, key=lambda c: (c[0] or "", c[1], c[2], c[3])
    ):
        if fld is None:
            bpost = engine.lookup_dfs(list(g))
            if any(t not in bpost for t in g):
                continue
            w = float(sum(engine.idf(bpost[t]) for t in g)) * b
            boost_groups.append(["", list(g), int(slop), float(w), 0.0])
        else:
            pref = [f"{fld}\x1f{t}" for t in g]
            fpost = engine.lookup_dfs(pref)
            if any(p not in fpost for p in pref):
                continue
            doc_count, avgdl_f = engine._fstat(fld)
            w = float(sum(
                engine.scoring.idf(doc_count, fpost[p]) for p in pref
            )) * b
            boost_groups.append(
                [fld, pref, int(slop), float(w), float(avgdl_f)]
            )
    if not terms and not phrases and not prefix_groups and not fuzzy_groups \
            and not near_groups and not syn_groups \
            and not field_clauses and not dismax_clauses \
            and not field_phrase_groups:
        return "zero"
    # term weights ship as UNBOOSTED idf + a parallel boost list: the
    # range task computes (idf * impact) * boost — the engine's exact
    # float multiplication order (boost applied AFTER the impact product)
    idfs = []
    term_boosts = []
    for t in terms:
        idfs.append(engine.idf(postings[t]))
        term_boosts.append(float(parsed.boosts.get(t, 1.0)))
    # negative / range filters + prohibited expansion/positional clauses
    # ship as the per-range dead-mask recipe (extras bundle) — shared with
    # the distributed match-all path
    (neg_filters, range_filters, neg_range_filters, prohibited_groups,
     prohibited_pos, spatial_filters, neg_spatial_filters) = \
        _exclusion_extras(engine, parsed)
    # function-query boosts (bf/boost): the parsed ASTs are JSON-able
    # nested lists; referenced-field overlays (atomic updates) ship along
    # so range tasks score the same values the single engine reads
    func_boosts = []
    if parsed.boost_funcs or parsed.mult_funcs:
        from solr_indexer_ray.functions.funcquery import func_fields

        ffields = sorted({
            f for nd in (*parsed.boost_funcs, *parsed.mult_funcs)
            for f in func_fields(nd)
        })
        fov: dict = {}
        for did, cols in engine._load_overlays().items():
            for f in ffields:
                v = cols.get(f)
                if isinstance(v, (int, float)):
                    fov.setdefault(f, {})[str(did)] = float(v)
        func_boosts = [list(parsed.boost_funcs),
                       list(parsed.mult_funcs), fov]
    # bq boost queries: each compiles to one clause plan (the same
    # {"leaf"/"match"/"zero"} shapes the grouped-boolean path ships);
    # a bq the protocol can't express falls the whole query back to
    # the single engine
    bq_plans = []
    for sub, const in parsed.boost_queries:
        plan = _compile_bool_tree(engine, sub)
        if plan is None:
            return None
        bq_plans.append([plan, float(const)])
    extras = [neg_filters, range_filters, neg_range_filters,
              prohibited_groups, prohibited_pos,
              spatial_filters, neg_spatial_filters,
              field_clauses, dismax_clauses, field_phrase_groups,
              term_boosts, boost_groups, func_boosts, bq_plans]
    return (terms, idfs, phrases, prefix_groups, fuzzy_groups, near_groups,
            syn_groups, extras)


def _compile_bool_tree(engine: SearchEngine, node):
    """Compile a parsed boolean tree into a JSON-able per-range evaluation
    plan: every leaf becomes a driver-prepared clause bundle (global idf
    weights, expanded groups — the same preparation
    :func:`_distributed_clauses` does for flat queries).  Returns ``None``
    when any leaf has a shape only the single engine evaluates
    (negative multi-term clauses, range filters, wildcard metadata
    filters)."""
    if isinstance(node, BoolNode):
        kids = []
        for neg, child in node.children:
            c = _compile_bool_tree(engine, child)
            if c is None:
                return None
            kids.append([bool(neg), c])
        out = {"op": node.op, "children": kids}
        if node.boost != 1.0:
            out["boost"] = float(node.boost)
        return out
    parsed = node  # leaf ParsedQuery
    if parsed.scoring_clauses == 0:
        if (
            parsed.neg_filters or parsed.range_filters
            or parsed.neg_range_filters or parsed.prohibited
            or parsed.prohibited_phrases or parsed.prohibited_prefixes
            or parsed.prohibited_fuzzies or parsed.prohibited_wildcards
            or parsed.prohibited_near or parsed.spatial_filters
            or parsed.neg_spatial_filters
            or parsed.prohibited_field_terms
            or any(v.endswith("*") for v in parsed.filters.values())
        ):
            return None
        return {
            "match": {
                "filter_keys": sorted(parsed.filters),
                "filter_vals": [
                    parsed.filters[f] for f in sorted(parsed.filters)
                ],
            }
        }
    clauses = _distributed_clauses(engine, parsed)
    if clauses is None:
        return None
    if clauses == "zero":
        return {"zero": True}
    (terms, idfs, phrases, prefix_groups, fuzzy_groups, near_groups,
     syn_groups, extras) = clauses
    return {
        "leaf": {
            "terms": terms,
            "idfs": idfs,
            "prohibited": sorted(set(parsed.prohibited)),
            "filter_keys": sorted(parsed.filters),
            "filter_vals": [
                parsed.filters[f] for f in sorted(parsed.filters)
            ],
            "conjunctive": parsed.conjunctive,
            "phrases": phrases,
            "prefix_groups": prefix_groups,
            "fuzzy_groups": fuzzy_groups,
            "near_groups": near_groups,
            "syn_groups": syn_groups,
            "extras": extras,
        }
    }


class BoolRangeScorer:
    """Per-doc-range task for grouped boolean queries: evaluate the
    compiled clause tree over RANGE-LOCAL dense arrays (bounded by
    ``docs_per_range`` — the per-range answer to the single engine's
    doc-space-sized AST accumulators), same Lucene BooleanQuery zeroing
    as ``SearchEngine._eval_bool_node``; returns the range's top-k."""

    def __init__(self, index_dir: str, k: int = 10):
        self.scorer = RangeScorer(index_dir, k)
        self.k = k

    def __call__(self, batch: dict) -> pa.Table:
        import json

        out = []
        for i in range(len(batch["range_id"])):
            rid = int(batch["range_id"][i])
            tree = json.loads(str(batch["tree_json"][i]))
            excl = (list(batch["excl"][i])
                    if "excl" in batch else ())
            out.extend(self._score_range(rid, tree, excl))
        return pa.Table.from_pylist(
            out,
            schema=pa.schema(
                [("doc_id", pa.int64()), ("score", pa.float64())]
            ),
        )

    def _score_range(self, rid: int, tree, excl=()) -> list:
        sc = self.scorer
        lo, hi = rid * sc.dpr, (rid + 1) * sc.dpr
        width = hi - lo
        dtab = sc._docs.to_table(
            columns=["doc_id"],
            filter=(pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi),
        )
        present = np.zeros(width, dtype=bool)
        present[dtab["doc_id"].to_numpy() - lo] = True
        mask, scores = self._eval(rid, tree, lo, width)
        mask &= present
        if len(excl):
            # per-range tombstone/fq exclusion BEFORE the local top-k —
            # a range whose top-k would otherwise fill with deleted docs
            # must still surface its live matches
            ex = np.asarray(list(excl), dtype=np.int64) - lo
            ex = ex[(ex >= 0) & (ex < width)]
            mask[ex] = False
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            return []
        s = scores[cand]
        kk = min(self.k, cand.size)
        kth = -np.partition(-s, kk - 1)[kk - 1]
        idx = np.flatnonzero(s >= kth)
        order = np.lexsort((cand[idx], -s[idx]))[:kk]
        return [
            {"doc_id": int(cand[idx[o]] + lo), "score": float(s[idx[o]])}
            for o in order
        ]

    def _eval(self, rid: int, tree, lo: int, width: int):
        return _eval_plan_range(self.scorer, rid, tree, lo, width)


def _eval_plan_range(sc, rid: int, tree, lo: int, width: int):
    """Dense range-local (mask, scores) for one compiled clause plan
    ({"op"}/{"leaf"}/{"match"}/{"zero"} — :func:`_compile_bool_tree`).
    Shared by the grouped-boolean range tasks and the distributed bq
    path (each bq ships as one compiled plan)."""
    if "op" in tree:
        # same semantics as SearchEngine._eval_bool_node: negated
        # children are MUST_NOT in both ops, OPT is mask-neutral,
        # boost scales subtree scores
        pos_mask = None
        neg_mask = None
        scores = np.zeros(width, dtype=np.float64)
        for neg, child in tree["children"]:
            m, s = _eval_plan_range(sc, rid, child, lo, width)
            if neg:
                neg_mask = (
                    m.copy() if neg_mask is None else (neg_mask | m)
                )
                continue
            scores += s
            if pos_mask is None:
                pos_mask = m.copy()
            elif tree["op"] == "AND":
                pos_mask &= m
            else:
                pos_mask |= m
        if tree["op"] == "OPT":
            mask = np.ones(width, dtype=bool)
        elif pos_mask is None:
            mask = np.zeros(width, dtype=bool)  # pure-negative: nothing
        else:
            mask = pos_mask
        if neg_mask is not None:
            mask = mask & ~neg_mask
        scores[~mask] = 0.0
        boost = float(tree.get("boost", 1.0))
        if boost != 1.0:
            scores *= boost
        return mask, scores
    if "zero" in tree:
        return (
            np.zeros(width, dtype=bool),
            np.zeros(width, dtype=np.float64),
        )
    if "match" in tree:
        m = tree["match"]
        flt = (pc.field("doc_id") >= lo) & (pc.field("doc_id") < lo + width)
        for fld, val in zip(m["filter_keys"], m["filter_vals"]):
            flt = flt & (pc.field(fld) == val)
        t = sc._docs.to_table(columns=["doc_id"], filter=flt)
        mask = np.zeros(width, dtype=bool)
        mask[t["doc_id"].to_numpy() - lo] = True
        return mask, np.zeros(width, dtype=np.float64)
    b = tree["leaf"]
    cand, scores, _lo = sc._candidates_range(
        rid, list(b["terms"]), list(b["idfs"]), list(b["prohibited"]),
        dict(zip(b["filter_keys"], b["filter_vals"])),
        bool(b["conjunctive"]), b["phrases"], b["prefix_groups"],
        b["fuzzy_groups"], b["near_groups"], b["syn_groups"],
        *b.get("extras", ([], [], [], [], [], [], [])),
    )
    mask = np.zeros(width, dtype=bool)
    out = np.zeros(width, dtype=np.float64)
    if cand.size:
        mask[cand] = True
        out[cand] = scores[cand]
    return mask, out


def search_partitioned(index_dir: str, query: str, k: int = 10,
                       synonyms=None, qf: str | None = None,
                       tie: float = 0.0, mm=None,
                       pf: str | None = None, ps: int = 0,
                       pf2: str | None = None,
                       pf3: str | None = None,
                       bf=None, boost=None, bq=None,
                       fq=None) -> pa.Table:
    """Distributed top-k: fan out per doc range, merge local top-k.

    Bit-identical to ``SearchEngine.search(..., method='taat')`` (tested);
    this is the layout-parallel path a multi-node deployment uses — the
    driver ships only (terms, global idf weights), each range task touches
    only its partition's postings + norms, and the merge handles k·ranges
    rows.  Grouped boolean queries compile into a per-range clause-tree
    plan (:class:`BoolRangeScorer`) so their dense evaluation stays
    bounded by ``docs_per_range``.
    """
    import json

    import ray.data as rd

    engine = SearchEngine(index_dir, synonyms=synonyms)
    parsed = engine._parse(query)
    free_seq = list(parsed.terms)
    if qf is not None:
        parsed = engine._apply_qf(parsed, qf, tie)
    if mm is not None:
        engine._apply_mm(parsed, query, mm)
    if pf or pf2 or pf3:
        if has_group_syntax(query or ""):
            raise ValueError(
                "pf is a dismax/edismax parameter; use explicit phrase "
                "clauses inside grouped boolean queries"
            )
        engine._apply_pf(parsed, free_seq, pf, ps, pf2, pf3)
    if bf is not None or boost is not None:
        if has_group_syntax(query or ""):
            raise ValueError(
                "bf/boost are dismax/edismax parameters; not supported "
                "with grouped boolean queries"
            )
        if parsed.scoring_clauses == 0:
            raise ValueError(
                "bf/boost rerank a scored match set; match-all / "
                "pure-filter queries have none"
            )
        parsed.boost_funcs, parsed.mult_funcs = engine._prepare_funcs(
            bf, boost
        )
    if bq is not None:
        if has_group_syntax(query or ""):
            raise ValueError(
                "bq is a dismax/edismax parameter; not supported with "
                "grouped boolean queries"
            )
        if parsed.scoring_clauses == 0:
            raise ValueError(
                "bq reranks a scored match set; match-all / "
                "pure-filter main queries have none"
            )
        parsed.boost_queries = engine._prepare_bq(bq)

    def _empty():
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}
        )

    if has_group_syntax(query or ""):
        ast = engine._parse_bool(query)
        tree = (
            _compile_bool_tree(engine, ast) if ast is not None else None
        )
        if tree is None:
            return engine.search(query, k=k, fq=fq)
        dpr_b = int(engine.stats["docs_per_range"])
        n_ranges = (engine.doc_space + dpr_b - 1) // dpr_b
        tombs_b: dict = {}
        for d_ in engine.tombstones:
            tombs_b.setdefault(d_ // dpr_b, []).append(d_)
        # fq rides the same per-range exclusion slot as tombstones (Solr
        # applies fq on every shard) — the former single-engine fallback
        for r_, ids_ in _fq_excluded_by_range(engine, fq, dpr_b).items():
            cur = set(tombs_b.get(r_, ()))
            cur.update(int(x) for x in ids_)
            tombs_b[r_] = sorted(cur)
        items = [
            {"range_id": r, "tree_json": json.dumps(tree),
             "excl": sorted(tombs_b.get(r, []))}
            for r in range(n_ranges)
        ]

        def run_tree(batch: dict) -> pa.Table:
            return BoolRangeScorer(index_dir, k)(batch)

        partials = (
            rd.from_items(items)
            .map_batches(run_tree, batch_size=1, batch_format="numpy",
                         num_cpus=1)
            .take_all()
        )
        partials.sort(key=lambda r: (-r["score"], r["doc_id"]))
        top = partials[:k]
        return pa.Table.from_pylist(
            top,
            schema=pa.schema(
                [("doc_id", pa.int64()), ("score", pa.float64())]
            ),
        )

    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None:
        pos_exclusions = (
            parsed.prohibited_phrases or parsed.prohibited_near
            or parsed.prohibited_field_phrases
        )
        bigram_excl_ok = (
            engine.has_bigrams
            and not (parsed.prohibited_near
                     or parsed.prohibited_field_phrases)
            and all(
                _bigram_postings_key(list(ph), engine.bigram_first)
                is not None for ph in parsed.prohibited_phrases
            )
        )
        if (
            parsed.scoring_clauses == 0
            and (engine.has_positions or not pos_exclusions
                 or bigram_excl_ok)
            and not any((pf, pf2, pf3, bf, boost, bq))
        ):
            # match-all / pure-filter: distribute as per-range
            # first-k at score 0.0 through the same filter machinery
            return _search_partitioned_match_all(
                engine, parsed, index_dir, k, fq
            )
        # remaining single-engine shapes: positional exclusions on a
        # non-positional index (the engine raises its clear rebuild
        # error) and match-all combined with score-shaping params
        return engine.search(query, k=k, mm=mm, pf=pf, ps=ps,
                             pf2=pf2, pf3=pf3, bf=bf, boost=boost,
                             bq=bq, fq=fq)
    if clauses == "zero":
        return _empty()
    (terms, idfs, phrases, prefix_groups, fuzzy_groups, near_groups,
     syn_groups, extras) = clauses
    dpr = int(engine.stats["docs_per_range"])
    n_ranges = (engine.doc_space + dpr - 1) // dpr
    fq_excl = _fq_excluded_by_range(engine, fq, dpr)
    for d_ in engine.tombstones:
        fq_excl.setdefault(d_ // dpr, []).append(int(d_))
    items = [
        {
            "range_id": r,
            "terms": terms,
            "idfs": idfs,
            "prohibited": sorted(set(parsed.prohibited)),
            "filter_keys": sorted(parsed.filters),
            "filter_vals": [parsed.filters[f] for f in sorted(parsed.filters)],
            "conjunctive": parsed.conjunctive,
            "min_should": int(parsed.min_should),
            "phrases_json": json.dumps(phrases),
            "prefix_groups_json": json.dumps(prefix_groups),
            "fuzzy_groups_json": json.dumps(fuzzy_groups),
            "near_groups_json": json.dumps(near_groups),
            "syn_groups_json": json.dumps(syn_groups),
            "extras_json": json.dumps(extras),
            "excl": fq_excl.get(r, []),
        }
        for r in range(n_ranges)
    ]

    def run(batch: dict) -> pa.Table:
        return RangeScorer(index_dir, k)(batch)

    partials = (
        rd.from_items(items)
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    partials.sort(key=lambda r: (-r["score"], r["doc_id"]))
    top = partials[:k]
    return pa.Table.from_pylist(
        top, schema=pa.schema([("doc_id", pa.int64()), ("score", pa.float64())])
    )


class FacetRangeCounter:
    """Per-doc-range facet task: compute the range-local match set (same
    candidate logic as :class:`RangeScorer`), then value-count the facet
    fields over the matched slice of the docs table.  The driver sums the
    per-range partials — a pre-aggregated (combiner) groupby with no
    shuffle, which is how faceting must run at 10^12 docs."""

    def __init__(self, index_dir: str, fields):
        self.scorer = RangeScorer(index_dir)
        self.fields = list(fields)

    def __call__(self, batch: dict) -> pa.Table:
        import json

        out: list = []
        for i in range(len(batch["range_id"])):
            rid = int(batch["range_id"][i])
            cand, _, lo = self.scorer._candidates_range(
                rid,
                list(batch["terms"][i]),
                list(batch["idfs"][i]),
                list(batch["prohibited"][i]),
                dict(zip(batch["filter_keys"][i], batch["filter_vals"][i])),
                bool(batch["conjunctive"][i]),
                json.loads(str(batch["phrases_json"][i])),
                json.loads(str(batch["prefix_groups_json"][i])),
                json.loads(str(batch["fuzzy_groups_json"][i]))
                if "fuzzy_groups_json" in batch else [],
                json.loads(str(batch["near_groups_json"][i]))
                if "near_groups_json" in batch else [],
                json.loads(str(batch["syn_groups_json"][i]))
                if "syn_groups_json" in batch else [],
                *(json.loads(str(batch["extras_json"][i]))
                  if "extras_json" in batch else ([], [], [], [], [], [], [])),
            )
            tombs = np.asarray(list(batch["tombs"][i]), dtype=np.int64)
            if tombs.size and cand.size:
                cand = cand[~np.isin(cand + lo, tombs)]
            if cand.size == 0:
                continue
            hi = lo + self.scorer.dpr
            t = self.scorer._docs.to_table(
                columns=["doc_id", *self.fields],
                filter=(pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi),
            )
            mask = np.zeros(self.scorer.dpr, dtype=bool)
            mask[cand] = True
            hit = pa.array(mask[t["doc_id"].to_numpy() - lo])
            for fld in self.fields:
                for s in pc.value_counts(t[fld].filter(hit)).to_pylist():
                    out.append(
                        {"field": fld, "value": str(s["values"]),
                         "count": int(s["counts"])}
                    )
        return pa.Table.from_pylist(
            out,
            schema=pa.schema(
                [("field", pa.string()), ("value", pa.string()),
                 ("count", pa.int64())]
            ),
        )


class RangeFacetCounter:
    """Per-doc-range date/numeric range-facet task: range-local match,
    then bucket-count the field slice against the broadcast bucket
    boundaries.  The driver sums per-range partials (pre-aggregated,
    no shuffle) — the distributed form of
    :meth:`SearchEngine.range_facet`.  Emits ``(bucket_idx, count)``
    rows with idx -1 = before, -2 = after."""

    def __init__(self, index_dir: str, field: str, bounds: list,
                 e_us: int, is_timestamp: bool):
        self.scorer = RangeScorer(index_dir)
        self.field = field
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.e_us = int(e_us)
        self.is_timestamp = is_timestamp

    def __call__(self, batch: dict) -> pa.Table:
        import json

        idxs, counts = [], []
        for i in range(len(batch["range_id"])):
            rid = int(batch["range_id"][i])
            cand, _, lo = self.scorer._candidates_range(
                rid,
                list(batch["terms"][i]),
                list(batch["idfs"][i]),
                list(batch["prohibited"][i]),
                dict(zip(batch["filter_keys"][i], batch["filter_vals"][i])),
                bool(batch["conjunctive"][i]),
                json.loads(str(batch["phrases_json"][i])),
                json.loads(str(batch["prefix_groups_json"][i])),
                json.loads(str(batch["fuzzy_groups_json"][i]))
                if "fuzzy_groups_json" in batch else [],
                json.loads(str(batch["near_groups_json"][i]))
                if "near_groups_json" in batch else [],
                json.loads(str(batch["syn_groups_json"][i]))
                if "syn_groups_json" in batch else [],
                *(json.loads(str(batch["extras_json"][i]))
                  if "extras_json" in batch else ([], [], [], [], [], [], [])),
            )
            tombs = np.asarray(list(batch["tombs"][i]), dtype=np.int64)
            if tombs.size and cand.size:
                cand = cand[~np.isin(cand + lo, tombs)]
            if cand.size == 0:
                continue
            hi = lo + self.scorer.dpr
            t = self.scorer._docs.to_table(
                columns=["doc_id", self.field],
                filter=(pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi),
            )
            mask = np.zeros(self.scorer.dpr, dtype=bool)
            mask[cand] = True
            hit = mask[t["doc_id"].to_numpy() - lo]
            col = t[self.field]
            if self.is_timestamp:
                vals = (col.cast(pa.timestamp("us")).to_numpy()
                        .astype("datetime64[us]").astype(np.int64)[hit])
            else:
                vals = col.to_numpy(zero_copy_only=False).astype(
                    np.int64)[hit]
            n_buckets = self.bounds.size - 1
            bidx = np.searchsorted(self.bounds, vals, side="right") - 1
            inside = (bidx >= 0) & (bidx < n_buckets) & (vals < self.e_us)
            cnt = np.bincount(bidx[inside].astype(np.int64),
                              minlength=n_buckets)
            for b in np.nonzero(cnt)[0]:
                idxs.append(int(b))
                counts.append(int(cnt[b]))
            before = int((vals < self.bounds[0]).sum())
            after = int((vals >= self.e_us).sum())
            if before:
                idxs.append(-1)
                counts.append(before)
            if after:
                idxs.append(-2)
                counts.append(after)
        return pa.table(
            {"bucket_idx": pa.array(idxs, pa.int64()),
             "count": pa.array(counts, pa.int64())}
        )


def range_facet_partitioned(index_dir: str, query: str, field: str,
                            start, end, gap, fq=None) -> dict:
    """Distributed ``facet.range``: per-range bucket-count partials,
    summed on the driver — identical buckets to
    :meth:`SearchEngine.range_facet` (tested).  Bucket boundaries
    (including calendar DateMath edges) are computed once on the driver
    and shipped with the task."""
    import ray.data as rd
    from datetime import datetime, timezone

    engine = SearchEngine(index_dir)
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None:
        return engine.range_facet(query, field, start, end, gap, fq=fq)
    if field == "doclen":
        if int(gap) <= 0 or int(end) <= int(start):
            raise ValueError("need gap > 0 and end > start")
        s_i, e_i, g_i = int(start), int(end), int(gap)
        n = (e_i - s_i + g_i - 1) // g_i
        bounds = s_i + g_i * np.arange(n + 1, dtype=np.int64)
        labels = [int(b) for b in bounds[:-1]]
        is_ts = False
    else:
        col_field = engine._docs_ds.schema.field(field) \
            if field in engine.stored_fields else None
        if col_field is None or not pa.types.is_timestamp(col_field.type):
            raise ValueError(
                "range facets support doclen or a timestamp stored "
                f"column; {field!r} is neither")
        s_i = int(np.datetime64(str(start).rstrip("Z"), "us")
                  .astype(np.int64))
        e_i = int(np.datetime64(str(end).rstrip("Z"), "us")
                  .astype(np.int64))
        if e_i <= s_i:
            raise ValueError("need end > start")
        bounds = _date_bucket_bounds(s_i, e_i, gap)
        labels = [
            datetime.fromtimestamp(int(b) / 1e6, tz=timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ")
            for b in bounds[:-1]
        ]
        is_ts = True
    n_buckets = len(labels)
    counts = np.zeros(n_buckets, dtype=np.int64)
    before = after = 0
    if clauses != "zero":
        items = _range_items(engine, parsed, clauses, fq=fq)
        blist = [int(b) for b in bounds]

        def run(batch: dict) -> pa.Table:
            return RangeFacetCounter(index_dir, field, blist, e_i,
                                     is_ts)(batch)

        partials = (
            rd.from_items(items)
            .map_batches(run, batch_size=1, batch_format="numpy",
                         num_cpus=1)
            .take_all()
        )
        for r in partials:
            b = int(r["bucket_idx"])
            if b == -1:
                before += int(r["count"])
            elif b == -2:
                after += int(r["count"])
            else:
                counts[b] += int(r["count"])
    return {
        "buckets": [(labels[i], int(counts[i])) for i in range(n_buckets)],
        "before": int(before),
        "after": int(after),
    }


def _fq_excluded_by_range(engine: SearchEngine, fq, dpr: int) -> dict:
    """Bucket a filter-query exclusion set per doc range (the same
    shipping shape as tombstone slices: each range carries at most
    ``docs_per_range`` excluded ids; at extreme scale a broadcast mask
    via ``ray.put`` replaces the per-item lists)."""
    if not fq:
        return {}
    m = engine._merge_fq_mask(None, fq)
    if m is None:
        return {}
    ids = np.flatnonzero(m)
    if ids.size == 0:
        return {}
    bounds = np.searchsorted(ids, np.arange(
        0, (int(ids[-1]) // dpr + 2) * dpr, dpr
    ))
    out: dict = {}
    for r in range(len(bounds) - 1):
        part = ids[bounds[r]:bounds[r + 1]]
        if part.size:
            out[r] = part.tolist()
    return out


def _range_items(engine: SearchEngine, parsed: ParsedQuery, clauses,
                 fq=None) -> list:
    """One task-item per doc range for the distributed match paths:
    prepared clauses + the range's slice of the tombstone set AND the
    filter-query exclusion set (tiny per range — per-range exclusion
    instead of a driver-side post-filter; Solr distributed requests
    apply fq on every shard the same way)."""
    import json

    (terms, idfs, phrases, prefix_groups, fuzzy_groups, near_groups,
     syn_groups, extras) = clauses
    dpr = int(engine.stats["docs_per_range"])
    n_ranges = (engine.doc_space + dpr - 1) // dpr
    tombs_by_range: dict = {}
    for d in engine.tombstones:
        tombs_by_range.setdefault(d // dpr, []).append(d)
    for r, ids in _fq_excluded_by_range(engine, fq, dpr).items():
        cur = set(tombs_by_range.get(r, ()))
        cur.update(ids)
        tombs_by_range[r] = list(cur)
    return [
        {
            "range_id": r,
            "terms": terms,
            "idfs": idfs,
            "prohibited": sorted(set(parsed.prohibited)),
            "filter_keys": sorted(parsed.filters),
            "filter_vals": [parsed.filters[f] for f in sorted(parsed.filters)],
            "conjunctive": parsed.conjunctive,
            "phrases_json": json.dumps(phrases),
            "prefix_groups_json": json.dumps(prefix_groups),
            "fuzzy_groups_json": json.dumps(fuzzy_groups),
            "near_groups_json": json.dumps(near_groups),
            "syn_groups_json": json.dumps(syn_groups),
            "extras_json": json.dumps(extras),
            "tombs": sorted(tombs_by_range.get(r, [])),
        }
        for r in range(n_ranges)
    ]


def facet_partitioned(index_dir: str, query: str, fields, limit: int = 100,
                      mincount: int = 0, fq=None, prefix: str = "",
                      sort: str = "count", offset: int = 0) -> dict:
    """Distributed field facets: per-range match + partial value counts,
    summed on the driver (identical buckets to ``SearchEngine.facet``,
    tested).  Tombstones are partitioned per range and shipped with the
    task (the per-range slice of the delete set is tiny)."""
    import json

    import ray.data as rd

    engine = SearchEngine(index_dir)
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None:
        return engine.facet(query, fields, limit=limit, mincount=mincount,
                            fq=fq, prefix=prefix, sort=sort,
                            offset=offset)
    totals: dict = {}
    if clauses != "zero":
        items = _range_items(engine, parsed, clauses, fq=fq)

        def run(batch: dict) -> pa.Table:
            return FacetRangeCounter(index_dir, fields)(batch)

        partials = (
            rd.from_items(items)
            .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
            .take_all()
        )
        for r in partials:
            key = (r["field"], r["value"])
            totals[key] = totals.get(key, 0) + r["count"]
    out = {}
    for fld in fields:
        counts = {v: c for (f, v), c in totals.items() if f == fld}
        if mincount <= 0:
            vals = pc.unique(engine._docs_ds.to_table(columns=[fld])[fld])
            for v in vals.to_pylist():
                counts.setdefault(str(v), 0)
        out[fld] = sorted(
            ((v, c) for v, c in counts.items()
             if c >= mincount
             and (not prefix or str(v).startswith(prefix))),
            key=(lambda b: (-b[1], b[0])) if sort == "count"
            else (lambda b: b[0]),
        )[offset:offset + limit]
    return out


class _MatchRangeTask:
    """Base for per-range distributed tasks: compute the range's matched
    (global doc ids, scores) with tombstones excluded, then hand off to a
    mode-specific ``_reduce_range``."""

    def __init__(self, index_dir: str):
        self.scorer = RangeScorer(index_dir)

    def __call__(self, batch: dict) -> pa.Table:
        import json

        parts = []
        for i in range(len(batch["range_id"])):
            rid = int(batch["range_id"][i])
            cand, scores, lo = self.scorer._candidates_range(
                rid,
                list(batch["terms"][i]),
                list(batch["idfs"][i]),
                list(batch["prohibited"][i]),
                dict(zip(batch["filter_keys"][i], batch["filter_vals"][i])),
                bool(batch["conjunctive"][i]),
                json.loads(str(batch["phrases_json"][i])),
                json.loads(str(batch["prefix_groups_json"][i])),
                json.loads(str(batch["fuzzy_groups_json"][i]))
                if "fuzzy_groups_json" in batch else [],
                json.loads(str(batch["near_groups_json"][i]))
                if "near_groups_json" in batch else [],
                json.loads(str(batch["syn_groups_json"][i]))
                if "syn_groups_json" in batch else [],
                *(json.loads(str(batch["extras_json"][i]))
                  if "extras_json" in batch else ([], [], [], [], [], [], [])),
            )
            tombs = np.asarray(list(batch["tombs"][i]), dtype=np.int64)
            if tombs.size and cand.size:
                cand = cand[~np.isin(cand + lo, tombs)]
            if cand.size:
                parts.append(
                    self._reduce_range(cand + lo, scores[cand], lo)
                )
        if not parts:
            return self._empty()
        return pa.concat_tables(parts)

    def _docs_columns(self, ids: np.ndarray, columns) -> pa.Table:
        lo, hi = int(ids.min()), int(ids.max())
        t = self.scorer._docs.to_table(
            columns=["doc_id", *columns],
            filter=(pc.field("doc_id") >= lo) & (pc.field("doc_id") <= hi),
        )
        mask = np.zeros(hi - lo + 1, dtype=bool)
        mask[ids - lo] = True
        return t.filter(pa.array(mask[t["doc_id"].to_numpy() - lo]))


class StatsRangeTask(_MatchRangeTask):
    """Per-range partials for the distributed stats component."""

    def __init__(self, index_dir: str, field: str):
        super().__init__(index_dir)
        self.field = field

    def _empty(self) -> pa.Table:
        return pa.table(
            {"count": pa.array([], pa.int64()),
             "missing": pa.array([], pa.int64()),
             "min": pa.array([], pa.float64()),
             "max": pa.array([], pa.float64()),
             "sum": pa.array([], pa.float64())}
        )

    def _reduce_range(self, ids, scores, lo) -> pa.Table:
        vals = self._docs_columns(ids, [self.field])[self.field]
        count = len(vals) - vals.null_count
        return pa.table(
            {"count": pa.array([count], pa.int64()),
             "missing": pa.array([vals.null_count], pa.int64()),
             "min": pa.array([float(pc.min(vals).as_py())
                              if count else None], pa.float64()),
             "max": pa.array([float(pc.max(vals).as_py())
                              if count else None], pa.float64()),
             "sum": pa.array([float(pc.sum(vals).as_py() or 0)], pa.float64())}
        )


class FacetStatsRangeTask(_MatchRangeTask):
    """Per-range partials for the distributed JSON-facet stats: one row
    per (range, bucket value) carrying count + per-field sum/min/max —
    mergeable aggregates only (``avg`` derives on the driver), so a
    range ships O(distinct values) rows regardless of match size."""

    def __init__(self, index_dir: str, by: str, fields):
        super().__init__(index_dir)
        self.by = by
        self.fields = list(fields)

    def _empty(self) -> pa.Table:
        cols = {"value": pa.array([], pa.string()),
                "count": pa.array([], pa.int64())}
        for f in self.fields:
            for op in ("sum", "min", "max"):
                cols[f"{f}_{op}"] = pa.array([], pa.float64())
        return pa.table(cols)

    def _reduce_range(self, ids, scores, lo) -> pa.Table:
        t = self._docs_columns(ids, [self.by, *self.fields])
        t = t.filter(pc.is_valid(t[self.by]))
        if t.num_rows == 0:
            return self._empty()
        aggs = [([], "count_all")]
        for f in self.fields:
            aggs += [(f, "sum"), (f, "min"), (f, "max")]
        g = pa.TableGroupBy(
            t.select([self.by, *self.fields]), self.by
        ).aggregate(aggs)
        cols = {
            "value": pc.cast(g[self.by], pa.string()),
            "count": pc.cast(g["count_all"], pa.int64()),
        }
        for f in self.fields:
            for op in ("sum", "min", "max"):
                cols[f"{f}_{op}"] = pc.cast(g[f"{f}_{op}"], pa.float64())
        return pa.table(cols)


class SortRangeTask(_MatchRangeTask):
    """Per-range local top-k by the sort keys — the distributed sorted
    browse ships only k rows per range, never the full match set."""

    def __init__(self, index_dir: str, keys, k: int):
        super().__init__(index_dir)
        self.keys = keys  # [(field, ascending)]
        self.k = k
        self.cols = [f for f, _ in keys if f not in ("score", "doc_id")]

    def _empty(self) -> pa.Table:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64()),
             **{c: pa.array([], pa.string()) for c in self.cols}}
        )

    def _reduce_range(self, ids, scores, lo) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"doc_id": ids, "score": scores})
        if self.cols:
            df = df.merge(
                self._docs_columns(ids, self.cols).to_pandas(),
                on="doc_id", how="left",
            )
        df = df.sort_values(
            [f for f, _ in self.keys] + ["doc_id"],
            ascending=[a for _, a in self.keys] + [True],
            kind="mergesort", na_position="last",
        ).head(self.k)
        # metadata-free (an unhashable pandas-metadata schema trips Ray's
        # schema-dedup warning)
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)


class GroupRangeTask(_MatchRangeTask):
    """Per-range partials for distributed grouping: each range keeps its
    top ``group_limit`` docs per group value — a superset of every group's
    global top docs, so the driver merge is exact."""

    def __init__(self, index_dir: str, field: str, group_limit: int):
        super().__init__(index_dir)
        self.field = field
        self.group_limit = group_limit

    def _empty(self) -> pa.Table:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64()),
             self.field: pa.array([], pa.string())}
        )

    def _reduce_range(self, ids, scores, lo) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"doc_id": ids, "score": scores}).merge(
            self._docs_columns(ids, [self.field]).to_pandas(),
            on="doc_id", how="left",
        )
        df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                            kind="mergesort")
        df = df[
            df.groupby(self.field, sort=False, dropna=False).cumcount()
            < self.group_limit
        ]
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)


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


class HistStatsRangeTask(_MatchRangeTask):
    """Per-range value HISTOGRAM of a numeric field over the match set —
    one (value, count) row per distinct value per range (null value row =
    missing count), the mergeable partial that makes distributed
    percentiles EXACT (t-digest-free) when field cardinality is bounded,
    as it is for doc-length-like numerics."""

    def __init__(self, index_dir: str, field: str):
        super().__init__(index_dir)
        self.field = field

    def _empty(self) -> pa.Table:
        return pa.table(
            {"value": pa.array([], pa.float64()),
             "count": pa.array([], pa.int64())}
        )

    def _reduce_range(self, ids, scores, lo) -> pa.Table:
        vals = self._docs_columns(ids, [self.field])[self.field]
        missing = vals.null_count
        vc = pc.value_counts(pc.drop_null(vals))
        values = pc.cast(vc.field("values"), pa.float64()).to_pylist()
        counts = pc.cast(vc.field("counts"), pa.int64()).to_pylist()
        if missing:
            values.append(None)
            counts.append(int(missing))
        return pa.table(
            {"value": pa.array(values, pa.float64()),
             "count": pa.array(counts, pa.int64())}
        )


def stats_partitioned(index_dir: str, query: str, field: str,
                      percentiles=None, fq=None) -> dict:
    """Distributed stats component: per-range (count, min, max, sum)
    partials merged on the driver — identical to
    ``SearchEngine.field_stats`` (tested).  With ``percentiles``, the
    partials become per-range value histograms (one row per distinct
    value per range — still a pre-aggregated combiner, no shuffle) and
    every stat incl. the percentiles derives exactly from the merge."""
    engine = SearchEngine(index_dir)
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None:
        return engine.field_stats(query, field, percentiles=percentiles,
                                  fq=fq)
    if percentiles is not None:
        return _stats_hist_partitioned(engine, index_dir, parsed, clauses,
                                       query, field, list(percentiles),
                                       fq=fq)
    if field not in engine.stored_fields or field == "doc_id":
        raise ValueError(f"cannot compute stats on field {field!r}")
    empty = {"count": 0, "missing": 0, "min": None, "max": None,
             "sum": 0, "mean": None}
    if clauses == "zero":
        return empty
    import ray.data as rd

    def run(batch):
        return StatsRangeTask(index_dir, field)(batch)

    parts = (
        rd.from_items(_range_items(engine, parsed, clauses, fq=fq))
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    if not parts:
        return empty
    count = sum(r["count"] for r in parts)
    mins = [r["min"] for r in parts if r["min"] is not None]
    maxs = [r["max"] for r in parts if r["max"] is not None]
    total = sum(r["sum"] for r in parts)
    if total == int(total):
        total = int(total)
    return {
        "count": int(count),
        "missing": int(sum(r["missing"] for r in parts)),
        "min": (int(min(mins)) if min(mins) == int(min(mins)) else min(mins))
        if mins else None,
        "max": (int(max(maxs)) if max(maxs) == int(max(maxs)) else max(maxs))
        if maxs else None,
        "sum": total,
        "mean": (total / count) if count else None,
    }


def _stats_hist_partitioned(engine, index_dir, parsed, clauses, query,
                            field, percentiles, fq=None) -> dict:
    """Histogram-partial distributed stats (the percentiles path of
    :func:`stats_partitioned`)."""
    if field not in engine.stored_fields or field == "doc_id":
        raise ValueError(f"cannot compute stats on field {field!r}")
    empty = {"count": 0, "missing": 0, "min": None, "max": None,
             "sum": 0, "mean": None,
             "percentiles": {str(p): None for p in percentiles}}
    if clauses == "zero":
        return empty
    import ray.data as rd

    def run(batch):
        return HistStatsRangeTask(index_dir, field)(batch)

    parts = (
        rd.from_items(_range_items(engine, parsed, clauses, fq=fq))
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    if not parts:
        return empty
    merged: dict = {}
    missing = 0
    for r in parts:
        if r["value"] is None or (isinstance(r["value"], float)
                                  and np.isnan(r["value"])):
            missing += int(r["count"])
        else:
            v = float(r["value"])
            merged[v] = merged.get(v, 0) + int(r["count"])
    if not merged:
        out = dict(empty)
        out["missing"] = int(missing)
        return out
    vs = np.array(sorted(merged), dtype=np.float64)
    cs = np.array([merged[v] for v in vs], dtype=np.int64)
    n = int(cs.sum())
    total = float((vs * cs).sum())
    if total == int(total):
        total = int(total)

    def _num(x):
        return int(x) if x == int(x) else float(x)

    pv = _weighted_percentiles(vs, cs, percentiles)
    return {
        "count": n,
        "missing": int(missing),
        "min": _num(vs[0]),
        "max": _num(vs[-1]),
        "sum": total,
        "mean": (total / n) if n else None,
        "percentiles": dict(zip(map(str, percentiles), pv)),
    }


def facet_stats_partitioned(index_dir: str, query: str, by: str,
                            metrics: dict, limit: int = 100,
                            mincount: int = 1, fq=None) -> pa.Table:
    """Distributed JSON-facet stats: per-range partial
    (value, count, sum, min, max) rows merged on the driver — identical
    output to ``SearchEngine.facet_stats`` (tested; integer stat fields
    merge exactly, float sums can differ in the last ulp from the
    single-pass order).  No shuffle: each range pre-aggregates its
    matches and ships one row per bucket value."""
    engine = SearchEngine(index_dir)
    specs = engine._parse_facet_stats(by, metrics)
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None:
        return engine.facet_stats(query, by, metrics, limit=limit,
                                  mincount=mincount, fq=fq)
    if clauses == "zero":
        return SearchEngine._facet_stats_table([], specs)
    fields = sorted({f for _, (_, f) in specs})
    import pandas as pd
    import ray.data as rd

    def run(batch):
        return FacetStatsRangeTask(index_dir, by, fields)(batch)

    parts = (
        rd.from_items(_range_items(engine, parsed, clauses, fq=fq))
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    if not parts:
        return SearchEngine._facet_stats_table([], specs)
    df = pd.DataFrame(parts)
    aggmap = {"count": "sum"}
    for f in fields:
        aggmap[f"{f}_sum"] = "sum"
        aggmap[f"{f}_min"] = "min"
        aggmap[f"{f}_max"] = "max"
    m = df.groupby("value", sort=False).agg(aggmap).reset_index()
    rows = []
    for r in m.to_dict("records"):
        row = {"value": str(r["value"]), "count": int(r["count"])}
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


def group_partitioned(index_dir: str, query: str, group_field: str,
                      k_groups: int = 10, group_limit: int = 1,
                      fq=None) -> pa.Table:
    """Distributed result grouping: per-range per-group top docs, global
    re-rank on the driver — identical to ``SearchEngine.group_search``
    (tested; per-range scores are bit-identical to the single engine)."""
    engine = SearchEngine(index_dir)
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None or clauses == "zero":
        return engine.group_search(query, group_field, k_groups=k_groups,
                                   group_limit=group_limit, fq=fq)
    if group_field not in engine.stored_fields or group_field == "doc_id":
        raise ValueError(f"cannot group on field {group_field!r}")
    import pandas as pd
    import ray.data as rd

    def run(batch):
        return GroupRangeTask(index_dir, group_field, group_limit)(batch)

    parts = (
        rd.from_items(_range_items(engine, parsed, clauses, fq=fq))
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    cols = {
        "group": pa.array([], pa.string()),
        "group_rank": pa.array([], pa.int64()),
        "position": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "score": pa.array([], pa.float64()),
    }
    if not parts:
        return pa.table(cols)
    df = pd.DataFrame(parts)
    _null = "\x00<null>"
    df["_grp"] = df[group_field].fillna(_null)
    df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort")
    df["position"] = df.groupby("_grp", sort=False).cumcount()
    heads = df[df["position"] == 0].reset_index(drop=True)
    order = {v: i for i, v in enumerate(heads["_grp"].head(k_groups))}
    out = df[df["_grp"].isin(order) & (df["position"] < group_limit)].copy()
    out["group_rank"] = out["_grp"].map(order)
    out = out.sort_values(["group_rank", "position"])
    return pa.table(
        {
            "group": pa.array(
                [None if v == _null else str(v) for v in out["_grp"]],
                pa.string(),
            ),
            "group_rank": pa.array(out["group_rank"].astype("int64")),
            "position": pa.array(out["position"].astype("int64")),
            "doc_id": pa.array(out["doc_id"].astype("int64")),
            "score": pa.array(out["score"].astype("float64")),
        }
    )


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


def _collapse_frame(df, field: str, k: int, null_policy: str,
                    expand_limit: int,
                    round_scores: int | None) -> pa.Table:
    """Collapse a ``(doc_id, score, <field>)`` frame to ranked group heads
    (+ expanded members) — shared by ``SearchEngine.collapse_search`` and
    ``collapse_partitioned`` so both paths are definitionally identical."""
    empty = pa.table(
        {"rank": pa.array([], pa.int64()),
         "position": pa.array([], pa.int64()),
         "doc_id": pa.array([], pa.int64()),
         "score": pa.array([], pa.float64()),
         "group": pa.array([], pa.string())}
    )
    if df.empty:
        return empty
    import pandas as pd

    doc_ids = df["doc_id"].to_numpy().astype(np.int64)
    scores = df["score"].to_numpy().astype(np.float64)
    # hash-factorize the raw group values (no sort, no sentinel-string
    # construction); nulls come back as code -1 and route per policy
    codes, uniques = pd.factorize(df[field], use_na_sentinel=True)
    return _collapse_codes(
        doc_ids, scores, codes.astype(np.int64),
        [str(u) for u in uniques], k, null_policy, expand_limit,
        round_scores,
    )


def _collapse_codes(doc_ids, scores, codes, uniques, k: int,
                    null_policy: str, expand_limit: int,
                    round_scores: int | None) -> pa.Table:
    """Collapse pre-factorized ``(doc_id, score, group-code)`` arrays —
    the pure-numpy core under ``_collapse_frame`` and the engine's
    dense-codes fast path (``uniques``: list of group labels, code -1 =
    null group value)."""
    empty = pa.table(
        {"rank": pa.array([], pa.int64()),
         "position": pa.array([], pa.int64()),
         "doc_id": pa.array([], pa.int64()),
         "score": pa.array([], pa.float64()),
         "group": pa.array([], pa.string())}
    )
    if doc_ids.size == 0:
        return empty
    if round_scores is not None:
        m = 10.0 ** round_scores
        scores = np.copysign(np.floor(np.abs(scores) * m + 0.5) / m,
                             scores)
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


def _rerank_combine(ids, main_scores, rmap: dict, rerank_docs: int,
                    rerank_weight: float,
                    round_scores: int | None):
    """Combine a ranked main hit list with rerank-query scores: the top
    ``rerank_docs`` segment is rescored ``main + weight * rerank`` and
    re-sorted (score desc, doc id asc); the tail keeps its original order
    and scores — shared by ``SearchEngine.rerank_search`` and
    ``rerank_partitioned``."""
    def _r(x):
        if round_scores is None:
            return float(x)
        m = 10.0 ** round_scores
        return float(np.copysign(np.floor(abs(x) * m + 0.5) / m, x))

    seg = min(rerank_docs, len(ids))
    head = [
        (d, _r(s) + rerank_weight * _r(rmap.get(d, 0.0)))
        for d, s in zip(ids[:seg], main_scores[:seg])
    ]
    head.sort(key=lambda t: (-t[1], t[0]))
    tail = [(d, _r(s)) for d, s in zip(ids[seg:], main_scores[seg:])]
    return head + tail


class RerankRangeTask(_MatchRangeTask):
    """Per-range partials for distributed reranking: each range scores
    the RERANK query and ships only the rows whose doc ids are in the
    broadcast candidate set (the main query's top-N) — O(N) rows total,
    never the rerank query's full match set."""

    def __init__(self, index_dir: str, candidates: np.ndarray):
        super().__init__(index_dir)
        self.candidates = np.sort(np.asarray(candidates, dtype=np.int64))

    def _empty(self) -> pa.Table:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}
        )

    def _reduce_range(self, ids, scores, lo) -> pa.Table:
        keep = np.isin(ids, self.candidates)
        return pa.table(
            {"doc_id": pa.array(ids[keep], pa.int64()),
             "score": pa.array(scores[keep], pa.float64())}
        )


def rerank_partitioned(index_dir: str, query: str, rerank_query: str,
                       k: int = 10, rerank_docs: int = 200,
                       rerank_weight: float = 2.0,
                       round_scores: int | None = None,
                       fq=None) -> pa.Table:
    """Distributed reranking: the main top-N comes from
    ``search_partitioned`` (k rows per range), the rerank scores from
    per-range tasks that ship only candidate rows — identical to
    ``SearchEngine.rerank_search`` (tested)."""
    if rerank_docs < 1:
        raise ValueError("rerank_docs must be >= 1")
    engine = SearchEngine(index_dir)
    n = max(int(rerank_docs), k)
    main = search_partitioned(index_dir, query, k=n, fq=fq)
    ids = main["doc_id"].to_pylist()
    parsed_rr = engine._parse(rerank_query)
    clauses_rr = _distributed_clauses(engine, parsed_rr, rerank_query)
    if clauses_rr == "zero":
        rmap: dict = {}
    elif clauses_rr is None or not ids:
        rr = engine.search(rerank_query, k=engine.doc_space,
                           fl=["doc_id"])
        rmap = dict(zip(rr["doc_id"].to_pylist(),
                        rr["score"].to_pylist()))
    else:
        import ray.data as rd

        cand = np.asarray(ids, dtype=np.int64)

        def run(batch):
            return RerankRangeTask(index_dir, cand)(batch)

        parts = (
            rd.from_items(_range_items(engine, parsed_rr, clauses_rr))
            .map_batches(run, batch_size=1, batch_format="numpy",
                         num_cpus=1)
            .take_all()
        )
        rmap = {r["doc_id"]: r["score"] for r in parts}
    hits = _rerank_combine(ids, main["score"].to_pylist(), rmap,
                           int(rerank_docs), float(rerank_weight),
                           round_scores)
    return pa.Table.from_pylist(
        [{"doc_id": d, "score": s} for d, s in hits[:k]],
        schema=pa.schema([("doc_id", pa.int64()),
                          ("score", pa.float64())]),
    )


def collapse_partitioned(index_dir: str, query: str, field: str,
                         k: int = 10, null_policy: str = "ignore",
                         expand_limit: int = 0,
                         round_scores: int | None = None,
                         fq=None) -> pa.Table:
    """Distributed field collapsing: per-range per-group top docs (the
    ``GroupRangeTask`` partials — a superset of every group's global head
    + expand members), collapsed on the driver — identical to
    ``SearchEngine.collapse_search`` (tested)."""
    engine = SearchEngine(index_dir)
    if null_policy not in ("ignore", "expand", "collapse"):
        raise ValueError(f"bad nullPolicy {null_policy!r}")
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None or clauses == "zero":
        return engine.collapse_search(
            query, field, k=k, null_policy=null_policy,
            expand_limit=expand_limit, round_scores=round_scores, fq=fq,
        )
    if field not in engine.stored_fields or field == "doc_id":
        raise ValueError(f"cannot collapse on field {field!r}")
    # per-range cap: head + expand members per non-null group; under
    # nullPolicy=expand each null doc is a 1-doc group, so a range must
    # ship its k best nulls (they all compete for the k head slots)
    glim = expand_limit + 1
    if null_policy == "expand":
        glim = max(glim, k)
    import pandas as pd
    import ray.data as rd

    def run(batch):
        return GroupRangeTask(index_dir, field, glim)(batch)

    parts = (
        rd.from_items(_range_items(engine, parsed, clauses, fq=fq))
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    if not parts:
        return _collapse_frame(pd.DataFrame(), field, k, null_policy,
                               expand_limit, round_scores)
    return _collapse_frame(pd.DataFrame(parts), field, k, null_policy,
                           expand_limit, round_scores)


def sorted_partitioned(index_dir: str, query: str, sort: str,
                       k: int = 10, fq=None) -> pa.Table:
    """Distributed field-sorted browse: per-range local top-k by the sort
    keys (k rows shipped per range, never the full match set), k-way merge
    on the driver — identical doc order to
    ``SearchEngine.search(..., sort=...)`` (tested)."""
    engine = SearchEngine(index_dir)
    parsed = engine._parse(query)
    clauses = _distributed_clauses(engine, parsed, query)
    if clauses is None or clauses == "zero":
        return engine.search(query, k=k, fl=["doc_id"], sort=sort,
                             fq=fq)
    keys = []
    for part in sort.split(","):
        toks = part.split()
        if not toks:
            continue
        fld = toks[0]
        order = toks[1].lower() if len(toks) > 1 else "asc"
        if order not in ("asc", "desc"):
            raise ValueError(f"bad sort direction {order!r} in {sort!r}")
        if fld != "score" and fld != "doc_id" and fld not in engine.stored_fields:
            raise ValueError(f"cannot sort on unknown field {fld!r}")
        keys.append((fld, order == "asc"))
    if not keys:
        raise ValueError(f"empty sort spec {sort!r}")
    import pandas as pd
    import ray.data as rd

    def run(batch):
        return SortRangeTask(index_dir, keys, k)(batch)

    parts = (
        rd.from_items(_range_items(engine, parsed, clauses, fq=fq))
        .map_batches(run, batch_size=1, batch_format="numpy", num_cpus=1)
        .take_all()
    )
    if not parts:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}
        )
    df = pd.DataFrame(parts).sort_values(
        [f for f, _ in keys] + ["doc_id"],
        ascending=[a for _, a in keys] + [True],
        kind="mergesort", na_position="last",
    ).head(k)
    return pa.table(
        {"doc_id": pa.array(df["doc_id"].astype("int64")),
         "score": pa.array(df["score"].astype("float64"))}
    )


class BatchSearcher:
    """Actor-pool query stage: one ``SearchEngine`` per actor (index stats +
    norms loaded once in ``__init__``), scoring a batch of query strings per
    call.  The distributed query path: ``rd.from_items(queries).map_batches(
    BatchSearcher, fn_constructor_kwargs=..., concurrency=N)``.

    Reference analogue: one pysolr session per worker process, reused across
    requests (``solrindexer/indexer.py:83-88`` ST5).
    """

    def __init__(self, index_dir: str, k: int = 10, method: str = "taat"):
        self.engine = SearchEngine(index_dir)
        self.engine.norms  # eager warm-up, once per actor
        self.k = k
        self.method = method

    def __call__(self, batch: dict) -> pa.Table:
        queries, hits, top_doc, top_score = [], [], [], []
        for q in batch["query"]:
            q = str(q)
            t = self.engine.search(q, k=self.k, fl=["doc_id"], method=self.method)
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


