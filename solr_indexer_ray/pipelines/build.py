"""Distributed inverted-index build — the flagship pipeline.

Reference analogue: ``indexdata`` bulk ingestion
(``/root/reference/solrindexer/cli.py`` + ``solrindexer/indexer.py:470-690``)
— but where the reference converts documents and POSTs them to Solr (which
owns the inverted index), this pipeline builds the index itself:

Stage 1 (``map_batches`` over read units, Ray Data tasks):
    one task per parquet row group; reads the unit, computes per-row
    ``sha256(content)`` (the per-row integrity invariant; reference
    analogue: checksum field ``solrindexer/mmd.py:851-858``), tokenizes with
    the per-lang analyzer, writes the unit's slice of the ``docs`` table
    (stored fields + doclen + Lucene SmallFloat norm byte), and writes
    SPIMI-style *partial postings* grouped by ``(term, doc-range)`` —
    in-memory term->postings dict per unit, flushed sorted, exactly the
    SPIMI discipline (reference precedent: per-chunk buffered flush,
    ``solrindexer/indexer.py:517-551``).  Every output is written atomically
    (tmp+rename) and recorded in a per-unit manifest entry with lineage +
    metrics, so an interrupted build **resumes** by skipping complete units.

Stage 2 (the shuffle's reduce side, ``map_batches`` over term shards):
    one task per term shard reads that shard's spill files of this
    build's (or extend's) units from ``postings_raw/shard=S/`` — the
    filesystem is the shuffle, no all-to-all through the object store —
    and merges one doc-range at a time.  The merge concatenates each
    term's partial lists (disjoint, per-unit doc-id intervals ->
    sort-by-first + concat, no full re-sort), delta-varint-packs doc ids
    and varint-packs tfs, all as whole-range columns, and writes each
    range as a new immutable segment ``postings/shard=S/range-R-seg-G.parquet``
    (G: the commit's generation).  Partitioning by
    ``(hash(term) % S, doc-range)`` rather than raw term (a) amortizes
    per-task overhead over many terms and (b) caps any merge's memory at
    one doc-range — the salted-shuffle skew handling the north rule
    demands for stop-word-heavy terms.  A range left with more than
    :data:`MERGE_FACTOR` segments has them merged into one
    (:func:`merge_segments`, Lucene's segment merge).

Commit:
    corpus stats (N, avgdl as exact ``sum_dl / N`` — Lucene semantics:
    sumTotalTermFreq / docCount), the analyzer pin and the list of the
    generation's docs and postings files (Lucene's ``segments_N``) are
    published atomically via ``stats.json`` (reference analogue: explicit
    Solr hard commit, ``solrindexer/mmd.py:1303-1304``).  The spills
    exist only until then: the commit deletes them, and unlinks the
    segments a merge replaced.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from solr_indexer_ray.config import DEFAULT_CONFIG, IndexConfig
from solr_indexer_ray.functions.hashing import term_shard, term_shards_of_array
from solr_indexer_ray.functions.smallfloat import encode_lengths
from solr_indexer_ray.functions.tokenize import AnalyzerRegistry, tokenize_unit
from solr_indexer_ray.functions.varint import (
    segmented_delta_encode,
    varint_byte_offsets,
    varint_decode,
    varint_encode,
)
from solr_indexer_ray.sources.parquet_units import list_units, read_unit
from solr_indexer_ray.state.manifest import (
    BuildManifest,
    segment_name,
    segment_range,
)

#: Positional builds pack (shard, tid, doc, pos) into one int64 and plain-
#: sort it when the key fits 63 bits (tests flip this off to A/B the
#: general stable-argsort path — outputs must be byte-identical).
_FUSE_POSITIONAL = True

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("sha256", pa.string()),
        ("doclen", pa.int32()),
        ("norm", pa.uint8()),
    ]
)

RAW_POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("range_id", pa.int64()),
        ("doc_ids", pa.list_(pa.int64())),
        ("tfs", pa.list_(pa.int32())),
    ]
)

#: with ``config.store_positions``: positions ride along PRE-ENCODED as
#: one delta-varint blob per (term, doc-range) row — segments restart per
#: posting (lengths == tfs), i.e. ALREADY the merged-postings position
#: format.  Stage 2 then merges a term's positions by concatenating its
#: parts' blobs (no decode, no re-encode), and the spill reads a binary
#: column instead of a nested list<list<int32>> (~4x smaller on disk
#: pre-compression, far cheaper to deserialize).
RAW_POSTINGS_POS_SCHEMA = RAW_POSTINGS_SCHEMA.append(
    pa.field("positions", pa.binary())
)

ERRORS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("stage", pa.string()),
        ("message", pa.string()),
    ]
)

MERGED_POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("range_id", pa.int64()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("doc_ids", pa.binary()),
        ("tfs", pa.binary()),
        #: delta-varint token positions, one segment per posting; segment
        #: lengths are the tfs (tf == number of positions), so the stream
        #: needs no count prefix.  NULL when built without positions.
        ("positions", pa.binary()),
    ]
)



def _filter_chain_stats(config: IndexConfig) -> dict:
    """stats.json entries pinning the token-filter chain (empty = none)."""
    from solr_indexer_ray.functions.filters import FilterChain

    return FilterChain(config.filters, config.stopwords).to_stats()


def _atomic_write_table(table: pa.Table, path: str, **kw) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        pq.write_table(table, tmp, **kw)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _binary_column(blob, boff: np.ndarray, where: str) -> pa.Array:
    """``binary`` array whose value ``i`` is ``blob[boff[i]:boff[i + 1]]``,
    a zero-copy view of one shared buffer (``bytes`` or ``pa.Buffer``).
    Arrow ``binary`` offsets are int32, so a column over 2 GiB raises,
    naming ``where``, instead of wrapping."""
    lo, size = int(boff[0]), int(boff[-1] - boff[0])
    if size > np.iinfo(np.int32).max:
        raise ValueError(
            f"{where}: {size} bytes overflow one binary column's int32 "
            "offsets"
        )
    buf = blob if isinstance(blob, pa.Buffer) else pa.py_buffer(blob)
    return pa.Array.from_buffers(
        pa.binary(), boff.size - 1,
        [None, pa.py_buffer((boff - lo).astype(np.int32)),
         buf.slice(lo, size)],
    )


_EMPTY_SHA = hashlib.sha256(b"").hexdigest()


def _sha256_column(col) -> list:
    """Hex sha256 per row of a UTF-8 string column, hashed directly off
    the Arrow data buffer (offset slices of one memoryview) — skips the
    str-decode + re-encode round trip of the ``to_pylist`` path.  Null
    rows hash as empty string (reference ``(c or "")`` behavior)."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list = []
    for ch in chunks:
        n = len(ch)
        if n == 0:
            continue
        if ch.offset != 0 or not pa.types.is_string(ch.type):
            out.extend(
                hashlib.sha256((c or "").encode("utf-8")).hexdigest()
                for c in ch.to_pylist()
            )
            continue
        bufs = ch.buffers()
        offsets = np.frombuffer(bufs[1], dtype=np.int32, count=n + 1)
        data = memoryview(bufs[2]) if bufs[2] is not None else \
            memoryview(b"")
        if ch.null_count:
            valid = ch.is_valid().to_numpy(zero_copy_only=False)
        else:
            valid = None
        for i in range(n):
            if valid is not None and not valid[i]:
                out.append(_EMPTY_SHA)
            else:
                out.append(
                    hashlib.sha256(
                        data[offsets[i]:offsets[i + 1]]
                    ).hexdigest()
                )
    return out


class UnitIndexer:
    """Stage-1 callable, built once per Ray Data task (the compiled
    regexes and the identifier-expansion cache live at module level, so
    warm workers keep them across tasks; SURVEY.md ST1/ST6).

    ``__call__`` consumes a batch of unit-descriptor rows (batch_size=1 ->
    one row group per task) and returns one manifest/metrics row per unit.
    """

    def __init__(self, index_dir: str, config: IndexConfig | None = None,
                 registry: AnalyzerRegistry | None = None,
                 doc_enricher=None):
        self.config = config or DEFAULT_CONFIG
        self.registry = registry or AnalyzerRegistry(self.config.default_analyzer)
        from solr_indexer_ray.functions.filters import FilterChain

        self.chain = FilterChain(self.config.filters, self.config.stopwords)
        self.manifest = BuildManifest(index_dir)
        self.index_dir = os.fspath(index_dir)
        #: optional stored-fields enrichment hook applied to each unit's
        #: docs table before write (reference: thumbnail-generator class
        #: injected into ``index_record``, ``solrindexer/mmd.py:1334-1390``
        #: ST4).  Must return a table with the same row count.
        self.doc_enricher = doc_enricher

    def __call__(self, batch: dict) -> pa.Table:
        rows_out = []
        n = len(batch["unit_id"])
        for i in range(n):
            unit = {k: batch[k][i] for k in batch}
            rows_out.append(self._process_unit(unit))
        return pa.Table.from_pylist(rows_out)

    # -- per-unit work -----------------------------------------------------
    def _process_unit(self, unit: dict) -> dict:
        uid = int(unit["unit_id"])
        t0 = time.perf_counter()
        if self.config.checkpoint and self.manifest.unit_complete(uid):
            entry = self.manifest.read_unit(uid)
            entry["skipped"] = True
            return _entry_to_row(entry)

        n_shards = int(unit["n_shards"])
        extra = list(self.config.extra_stored)
        afields = [
            tuple(s.split(":", 1)) for s in self.config.analyzed_fields
        ]
        asrcs = [s for _, s in afields]
        base_cols = ["repo", "path", "commit", "lang", "content", *extra]
        table = read_unit(
            unit,
            columns=base_cols
            + [s for s in asrcs if s not in base_cols],
        )
        doc_ids = table["doc_id"].to_numpy()

        # per-row integrity invariant: sha256(content) — hashed straight
        # off the Arrow UTF-8 data buffer (offset slices of one
        # memoryview), skipping the str-decode + re-encode round trip the
        # to_pylist() path would pay on every byte of the corpus
        shas = _sha256_column(table["content"])
        n_rows = table.num_rows

        # tokenize the whole unit vectorized with zero per-token Python
        # (functions.tokenize.tokenize_unit): an ASCII block is cut into
        # word runs and the numpy byte kernel tokenizes each distinct run
        # once; Arrow RE2 kernels are the non-ASCII fallback.  Per-row
        # analyzers remain the reference implementation (equality
        # property-tested)
        store_pos = self.config.store_positions
        tids_flat, doclens64, content_terms = tokenize_unit(
            table["content"], table["lang"], self.registry
        )
        if self.chain:
            from solr_indexer_ray.functions.filters import apply_chain_to_unit

            tids_flat, doclens64, content_terms = apply_chain_to_unit(
                tids_flat, doclens64, content_terms, self.chain
            )
        doclens = doclens64.astype(np.int32)

        norms = encode_lengths(doclens)

        # extra analyzed fields (Lucene per-field postings + norms; Solr
        # copyField into a second text field): each source column
        # tokenizes with the DEFAULT analyzer and its terms join the same
        # postings stream prefixed "<field>\\x1f"; the field's SmallFloat
        # norms go into the docs table — per-field BM25 falls out of the
        # shared spill/merge machinery untouched.
        ndocs0 = n_rows
        field_doclens: dict = {}
        field_norms: dict = {}
        streams = [(tids_flat, doclens64)]
        #: the unit's term dictionary as Arrow string arrays, indexed by
        #: token id: content terms, then each analyzed field's terms
        #: prefixed ``<field>\x1f`` — term strings for spills / shard
        #: hashing flow through Arrow kernels (take, concat,
        #: binary_join_element_wise) and the vectorized crc32, never
        #: per-term Python objects
        term_parts = [content_terms]
        n_vocab = len(content_terms)
        for fname, src in afields:
            f_tids, f_dl, f_terms = tokenize_unit(
                table[src], [None] * ndocs0, self.registry
            )
            if self.chain:
                from solr_indexer_ray.functions.filters import (
                    apply_chain_to_unit,
                )

                f_tids, f_dl, f_terms = apply_chain_to_unit(
                    f_tids, f_dl, f_terms, self.chain
                )
            field_doclens[fname] = f_dl.astype(np.int32)
            field_norms[fname] = encode_lengths(f_dl.astype(np.int32))
            streams.append((f_tids + n_vocab, f_dl))
            term_parts.append(
                pc.binary_join_element_wise(fname, f_terms, "\x1f")
            )
            n_vocab += len(f_terms)

        # inline validation (config.validate): invalid rows keep their
        # doc-id slot but are routed to the errors side-channel and
        # excluded from docs + postings (reference: warn-don't-block,
        # failures recorded never raised).
        valid = np.ones(n_rows, dtype=bool)
        error_rows: list = []
        if self.config.validate:
            from solr_indexer_ray.stages.validate import validate_row

            repos = table["repo"].to_pylist()
            paths = table["path"].to_pylist()
            commits = table["commit"].to_pylist()
            for i in range(n_rows):
                st, msg = validate_row(
                    repos[i], paths[i], commits[i], int(doclens[i])
                )
                if st is not None:
                    valid[i] = False
                    error_rows.append(
                        {
                            "doc_id": int(doc_ids[i]),
                            "repo": repos[i], "path": paths[i],
                            "commit": commits[i], "stage": st, "message": msg,
                        }
                    )

        # ---- vectorized SPIMI aggregation over the whole unit ------------
        # postings = runs of equal (tid, doc) in the stably-sorted token
        # stream; positions fall out of the same sort (stable -> ascending
        # token position within each run).  No per-posting Python.
        dpr = self.config.docs_per_range
        ndocs = n_rows
        tid_parts, idx_parts, pos_parts = [], [], []
        for s_tids, s_dl in streams:  # content first, then analyzed fields
            s_dl64 = s_dl.astype(np.int64)
            s_idx = np.repeat(np.arange(ndocs, dtype=np.int64), s_dl64)
            tid_parts.append(s_tids)
            idx_parts.append(s_idx)
            if store_pos:  # positions cost two O(tokens) arrays — skip
                s_off = np.concatenate(([0], np.cumsum(s_dl64)))
                s_pos = (
                    np.arange(s_tids.size, dtype=np.int64)
                    - np.repeat(s_off[:-1], s_dl64)
                )
                pos_parts.append(s_pos)
        term_arr = pa.concat_arrays(term_parts)
        if self.config.store_bigrams and tid_parts[0].size:
            # next-word index (IndexConfig.store_bigrams): a synthetic
            # ``a\x1eb`` term per adjacent CONTENT-stream pair within a
            # doc; its tf IS the exact 2-term phrase frequency and its
            # postings ride the same spill/merge machinery untouched.
            c_tids, c_idx = tid_parts[0], idx_parts[0]
            same = c_idx[:-1] == c_idx[1:]
            if self.config.bigram_first:
                # common-word nextword index: only pairs whose FIRST
                # token is in the pinned list (query routing applies the
                # same list, so absence still means zero occurrences)
                lead_ok = pc.is_in(
                    term_arr,
                    value_set=pa.array(
                        list(self.config.bigram_first), pa.string()
                    ),
                ).to_numpy(zero_copy_only=False)
                same = same & lead_ok[c_tids[:-1]]
            pair = c_tids[:-1][same] * n_vocab + c_tids[1:][same]
            uniq, btids = np.unique(pair, return_inverse=True)
            bterm_arr = pc.binary_join_element_wise(
                term_arr.take(pa.array((uniq // n_vocab).astype(np.int64))),
                term_arr.take(pa.array((uniq % n_vocab).astype(np.int64))),
                "\x1e",
            )
            term_arr = pa.concat_arrays(
                [term_arr, bterm_arr.cast(pa.string())]
            )
            tid_parts.append(btids.astype(np.int64) + n_vocab)
            idx_parts.append(c_idx[:-1][same])
            if store_pos:
                # bigram position = the pair's first-token position (lets
                # future n>2 chains verify adjacency over bigram postings)
                pos_parts.append(pos_parts[0][:-1][same])

        pos_in_doc = None
        if len(tid_parts) == 1:
            tids, docidx = tid_parts[0], idx_parts[0]
            if store_pos:
                pos_in_doc = pos_parts[0]
        else:
            tids = np.concatenate(tid_parts)
            docidx = np.concatenate(idx_parts)
            if store_pos:
                pos_in_doc = np.concatenate(pos_parts)
        if not valid.all():
            keep = valid[docidx]
            tids, docidx = tids[keep], docidx[keep]
            if store_pos:
                pos_in_doc = pos_in_doc[keep]

        # Positional fast path (r4 kernel-cut parity for positions, VERDICT
        # r4 item 3): pack (shard, tid, doc, pos) into ONE int64 and plain-
        # sort it — no stable argsort permutation, no position gather, and
        # the spill-side (shard, tid, range) lexsort + re-gather below
        # collapse to slicing because the fused sort already emits postings
        # in shard-major order.  Requires the packed key to fit 63 bits and
        # unit doc_ids ascending (dense assignment makes them so); both are
        # checked, with the general argsort path as fallback.
        n_terms = len(term_arr)
        use_fused = False
        shards_by_tid = None
        if _FUSE_POSITIONAL and store_pos and ndocs and n_terms and tids.size:
            maxpos = int(pos_in_doc.max())
            bits_pos = max(1, maxpos.bit_length())
            shards_by_tid = term_shards_of_array(term_arr, n_shards)
            key_max = (
                (int(shards_by_tid.max()) * n_terms + (n_terms - 1))
                * ndocs + (ndocs - 1)
            )
            use_fused = (
                key_max < (1 << (62 - bits_pos))
                and bool(np.all(np.diff(doc_ids) >= 0))
            )
        if use_fused:
            fused_tid_key = shards_by_tid * n_terms + np.arange(
                n_terms, dtype=np.int64
            )
            key = (
                (fused_tid_key[tids] * ndocs + docidx) << bits_pos
            ) | pos_in_doc
            key.sort()
            positions_flat = (key & ((1 << bits_pos) - 1)).astype(np.int32)
            ksort = key >> bits_pos  # (shard*n_terms + tid)*ndocs + doc
        else:
            key = tids * ndocs + docidx
            if store_pos:
                # stable argsort: equal (tid, doc) runs keep ascending token
                # position, and ``order`` gathers the position stream
                order = np.argsort(key, kind="stable")
                ksort = key[order]
            else:
                # no positions -> only the sorted keys are consumed
                # downstream; plain sort skips the O(tokens) index array
                # + gather
                ksort = np.sort(key)
        if ksort.size:
            bnd = np.empty(ksort.size, dtype=bool)
            bnd[0] = True
            np.not_equal(ksort[1:], ksort[:-1], out=bnd[1:])
            pstart = np.flatnonzero(bnd)
        else:
            pstart = np.empty(0, np.int64)
        p_tf = np.diff(np.append(pstart, ksort.size)).astype(np.int32)
        if use_fused:
            c1 = ksort[pstart]
            p_doc = c1 % ndocs
            st = c1 // ndocs
            p_tid = st % n_terms
            p_shard_fused = st // n_terms
        else:
            p_tid = ksort[pstart] // ndocs if ndocs else ksort[pstart]
            p_doc = ksort[pstart] % ndocs if ndocs else ksort[pstart]
        p_docid = doc_ids[p_doc].astype(np.int64)
        p_rid = p_docid // dpr
        if store_pos and not use_fused:
            # grouped by posting (stable sort keeps pos ascending)
            positions_flat = pos_in_doc[order].astype(np.int32)

        # docs slice (valid rows only; invalid rows live in errors/)
        doc_cols = {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "repo": table["repo"],
            "path": table["path"],
            "commit": table["commit"],
            "lang": table["lang"],
            "sha256": pa.array(shas, pa.string()),
            "doclen": pa.array(doclens, pa.int32()),
            "norm": pa.array(norms, pa.uint8()),
        }
        docs_schema = DOCS_SCHEMA
        if self.config.store_content:
            # Solr stored="true" body field (reference stores the full
            # document in Solr: mmd_xml_file) — fl=content + highlighting
            doc_cols["content"] = table["content"]
            docs_schema = DOCS_SCHEMA.append(pa.field("content", pa.string()))
        for name in extra:  # extra stored fields, input types verbatim
            doc_cols[name] = table[name]
            docs_schema = docs_schema.append(
                pa.field(name, table.schema.field(name).type)
            )
        for fname, _src in afields:  # per-field lengths + norms (dense)
            doc_cols[f"doclen_{fname}"] = pa.array(
                field_doclens[fname], pa.int32()
            )
            doc_cols[f"norm_{fname}"] = pa.array(
                field_norms[fname], pa.uint8()
            )
            docs_schema = docs_schema.append(
                pa.field(f"doclen_{fname}", pa.int32())
            ).append(pa.field(f"norm_{fname}", pa.uint8()))
        docs_table = pa.table(doc_cols, schema=docs_schema)
        if not valid.all():
            docs_table = docs_table.filter(pa.array(valid))
        if self.doc_enricher is not None:
            # The enricher sees post-validation rows only (invalid rows are
            # already routed to errors/ and must not reach enrichment, the
            # same way the reference's thumbnail generator only runs on
            # records that passed MMD checks).  Row-count guard compares
            # against the filtered table, not the raw unit size.
            expected_rows = docs_table.num_rows
            docs_table = self.doc_enricher(docs_table)
            if docs_table.num_rows != expected_rows:
                raise ValueError("doc_enricher must preserve row count")
        docs_rel = f"docs/part-{uid:06d}.parquet"
        _atomic_write_table(docs_table, os.path.join(self.index_dir, docs_rel),
                            compression=self.config.compression)

        # raw postings spill, partitioned by term shard (the map side of the
        # postings shuffle): one file per shard this unit touches.  Rows are
        # (term, doc-range) groups; list columns are built zero-copy from
        # the sorted posting arrays (ListArray.from_arrays — no per-row
        # Python list materialization).
        post_rels = []
        n_postings = int(p_tid.size)
        if n_postings:
            if use_fused:
                # fused sort already emitted (shard, tid, doc-asc) order;
                # doc_ids ascending => range_id ascending within each term.
                # No lexsort, no gathers — the position stream is final.
                s_tid, s_rid, s_shard = p_tid, p_rid, p_shard_fused
                s_tf, s_docid = p_tf, p_docid
                s_positions = positions_flat
                out_off = np.concatenate(
                    ([0], np.cumsum(s_tf, dtype=np.int64))
                )
            else:
                # term_arr: tid -> term (first-appearance order)
                if shards_by_tid is None:
                    shards_by_tid = term_shards_of_array(term_arr, n_shards)
                p_shard = shards_by_tid[p_tid]
                order2 = np.lexsort((p_rid, p_tid, p_shard))
                s_tid = p_tid[order2]
                s_rid = p_rid[order2]
                s_shard = p_shard[order2]
                s_tf = p_tf[order2]
                s_docid = p_docid[order2]
                if store_pos:
                    in_off = np.concatenate(
                        ([0], np.cumsum(p_tf, dtype=np.int64))
                    )
                    lengths = s_tf.astype(np.int64)
                    out_off = np.concatenate(([0], np.cumsum(lengths)))
                    w = (
                        np.arange(int(lengths.sum()), dtype=np.int64)
                        - np.repeat(out_off[:-1], lengths)
                    )
                    s_positions = positions_flat[
                        np.repeat(in_off[order2], lengths) + w
                    ]
            # (shard, term, range) group boundaries over sorted postings
            gb = np.empty(n_postings, dtype=bool)
            gb[0] = True
            gb[1:] = (
                (s_tid[1:] != s_tid[:-1])
                | (s_rid[1:] != s_rid[:-1])
                | (s_shard[1:] != s_shard[:-1])
            )
            gstart = np.flatnonzero(gb)
            gcount = np.diff(np.append(gstart, n_postings))
            post_off = np.concatenate(([0], np.cumsum(gcount)))
            g_tid, g_rid, g_shard = s_tid[gstart], s_rid[gstart], s_shard[gstart]
            if store_pos:
                # encode the unit's WHOLE position stream once (deltas
                # restart per posting), then slice per-row blobs by byte
                # offsets at the row boundaries
                pos_deltas = segmented_delta_encode(
                    s_tf.astype(np.int64), s_positions
                )
                pos_blob = varint_encode(pos_deltas)
                row_boff = varint_byte_offsets(
                    pos_deltas, out_off[post_off]
                )
            # shard runs are contiguous (primary sort key)
            sb = np.empty(gstart.size, dtype=bool)
            sb[0] = True
            sb[1:] = g_shard[1:] != g_shard[:-1]
            sstart = np.flatnonzero(sb)
            for a, b in zip(sstart, np.append(sstart[1:], gstart.size)):
                s = int(g_shard[a])
                plo, phi = int(post_off[a]), int(post_off[b])
                offs = (post_off[a:b + 1] - plo).astype(np.int32)
                cols = {
                    "term": term_arr.take(
                        pa.array(g_tid[a:b], pa.int64())
                    ),
                    "range_id": pa.array(g_rid[a:b], pa.int64()),
                    "doc_ids": pa.ListArray.from_arrays(
                        pa.array(offs, pa.int32()),
                        pa.array(s_docid[plo:phi], pa.int64()),
                    ),
                    "tfs": pa.ListArray.from_arrays(
                        pa.array(offs, pa.int32()),
                        pa.array(s_tf[plo:phi], pa.int32()),
                    ),
                }
                if store_pos:
                    cols["positions"] = _binary_column(
                        pos_blob, row_boff[a:b + 1],
                        f"unit {uid} shard {s} positions",
                    )
                post_table = pa.table(
                    cols,
                    schema=RAW_POSTINGS_POS_SCHEMA if store_pos
                    else RAW_POSTINGS_SCHEMA,
                )
                rel = f"postings_raw/shard={s}/unit-{uid:06d}.parquet"
                os.makedirs(
                    os.path.join(self.index_dir, f"postings_raw/shard={s}"),
                    exist_ok=True,
                )
                _atomic_write_table(
                    post_table, os.path.join(self.index_dir, rel),
                    compression=self.config.compression,
                )
                post_rels.append(rel)

        if error_rows:
            os.makedirs(os.path.join(self.index_dir, "errors"), exist_ok=True)
            err_rel = f"errors/part-{uid:06d}.parquet"
            _atomic_write_table(
                pa.Table.from_pylist(error_rows, schema=ERRORS_SCHEMA),
                os.path.join(self.index_dir, err_rel),
            )
            post_rels.append(err_rel)

        entry = {
            "lineage": {
                "file": str(unit["file"]),
                "row_group": int(unit["row_group"]),
                "row_offset": int(unit["row_offset"]),
                "num_rows": int(unit["num_rows"]),
                "content_digest": hashlib.sha256(
                    "".join(shas).encode()
                ).hexdigest(),
            },
            "outputs": [docs_rel, *post_rels],
            "n_docs": int(valid.sum()),
            "n_rows": n_rows,
            "n_failed": len(error_rows),
            "sum_dl": int(doclens[valid].sum()),
            # per-analyzed-field partials: sumTotalLength + docCount
            # (Lucene: docs with >= 1 term in the field)
            "field_sums": {
                f: {
                    "sum_dl": int(field_doclens[f][valid].sum()),
                    "n_docs": int((field_doclens[f][valid] > 0).sum()),
                }
                for f, _ in afields
            },
            "n_terms_partial": int(gstart.size) if n_postings else 0,
            "metrics": {
                "wall_s": round(time.perf_counter() - t0, 4),
                "n_tokens": int(doclens.sum()),
            },
            "skipped": False,
        }
        if self.config.checkpoint:
            self.manifest.write_unit(uid, entry)
        return _entry_to_row(dict(entry, unit_id=uid))


def _entry_to_row(entry: dict) -> dict:
    return {
        "unit_id": int(entry["unit_id"]),
        "n_docs": int(entry["n_docs"]),
        "n_rows": int(entry.get("n_rows", entry["n_docs"])),
        "n_failed": int(entry.get("n_failed", 0)),
        "sum_dl": int(entry["sum_dl"]),
        "skipped": bool(entry.get("skipped", False)),
        "wall_s": float(entry.get("metrics", {}).get("wall_s", 0.0)),
        # nested dict -> JSON so the partial rides a flat Arrow column
        "field_sums_json": json.dumps(entry.get("field_sums", {})),
    }


#: a doc range left with more postings segments than this by a commit
#: has them merged into one (Lucene's ``mergeFactor``)
MERGE_FACTOR = 10

#: the columns a segment merge reads (files of older layouts may hold
#: more)
_SEGMENT_COLUMNS = ["term", "df", "doc_ids", "tfs", "positions"]


class ShardMerger:
    """Stage-2 task: the reduce side of the explicit postings shuffle.

    One task per term shard; reads the shard's spill files of this
    commit's ``units`` (written map-side by :class:`UnitIndexer` — no
    all-to-all through the object store, the filesystem IS the shuffle),
    merges each (term, doc-range)'s partial lists, and writes one new
    immutable segment per doc range, ``postings/shard=S/range-R-seg-G.parquet``
    (G: the commit's ``generation``), with terms sorted (parquet
    row-group stats then prune term lookups; the hive ``shard=`` layout
    prunes across files).  No ``committed`` file is written to: a range
    left with more than :data:`MERGE_FACTOR` segments, or every range
    when ``dead`` is given (a dense mask of deleted doc ids: compaction),
    has its segments merged into one new segment instead
    (:func:`merge_segments`), and the files it replaced are reported for
    the commit to drop.
    """

    def __init__(self, index_dir: str, units: range, generation: int,
                 committed=(), dead=None, compression: str = "zstd"):
        self.index_dir = os.fspath(index_dir)
        self.units = units
        self.generation = generation
        #: the committed postings files, relative to ``postings/``
        self.committed = committed
        self.dead = dead
        self.compression = compression

    def __call__(self, batch: dict) -> pa.Table:
        rows = [self._merge_shard(int(s)) for s in batch["shard"]]
        return pa.table({
            "shard": pa.array([r["shard"] for r in rows], pa.int64()),
            "n_terms": pa.array([r["n_terms"] for r in rows], pa.int64()),
            **{k: pa.array([r[k] for r in rows], pa.list_(pa.string()))
               for k in ("files", "replaced")},
        })

    def _merge_shard(self, shard: int) -> dict:
        """Write the shard's new segments; ``n_terms`` is the change in
        its committed term rows, ``files`` the segments written and
        ``replaced`` the committed files they replace."""
        root = os.path.join(self.index_dir, "postings")
        prefix = f"shard={shard}/"
        segs: dict = {}
        for rel in self.committed:
            if rel.startswith(prefix):
                segs.setdefault(segment_range(rel[len(prefix):]),
                                []).append(rel)
        fresh = self._merge_spills(shard)
        out, replaced, n_terms = {}, [], 0
        for rid in sorted(segs.keys() | fresh.keys()):
            old, new = segs.get(rid, []), [fresh[rid]] if rid in fresh else []
            if self.dead is not None or len(old) + len(new) > MERGE_FACTOR:
                read = [pq.read_table(os.path.join(root, r),
                                      columns=_SEGMENT_COLUMNS) for r in old]
                n_terms -= sum(t.num_rows for t in read)
                replaced += old
                merged = merge_segments(read + new, rid,
                                        f"shard {shard} range {rid}",
                                        self.dead)
                new = [] if merged is None else [merged]
            if new:
                out[prefix + segment_name(rid, self.generation)] = new[0]
        # every range is merged before any is written, so a bad spill
        # raises before this commit writes a file of the shard
        for rel, tbl in out.items():
            os.makedirs(os.path.join(root, prefix), exist_ok=True)
            _atomic_write_table(tbl, os.path.join(root, rel),
                                row_group_size=512,
                                compression=self.compression)
            n_terms += tbl.num_rows
        return {"shard": shard, "n_terms": n_terms, "files": sorted(out),
                "replaced": replaced}

    def _merge_spills(self, shard: int) -> dict:
        """``{range: merged table}`` from the shard's spills of
        ``units``."""
        import pyarrow.dataset as pads

        src = os.path.join(self.index_dir, "postings_raw", f"shard={shard}")
        names = sorted(
            n for n in (os.listdir(src) if os.path.isdir(src) else ())
            if n.startswith("unit-") and n.endswith(".parquet")
            and int(n[5:-8]) in self.units)
        if not names:
            return {}
        ds = pads.dataset([os.path.join(src, n) for n in names])
        # named columns only: spill files may carry columns this merge
        # does not read
        cols = [n for n in ("term", "range_id", "doc_ids", "tfs",
                            "positions") if n in ds.schema.names]
        tbl = ds.to_table(columns=cols)
        if tbl.num_rows == 0:
            return {}
        order = pc.sort_indices(
            tbl,
            sort_keys=[("range_id", "ascending"), ("term", "ascending")],
        )
        tbl = tbl.take(order).combine_chunks()
        rids = tbl["range_id"].to_numpy()
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(rids)) + 1, [rids.size])
        )
        out = {}
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            part = tbl.slice(r0, r1 - r0)
            ids, tfs = part["doc_ids"].chunk(0), part["tfs"].chunk(0)
            out[int(rids[r0])] = _merge_rows(
                part["term"].chunk(0),
                np.asarray(pc.list_value_length(ids).to_numpy(), np.int64),
                np.asarray(pc.list_flatten(ids).to_numpy(), np.int64),
                np.asarray(pc.list_flatten(tfs).to_numpy(), np.int64),
                part["positions"].chunk(0) if "positions" in cols else None,
                int(rids[r0]), f"shard {shard} range {int(rids[r0])}",
            )
        return out


def _merge_rows(term, counts, flat_ids, flat_tfs, pos_col, rid: int,
                where: str) -> pa.Table:
    """Merge one doc-range's rows (sorted by term; row ``i`` holds
    ``counts[i]`` postings of ``flat_ids``/``flat_tfs`` and, with
    positions, one position blob) into the packed table, in ONE
    vectorized pass over the whole range.

    Rows are permuted so each term's parts sit contiguously ordered by
    first doc id (one ``lexsort``), every stream is gathered once,
    doc-id deltas restart per TERM (parts cover disjoint intervals so
    the concatenation is already sorted), and the range's streams are
    varint-packed ONCE; each output column is then one Arrow array
    over the shared buffer, cut at term boundaries by byte offsets
    (``varint_byte_offsets``).  Positions arrive pre-encoded per row,
    so a term's merged positions are its parts' blobs back to back.  A
    term whose concatenated doc ids are not strictly increasing
    (overlapping parts) raises.
    """
    nrow = len(term)
    row_starts = np.concatenate(([0], np.cumsum(counts)))

    # term runs (rows are sorted by term within the range)
    new_run = np.ones(nrow, dtype=bool)
    new_run[1:] = pc.not_equal(term[1:], term[:-1]).to_numpy(
        zero_copy_only=False
    )
    run_starts = np.flatnonzero(new_run)
    run_id = np.cumsum(new_run) - 1

    # permute rows: term-contiguous, parts ordered by first doc id
    firsts = (
        flat_ids[np.minimum(row_starts[:-1], flat_ids.size - 1)]
        if flat_ids.size else np.zeros(nrow, np.int64)
    )
    perm = np.lexsort((firsts, run_id))
    identity = bool((perm == np.arange(perm.size)).all())
    if not identity:
        g_counts = counts[perm]
        g_starts = np.concatenate(([0], np.cumsum(g_counts)))
        gidx = (
            np.repeat(row_starts[perm], g_counts)
            + np.arange(int(g_counts.sum()), dtype=np.int64)
            - np.repeat(g_starts[:-1], g_counts)
        )
        flat_ids = flat_ids[gidx]
        flat_tfs = flat_tfs[gidx]

    # per-term value extents
    df = np.add.reduceat(counts, run_starts)
    t_starts = np.concatenate(([0], np.cumsum(df)))

    # parts must tile disjoint doc-id intervals: a break in strict
    # increase is fine only at a term boundary
    if flat_ids.size > 1:
        nondec = np.flatnonzero(np.diff(flat_ids) <= 0) + 1
        bad = nondec[~np.isin(nondec, t_starts)]
        if bad.size:
            ri = int(np.searchsorted(t_starts, bad[0], side="right")) - 1
            raise ValueError(
                f"{where}: term "
                f"{term[int(run_starts[ri])].as_py()!r} has non-increasing "
                f"doc id {int(flat_ids[bad[0]])} (overlapping unit spills "
                "or segments)"
            )

    # doc-id deltas restart per term
    id_deltas = np.empty_like(flat_ids)
    if flat_ids.size:
        id_deltas[0] = flat_ids[0]
        np.subtract(flat_ids[1:], flat_ids[:-1], out=id_deltas[1:])
        ts = t_starts[:-1][df > 0]
        id_deltas[ts] = flat_ids[ts]
    # byte offsets ONLY at term boundaries (multi-byte deltas are
    # rare, so no per-value byte-length cumsum is materialized)
    doc_ids = _binary_column(
        varint_encode(id_deltas.view(np.uint64)),
        varint_byte_offsets(id_deltas, t_starts), where,
    )
    tfs = _binary_column(
        varint_encode(flat_tfs.view(np.uint64)),
        varint_byte_offsets(flat_tfs, t_starts), where,
    )
    cf = np.add.reduceat(flat_tfs, t_starts[:-1])

    if pos_col is None:
        positions = pa.nulls(run_starts.size, pa.binary())
    else:
        if not identity:
            pos_col = pos_col.take(pa.array(perm))
        pos_boff, data = _binary_parts(pos_col)
        positions = _binary_column(
            data, pos_boff[np.append(run_starts, nrow)], where)

    return pa.Table.from_arrays(
        [
            term.take(pa.array(run_starts)),
            pa.array(np.full(run_starts.size, rid, np.int64)),
            pa.array(df),
            pa.array(cf),
            doc_ids,
            tfs,
            positions,
        ],
        schema=MERGED_POSTINGS_SCHEMA,
    )


def _binary_parts(col) -> tuple:
    """A binary array's row byte offsets (int64, into the returned
    buffer) and its data buffer."""
    _, offs_buf, data_buf = col.buffers()
    boff = np.frombuffer(offs_buf, dtype=np.int32, count=len(col) + 1,
                         offset=4 * col.offset).astype(np.int64)
    return boff, data_buf or pa.py_buffer(b"")


def _varint_rows(col) -> np.ndarray:
    """Every row's varint stream of binary array ``col``, decoded in one
    pass over their concatenation (int64, row order)."""
    boff, data = _binary_parts(col)
    return varint_decode(
        data.slice(int(boff[0]), int(boff[-1] - boff[0]))).astype(np.int64)


def merge_segments(tables: list, rid: int, where: str,
                   dead=None) -> pa.Table | None:
    """Merge doc range ``rid``'s postings segments (tables with the
    :data:`_SEGMENT_COLUMNS` of ``MERGED_POSTINGS_SCHEMA``) into one —
    Lucene's segment merge — dropping the postings of the doc ids the
    dense bool mask ``dead`` marks (None: none) on the way.  Every row's
    doc ids and tfs are decoded in one pass over all rows; a dead
    posting's block is cut out of its row's position blob (deltas
    restart per posting, so what remains is still valid, with no
    re-encode); the rows are then merged as stage 2 merges spill rows
    (:func:`_merge_rows`).  None when no posting survives."""
    tbl = pa.concat_tables([t.select(_SEGMENT_COLUMNS) for t in tables])
    if tbl.num_rows == 0:
        return None
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("term", "ascending")]))
    tbl = tbl.combine_chunks()
    term, pos = tbl["term"].chunk(0), tbl["positions"].chunk(0)
    if pos.null_count == len(pos):
        pos = None
    counts = tbl["df"].to_numpy()
    starts = np.cumsum(counts) - counts
    deltas = _varint_rows(tbl["doc_ids"].chunk(0))
    flat_ids = np.cumsum(deltas)  # doc-id deltas restart per row
    flat_ids -= np.repeat(flat_ids[starts] - deltas[starts], counts)
    flat_tfs = _varint_rows(tbl["tfs"].chunk(0))
    if dead is not None:
        keep = ~dead[flat_ids]
        kept = np.concatenate(([0], np.cumsum(keep)))
        live = kept[starts + counts] - kept[starts]
        if pos is not None:
            pos = _cut_positions(pos, flat_tfs, keep, starts, counts, where)
        rows = pa.array(live > 0)
        term, counts = term.filter(rows), live[live > 0]
        pos = None if pos is None else pos.filter(rows)
        flat_ids, flat_tfs = flat_ids[keep], flat_tfs[keep]
        if not counts.size:
            return None
    return _merge_rows(term, counts, flat_ids, flat_tfs, pos, rid, where)


def _cut_positions(pos, flat_tfs, keep, starts, counts, where: str):
    """Position blobs ``pos`` (one per row, one delta-varint block per
    posting, ``flat_tfs`` values each) without the blocks of the
    postings ``keep`` drops.  A block ends at the terminal byte of its
    last value: one continuation-bit scan over all blobs finds every
    block's byte extent."""
    boff, data = _binary_parts(pos)
    data = np.frombuffer(data, np.uint8)[boff[0]:boff[-1]]
    ends = np.searchsorted(np.cumsum(data < 0x80), np.cumsum(flat_tfs),
                           "left") + 1
    begins = np.concatenate(([0], ends[:-1]))
    lens = (ends - begins) * keep
    total = int(lens.sum())
    out = data[np.repeat(begins - (np.cumsum(lens) - lens), lens)
               + np.arange(total, dtype=np.int64)]
    row_bytes = np.concatenate(([0], np.cumsum(lens)))
    row_bytes = row_bytes[starts + counts] - row_bytes[starts]
    return _binary_column(out, np.concatenate(([0], np.cumsum(row_bytes))),
                          where)


# Stages run as Ray TASKS, not actor pools: the expensive per-worker state
# (compiled regexes, identifier-expansion cache) lives at module level and
# survives across tasks on warm workers, while tasks avoid the
# per-execution actor-pool spawn cost and scale elastically.  Stage
# callables stay classes (UnitIndexer/ShardMerger) for direct testing.
def _run_stage1(unit_rows, index_dir, config, registry, doc_enricher):
    """Stage 1 over ``unit_rows`` -> (one result row per unit, the job's
    ``Dataset.stats()``)."""
    def run_units(batch: dict) -> pa.Table:
        return UnitIndexer(index_dir, config, registry, doc_enricher)(batch)

    ds = rd.from_items(unit_rows).map_batches(
        run_units, batch_size=1, batch_format="numpy", num_cpus=1
    )
    rows = ds.take_all()  # small: one row per unit
    return rows, ds.stats()


def _run_stage2(index_dir, n_shards, **merger):
    """Stage 2 over every term shard (:class:`ShardMerger` ``merger``
    arguments) -> (one result row per shard, the job's
    ``Dataset.stats()``)."""
    def run_merge(batch: dict) -> pa.Table:
        return ShardMerger(index_dir, **merger)(batch)

    ds = rd.from_items([{"shard": s} for s in range(n_shards)]).map_batches(
        run_merge, batch_size=1, batch_format="numpy", num_cpus=1
    )
    rows = ds.take_all()
    return rows, ds.stats()


def _run_record(timings: dict, ray_stats: dict) -> dict:
    """A commit's own run record for its stats: the wall seconds of each
    of its steps (``timings``) and the start of each of its Ray Data
    jobs' ``Dataset.stats()`` (``ray_stats``), so per-stage wall/cpu
    breakdowns are inspectable after the fact (reference analogue:
    per-stage timers, solrindexer/indexer.py:674-682)."""
    return {
        "timings": {k: round(v, 3) for k, v in timings.items()},
        "ray_stats": {k: v[:1500] for k, v in ray_stats.items()},
    }


def _remove_spills(index_dir: str) -> None:
    shutil.rmtree(os.path.join(index_dir, "postings_raw"), ignore_errors=True)


def _publish(manifest, stats: dict, committed, merged: list) -> dict:
    """Commit ``stats`` with the postings files stage 2 left: the
    ``committed`` ones less those its merges replaced, plus the segments
    it wrote (``merged``: its result rows), and the term rows they hold.
    Then unlink the replaced files and the spills, which no committed
    generation reads (an engine holding a replaced file keeps its
    bytes).  Returns the committed stats."""
    replaced = {r for row in merged for r in row["replaced"]}
    files = set(committed) - replaced
    files.update(f for row in merged for f in row["files"])
    stats = dict(stats, postings_files=sorted(files),
                 n_term_rows=int(stats.get("n_term_rows", 0))
                 + sum(int(r["n_terms"]) for r in merged))
    stats.pop("spills_dropped", None)
    manifest.commit(stats)
    for rel in replaced:
        try:
            os.unlink(os.path.join(manifest.index_dir, "postings", rel))
        except FileNotFoundError:
            pass
    _remove_spills(manifest.index_dir)
    return manifest.read_stats()


def build_index(
    input_paths,
    index_dir: str,
    config: IndexConfig | None = None,
    registry: AnalyzerRegistry | None = None,
    overwrite: bool = False,
    doc_enricher=None,
) -> dict:
    """Run the full build; returns the committed stats dict.

    Resume semantics: with ``config.checkpoint`` (default), rerunning after
    an interruption before the commit skips completed stage-1 units; stage
    2 re-runs from their spills.  Rerunning a committed build returns its
    stats; any other build into a committed index starts over.
    ``overwrite=True`` clears the index dir.
    """
    config = config or DEFAULT_CONFIG
    registry = registry or AnalyzerRegistry(config.default_analyzer)
    index_dir = os.fspath(index_dir)
    if overwrite and os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    manifest = BuildManifest(index_dir)
    manifest.ensure_dirs()
    # single-writer discipline (Lucene write.lock analogue): concurrent
    # builds against one index dir fail fast instead of corrupting it
    manifest.acquire_lock()
    try:
        return _build_index_locked(
            input_paths, index_dir, config, registry, doc_enricher, manifest
        )
    finally:
        manifest.release_lock()


def _build_index_locked(input_paths, index_dir, config, registry,
                        doc_enricher, manifest) -> dict:
    t0 = time.perf_counter()
    units = list_units(input_paths)
    if not units:
        raise ValueError(f"no parquet inputs under {input_paths!r}")
    if manifest.is_committed():
        # the commit merged its units' spills into postings and deleted
        # them: a re-run of the committed build has nothing to do, any
        # other build here starts over
        done = manifest.read_stats()
        if config.checkpoint and len(units) == done.get("n_units") and all(
                manifest.unit_complete(u.unit_id) for u in units):
            return done
        for name in os.listdir(index_dir):
            path = os.path.join(index_dir, name)
            if name != os.path.basename(manifest.lock_path()):
                (shutil.rmtree if os.path.isdir(path) else os.unlink)(path)
        manifest.ensure_dirs()

    import ray

    # ray.cluster_resources() raises before init; under lazy auto-init
    # (RAY_ADDRESS=local, no explicit ray.init yet) estimate from the host
    # and let the first Dataset job trigger the init
    cpus = (int(ray.cluster_resources().get("CPU", 4))
            if ray.is_initialized() else (os.cpu_count() or 4))
    # shard count for the explicit postings shuffle: enough reduce tasks for
    # parallelism, few enough that the map-side spill stays coarse
    # (<= units × shards files total).
    n_shards = max(8, min(64, cpus * 2, len(units) * 2))

    unit_rows = [dict(u.to_row(), n_shards=n_shards) for u in units]
    unit_results, stage1 = _run_stage1(unit_rows, index_dir, config,
                                       registry, doc_enricher)
    t1 = time.perf_counter()

    n_docs = sum(r["n_docs"] for r in unit_results)
    n_failed = sum(r["n_failed"] for r in unit_results)
    sum_dl = sum(r["sum_dl"] for r in unit_results)
    field_stats: dict = {}
    for r in unit_results:
        for f, s in json.loads(r.get("field_sums_json") or "{}").items():
            acc = field_stats.setdefault(f, {"sum_dl": 0, "n_docs": 0})
            acc["sum_dl"] += int(s["sum_dl"])
            acc["n_docs"] += int(s["n_docs"])
    for f, acc in field_stats.items():
        acc["avgdl"] = (
            acc["sum_dl"] / acc["n_docs"] if acc["n_docs"] else 0.0
        )
    doc_id_space = sum(u.num_rows for u in units) if units else 0
    doc_id_space = max(doc_id_space, units[-1].row_offset + units[-1].num_rows)

    # ---- stage 2: per-shard reduce of the spilled postings ---------------
    postings_dir = os.path.join(index_dir, "postings")
    if os.path.isdir(postings_dir):
        shutil.rmtree(postings_dir)
    os.makedirs(postings_dir, exist_ok=True)

    merged, stage2 = _run_stage2(index_dir, n_shards, units=range(len(units)),
                                 generation=1, compression=config.compression)
    t2 = time.perf_counter()

    # ---- commit ---------------------------------------------------------
    stats = {
        "n_docs": int(n_docs),
        "n_failed": int(n_failed),
        "doc_id_space": int(doc_id_space),
        "sum_dl": int(sum_dl),
        "avgdl": (float(sum_dl) / n_docs) if n_docs else 0.0,
        "n_units": len(units),
        "docs_files": [f"part-{u.unit_id:06d}.parquet" for u in units],
        "n_shards": n_shards,
        "docs_per_range": config.docs_per_range,
        "store_positions": bool(config.store_positions),
        "store_bigrams": bool(config.store_bigrams),
        "bigram_first": sorted(config.bigram_first or ()),
        "compression": config.compression,
        "generation": 1,  # Solr commit generation; bumped by every commit
        "store_content": bool(config.store_content),
        "extra_stored": list(config.extra_stored),
        "analyzed_fields": list(config.analyzed_fields),
        "field_stats": field_stats,
        "k1": config.k1,
        "b": config.b,
        "analyzer_default": registry.default,
        "analyzer_lang_map": registry.lang_map,
        **_filter_chain_stats(config),
        **_run_record(
            {"stage1_s": t1 - t0, "stage2_s": t2 - t1, "total_s": t2 - t0},
            {"stage1": stage1, "stage2": stage2}),
    }
    return _publish(manifest, stats, (), merged)


def extend_index(
    input_paths,
    index_dir: str,
    config: IndexConfig | None = None,
    doc_enricher=None,
) -> dict:
    """Incrementally index NEW inputs into a committed index.

    The reference's primary operating mode is exactly this — continuously
    adding documents to a live Solr core (``indexdata`` runs against an
    existing core; upsert by id, ``solrindexer/indexer.py:470-690``).  Here:

    - new units get doc ids continuing after the existing ``doc_id_space``
      (deterministic: sorted new inputs, prefix sums);
    - index-shape parameters (shards, doc ranges, k1/b,
      analyzer pin) come from the committed stats — they define the layout
      and MUST NOT change between extensions;
    - stage 2 merges only the new units' spills: each doc range that
      gets new docs (the boundary range and new ones) gets a new segment
      holding only those docs, and no committed file is rewritten.  A
      range left with more than :data:`MERGE_FACTOR` segments has them
      merged into one.  Work is proportional to the NEW data, not the
      index size.

    Note: BM25 stats (N, avgdl, df) change with every extension, so scores
    for old queries legitimately shift — same as a Solr commit.
    """
    config = config or DEFAULT_CONFIG
    index_dir = os.fspath(index_dir)
    manifest = BuildManifest(index_dir)
    if not manifest.is_committed():
        raise FileNotFoundError(f"no committed index at {index_dir}")
    manifest.acquire_lock()
    try:
        return _extend_index_locked(input_paths, index_dir, config,
                                    doc_enricher, manifest)
    finally:
        manifest.release_lock()


def _extend_index_locked(input_paths, index_dir, config, doc_enricher,
                         manifest) -> dict:
    old = manifest.read_stats()
    registry = AnalyzerRegistry(
        old["analyzer_default"], overrides=old["analyzer_lang_map"]
    )
    import dataclasses

    config = dataclasses.replace(
        config,
        docs_per_range=int(old["docs_per_range"]),
        k1=float(old["k1"]),
        b=float(old["b"]),
        store_positions=bool(old.get("store_positions", False)),
        store_bigrams=bool(old.get("store_bigrams", False)),
        bigram_first=tuple(old.get("bigram_first") or ()),
        compression=str(old.get("compression", "zstd")),
        store_content=bool(old.get("store_content", False)),
        extra_stored=tuple(old.get("extra_stored", ()) or ()),
        analyzed_fields=tuple(old.get("analyzed_fields", ()) or ()),
        filters=tuple(old.get("filters", ()) or ()),
        stopwords=(
            tuple(old["stopwords"]) if old.get("stopwords") is not None
            else None
        ),
    )
    n_shards = int(old["n_shards"])
    base = int(old["doc_id_space"])
    generation = int(old.get("generation", 1)) + 1
    # listed before stage 1 writes new files beside them
    committed = manifest.committed_files(old, "postings")
    docs = manifest.committed_files(old, "docs")

    t0 = time.perf_counter()
    units = list_units(input_paths)
    if not units:
        raise ValueError(f"no parquet inputs under {input_paths!r}")
    # the committed units only.  An extend that crashed before its
    # commit left entries for units no commit published (they would skip
    # their inputs by lineage) and spills (this commit's merge would read
    # them under the reused unit ids): both go
    parts = set(docs)
    prev_units = []
    for u in manifest.read_all_units():
        if f"part-{int(u['unit_id']):06d}.parquet" in parts:
            prev_units.append(u)
        else:
            os.remove(manifest.unit_entry_path(int(u["unit_id"])))
    shutil.rmtree(os.path.join(index_dir, "postings_raw"),
                  ignore_errors=True)
    if not prev_units and int(old.get("n_units", 0)) > 0:
        raise ValueError(
            "extend_index requires a checkpointed index "
            "(built with config.checkpoint=True)"
        )
    # idempotence: inputs already in the index (by lineage) are skipped —
    # extending twice with the same files must not duplicate docs.  A true
    # re-index of changed content goes through upsert/rebuild instead.
    seen_lineage = {
        (u["lineage"]["file"], u["lineage"]["row_group"]) for u in prev_units
    }
    units = [u for u in units if (u.file, u.row_group) not in seen_lineage]
    if not units:
        return manifest.read_stats()
    from solr_indexer_ray.sources.parquet_units import ReadUnit

    # re-pack offsets over the surviving units (dense continuation after
    # the existing doc-id space), fresh unit ids after the existing ones
    next_uid = (
        max(int(u["unit_id"]) for u in prev_units) + 1 if prev_units else 0
    )
    shifted = []
    offset = 0
    for i, u in enumerate(units):
        shifted.append(
            ReadUnit(next_uid + i, u.file, u.row_group, base + offset,
                     u.num_rows)
        )
        offset += u.num_rows
    unit_rows = [dict(u.to_row(), n_shards=n_shards) for u in shifted]
    unit_results, stage1 = _run_stage1(unit_rows, index_dir, config,
                                       registry, doc_enricher)
    t1 = time.perf_counter()

    merged, stage2 = _run_stage2(
        index_dir, n_shards, units=range(next_uid, next_uid + len(shifted)),
        generation=generation, committed=committed,
        compression=config.compression)
    t2 = time.perf_counter()

    new_docs = sum(r["n_docs"] for r in unit_results)
    new_failed = sum(r["n_failed"] for r in unit_results)
    new_dl = sum(r["sum_dl"] for r in unit_results)
    n_docs = int(old["n_docs"]) + new_docs
    sum_dl = int(old["sum_dl"]) + new_dl
    field_stats = {
        f: dict(s) for f, s in (old.get("field_stats") or {}).items()
    }
    for r in unit_results:
        for f, s in json.loads(r.get("field_sums_json") or "{}").items():
            acc = field_stats.setdefault(f, {"sum_dl": 0, "n_docs": 0})
            acc["sum_dl"] = int(acc["sum_dl"]) + int(s["sum_dl"])
            acc["n_docs"] = int(acc["n_docs"]) + int(s["n_docs"])
    for f, acc in field_stats.items():
        acc["avgdl"] = (
            acc["sum_dl"] / acc["n_docs"] if acc["n_docs"] else 0.0
        )

    stats = dict(
        old,
        generation=generation,
        n_docs=n_docs,
        n_failed=int(old.get("n_failed", 0)) + new_failed,
        doc_id_space=base + sum(u.num_rows for u in units),
        sum_dl=sum_dl,
        avgdl=(float(sum_dl) / n_docs) if n_docs else 0.0,
        n_units=int(old["n_units"]) + len(units),
        docs_files=docs + [f"part-{u.unit_id:06d}.parquet" for u in shifted],
        field_stats=field_stats,
        **_run_record(
            {"stage1_s": t1 - t0, "stage2_s": t2 - t1, "total_s": t2 - t0},
            {"stage1": stage1, "stage2": stage2}),
    )
    return _publish(manifest, stats, committed, merged)
