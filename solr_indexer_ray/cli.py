"""Command-line entry points — the ``indexdata`` / ``searchindex`` analogue.

Reference: console scripts ``indexdata`` (``/root/reference/solrindexer/
cli.py``) and ``searchindex`` (``solrindexer/search.py``).  Subcommands:

    python -m solr_indexer_ray.cli index  -i CORPUS... -o INDEX [--config cfg.yml]
    python -m solr_indexer_ray.cli search -o INDEX -q QUERY [-k N] [--fl f1,f2]
    python -m solr_indexer_ray.cli get    -o INDEX --id DOC_ID
    python -m solr_indexer_ray.cli delete -o INDEX [--id N ...] [--query Q]
    python -m solr_indexer_ray.cli status -o INDEX

Exit codes follow the reference contract (``solrindexer/cli.py:270-276``):
0 = success, 1 = everything failed, 3 = partial failures.  This module is
the only library entry point that may own a Ray session — and only when one
isn't already running (driver/pytest own theirs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _format_xml_display(xml_text: str) -> str:
    """Pretty-format an XML string for terminal display; returns the text
    unchanged if it does not parse (reference ``_format_xml_for_display``,
    ``solrindexer/search.py:74-82`` — lxml there, stdlib minidom here)."""
    if not xml_text:
        return xml_text
    try:
        from xml.dom import minidom

        pretty = minidom.parseString(xml_text).toprettyxml(indent="  ")
        # minidom prepends the <?xml?> declaration and pads blank lines
        lines = [ln for ln in pretty.splitlines()
                 if ln.strip() and not ln.startswith("<?xml")]
        return "\n".join(lines)
    except Exception:
        return xml_text


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False


def cmd_index(args) -> int:
    from solr_indexer_ray.config import DEFAULT_CONFIG, load_config
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.stages.validate import determine_exit_code

    _ensure_ray()
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    extra = tuple(
        c for c in (getattr(args, "extra_stored", None) or "").split(",") if c
    )
    afields = tuple(getattr(args, "analyzed_fields", None) or ())
    filters = tuple(
        f for f in (getattr(args, "filters", None) or "").split(",") if f
    )
    bgfirst = tuple(
        t for t in (getattr(args, "bigram_first", None) or "").split(",")
        if t
    )
    if (args.validate and not config.validate) or getattr(
        args, "positions", False
    ) or getattr(args, "bigrams", False) or bgfirst \
            or getattr(args, "store_content", False) or extra or afields \
            or filters:
        import dataclasses

        config = dataclasses.replace(
            config,
            validate=config.validate or args.validate,
            store_positions=config.store_positions or args.positions,
            store_bigrams=(
                config.store_bigrams or getattr(args, "bigrams", False)
                or bool(bgfirst)
            ),
            bigram_first=tuple(config.bigram_first) + bgfirst,
            store_content=config.store_content or args.store_content,
            extra_stored=tuple(config.extra_stored) + extra,
            analyzed_fields=tuple(config.analyzed_fields) + afields,
            filters=tuple(config.filters) + filters,
        )
    t0 = time.time()
    if args.extend:
        from solr_indexer_ray.pipelines.build import extend_index

        stats = extend_index(args.input, args.output, config=config)
    else:
        stats = build_index(
            args.input, args.output, config=config, overwrite=args.overwrite
        )
    n_failed = stats.get("n_failed", 0)
    if n_failed:
        # failure analytics (reference: failure_tracker summary)
        import os

        import ray.data as rd

        from solr_indexer_ray.stages.validate import failure_summary

        errors = rd.read_parquet(os.path.join(args.output, "errors"))
        print(failure_summary(errors).to_string(index=False), file=sys.stderr)
    # run telemetry (reference: solrindexer/cli.py:217-241)
    print(
        json.dumps(
            {
                "n_docs": stats["n_docs"],
                "n_term_rows": stats["n_term_rows"],
                "avgdl": round(stats["avgdl"], 3),
                "wall_s": round(time.time() - t0, 3),
                "failed_rows": n_failed,
                **stats["timings"],
            }
        )
    )
    return determine_exit_code(stats["n_docs"], n_failed)


def cmd_search(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine

    synonyms = None
    if args.synonyms:
        from solr_indexer_ray.functions.synonyms import load_synonyms

        probe = SearchEngine(args.output)
        synonyms = load_synonyms(args.synonyms,
                                 probe.registry.analyzer_for(None))
    engine = SearchEngine(args.output, synonyms=synonyms)
    if args.elevate:
        with open(args.elevate) as f:
            engine.elevate = json.load(f)
    fl = args.fl.split(",") if args.fl else None
    if args.explain is not None:
        print(json.dumps(engine.explain(args.query, args.explain,
                                        qf=args.qf, tie=args.tie)))
        return 0
    if args.shards:
        from solr_indexer_ray.pipelines.search import search_sharded

        dirs = [args.output, *args.shards.split(",")]
        t = search_sharded(dirs, args.query, k=args.k,
                           qf=args.qf, tie=args.tie, fq=args.fq)
    elif args.group:
        # Solr group.ngroups comes from the codes group_search already
        # gathered — one query evaluation, not two; it rides on every
        # row so each output line stays one hit row
        t, ngroups = engine.group_search(args.query, args.group,
                                         k_groups=args.k,
                                         group_limit=args.group_limit,
                                         fq=args.fq, with_ngroups=True)
        import pyarrow as pa

        t = t.append_column("ngroups", pa.array([ngroups] * t.num_rows,
                                                pa.int64()))
    elif args.ltr_model:
        with open(args.ltr_model) as f:
            model = json.load(f)
        t = engine.ltr_search(args.query, model, k=args.k, fl=fl,
                              rerank_docs=args.rerank_docs,
                              fq=args.fq, start=args.start)
    elif args.rerank_query:
        t = engine.rerank_search(
            args.query, args.rerank_query, k=args.k, fl=fl,
            rerank_docs=args.rerank_docs,
            rerank_weight=args.rerank_weight,
            fq=args.fq, start=args.start,
        )
    elif args.distributed:
        from solr_indexer_ray.pipelines.search import search_partitioned

        _ensure_ray()
        t = search_partitioned(args.output, args.query, k=args.k,
                               qf=args.qf, tie=args.tie, mm=args.mm,
                               pf=args.pf, ps=args.ps,
                               pf2=args.pf2, pf3=args.pf3,
                               bf=args.bf, boost=args.boost, bq=args.bq,
                               fq=args.fq)
    else:
        cursor = None
        if args.search_after:
            cs, cid = args.search_after.split(",")
            cursor = (float(cs), int(cid))
        hl_arg = (
            {"fragsize": args.hl_fragsize, "snippets": args.hl_snippets,
             "pre": args.hl_tag_pre, "post": args.hl_tag_post}
            if args.hl else False
        )
        t = engine.search(args.query, k=args.k, fl=fl,
                          sort=args.sort, start=args.start, hl=hl_arg,
                          fq=args.fq, search_after=cursor,
                          qf=args.qf, tie=args.tie, mm=args.mm,
                          pf=args.pf, ps=args.ps,
                          pf2=args.pf2, pf3=args.pf3,
                          bf=args.bf, boost=args.boost, bq=args.bq)
    xml_fields = [f.split(":[", 1)[0] for f in (fl or [])
                  if f.endswith(":[xml]")]
    for row in t.to_pylist():
        if args.pretty_xml:
            # reference _print_pretty_xml (solrindexer/search.py:74-96):
            # raw-XML display mode prints the formatted document instead
            # of embedding it in the JSON row
            for f in xml_fields:
                print(_format_xml_display(row.pop(f, None) or ""))
        print(json.dumps(row, default=str))
    if args.json_facet:
        print(json.dumps({"json_facet": engine.json_facet(
            args.query, json.loads(args.json_facet), fq=args.fq)}))
    if args.facet_query:
        print(json.dumps(
            {"facet_queries": engine.facet_query(
                args.query, args.facet_query, fq=args.fq)}
        ))
    if args.facet:
        facets = engine.facet(
            args.query, args.facet.split(","),
            limit=args.facet_limit, mincount=args.facet_mincount,
            fq=args.fq, prefix=args.facet_prefix, sort=args.facet_sort,
        )
        print(json.dumps({"facets": facets}))
    if args.facet_stats:
        metrics = {}
        for spec in args.stat or []:
            name, _, expr = spec.partition("=")
            if not expr:
                raise SystemExit(
                    f"--stat wants name=op(field), got {spec!r}"
                )
            metrics[name] = expr
        fs = engine.facet_stats(args.query, args.facet_stats, metrics,
                                fq=args.fq, limit=args.facet_limit)
        print(json.dumps({"facet_stats": fs.to_pylist()}))
    print(f"# {t.num_rows} hits", file=sys.stderr)
    return 0


def cmd_mlt(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine

    t = SearchEngine(args.output).more_like_this(
        args.id, k=args.k, fl=args.fl.split(",") if args.fl else None,
        max_query_terms=args.max_query_terms,
        min_term_freq=args.min_term_freq, min_doc_freq=args.min_doc_freq,
    )
    for row in t.to_pylist():
        print(json.dumps(row, default=str))
    print(f"# {t.num_rows} hits", file=sys.stderr)
    return 0


def cmd_tv(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine

    t = SearchEngine(args.output).term_vectors(
        args.id, with_positions=args.positions
    )
    for row in t.to_pylist():
        print(json.dumps(row, default=str))
    print(f"# {t.num_rows} terms", file=sys.stderr)
    return 0


def cmd_hybrid(args) -> int:
    """Hybrid BM25 + embedding-cosine retrieval (RRF / weighted fusion).

    The query vector comes from ``--vector`` (JSON float list) or
    ``--vec-id`` (point-read from the embeddings table — the hybrid
    more-like-this shape)."""
    import numpy as np
    import pyarrow.dataset as pads
    import ray

    from solr_indexer_ray.stages.hybrid import hybrid_search

    if args.vector:
        vec = np.asarray(json.loads(args.vector), dtype=np.float64)
    else:
        if args.vec_id is None:
            print("hybrid: need --vector or --vec-id", file=sys.stderr)
            return 2
        t = pads.dataset(args.embeddings).to_table(
            columns=["embedding"],
            filter=pads.field("vec_id") == args.vec_id,
        )
        if t.num_rows != 1:
            print(f"# vec_id {args.vec_id} not found", file=sys.stderr)
            return 1
        vec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    emb_ds = ray.data.read_parquet(args.embeddings)
    ann = None
    if args.ivf_dir:
        from solr_indexer_ray.stages.ann import IvfIndex

        ann = IvfIndex.load(args.ivf_dir)
        if args.nprobe:
            ann.nprobe = args.nprobe
    out = hybrid_search(
        args.output, emb_ds, [(0, args.query, vec)], k=args.k,
        fuse_n=args.fuse_n, method=args.method,
        w_text=args.w_text, w_vec=args.w_vec, ann_index=ann,
    )
    for row in out.to_pylist():
        print(json.dumps(row, default=str))
    print(f"# {out.num_rows} hits", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    """Solr /analysis/field analogue: per-stage token streams of the
    index's pinned analysis chain for a piece of text."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    t = SearchEngine(args.output).analyze(args.text, lang=args.lang)
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def cmd_cluster(args) -> int:
    """Cluster a query's result page by embeddings (Solr clustering
    component analogue)."""
    from solr_indexer_ray.pipelines.search import SearchEngine
    from solr_indexer_ray.stages.cluster import cluster_results

    t = cluster_results(
        SearchEngine(args.output), args.query, args.embeddings,
        k_clusters=args.clusters, top_n=args.top_n,
        label_terms=args.label_terms,
    )
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def cmd_luke(args) -> int:
    """Index introspection (Solr /admin/luke)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    print(json.dumps(SearchEngine(args.output).luke()))
    return 0


def cmd_sigterms(args) -> int:
    """Significant terms of a query's match set (JLH scoring)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    t = SearchEngine(args.output).significant_terms(
        args.query, limit=args.k, min_doc_freq=args.min_df,
        max_doc_freq=args.max_df,
    )
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def cmd_stream(args) -> int:
    """Solr /stream analogue: evaluate a streaming expression compiled
    to a Ray Data pipeline; prints result rows as JSON lines."""
    from solr_indexer_ray.pipelines.streaming import compile_stream_expr

    _ensure_ray()
    collections = args.output
    if args.collection:
        collections = {}
        for spec in args.collection:
            name, _, path = spec.partition("=")
            if not path:
                raise SystemExit(
                    f"--collection wants name=dir, got {spec!r}"
                )
            collections[name] = path
    ds = compile_stream_expr(args.expr, collections,
                             num_partitions=args.num_partitions)
    n = 0
    for row in ds.iter_rows():
        print(json.dumps(row, default=str))
        n += 1
    print(f"# {n} rows", file=sys.stderr)
    return 0


def cmd_sql(args) -> int:
    """Solr /sql analogue: parse a Parallel-SQL statement, compile it
    onto the streaming machinery, print result rows as JSON lines."""
    from solr_indexer_ray.pipelines.sql import execute_sql

    _ensure_ray()
    collections = args.output
    if args.collection:
        collections = {}
        for spec in args.collection:
            name, _, path = spec.partition("=")
            if not path:
                raise SystemExit(
                    f"--collection wants name=dir, got {spec!r}"
                )
            collections[name] = path
    ds = execute_sql(args.query, collections,
                     num_partitions=args.num_partitions)
    n = 0
    for row in ds.iter_rows():
        print(json.dumps(row, default=str))
        n += 1
    print(f"# {n} rows", file=sys.stderr)
    return 0


def cmd_terms(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine

    for term, df in SearchEngine(args.output).terms(
        prefix=args.prefix, limit=args.limit, mincount=args.mincount,
        sort=args.sort,
    ):
        print(json.dumps({"term": term, "df": df}))
    return 0


def cmd_autocomplete(args) -> int:
    """Prefix autocomplete with optional context filtering (Solr
    /suggest)."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    out = SearchEngine(args.output).autocomplete(
        args.prefix, count=args.k,
        context_fq=args.cfq if args.cfq else None,
    )
    for term, w in out:
        print(json.dumps({"term": term, "weight": w}))
    return 0


def cmd_collate(args) -> int:
    """Spellcheck collation: corrected query + hit count."""
    from solr_indexer_ray.pipelines.search import SearchEngine

    print(json.dumps(SearchEngine(args.output).collate(args.query)))
    return 0


def cmd_suggest(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine

    for term, dist, df in SearchEngine(args.output).suggest(
        args.word, count=args.count, max_distance=args.max_distance
    ):
        print(json.dumps({"term": term, "distance": dist, "df": df}))
    return 0


def cmd_get(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine

    row = SearchEngine(args.output).get(args.id)
    if row is None:
        print(f"# doc {args.id} not found", file=sys.stderr)
        return 1
    print(json.dumps(row, default=str))
    return 0


def cmd_delete(args) -> int:
    from solr_indexer_ray.pipelines import mutate

    if args.id:
        res = mutate.delete_by_id(args.output, args.id)
    elif args.query:
        res = mutate.delete_by_query(args.output, args.query)
    else:
        print("need --id or --query", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


def cmd_update(args) -> int:
    """Solr atomic updates: Solr JSON-update docs with verb maps, e.g.
    ``update -o idx --json '[{"doc_id": 3, "tags": {"add": "x"},
    "views": {"inc": 1}}]'`` (or ``--json @file.json``)."""
    from solr_indexer_ray.pipelines import mutate

    payload = args.json
    if payload.startswith("@"):
        with open(payload[1:]) as f:
            payload = f.read()
    updates = json.loads(payload)
    if isinstance(updates, dict):
        updates = [updates]
    res = mutate.atomic_update(args.output, updates)
    print(json.dumps(res))
    return 0 if not res["missing"] else 1


def cmd_check(args) -> int:
    from solr_indexer_ray.pipelines.fsck import check_index

    _ensure_ray()
    res = check_index(args.output)
    print(json.dumps(res))
    return 0 if res["ok"] else 1


def cmd_scrub(args) -> int:
    """PII-scrub a corpus: write redacted parquet + a counts summary."""
    import ray.data as rd

    from solr_indexer_ray.stages.pii import PII_PATTERNS, scrub_pii

    _ensure_ray()
    ds = rd.read_parquet(args.input)
    out = scrub_pii(ds, text_col=args.text_col, id_col=args.id_col)
    out.write_parquet(args.dest)
    import pyarrow.dataset as pads
    import pyarrow.compute as pc

    written = pads.dataset(args.dest)
    totals = {}
    for name, _p, _r in PII_PATTERNS:
        col = written.to_table(columns=[f"n_{name}"])[f"n_{name}"]
        totals[f"n_{name}"] = int(pc.sum(col).as_py() or 0)
    print(json.dumps({"rows": written.count_rows(), **totals}))
    return 0


def cmd_dedup(args) -> int:
    from solr_indexer_ray.stages.dedup import dedup_corpus

    _ensure_ray()
    kw = {}
    if args.threshold is not None:
        kw["threshold"] = args.threshold
    print(json.dumps(dedup_corpus(
        args.input, args.dest, mode=args.mode,
        text_col=args.text_col, id_col=args.id_col, **kw,
    )))
    return 0


def cmd_decontaminate(args) -> int:
    """Flag or drop corpus docs sharing n-gram shingles with a benchmark
    parquet (GPT-3-style eval decontamination)."""
    import ray.data as rd

    from solr_indexer_ray.stages.curation import decontaminate

    _ensure_ray()
    out = decontaminate(
        rd.read_parquet(args.input), rd.read_parquet(args.benchmark),
        text_col=args.text_col, id_col=args.id_col, n=args.n,
        min_matches=args.min_matches, mode=args.mode,
    )
    out.write_parquet(args.dest)
    import ray.data as rd2

    n_out = rd2.read_parquet(args.dest).count()
    print(json.dumps({"rows": int(n_out), "dest": args.dest,
                      "mode": args.mode}))
    return 0


def cmd_qualityfilter(args) -> int:
    """Gopher-style quality gate: keep flags + violated rules +
    raw signals; writes parquet."""
    import ray.data as rd

    from solr_indexer_ray.stages.curation import gopher_quality_filter

    _ensure_ray()
    out = gopher_quality_filter(
        rd.read_parquet(args.input, columns=[args.id_col, args.text_col]),
        text_col=args.text_col, id_col=args.id_col,
    )
    out.write_parquet(args.dest)
    import pyarrow.compute as _pc
    import pyarrow.dataset as pads

    t = pads.dataset(args.dest).to_table(columns=["keep"])
    print(json.dumps({
        "rows": t.num_rows,
        "kept": int(_pc.sum(_pc.cast(t["keep"], "int64")).as_py() or 0),
        "dest": args.dest,
    }))
    return 0


def cmd_lmscore(args) -> int:
    """Per-doc bigram-LM quality scores (CCNet-style head/middle/tail
    signal): train on the input corpus, score every doc, write parquet."""
    import ray.data as rd

    from solr_indexer_ray.stages.curation import lm_quality_score

    _ensure_ray()
    out = lm_quality_score(
        rd.read_parquet(args.input, columns=[args.id_col, args.text_col]),
        text_col=args.text_col, id_col=args.id_col, alpha=args.alpha,
    )
    out.write_parquet(args.dest)
    n_out = rd.read_parquet(args.dest).count()
    print(json.dumps({"rows": int(n_out), "dest": args.dest}))
    return 0


def cmd_paradedup(args) -> int:
    """C4-style global paragraph dedup: duplicate spans removed, first
    occurrence kept, survivors reassembled; writes parquet."""
    import ray.data as rd

    from solr_indexer_ray.stages.curation import paragraph_dedup

    _ensure_ray()
    sep = args.separator.encode().decode("unicode_escape")
    out = paragraph_dedup(
        rd.read_parquet(args.input, columns=[args.id_col, args.text_col]),
        text_col=args.text_col, id_col=args.id_col,
        separator=sep, min_chars=args.min_chars,
    )
    out.write_parquet(args.dest)
    import pyarrow.dataset as pads

    t = pads.dataset(args.dest).to_table(columns=["n_dropped"])
    import pyarrow.compute as _pc

    print(json.dumps({
        "rows": t.num_rows,
        "paras_dropped": int(_pc.sum(t["n_dropped"]).as_py() or 0),
        "dest": args.dest,
    }))
    return 0


def cmd_pack(args) -> int:
    """Greedy contiguous sequence packing into fixed token budgets
    (shard-parallel: bins never cross doc_id//shard_size boundaries);
    writes (doc_id, n_tokens, bin) parquet."""
    import ray.data as rd

    from solr_indexer_ray.stages.curation import pack_sequences

    _ensure_ray()
    out = pack_sequences(
        rd.read_parquet(args.input, columns=[args.id_col, args.text_col]),
        budget=args.budget, text_col=args.text_col, id_col=args.id_col,
        shard_size=args.shard_size,
    )
    out.write_parquet(args.dest)
    import pyarrow.compute as _pc
    import pyarrow.dataset as pads

    t = pads.dataset(args.dest).to_table(columns=["bin"])
    print(json.dumps({
        "rows": t.num_rows,
        "bins": int(_pc.max(t["bin"]).as_py() or 0) + 1
        if t.num_rows else 0,
        "dest": args.dest,
    }))
    return 0


def cmd_sample(args) -> int:
    """Deterministic domain-mixture subsampling (md5-keyed, RNG-free)."""
    import ray.data as rd

    from solr_indexer_ray.stages.curation import sample_mixture

    _ensure_ray()
    rates = {}
    for part in (args.rates or "").split(","):
        if part:
            k, _, v = part.partition("=")
            rates[k] = float(v)
    ds = rd.read_parquet(args.input)
    n_in = ds.count()
    out = sample_mixture(ds, rates, key_col=args.key_col,
                         id_col=args.id_col,
                         default_rate=args.default_rate)
    out.write_parquet(args.dest)
    n_out = rd.read_parquet(args.dest).count()
    print(json.dumps({"kept": int(n_out), "dropped": int(n_in - n_out),
                      "dest": args.dest}))
    return 0


def cmd_compact(args) -> int:
    """Solr optimize/forceMerge analogue: physically purge tombstoned
    docs from docs/spills/postings and recommit exact stats."""
    from solr_indexer_ray.pipelines.mutate import compact_index

    _ensure_ray()
    out = compact_index(args.output)
    print(json.dumps({"removed": out["removed"],
                      "n_docs": out["stats"]["n_docs"],
                      "generation": out["stats"]["generation"]}))
    return 0


def cmd_export(args) -> int:
    from solr_indexer_ray.pipelines.search import export_matches

    _ensure_ray()
    print(json.dumps(export_matches(
        args.output, args.query, args.dest,
        fl=args.fl.split(",") if args.fl else None, fq=args.fq,
        sort=args.sort,
    )))
    return 0


def cmd_backup(args) -> int:
    from solr_indexer_ray.pipelines.mutate import backup_index

    _ensure_ray()  # fsck verification fans out per shard
    print(json.dumps(backup_index(args.output, args.dest,
                                  verify=not args.no_verify)))
    return 0


def cmd_restore(args) -> int:
    from solr_indexer_ray.pipelines.mutate import restore_index

    print(json.dumps(restore_index(args.backup, args.output,
                                   overwrite=args.overwrite)))
    return 0


def cmd_status(args) -> int:
    from solr_indexer_ray.pipelines.search import SearchEngine
    from solr_indexer_ray.state.manifest import BuildManifest

    manifest = BuildManifest(args.output)
    if not manifest.is_committed():
        # reference: ping failure exits non-zero (solrindexer/cli.py:108-110)
        print(json.dumps({"committed": False}))
        return 1
    print(json.dumps(SearchEngine(args.output).status()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="solr_indexer_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pi = sub.add_parser("index", help="build the inverted index")
    pi.add_argument("-i", "--input", nargs="+", required=True,
                    help="corpus parquet file(s) or directory")
    pi.add_argument("-o", "--output", required=True, help="index directory")
    pi.add_argument("--config", help="YAML config (IndexConfig fields)")
    pi.add_argument("--overwrite", action="store_true")
    pi.add_argument("--extend", action="store_true",
                    help="incrementally add new inputs to a committed index")
    pi.add_argument("--validate", action="store_true",
                    help="run corpus validation and report failures")
    pi.add_argument("--positions", action="store_true",
                    help="store token positions (enables phrase queries)")
    pi.add_argument("--bigrams", action="store_true",
                    help="next-word index: adjacent pairs as synthetic "
                    "terms — 2-term phrases become one postings lookup")
    pi.add_argument("--bigram-first", dest="bigram_first",
                    help="comma-separated common-word list: index only "
                    "pairs led by these terms (implies --bigrams; "
                    "uncovered phrases need --positions to fall back "
                    "to the positional matcher)")
    pi.add_argument("--store-content", action="store_true",
                    help="store raw content (fl=content, highlighting)")
    pi.add_argument("--extra-stored", dest="extra_stored",
                    help="comma-separated corpus columns to store "
                    "(typed ranges, bbox envelope columns)")
    pi.add_argument("--filters",
                    help='comma-separated token-filter chain, e.g. '
                         '"stop,porter" (Solr analysis chain: StopFilter '
                         '+ PorterStemFilter)')
    pi.add_argument("--analyzed-field", dest="analyzed_fields",
                    action="append", metavar="FIELD:SRC",
                    help="extra scored text field from a corpus column "
                         "(repeatable; e.g. path_text:path — Solr "
                         "copyField, per-field BM25 stats)")
    pi.set_defaults(fn=cmd_index)

    ps = sub.add_parser("search", help="BM25 top-k query")
    ps.add_argument("-o", "--output", required=True)
    ps.add_argument("-q", "--query", required=True)
    ps.add_argument("-k", type=int, default=10)  # Solr default rows=10
    ps.add_argument("--fl",
                    help="comma-separated field projection; supports Solr "
                         "transformers field:[json] (parse stored JSON) "
                         "and field:[xml] (raw XML passthrough)")
    ps.add_argument("--pretty-xml", action="store_true",
                    help="print [xml] fl fields as formatted XML text "
                         "instead of embedding them in the JSON row")
    ps.add_argument("--start", type=int, default=0,
                    help="paging offset (Solr start)")
    ps.add_argument("--sort", help='Solr sort spec, e.g. "doclen desc"')
    ps.add_argument("--elevate",
                    help="JSON file {query: [doc_ids]} of editorial pins")
    ps.add_argument("--synonyms",
                    help="Solr-format synonyms.txt for query-time expansion")
    ps.add_argument("--shards",
                    help="comma-separated additional shard index dirs "
                         "(federated search with exact global stats)")
    ps.add_argument("--search-after",
                    help='cursor "score,doc_id" from the previous page')
    ps.add_argument("--fq", action="append",
                    help="filter query (repeatable; Solr fq)")
    ps.add_argument("--hl", action="store_true",
                    help="highlight snippets (needs store_content index)")
    ps.add_argument("--hl-fragsize", type=int, default=160,
                    help="hl.fragsize: fragment length (default 160)")
    ps.add_argument("--hl-snippets", type=int, default=1,
                    help="hl.snippets: fragments per doc (default 1)")
    ps.add_argument("--hl-tag-pre", default="<em>")
    ps.add_argument("--hl-tag-post", default="</em>")
    ps.add_argument("--group", help="group results by field (Solr group=true)")
    ps.add_argument("--group-limit", type=int, default=1)
    ps.add_argument("--rerank-query",
                    help="rescore the top window with this query "
                         "(Solr rq={!rerank})")
    ps.add_argument("--rerank-docs", type=int, default=200)
    ps.add_argument("--rerank-weight", type=float, default=2.0)
    ps.add_argument("--ltr-model",
                    help="LTR LinearModel JSON file (reranks the top "
                         "--rerank-docs window)")
    ps.add_argument("--facet", help="comma-separated facet fields")
    ps.add_argument("--facet-limit", type=int, default=100)
    ps.add_argument("--facet-mincount", type=int, default=0)
    ps.add_argument("--json-facet",
                    help="JSON Facet API spec (json.facet= JSON string)")
    ps.add_argument("--facet-prefix", default="",
                    help="facet.prefix: restrict buckets to this value prefix")
    ps.add_argument("--facet-sort", default="count",
                    choices=["count", "index"],
                    help="facet.sort: count desc (default) or index order")
    ps.add_argument("--qf",
                    help='dismax fields, e.g. "content^1 path_text^2" '
                         "(free terms score max over fields; Solr qf)")
    ps.add_argument("--tie", type=float, default=0.0,
                    help="dismax tiebreaker (Solr tie)")
    ps.add_argument("--mm",
                    help='minimum should match (Solr mm): "2", "-1", '
                         '"75%%", or conditional "2<-25%% 9<-3"')
    ps.add_argument("--pf",
                    help='phrase fields (Solr edismax pf): boost docs '
                         'where the whole query appears as a phrase, '
                         'e.g. "content^2 path_text^1.5"')
    ps.add_argument("--pf2", help="bigram phrase fields (Solr pf2)")
    ps.add_argument("--pf3", help="trigram phrase fields (Solr pf3)")
    ps.add_argument("--ps", type=int, default=0,
                    help="phrase slop for pf clauses (Solr ps)")
    ps.add_argument("--bf", action="append",
                    help="additive boost function over stored numeric "
                         "fields, e.g. recip(doclen,1,1000,1000) "
                         "(Solr edismax bf; repeatable)")
    ps.add_argument("--boost", action="append",
                    help="multiplicative boost function "
                         "(Solr edismax boost; repeatable)")
    ps.add_argument("--bq", action="append",
                    help="boost query: its score adds to matches of the "
                         "main query, e.g. 'spark^2' or lang:java^5 "
                         "(Solr edismax bq; repeatable)")
    ps.add_argument("--explain", type=int, metavar="DOC_ID",
                    help="Solr debugQuery: per-clause score contributions "
                         "of one doc")
    ps.add_argument("--facet-stats", metavar="FIELD",
                    help="Solr JSON-facet terms bucket field; combine "
                         "with --stat name=op(field)")
    ps.add_argument("--stat", action="append",
                    help="JSON-facet bucket metric, e.g. "
                         "avg_len=avg(doclen) (repeatable)")
    ps.add_argument("--facet-query", action="append",
                    help="Solr facet.query (repeatable): count of the "
                         "match set intersected with this sub-query")
    ps.add_argument("--distributed", action="store_true",
                    help="per-doc-range fan-out scoring (the multi-node "
                         "path; bit-identical to the single engine)")
    ps.set_defaults(fn=cmd_search)

    pm = sub.add_parser("mlt", help="more-like-this by doc id")
    pm.add_argument("-o", "--output", required=True)
    pm.add_argument("--id", type=int, required=True)
    pm.add_argument("-k", type=int, default=10)
    pm.add_argument("--fl", help="comma-separated field projection")
    pm.add_argument("--max-query-terms", type=int, default=25)
    pm.add_argument("--min-term-freq", type=int, default=2)
    pm.add_argument("--min-doc-freq", type=int, default=5)
    pm.set_defaults(fn=cmd_mlt)

    pt = sub.add_parser(
        "tv", help="term vector of one doc (Solr /tvrh): term, tf, df"
    )
    pt.add_argument("-o", "--output", required=True)
    pt.add_argument("--id", type=int, required=True)
    pt.add_argument("--positions", action="store_true",
                    help="include 0-based token positions")
    pt.set_defaults(fn=cmd_tv)

    ph = sub.add_parser(
        "hybrid", help="hybrid BM25 + embedding-cosine retrieval (RRF)"
    )
    ph.add_argument("-o", "--output", required=True)
    ph.add_argument("-q", "--query", required=True)
    ph.add_argument("--embeddings", required=True,
                    help="parquet with (vec_id, embedding) aligned to doc ids")
    ph.add_argument("--vec-id", type=int, help="query vector = this row")
    ph.add_argument("--vector", help="query vector as a JSON float list")
    ph.add_argument("-k", type=int, default=10)
    ph.add_argument("--fuse-n", type=int, default=50)
    ph.add_argument("--method", choices=["rrf", "weighted"], default="rrf")
    ph.add_argument("--w-text", type=float, default=0.5)
    ph.add_argument("--w-vec", type=float, default=0.5)
    ph.add_argument("--ivf-dir",
                    help="partitioned IvfIndex dir: partition-pruned "
                         "dense side instead of the brute-force scan")
    ph.add_argument("--nprobe", type=int)
    ph.set_defaults(fn=cmd_hybrid)

    pcl = sub.add_parser(
        "cluster",
        help="cluster a result page by embeddings (Solr clustering)",
    )
    pcl.add_argument("-o", "--output", required=True)
    pcl.add_argument("-q", "--query", required=True)
    pcl.add_argument("--embeddings", required=True)
    pcl.add_argument("--clusters", type=int, default=5)
    pcl.add_argument("--top-n", type=int, default=50)
    pcl.add_argument("--label-terms", type=int, default=0,
                     help="label clusters with their N most distinctive "
                          "terms (carrot2-style; 0 = no labels)")
    pcl.set_defaults(fn=cmd_cluster)

    plk = sub.add_parser(
        "luke", help="index introspection (Solr /admin/luke)"
    )
    plk.add_argument("-o", "--output", required=True)
    plk.set_defaults(fn=cmd_luke)

    psg = sub.add_parser(
        "sigterms",
        help="significant terms of a match set (foreground vs index)",
    )
    psg.add_argument("-o", "--output", required=True)
    psg.add_argument("-q", "--query", required=True)
    psg.add_argument("-k", type=int, default=10)
    psg.add_argument("--min-df", type=int, default=5)
    psg.add_argument("--max-df", type=float, default=0.5)
    psg.set_defaults(fn=cmd_sigterms)

    pst = sub.add_parser(
        "stream",
        help="evaluate a streaming expression (Solr /stream)",
    )
    pst.add_argument("-o", "--output", required=True,
                     help="index dir (any collection name resolves here)")
    pst.add_argument("--expr", required=True)
    pst.add_argument("--num-partitions", type=int, default=8)
    pst.add_argument("--collection", action="append",
                     help="name=dir mapping (repeatable); expressions "
                          "can then join across different indexes")
    pst.set_defaults(fn=cmd_stream)

    psq = sub.add_parser(
        "sql",
        help="run a Parallel SQL statement (Solr /sql)",
    )
    psq.add_argument("-o", "--output", required=True,
                     help="index dir (any collection name resolves here)")
    psq.add_argument("--query", "-q", required=True,
                     help="SELECT statement (see pipelines.sql docstring "
                          "for the supported subset)")
    psq.add_argument("--num-partitions", type=int, default=8)
    psq.add_argument("--collection", action="append",
                     help="name=dir mapping (repeatable)")
    psq.set_defaults(fn=cmd_sql)

    pan = sub.add_parser(
        "analyze", help="per-stage analysis-chain token streams "
        "(Solr /analysis/field)"
    )
    pan.add_argument("-o", "--output", required=True)
    pan.add_argument("--text", required=True)
    pan.add_argument("--lang")
    pan.set_defaults(fn=cmd_analyze)

    pt = sub.add_parser("terms", help="enumerate index terms (Solr /terms)")
    pt.add_argument("-o", "--output", required=True)
    pt.add_argument("--prefix", default="")
    pt.add_argument("--limit", type=int, default=10)
    pt.add_argument("--mincount", type=int, default=1)
    pt.add_argument("--sort", default="count", choices=["count", "index"],
                    help="terms.sort: count desc (default) or term asc")
    pt.set_defaults(fn=cmd_terms)

    pac = sub.add_parser(
        "autocomplete",
        help="prefix completion with context filtering (Solr /suggest)",
    )
    pac.add_argument("-o", "--output", required=True)
    pac.add_argument("--prefix", required=True)
    pac.add_argument("-k", type=int, default=5)
    pac.add_argument("--cfq", action="append",
                     help="context filter query (repeatable)")
    pac.set_defaults(fn=cmd_autocomplete)

    pco2 = sub.add_parser(
        "collate", help="spellcheck collation (corrected query + hits)"
    )
    pco2.add_argument("-o", "--output", required=True)
    pco2.add_argument("-q", "--query", required=True)
    pco2.set_defaults(fn=cmd_collate)

    psu = sub.add_parser("suggest", help="spellcheck suggestions for a word")
    psu.add_argument("-o", "--output", required=True)
    psu.add_argument("-w", "--word", required=True)
    psu.add_argument("--count", type=int, default=5)
    psu.add_argument("--max-distance", type=int, default=2)
    psu.set_defaults(fn=cmd_suggest)

    pg = sub.add_parser("get", help="realtime get by doc id")
    pg.add_argument("-o", "--output", required=True)
    pg.add_argument("--id", type=int, required=True)
    pg.set_defaults(fn=cmd_get)

    pd = sub.add_parser("delete", help="delete by id(s) or query")
    pd.add_argument("-o", "--output", required=True)
    pd.add_argument("--id", type=int, nargs="*")
    pd.add_argument("--query")
    pd.set_defaults(fn=cmd_delete)

    pu = sub.add_parser(
        "update", help="Solr atomic updates (set/add/add-distinct/"
        "remove/removeregex/inc) from a JSON payload")
    pu.add_argument("-o", "--output", required=True)
    pu.add_argument("--json", required=True,
                    help="JSON update doc(s); @path reads a file")
    pu.set_defaults(fn=cmd_update)

    pck = sub.add_parser("check", help="index integrity check (fsck)")
    pck.add_argument("-o", "--output", required=True)
    pck.set_defaults(fn=cmd_check)

    psc = sub.add_parser(
        "scrub", help="PII-scrub a corpus (emails/IPs/phones/secrets) "
                      "to redacted parquet")
    psc.add_argument("-i", "--input", required=True)
    psc.add_argument("--dest", required=True)
    psc.add_argument("--text-col", default="text")
    psc.add_argument("--id-col", default="doc_id")
    psc.set_defaults(fn=cmd_scrub)

    pdd = sub.add_parser(
        "dedup", help="dedup a corpus to partitioned parquet "
                      "(exact|jaccard|minhash|simhash)"
    )
    pdd.add_argument("-i", "--input", required=True)
    pdd.add_argument("--dest", required=True)
    pdd.add_argument("--mode", default="exact",
                     choices=["exact", "jaccard", "minhash", "simhash"])
    pdd.add_argument("--text-col", default="text")
    pdd.add_argument("--id-col", default="doc_id")
    pdd.add_argument("--threshold", type=float, default=None)
    pdd.set_defaults(fn=cmd_dedup)

    pdc = sub.add_parser(
        "decontaminate",
        help="flag/drop docs overlapping a benchmark (n-gram shingles)",
    )
    pdc.add_argument("-i", "--input", required=True)
    pdc.add_argument("--benchmark", required=True,
                     help="benchmark parquet (same text column)")
    pdc.add_argument("--dest", required=True)
    pdc.add_argument("--text-col", default="text")
    pdc.add_argument("--id-col", default="doc_id")
    pdc.add_argument("-n", type=int, default=8, help="shingle width")
    pdc.add_argument("--min-matches", type=int, default=1)
    pdc.add_argument("--mode", choices=["flag", "drop"], default="flag")
    pdc.set_defaults(fn=cmd_decontaminate)

    ppd = sub.add_parser(
        "paradedup",
        help="global paragraph dedup (C4-style keep-first)",
    )
    ppd.add_argument("-i", "--input", required=True)
    ppd.add_argument("--dest", required=True)
    ppd.add_argument("--text-col", default="text")
    ppd.add_argument("--id-col", default="doc_id")
    ppd.add_argument("--separator", default="\\n",
                     help=r"span separator (escapes OK, default \n)")
    ppd.add_argument("--min-chars", type=int, default=1,
                     help="spans shorter than this are never deduped")
    ppd.set_defaults(fn=cmd_paradedup)

    ppk = sub.add_parser(
        "pack", help="greedy sequence packing into token budgets"
    )
    ppk.add_argument("-i", "--input", required=True)
    ppk.add_argument("--dest", required=True)
    ppk.add_argument("--budget", type=int, required=True)
    ppk.add_argument("--text-col", default="text")
    ppk.add_argument("--id-col", default="doc_id")
    ppk.add_argument(
        "--shard-size", type=int, default=1 << 20,
        help="bins never cross doc_id//shard_size boundaries "
             "(per-shard parallel packing)",
    )
    ppk.set_defaults(fn=cmd_pack)

    pqf = sub.add_parser(
        "qualityfilter",
        help="Gopher-style quality gate (keep flags + signals)",
    )
    pqf.add_argument("-i", "--input", required=True)
    pqf.add_argument("--dest", required=True)
    pqf.add_argument("--text-col", default="text")
    pqf.add_argument("--id-col", default="doc_id")
    pqf.set_defaults(fn=cmd_qualityfilter)

    plm = sub.add_parser(
        "lmscore",
        help="per-doc bigram-LM quality scores (CCNet-style signal)",
    )
    plm.add_argument("-i", "--input", required=True)
    plm.add_argument("--dest", required=True)
    plm.add_argument("--text-col", default="text")
    plm.add_argument("--id-col", default="doc_id")
    plm.add_argument("--alpha", type=float, default=0.5)
    plm.set_defaults(fn=cmd_lmscore)

    psm = sub.add_parser(
        "sample", help="deterministic domain-mixture subsampling"
    )
    psm.add_argument("-i", "--input", required=True)
    psm.add_argument("--dest", required=True)
    psm.add_argument("--rates", required=True,
                     help='comma list "src0=1.0,src1=0.5"')
    psm.add_argument("--key-col", default="source")
    psm.add_argument("--id-col", default="doc_id")
    psm.add_argument("--default-rate", type=float, default=1.0)
    psm.set_defaults(fn=cmd_sample)

    pco = sub.add_parser(
        "compact", help="purge deleted docs, merging every range's "
        "postings segments (Solr optimize)"
    )
    pco.add_argument("-o", "--output", required=True)
    pco.set_defaults(fn=cmd_compact)

    pe = sub.add_parser("export", help="stream matching docs to parquet")
    pe.add_argument("-o", "--output", required=True, help="index directory")
    pe.add_argument("-q", "--query", required=True)
    pe.add_argument("--dest", required=True)
    pe.add_argument("--fl", help="comma-separated field projection")
    pe.add_argument("--fq", action="append")
    pe.add_argument("--sort", help='export order, e.g. "doclen desc"')
    pe.set_defaults(fn=cmd_export)

    pb = sub.add_parser("backup", help="snapshot a committed index")
    pb.add_argument("-o", "--output", required=True, help="index directory")
    pb.add_argument("--dest", required=True)
    pb.add_argument("--no-verify", action="store_true")
    pb.set_defaults(fn=cmd_backup)

    pr = sub.add_parser("restore", help="restore an index backup")
    pr.add_argument("--backup", required=True)
    pr.add_argument("-o", "--output", required=True, help="index directory")
    pr.add_argument("--overwrite", action="store_true")
    pr.set_defaults(fn=cmd_restore)

    pst = sub.add_parser("status", help="index status / ping")
    pst.add_argument("-o", "--output", required=True)
    pst.set_defaults(fn=cmd_status)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, FileExistsError, RuntimeError) as e:
        # user-facing errors (bad query syntax, missing/incompatible index,
        # unknown sort/facet field, locked index) print one line, no traceback
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
