"""Metric names and units.  ``BENCHMARK.json`` lists the same names (a
test keeps the two in step)."""

#: end-to-end metrics, measured with tracing off; every workload reports
#: every one.  ``query_p95_ms``, ``batch_qps`` and ``commit_p50_s`` are
#: measured too but go to the facts line: their run-to-run spread exceeds
#: the largest bound on a host whose speed moves from run to run (see
#: README.md)
E2E = {
    "setup_s": "s",
    "build_docs_per_s": "docs/s",
    "query_p50_ms": "ms",
    "index_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics, measured in the traced run, each with the end-to-end
#: metric it should move (see README.md for the workloads it moves on)
LAYERS = {
    "build.stage1_s": ("s", "build_docs_per_s"),
    "build.stage2_s": ("s", "build_docs_per_s"),
    "build.commit_s": ("s", "build_docs_per_s"),
    "build.term_rows": ("count", "build_docs_per_s"),
    "build.index_bytes": ("bytes", "index_bytes_per_input_byte"),
    "build.spill_bytes": ("bytes", "index_bytes_per_input_byte"),
    "build.extend_s": ("s", "commit_p50_s"),
    "tokenize.docs_per_s": ("docs/s", "build_docs_per_s"),
    "varint.encode_mb_per_s": ("MB/s", "build_docs_per_s"),
    "varint.decode_mb_per_s": ("MB/s", "query_p50_ms"),
    "queryparse.parse_ms": ("ms", "query_p50_ms"),
    "search.postings_ms": ("ms", "query_p50_ms"),
    "search.postings_miss_share": ("ratio", "query_p50_ms"),
    "search.postings_miss_ms": ("ms", "query_p50_ms"),
    "search.postings_hit_ms": ("ms", "query_p50_ms"),
    "search.dfs_ms": ("ms", "query_p50_ms"),
    "search.decoded_bytes": ("bytes", "peak_rss_mb"),
    "search.postings_share": ("ratio", "query_p50_ms"),
    "search.score_ms": ("ms", "query_p50_ms"),
    "search.resolve_ms": ("ms", "query_p50_ms"),
    "search.fq_mask_ms": ("ms", "query_p50_ms"),
    "search.refresh_ms": ("ms", "commit_p50_s"),
    "search.first_read_after_commit_ms": ("ms", "query_p95_ms"),
    "search.post_commit_errors": ("count", "error_rate"),
    "mutate.delete_ms": ("ms", "commit_p50_s"),
    "serving.partitioned_ms": ("ms", "query_p50_ms"),
    "serving.rpc_ms": ("ms", "query_p50_ms"),
    "serving.scout_ms": ("ms", "query_p50_ms"),
    "trace.overhead_pct": ("%", "none"),
    "run.error_rate": ("ratio", "error_rate"),
}
for _mod in ("build", "tokenize", "varint", "queryparse", "search", "mutate",
             "serving"):
    LAYERS[f"{_mod}.errors"] = ("count", "error_rate")
for _mod in ("build", "tokenize", "varint", "queryparse", "search", "mutate",
             "serving", "check", "unattributed"):
    LAYERS[f"selftime.{_mod}_s"] = ("s", "none")
