"""The four workloads and the phases they share.

Load shape: one client, closed loop, one request in flight.  Each workload
times its calls with ``perf_counter`` around the program's public
functions; with tracing on, the same calls are also recorded as spans
(``spans.Tracer``) and every read is split into its layers.

Phases, in order: set-up (Ray start, corpus generation, a small warm-up
build, then three engine or service opens with warm-up reads), the first
timed build, the measured rounds, the output checks and, in a traced run,
the per-layer passes and commit rounds (``ingest-mixed`` commits before its
measured rounds, in every run).
The measured rounds are three of: a read chunk (``--seconds`` / 3), a
timed batch pass and, between rounds, another timed build, so that reads,
batch passes and builds each sample several moments of the run: on a
shared host a run's speed moves for seconds at a time.  Peak RSS is read
before the checks, which build the brute-force oracle in this process.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from perfbench import corpora
from perfbench.checks import Checker, hits
from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import parse_query
from solr_indexer_ray.functions.tokenize import AnalyzerRegistry, tokenize_unit
from solr_indexer_ray.functions.varint import (
    delta_encode,
    varint_decode,
    varint_encode,
)
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.mutate import delete_by_id
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine

#: input sizes at ``--scale 1``; chosen so one run of any workload, Ray
#: start and checks included, stays near 30 s on one core
HOT_DOCS = 10_000
LONGTAIL = corpora.LongtailParams(n_docs=8_000, vocab_size=50_000,
                                  zipf_s=1.0, query_zipf_s=0.6)
LONGTAIL_RANGES = 3
INGEST_DOCS = 8_000
INGEST_BATCH = 300
LONGTAIL_BATCH_DISTINCT = 250

MIN_READS = 200        # p95 then has at least 10 samples beyond it
BATCH = 1000           # queries per in-process batch pass
ROUNDS = 3             # measured rounds: timed batch passes and timed
                       # builds per run; the medians count
COMMIT_ROUNDS = 3      # commit rounds after the reads
CODE_READS = 2000      # distinct reads in the code mix
ORACLE_SAMPLE = 8      # reads compared with the brute-force oracle
BURST = 40             # reads after each ingest commit
MIN_ROUNDS = 4         # ingest commit rounds, at the least
ROUND_S = 1.0          # --seconds per ingest round: a fixed round count
                       # keeps the mix of cold and warm reads the same
WARM_TERMS = 1100      # long-tail warm-up: more terms than the 1024-entry
                       # postings cache holds
DELETES = 5            # doc ids tombstoned per commit round
K = 10


class Run:
    """State of one benchmark run: arguments, counters and results."""

    def __init__(self, seed: int, seconds: float, scale: float, tracer,
                 work_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = tracer
        self.traced = tracer.enabled
        self.work_dir = work_dir
        self.check = Checker()
        #: reads that hit the known post-commit refresh defect; kept apart
        #: from ``check`` (see ``commit_round``)
        self.probe = Checker()
        self.setup: dict = {"open_s": []}
        self.facts: dict = {}
        self.e2e: dict = {}
        self.layer: dict = {}
        self.samples: dict = {}   # name -> list of values (per-layer)

    def n(self, base: int, floor: int = 1) -> int:
        return max(floor, int(round(base * self.scale)))

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def span(self, name: str, request: int | None = None):
        return self.tracer.span(name, request)

    def timed(self, name: str, fn, *args, **kw):
        """One counted operation inside a span named ``module.call``;
        returns ``(ok, result, seconds)``."""
        with self.span(name):
            t = time.perf_counter()
            ok, result = self.check.call(name.split(".", 1)[0], fn, *args,
                                         **kw)
            return ok, result, time.perf_counter() - t

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _median(xs, default=0.0) -> float:
    return float(statistics.median(xs)) if xs else default


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path) for f in files
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# shared phases
# ---------------------------------------------------------------------- #
def record_input(run: Run, name: str, table, reads, n_ranges: int,
                 params: dict) -> None:
    content = table["content"]
    terms = {t for r in reads for t in r.terms()}
    run.facts[name] = {
        "docs": table.num_rows,
        "content_bytes": int(sum(len(s.encode()) for s in
                                 content.to_pylist() if s)),
        "generator": params,
        "doc_ranges": n_ranges,
        "distinct_query_terms_generated": len(terms),
    }


def warm_up_build(run: Run, make_table) -> None:
    """A small build so Ray Data's worker processes exist before timing."""
    t = time.perf_counter()
    path = corpora.write_parquet(make_table(), run.path("warm.parquet"), 2)
    with run.span("build.build_index"):
        build_index(path, run.path("warm-idx"), config=IndexConfig(),
                    overwrite=True)
    shutil.rmtree(run.path("warm-idx"), ignore_errors=True)
    run.setup["warmup_s"] = time.perf_counter() - t


def timed_build(run: Run, parquet: str, config: IndexConfig,
                index_dir: str):
    """One timed ``build_index``; returns its stats, or None if it
    failed."""
    ok, st, dt = run.timed("build.build_index", build_index, parquet,
                           index_dir, config=config, overwrite=True)
    if not ok:
        return None
    tm = st["timings"]
    run.sample("build_s", dt)
    run.sample("build.stage1_s", tm["stage1_s"])
    run.sample("build.stage2_s", tm["stage2_s"])
    # commit = everything outside the two stages: unit listing, manifest
    # commit and stats read-back
    run.sample("build.commit_s", dt - tm["stage1_s"] - tm["stage2_s"])
    run.facts["n_docs_built"] = int(st["n_docs"])
    return st


def first_build(run: Run, parquet: str, config: IndexConfig) -> str:
    """The build the workload reads from; returns its directory."""
    index_dir = run.path("idx")
    stats = timed_build(run, parquet, config, index_dir)
    if stats is None:
        raise RuntimeError(f"build failed: {run.check.examples}")
    run.layer["build.term_rows"] = int(stats["n_term_rows"])
    run.layer["build.index_bytes"] = _dir_bytes(index_dir)
    run.layer["build.spill_bytes"] = _dir_bytes(
        os.path.join(index_dir, "postings_raw"))
    return index_dir


def more_builds(run: Run, parquet: str, config: IndexConfig) -> None:
    """One more timed build, into a directory of its own."""
    index_dir = run.path(f"idx-{len(run.samples.get('build_s', []))}")
    timed_build(run, parquet, config, index_dir)
    shutil.rmtree(index_dir, ignore_errors=True)


def open_phase(run: Run, index_dir: str, warm_terms, warm_reads
               ) -> SearchEngine:
    """Three engine opens, each with a warm-up (the postings of the most
    likely query terms, then a few reads); the median counts toward
    ``setup_s`` and the last engine serves the workload."""
    engine = None
    for _ in range(3):
        t = time.perf_counter()
        with run.span("search.open"):
            engine = SearchEngine(index_dir)
            engine.norms
            engine.lookup_postings(warm_terms)
            for r in warm_reads:
                engine.search(r.q, k=K, fq=list(r.fq) or None)
        run.setup["open_s"].append(time.perf_counter() - t)
    return engine


def read_once(run: Run, engine: SearchEngine, r, fl=None):
    return run.timed("search.search", engine.search, r.q, k=K,
                     fq=list(r.fq) or None, fl=fl)


class ReadLoop:
    """Closed-loop reads over ``reads``, run in chunks; keeps the
    latencies and the first answer per distinct read.  ``read_fn(r)``
    returns ``(ok, table, seconds)``."""

    def __init__(self, run: Run, read_fn, reads):
        self.run, self.read_fn, self.reads = run, read_fn, reads
        self.lat: list = []
        self.answers: dict = {}
        self.i = 0

    def chunk(self, seconds: float, min_reads: int) -> None:
        deadline = time.perf_counter() + seconds
        start = self.i
        while self.i - start < min_reads or time.perf_counter() < deadline:
            r = self.reads[self.i % len(self.reads)]
            self.i += 1
            ok, table, dt = self.read_fn(r)
            if ok:
                self.lat.append(dt)
                got = hits(table, K)
                self.run.check.expect("search", got,
                                      self.answers.setdefault(r, got),
                                      f"repeat of {r}")


def set_latency(run: Run, lat) -> None:
    if not lat:
        raise RuntimeError("no read succeeded")
    run.e2e["query_p50_ms"] = float(np.percentile(lat, 50)) * 1e3
    run.facts["query_p95_ms"] = float(np.percentile(lat, 95)) * 1e3
    run.facts["reads"] = len(lat)


def oracle_check(run: Run, table, answers: dict) -> None:
    """Compare a fixed sample of recorded answers with
    ``BruteForceBM25`` on the same corpus (top-10 ids and scores)."""
    with run.span("check.oracle"):
        oracle = BruteForceBM25(table)
        sample = list(answers.items())[:run.n(ORACLE_SAMPLE, 2)]
        for r, got in sample:
            run.check.expect("search", got, oracle.search(
                r.oracle_query(), k=K), f"oracle {r}")
    run.facts["oracle_checked"] = len(sample)


def commit_round(run: Run, index_dir: str, ext_table, rnd: int,
                 engine: SearchEngine, first_read) -> SearchEngine:
    """``extend_index`` + ``delete_by_id`` (one commit), then
    ``refresh()`` of the long-lived engine and its first read.  Returns a
    freshly opened engine on the new generation, the reference for the
    reads that follow.

    The facet and sorted reads afterwards go to ``run.probe``: with this
    engine they raise ``IndexError`` after ``extend_index`` + ``refresh()``
    (stale per-field caches), a known defect reported as
    ``search.post_commit_errors`` rather than as failed operations."""
    path = corpora.write_parquet(ext_table, run.path(f"ext-{rnd}.parquet"), 1)
    ok1, _, t_ext = run.timed("build.extend_index", extend_index, path,
                              index_dir)
    rng = np.random.default_rng([run.seed, 5, rnd])
    ids = [int(i) for i in rng.choice(engine.doc_space, DELETES,
                                      replace=False)]
    ok2, _, t_del = run.timed("mutate.delete_by_id", delete_by_id,
                              index_dir, ids)
    if ok1 and ok2:
        run.sample("commit_s", t_ext + t_del)
        run.sample("build.extend_s", t_ext)
        run.sample("mutate.delete_ms", t_del * 1e3)
    ok, _, dt = run.timed("search.refresh", engine.refresh)
    if ok:
        run.sample("search.refresh_ms", dt * 1e3)
    ok, first, dt = read_once(run, engine, first_read)
    with run.span("check.fresh_engine"):
        fresh = SearchEngine(index_dir)
        want = fresh.search(first_read.q, k=K, fq=list(first_read.fq) or None)
    if ok:
        run.sample("search.first_read_after_commit_ms", dt * 1e3)
        run.sample("read_s", dt)
        run.check.expect("search", hits(first), hits(want),
                         f"first read after commit {rnd}")
    return fresh


def post_commit_probe(run: Run, engine: SearchEngine, fresh: SearchEngine,
                      q: str) -> None:
    """Facet and sorted reads on the refreshed long-lived engine, compared
    with the fresh engine; outcomes go to ``run.probe``."""
    with run.span("search.facet"):
        ok, got = run.probe.call("search", engine.facet, q, ["lang"])
    if ok and got != fresh.facet(q, ["lang"]):
        run.probe.wrong("search", f"facet({q!r}) differs from fresh engine")
    with run.span("search.sorted"):
        ok, got = run.probe.call("search", engine.search, q, k=K,
                                 sort="doclen desc", fl=["doc_id"])
    if ok:
        run.probe.expect("search", hits(got), hits(fresh.search(
            q, k=K, sort="doclen desc", fl=["doc_id"])), f"sort {q!r}")


def commit_tail(run: Run, index_dir: str, engine: SearchEngine,
                make_ext, first_read) -> None:
    """Commit rounds after the read phases, so that a traced run measures
    the commit-path layers on every workload."""
    for rnd in range(COMMIT_ROUNDS):
        fresh = commit_round(run, index_dir, make_ext(rnd), rnd, engine,
                             first_read)
        post_commit_probe(run, engine, fresh, first_read.q)


def finish_e2e(run: Run) -> None:
    s = run.setup
    run.e2e["setup_s"] = (s["ray_start_s"] + s["corpus_s"] + s["warmup_s"]
                          + _median(s["open_s"]))
    if run.samples.get("commit_s"):
        run.facts["commit_p50_s"] = _median(run.samples["commit_s"])
    run.e2e["build_docs_per_s"] = run.facts["n_docs_built"] / _median(
        run.samples["build_s"])
    run.facts["build_walls_s"] = run.samples["build_s"]
    run.facts["setup"] = s
    run.facts["commit_rounds"] = len(run.samples.get("commit_s", []))


# ---------------------------------------------------------------------- #
# per-layer measurements (traced runs only)
# ---------------------------------------------------------------------- #
def layered_read(run: Run, engine: SearchEngine, seen: set):
    """A ``read_fn`` that splits one read into its layers, calling the
    public functions one after the other inside one request span: parse,
    df lookup, postings read, ranked search right after its terms were
    fetched (``fl=["doc_id"]``), the full-``fl`` search (resolve = the
    difference) and one ``match_ids`` per fq.  ``seen`` holds the terms
    the engine has looked up before; a postings call with a term not in
    it is a miss.  Returns the full search's ``(ok, table, seconds)``."""
    analyze = engine.registry.analyzer_for(None)

    def read(r):
        with run.span("request", run.tracer.new_request()):
            ok, parsed, t_parse = run.timed(
                "queryparse.parse_query", parse_query, r.q, analyze,
                range_fields=engine.range_fields,
                scored_fields=engine.scored_fields,
                filter_fields=engine.filter_fields)
            if not ok:
                return False, None, 0.0
            terms = sorted(set(parsed.terms) | set(parsed.prohibited))
            _, _, t_dfs = run.timed("search.lookup_dfs", engine.lookup_dfs,
                                    terms)
            run.sample("postings_miss", not seen.issuperset(terms))
            seen.update(terms)
            _, _, t_post = run.timed("search.lookup_postings",
                                     engine.lookup_postings, terms)
            ok_s, _, t_ids = read_once(run, engine, r, fl=["doc_id"])
            ok_f, full, t_full = read_once(run, engine, r)
            t_fq = 0.0
            for f in r.fq:
                _, _, dt = run.timed("search.match_ids", engine.match_ids, f)
                t_fq += dt
        run.sample("queryparse.parse_ms", t_parse * 1e3)
        run.sample("search.dfs_ms", t_dfs * 1e3)
        run.sample("search.postings_ms", t_post * 1e3)
        if ok_s:
            run.sample("search.score_ms", max(0.0, t_ids - t_parse) * 1e3)
        if ok_s and ok_f:
            run.sample("search.resolve_ms", (t_full - t_ids) * 1e3)
        if r.fq:
            run.sample("search.fq_mask_ms", t_fq * 1e3)
        run.sample("postings_share_num", t_dfs + t_post)
        run.sample("postings_share_den", t_dfs + t_post + t_ids)
        return ok_f, full, t_full

    return read


def postings_probe(run: Run, index_dir: str, reads) -> None:
    """``lookup_postings`` on a fresh engine, twice per read: first-seen
    terms (a miss: parquet read, df lookup and varint decode) and then the
    same terms again (a cache hit).  Also keeps the decoded doc ids for
    the varint measurements."""
    engine = SearchEngine(index_dir)
    seen: set = set()
    for r in reads[:run.n(60, 10)]:
        terms = sorted(set(r.terms()))
        if seen.intersection(terms):
            continue
        seen.update(terms)
        ok, got, dt = run.timed("search.lookup_postings",
                                engine.lookup_postings, terms)
        if not ok:
            continue
        run.sample("search.postings_miss_ms", dt * 1e3)
        run.sample("search.decoded_bytes",
                   sum(tp.nbytes() for tp in got.values()))
        run.samples.setdefault("varint.postings", []).extend(
            tp.doc_ids for tp in got.values())
        ok, _, dt = run.timed("search.lookup_postings",
                              engine.lookup_postings, terms)
        if ok:
            run.sample("search.postings_hit_ms", dt * 1e3)


def tracing_overhead(run: Run, index_dir: str, reads) -> None:
    """The same reads on two fresh engines, alternating one read untraced
    and one inside a span: the latency gap is the tracing overhead."""
    plain, traced = SearchEngine(index_dir), SearchEngine(index_dir)
    a, b = [], []
    for r in reads[:run.n(MIN_READS // 2, 10)]:
        fq = list(r.fq) or None
        t = time.perf_counter()
        plain.search(r.q, k=K, fq=fq)
        a.append(time.perf_counter() - t)
        with run.span("request", run.tracer.new_request()):
            t = time.perf_counter()
            with run.span("search.search"):
                traced.search(r.q, k=K, fq=fq)
            b.append(time.perf_counter() - t)
    run.layer["trace.overhead_pct"] = 100.0 * (_median(b) / _median(a) - 1)


def codec_layers(run: Run, table) -> None:
    """``tokenize_unit`` over a corpus sample, and varint encode/decode
    over the doc-id deltas of the postings the layered reads decoded."""
    texts = table["content"].slice(0, run.n(2000, 50))
    langs = table["lang"].slice(0, len(texts)).to_pylist()
    registry = AnalyzerRegistry()
    walls = []
    for _ in range(3):
        ok, _, dt = run.timed("tokenize.tokenize_unit", tokenize_unit, texts,
                              langs, registry)
        if ok:
            walls.append(dt)
    run.layer["tokenize.docs_per_s"] = len(texts) / _median(walls,
                                                            float("inf"))
    deltas = [delta_encode(ids) for ids in
              run.samples.get("varint.postings", [])][:2000]
    enc_w, dec_w, blobs = [], [], []
    for _ in range(3):
        t = time.perf_counter()
        with run.span("varint.encode"):
            blobs = [varint_encode(d) for d in deltas]
        enc_w.append(time.perf_counter() - t)
        t = time.perf_counter()
        with run.span("varint.decode"):
            for blob in blobs:
                varint_decode(blob)
        dec_w.append(time.perf_counter() - t)
    mb = sum(len(x) for x in blobs) / 1e6
    run.layer["varint.encode_mb_per_s"] = mb / max(_median(enc_w), 1e-9)
    run.layer["varint.decode_mb_per_s"] = mb / max(_median(dec_w), 1e-9)
    run.facts["varint_mb"] = mb


def serving_layers(run: Run, index_dir: str, engine: SearchEngine,
                   reads) -> None:
    """Partitioned-service latency, driver df scout and the RPC cost of
    the replicated service (service latency minus in-process latency for
    the same query), on this workload's index."""
    from solr_indexer_ray.pipelines.serving import (
        PartitionedSearchService,
        SearchService,
    )

    sample = reads[:run.n(40, 5)]
    with run.span("serving.open"):
        psvc = PartitionedSearchService(index_dir, pool=1)
    with psvc:
        for r in sample:
            with run.span("request", run.tracer.new_request()):
                ok, _, dt = run.timed("serving.scout", psvc.engine.lookup_dfs,
                                      r.terms())
                if ok:
                    run.sample("serving.scout_ms", dt * 1e3)
                ok, _, dt = run.timed("serving.partitioned_search",
                                      psvc.search, r.q, k=K,
                                      fq=list(r.fq) or None)
                if ok:
                    run.sample("serving.partitioned_ms", dt * 1e3)
    with run.span("serving.open"):
        svc = SearchService(index_dir, pool=1)
    with svc:
        for r in sample:
            with run.span("request", run.tracer.new_request()):
                ok1, _, remote = run.timed("serving.service_search",
                                           svc.search, r.q, k=K)
                ok2, _, local = read_once(run, engine, corpora.Read(r.q))
                if ok1 and ok2:
                    run.sample("serving.rpc_ms", (remote - local) * 1e3)


def finish_layers(run: Run) -> None:
    s = run.samples
    for name in ("build.stage1_s", "build.stage2_s", "build.commit_s",
                 "build.extend_s", "mutate.delete_ms", "search.refresh_ms",
                 "search.first_read_after_commit_ms", "queryparse.parse_ms",
                 "search.postings_ms", "search.postings_miss_ms",
                 "search.postings_hit_ms",
                 "search.dfs_ms", "search.score_ms", "search.resolve_ms",
                 "search.fq_mask_ms", "serving.partitioned_ms",
                 "serving.rpc_ms", "serving.scout_ms"):
        run.layer[name] = _median(s.get(name, []))
    run.layer["search.decoded_bytes"] = float(
        np.mean(s["search.decoded_bytes"])) if s.get(
        "search.decoded_bytes") else 0.0
    run.layer["search.postings_miss_share"] = float(
        np.mean(s["postings_miss"])) if s.get("postings_miss") else 0.0
    den = sum(s.get("postings_share_den", []))
    run.layer["search.postings_share"] = (
        sum(s.get("postings_share_num", [])) / den if den else 0.0)
    run.layer["search.post_commit_errors"] = run.probe.failed
    for mod in ("build", "tokenize", "varint", "queryparse", "search",
                "mutate", "serving"):
        run.layer[f"{mod}.errors"] = run.check.errors(mod)
    selft = run.tracer.self_times()
    for mod in ("build", "tokenize", "varint", "queryparse", "search",
                "mutate", "serving", "check", "unattributed"):
        run.layer[f"selftime.{mod}_s"] = selft.get(mod, 0.0)
    run.layer["run.error_rate"] = run.check.failed / max(1, run.check.attempted)
    run.facts["self_time_s"] = selft


def layer_tail(run: Run, index_dir: str, engine: SearchEngine, table,
               reads) -> None:
    """Per-layer passes every traced run makes on its own index."""
    tracing_overhead(run, index_dir, reads)
    postings_probe(run, index_dir, reads)
    codec_layers(run, table)
    serving_layers(run, index_dir, engine, reads)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
@dataclass
class Inputs:
    """One workload's seeded inputs."""
    name: str
    table: object               # the corpus (pyarrow table)
    reads: list                 # the read mix, in order
    warm_terms: list            # postings fetched by the warm-up
    warm_reads: list            # reads of the warm-up (own stream)
    make_ext: object            # round -> extension batch table
    batch_distinct: int         # distinct reads in a batch pass
    config: IndexConfig
    n_ranges: int
    params: dict


def code_inputs(run: Run, n_docs: int) -> Inputs:
    reads = corpora.code_reads(CODE_READS, run.seed)
    table = corpora.code_corpus(n_docs, run.seed)
    return Inputs(
        "code", table, reads,
        sorted({t for r in reads for t in r.terms()}),
        corpora.code_reads(20, run.seed + 7),
        lambda rnd: corpora.code_corpus(run.n(INGEST_BATCH, 10),
                                        run.seed * 1000 + rnd + 1,
                                        with_edge_rows=False),
        # one doc range holds the corpus; commit batches start new ranges
        BATCH, IndexConfig(docs_per_range=table.num_rows), 1,
        {"generator": "sources.corpus.generate_corpus", "n_docs": n_docs,
         "mean_tokens": 80, "extension_docs": run.n(INGEST_BATCH, 10)})


def longtail_inputs(run: Run) -> Inputs:
    p = corpora.LongtailParams(**dict(
        LONGTAIL.record(), n_docs=run.n(LONGTAIL.n_docs, 60)))
    lt = corpora.Longtail(p, run.seed)
    return Inputs(
        "longtail", lt.corpus(p.n_docs), lt.reads(4000),
        # a long-lived engine's cache holds the most frequent query terms
        lt.frequent_query_terms(WARM_TERMS), lt.reads(20, stream=1),
        lambda rnd: lt.corpus(run.n(INGEST_BATCH, 10), tag=rnd + 1),
        # few enough terms to stay in the postings cache: a warm batch
        LONGTAIL_BATCH_DISTINCT,
        IndexConfig(docs_per_range=-(-p.n_docs // LONGTAIL_RANGES)),
        LONGTAIL_RANGES,
        dict(p.record(), extension_docs=run.n(INGEST_BATCH, 10)))


def prepare(run: Run, inp: Inputs, t0: float) -> tuple:
    """Write the corpus, warm Ray Data up, run the first timed build and
    record the input facts; returns ``(index_dir, parquet)``."""
    parquet = corpora.write_parquet(inp.table, run.path("corpus.parquet"), 4)
    run.setup["corpus_s"] = time.perf_counter() - t0
    warm_up_build(run, lambda: corpora.code_corpus(200, run.seed + 1))
    index_dir = first_build(run, parquet, inp.config)
    record_input(run, inp.name, inp.table, inp.reads, inp.n_ranges,
                 inp.params)
    run.facts[inp.name]["distinct_terms"] = SearchEngine(
        index_dir).luke()["n_terms"]
    run.e2e["index_bytes_per_input_byte"] = (
        run.layer["build.index_bytes"] / run.facts[inp.name]["content_bytes"])
    return index_dir, parquet


def measure(run: Run, index_dir: str, inp: Inputs, parquet: str,
            loop) -> None:
    """The measured rounds: an untimed batch pass, then ``ROUNDS`` rounds
    of a read chunk (when ``loop`` is given) and a timed batch pass, with
    one more timed build between rounds.  The batch runs on its own
    engine, so its passes leave the read engine's caches alone."""
    batch_engine = SearchEngine(index_dir)
    tail = inp.reads[-run.n(inp.batch_distinct, 8):]
    # one postings read for all batch terms: the warm pass then costs what
    # a warm pass costs, on the long-tail corpus too
    batch_engine.lookup_postings({t for r in tail for t in r.terms()})
    distinct = [r.q for r in tail]
    queries = distinct * max(1, run.n(BATCH, 8) // len(distinct))

    def batch(qs):
        return [batch_engine.search(q, k=K, fl=["doc_id"]) for q in qs]

    run.timed("search.batch", batch, distinct)
    walls = []
    for i in range(ROUNDS):
        if i:
            more_builds(run, parquet, inp.config)
        if loop is not None:
            loop.chunk(run.seconds / ROUNDS, -(-run.n(MIN_READS, 20) // ROUNDS))
        ok, _, dt = run.timed("search.batch", batch, queries)
        if ok:
            walls.append(dt)
    run.facts["batch_qps"] = len(queries) / _median(walls, float("inf"))
    run.facts["batch"] = {"queries": len(queries), "walls_s": walls}


def warm_seen(inp: Inputs) -> set:
    return set(inp.warm_terms) | {t for r in inp.warm_reads for t in r.terms()}


def _in_process_search(run: Run, inp: Inputs, t0: float) -> None:
    """``code-hot`` and ``code-longtail``: build, then closed-loop
    ``SearchEngine.search`` reads and batch passes, commit rounds and the
    oracle check."""
    index_dir, parquet = prepare(run, inp, t0)
    engine = open_phase(run, index_dir, inp.warm_terms, inp.warm_reads)
    if run.traced:
        read_fn = layered_read(run, engine, warm_seen(inp))
    else:
        def read_fn(r):
            return read_once(run, engine, r)
    loop = ReadLoop(run, read_fn, inp.reads)
    measure(run, index_dir, inp, parquet, loop)
    if not run.traced:
        set_latency(run, loop.lat)
    run.facts[inp.name]["distinct_query_terms_read"] = len(
        warm_seen(inp) | {t for r in loop.answers for t in r.terms()})
    run.e2e["peak_rss_mb"] = _peak_rss_mb()
    if run.traced:
        layer_tail(run, index_dir, engine, inp.table, inp.reads)
        commit_tail(run, index_dir, engine, inp.make_ext, inp.reads[0])
    oracle_check(run, inp.table, loop.answers)


def code_hot(run: Run) -> None:
    t0 = time.perf_counter()
    _in_process_search(run, code_inputs(run, run.n(HOT_DOCS, 50)), t0)


def code_longtail(run: Run) -> None:
    t0 = time.perf_counter()
    _in_process_search(run, longtail_inputs(run), t0)


def ingest_mixed(run: Run) -> None:
    """Build a small base index, then commit rounds on one long-lived
    engine for ``--seconds``: ``extend_index`` + ``delete_by_id``,
    ``refresh()``, and a read burst (ranked and fq) compared read by read
    with a freshly opened engine on the same generation."""
    t0 = time.perf_counter()
    inp = code_inputs(run, run.n(INGEST_DOCS, 40))
    index_dir, parquet = prepare(run, inp, t0)
    engine = open_phase(run, index_dir, inp.warm_terms, inp.warm_reads)
    reads = inp.reads
    lat, i = [], 0
    for rnd in range(max(MIN_ROUNDS, int(run.seconds / ROUND_S))):
        fresh = commit_round(run, index_dir, inp.make_ext(rnd), rnd, engine,
                             reads[i % len(reads)])
        for _ in range(run.n(BURST, 5)):
            r = reads[i % len(reads)]
            i += 1
            with run.span("request", run.tracer.new_request()):
                ok, got, dt = read_once(run, engine, r)
            if ok:
                lat.append(dt)
                with run.span("check.fresh_engine"):
                    want = fresh.search(r.q, k=K, fq=list(r.fq) or None)
                run.check.expect("search", hits(got), hits(want),
                                 f"round {rnd} {r}")
        post_commit_probe(run, engine, fresh, reads[i % len(reads)].q)
    set_latency(run, lat + run.samples.get("read_s", []))
    loop = None
    if run.traced:
        # the last refresh() emptied the engine's caches
        loop = ReadLoop(run, layered_read(run, engine, set()), reads)
    measure(run, index_dir, inp, parquet, loop)
    run.e2e["peak_rss_mb"] = _peak_rss_mb()
    if run.traced:
        layer_tail(run, index_dir, engine, inp.table, reads)


WORKLOADS = {
    "code-hot": code_hot,
    "code-longtail": code_longtail,
    "ingest-mixed": ingest_mixed,
}
