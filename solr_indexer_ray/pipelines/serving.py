"""Resident serving pool — the steady-state query-deployment shape.

The per-job distributed paths (``rd.from_items(...).map_batches(
BatchSearcher)`` and ``search_partitioned``) spawn a fresh worker pool per
call: the right shape for batch jobs, but a serving deployment keeps its
engines resident.  ``SearchService`` holds N actors, each with ONE warm
:class:`~solr_indexer_ray.pipelines.search.SearchEngine` (stats, norms,
term/df caches loaded once per actor lifetime — reference analogue: one
pysolr session per worker process reused across requests,
``solrindexer/indexer.py:83-88`` ST5), and round-robins query batches
across them.  bench.py's ``dist_warm_qps`` row measures exactly this shape
at ~2-4x the per-job ``dist_qps`` number (the difference is process spawn
+ import + engine init, paid once here instead of per job).
``PartitionedSearchService`` is the resident form of
``search_partitioned``: each actor keeps one engine per doc range it
owns, fed the whole index's statistics.  Both speak one range-task
protocol: a task is a module-level function plus its arguments, run as
``task(range engine, *args)`` over a set of range engines by
``search._run_task`` (per job inside ``_map_ranges``, resident inside
``_RangeActor.run``), and the driver only merges the ranges' parts.

The service never calls ``ray.init()`` — actor creation auto-initialises
under an existing session (tests / bench / CLI / driver own the session).
"""

from __future__ import annotations

import ray


@ray.remote
class _ServingActor:
    """One resident engine; a plain ``ray.remote`` actor so the pool
    survives across queries (Ray Data actor pools are per-job)."""

    def __init__(self, index_dir: str, synonyms=None):
        from solr_indexer_ray.pipelines.search import SearchEngine

        self.engine = SearchEngine(index_dir, synonyms=synonyms)
        self.engine.norms  # eager warm-up, once per actor

    def search_many(self, queries, k, fl, kwargs):
        return [
            self.engine.search(q, k=k, fl=fl, **kwargs) for q in queries
        ]


class SearchService:
    """Round-robin query service over a resident actor pool.

    >>> with SearchService(index_dir, pool=8) as svc:
    ...     hits = svc.search('"def index" read', k=10)      # one pa.Table
    ...     all_hits = svc.search_many(queries, k=10)        # ordered list

    Results are the engine's own tables, bit-identical to
    ``SearchEngine(index_dir).search(...)`` (tested).  ``pool`` x
    ``num_cpus`` should be sized to the node like any actor-pool stage.
    """

    def __init__(self, index_dir: str, pool: int = 8, synonyms=None,
                 num_cpus: float = 1):
        if pool < 1:
            raise ValueError("pool must be >= 1")
        self._actors = [
            _ServingActor.options(num_cpus=num_cpus).remote(
                index_dir, synonyms=synonyms
            )
            for _ in range(pool)
        ]
        self._rr = 0
        self._closed = False

    # -- queries ----------------------------------------------------------
    def search(self, query: str, k: int = 10, fl=None, **kwargs):
        """One query -> the engine's result table (blocking)."""
        return self.search_many([query], k=k, fl=fl, **kwargs)[0]

    def search_many(self, queries, k: int = 10, fl=None,
                    chunk: int = 64, **kwargs) -> list:
        """Many queries -> ordered list of result tables.

        Queries are chunked and dispatched round-robin across the pool;
        all chunks run concurrently and results reassemble in input
        order."""
        if self._closed:
            raise RuntimeError("SearchService is closed")
        queries = list(queries)
        refs, spans = [], []
        for i in range(0, len(queries), chunk):
            part = queries[i:i + chunk]
            actor = self._actors[self._rr % len(self._actors)]
            self._rr += 1
            refs.append(actor.search_many.remote(part, k, fl, kwargs))
            spans.append((i, len(part)))
        out: list = [None] * len(queries)
        for (i, n), tables in zip(spans, ray.get(refs)):
            out[i:i + n] = tables
        return out

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            for a in self._actors:
                ray.kill(a)
            self._actors = []
            self._closed = True

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@ray.remote
class _RangeActor:
    """Resident range engines for a FIXED subset of doc ranges — the
    shard-resident shape of a multi-node serving deployment (each node
    holds its ranges' postings/norms warm; no actor ever touches
    another's partition).  One engine per range, all fed the whole
    index's statistics from one shared engine."""

    def __init__(self, index_dir: str, range_ids, synonyms=None):
        from solr_indexer_ray.pipelines.search import _range_engines

        self.engines = dict(_range_engines(index_dir, range_ids, synonyms))

    def run(self, task, args):
        """``[(r, task(range engine, *args))]`` over this actor's ranges:
        the range-task protocol of the per-job ``_map_ranges``."""
        from solr_indexer_ray.pipelines.search import _run_task

        return _run_task(self.engines.items(), task, args)


class PartitionedSearchService:
    """Resident form of the per-range distributed search
    (:func:`~solr_indexer_ray.pipelines.search.search_partitioned`).

    ``SearchService`` replicates the WHOLE index into every actor —
    right for single-node serving, impossible when the index outgrows
    one machine.  This service instead partitions the doc ranges across
    a resident actor pool: each actor keeps one range engine per range
    it owns, which touches only that range's postings and docs rows (the
    layout a multi-node cluster pins per node).  A query ships as the
    task ``search_partitioned`` runs per job — the module-level
    ``_range_search`` and its arguments — and every actor runs it over
    its ranges through the same ``_run_task`` a per-job range task uses.
    Every range applies ``fq``, tombstones, prohibitions and filters
    itself, and the driver merges the ranges' parts with ``_merge_hits``.
    Results are bit-identical to ``search_partitioned`` and the single
    engine (tested), and a query the engine rejects raises the same
    exception.

    Mutations (delete / extend / compact) follow the engine-wide
    invalidation rule: construct a NEW service after committing them
    (Solr's searcher-reopen-on-commit discipline) — a resident pool
    built before a mutation serves the pre-mutation view.
    """

    def __init__(self, index_dir: str, pool: int = 8, synonyms=None,
                 num_cpus: float = 1):
        from solr_indexer_ray.pipelines.search import SearchEngine, _n_ranges

        if pool < 1:
            raise ValueError("pool must be >= 1")
        self.index_dir = index_dir
        #: whole-index engine on the driver: the range layout, and
        #: statistics or dictionary lookups (it never scores a query)
        self.engine = SearchEngine(index_dir, synonyms=synonyms)
        n_ranges = _n_ranges(self.engine.stats)
        pool = min(pool, n_ranges)
        self._actors = [
            _RangeActor.options(num_cpus=num_cpus).remote(
                index_dir, list(range(p, n_ranges, pool)), synonyms
            )
            for p in range(pool)
        ]
        self._closed = False

    def search(self, query: str, k: int = 10, fq=None, **params):
        """Top-k for one query -> ``(doc_id, score)`` table, bit-identical
        to ``search_partitioned(index_dir, query, k=k, fq=fq, **params)``;
        ``params`` are ``SearchEngine.search``'s ranking parameters
        (``qf``/``tie``/``mm``/``pf``/``ps``/``pf2``/``pf3``/``bf``/
        ``boost``/``bq``)."""
        from solr_indexer_ray.pipelines.search import (
            _check_page,
            _merge_hits,
            _range_search,
            _task_errors,
        )

        if self._closed:
            raise RuntimeError("PartitionedSearchService is closed")
        _check_page(k)
        args = (query, k, {**params, "fq": fq})
        with _task_errors():
            done = ray.get([a.run.remote(_range_search, args)
                            for a in self._actors])
        # the merge ranks by (score, doc_id): range order does not matter
        parts = [part for actor in done for _, part in actor]
        return _merge_hits(parts, k, fq).select(["doc_id", "score"])

    def close(self) -> None:
        if not self._closed:
            for a in self._actors:
                ray.kill(a)
            self._actors = []
            self._closed = True

    def __enter__(self) -> "PartitionedSearchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
