"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic 300-file synthetic corpus (plus edge rows)."""
    from solr_indexer_ray.sources.corpus import generate_corpus

    return generate_corpus(300, seed=7, mean_tokens=60)


@pytest.fixture(scope="session")
def small_corpus_path(small_corpus, tmp_path_factory):
    import pyarrow.parquet as pq

    path = tmp_path_factory.mktemp("corpus") / "corpus.parquet"
    pq.write_table(small_corpus, path, row_group_size=64)
    return str(path)


@pytest.fixture(scope="session")
def built_index(small_corpus_path, tmp_path_factory):
    """Index built once per session over the small corpus."""
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index

    index_dir = str(tmp_path_factory.mktemp("index") / "idx")
    config = IndexConfig(docs_per_range=128, concurrency=2)
    stats = build_index(small_corpus_path, index_dir, config=config)
    return index_dir, stats
