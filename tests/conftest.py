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


@pytest.fixture(scope="session")
def commit_corpus(tmp_path_factory):
    """A base index for commit tests and three extension batches.  The
    base is 170 docs in five docs files over four doc ranges of 48 (so
    an extend rewrites the boundary range and adds new ones); each batch
    holds 30 docs.  Every 9th doc has a null ``lang`` and every 13th a
    null bbox envelope (``bbox_west/_east/_south/_north``); every doc
    has a point (``lat``/``lon``) and stored content.  Returns ``(base
    index dir, [batch parquet paths])``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import generate_corpus

    t = generate_corpus(260, seed=5, mean_tokens=40, with_edge_rows=False)
    i = np.arange(t.num_rows)
    t = t.set_column(t.schema.get_field_index("lang"), "lang", pa.array(
        [None if j % 9 == 0 else v
         for j, v in enumerate(t["lang"].to_pylist())], pa.string()))
    west = ((i * 37) % 320) - 170.0
    south = ((i * 13) % 140) - 70.0
    has_box = pa.array(i % 13 != 5)
    for name, vals in (("lat", ((i * 37) % 1700) / 10.0 - 85.0),
                       ("lon", ((i * 73) % 3600) / 10.0 - 180.0),
                       ("bbox_west", west), ("bbox_east", west + i % 29 + 1),
                       ("bbox_south", south),
                       ("bbox_north", south + i % 17 + 1)):
        col = pa.array(vals, pa.float64())
        if name.startswith("bbox"):
            col = pc.if_else(has_box, col, pa.scalar(None, pa.float64()))
        t = t.append_column(name, col)
    d = tmp_path_factory.mktemp("commits")
    pq.write_table(t.slice(0, 170), str(d / "base.parquet"),
                   row_group_size=34)
    batches = []
    for b in range(3):
        batches.append(str(d / f"batch{b}.parquet"))
        pq.write_table(t.slice(170 + 30 * b, 30), batches[-1])
    config = IndexConfig(
        docs_per_range=48, store_content=True, store_positions=True,
        extra_stored=("lat", "lon", "bbox_west", "bbox_east", "bbox_south",
                      "bbox_north"))
    build_index(str(d / "base.parquet"), str(d / "idx"), config=config)
    return str(d / "idx"), batches
