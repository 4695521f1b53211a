"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q -p no:cacheprovider

The smoke runs start the benchmark as a subprocess at a tiny input size
(``--scale``), so each takes Ray's start-up time (10-25 s on one core).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import corpora, metrics, workloads
from perfbench.checks import Checker, hits
from perfbench.spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def _run(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (u, _) in metrics.LAYERS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
             "--trace", str(trace), "--scale", "0.03")
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = ({k: u for k, (u, _) in metrics.LAYERS.items()} if trace
            else metrics.E2E)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        if not trace:
            assert v["value"] > 0, name


def test_corrupted_result_counts_as_failed():
    table = corpora.code_corpus(60, seed=3)
    reads = corpora.code_reads(4, seed=3)
    run = workloads.Run(3, 1.0, 1.0, Tracer(False), "")
    from solr_indexer_ray.pipelines.oracle import BruteForceBM25

    oracle = BruteForceBM25(table)
    answers = {}
    for r in reads:
        ok, got = run.check.call("search", oracle.search, r.oracle_query(),
                                 k=10)
        assert ok and got
        answers[r] = got
    first = reads[0]
    doc, score = answers[first][0]
    answers[first] = [(doc, score * 1.001)] + answers[first][1:]
    workloads.oracle_check(run, table, answers)
    assert run.check.attempted == len(reads)
    assert run.check.failed == 1
    assert "oracle" in run.check.examples[0]


def test_exception_counts_as_failed_and_run_goes_on():
    check = Checker()

    def boom():
        raise IndexError("index 5 is out of bounds for axis 0 with size 5")

    assert check.call("search", boom) == (False, None)
    assert check.call("search", lambda: 1) == (True, 1)
    assert (check.attempted, check.failed) == (2, 1)
    assert "IndexError" in check.examples[0]


def test_hits_reads_doc_id_and_score():
    import pyarrow as pa

    t = pa.table({"doc_id": [3, 1], "score": [2.0, 1.0]})
    assert hits(t) == [(3, 2.0), (1, 1.0)]


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "code-hot", "--seed", "1",
             "--seconds", "1", "--trace", "0", timeout=180)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_longtail_inputs_are_seeded():
    p = corpora.LongtailParams(n_docs=50, vocab_size=2000, zipf_s=1.0,
                               query_zipf_s=0.6)
    a, b = corpora.Longtail(p, 9), corpora.Longtail(p, 9)
    assert a.corpus(50).equals(b.corpus(50))
    assert a.reads(30) == b.reads(30)
    assert not a.corpus(50).equals(corpora.Longtail(p, 10).corpus(50))
