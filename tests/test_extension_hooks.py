"""Extension-surface tests (SURVEY.md §2.10): analyzer registry, scoring
models, warning callback, doc-enrichment hook."""

import pyarrow as pa
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.tokenize import AnalyzerRegistry, register_analyzer
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import (
    SCORING_MODELS,
    SearchEngine,
    TfIdfModel,
    register_scoring_model,
)


class TestAnalyzerPlugin:
    def test_register_and_use(self):
        register_analyzer("shout", lambda text: [t.upper() for t in text.split()])
        try:
            reg = AnalyzerRegistry("shout")
            assert reg.tokenize("a b") == ["A", "B"]
        finally:
            AnalyzerRegistry.ANALYZERS.pop("shout")


class TestScoringModel:
    def test_tfidf_changes_scores_not_api(self, built_index):
        index_dir, _ = built_index
        bm25 = SearchEngine(index_dir)
        tfidf = SearchEngine(index_dir, scoring="tfidf")
        a = bm25.search("def index", k=5, fl=["doc_id"])
        b = tfidf.search("def index", k=5, fl=["doc_id"])
        assert a.num_rows == b.num_rows == 5
        assert a["score"].to_pylist() != b["score"].to_pylist()

    def test_registry(self):
        class Constant(TfIdfModel):
            name = "const"

        register_scoring_model("const", Constant)
        try:
            assert SCORING_MODELS["const"] is Constant
        finally:
            SCORING_MODELS.pop("const")


class TestWarningCallback:
    def test_called_per_warning(self):
        from solr_indexer_ray.stages.validate import CorpusValidator

        seen = []
        v = CorpusValidator(on_warning=lambda key, msg, stage: seen.append(
            (key, stage)
        ))
        batch = pa.Table.from_pylist(
            [{"repo": "r", "path": "p", "commit": "a" * 40,
              "lang": "klingon", "content": "tokens here"}]
        )
        v(batch)
        assert seen == [("r/p", "vocabulary")]


class TestDocEnricher:
    def test_enrich_adds_column(self, small_corpus_path, tmp_path):
        def thumb(docs: pa.Table) -> pa.Table:
            urls = [f"https://thumbs/{p}" for p in docs["path"].to_pylist()]
            return docs.append_column("thumbnail", pa.array(urls, pa.string()))

        idx = str(tmp_path / "idx")
        build_index(
            small_corpus_path, idx,
            config=IndexConfig(concurrency=2),
            doc_enricher=thumb,
        )
        eng = SearchEngine(idx)
        row = eng.get(0)
        assert row["thumbnail"].endswith(row["path"])

    def test_enricher_with_inline_validation(self, small_corpus_path, tmp_path):
        """Judge repro (VERDICT r1 #1): validate=True routes some rows to
        errors/; a row-count-preserving enricher must still build — the
        guard compares against the post-filter table, not the raw unit."""
        def thumb(docs: pa.Table) -> pa.Table:
            urls = [f"https://thumbs/{p}" for p in docs["path"].to_pylist()]
            return docs.append_column("thumbnail", pa.array(urls, pa.string()))

        idx = str(tmp_path / "vidx")
        stats = build_index(
            small_corpus_path, idx,
            config=IndexConfig(concurrency=2, validate=True),
            doc_enricher=thumb,
        )
        assert stats["n_failed"] >= 1  # corpus has invalid edge rows
        eng = SearchEngine(idx)
        row = eng.get(0)
        assert row["thumbnail"].endswith(row["path"])

    def test_enricher_must_preserve_rows(self, small_corpus_path, tmp_path):
        from solr_indexer_ray.pipelines.build import UnitIndexer
        from solr_indexer_ray.sources.parquet_units import list_units

        bad = UnitIndexer(
            str(tmp_path / "idx2"), IndexConfig(),
            doc_enricher=lambda t: t.slice(0, 1),
        )
        bad.manifest.ensure_dirs()
        unit = dict(list_units(small_corpus_path)[0].to_row(), n_shards=8)
        with pytest.raises(ValueError, match="row count"):
            bad._process_unit(unit)
