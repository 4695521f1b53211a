"""CLI entry-point tests (reference: tests/test_cli.py exit-code checks)."""

import json

import pytest

from solr_indexer_ray.cli import main


class TestCli:
    def test_index_search_get_status(self, small_corpus_path, tmp_path, capsys):
        idx = str(tmp_path / "idx")
        rc = main(["index", "-i", small_corpus_path, "-o", idx, "--validate"])
        # the synthetic corpus contains invalid edge rows -> partial (3)
        assert rc == 3
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["n_docs"] > 0 and out["failed_rows"] > 0

        rc = main(["search", "-o", idx, "-q", "def index", "-k", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(lines) <= 5
        assert "doc_id" in json.loads(lines[0])

        rc = main(["get", "-o", idx, "--id", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["doc_id"] == 0

        rc = main(["get", "-o", idx, "--id", "999999"])
        assert rc == 1
        capsys.readouterr()

        rc = main(["delete", "-o", idx, "--id", "0", "1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["deleted"] == [0, 1]

        rc = main(["status", "-o", idx])
        assert rc == 0
        st = json.loads(capsys.readouterr().out)
        assert st["committed"] is True and st["deleted_docs"] == 2

    def test_group_prints_one_row_per_line(self, built_index, capsys):
        """--group keeps the one-hit-row-per-line output: ngroups rides
        on every row instead of a line of its own."""
        from solr_indexer_ray.pipelines.search import SearchEngine

        idx, _ = built_index
        rc = main(["search", "-o", idx, "-q", "def", "--group", "lang",
                   "--group-limit", "2", "-k", "3"])
        assert rc == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
        assert rows and all(
            isinstance(r, dict) and "doc_id" in r for r in rows
        )
        _, ngroups = SearchEngine(idx).group_search(
            "def", "lang", k_groups=3, group_limit=2, with_ngroups=True
        )
        assert {r["ngroups"] for r in rows} == {ngroups}

    def test_status_uncommitted(self, tmp_path, capsys):
        assert main(["status", "-o", str(tmp_path / "nope")]) == 1
        capsys.readouterr()

    def test_yaml_config(self, small_corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.yml"
        cfg.write_text("k1: 1.5\ndocs_per_range: 32\n")
        idx = str(tmp_path / "idx2")
        rc = main(["index", "-i", small_corpus_path, "-o", idx,
                   "--config", str(cfg)])
        assert rc == 0
        capsys.readouterr()
        from solr_indexer_ray.state.manifest import BuildManifest

        stats = BuildManifest(idx).read_stats()
        assert stats["k1"] == 1.5 and stats["docs_per_range"] == 32

    def test_yaml_config_rejects_unknown_keys(self, tmp_path):
        from solr_indexer_ray.config import load_config

        cfg = tmp_path / "bad.yml"
        cfg.write_text("notakey: 1\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(cfg))
        cfg.write_text("block_size: 128\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(cfg))
        cfg.write_text("- a list\n")
        with pytest.raises(ValueError, match="mapping"):
            load_config(str(cfg))


class TestContractShape:
    def test_queries_cover_oracles(self):
        import __ray_entry__ as m

        qs, sqls = m.queries(), m.oracle_sql()
        assert set(sqls) <= set(qs)
        # every query from the operator inventory is registered
        assert len(qs) >= 24
        for name, fn in qs.items():
            assert callable(fn), name
