"""Engine configuration.

Reference analogue: the YAML run config of solr-indexer
(``solrindexer/search.py:143-163`` parse_cfg; ``etc/cfg-template.yml``) — batch
size, worker counts, feature toggles. Here the knobs are the ones that matter
for a distributed inverted-index build: BM25 parameters, doc-range salting
granularity, postings layout, and Ray stage sizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IndexConfig:
    """All tunables of the index build + query engine.

    BM25 parameters are pinned to the Lucene/Solr defaults the reference
    relies on (Solr default similarity, k1=1.2 b=0.75; reference consumes it
    via ``solrindexer/search.py:125-140``).
    """

    # --- BM25 / scoring ---------------------------------------------------
    k1: float = 1.2
    b: float = 0.75

    # --- posting layout ---------------------------------------------------
    #: doc-range salting granularity: postings are grouped by
    #: (term, doc_id // docs_per_range).  This (a) bounds the memory of any
    #: single groupby-merge group — a stop-word-heavy term at 10^12 docs
    #: never lands on one worker — and (b) yields doc-range-partitioned
    #: posting rows, so query-time scoring can fan out per range.  Ranges are
    #: disjoint and ordered, so the full posting list is the concatenation of
    #: its range rows: no re-merge needed (explicit skew handling per the
    #: north rule; reference has none — ``SURVEY.md §4``).
    docs_per_range: int = 1 << 20

    #: number of hash buckets for the postings parquet layout; query-time
    #: term lookup only touches the bucket file(s) of the query terms.
    term_buckets: int = 16

    #: parquet codec for index artifacts (docs, spills, merged postings).
    #: zstd measures ~30% smaller than snappy on posting lists at
    #: negligible write cost — at 10^12 docs that is real storage and
    #: shuffle I/O.  Pinned at build time.
    compression: str = "zstd"

    #: store token positions in the postings (Lucene: positions are indexed
    #: by default on text fields; Solr ``omitPositions=false``).  Enables
    #: exact phrase queries (``"foo bar"``) at the cost of larger postings —
    #: positions are delta-varint-packed per doc next to the tf stream.
    #: Pinned at build time: extensions inherit it from the committed stats.
    store_positions: bool = False

    #: next-word (adjacent-bigram) index (Williams/Zobel/Bahle, "Fast
    #: Phrase Querying with Combined Indexes"; Lucene's CommonGrams
    #: analogue generalized to every pair): each adjacent token pair in
    #: the analyzed stream is indexed as a synthetic term ``a\\x1eb`` whose
    #: tf IS the exact phrase frequency, so a two-term exact phrase query
    #: becomes one postings lookup — no position decode at all — and still
    #: scores bit-identically to the positional matcher (w = sum of MEMBER
    #: idfs, tf = pair count).  Costs roughly one extra posting per token;
    #: intended for common-phrase-heavy workloads where positional
    #: intersection over frequent terms dominates query latency.  Works
    #: with or without ``store_positions`` (2-term phrases need no
    #: positions when bigrams are present; proximity and 3+-term phrases
    #: still require positions).  Pinned at build time.
    store_bigrams: bool = False

    #: restrict the next-word index to pairs whose FIRST token is in this
    #: set (Williams/Zobel/Bahle's common-word nextword index; Lucene
    #: CommonGrams proper): at web scale the full pair dictionary is
    #: O(unique adjacent pairs), while phrase-query cost is dominated by
    #: common-first pairs — indexing only those caps the dictionary at
    #: |list| x vocab and keeps the postings overhead proportional to
    #: stop-word mass.  Empty = index every pair.  The SAME pinned list
    #: gates query routing (a phrase whose leading pairs aren't covered
    #: falls back to the positional matcher — which needs
    #: ``store_positions=True``, else it raises the clear rebuild
    #: error), so "key absent" always means "no occurrences".  Pinned at
    #: build time in stats.json.
    bigram_first: tuple = ()

    #: store the raw ``content`` in the docs table (Solr ``stored="true"`` on
    #: the body field; the reference keeps the full source document in Solr,
    #: ``mmd_xml_file``).  Enables ``fl=content`` retrieval and search-time
    #: highlighting at the cost of docs-table size.  Pinned at build time.
    store_content: bool = False

    # --- analyzer ---------------------------------------------------------
    #: name of the default analyzer for langs without a registered one.
    default_analyzer: str = "simple"

    #: ordered token-filter chain applied AFTER tokenization (Solr
    #: analysis chain: tokenizer -> filters; a stock ``text_en`` field is
    #: tokenizer + StopFilter + PorterStemFilter).  Known filters:
    #: ``"stop"`` (stopword removal, Lucene's classic English set unless
    #: ``stopwords`` overrides) and ``"porter"`` (Porter 1980 stemming).
    #: Applies to the default field AND every analyzed field; pinned in
    #: stats.json so query parsing / oracle / shards / extensions agree.
    #: See functions/filters.py for the position semantics note.
    filters: tuple = ()

    #: custom stop set for the ``stop`` filter (None = Lucene's classic
    #: 33-word English set).  Pinned at build time.
    stopwords: tuple | None = None

    # --- ray stage sizing -------------------------------------------------
    #: rows per batch in tokenize/doc-prep map_batches stages.
    batch_size: int = 4096
    #: actor-pool size for stateful stages; None = let Ray size task
    #: parallelism (stateless).  Tests override with small values.
    concurrency: int | None = None

    # --- build behaviour --------------------------------------------------
    #: write per-unit checkpoints (docs + raw postings + manifest) so an
    #: interrupted build resumes without recomputing completed units.
    checkpoint: bool = True

    #: validate rows during ingestion (reference semantics: invalid rows are
    #: recorded in the errors side-channel and skipped, never raised —
    #: ``solrindexer/indexer.py:132-389``).  Invalid rows keep their doc-id
    #: slot (determinism) but are excluded from docs + postings.
    validate: bool = False

    #: extra input columns carried verbatim into the docs table as stored
    #: fields (Solr stored="true" dynamic fields; reference indexes many
    #: typed metadata fields beyond the core set, e.g. strict datetimes,
    #: ``solrindexer/mmd.py:419-421``).  Timestamp/numeric extras become
    #: range-filterable (``mtime:[2024-01-01T00:00:00Z TO *]``) and
    #: sortable/facetable like any stored field.  Pinned at build time.
    extra_stored: tuple = ()

    #: additional ANALYZED (scored) fields: ``"field:src_column"`` entries
    #: (Solr ``copyField`` into a second text field; Lucene per-field
    #: postings + norms).  Each source column is tokenized with the
    #: default analyzer, its terms enter the same postings structure
    #: field-prefixed, and the docs table gains ``doclen_<field>`` /
    #: ``norm_<field>`` columns — queries can then score ``field:term``
    #: clauses and dismax ``qf`` across fields with true per-field BM25
    #: statistics (per-field df, docCount, avgdl, norms — Lucene
    #: semantics).  Pinned at build time.
    analyzed_fields: tuple = ()

    #: extra metadata recorded into the manifest.
    tags: dict = field(default_factory=dict)

    @property
    def k1_times_one_minus_b(self) -> float:
        return self.k1 * (1.0 - self.b)


DEFAULT_CONFIG = IndexConfig()


def load_config(path: str) -> IndexConfig:
    """YAML config source (reference ``parse_cfg``,
    ``solrindexer/search.py:143-163``): the file must parse to a mapping;
    unknown keys are rejected so typos fail loudly."""
    import yaml

    with open(path) as f:
        data = yaml.safe_load(f)
    if not isinstance(data, dict):
        raise ValueError(f"config {path!r} must be a YAML mapping")
    valid = set(IndexConfig.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return IndexConfig(**data)
