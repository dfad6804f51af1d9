"""Fused annotation stage: segments -> (mentions, triples) in ONE tagging
pass.

The tagger is the dominant cost of the pipeline (the reference's model
inference, SURVEY §6); running it once into a nested per-segment row is
strictly cheaper than the naive two-phase layout (mentions phase + triples
phase each re-tagging every segment).  The flat ``mentions`` /
``triples`` deliverable tables are cheap explode projections of these
rows.  The nested rows are never written: ``run_kg`` sorts the tagged
blocks by bucket and runs both explodes in the tasks after the sort, in
the same execution, and each task writes both tables
(``pipelines.kg._explode_block``).

Per-segment nesting also guarantees a segment's mentions can never split
across batch boundaries, a hazard if triples were derived from the mentions
table with row-based batching.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..state.lineage import url_buckets
from .relations import TRIPLES_SCHEMA, triples_from_spans
from .tagger import MENTIONS_SCHEMA, TITLE_CASED_TYPES, GazetteerTagger

_MENTION_STRUCT = pa.struct(
    [
        ("text", pa.string()),
        ("surface", pa.string()),
        ("type", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
    ]
)
_TRIPLE_STRUCT = pa.struct(
    [
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("obj_norm", pa.string()),
        ("evidence_start", pa.int32()),
        ("evidence_end", pa.int32()),
    ]
)
_TRIPLE_FIELDS = [f.name for f in _TRIPLE_STRUCT]

ANNOTATIONS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("seg_id", pa.int32()),
        ("lang", pa.string()),
        ("seg_offset", pa.int32()),
        ("mentions", pa.list_(_MENTION_STRUCT)),
        ("triples", pa.list_(_TRIPLE_STRUCT)),
    ]
)


class Annotator:
    """Tagging stage: one ``GazetteerTagger`` pass per segment -> nested
    row.  ``run_kg`` calls it in Ray tasks fused with the extract, one
    instance per worker process (``pipelines.kg._cached_stage``).

    Every segment is scanned once (M8 windows, DATE and open-vocab
    families, M7 + M6).  The reference's multi-model ensemble (A6) lives in
    :class:`stages.ensemble.EnsembleTagger` for real-model members; a
    type-split gazetteer ensemble is NOT equivalent to this pass, because
    each member's greedy M6 overlap removal can drop a span that one pass
    keeps (pinned in tests/test_ensemble_json.py).

    When ``n_buckets`` is set, the url-hash ``bucket`` partition column is
    computed inline (a separate trivial map operator costs more in task
    overhead than its work, measured via ``ds.stats()``).
    """

    def __init__(self, gazetteer: list[tuple[str, str]], n_buckets: int = 0, **tagger_kwargs):
        self.tagger = GazetteerTagger(gazetteer, **tagger_kwargs)
        self.n_buckets = n_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in ANNOTATIONS_SCHEMA.names}
        for url, seg_id, lang, text, seg_offset in zip(
            batch.column("url").to_pylist(),
            batch.column("seg_id").to_pylist(),
            batch.column("lang").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("seg_offset").to_pylist(),
        ):
            spans = self.tagger.tag_segment(text)
            mentions = []
            for span in spans:
                surface = span["text"]
                if span["entity_label"] in TITLE_CASED_TYPES:
                    surface = surface.title()  # M13
                mentions.append(
                    {
                        "text": span["text"],
                        "surface": surface,
                        "type": span["entity_label"],
                        "start": span["start_index"],
                        "end": span["end_index"],
                    }
                )
            triples = [
                {k: t[k] for k in _TRIPLE_FIELDS} for t in triples_from_spans(text, spans)
            ]
            out["url"].append(url)
            out["seg_id"].append(seg_id)
            out["lang"].append(lang)
            out["seg_offset"].append(seg_offset)
            out["mentions"].append(mentions)
            out["triples"].append(triples)
        tbl = pa.table(
            {n: pa.array(out[n], ANNOTATIONS_SCHEMA.field(n).type) for n in ANNOTATIONS_SCHEMA.names}
        )
        if self.n_buckets:
            tbl = tbl.append_column(
                "bucket",
                pa.array(url_buckets(tbl.column("url"), self.n_buckets), pa.int32()),
            )
        return tbl


def _explode(batch: pa.Table, list_col: str, carry: list[str]) -> tuple[pa.Table, pa.Table]:
    """Vectorized list<struct> explode: returns (flat struct fields as a
    table, carried parent columns repeated per child) via Arrow
    ``list_flatten`` / ``list_parent_indices`` — no Python row loop."""
    import pyarrow.compute as pc

    col = batch.column(list_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col)
    parents = pc.list_parent_indices(col)
    fields = pa.table({f.name: flat.field(f.name) for f in flat.type})
    carried = pa.table({name: pc.take(batch.column(name), parents) for name in carry})
    return fields, carried


def _mention_ids(urls, seg_ids, starts) -> pa.Array:
    """Content-derived mention ids (the only per-row Python in the explode)."""
    out = []
    for url, seg_id, start in zip(urls.to_pylist(), seg_ids.to_pylist(), starts.to_pylist()):
        key = f"{url}\x00{seg_id}\x00{start}".encode()
        out.append(
            int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
            & 0x7FFFFFFFFFFFFFFF
        )
    return pa.array(out, pa.int64())


def explode_mentions_batch(batch: pa.Table) -> pa.Table:
    """Nested rows -> flat MENTIONS_SCHEMA rows (+ passthrough ``bucket``)."""
    import pyarrow.compute as pc

    has_bucket = "bucket" in batch.column_names
    carry = ["url", "seg_id", "lang", "seg_offset"] + (["bucket"] if has_bucket else [])
    fields, carried = _explode(batch, "mentions", carry)
    seg_offset = carried.column("seg_offset").cast(pa.int32())
    tbl = pa.table(
        {
            "url": carried.column("url"),
            "seg_id": carried.column("seg_id"),
            "lang": carried.column("lang"),
            "mention_id": _mention_ids(
                carried.column("url"), carried.column("seg_id"), fields.column("start")
            ),
            "text": fields.column("text"),
            "surface": fields.column("surface"),
            "type": fields.column("type"),
            "start": fields.column("start"),
            "end": fields.column("end"),
            "page_start": pc.add(seg_offset, fields.column("start")).cast(pa.int32()),
            "page_end": pc.add(seg_offset, fields.column("end")).cast(pa.int32()),
        }
    )
    if has_bucket:
        tbl = tbl.append_column("bucket", carried.column("bucket").cast(pa.string()))
    return tbl


def explode_triples_batch(batch: pa.Table) -> pa.Table:
    """Nested rows -> flat TRIPLES_SCHEMA rows (+ passthrough ``bucket``)."""
    has_bucket = "bucket" in batch.column_names
    carry = ["url", "seg_id"] + (["bucket"] if has_bucket else [])
    fields, carried = _explode(batch, "triples", carry)
    cols = {"url": carried.column("url"), "seg_id": carried.column("seg_id")}
    for name in _TRIPLE_FIELDS:
        cols[name] = fields.column(name)
    tbl = pa.table(cols).select(TRIPLES_SCHEMA.names)
    if has_bucket:
        tbl = tbl.append_column("bucket", carried.column("bucket").cast(pa.string()))
    return tbl
