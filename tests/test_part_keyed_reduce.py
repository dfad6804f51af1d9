"""The part-keyed reduces of the KG stages (``stages/linking.part_keyed_reduce``)
must equal in-process Arrow references and the Ray sort-``Aggregate``
formulation they replaced, at any part count, with empty blocks and hub
keys; nodes must not depend on how the mentions are split into blocks;
and a failed edges fold must fail the build, which a resume then
completes to a clean build's graph.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from pdf_entity_extraction_ray.stages import graph, linking
from pdf_entity_extraction_ray.stages.graph import (
    build_edges_from_canonical,
    build_nodes,
    build_nodes_join,
    edge_partials_batch,
)
from pdf_entity_extraction_ray.stages.linking import (
    SURFACE_MAP_SCHEMA,
    distinct_surfaces,
    node_id_of,
)


def _rows(ds, sort_keys) -> list[dict]:
    """All rows of a Dataset, skipping empty-schema blocks, sorted."""
    tables = [
        t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows
    ]
    if not tables:
        return []
    return pa.concat_tables(tables).sort_by([(k, "ascending") for k in sort_keys]).to_pylist()


def _mention_blocks() -> list[pa.Table]:
    """Mention blocks with an empty block and a hub surface in every block."""

    def block(rows):
        return pa.table(
            {
                "type": pa.array([t for t, _ in rows], pa.string()),
                "surface": pa.array([s for _, s in rows], pa.string()),
            }
        )

    hub = [("GPE", "France")] * 700
    return [
        block(hub + [("PERSON", f"Person {i % 37}") for i in range(300)]),
        block([]),
        block(hub + [("ORG", f"Org {i % 11}") for i in range(50)] + [("PERSON", "Person 3")]),
        block([("GPE", "France"), ("DATE", "2020-01-02"), ("ORG", "Org 1")]),
        block([]),
    ]


@pytest.mark.parametrize("parts", [1, 3, 16, 512])
def test_distinct_surfaces_equal_arrow_group_by(monkeypatch, parts):
    blocks = _mention_blocks()
    want = (
        pa.concat_tables(blocks)
        .group_by(["type", "surface"])
        .aggregate([([], "count_all")])
        .rename_columns(["type", "surface", "n"])
        .sort_by([("type", "ascending"), ("surface", "ascending")])
        .to_pylist()
    )
    monkeypatch.setattr(linking, "_coarse_parts", lambda: parts)
    got = _rows(distinct_surfaces(ray.data.from_arrow(blocks)), ["type", "surface"])
    assert got == want
    # 512 parts is more parts than there are distinct rows
    assert len(want) < 512
    assert {"type": "GPE", "surface": "France", "n": 1401} in got


def _canonical_blocks() -> list[pa.Table]:
    """Canonical-triples blocks: one hub src_id with many dst_ids, repeated
    (src, pred, dst) groups across blocks with different urls, and an
    empty block."""
    hub = 1 << 62

    def block(rows):
        return pa.table(
            {
                "src_id": pa.array([r[0] for r in rows], pa.int64()),
                "pred": pa.array([r[1] for r in rows], pa.string()),
                "dst_id": pa.array([r[2] for r in rows], pa.int64()),
                "subj_canonical": pa.array([f"S{r[0]}" for r in rows], pa.string()),
                "obj_canonical": pa.array([f"O{r[2]}" for r in rows], pa.string()),
                "url": pa.array([r[3] for r in rows], pa.string()),
            }
        )

    hub_rows = [(hub, "located_in", d, f"u{d % 7}") for d in range(400)]
    return [
        block(hub_rows + [(5, "works_for", 9, "u2"), (5, "works_for", 9, "u1")]),
        block([]),
        block(hub_rows[::3] + [(5, "works_for", 9, "u0"), (9, "works_for", 5, "u9")]),
        block([(hub, "born_in", 3, "z"), (3, "born_in", hub, "a")]),
    ]


def _edges_via_sort_aggregate(canonical_ds):
    """The Ray sort-``Aggregate`` edges formulation (the oracle)."""
    from ray.data.aggregate import Min, Sum

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src_id": batch.column("src_id"),
                "src_canonical": batch.column("src_canonical"),
                "pred": batch.column("pred"),
                "dst_id": batch.column("dst_id"),
                "dst_canonical": batch.column("dst_canonical"),
                "weight": batch.column("weight"),
                "urls_sample": pa.array(
                    [[u] for u in batch.column("url_sample").to_pylist()],
                    pa.list_(pa.string()),
                ),
            }
        )

    return (
        canonical_ds.map_batches(edge_partials_batch, batch_format="pyarrow")
        .groupby(["src_id", "pred", "dst_id"])
        .aggregate(
            Sum("weight", alias_name="weight"),
            Min("src_canonical", alias_name="src_canonical"),
            Min("dst_canonical", alias_name="dst_canonical"),
            Min("url_sample", alias_name="url_sample"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


@pytest.mark.parametrize("parts", [1, 3, 16])
def test_edges_equal_sort_aggregate(monkeypatch, parts):
    keys = ["src_id", "pred", "dst_id"]
    blocks = [b for b in _canonical_blocks() if b.num_rows]  # Ray's Aggregate needs schemas
    want = _rows(_edges_via_sort_aggregate(ray.data.from_arrow(blocks)), keys)
    monkeypatch.setattr(linking, "_coarse_parts", lambda: parts)
    got_ds = build_edges_from_canonical(ray.data.from_arrow(_canonical_blocks()))
    got = _rows(got_ds, keys)
    assert got == want
    assert len([r for r in got if r["src_id"] == 1 << 62]) == 401
    assert {"src_id": 5, "src_canonical": "S5", "pred": "works_for", "dst_id": 9,
            "dst_canonical": "O9", "weight": 3, "urls_sample": ["u0"]} in got
    schemas = {t.schema for t in got_ds.iter_batches(batch_format="pyarrow") if t.num_rows}
    assert schemas == {graph.EDGES_SCHEMA}


def _surface_map(rows) -> pa.Table:
    """(type, surface, node_id, canonical) rows -> a surface-map table."""
    return pa.table(
        [pa.array([r[i] for r in rows], f.type) for i, f in enumerate(SURFACE_MAP_SCHEMA)],
        schema=SURFACE_MAP_SCHEMA,
    )


def _nodes(ds) -> pa.Table:
    """A nodes Dataset as one table sorted by node_id."""
    got = pa.concat_tables(
        t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows
    )
    return got.sort_by("node_id")


def test_build_nodes_same_table_at_any_part_count(monkeypatch):
    # the hub node and Person 7 get partial rows from both non-empty blocks
    rows = [("GPE", "France", f"https://h{i}.example/p") for i in range(60)]
    rows += [("PERSON", f"Person {i}", f"https://p.example/{i}") for i in range(200)]
    rows += [("GPE", "french republic", "https://a.example/1"),
             ("PERSON", "P. 7", "https://q.example/7"), ("DATE", "2 January 2020", "u"),
             ("DATE", "2020-01-02", "v"), ("MISC", "ignored", "w")]
    mentions = pa.table(
        {
            "type": pa.array([r[0] for r in rows], pa.string()),
            "surface": pa.array([r[1] for r in rows], pa.string()),
            "url": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    france = (node_id_of("GPE", "France"), "France")
    surface_map = _surface_map(
        [("GPE", "France", *france), ("GPE", "french republic", *france),
         ("PERSON", "P. 7", node_id_of("PERSON", "Person 7"), "Person 7")]
    )
    blocks = [mentions.slice(0, 100), mentions.slice(0, 0), mentions.slice(100)]

    tables = {}
    for parts in (1, 3, 16):
        monkeypatch.setattr(linking, "_coarse_parts", lambda parts=parts: parts)
        tables[parts] = _nodes(
            build_nodes_join(ray.data.from_arrow(blocks), ray.data.from_arrow(surface_map))
        )
    assert tables[1].schema == graph.NODES_SCHEMA
    assert tables[1].equals(tables[3]) and tables[1].equals(tables[16])
    by_id = {r["node_id"]: r for r in tables[1].to_pylist()}
    hub = by_id[france[0]]
    assert hub["n_mentions"] == 61 and hub["aliases"] == ["France", "french republic"]
    # both DATE spellings parse to one ISO node; MISC is not a node type
    assert tables[1].num_rows == 1 + 200 + 1


def test_build_nodes_same_table_at_any_block_split():
    """Nodes are a function of the mentions alone: 1 or 8 input blocks give
    an equal table.  The hub's 60 urls are spread over every block, so a
    per-block sample that is not an associative min-k (e.g. min and max url
    per surface and block) keeps different urls per split."""
    import random

    rows = [("GPE", "France", f"https://h.example/{i:02d}") for i in range(60)]
    rows += [("GPE", "french republic", f"https://h.example/{i:02d}") for i in range(0, 60, 7)]
    rows += [("PERSON", f"Person {i % 9}", f"https://p.example/{i % 13}") for i in range(90)]
    rows += [("DATE", "2 January 2020", "https://d.example/1"),
             ("DATE", "2020-01-02", "https://d.example/0")]
    random.Random(7).shuffle(rows)
    mentions = pa.table(
        {
            "type": pa.array([r[0] for r in rows], pa.string()),
            "surface": pa.array([r[1] for r in rows], pa.string()),
            "url": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    france = (node_id_of("GPE", "France"), "France")
    lookup = graph.map_lookup(
        _surface_map([("GPE", "France", *france), ("GPE", "french republic", *france)])
    )
    step = -(-mentions.num_rows // 8)
    one = build_nodes([graph.surface_partials(mentions)], lookup)
    slices = [mentions.slice(i, step) for i in range(0, mentions.num_rows, step)]
    eight = build_nodes([graph.surface_partials(s) for s in slices], lookup)
    assert one.equals(eight)
    by_id = {r["node_id"]: r for r in one.to_pylist()}
    hub = by_id[france[0]]
    assert hub["urls_sample"] == [f"https://h.example/{i:02d}" for i in range(20)]
    assert hub["n_urls"] == 21 and hub["n_mentions"] == 69
    date = by_id[node_id_of("DATE", "2020-01-02")]
    assert date["n_urls"] == 2 and date["aliases"] == ["2 January 2020", "2020-01-02"]


def test_edges_failure_propagates_without_graph_manifest(small_corpus, tmp_path, monkeypatch):
    from pdf_entity_extraction_ray.pipelines.kg import run_kg
    from pdf_entity_extraction_ray.state import lineage

    def boom(partials, lookup):
        raise RuntimeError("edges build failed")

    pages = os.path.join(small_corpus, "pages")
    out = str(tmp_path / "out")
    with monkeypatch.context() as m:
        m.setattr(graph, "fold_edges", boom)
        with pytest.raises(RuntimeError, match="edges build failed"):
            run_kg(pages, out, n_buckets=4, concurrency=2)
    linking_manifest = lineage.load_manifest(out, "linking")
    assert linking_manifest is not None
    assert lineage.load_manifest(out, "graph") is None
    assert not os.path.exists(os.path.join(out, "edges"))

    # the resume reuses linking and reads the surface map back from its
    # Parquet artifact; the graph equals a clean build's
    run_kg(pages, out, n_buckets=4, concurrency=2, resume=True)
    assert lineage.load_manifest(out, "linking") == linking_manifest
    clean = str(tmp_path / "clean")
    run_kg(pages, clean, n_buckets=4, concurrency=2)
    for name, keys in (("nodes", ["node_id"]), ("edges", ["src_id", "pred", "dst_id"]),
                       ("triples_canonical", ["url", "seg_id", "evidence_start"])):
        got, want = (
            pq.read_table(os.path.join(d, name)).sort_by([(k, "ascending") for k in keys])
            for d in (out, clean)
        )
        assert got.num_rows and got.equals(want), name


def test_driver_folds_equal_the_ray_forms():
    """``build_nodes`` / ``fold_edges`` of per-block surface and triple
    partials (the driver plan's P4) equal the scale plan's Ray forms,
    ``build_nodes_join`` and ``build_edges_from_canonical`` over the
    blocks' ``canonical_triples``, however the partials are grouped into
    tables."""
    from pdf_entity_extraction_ray.stages.relations import TRIPLES_SCHEMA

    france = (node_id_of("GPE", "France"), "France")
    surface_map = _surface_map(
        [("GPE", "France", *france), ("GPE", "french republic", *france),
         ("PERSON", "P. 7", node_id_of("PERSON", "Person 7"), "Person 7")]
    )
    lookup = graph.map_lookup(surface_map)
    mentions = pa.table(
        {
            "type": ["GPE"] * 30 + ["GPE", "PERSON", "PERSON", "DATE", "DATE", "MISC"],
            "surface": ["France"] * 30 + ["french republic", "P. 7", "Person 7",
                                          "2 January 2020", "2020-01-02", "x"],
            "url": [f"u{i % 23:02d}" for i in range(30)] + ["a", "b", "c", "d", "e", "f"],
        }
    )
    blocks = [mentions.slice(0, 17), mentions.slice(17)]
    want = _nodes(build_nodes_join(ray.data.from_arrow(blocks), ray.data.from_arrow(surface_map)))
    partials = [graph.surface_partials(b) for b in blocks]
    assert build_nodes(partials, lookup).equals(want)
    assert build_nodes([pa.concat_tables(partials)], lookup).equals(want)

    rows = [("P. 7", "PERSON", "visited", "french republic", "GPE", "", f"u{i % 5}")
            for i in range(12)]
    rows += [("Person 7", "PERSON", "visited", "France", "GPE", "", "z"),
             ("Person 7", "PERSON", "born_on", "2 January 2020", "DATE", "2020-01-02", "y"),
             ("Nobody", "PERSON", "visited", "France", "GPE", "", "x")]
    cols = ["subj", "subj_type", "pred", "obj", "obj_type", "obj_norm", "url"]
    triples = pa.table(
        {c: [r[cols.index(c)] if c in cols else 0 for r in rows] for c in TRIPLES_SCHEMA.names}
    ).cast(TRIPLES_SCHEMA)
    triples = triples.append_column("bucket", pa.array(["0"] * len(rows)))
    blocks = [triples.slice(0, 7), triples.slice(7)]
    keys = [("src_id", "ascending"), ("pred", "ascending"), ("dst_id", "ascending")]
    want = pa.Table.from_pylist(
        _rows(
            build_edges_from_canonical(
                ray.data.from_arrow([graph.canonical_triples(b, lookup) for b in blocks])
            ),
            ["src_id", "pred", "dst_id"],
        ),
        schema=graph.EDGES_SCHEMA,
    )
    got = graph.fold_edges([graph.triple_partials(b) for b in blocks], lookup).sort_by(keys)
    assert got.equals(want)
    assert got.num_rows == 3 and sorted(got.column("weight").to_pylist()) == [1, 1, 13]
