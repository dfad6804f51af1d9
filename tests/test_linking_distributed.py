"""Distributed linking (label-propagation connected components).

The driver union-find path (stages/linking.py ``link_entities``) is exact;
the distributed path must produce an IDENTICAL surface-map table
(type, surface, node_id, canonical) so the pipeline can switch on universe
size without changing results.  A stress test drives the propagation over a synthetic
edge set far larger than anything the small corpus produces.
"""

import pyarrow as pa
import ray.data

from pdf_entity_extraction_ray.stages.extract import extract_segments_batch
from pdf_entity_extraction_ray.stages.linking import (
    SURFACE_MAP_SCHEMA,
    block_index,
    distinct_surfaces,
    label_propagation_components,
    link_entities,
    link_entities_distributed,
)
from pdf_entity_extraction_ray.stages.tagger import GazetteerTagger


def _mentions_ds(small_corpus):
    from pdf_entity_extraction_ray.sources.corpus import catalog_gazetteer, make_catalog

    gaz = catalog_gazetteer(make_catalog(42, 25))
    return (
        ray.data.read_parquet(f"{small_corpus}/pages")
        .map_batches(extract_segments_batch, batch_format="pyarrow")
        .map_batches(_tag_batch_fn(gaz), batch_format="pyarrow")
    )


def _tag_batch_fn(gaz):
    from pdf_entity_extraction_ray.stages.tagger import TITLE_CASED_TYPES

    def tag(batch: pa.Table) -> pa.Table:
        tagger = GazetteerTagger(gaz)
        types, surfaces = [], []
        for text in batch.column("text").to_pylist():
            for span in tagger.tag_segment(text):
                s = span["text"]
                if span["entity_label"] in TITLE_CASED_TYPES:
                    s = s.title()
                types.append(span["entity_label"])
                surfaces.append(s)
        return pa.table(
            {"type": pa.array(types, pa.string()), "surface": pa.array(surfaces, pa.string())}
        )

    return tag


def test_distributed_matches_driver_path(small_corpus, tmp_path):
    distinct = distinct_surfaces(_mentions_ds(small_corpus))
    surface_map = link_entities(block_index(distinct, str(tmp_path))[0])
    by_key = [("type", "ascending"), ("surface", "ascending")]
    assert surface_map.num_rows > 0
    assert surface_map.schema == SURFACE_MAP_SCHEMA
    assert surface_map.equals(surface_map.sort_by(by_key))

    got = pa.concat_tables(
        b
        for b in link_entities_distributed(distinct).iter_batches(batch_format="pyarrow")
        if b.num_rows and "type" in b.column_names
    ).sort_by(by_key)
    assert got.schema == SURFACE_MAP_SCHEMA
    assert got.equals(surface_map)


def test_label_propagation_stress_many_components():
    """1.5*10^5 nodes in 5*10^4 chains of length 3 — a surface universe far
    beyond what should ever be collected to the driver (and well past the
    edge counts the small corpus produces).  Each chain must collapse to
    exactly one component labeled by its minimum member key."""
    from pdf_entity_extraction_ray.stages.linking import node_id_of

    n_chains, chain_len = 50_000, 3

    def make_edges(batch: dict) -> pa.Table:
        types, a, b = [], [], []
        for cid in batch["id"].tolist():
            for j in range(chain_len - 1):
                types.append("PERSON")
                a.append(f"s{cid}_{j}")
                b.append(f"s{cid}_{j + 1}")
        return pa.table(
            {
                "type": pa.array(types, pa.string()),
                "a": pa.array(a, pa.string()),
                "b": pa.array(b, pa.string()),
            }
        )

    edges = ray.data.range(n_chains, override_num_blocks=16).map_batches(
        make_edges, batch_format="numpy"
    )
    labels = label_propagation_components(edges, max_iters=chain_len + 2, num_partitions=4)

    n_rows = 0
    roots = set()
    for b in labels.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0 or "label" not in b.column_names:
            continue
        n_rows += b.num_rows
        roots.update(b.column("label").to_pylist())
    assert n_rows == n_chains * chain_len
    assert len(roots) == n_chains
    # every root is the minimum node key of its own chain
    expected = {
        min(node_id_of("PERSON", f"s{cid}_{j}") for j in range(chain_len))
        for cid in range(n_chains)
    }
    assert roots == expected


def test_propagation_converges_past_25_rounds_by_default():
    """Default max_iters=None runs to convergence: a chain of diameter 60
    (would under-merge at the old cap of 25) fully merges."""
    import pyarrow as pa
    import ray.data

    from pdf_entity_extraction_ray.stages.linking import components_from_int_edges

    n = 60
    edges = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array(list(range(n)), pa.int64()),
                "b": pa.array(list(range(1, n + 1)), pa.int64()),
            }
        )
    )
    out = {r["node"]: r["label"] for r in components_from_int_edges(edges).take_all()}
    assert set(out.values()) == {0}  # single fully-merged component


def test_explicit_cap_warns_on_non_convergence():
    import warnings

    import pyarrow as pa
    import ray.data

    from pdf_entity_extraction_ray.stages.linking import components_from_int_edges

    n = 30
    edges = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array(list(range(n)), pa.int64()),
                "b": pa.array(list(range(1, n + 1)), pa.int64()),
            }
        )
    )
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        out = {r["node"]: r["label"]
               for r in components_from_int_edges(edges, max_iters=3).take_all()}
    assert any("max_iters" in str(x.message) for x in w)
    assert len(set(out.values())) > 1  # refinement, not converged


def test_duplicate_surface_rows_never_self_pair():
    """candidate_pair_edges on a NON-distinct input must not emit (s, s)
    self-edges nor let duplicate rows trip the MAX_BLOCK cap."""
    import pyarrow as pa
    import ray.data

    from pdf_entity_extraction_ray.stages.linking import candidate_pair_edges

    rows = [("PERSON", "John Smith")] * 5 + [("PERSON", "John Smith Jr")] * 5
    ds = ray.data.from_arrow(
        pa.table(
            {
                "type": pa.array([r[0] for r in rows], pa.string()),
                "surface": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )
    edges = candidate_pair_edges(ds).take_all()
    assert edges, "the subset-rule pair must survive"
    assert all(r["a"] != r["b"] for r in edges)
    assert all(r["a"] < r["b"] for r in edges)


def _distinct_of(rows):
    """distinct_surfaces over (type, surface) mention rows (its part blocks,
    empty ones included, as the pipeline gets them)."""
    mentions = pa.table(
        {"type": [t for t, _ in rows], "surface": [s for _, s in rows]},
        schema=pa.schema([("type", pa.string()), ("surface", pa.string())]),
    )
    return distinct_surfaces(ray.data.from_arrow(mentions))


def _collect(ds) -> pa.Table:
    tables = [ray.get(ref) for ref in ds.to_arrow_refs()]
    got = pa.concat_tables(
        [t for t in tables if t.num_rows] or [SURFACE_MAP_SCHEMA.empty_table()]
    )
    return got.sort_by([("type", "ascending"), ("surface", "ascending")])


def _catalog_rows():
    from pdf_entity_extraction_ray.sources.corpus import cached_catalog

    rows = sorted({(c.type, a) for c in cached_catalog(42, 25) for a in c.aliases})
    return rows + [("DATE", "2004-11-05"), ("DATE", "2004-11-06")]


def test_consolidate_hook_gives_equal_maps_under_both_plans(tmp_path):
    import zlib

    from pdf_entity_extraction_ray.stages.linking import build_cluster_map

    def _mixed_consolidate(group: list[str]):
        """Leaves about a third of the groups unmerged and, in the rest,
        picks the shortest surface, not the default most complete one.
        (Nested, so Ray workers unpickle it by value.)"""
        if zlib.crc32(group[0].encode()) % 3 == 0:
            return None
        return min(group, key=lambda s: (len(s), s))

    distinct = _distinct_of(_catalog_rows())
    index = block_index(distinct, str(tmp_path))[0]
    default = link_entities(index)
    driver = link_entities(index, consolidate=_mixed_consolidate)

    linked = default.select(["type", "surface"])
    edges = zip(*(index.pairs.column(c).to_pylist() for c in ("type", "a", "b")))
    universe = list(zip(linked.column("type").to_pylist(), linked.column("surface").to_pylist()))
    cmap = build_cluster_map(edges, universe, consolidate=_mixed_consolidate)
    assert [cmap[key] for key in universe] == list(
        zip(driver.column("node_id").to_pylist(), driver.column("canonical").to_pylist())
    )
    assert _collect(link_entities_distributed(distinct, consolidate=_mixed_consolidate)).equals(driver)

    # the hook took both branches: a default component split apart, and one
    # kept whole on a member the default rule would not pick
    default_canon = dict(zip(default.column("node_id").to_pylist(), default.column("canonical").to_pylist()))
    comps: dict[int, set] = {}
    for d, node, canon in zip(*(t.column(c).to_pylist() for t, c in (
        (default, "node_id"), (driver, "node_id"), (driver, "canonical")
    ))):
        comps.setdefault(d, set()).add((node, canon))
    assert any(len(rows) > 1 for rows in comps.values())
    assert any(
        len(rows) == 1 and next(iter(rows))[1] != default_canon[d] for d, rows in comps.items()
    )


def test_no_linked_surface_gives_empty_map_under_both_plans(tmp_path):
    distinct = _distinct_of([("DATE", "2004-11-05"), ("DATE", "2004-11-06")])
    driver = link_entities(block_index(distinct, str(tmp_path))[0])
    assert driver.equals(SURFACE_MAP_SCHEMA.empty_table())
    assert _collect(link_entities_distributed(distinct)).equals(SURFACE_MAP_SCHEMA.empty_table())


def test_tiny_universes_equal_under_both_plans(tmp_path):
    """A few surfaces leave most join partitions without rows of one side."""
    cases = [
        [("ORG", "Acme Corp")],
        [("ORG", "Acme Corp"), ("ORG", "Acme Corporation")],
        [("ORG", "Acme Corp"), ("PERSON", "Zed Qin"), ("DATE", "2004-11-05")],
    ]
    for k, rows in enumerate(cases):
        distinct = _distinct_of(rows)
        driver = link_entities(block_index(distinct, str(tmp_path / str(k)))[0])
        assert driver.num_rows == len([r for r in rows if r[0] != "DATE"])
        assert _collect(link_entities_distributed(distinct)).equals(driver), rows


def test_distributed_links_with_one_join(monkeypatch):
    joins = []
    join = ray.data.Dataset.join

    def counted(self, *args, **kwargs):
        joins.append(kwargs.get("join_type"))
        return join(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "join", counted)
    assert _collect(link_entities_distributed(_distinct_of(_catalog_rows()))).num_rows > 0
    assert joins == ["left_outer"]
