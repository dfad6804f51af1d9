"""Long-tail entity clusters — the distinct-surface scale knob.

The head catalog is pool-capped (~200 clusters), so only ``tail_every``
corpora can push the distinct (type, surface) universe past the
pipeline's AUTO_DISTRIBUTED_THRESHOLD.  These tests pin the construction
invariants (merge safety, pattern recall, canonical choice) and the core
scale claim: the distributed linking + join-rewrite path produces the
SAME graph as the driver/broadcast path on a tail-bearing corpus.

The full-size demonstration (>10^6 distinct surfaces through the auto
switch) runs via ``scripts/scale_kg_run.py``; results in
BASELINE.md.
"""

import re

import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from pdf_entity_extraction_ray.sources.corpus import (
    TAIL_PATTERN,
    TAIL_TYPE,
    cached_catalog,
    generate_page,
    tail_surfaces,
    write_corpus,
)
from pdf_entity_extraction_ray.stages.linking import surfaces_match
from pdf_entity_extraction_ray.state import lineage


def test_tail_pair_merges_and_crosses_do_not():
    """Same-cluster (full, alias) must merge (M21 subset: 2 of 3 words);
    across clusters no rule may fire — words are unique hash material, so
    Levenshtein, subset, and abbreviation all stay below threshold."""
    for k in range(50):
        full, alias = tail_surfaces(k)
        assert surfaces_match(full, alias), (full, alias)
        assert full.title() == full and alias.title() == alias  # M13-stable
    for a in range(10):
        fa, aa = tail_surfaces(a)
        for b in range(a + 1, 10):
            fb, ab = tail_surfaces(b)
            assert not surfaces_match(fa, fb)
            assert not surfaces_match(aa, ab)
            assert not surfaces_match(aa, fb)


def test_tail_pattern_exact_recall():
    """TAIL_PATTERN must find exactly the two planted forms per tail
    segment — greedy 3-word match first, then the 2-word alias."""
    page = generate_page(0, cached_catalog(42, 25), 42, n_pages=10, tail_every=1)
    full, alias = tail_surfaces(0)
    seg = next(s for s in page.segments if "Zq" in s)
    assert [m.group(0) for m in re.finditer(TAIL_PATTERN, seg)] == [full, alias]
    # planted gold offsets point at the surfaces
    tail_mentions = [m for m in page.mentions if m["text"].startswith("Zq")]
    assert {m["text"] for m in tail_mentions} == {full, alias}
    assert all(m["type"] == TAIL_TYPE for m in tail_mentions)


def test_tail_only_on_scheduled_pages():
    cat = cached_catalog(42, 25)
    with_tail = generate_page(4, cat, 42, tail_every=2)
    without = generate_page(3, cat, 42, tail_every=2)
    assert any("Zq" in s for s in with_tail.segments)
    assert not any("Zq" in s for s in without.segments)
    # tail_every=0 (default) leaves the corpus byte-identical to before
    assert generate_page(4, cat, 42).text == generate_page(4, cat, 42, tail_every=0).text


def test_annotator_emits_tail_spans_once():
    """The pattern family must fire exactly once per planted form, both
    through the single-pass Annotator and through a type-split ensemble
    that routes the family to its type's member only."""
    from pdf_entity_extraction_ray.stages.annotate import Annotator
    from pdf_entity_extraction_ray.stages.ensemble import EnsembleTagger

    full, alias = tail_surfaces(7)
    seg = f"Briefing filed by {full} under review. Analysts at {alias} responded."
    gaz = [("Acme Corp", "ORG")]
    pats = [(TAIL_PATTERN, TAIL_TYPE)]
    ann = Annotator(gaz, extra_patterns=pats)
    ens = EnsembleTagger(
        [
            ("gazetteer", {"gazetteer": [g for g in gaz if g[1] in types],
                           "extra_patterns": [p for p in pats if p[1] in types]})
            for types in (("PERSON", "DATE"), ("ORG", "LAW"), ("GPE",))
        ]
    )
    for tagger in (ann.tagger, ens):
        spans = [(s["text"], s["entity_label"]) for s in tagger.tag_segment(seg)]
        assert spans.count((full, "ORG")) == 1
        assert spans.count((alias, "ORG")) == 1


@pytest.fixture(scope="module")
def tail_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("tailc"))
    write_corpus(d, n_pages=240, seed=42, write_gold=False, tail_every=1)
    return d


def test_tail_pipeline_mode_equality(tail_corpus, tmp_path_factory):
    """The driver plan (union-find + broadcast) and the scale plan
    (label propagation + join rewrites, forced with ``auto_threshold=0``)
    over a tail-bearing corpus: identical surface map, nodes, edges and
    canonical triples (every column) and cluster counts.  This is the
    correctness gate the >10^6-surface run in scripts/scale_kg_run.py
    relies on (same code path, bigger universe)."""
    from pdf_entity_extraction_ray.pipelines.kg import AUTO_DISTRIBUTED_THRESHOLD, run_kg

    pats = [(TAIL_PATTERN, TAIL_TYPE)]
    outs = {}
    for mode, threshold, plan in (
        ("drv", AUTO_DISTRIBUTED_THRESHOLD, ("driver", "broadcast")),
        ("dst", 0, ("distributed", "join")),
    ):
        out = str(tmp_path_factory.mktemp(f"tail_{mode}"))
        res = run_kg(
            f"{tail_corpus}/pages", out, n_buckets=4, concurrency=2,
            auto_threshold=threshold, extra_patterns=pats,
        )
        assert (res["resolved_linking_mode"], res["resolved_rewrite_mode"]) == plan
        outs[mode] = out
    # the linking manifest records the cluster count under every plan
    want = pc.count_distinct(
        pads.dataset(f"{outs['drv']}/surface_map").to_table().column("node_id")
    ).as_py()
    assert want > 0
    for out in outs.values():
        assert lineage.load_manifest(out, "linking")["clusters"] == want

    def table_key(out, name):
        t = pads.dataset(f"{out}/{name}", partitioning="hive").to_table()
        return sorted(zip(*[t.column(c).to_pylist() for c in sorted(t.column_names)]))

    for name in ("surface_map", "nodes", "edges", "triples_canonical"):
        want_rows = table_key(outs["drv"], name)
        assert table_key(outs["dst"], name) == want_rows, name

    # every tail cluster resolves to its full form, exactly once
    nodes = pads.dataset(f"{outs['dst']}/nodes").to_table()
    tail_canon = [c for c in nodes.column("canonical").to_pylist() if c.startswith("Zq")]
    assert len(tail_canon) == 240
    assert all(len(c.split()) == 3 for c in tail_canon)
