"""Annotator tags each segment in one GazetteerTagger pass.  On generated
corpora (head, and long-tail with its pattern family) that pass must emit
exactly what the 3-member type-split gazetteer ensemble it replaced emitted,
span for span and row for row."""

import pytest

from pdf_entity_extraction_ray.sources.corpus import (
    TAIL_PATTERN,
    TAIL_TYPE,
    cached_catalog,
    catalog_gazetteer,
    pages_batch,
)
from pdf_entity_extraction_ray.stages.annotate import Annotator
from pdf_entity_extraction_ray.stages.ensemble import EnsembleTagger
from pdf_entity_extraction_ray.stages.extract import extract_segments_batch

N_PER_TYPE = 25
TYPE_SPLIT = (("PERSON", "DATE"), ("ORG", "LAW"), ("GPE",))


def type_split_ensemble(gazetteer, extra_patterns):
    """One windowed gazetteer member per type group, each given only the
    surfaces and pattern families of its own types."""
    return EnsembleTagger(
        [
            ("gazetteer", {
                "gazetteer": [g for g in gazetteer if g[1] in types],
                "extra_patterns": [p for p in extra_patterns if p[1] in types],
                "use_windows": True,
            })
            for types in TYPE_SPLIT
        ]
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("tail_every", [0, 1])
def test_single_pass_equals_type_split_ensemble(seed, tail_every):
    pages, _, _ = pages_batch(range(120), seed, N_PER_TYPE, tail_every=tail_every)
    segments = extract_segments_batch(pages)
    gazetteer = catalog_gazetteer(cached_catalog(seed, N_PER_TYPE))
    pats = [(TAIL_PATTERN, TAIL_TYPE)] if tail_every else []

    ann = Annotator(gazetteer, use_windows=True, extra_patterns=pats)
    ens = type_split_ensemble(gazetteer, pats)
    n_spans = 0
    for text in segments.column("text").to_pylist():
        spans = ann.tagger.tag_segment(text)
        assert spans == ens.tag_segment(text), text
        n_spans += len(spans)
    assert n_spans > segments.num_rows  # the corpus exercises the tagger

    via_ensemble = Annotator(gazetteer)
    via_ensemble.tagger = ens
    assert ann(segments).equals(via_ensemble(segments))
