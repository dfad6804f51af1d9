"""Tests: M18 tolerant JSON parsing, A6 ensemble semantics, A9 consolidator
hook contract."""

import pytest

from pdf_entity_extraction_ray.functions.llm_json import parse_entity_response, strip_fences
from pdf_entity_extraction_ray.stages.ensemble import EnsembleTagger
from pdf_entity_extraction_ray.stages.linking import build_cluster_map


class TestM18JsonParsing:
    def test_fenced_json(self):
        raw = 'noise\n```json\n[{"text": "Acme", "type": "ORG"}]\n```\nmore'
        assert parse_entity_response(raw) == [{"text": "Acme", "type": "ORG"}]

    def test_entities_wrapper(self):
        raw = '{"entities": [{"text": "Bo", "type": "PERSON", "character_start": 0, "character_end": 2}]}'
        out = parse_entity_response(raw)
        assert out[0]["character_start"] == 0 and out[0]["character_end"] == 2

    def test_invalid_items_dropped_not_raised(self):
        raw = '[{"text": "", "type": "X"}, {"no": 1}, "junk", {"text": "ok", "type": "Y", "start": 5, "end": 3}, {"text": "good", "type": "Z"}]'
        assert parse_entity_response(raw) == [{"text": "good", "type": "Z"}]

    def test_garbage_returns_empty(self):
        assert parse_entity_response("not json at all") == []
        assert parse_entity_response("") == []

    def test_strip_fences_passthrough(self):
        assert strip_fences("  plain  ") == "plain"


class TestA6Ensemble:
    def test_ordered_concat_earlier_member_wins_ties(self):
        # two gazetteers disagreeing on the label of the same surface:
        # the FIRST member's span must win (ordered concat + M6 tie-break)
        members = [
            ("gazetteer", {"gazetteer": [("Acme Corp", "ORG")], "use_windows": False}),
            ("gazetteer", {"gazetteer": [("Acme Corp", "GPE")], "use_windows": False}),
        ]
        ens = EnsembleTagger(members)
        spans = ens.tag_segment("visit Acme Corp today")
        assert len(spans) == 1 and spans[0]["entity_label"] == "ORG"

    def test_union_of_disjoint_members(self):
        members = [
            ("gazetteer", {"gazetteer": [("Acme Corp", "ORG")], "use_windows": False}),
            ("gazetteer", {"gazetteer": [("Bogotá", "GPE")], "use_windows": False}),
        ]
        ens = EnsembleTagger(members)
        spans = ens.tag_segment("Acme Corp opened in Bogotá.")
        assert {s["entity_label"] for s in spans} == {"ORG", "GPE"}


    def test_type_split_ensemble_is_not_one_pass(self):
        """Greedy M6 overlap removal is not compositional: a member's M6
        keeps ``cdef`` over ``fghi`` before the union's M6 drops ``cdef``
        against ``abcd``, so the type-split ensemble loses ``fghi`` where
        one pass over all families keeps it."""
        from pdf_entity_extraction_ray.stages.tagger import GazetteerTagger

        pats = [("abcd", "GPE"), ("cdef", "ORG"), ("fghi", "ORG")]
        one = GazetteerTagger([], extra_patterns=pats).tag_segment("abcdefghij")
        ens = EnsembleTagger(
            [
                ("gazetteer", {"gazetteer": [], "extra_patterns": [p for p in pats if p[1] in types]})
                for types in (("PERSON", "DATE"), ("ORG", "LAW"), ("GPE",))
            ]
        )
        split = ens.tag_segment("abcdefghij")
        assert [(s["text"], s["entity_label"]) for s in one] == [("abcd", "GPE"), ("fghi", "ORG")]
        assert [(s["text"], s["entity_label"]) for s in split] == [("abcd", "GPE")]


class TestA9ConsolidatorHook:
    UNIVERSE = [("PERSON", "Ana Ruiz"), ("PERSON", "Ana B Ruiz"), ("PERSON", "Zoe Qin")]
    EDGES = [("PERSON", "Ana B Ruiz", "Ana Ruiz")]

    def test_default_most_complete(self):
        cmap = build_cluster_map(self.EDGES, self.UNIVERSE)
        assert cmap[("PERSON", "Ana Ruiz")][1] == "Ana B Ruiz"
        assert cmap[("PERSON", "Ana Ruiz")][0] == cmap[("PERSON", "Ana B Ruiz")][0]

    def test_abstaining_consolidator_leaves_group_unmerged(self):
        cmap = build_cluster_map(self.EDGES, self.UNIVERSE, consolidate=lambda g: None)
        assert cmap[("PERSON", "Ana Ruiz")][0] != cmap[("PERSON", "Ana B Ruiz")][0]
        assert cmap[("PERSON", "Ana Ruiz")][1] == "Ana Ruiz"

    def test_consolidator_must_not_invent(self):
        with pytest.raises(ValueError, match="invented"):
            build_cluster_map(self.EDGES, self.UNIVERSE, consolidate=lambda g: "Dr. Ana Ruiz")

    def test_custom_choice_applies(self):
        cmap = build_cluster_map(self.EDGES, self.UNIVERSE, consolidate=lambda g: g[0])
        assert cmap[("PERSON", "Ana B Ruiz")][1] == "Ana B Ruiz"


class TestRegistryExtensionSeam:
    def test_custom_tagger_registration_and_use(self):
        """The §2.10 extension contract: register a class by name, use it
        in an ensemble via the registry."""
        from pdf_entity_extraction_ray.stages.registry import (
            available_taggers,
            get_tagger,
            register_tagger,
        )

        name = "upper-acronym-test"
        if name not in available_taggers():

            @register_tagger(name)
            class AcronymTagger:
                def __init__(self, min_len: int = 2):
                    import re

                    self.re = re.compile(r"\b[A-Z]{%d,}\b" % min_len)

                def tag_segment(self, text):
                    return [
                        {
                            "text": m.group(0),
                            "entity_label": "ORG",
                            "start_index": m.start(),
                            "end_index": m.end(),
                        }
                        for m in self.re.finditer(text)
                    ]

        cls = get_tagger(name)
        spans = cls(min_len=4).tag_segment("the NASA and ESA budget")
        assert [s["text"] for s in spans] == ["NASA"]

        from pdf_entity_extraction_ray.stages.ensemble import EnsembleTagger

        ens = EnsembleTagger([(name, {"min_len": 2}), ("gazetteer", {"gazetteer": [("budget", "LAW")], "use_windows": False})])
        got = {(s["text"], s["entity_label"]) for s in ens.tag_segment("the NASA and ESA budget")}
        assert got == {("NASA", "ORG"), ("ESA", "ORG"), ("budget", "LAW")}


def test_rolling_fingerprint_properties():
    from pdf_entity_extraction_ray.ops.text import rolling_fingerprint

    a = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    assert rolling_fingerprint(a) == rolling_fingerprint(a)
    assert rolling_fingerprint("") == 0
    # winnowing: unchanged when edits stay outside the minimizing window
    assert rolling_fingerprint(a) != rolling_fingerprint(a.replace("gamma", "GAMMAX"))
    assert rolling_fingerprint("one two") != rolling_fingerprint("two one")


def test_hf_adapter_contract():
    """A1 adapter: registered, and raises the integration-contract error in
    this model-less environment."""
    import pdf_entity_extraction_ray.stages.hf_tagger  # noqa: F401  (registers)
    from pdf_entity_extraction_ray.stages.registry import available_taggers, get_tagger

    assert "hf-token-classifier" in available_taggers()
    with pytest.raises(NotImplementedError, match="transformers"):
        get_tagger("hf-token-classifier")()
