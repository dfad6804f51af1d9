"""Ensemble tagger (reference A6 semantics).

The reference's ``MultipleEntityExtractor`` loads GLiNER + spaCy-legal +
Flair in one object and, per segment, concatenates the filtered outputs IN
ORDER (legal first, then flair: src/methods/MultipleEntityExtractor.py:
65-109), then applies exact dedup (M7) and greedy overlap removal (M6) so
earlier extractors win ties at equal start.

:class:`EnsembleTagger` reproduces that contract over any list of
registered taggers: one actor holds ALL member taggers (loaded once in
``__init__`` — the reference's single-object choice, vs. 3 parallel stages
+ union which would change tie-breaking), and ``tag_segment`` is ordered
concat -> dedup -> overlap removal.

Splitting ONE tagger's vocabulary across members is not span-identical to
running it once: greedy M6 is not compositional, so a member can keep a span
that loses to another member's span in the union and thereby drop a third
span that one pass would keep (pinned in tests/test_ensemble_json.py).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.spans import dedup_spans, remove_overlapping
from .registry import get_tagger, register_tagger
from .tagger import MENTIONS_SCHEMA, GazetteerTagger


@register_tagger("ensemble")
class EnsembleTagger:
    """members: list of (tagger_name, kwargs) built via the registry."""

    def __init__(self, members: list[tuple[str, dict]]):
        self.taggers = [get_tagger(name)(**kwargs) for name, kwargs in members]

    def tag_segment(self, text: str) -> list[dict]:
        spans: list[dict] = []
        for tagger in self.taggers:  # ordered concat: earlier members win
            spans.extend(tagger.tag_segment(text))
        spans = dedup_spans(spans)          # M7
        return remove_overlapping(spans)    # M6 ((start, -len) tie-break)

    # same batch interface as GazetteerTagger
    __call__ = GazetteerTagger.__call__
