"""Stage 3: pattern-based relation extraction -> (subj, pred, obj) triples.

The reference's nearest precedents are per-segment typed-entity
co-occurrence accumulation (src/methods/MultipleEntityExtractor.py:118-125)
and sentence-scoped processing (check_ner_sentence_number.py:6-16).  The
north_star requires "dependency/pattern-based relation extraction emitting
(subj, pred, obj) triples"; this stage implements the deterministic pattern
half: for each pair of CONSECUTIVE mentions within a segment, the text
between them is matched against a closed predicate-phrase table (typed:
``(subj_type, obj_type, phrase) -> pred``, en/es/fr/de/pt).  Matching on
the inter-mention text makes the scope sentence-local in effect (crossing a
sentence boundary leaves ". " residue no phrase matches) while being immune
to the regex sentence splitter's abbreviation failure mode (a surface form
ending in "." — e.g. "Acme Holdings." — would split the sentence under M14,
check_ner_sentence_number.py:6).

:func:`triples_from_spans` is called on each segment's tagged spans by
``stages/annotate.Annotator``.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.dates import parse_date
from .tagger import TITLE_CASED_TYPES

# (subj_type, obj_type, phrase) -> predicate; phrases are matched against
# the whitespace-stripped text between two consecutive mentions.
PATTERNS: dict[tuple[str, str, str], str] = {}
for _phr in ("works for", "trabaja para", "travaille pour", "arbeitet für",
             "trabalha para"):
    PATTERNS[("PERSON", "ORG", _phr)] = "works_for"
for _phr in ("was born on", "nació el", "est né le", "wurde geboren am",
             "nasceu em"):
    PATTERNS[("PERSON", "DATE", _phr)] = "born_on"
for _phr in ("is located in", "is headquartered in", "está ubicada en",
             "est située à", "befindet sich in", "está localizada em"):
    PATTERNS[("ORG", "GPE", _phr)] = "located_in"
for _phr in ("visited", "visitó", "a visité", "besuchte", "visitou"):
    PATTERNS[("PERSON", "GPE", _phr)] = "visited"
for _phr in ("cites", "cita", "invoque", "zitiert", "menciona"):
    PATTERNS[("LAW", "LAW", _phr)] = "cites"

TRIPLES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("seg_id", pa.int32()),
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("obj_norm", pa.string()),   # DATE objects normalized to ISO (else "")
        ("evidence_start", pa.int32()),
        ("evidence_end", pa.int32()),
    ]
)


def triples_from_spans(seg_text: str, spans: list[dict]) -> list[dict]:
    """Pure pair-matching rule over one segment's tagged spans (sorted by
    start; the tagger's M6 output already is).  Shared by the Ray stage and
    the single-process oracle."""
    out: list[dict] = []
    ordered = sorted(spans, key=lambda s: s["start_index"])
    for a, b in zip(ordered, ordered[1:]):
        phrase = seg_text[a["end_index"] : b["start_index"]].strip()
        pred = PATTERNS.get((a["entity_label"], b["entity_label"], phrase))
        if pred is None:
            continue
        obj_norm = ""
        if b["entity_label"] == "DATE":
            parsed = parse_date(b["text"])
            if parsed is not None:
                obj_norm = parsed.isoformat()
        subj = a["text"].title() if a["entity_label"] in TITLE_CASED_TYPES else a["text"]
        obj = b["text"].title() if b["entity_label"] in TITLE_CASED_TYPES else b["text"]
        out.append(
            {
                "subj": subj, "subj_type": a["entity_label"], "pred": pred,
                "obj": obj, "obj_type": b["entity_label"], "obj_norm": obj_norm,
                "evidence_start": a["start_index"], "evidence_end": b["end_index"],
            }
        )
    return out
