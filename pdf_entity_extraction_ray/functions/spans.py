"""Entity-span post-processing (exact reference semantics, pure functions).

A span is a dict ``{"text", "entity_label", "start_index", "end_index"}``
(the reference's internal representation, src/methods/NERTransformerModel.py:40-45;
typed form src/data_model/ExtractedEntity.py:4-11).

Functions and the reference rule each reproduces:

* :func:`bio_merge`           — M4 BIO subword aggregation
  (src/methods/NERTransformerModel.py:24-70)
* :func:`dedup_spans`         — M7 exact dedup via canonical JSON key,
  optional score-strip (src/methods/GLiNERModel.py:23-29,
  src/methods/MultipleEntityExtractor.py:19-22)
* :func:`dedup_plain_spans`   — M7 for score-free four-key spans, keyed on a
  tuple (same result as :func:`dedup_spans` on such spans)
* :func:`remove_overlapping`  — M6 greedy overlap removal, sort by
  ``(start, -len(text))`` keep iff ``start >= last_end``
  (src/methods/GLiNERModel.py:31-43 and 7 other copies)
* :func:`filter_types`        — M5 entity-tag whitelist
  (src/methods/MultipleEntityExtractor.py:78,95)
* :func:`truncate_label`      — M12 GLiNER label shortening
  (src/methods/GLiNERModel.py:78)
* :func:`sliding_windows` / offset re-basing — M8 window 20 / stride 10
  (src/methods/GLiNERModel.py:56-73)
* :func:`split_sentences`     — M14 sentence split on ``(?<=[.!?])\\s+``
  (check_ner_sentence_number.py:6-16)
* :func:`find_all_occurrences`— M10 sequential-find date offset assignment
  (src/methods/DateParser.py:18-31)
* :func:`fuzzy_locate`        — M15 exact → lowercase → flexible-token regex
  span location (check_fuzzy_match.py:9-43)
* :func:`mask_spans`          — M11 found-span masking with ``"X"*len``
  (src/methods/GLiNERDateParserModel.py:54-59)
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator

Span = dict  # {"text": str, "entity_label": str, "start_index": int, "end_index": int}


def bio_merge(ner_results: list[dict]) -> list[Span]:
    """M4: merge HF token-classification pieces into entity spans.

    Input dicts carry ``entity`` (e.g. ``B-PER``), ``word``, ``start``,
    ``end``.  Rules (src/methods/NERTransformerModel.py:24-70):
    strip everything up to the first ``-`` in the label; clean the piece
    text (``"▁"``->space, drop ``"#"``, strip); drop empty-after-clean
    pieces; merge into the current entity when ``start == prev_end`` and
    same label (no joining space), or when ``start == prev_end + 1`` and
    same label and the RAW tag startswith ``"I-"`` (space-joined).
    """
    entities: list[Span] = []
    current: Span | None = None
    for piece in ner_results:
        label = piece["entity"]
        if "-" in label:
            label = label[label.index("-") + 1 :]
        text = piece["word"].replace("▁", " ").replace("#", "").strip()
        if not text:
            continue
        if current is None:
            current = {
                "entity_label": label,
                "text": text,
                "start_index": piece["start"],
                "end_index": piece["end"],
            }
        elif piece["start"] == current["end_index"] and label == current["entity_label"]:
            current["text"] += text
            current["end_index"] = piece["end"]
        elif (
            piece["start"] == current["end_index"] + 1
            and label == current["entity_label"]
            and piece["entity"].startswith("I-")
        ):
            current["text"] += " " + text
            current["end_index"] = piece["end"]
        else:
            entities.append(current)
            current = {
                "entity_label": label,
                "text": text,
                "start_index": piece["start"],
                "end_index": piece["end"],
            }
    if current:
        entities.append(current)
    return entities


def dedup_spans(spans: list[Span], strip_score: bool = True) -> list[Span]:
    """M7: exact dedup keyed on ``json.dumps(d, sort_keys=True)``; keeps the
    first occurrence's position (src/methods/MultipleEntityExtractor.py:19-22
    strips a ``score`` field first; GLiNERModel.py:23-29 does not)."""
    if strip_score:
        spans = [{k: v for k, v in d.items() if k != "score"} for d in spans]
    return list({json.dumps(d, sort_keys=True, default=str): d for d in spans}.values())


def dedup_plain_spans(spans: list[Span]) -> list[Span]:
    """M7 for spans carrying exactly the four span keys (str ``text`` /
    ``entity_label``, int offsets, no ``score``): keyed on the tuple
    ``(start_index, end_index, entity_label, text)``, first occurrence kept
    in input order.  Two such spans have equal canonical JSON iff their
    tuples are equal, so this returns what :func:`dedup_spans` returns
    without serializing every span."""
    seen: dict[tuple, Span] = {}
    for s in spans:
        seen.setdefault((s["start_index"], s["end_index"], s["entity_label"], s["text"]), s)
    return list(seen.values())


def remove_overlapping(
    spans: list[Span], start_key: str = "start_index", end_key: str = "end_index"
) -> list[Span]:
    """M6: sort by ``(start, -len(text))``, keep span iff ``start >= last_end``
    (src/methods/GLiNERModel.py:31-43)."""
    result: list[Span] = []
    last_end = -1
    for span in sorted(spans, key=lambda x: (x[start_key], -len(x["text"]))):
        if span[start_key] >= last_end:
            result.append(span)
            last_end = span[end_key]
    return result


def filter_types(spans: list[Span], allowed: set[str], label_key: str = "entity_label") -> list[Span]:
    """M5: keep spans whose label is in the whitelist
    (src/methods/MultipleEntityExtractor.py:78,95)."""
    return [s for s in spans if s[label_key] in allowed]


def truncate_label(label: str) -> str:
    """M12: GLiNER label -> first 3 chars uppercased when len > 4, else the
    whole label uppercased (src/methods/GLiNERModel.py:78)."""
    return label[: 3 if len(label) > 4 else len(label)].upper()


def sliding_windows(
    words: list[str], window_size: int = 20, slide_size: int = 10
) -> Iterator[tuple[str, int]]:
    """M8: yield ``(window_text, offset_base)`` pairs over ``words``.

    The offset base accumulates ``len(" ".join(stride_words)) + 1`` per
    stride, exactly the reference arithmetic (src/methods/GLiNERModel.py:56-73)
    — window-local char offsets plus the base give offsets into
    ``" ".join(words)``.
    """
    last_slide_end_index = 0
    for i in range(0, len(words), slide_size):
        window_text = " ".join(words[i : i + window_size])
        yield window_text, last_slide_end_index
        slide_text = " ".join(words[i : i + slide_size])
        last_slide_end_index += len(slide_text) + 1


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    """M14: split on whitespace following ``.``, ``!`` or ``?``
    (check_ner_sentence_number.py:6-16)."""
    return [s for s in _SENTENCE_RE.split(text) if s]


def split_sentences_with_offsets(text: str) -> list[tuple[str, int]]:
    """M14 variant keeping each sentence's char offset into ``text``."""
    out: list[tuple[str, int]] = []
    pos = 0
    for match in _SENTENCE_RE.finditer(text):
        sent = text[pos : match.start()]
        if sent:
            out.append((sent, pos))
        pos = match.end()
    tail = text[pos:]
    if tail:
        out.append((tail, pos))
    return out


def find_all_occurrences(main_text: str, found_texts: Iterable[str], label: str = "DATE") -> list[Span]:
    """M10: assign char offsets to parser hits by sequential
    ``main_text.find(t, end_index)`` (src/methods/DateParser.py:18-31).
    Reference quirk preserved: a miss yields ``start_index == -1`` and the
    cursor resets to ``-1 + len(t)``."""
    entities: list[Span] = []
    end_index = 0
    for text in found_texts:
        start_index = main_text.find(text, end_index)
        end_index = start_index + len(text)
        entities.append(
            {"text": text, "entity_label": label, "start_index": start_index, "end_index": end_index}
        )
    return entities


def fuzzy_locate(entity_text: str, source_text: str) -> tuple[int, int] | None:
    """M15: locate a surface form in source text — exact find, then
    lowercase find, then a token regex tolerant of hyphen/whitespace runs
    and a trailing possessive (check_fuzzy_match.py:9-43)."""
    idx = source_text.find(entity_text)
    if idx != -1:
        return idx, idx + len(entity_text)
    idx = source_text.lower().find(entity_text.lower())
    if idx != -1:
        return idx, idx + len(entity_text)
    tokens = [re.escape(t) for t in entity_text.split()]
    if not tokens:
        return None
    pattern = r"[\s\-]+".join(tokens) + r"(?:'s)?"
    match = re.search(pattern, source_text, re.IGNORECASE)
    if match:
        return match.start(), match.end()
    return None


def mask_spans(text: str, spans: list[Span]) -> str:
    """M11: replace found spans with ``"X" * len`` so a re-run cannot
    rediscover them (src/methods/GLiNERDateParserModel.py:54-59)."""
    chars = list(text)
    for span in spans:
        start, end = span["start_index"], span["end_index"]
        if start < 0:
            continue
        chars[start:end] = "X" * (end - start)
    return "".join(chars)
