"""Unit tests for span post-processing (reference semantics M4-M12, M14, M15).

Cases mirror the reference's quirks exactly — citations in
pdf_entity_extraction_ray/functions/spans.py."""

import datetime

from pdf_entity_extraction_ray.functions.dates import parse_date, search_dates
from pdf_entity_extraction_ray.functions.spans import (
    bio_merge,
    dedup_plain_spans,
    dedup_spans,
    filter_types,
    find_all_occurrences,
    fuzzy_locate,
    mask_spans,
    remove_overlapping,
    sliding_windows,
    split_sentences,
    split_sentences_with_offsets,
    truncate_label,
)


def P(entity, word, start, end):
    return {"entity": entity, "word": word, "start": start, "end": end}


class TestBioMergeM4:
    def test_adjacent_subwords_merge_without_space(self):
        spans = bio_merge([P("B-PER", "Jo", 0, 2), P("I-PER", "##sé", 2, 4)])
        assert spans == [
            {"entity_label": "PER", "text": "José", "start_index": 0, "end_index": 4}
        ]

    def test_space_separated_merges_only_with_I_tag(self):
        spans = bio_merge([P("B-PER", "José", 0, 4), P("I-PER", "Ruiz", 5, 9)])
        assert len(spans) == 1 and spans[0]["text"] == "José Ruiz"
        # same geometry but B- tag -> two entities
        spans = bio_merge([P("B-PER", "José", 0, 4), P("B-PER", "Ruiz", 5, 9)])
        assert len(spans) == 2

    def test_label_mismatch_splits(self):
        spans = bio_merge([P("B-PER", "José", 0, 4), P("I-ORG", "Corp", 5, 9)])
        assert len(spans) == 2

    def test_sentencepiece_marker_and_empty_pieces(self):
        spans = bio_merge(
            [P("B-ORG", "▁Глобекс", 0, 7), P("I-ORG", "##", 7, 7), P("I-ORG", "Inc", 8, 11)]
        )
        # "▁"->space then strip; "##"-only piece dropped entirely
        assert spans[0]["text"] == "Глобекс Inc"

    def test_gap_splits(self):
        spans = bio_merge([P("B-PER", "A", 0, 1), P("I-PER", "B", 4, 5)])
        assert len(spans) == 2


class TestOverlapM6:
    def test_longest_wins_at_same_start(self):
        spans = [
            {"text": "ab", "entity_label": "X", "start_index": 0, "end_index": 2},
            {"text": "abcd", "entity_label": "X", "start_index": 0, "end_index": 4},
        ]
        assert remove_overlapping(spans) == [spans[1]]

    def test_greedy_keep_iff_start_ge_last_end(self):
        spans = [
            {"text": "abcd", "entity_label": "X", "start_index": 0, "end_index": 4},
            {"text": "cdef", "entity_label": "X", "start_index": 2, "end_index": 6},
            {"text": "gh", "entity_label": "X", "start_index": 4, "end_index": 6},
        ]
        kept = remove_overlapping(spans)
        assert [s["start_index"] for s in kept] == [0, 4]


def test_dedup_m7_strips_score_and_keeps_first():
    spans = [
        {"text": "a", "entity_label": "X", "start_index": 0, "end_index": 1, "score": 0.9},
        {"text": "a", "entity_label": "X", "start_index": 0, "end_index": 1, "score": 0.1},
        {"text": "b", "entity_label": "X", "start_index": 2, "end_index": 3},
    ]
    out = dedup_spans(spans)
    assert len(out) == 2 and "score" not in out[0]


def test_tuple_dedup_equals_reference_on_window_duplicates():
    """The tagger's tuple-keyed M7 returns exactly what the JSON-keyed
    reference returns on the duplicates that M8 window overlap produces:
    first occurrences, in their original order."""
    from pdf_entity_extraction_ray.stages.tagger import GazetteerTagger

    tagger = GazetteerTagger([("Acme Corp", "ORG"), ("Bogotá", "GPE"), ("Ana Ruiz", "PERSON")])
    words = [f"w{i:02d}" for i in range(45)]
    words[3:5] = ["Acme", "Corp"]     # window 0 only
    words[12:14] = ["Ana", "Ruiz"]    # windows 0 and 1
    words[15] = "Bogotá"              # windows 0 and 1
    words[25:27] = ["Acme", "Corp"]   # windows 1 and 2
    pieces = []
    for window_text, base in sliding_windows(words, 20, 10):
        pieces.extend(tagger._match_window(window_text, base))
    spans = bio_merge(pieces)

    keys = [(s["start_index"], s["end_index"], s["entity_label"], s["text"]) for s in spans]
    first = [s for i, s in enumerate(spans) if keys[i] not in keys[:i]]
    assert len(first) == 4 and len(spans) > len(first)  # duplicates present

    out = dedup_plain_spans(spans)
    assert out == dedup_spans(spans) == first
    assert all(a is b for a, b in zip(out, first))  # the first objects, not copies


def test_filter_types_m5():
    spans = [{"entity_label": t, "text": "x"} for t in ("PERSON", "ORG", "MISC")]
    assert [s["entity_label"] for s in filter_types(spans, {"PERSON", "ORG"})] == ["PERSON", "ORG"]


def test_truncate_label_m12():
    assert truncate_label("organization") == "ORG"
    assert truncate_label("date") == "DATE"
    assert truncate_label("law") == "LAW"


class TestSlidingWindowsM8:
    def test_rebased_offsets_reconstruct_full_text_offsets(self):
        words = [f"w{i:02d}" for i in range(35)]
        full = " ".join(words)
        for window_text, base in sliding_windows(words, 20, 10):
            # every window-local occurrence maps to the same text at full offset
            assert full[base : base + len(window_text)] == window_text

    def test_window_count(self):
        windows = list(sliding_windows(list("abcdefghij"), 4, 2))
        assert len(windows) == 5  # ceil(10/2) starts


def test_split_sentences_m14():
    assert split_sentences("A b. C d! E?") == ["A b.", "C d!", "E?"]
    for sent, off in split_sentences_with_offsets("One. Two!  Three"):
        assert "One. Two!  Three"[off : off + len(sent)] == sent


def test_find_all_occurrences_m10_sequential_cursor():
    spans = find_all_occurrences("on 5 May 2020 and 5 May 2020 again", ["5 May 2020", "5 May 2020"])
    assert [s["start_index"] for s in spans] == [3, 18]  # second find starts after first


def test_fuzzy_locate_m15():
    assert fuzzy_locate("Acme Corp", "by Acme Corp today") == (3, 12)
    assert fuzzy_locate("acme corp", "by Acme Corp today") == (3, 12)
    assert fuzzy_locate("Acme Corp", "by Acme-Corp's today") == (3, 14)
    assert fuzzy_locate("Missing Co", "nothing here") is None


def test_mask_spans_m11():
    spans = [{"text": "bb", "entity_label": "X", "start_index": 1, "end_index": 3}]
    assert mask_spans("abbc", spans) == "aXXc"


class TestDates:
    def test_formats(self):
        d = datetime.date(2004, 11, 5)
        assert parse_date("November 5, 2004") == d
        assert parse_date("5 November 2004") == d
        assert parse_date("5 de noviembre de 2004") == d
        assert parse_date("2004-11-05") == d
        assert parse_date("11/5/2004") == d

    def test_invalid(self):
        assert parse_date("February 30, 2004") is None
        assert parse_date("not a date") is None

    def test_search_dates_order(self):
        hits = search_dates("born 1 May 1990, died 2 June 2000")
        assert [h[1].year for h in hits] == [1990, 2000]
