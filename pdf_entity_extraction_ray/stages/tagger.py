"""Stage 2: mention detection + entity typing.

The Ray-native re-expression of the reference's extractor zoo
(HF pipelines / Flair / spaCy / GLiNER, SURVEY §2.3 A1-A6): a callable
CLASS whose ``__init__`` does the load-expensive setup once (here:
compiling the gazetteer automaton and date patterns — the deterministic
stand-in for model loading) and whose ``__call__`` processes one Arrow
batch.  ``run_kg`` runs it (via ``stages.annotate.Annotator``) in Ray tasks,
once per worker process (``pipelines.kg._cached_stage``); as an actor pool::

    ds.map_batches(GazetteerTagger, fn_constructor_kwargs={...},
                   concurrency=N, batch_size=B, batch_format="pyarrow")

The per-segment span post-processing chain is the EXACT reference
semantics, in reference order (src/methods/GLiNERModel.py:45-95):

  sliding windows (M8, window 20 / stride 10, offset re-base)
  -> per-window match -> BIO piece emission + M4 merge
  -> M5 type whitelist -> M7 exact dedup -> M6 greedy overlap removal
  -> date-parseability filter (M9) for DATE spans
  -> M13 title-casing of PERSON/ORG/GPE surfaces for accumulation

The gazetteer is the small broadcast side, shipped with the stage's
config.  At real scale this class is where a GPU NER model would live; the
plumbing (schema, batching, ``num_gpus`` via ``tagger_ray_remote_args``)
is identical.
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa

from ..functions.dates import date_matches, is_parseable_date
from ..functions.spans import (
    bio_merge,
    dedup_plain_spans,
    filter_types,
    remove_overlapping,
    sliding_windows,
)

TITLE_CASED_TYPES = {"PERSON", "ORG", "GPE"}  # M13 (OllamaNameExtractor.py:41 etc.)

MENTIONS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("seg_id", pa.int32()),
        ("lang", pa.string()),
        ("mention_id", pa.int64()),
        ("text", pa.string()),
        ("surface", pa.string()),
        ("type", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("page_start", pa.int32()),
        ("page_end", pa.int32()),
    ]
)


def _word_pieces(surface: str, start: int, label: str) -> list[dict]:
    """Emit HF-pipeline-shaped BIO token pieces for a matched surface so the
    real M4 merge path reconstructs the span (pieces at ``prev_end + 1`` with
    ``I-`` merge space-joined, NERTransformerModel.py:46-55)."""
    pieces = []
    pos = start
    for i, word in enumerate(surface.split(" ")):
        tag = ("B-" if i == 0 else "I-") + label
        pieces.append({"entity": tag, "word": word, "start": pos, "end": pos + len(word)})
        pos += len(word) + 1
    return pieces


class GazetteerTagger:
    """Deterministic mention detector over segment rows.

    Parameters
    ----------
    gazetteer : list[tuple[str, str]]
        (surface, type) pairs — the broadcast small side.
    window_size / slide_size : int
        M8 chunking parameters (reference: 20 / 10).
    allowed_types : set[str] | None
        M5 whitelist (reference: {ORG, PERSON, LAW, GPE} + DATE).
    use_windows : bool
        When False, match whole segments (no M8) — faster; windows exist to
        mirror model-context limits.
    """

    def __init__(
        self,
        gazetteer: list[tuple[str, str]],
        window_size: int = 20,
        slide_size: int = 10,
        allowed_types: set[str] | None = None,
        use_windows: bool = True,
        extra_patterns: list[tuple[str, str]] | None = None,
    ):
        # expensive one-time setup (the "model load"): longest-first regex
        # alternation with non-word boundaries
        surfaces = sorted(set(gazetteer), key=lambda st: (-len(st[0]), st[0]))
        self.type_of = {}
        for surface, typ in surfaces:
            self.type_of.setdefault(surface, typ)
        pattern = "|".join(re.escape(s) for s, _ in surfaces)
        self.pattern = re.compile(r"(?<!\w)(?:%s)(?!\w)" % pattern) if surfaces else None
        self.window_size = window_size
        self.slide_size = slide_size
        self.allowed_types = allowed_types
        self.use_windows = use_windows
        # open-vocabulary pattern families (regex -> TYPE): surfaces a model
        # recognizes WITHOUT a gazetteer entry — the long-tail analog of the
        # DATE family below.  Matched per whole segment (not per window),
        # exactly like DATE, then fed through the shared M5/M7/M6 chain.
        self.extra_patterns = [
            (re.compile(p), typ) for p, typ in (extra_patterns or [])
        ]

    # -- per-segment reference-semantics chain ------------------------------

    def _match_window(self, text: str, base: int) -> list[dict]:
        pieces: list[dict] = []
        for m in self.pattern.finditer(text):
            label = self.type_of[m.group(0)]
            pieces.extend(_word_pieces(m.group(0), base + m.start(), label))
        return pieces

    def tag_segment(self, text: str) -> list[dict]:
        """Spans for one whitespace-normalized segment text."""
        if self.pattern is None:
            spans: list[dict] = []
        elif self.use_windows:
            pieces: list[dict] = []
            words = text.split(" ")
            for window_text, base in sliding_windows(words, self.window_size, self.slide_size):
                pieces.extend(self._match_window(window_text, base))
            spans = bio_merge(pieces)
        else:
            spans = bio_merge(self._match_window(text, 0))

        for m in date_matches(text):
            if is_parseable_date(m.group(0)):  # M9
                spans.append(
                    {
                        "text": m.group(0),
                        "entity_label": "DATE",
                        "start_index": m.start(),
                        "end_index": m.end(),
                    }
                )

        for pat, typ in self.extra_patterns:  # open-vocab families
            for m in pat.finditer(text):
                spans.append(
                    {
                        "text": m.group(0),
                        "entity_label": typ,
                        "start_index": m.start(),
                        "end_index": m.end(),
                    }
                )

        if self.allowed_types is not None:
            spans = filter_types(spans, self.allowed_types)
        spans = dedup_plain_spans(spans)     # M7 (windows overlap -> dupes)
        spans = remove_overlapping(spans)    # M6
        return spans

    # -- Ray batch interface -------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        seg_ids = batch.column("seg_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        texts = batch.column("text").to_pylist()
        seg_offsets = batch.column("seg_offset").to_pylist()

        cols: dict[str, list] = {name: [] for name in MENTIONS_SCHEMA.names}
        for url, seg_id, lang, text, seg_offset in zip(urls, seg_ids, langs, texts, seg_offsets):
            for k, span in enumerate(self.tag_segment(text)):
                surface = span["text"]
                if span["entity_label"] in TITLE_CASED_TYPES:
                    surface = surface.title()  # M13
                cols["url"].append(url)
                cols["seg_id"].append(seg_id)
                cols["lang"].append(lang)
                # content-derived id: stable under retries / block order /
                # PYTHONHASHSEED (blake2b, not Python's randomized hash)
                key = f"{url}\x00{seg_id}\x00{span['start_index']}".encode()
                cols["mention_id"].append(
                    int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
                    & 0x7FFFFFFFFFFFFFFF
                )
                cols["text"].append(span["text"])
                cols["surface"].append(surface)
                cols["type"].append(span["entity_label"])
                cols["start"].append(span["start_index"])
                cols["end"].append(span["end_index"])
                cols["page_start"].append(seg_offset + span["start_index"])
                cols["page_end"].append(seg_offset + span["end_index"])
        return pa.table(
            {name: pa.array(cols[name], MENTIONS_SCHEMA.field(name).type) for name in MENTIONS_SCHEMA.names}
        )
