"""Deterministic date detection/parsing (stand-in for ``dateparser``).

The reference filters candidate spans through
``dateparser.search.search_dates`` (M9: src/methods/FlairDateParserModel.py:30-36,
src/methods/MultipleEntityExtractor.py:60-63, src/methods/DateParser.py:44-50,
including Spanish via ``languages=["es"]``).  ``dateparser`` is not available
in this environment and is non-deterministic anyway (relative dates use wall
clock), so this module provides a deterministic regex-based parser covering
the absolute-date formats the pipeline plants: no wall clock, no locale state,
same result on every worker.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections.abc import Iterator

_MONTHS_EN = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
}
_MONTHS_ES = {
    "enero": 1, "febrero": 2, "marzo": 3, "abril": 4, "mayo": 5, "junio": 6,
    "julio": 7, "agosto": 8, "septiembre": 9, "octubre": 10, "noviembre": 11,
    "diciembre": 12,
}
# the other web-major locales the corpus's ``lang`` column carries
# (dateparser's zoo covers these via languages=[...]; the deterministic
# grammar lists each month name plus its accent-stripped variant, since
# real crawl text is sloppy about diacritics)
_MONTHS_FR = {
    "janvier": 1, "février": 2, "fevrier": 2, "mars": 3, "avril": 4,
    "mai": 5, "juin": 6, "juillet": 7, "août": 8, "aout": 8,
    "septembre": 9, "octobre": 10, "novembre": 11, "décembre": 12,
    "decembre": 12,
}
_MONTHS_DE = {
    "januar": 1, "februar": 2, "märz": 3, "marz": 3, "april": 4, "mai": 5,
    "juni": 6, "juli": 7, "august": 8, "september": 9, "oktober": 10,
    "november": 11, "dezember": 12,
}
_MONTHS_PT = {
    "janeiro": 1, "fevereiro": 2, "março": 3, "marco": 3, "abril": 4,
    "maio": 5, "junho": 6, "julho": 7, "agosto": 8, "setembro": 9,
    "outubro": 10, "novembro": 11, "dezembro": 12,
}
_MONTHS = {**_MONTHS_EN, **_MONTHS_ES, **_MONTHS_FR, **_MONTHS_DE, **_MONTHS_PT}
_MONTH_ALT = "|".join(sorted(_MONTHS, key=len, reverse=True))

# "November 5, 2004" | "5 November 2004" | "5 de noviembre de 2004" |
# "5 mai 2004" | "5. Mai 2004" (German ordinal dot) | "5 de maio de 2004" |
# "2004-11-05" | "11/05/2004"
DATE_RE = re.compile(
    r"(?:(?P<m1>%(m)s)\s+(?P<d1>\d{1,2})(?:\s*,)?\s+(?P<y1>\d{4}))"
    r"|(?:(?P<d2>\d{1,2})\.?\s+(?:de\s+)?(?P<m2>%(m)s)(?:\s+de)?\s+(?P<y2>\d{4}))"
    r"|(?P<y3>\d{4})-(?P<mo3>\d{2})-(?P<d3>\d{2})"
    r"|(?P<mo4>\d{1,2})/(?P<d4>\d{1,2})/(?P<y4>\d{4})" % {"m": _MONTH_ALT},
    re.IGNORECASE,
)
# every DATE_RE alternative contains a four-digit year, so a text without a
# run of four digits has no match (checking that first skips the month-name
# scan on most segments)
_YEAR_RUN_RE = re.compile(r"\d{4}")


def date_matches(text: str) -> Iterator[re.Match]:
    """``DATE_RE.finditer(text)``, skipped on texts that cannot match."""
    return DATE_RE.finditer(text) if _YEAR_RUN_RE.search(text) else iter(())


def parse_date(text: str) -> _dt.date | None:
    """Parse a single date expression; None when not a recognized date."""
    match = DATE_RE.search(text)
    if not match:
        return None
    g = match.groupdict()
    try:
        if g["m1"]:
            return _dt.date(int(g["y1"]), _MONTHS[g["m1"].lower()], int(g["d1"]))
        if g["m2"]:
            return _dt.date(int(g["y2"]), _MONTHS[g["m2"].lower()], int(g["d2"]))
        if g["y3"]:
            return _dt.date(int(g["y3"]), int(g["mo3"]), int(g["d3"]))
        return _dt.date(int(g["y4"]), int(g["mo4"]), int(g["d4"]))
    except ValueError:
        return None


def is_parseable_date(text: str) -> bool:
    """M9 predicate: keep candidate span iff it parses as a date
    (reference: ``search_dates(text)`` truthy)."""
    return parse_date(text) is not None


def search_dates(text: str) -> list[tuple[str, _dt.date]]:
    """All date expressions in ``text`` as ``(matched_text, date)`` in
    occurrence order — the shape of ``dateparser.search.search_dates``."""
    out: list[tuple[str, _dt.date]] = []
    for match in DATE_RE.finditer(text):
        parsed = parse_date(match.group(0))
        if parsed is not None:
            out.append((match.group(0), parsed))
    return out


# ---------------------------------------------------------------------------
# relative / natural-language dates (reference parity: dateparser's
# relative forms — src/check_spark_nlp.py:9-20 "next monday"/"yesterday",
# src/methods/MultipleEntityExtractor.py:60-63).  dateparser resolves
# these against the WALL CLOCK, which is banned in this engine
# (determinism across workers and reruns); the anchor is EXPLICIT —
# callers pass the document's crawl date (warc_ts), which is exactly the
# temporal frame a crawled page's relative dates refer to.

_WEEKDAYS_EN = {
    "monday": 0, "tuesday": 1, "wednesday": 2, "thursday": 3,
    "friday": 4, "saturday": 5, "sunday": 6,
}

# single-word forms per page language
_DAY_WORDS_BY_LANG = {
    "en": {"today": 0, "yesterday": -1, "tomorrow": 1},
    "es": {"hoy": 0, "ayer": -1, "mañana": 1, "manana": 1},
    "fr": {"aujourd'hui": 0, "hier": -1, "demain": 1},
    "de": {"heute": 0, "gestern": -1, "morgen": 1},
    "pt": {"hoje": 0, "ontem": -1, "amanhã": 1, "amanha": 1},
}
_DAY_WORDS = {w: d for words in _DAY_WORDS_BY_LANG.values() for w, d in words.items()}

_WD_ALT = "|".join(sorted(_WEEKDAYS_EN, key=len, reverse=True))
_DAYWORD_ALT = "|".join(
    sorted((re.escape(w) for w in _DAY_WORDS), key=len, reverse=True)
)

RELATIVE_RE = re.compile(
    r"(?:\b(?P<dir>next|last)\s+(?P<wd>%(wd)s)\b)"
    r"|(?:\b(?P<n1>\d{1,3})\s+(?P<u1>day|week)s?\s+ago\b)"
    r"|(?:\bin\s+(?P<n2>\d{1,3})\s+(?P<u2>day|week)s?\b)"
    r"|(?:(?<![\w'])(?P<word>%(dw)s)(?![\w']))"
    % {"wd": _WD_ALT, "dw": _DAYWORD_ALT},
    re.IGNORECASE,
)


def parse_relative_date(text: str, anchor: _dt.date) -> _dt.date | None:
    """One relative-date expression -> concrete date against ``anchor``.

    Semantics match dateparser's PREFER_DATES_FROM defaults: ``next
    <weekday>`` is the first strictly-after occurrence, ``last
    <weekday>`` the first strictly-before; day-words and N-days/weeks
    arithmetic are exact."""
    m = RELATIVE_RE.search(text)
    if not m:
        return None
    g = m.groupdict()
    if g["wd"]:
        wd = _WEEKDAYS_EN[g["wd"].lower()]
        if g["dir"].lower() == "next":
            return anchor + _dt.timedelta(
                days=(wd - anchor.weekday() - 1) % 7 + 1
            )
        return anchor - _dt.timedelta(days=(anchor.weekday() - wd - 1) % 7 + 1)
    if g["n1"]:
        n = int(g["n1"]) * (7 if g["u1"].lower() == "week" else 1)
        return anchor - _dt.timedelta(days=n)
    if g["n2"]:
        n = int(g["n2"]) * (7 if g["u2"].lower() == "week" else 1)
        return anchor + _dt.timedelta(days=n)
    return anchor + _dt.timedelta(days=_DAY_WORDS[g["word"].lower()])


def relative_match_in_lang(match: re.Match, lang: str | None) -> bool:
    """Whether a :data:`RELATIVE_RE` match reads as a date on a page in
    ``lang``.  The English forms apply to every page, as the weekday and
    N-days forms do; another language's day-word only to pages in that
    language (German "hier" is "here", not French "yesterday")."""
    word = match.group("word")
    if word is None:
        return True
    word = word.lower()
    return word in _DAY_WORDS_BY_LANG["en"] or word in _DAY_WORDS_BY_LANG.get(lang, {})


def relative_matches(text: str, lang: str | None) -> Iterator[re.Match]:
    """:data:`RELATIVE_RE` matches in ``text`` that read as dates on a page
    in ``lang`` (:func:`relative_match_in_lang`)."""
    return (m for m in RELATIVE_RE.finditer(text) if relative_match_in_lang(m, lang))


def parse_date_anchored(
    text: str, anchor: _dt.date | None, lang: str | None = None
) -> _dt.date | None:
    """Absolute grammar first (anchor-independent), then — when an
    anchor is provided — the first relative expression that reads as a
    date in ``lang`` (English forms only when ``lang`` is None).  With
    ``anchor=None`` this is exactly :func:`parse_date` (bit-identical
    legacy behavior; the planted gold suites pass no anchor)."""
    parsed = parse_date(text)
    if parsed is not None or anchor is None:
        return parsed
    match = next(relative_matches(text, lang), None)
    return None if match is None else parse_relative_date(match.group(0), anchor)


def search_dates_anchored(
    text: str, anchor: _dt.date | None, lang: str | None = None
) -> list[tuple[str, _dt.date]]:
    """Absolute + (with an anchor) relative date expressions in
    occurrence order, absolute matches winning overlaps — the
    ``dateparser.search.search_dates`` shape with deterministic
    anchoring.  Relative expressions count as in
    :func:`parse_date_anchored`."""
    out = [(m.start(), m.group(0), d) for m, d in (
        (m, parse_date(m.group(0))) for m in DATE_RE.finditer(text)
    ) if d is not None]
    if anchor is not None:
        covered = [(s, s + len(t)) for s, t, _ in out]
        for m in relative_matches(text, lang):
            if any(a < m.end() and m.start() < b for a, b in covered):
                continue
            d = parse_relative_date(m.group(0), anchor)
            if d is not None:
                out.append((m.start(), m.group(0), d))
    return [(t, d) for _s, t, d in sorted(out, key=lambda r: r[0])]
