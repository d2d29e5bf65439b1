"""Regex extraction from profile HTML (§3.2).

"To extract data from the HTML source code, we let the crawler perform a
set of regular expression matches."  Each page is read in one anchored
pass first: ``_USER_PAGE`` and ``_VENUE_PAGE`` match the whole of what
the site renders, in every variant it renders, and capture every field
at once.  Rendered text is HTML-escaped, so a ``[^<]*`` capture cannot
hold markup and a page that matches the template holds each field's
markup exactly once; the template's answer is then the one the per-field
searches below give.

A page the template does not match (a hand-written page, garbage, or a
site whose markup changed) goes to the per-field searches, one regex per
field over the whole page.  They are also the reference the tests hold
the template to.  If the site changes (e.g. the visitor-obfuscation
defense replaces ``/user/<id>`` links with opaque tokens), extraction
degrades exactly the way a real crawler's would.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import CrawlError

_RE_USER_ID = re.compile(r'data-user-id="(\d+)"')
_RE_USER_NAME = re.compile(r'<h1 class="fn">(.*?)</h1>', re.S)
_RE_USERNAME = re.compile(r'<div class="username">@([A-Za-z0-9_\-]+)</div>')
_RE_HOMECITY = re.compile(r'<div class="homecity">(.*?)</div>', re.S)
_RE_CHECKIN_COUNT = re.compile(r'<span class="checkin-count">(\d+)</span>')
_RE_BADGE_COUNT = re.compile(r'<span class="badge-count">(\d+)</span>')
_RE_POINTS = re.compile(r'<span class="points">(\d+)</span>')
_RE_FRIEND = re.compile(r'<a class="friend" href="/user/(\d+)">')

_RE_VENUE_ID = re.compile(r'data-venue-id="(\d+)"')
_RE_VENUE_NAME = re.compile(r'<h1 class="venue-name">(.*?)</h1>', re.S)
_RE_ADDRESS = re.compile(r'<div class="address">(.*?)</div>', re.S)
_RE_CITY = re.compile(r'<div class="city">(.*?)</div>', re.S)
_RE_LATITUDE = re.compile(r'<span class="latitude">(-?[\d.]+)</span>')
_RE_LONGITUDE = re.compile(r'<span class="longitude">(-?[\d.]+)</span>')
_RE_CHECKINS_HERE = re.compile(r'<span class="checkins-here">(\d+)</span>')
_RE_UNIQUE_VISITORS = re.compile(r'<span class="unique-visitors">(\d+)</span>')
_RE_MAYOR = re.compile(r'<a class="mayor" href="/user/(\d+)">')
_RE_SPECIAL = re.compile(r'<div class="special ([\w\-]+)">(.*?)</div>', re.S)
_RE_VISITOR = re.compile(r'<a class="visitor" href="/user/(\d+)">')
_RE_TIP = re.compile(
    r'<li class="tip" data-author="(\d+)">(.*?)</li>', re.S
)
_RE_WHOS_BEEN_HERE = re.compile(r'<div class="whos-been-here">')

# The page templates.  The title is the only text before the id
# attribute, so it also excludes quotes: a title holding
# ``data-user-id="…"`` would be the per-field search's first match.
_PAGE_HEAD = (
    r'<!DOCTYPE html>\n<html><head><title>[^<"]*</title></head>\n<body>\n'
)
_PAGE_TAIL = r"\n</div>\n</body></html>"

_USER_PAGE = re.compile(
    _PAGE_HEAD
    + r'<div class="profile" data-user-id="(\d+)">\n'
    r'  <h1 class="fn">([^<]*)</h1>\n'
    # A username outside the reference's character class parses as None.
    r'  (?:<div class="username">@(?:([A-Za-z0-9_\-]+)|[^<]*)</div>)?\n'
    r'  <div class="homecity">([^<]*)</div>\n'
    r'  <div class="stats">\n'
    r'    <span class="checkin-count">(\d+)</span> check-ins\n'
    r'    <span class="badge-count">(\d+)</span> badges\n'
    r'    <span class="points">(\d+)</span> points\n'
    r'  </div>\n'
    r'  <ul class="badges">(?:<li class="badge">[^<]*</li>)*</ul>\n'
    r'  <div class="friends">'
    r'((?:<a class="friend" href="/user/\d+">user \d+</a>)*)</div>'
    + _PAGE_TAIL
)

_VENUE_PAGE = re.compile(
    _PAGE_HEAD
    + r'<div class="venue" data-venue-id="(\d+)">\n'
    r'  <h1 class="venue-name">([^<]*)</h1>\n'
    r'  <div class="address">([^<]*)</div>\n'
    r'  <div class="city">([^<]*)</div>\n'
    r'  <div class="geo">\n'
    r'    <span class="latitude">(-?[\d.]+)</span>\n'
    r'    <span class="longitude">(-?[\d.]+)</span>\n'
    r'  </div>\n'
    r'  <div class="stats">\n'
    r'    <span class="checkins-here">(\d+)</span> check-ins from\n'
    r'    <span class="unique-visitors">(\d+)</span> visitors\n'
    r'  </div>\n'
    r'  <div class="mayor-box">(?:<a class="mayor" href="/user/(\d+)">'
    r'user \d+</a>|<span class="mayor none">No mayor yet</span>)</div>\n'
    r'  (?:<div class="special (mayor-only|unlocked)">([^<]*)</div>)?\n'
    r"  (<div class=\"whos-been-here\"><h2>Who's been here</h2>"
    r'((?:<a class="visitor" href="/user/\d+">user \d+</a>'
    r'|<span class="visitor">[^<]*</span>)*)</div>)?\n'
    r'  <ul class="tips">'
    r'((?:<li class="tip" data-author="\d+">[^<]*</li>)*)</ul>'
    + _PAGE_TAIL
)


@dataclass
class ParsedUser:
    """Fields extracted from a user profile page."""

    user_id: int
    display_name: str
    username: Optional[str]
    home_city: str
    total_checkins: int
    total_badges: int
    points: int
    friend_ids: List[int] = field(default_factory=list)


@dataclass
class ParsedVenue:
    """Fields extracted from a venue page."""

    venue_id: int
    name: str
    address: str
    city: str
    latitude: float
    longitude: float
    checkins_here: int
    unique_visitors: int
    mayor_id: Optional[int]
    special: Optional[str]
    special_mayor_only: bool
    recent_visitor_ids: List[int] = field(default_factory=list)
    has_whos_been_here: bool = False
    #: (author_id, text) pairs from the venue's tip list.
    tips: List[tuple] = field(default_factory=list)


def _required(pattern: re.Pattern, page: str, what: str) -> str:
    match = pattern.search(page)
    if match is None:
        raise CrawlError(f"could not extract {what} from page")
    return match.group(1)


def _optional(pattern: re.Pattern, page: str) -> Optional[str]:
    match = pattern.search(page)
    return None if match is None else match.group(1)


def _coordinate(text: str, what: str) -> float:
    """``float(text)``, failing the page on text like ``1.5.0``.

    The coordinate patterns admit such text, and a ``ValueError`` escaping
    the parser would end the crawl thread that read the page.
    """
    try:
        return float(text)
    except ValueError:
        raise CrawlError(f"could not parse {what} {text!r} from page") from None


def parse_user_page(page: str) -> ParsedUser:
    """Extract a :class:`ParsedUser` from profile HTML."""
    match = _USER_PAGE.fullmatch(page)
    if match is None:
        return _parse_user_fields(page)
    user_id, name, username, home_city, checkins, badges, points, friends = (
        match.groups()
    )
    return ParsedUser(
        user_id=int(user_id),
        display_name=html.unescape(name.strip()),
        username=username,
        home_city=html.unescape(home_city.strip()),
        total_checkins=int(checkins),
        total_badges=int(badges),
        points=int(points),
        friend_ids=[int(fid) for fid in _RE_FRIEND.findall(friends)],
    )


def parse_venue_page(page: str) -> ParsedVenue:
    """Extract a :class:`ParsedVenue` from venue HTML."""
    match = _VENUE_PAGE.fullmatch(page)
    if match is None:
        return _parse_venue_fields(page)
    (
        venue_id, name, address, city, latitude, longitude, checkins_here,
        unique_visitors, mayor_id, special_kind, special_text, whos_been_here,
        visitors, tips,
    ) = match.groups()
    return ParsedVenue(
        venue_id=int(venue_id),
        name=html.unescape(name.strip()),
        address=html.unescape(address.strip()),
        city=html.unescape(city.strip()),
        latitude=_coordinate(latitude, "latitude"),
        longitude=_coordinate(longitude, "longitude"),
        checkins_here=int(checkins_here),
        unique_visitors=int(unique_visitors),
        mayor_id=None if mayor_id is None else int(mayor_id),
        special=(
            None if special_text is None
            else html.unescape(special_text.strip())
        ),
        special_mayor_only=special_kind == "mayor-only",
        recent_visitor_ids=[
            int(uid) for uid in _RE_VISITOR.findall(visitors or "")
        ],
        has_whos_been_here=whos_been_here is not None,
        tips=[
            (int(author), html.unescape(text.strip()))
            for author, text in _RE_TIP.findall(tips)
        ],
    )


def _parse_user_fields(page: str) -> ParsedUser:
    """The per-field searches: one regex per field over the whole page."""
    return ParsedUser(
        user_id=int(_required(_RE_USER_ID, page, "user id")),
        display_name=html.unescape(
            _required(_RE_USER_NAME, page, "display name").strip()
        ),
        username=_optional(_RE_USERNAME, page),
        home_city=html.unescape(
            (_optional(_RE_HOMECITY, page) or "").strip()
        ),
        total_checkins=int(_required(_RE_CHECKIN_COUNT, page, "check-in count")),
        total_badges=int(_required(_RE_BADGE_COUNT, page, "badge count")),
        points=int(_required(_RE_POINTS, page, "points")),
        friend_ids=[int(fid) for fid in _RE_FRIEND.findall(page)],
    )


def _parse_venue_fields(page: str) -> ParsedVenue:
    """The per-field searches: one regex per field over the whole page."""
    special_match = _RE_SPECIAL.search(page)
    special_text: Optional[str] = None
    special_mayor_only = False
    if special_match is not None:
        special_mayor_only = special_match.group(1) == "mayor-only"
        special_text = html.unescape(special_match.group(2).strip())
    mayor_id = _optional(_RE_MAYOR, page)
    return ParsedVenue(
        venue_id=int(_required(_RE_VENUE_ID, page, "venue id")),
        name=html.unescape(_required(_RE_VENUE_NAME, page, "venue name").strip()),
        address=html.unescape((_optional(_RE_ADDRESS, page) or "").strip()),
        city=html.unescape((_optional(_RE_CITY, page) or "").strip()),
        latitude=_coordinate(
            _required(_RE_LATITUDE, page, "latitude"), "latitude"
        ),
        longitude=_coordinate(
            _required(_RE_LONGITUDE, page, "longitude"), "longitude"
        ),
        checkins_here=int(_required(_RE_CHECKINS_HERE, page, "check-ins here")),
        unique_visitors=int(
            _required(_RE_UNIQUE_VISITORS, page, "unique visitors")
        ),
        mayor_id=None if mayor_id is None else int(mayor_id),
        special=special_text,
        special_mayor_only=special_mayor_only,
        recent_visitor_ids=[int(uid) for uid in _RE_VISITOR.findall(page)],
        has_whos_been_here=bool(_RE_WHOS_BEEN_HERE.search(page)),
        tips=[
            (int(author), html.unescape(text.strip()))
            for author, text in _RE_TIP.findall(page)
        ],
    )
