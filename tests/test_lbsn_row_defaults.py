"""Row containers: one shared immutable empty value until a writer runs.

A fresh ``User`` or ``Venue`` points each per-row collection at one
shared empty default; the model's writer methods swap in a real container
on the first write.  These tests guard the two ways that can go wrong: a
write that lands in the shared default (every row would see it), and two
rows that end up sharing one real container.
"""

import dataclasses

import pytest

from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import Tip, User, Venue
from repro.simnet.clock import SECONDS_PER_HOUR
from repro.workload.scenario import build_world

USER_CONTAINERS = ("badges", "friends", "venues_visited", "active_days")
VENUE_CONTAINERS = ("recent_visitors", "tips", "visitor_valid_counts")
HERE = GeoPoint(35.0844, -106.6504)


def _default(cls, name):
    (spec,) = [f for f in dataclasses.fields(cls) if f.name == name]
    if spec.default is dataclasses.MISSING:
        return spec.default_factory()
    return spec.default


def _fresh_user():
    return User(user_id=1, display_name="fresh")


def _fresh_venue():
    return Venue(venue_id=1, name="fresh", location=HERE)


@pytest.fixture(scope="module")
def world():
    world = build_world(scale=0.0003, seed=17)
    service = world.service
    store = service.store
    venues = store.iter_venues()
    # A short city-style replay on top of the build's own: each user
    # checks in at three venues two hours apart (far-apart hops get
    # flagged) and leaves a tip wherever a valid check-in allows one.
    for index, user in enumerate(store.iter_users()[:60]):
        for hop in range(3):
            venue = venues[(index * 37 + hop * 211) % len(venues)]
            service.clock.advance(2 * SECONDS_PER_HOUR)
            result = service.check_in(user.user_id, venue.venue_id, venue.location)
            if result.rewarded and hop == 0:
                service.post_tip(user.user_id, venue.venue_id, f"tip {index}")
    return world


def _rows_and_fields(world):
    store = world.service.store
    for user in store.iter_users():
        for name in USER_CONTAINERS:
            yield User, user, name
    for venue in store.iter_venues():
        for name in VENUE_CONTAINERS:
            yield Venue, venue, name


def test_shared_defaults_are_still_empty(world):
    for cls, names in ((User, USER_CONTAINERS), (Venue, VENUE_CONTAINERS)):
        for name in names:
            default = _default(cls, name)
            assert len(default) == 0, f"{cls.__name__}.{name} default: {default!r}"


def test_each_row_holds_the_default_or_its_own_container(world):
    owners = {}
    written = set()
    untouched = set()
    for cls, row, name in _rows_and_fields(world):
        container = getattr(row, name)
        if container is _default(cls, name):
            untouched.add(name)
            continue
        assert container, f"{row!r} holds an empty {name} of its own"
        written.add(name)
        previous = owners.setdefault(id(container), row)
        assert previous is row, f"{name} shared by {previous!r} and {row!r}"
    # The replay ran every writer, and rows it never wrote kept the default.
    assert written == set(USER_CONTAINERS + VENUE_CONTAINERS)
    assert untouched == set(USER_CONTAINERS + VENUE_CONTAINERS)


@pytest.mark.parametrize(
    "make_row, name, write",
    [
        (_fresh_user, "badges", lambda c: c.add("Newbie")),
        (_fresh_user, "friends", lambda c: c.add(2)),
        (_fresh_user, "venues_visited", lambda c: c.add(2)),
        (_fresh_user, "active_days", lambda c: c.add(2)),
        (_fresh_venue, "recent_visitors", lambda c: c.insert(0, 2)),
        (_fresh_venue, "tips", lambda c: c.append(Tip(2, "hi", 0.0))),
        (_fresh_venue, "visitor_valid_counts", lambda c: c.__setitem__(2, 1)),
    ],
)
def test_writing_into_a_fresh_default_raises(make_row, name, write):
    with pytest.raises((AttributeError, TypeError)):
        write(getattr(make_row(), name))
    assert not getattr(make_row(), name)


@pytest.mark.parametrize(
    "make_row, write, names",
    [
        (_fresh_user, lambda row: row.add_badge("Newbie"), ("badges",)),
        (_fresh_user, lambda row: row.add_friend(2), ("friends",)),
        (
            _fresh_user,
            lambda row: row.record_valid_visit(2, 3),
            ("venues_visited", "active_days"),
        ),
        (
            _fresh_venue,
            lambda row: row.record_recent_visitor(2),
            ("recent_visitors",),
        ),
        (_fresh_venue, lambda row: row.add_tip(Tip(2, "hi", 0.0)), ("tips",)),
        (
            _fresh_venue,
            lambda row: row.count_valid_visit(2),
            ("visitor_valid_counts",),
        ),
    ],
)
def test_writer_gives_only_its_row_a_container(make_row, write, names):
    row, other = make_row(), make_row()
    write(row)
    write(row)
    for name in names:
        default = _default(type(row), name)
        assert getattr(row, name) and getattr(row, name) is not default
        assert getattr(other, name) is default
