"""Geographic coordinate primitives.

The whole reproduction works in plain WGS-84 latitude/longitude degrees, the
same coordinate system the thesis reads off Google Earth and stores in its
MySQL ``VenueInfo`` table.  :class:`GeoPoint` is the single value type passed
between the device stack, the LBSN service, and the analysis pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from repro.errors import GeoError

#: Mean Earth radius in meters (IUGG value), used by all geodesic math.
EARTH_RADIUS_M = 6_371_008.8

#: Meters in one statute mile; the cheater-code distance rules in the thesis
#: are phrased in miles ("check into venues less than 1 mile apart ...").
METERS_PER_MILE = 1_609.344

#: Meters in one yard, for the "move 500 yards to the west" tour commands.
METERS_PER_YARD = 0.9144


def validate_latitude(latitude: float) -> float:
    """Return ``latitude`` unchanged, raising :class:`GeoError` if invalid."""
    if not isinstance(latitude, (int, float)) or isinstance(latitude, bool):
        raise GeoError(f"latitude must be a number, got {latitude!r}")
    if math.isnan(latitude) or not -90.0 <= latitude <= 90.0:
        raise GeoError(f"latitude out of range [-90, 90]: {latitude!r}")
    return float(latitude)


def validate_longitude(longitude: float) -> float:
    """Return ``longitude`` unchanged, raising :class:`GeoError` if invalid."""
    if not isinstance(longitude, (int, float)) or isinstance(longitude, bool):
        raise GeoError(f"longitude must be a number, got {longitude!r}")
    if math.isnan(longitude) or not -180.0 <= longitude <= 180.0:
        raise GeoError(f"longitude out of range [-180, 180]: {longitude!r}")
    return float(longitude)


def normalize_longitude(longitude: float) -> float:
    """Wrap an arbitrary longitude into ``[-180, 180)``."""
    wrapped = math.fmod(longitude + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    return wrapped - 180.0


@dataclass(frozen=True, order=True, slots=True)
class GeoPoint:
    """An immutable (latitude, longitude) pair in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        validate_latitude(self.latitude)
        validate_longitude(self.longitude)

    @classmethod
    def of(cls, latitude: float, longitude: float) -> "GeoPoint":
        """Build a point, wrapping out-of-range longitudes first."""
        return cls(validate_latitude(latitude), normalize_longitude(longitude))

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(latitude, longitude)``."""
        return (self.latitude, self.longitude)

    def as_radians(self) -> Tuple[float, float]:
        """Return ``(latitude, longitude)`` in radians."""
        return (math.radians(self.latitude), math.radians(self.longitude))

    def __iter__(self) -> Iterator[float]:
        yield self.latitude
        yield self.longitude

    def __str__(self) -> str:
        return f"({self.latitude:.6f}, {self.longitude:.6f})"


def centroid(points: Iterable[GeoPoint]) -> GeoPoint:
    """Return the arithmetic centroid of a non-empty set of points.

    Good enough for the city-clustering analysis, which operates on venues
    within a single metropolitan area where spherical effects are negligible.
    """
    total_lat = 0.0
    total_lon = 0.0
    count = 0
    for point in points:
        total_lat += point.latitude
        total_lon += point.longitude
        count += 1
    if count == 0:
        raise GeoError("centroid of an empty point set is undefined")
    return GeoPoint(total_lat / count, total_lon / count)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned lat/lon rectangle (no antimeridian crossing)."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        validate_latitude(self.south)
        validate_latitude(self.north)
        validate_longitude(self.west)
        validate_longitude(self.east)
        if self.south > self.north:
            raise GeoError(f"south {self.south} > north {self.north}")
        if self.west > self.east:
            raise GeoError(f"west {self.west} > east {self.east}")

    @classmethod
    def around(cls, points: Iterable[GeoPoint]) -> "BoundingBox":
        """Return the tightest box containing ``points`` (non-empty)."""
        pts = list(points)
        if not pts:
            raise GeoError("bounding box of an empty point set is undefined")
        return cls(
            south=min(p.latitude for p in pts),
            west=min(p.longitude for p in pts),
            north=max(p.latitude for p in pts),
            east=max(p.longitude for p in pts),
        )

    def contains(self, point: GeoPoint) -> bool:
        """Return True when ``point`` lies inside or on the boundary."""
        return (
            self.south <= point.latitude <= self.north
            and self.west <= point.longitude <= self.east
        )

    @property
    def center(self) -> GeoPoint:
        """The geometric center of the box."""
        return GeoPoint(
            (self.south + self.north) / 2.0, (self.west + self.east) / 2.0
        )
