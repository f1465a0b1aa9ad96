"""Domain types for verbs, roles, nouns, frames, and groundings.

All types are immutable after construction and safe to share across
threads. The null noun value is encoded as the empty string "" in files
and in memory; a role that is absent from a record entirely is a
structural error, not a null value.

Each fact has one owner: a frame's verb belongs to the record that holds
the frame, a verb's roles to the lexicon. A type's error names its field,
and its loader names the record. Records are `dataset_io` tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

NULL_NOUN = ""
PLACE_ROLE = "Place"


class FrameModelError(ValueError):
    """Raised when a domain type is constructed from invalid data."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box [x1, y1, x2, y2] in pixels, origin top-left."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(isinstance(c, (int, float)) and c == c and abs(c) != float("inf") for c in coords):
            raise FrameModelError(f"box coordinates must be finite: {coords}")
        if min(coords) < 0:
            raise FrameModelError(f"box coordinates must be >= 0: {coords}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise FrameModelError(f"box must satisfy x1 < x2 and y1 < y2: {coords}")
        # an IoU union adds two areas, so each must stay at or below half the largest float
        w, h = self.x2 - self.x1, self.y2 - self.y1
        if not (0 < w * h <= sys.float_info.max / 2 and 0 < h / w < float("inf")):
            raise FrameModelError(f"box area must be positive and at most half the largest float, "
                                  f"and its aspect ratio finite and non-zero: {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def clamped(self, width: float, height: float) -> "BoundingBox":
        """Clamp to the image rectangle [0, width] x [0, height]."""
        return BoundingBox(
            min(max(self.x1, 0.0), width),
            min(max(self.y1, 0.0), height),
            min(max(self.x2, 0.0), width),
            min(max(self.y2, 0.0), height),
        )

    def as_list(self) -> list:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True)
class VerbLexicon:
    """Catalog mapping verb id to its ordered tuple of 1 to 6 distinct roles."""

    entries: dict  # verb -> tuple of role names

    def __post_init__(self):
        if not self.entries:
            raise FrameModelError("lexicon must contain at least one verb")
        for verb, roles in self.entries.items():
            if not 1 <= len(roles) <= 6:
                raise FrameModelError(f"verb {verb!r} must have 1..6 roles, got {len(roles)}")
            if len(set(roles)) != len(roles):
                raise FrameModelError(f"verb {verb!r} has duplicate role names")

    def __contains__(self, verb: str) -> bool:
        return verb in self.entries

    def roles(self, verb: str) -> tuple:
        return self.entries[verb]


@dataclass(frozen=True)
class NounVocabulary:
    """Set of noun ids. The null value "" is not a member."""

    ids: frozenset

    def __post_init__(self):
        if NULL_NOUN in self.ids:
            raise FrameModelError('the null noun "" may not be a vocabulary member')

    def __contains__(self, noun: str) -> bool:
        return noun in self.ids

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class GroundedFrame:
    """Ordered (role, noun) pairs and parallel optional groundings, no verb."""

    role_values: tuple  # of (role, noun) pairs; noun == "" means null
    groundings: tuple  # of Optional[BoundingBox], parallel to role_values

    def __post_init__(self):
        if len(self.role_values) != len(self.groundings):
            raise FrameModelError(f"groundings: {len(self.groundings)} groundings for "
                                  f"{len(self.role_values)} roles")

    @property
    def roles(self) -> tuple:
        return tuple(map(itemgetter(0), self.role_values))

    @property
    def nouns(self) -> tuple:
        return tuple(map(itemgetter(1), self.role_values))

    def grounding_of(self, role: str) -> Optional[BoundingBox]:
        for i, (r, _) in enumerate(self.role_values):
            if r == role:
                return self.groundings[i]
        raise KeyError(role)


def frame_to_json(role_values, boxes) -> dict:
    """The one frame serializer: (role, noun) pairs and parallel [x1, y1, x2, y2]
    lists or None in the file form {"nouns": {role: noun}, "boxes": {role: box_or_null}}."""
    return {"nouns": dict(role_values), "boxes": {role: box for (role, _), box in zip(role_values, boxes)}}
