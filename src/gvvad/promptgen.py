"""Deterministic description repository built from four anomaly elements.

A repository enumerates the Cartesian product of camera viewpoints,
locations, subjects, and anomalous events in lexicographic order and renders
each tuple through fixed sentence templates into a paired anomalous/normal
description. The pair index is the tuple's position in that enumeration, so
it is stable across runs and usable as a generation seed downstream.

Pre-generated descriptions (e.g. from an external language model) can be
dropped in through ``load_repository`` as long as they use the same file
format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataFormatError, ValidationError
from .kvformat import read_text
from .numerics import rng_from

REPOSITORY_TAG = "gvvad-prompts v1"
INVENTORY_TAG = "gvvad-inventory v1"

ANOMALOUS_TEMPLATE = (
    "From the {viewpoint} at the {location}, a {subject} is seen {event}, "
    "and people nearby react to the disturbance."
)
NORMAL_TEMPLATE = (
    "From the {viewpoint} at the {location}, a {subject} is {activity}, "
    "and the scene stays calm."
)

# Inventory file kind -> ElementInventory field, in file and check order.
_INVENTORY_FIELDS = {
    "viewpoint": "viewpoints",
    "location": "locations",
    "subject": "subjects",
    "anomalous_event": "anomalous_events",
    "normal_event": "normal_events",
}


def _check_entries(entries, name: str) -> tuple:
    entries = tuple(entries)
    if not entries:
        raise ValidationError(f"inventory list {name!r} must not be empty")
    seen = set()
    for text in entries:
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(f"inventory list {name!r} contains an empty entry")
        if "\t" in text or "\n" in text or "\r" in text:
            raise ValidationError(f"inventory entry {text!r} contains tab or newline characters")
        if text in seen:
            raise ValidationError(f"inventory list {name!r} repeats entry {text!r}")
        seen.add(text)
    return entries


@dataclass(frozen=True)
class ElementInventory:
    """The element pools a repository is built from.

    ``normal_events`` are scene-appropriate calm activities; each location is
    mapped to one of them (cycling through the pool by location position).
    """

    viewpoints: tuple
    locations: tuple
    subjects: tuple
    anomalous_events: tuple
    normal_events: tuple

    def __post_init__(self):
        for name in _INVENTORY_FIELDS.values():
            object.__setattr__(self, name, _check_entries(getattr(self, name), name))

    @property
    def product_size(self) -> int:
        return (
            len(self.viewpoints) * len(self.locations) * len(self.subjects) * len(self.anomalous_events)
        )


@dataclass(frozen=True)
class DescriptionPair:
    """One anomalous/normal description pair and the element tuple behind it."""

    index: int
    elements: tuple  # (viewpoint, location, subject, anomalous_event)
    anomalous_text: str
    normal_text: str

    def __post_init__(self):
        if self.index < 0:
            raise ValidationError(f"pair index must be >= 0, got {self.index}")
        if len(self.elements) != 4 or any(not e for e in self.elements):
            raise ValidationError(f"pair {self.index}: elements must be a 4-tuple of non-empty strings")
        if not self.anomalous_text or not self.normal_text:
            raise ValidationError(f"pair {self.index}: description texts must be non-empty")
        if self.anomalous_text == self.normal_text:
            raise ValidationError(f"pair {self.index}: anomalous and normal texts must differ")


def _pair_at(inventory: ElementInventory, flat_index: int) -> DescriptionPair:
    n_l = len(inventory.locations)
    n_s = len(inventory.subjects)
    n_e = len(inventory.anomalous_events)
    rem, ei = divmod(flat_index, n_e)
    rem, si = divmod(rem, n_s)
    vi, li = divmod(rem, n_l)
    viewpoint = inventory.viewpoints[vi]
    location = inventory.locations[li]
    subject = inventory.subjects[si]
    event = inventory.anomalous_events[ei]
    activity = inventory.normal_events[li % len(inventory.normal_events)]
    return DescriptionPair(
        index=flat_index,
        elements=(viewpoint, location, subject, event),
        anomalous_text=ANOMALOUS_TEMPLATE.format(
            viewpoint=viewpoint, location=location, subject=subject, event=event
        ),
        normal_text=NORMAL_TEMPLATE.format(
            viewpoint=viewpoint, location=location, subject=subject, activity=activity
        ),
    )


def build_repository(inventory: ElementInventory, limit: int | None = None, seed: int = 0) -> list:
    """Enumerate (or sample) description pairs from the element product.

    With no ``limit`` the full product is returned in lexicographic order.
    Otherwise exactly ``limit`` tuples are drawn uniformly without replacement
    with the given seed and returned in ascending index order.
    """
    total = inventory.product_size
    if limit is None:
        indices = range(total)
    else:
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        if limit > total:
            raise ValidationError(f"limit {limit} exceeds repository size {total}")
        rng = rng_from(seed, "prompt-sample")
        indices = sorted(int(i) for i in rng.choice(total, size=limit, replace=False))
    return [_pair_at(inventory, i) for i in indices]


def export_repository(pairs, path) -> None:
    """Write pairs to a tab-separated repository file (lossless)."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("cannot export an empty repository")
    lines = [REPOSITORY_TAG]
    seen = set()
    for p in pairs:
        if p.index in seen:
            raise ValidationError(f"repository repeats pair index {p.index}")
        seen.add(p.index)
        fields = (str(p.index), *p.elements, p.anomalous_text, p.normal_text)
        for f in fields:
            if "\t" in f or "\n" in f or "\r" in f:
                raise ValidationError(f"pair {p.index}: field {f!r} contains tab or newline characters")
        lines.append("\t".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_repository(path) -> list:
    """Read a repository file written by ``export_repository``."""
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines or lines[0] != REPOSITORY_TAG:
        raise DataFormatError(f"{path}:1: expected header {REPOSITORY_TAG!r}")
    pairs = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 7:
            raise DataFormatError(f"{path}:{lineno}: expected 7 tab-separated fields, got {len(parts)}")
        try:
            index = int(parts[0])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad pair index {parts[0]!r}") from None
        if index in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate pair index {index}")
        seen.add(index)
        try:
            pairs.append(
                DescriptionPair(index, tuple(parts[1:5]), parts[5], parts[6])
            )
        except ValidationError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not pairs:
        raise DataFormatError(f"{path}: repository holds no pairs")
    return pairs


def save_inventory(inventory: ElementInventory, path) -> None:
    lines = [INVENTORY_TAG]
    for kind, name in _INVENTORY_FIELDS.items():
        lines.extend(f"{kind}\t{text}" for text in getattr(inventory, name))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_inventory(path) -> ElementInventory:
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines or lines[0] != INVENTORY_TAG:
        raise DataFormatError(f"{path}:1: expected header {INVENTORY_TAG!r}")
    pools = {kind: [] for kind in _INVENTORY_FIELDS}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'kind<TAB>text', got {line!r}")
        kind, text = parts
        if kind not in pools:
            raise DataFormatError(f"{path}:{lineno}: unknown element kind {kind!r}")
        pools[kind].append(text)
    try:
        return ElementInventory(**{name: tuple(pools[kind]) for kind, name in _INVENTORY_FIELDS.items()})
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def default_inventory() -> ElementInventory:
    """A built-in inventory large enough for a few hundred sampled pairs."""
    return ElementInventory(
        viewpoints=(
            "surveillance camera viewpoint",
            "dashboard camera viewpoint",
            "handheld camera viewpoint",
            "overhead drone viewpoint",
        ),
        locations=(
            "train station",
            "parking lot",
            "shopping mall",
            "city intersection",
            "office lobby",
            "gas station",
        ),
        subjects=(
            "passenger",
            "pedestrian",
            "driver",
            "shopper",
            "security guard",
        ),
        anomalous_events=(
            "collapsing",
            "fighting with another person",
            "snatching a bag and running",
            "starting a fire",
            "crashing into a barrier",
            "smashing a window",
            "falling down a staircase",
            "being struck by a vehicle",
            "spraying graffiti on a wall",
            "abandoning a suspicious package",
        ),
        normal_events=(
            "waiting calmly on the platform",
            "walking between parked cars",
            "browsing storefronts at a steady pace",
            "crossing at the signal with the crowd",
            "checking in at the front desk",
            "refueling a car without incident",
        ),
    )
