"""The Deep-Web claim generator.

Turns a ground-truth :class:`~repro.datagen.worlds.World` plus a list of
:class:`~repro.datagen.profiles.SourceProfile` into daily
:class:`~repro.core.dataset.Dataset` snapshots.  The generation pipeline for
one (source, object, attribute, day) claim is:

1. **Copying** — if the source copies another (Table 5) and the original
   provides the item, take the original's claim verbatim with probability
   ``copy_rate`` (tagging it COPIED when the copied value is itself wrong).
2. **Staleness** — a frozen source reads the world at ``frozen_at_day``.
3. **Instance ambiguity** — a confused source reads the alias object.
4. **Semantics ambiguity** — a source with a variant on this attribute
   systematically reports the variant reading.
5. **Per-claim errors** — with probability ``error_rate`` report an
   out-of-date, unit, or pure error.
6. **Formatting** — round to the source's habitual significant figures and
   record the granularity.

All randomness is derived from ``numpy`` generators seeded from
``(seed, source_id, day)``, so collections are fully reproducible and two
sources never share random streams.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attributes import ValueKind
from repro.core.dataset import Dataset, DatasetSeries
from repro.core.gold import GoldStandard
from repro.core.records import Claim, DataItem, ErrorReason, Value
from repro.datagen.profiles import SourceProfile
from repro.datagen.worlds import World
from repro.errors import ConfigError


def _stable_hash(*parts: object) -> int:
    """Deterministic 32-bit hash of heterogeneous parts (not ``hash()``)."""
    text = "\x1f".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy generator deterministically derived from the given parts."""
    return np.random.default_rng(np.random.SeedSequence(_stable_hash(*parts)))


def covered_objects_for(
    profile: SourceProfile, world: World, seed: int
) -> List[str]:
    """The fixed object set a source covers (stable across days)."""
    if profile.covered_objects is not None:
        known = set(world.object_ids)
        return [o for o in world.object_ids if o in profile.covered_objects and o in known]
    if profile.object_coverage >= 1.0:
        return list(world.object_ids)
    rng = rng_for(seed, "coverage", profile.source_id)
    objects = world.object_ids
    keep = rng.random(len(objects)) < profile.object_coverage
    return [o for o, k in zip(objects, keep) if k]


def _round_sigfigs(value: float, sigfigs: int) -> Tuple[float, float]:
    """Round to significant figures; returns (rounded, granularity)."""
    if value == 0:
        return 0.0, 1.0
    exponent = math.floor(math.log10(abs(value)))
    granularity = 10.0 ** (exponent - sigfigs + 1)
    return round(value / granularity) * granularity, granularity


def _values_equal(a: Value, b: Value) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


class _SnapshotMemo(dict):
    """What every source of one snapshot shares.

    As a dict: ``world.true_value`` memoized by ``(object, attribute,
    day)``, so the world is asked once per key.  ``data_items`` interns the
    data items (object -> attribute -> :class:`DataItem`), so all sources'
    claims on one item share one key object.  :meth:`claim` interns the
    claims: most sources give an item its dominant value and copiers repeat
    their original, so one frozen :class:`Claim` per distinct reading
    serves every source that reports it.
    """

    def __init__(self, world: World):
        super().__init__()
        self.world = world
        self.data_items: Dict[str, Dict[str, DataItem]] = {}
        self.claims: Dict[tuple, Claim] = {}

    def __missing__(self, key: Tuple[str, str, int]) -> Value:
        value = self[key] = self.world.true_value(*key)
        return value

    def claim(
        self, value: Value, granularity: Optional[float],
        reason: Optional[ErrorReason],
    ) -> Claim:
        """The snapshot's one :class:`Claim` for this exact reading.

        The key separates what ``==`` merges: the value's type, and the
        sign of a zero (``0.0 == -0.0``, but their ``repr`` differ).
        """
        key = (
            value.__class__, value, value == 0 and math.copysign(1.0, value),
            granularity, reason,
        )
        claim = self.claims.get(key)
        if claim is None:
            claim = self.claims[key] = Claim(value, granularity, reason)
        return claim


class ClaimGenerator:
    """Generates one source-day's claims; holds per-day RNG state."""

    def __init__(self, world: World, profile: SourceProfile, day: int, seed: int):
        self.world = world
        self.profile = profile
        self.day = day
        self.rng = rng_for(seed, "claims", profile.source_id, day)
        self.error_rate = profile.error_rate_on(day)
        reasons = list(profile.error_mix.keys())
        weights = np.array([profile.error_mix[r] for r in reasons], dtype=float)
        self._mix_reasons = reasons
        self._mix_probs = weights / weights.sum() if len(reasons) else None

    # ------------------------------------------------------------------ draws
    def claims(
        self,
        objects: Sequence[str],
        original_claims: Dict[DataItem, Claim],
        memo: _SnapshotMemo,
    ) -> Dict[DataItem, Claim]:
        """The source's claims on ``objects`` x its schema, in that order.

        ``original_claims`` are the claims of the source this one copies
        (empty for originals); ``memo`` is shared by the snapshot's sources.
        Everything that depends only on the source or the attribute is
        looked up once, outside the claim loop; the RNG is drawn exactly as
        the pipeline in the module docstring says.
        """
        world, profile, day = self.world, self.profile, self.day
        random = self.rng.random
        stale = profile.frozen_at_day is not None
        base_day = profile.frozen_at_day if stale else day
        copy_rate = profile.meta.copy_rate
        copies = profile.is_copier and bool(original_claims)
        may_err = self._mix_probs is not None
        plan = [
            (
                attribute,
                profile.semantic_variants.get(attribute),
                profile.basis_offsets.get(attribute),
                profile.rounding_sigfigs.get(attribute),
            )
            for attribute in profile.schema
        ]
        interned, claim = memo.data_items, memo.claim
        out: Dict[DataItem, Claim] = {}
        for object_id in objects:
            items = interned.get(object_id)
            if items is None:
                items = interned[object_id] = {}
            alias = profile.instance_confusions.get(object_id)
            read_object = object_id if alias is None else alias
            confused = (
                ErrorReason.INSTANCE_AMBIGUITY if alias is not None else None
            )
            for attribute, variant, offset, sigfigs in plan:
                item = items.get(attribute)
                if item is None:
                    item = items[attribute] = DataItem(object_id, attribute)
                if copies and item in original_claims and random() < copy_rate:
                    origin = original_claims[item]
                    out[item] = claim(
                        origin.value,
                        origin.granularity,
                        ErrorReason.COPIED if origin.reason is not None else None,
                    )
                    continue
                reason = confused
                if variant is not None and reason is None:
                    value = world.variant_value(
                        read_object, attribute, base_day, variant
                    )
                    reason = ErrorReason.SEMANTICS_AMBIGUITY
                else:
                    value = memo[(read_object, attribute, base_day)]
                    if (
                        offset is not None and reason is None
                        and not isinstance(value, str)
                    ):
                        value = float(value) * offset
                        reason = ErrorReason.SEMANTICS_AMBIGUITY
                if stale and reason is None:
                    reason = ErrorReason.OUT_OF_DATE
                if reason is None and may_err and random() < self.error_rate:
                    reason = self._mix_reasons[
                        int(self.rng.choice(
                            len(self._mix_reasons), p=self._mix_probs
                        ))
                    ]
                    value = self._apply_error(object_id, attribute, reason, value)
                if reason is not None and _values_equal(
                    value, memo[(object_id, attribute, day)]
                ):
                    reason = None  # the mechanism happened to produce the truth
                granularity: Optional[float] = None
                if sigfigs is not None and not isinstance(value, str):
                    value, granularity = _round_sigfigs(float(value), sigfigs)
                out[item] = claim(value, granularity, reason)
        return out

    def _apply_error(
        self, object_id: str, attribute: str, reason: ErrorReason, value: Value
    ) -> Value:
        world = self.world
        if reason is ErrorReason.OUT_OF_DATE:
            lag = 1 if self.rng.random() < 2.0 / 3.0 else int(self.rng.integers(2, 8))
            return world.true_value(object_id, attribute, self.day - lag)
        if reason is ErrorReason.UNIT_ERROR:
            if isinstance(value, str):
                return self._pure_error(object_id, attribute, value)
            factor = 1000.0 if self.rng.random() < 0.5 else 1e-3
            return float(value) * factor
        return self._pure_error(object_id, attribute, value)

    def _pure_error(self, object_id: str, attribute: str, value: Value) -> Value:
        spec = self.world.attributes[attribute]
        wrong = getattr(self.world, "pure_error_value", None)
        if wrong is not None:
            produced = wrong(object_id, attribute, self.day, value, self.rng)
            if produced is not None:
                return produced
        if spec.kind is ValueKind.TIME:
            shift = float(self.rng.uniform(15.0, 120.0))
            if self.rng.random() < 0.5:
                shift = -shift
            return (float(value) + shift) % (24 * 60)
        if isinstance(value, str):
            return value + "~X"  # unresolvable junk string
        magnitude = float(self.rng.uniform(0.02, 0.5))
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        return float(value) * (1.0 + sign * magnitude)


def _ordered_profiles(profiles: Sequence[SourceProfile]) -> List[SourceProfile]:
    """Originals before their copiers (copy chains are depth 1 in Table 5)."""
    by_id = {p.source_id: p for p in profiles}
    for profile in profiles:
        original = profile.meta.copies_from
        if original is not None and original not in by_id:
            raise ConfigError(
                f"{profile.source_id} copies unknown source {original!r}"
            )
        if original is not None and by_id[original].is_copier:
            raise ConfigError(
                f"copy chain through {original!r} is not supported"
            )
    return sorted(profiles, key=lambda p: p.is_copier)


def generate_snapshot(
    domain: str,
    world: World,
    profiles: Sequence[SourceProfile],
    day: int,
    day_label: str,
    seed: int = 0,
) -> Dataset:
    """Generate one day's :class:`Dataset` from the world and profiles."""
    dataset = Dataset(domain=domain, day=day_label, attributes=world.attributes)
    for profile in profiles:
        dataset.add_source(profile.meta)

    memo = _SnapshotMemo(world)
    claims_by_source: Dict[str, Dict[DataItem, Claim]] = {}
    for profile in _ordered_profiles(profiles):
        generator = ClaimGenerator(world, profile, day, seed)
        original_claims = (
            claims_by_source.get(profile.meta.copies_from, {})
            if profile.is_copier
            else {}
        )
        source_claims = generator.claims(
            covered_objects_for(profile, world, seed), original_claims, memo
        )
        dataset.add_claims(profile.source_id, source_claims)
        claims_by_source[profile.source_id] = source_claims
    return dataset.freeze()


def generate_series(
    domain: str,
    world: World,
    profiles: Sequence[SourceProfile],
    day_labels: Sequence[str],
    seed: int = 0,
) -> DatasetSeries:
    """Generate the full observation period (one snapshot per label)."""
    series = DatasetSeries(domain=domain)
    for day, label in enumerate(day_labels):
        series.add(
            generate_snapshot(domain, world, profiles, day, label, seed=seed)
        )
    return series


@dataclass
class DomainCollection:
    """A fully generated domain: world, profiles, snapshots, gold standards."""

    domain: str
    world: World
    profiles: List[SourceProfile]
    series: DatasetSeries
    gold_by_day: Dict[str, GoldStandard]
    gold_objects: List[str]
    report_day: str
    config: object = None
    _profile_index: Dict[str, SourceProfile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._profile_index = {p.source_id: p for p in self.profiles}

    @property
    def snapshot(self) -> Dataset:
        """The randomly-chosen snapshot used for detailed reporting."""
        return self.series.snapshot(self.report_day)

    @property
    def gold(self) -> GoldStandard:
        return self.gold_by_day[self.report_day]

    def gold_for(self, day_label: str) -> GoldStandard:
        return self.gold_by_day[day_label]

    def profile(self, source_id: str) -> SourceProfile:
        return self._profile_index[source_id]

    def true_copy_groups(self) -> List[List[str]]:
        """Ground-truth copying groups: each original with its copiers."""
        groups: Dict[str, List[str]] = {}
        for profile in self.profiles:
            original = profile.meta.copies_from
            if original is not None:
                groups.setdefault(original, [original]).append(profile.source_id)
        return [sorted(set(members)) for members in groups.values()]

    def copier_ids(self) -> List[str]:
        """All sources that copy (the ones removed in Section 3.4)."""
        return [p.source_id for p in self.profiles if p.is_copier]

    def non_gold_source_ids(self) -> List[str]:
        """Sources that are *not* authorities (used for Flight accuracy stats)."""
        return [p.source_id for p in self.profiles if not p.meta.is_authority]
