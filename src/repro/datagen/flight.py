"""The Flight domain: world, attributes, and the 38-source collection.

Reproduces the data collection of Section 2.2: 38 sources (3 airline sites,
8 airport sites, 27 third-party sites) observed every day of December 2011
over 1200 flights departing from or arriving at the three airlines' hubs.
The six examined attributes are scheduled/actual departure/arrival time and
departure/arrival gate.

Calibration targets from the paper:

* the airline sites are the gold standard (their claims on 100 random
  flights); each airline only covers its own flights;
* airport sites are accurate (~.94) but cover ~3% of items (only flights
  touching their airport) — Table 4;
* five copying groups among the third-party sites with sizes 5/4/3/2/2 and
  average accuracies .71/.53/.92/.93/.61 (Table 5); the low-accuracy groups
  are what drags the precision of dominant values down to ~.86 and what
  ACCUCOPY fixes (Section 4.2);
* semantics ambiguity: some sources report *takeoff/landing* times instead
  of the majority gate-departure/gate-arrival semantics (Figure 6, 33%);
* one source systematically pads scheduled arrival times (the paper's
  FlightAware anecdote in Section 3.2);
* overall lower redundancy than Stock (~.32 at the item level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.attributes import AttributeSpec, AttributeTable, ValueKind
from repro.core.gold import build_gold_standard
from repro.core.records import ErrorReason, SourceCategory, SourceMeta, Value
from repro.datagen.generator import DomainCollection, generate_series, rng_for
from repro.datagen.profiles import SourceProfile
from repro.datagen.worlds import World
from repro.errors import ConfigError

DOMAIN = "flight"

#: The 6 examined attributes (Section 2.2).
FLIGHT_ATTRIBUTES: Tuple[AttributeSpec, ...] = (
    AttributeSpec("Scheduled departure", ValueKind.TIME),
    AttributeSpec("Scheduled arrival", ValueKind.TIME),
    AttributeSpec("Actual departure", ValueKind.TIME),
    AttributeSpec("Actual arrival", ValueKind.TIME),
    AttributeSpec("Departure gate", ValueKind.STRING),
    AttributeSpec("Arrival gate", ValueKind.STRING),
)

FLIGHT_DAY_LABELS: Tuple[str, ...] = tuple(
    f"2011-12-{day:02d}" for day in range(1, 32)
)

#: The randomly-chosen snapshot the paper reports in detail (Section 3).
FLIGHT_REPORT_DAY = "2011-12-08"

FLIGHT_SYNONYMS: Dict[str, Tuple[str, ...]] = {
    "Scheduled departure": ("Scheduled departure", "Sched dep", "Departure time",
                            "Scheduled departure time"),
    "Scheduled arrival": ("Scheduled arrival", "Sched arr", "Arrival time",
                          "Scheduled arrival time"),
    "Actual departure": ("Actual departure", "Departed", "Actual dep time"),
    "Actual arrival": ("Actual arrival", "Arrived", "Actual arr time"),
    "Departure gate": ("Departure gate", "Dep gate", "Gate (departure)"),
    "Arrival gate": ("Arrival gate", "Arr gate", "Gate (arrival)"),
}

_AIRLINES = ("AA", "UA", "CO")
_HUBS = ("DFW", "ORD", "IAH")
_SPOKES = (
    "SFO", "DEN", "JFK", "LAX", "SEA", "MIA", "BOS", "PHX",
    "ATL", "MSP", "DTW", "PHL", "SLC", "MCO", "SAN", "TPA",
    "STL", "BNA", "AUS", "RDU", "PIT", "CLE",
)
_GATE_LETTERS = "ABCDE"

_PRE_DAYS = 10


class FlightWorld(World):
    """Scheduled flights with daily delays, gates, and taxi times."""

    def __init__(self, n_objects: int = 1200, num_days: int = 31, seed: int = 0):
        if n_objects < 10:
            raise ConfigError("FlightWorld needs at least 10 flights")
        self.attributes = AttributeTable.from_specs(list(FLIGHT_ATTRIBUTES))
        self._num_days = num_days
        self._n = n_objects
        rng = rng_for(seed, "flight-world")

        airlines = [
            _AIRLINES[int(i)] for i in rng.integers(0, len(_AIRLINES), n_objects)
        ]
        hubs = [_HUBS[_AIRLINES.index(a)] for a in airlines]
        spokes = [_SPOKES[int(i)] for i in rng.integers(0, len(_SPOKES), n_objects)]
        outbound = rng.random(n_objects) < 0.5
        self._dep_airport = [h if o else s for h, s, o in zip(hubs, spokes, outbound)]
        self._arr_airport = [s if o else h for h, s, o in zip(hubs, spokes, outbound)]
        self._ids = [
            f"{airline}{100 + i}-{dep}"
            for i, (airline, dep) in enumerate(zip(airlines, self._dep_airport))
        ]
        self._index = {o: i for i, o in enumerate(self._ids)}
        self._airline = dict(zip(self._ids, airlines))

        total = num_days + _PRE_DAYS
        self._sched_dep = rng.uniform(5 * 60, 22 * 60, n_objects).round()
        self._duration = rng.uniform(55, 330, n_objects).round()
        # Delay mixture: mostly small, a long tail of big delays.
        mix = rng.random((n_objects, total))
        delay = np.where(
            mix < 0.55,
            rng.uniform(-5, 10, (n_objects, total)),
            np.where(
                mix < 0.85,
                rng.uniform(10, 60, (n_objects, total)),
                rng.uniform(60, 200, (n_objects, total)),
            ),
        )
        self._dep_delay = delay.round()
        self._arr_delay = (
            self._dep_delay + rng.normal(-5, 12, (n_objects, total))
        ).round()
        self._taxi_out = rng.uniform(10, 35, (n_objects, total)).round()
        self._taxi_in = rng.uniform(4, 15, (n_objects, total)).round()
        self._sched_pad = rng.uniform(60, 300, n_objects).round()

        gate_numbers = rng.integers(1, 40, size=(n_objects, total, 2))
        gate_letters = rng.integers(0, len(_GATE_LETTERS), size=(n_objects, total, 2))
        self._gates = gate_letters, gate_numbers

    # ------------------------------------------------------------------ World
    @property
    def object_ids(self) -> List[str]:
        return list(self._ids)

    @property
    def num_days(self) -> int:
        return self._num_days

    def airline_of(self, object_id: str) -> str:
        return self._airline[object_id]

    def airports_of(self, object_id: str) -> Tuple[str, str]:
        i = self._index[object_id]
        return self._dep_airport[i], self._arr_airport[i]

    def _t(self, day: int) -> int:
        t = day + _PRE_DAYS
        if t < 0:
            t = 0
        if t >= self._dep_delay.shape[1]:
            raise ConfigError(f"day {day} outside generated horizon")
        return t

    def _gate(self, i: int, t: int, end: int) -> str:
        letters, numbers = self._gates
        return f"{_GATE_LETTERS[int(letters[i, t, end])]}{int(numbers[i, t, end])}"

    def true_value(self, object_id: str, attribute: str, day: int) -> Value:
        i = self._index[object_id]
        t = self._t(day)
        if attribute == "Scheduled departure":
            return float(self._sched_dep[i])
        if attribute == "Scheduled arrival":
            return float((self._sched_dep[i] + self._duration[i]) % 1440)
        if attribute == "Actual departure":
            return float((self._sched_dep[i] + self._dep_delay[i, t]) % 1440)
        if attribute == "Actual arrival":
            return float(
                (self._sched_dep[i] + self._duration[i] + self._arr_delay[i, t]) % 1440
            )
        if attribute == "Departure gate":
            return self._gate(i, t, 0)
        if attribute == "Arrival gate":
            return self._gate(i, t, 1)
        raise ConfigError(f"unknown flight attribute {attribute!r}")

    _VARIANTS: Dict[str, Tuple[str, ...]] = {
        "Actual departure": ("takeoff",),
        "Actual arrival": ("landing",),
        "Scheduled arrival": ("padded-schedule",),
    }

    def variants_of(self, attribute: str) -> List[str]:
        return list(self._VARIANTS.get(attribute, ()))

    def variant_value(
        self, object_id: str, attribute: str, day: int, variant: str
    ) -> Value:
        self.check_variant(attribute, variant)
        i = self._index[object_id]
        t = self._t(day)
        base = self.true_value(object_id, attribute, day)
        if attribute == "Actual departure":
            return float((float(base) + self._taxi_out[i, t]) % 1440)
        if attribute == "Actual arrival":
            return float((float(base) - self._taxi_in[i, t]) % 1440)
        return float((float(base) + self._sched_pad[i]) % 1440)

    def pure_error_value(
        self,
        object_id: str,
        attribute: str,
        day: int,
        value: Value,
        rng: np.random.Generator,
    ) -> Optional[Value]:
        """Gate errors pick a different plausible gate; times use the default."""
        if self.attributes[attribute].kind is not ValueKind.STRING:
            return None
        letter = _GATE_LETTERS[int(rng.integers(len(_GATE_LETTERS)))]
        number = int(rng.integers(1, 40))
        wrong = f"{letter}{number}"
        if wrong == value:
            wrong = f"{letter}{(number % 39) + 1}"
        return wrong


# --------------------------------------------------------------------- config
@dataclass
class FlightConfig:
    """Scale and population parameters of the Flight collection."""

    n_objects: int = 300
    num_days: int = 31
    n_gold_objects: int = 100
    seed: int = 15

    attribute_popularity: Dict[str, float] = field(
        default_factory=lambda: {
            "Scheduled departure": 0.92,
            "Scheduled arrival": 0.85,
            "Actual departure": 0.52,
            "Actual arrival": 0.52,
            "Departure gate": 0.48,
            "Arrival gate": 0.47,
        }
    )

    variant_adoption: Dict[Tuple[str, str], float] = field(
        default_factory=lambda: {
            ("Actual departure", "takeoff"): 0.50,
            ("Actual arrival", "landing"): 0.48,
        }
    )

    @classmethod
    def paper_scale(cls, seed: int = 15) -> "FlightConfig":
        return cls(n_objects=1200, num_days=31, n_gold_objects=100, seed=seed)

    @classmethod
    def small(cls, seed: int = 15) -> "FlightConfig":
        return cls(n_objects=120, num_days=8, n_gold_objects=60, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 15) -> "FlightConfig":
        return cls(n_objects=40, num_days=3, n_gold_objects=25, seed=seed)

    @classmethod
    def large_corpus(cls, seed: int = 15, n_objects: int = 1500) -> "FlightConfig":
        """A wide, shallow corpus: many flights, two days — the one-day
        truth-serving workload (items dominate the claim count)."""
        return cls(
            n_objects=n_objects,
            num_days=2,
            n_gold_objects=min(200, n_objects),
            seed=seed,
        )

    def day_labels(self) -> Tuple[str, ...]:
        if self.num_days > len(FLIGHT_DAY_LABELS):
            raise ConfigError(
                f"at most {len(FLIGHT_DAY_LABELS)} flight days available"
            )
        return FLIGHT_DAY_LABELS[: self.num_days]

    def report_day(self) -> str:
        labels = self.day_labels()
        return FLIGHT_REPORT_DAY if FLIGHT_REPORT_DAY in labels else labels[-1]


#: (group id, size, original error rate, group coverage, Table 5 remark)
_COPY_GROUPS = (
    ("cg1", 5, 0.29, 0.85, "Depen claimed"),
    ("cg2", 4, 0.47, 0.80, "Query redirection"),
    ("cg3", 3, 0.08, 0.65, "Depen claimed"),
    ("cg4", 2, 0.07, 0.70, "Embedded interface"),
    ("cg5", 2, 0.45, 0.70, "Embedded interface"),
)


def _flight_error_mix() -> Dict[ErrorReason, float]:
    return {
        ErrorReason.OUT_OF_DATE: 0.16,
        ErrorReason.PURE_ERROR: 0.84,
    }


def _draw_flight_schema(
    rng: np.random.Generator, config: FlightConfig, minimum: int = 4
) -> Tuple[str, ...]:
    names = [spec.name for spec in FLIGHT_ATTRIBUTES]
    schema = [
        a for a in names
        if rng.random() < config.attribute_popularity.get(a, 0.5)
    ]
    for required in ("Scheduled departure",):
        if required not in schema:
            schema.insert(0, required)
    while len(schema) < minimum:
        extra = names[int(rng.integers(len(names)))]
        if extra not in schema:
            schema.append(extra)
    return tuple(a for a in names if a in schema)


def build_flight_profiles(
    world: FlightWorld, config: FlightConfig
) -> List[SourceProfile]:
    """The 38-source population: 3 airlines, 8 airports, 27 third parties."""
    rng = rng_for(config.seed, "flight-profiles")
    all_attrs = tuple(spec.name for spec in FLIGHT_ATTRIBUTES)
    profiles: List[SourceProfile] = []

    # -- three airline websites (the gold standard) ----------------------
    for airline in _AIRLINES:
        covered = frozenset(
            o for o in world.object_ids if world.airline_of(o) == airline
        )
        profiles.append(
            SourceProfile(
                meta=SourceMeta(f"airline_{airline.lower()}", f"{airline} Airlines",
                                SourceCategory.AIRLINE, is_authority=True),
                schema=all_attrs,
                covered_objects=covered,
                error_rate=0.01,
                error_mix=_flight_error_mix(),
            )
        )

    # -- eight airport websites: accurate, tiny coverage -----------------
    airport_picks = [
        _SPOKES[int(i)]
        for i in rng.choice(len(_SPOKES), size=8, replace=False)
    ]
    for airport in airport_picks:
        covered = frozenset(
            o for o in world.object_ids if airport in world.airports_of(o)
        )
        if not covered:  # tiny worlds may miss an airport entirely
            covered = frozenset(world.object_ids[:1])
        profiles.append(
            SourceProfile(
                meta=SourceMeta(f"airport_{airport.lower()}", f"{airport} Airport",
                                SourceCategory.AIRPORT),
                schema=all_attrs,
                covered_objects=covered,
                error_rate=0.05,
                error_mix=_flight_error_mix(),
            )
        )

    # -- 27 third-party sites --------------------------------------------
    # Two high-quality aggregators (Orbitz/Travelocity analogues, Table 4).
    profiles.append(
        SourceProfile(
            meta=SourceMeta("orbitz", "Orbitz", SourceCategory.THIRD_PARTY),
            schema=all_attrs,
            object_coverage=0.9,
            error_rate=0.02,
            error_mix=_flight_error_mix(),
        )
    )
    profiles.append(
        SourceProfile(
            meta=SourceMeta("travelocity", "Travelocity", SourceCategory.THIRD_PARTY),
            schema=all_attrs,
            object_coverage=0.72,
            error_rate=0.04,
            error_mix=_flight_error_mix(),
        )
    )
    # The systematically-wrong scheduled-arrival source (FlightAware anecdote).
    profiles.append(
        SourceProfile(
            meta=SourceMeta("flightalert", "FlightAlert", SourceCategory.THIRD_PARTY),
            schema=all_attrs,
            object_coverage=0.85,
            error_rate=0.08,
            error_mix=_flight_error_mix(),
            semantic_variants={"Scheduled arrival": "padded-schedule"},
        )
    )

    # Five copying groups (Table 5).
    for group_id, size, error_rate, coverage, _remark in _COPY_GROUPS:
        schema = _draw_flight_schema(rng, config)
        variants: Dict[str, str] = {}
        if error_rate > 0.2:  # the low-quality groups also misuse semantics
            if "Actual departure" in schema and rng.random() < 0.8:
                variants["Actual departure"] = "takeoff"
            if "Actual arrival" in schema and rng.random() < 0.7:
                variants["Actual arrival"] = "landing"
        original_id = f"{group_id}_orig"
        profiles.append(
            SourceProfile(
                meta=SourceMeta(original_id, f"{group_id.upper()} original",
                                SourceCategory.THIRD_PARTY),
                schema=schema,
                object_coverage=coverage,
                error_rate=error_rate,
                error_mix=_flight_error_mix(),
                semantic_variants=variants,
            )
        )
        for k in range(size - 1):
            copier_schema = schema
            if rng.random() < 0.4 and len(schema) > 4:
                copier_schema = schema[:-1]  # Table 5: schema similarity < 1
            profiles.append(
                SourceProfile(
                    meta=SourceMeta(f"{group_id}_cop{k}", f"{group_id.upper()} mirror {k + 1}",
                                    SourceCategory.THIRD_PARTY,
                                    copies_from=original_id, copy_rate=0.995),
                    schema=copier_schema,
                    object_coverage=coverage,
                    error_rate=error_rate,
                    error_mix=_flight_error_mix(),
                    semantic_variants=variants,
                )
            )

    # Remaining independent third parties.
    remaining = 27 - 3 - sum(size for _g, size, _e, _c, _r in _COPY_GROUPS)
    volatile_pick = int(rng.integers(remaining))
    for k in range(remaining):
        schema = _draw_flight_schema(rng, config)
        roll = rng.random()
        if roll < 0.25:
            error_rate = float(rng.uniform(0.01, 0.06))
        elif roll < 0.8:
            error_rate = float(rng.uniform(0.08, 0.30))
        else:
            error_rate = float(rng.uniform(0.25, 0.5))
        variants = {}
        for (attribute, variant), adoption in config.variant_adoption.items():
            if attribute in schema and rng.random() < adoption:
                variants[attribute] = variant
        volatile_days: FrozenSet[int] = frozenset()
        volatile_factor = 1.0
        if k == volatile_pick:
            # Dedicated stream: the population must not depend on num_days.
            vol_rng = rng_for(config.seed, "flight-volatile", k)
            n_spike = max(1, config.num_days // 6)
            volatile_days = frozenset(
                int(d)
                for d in vol_rng.choice(config.num_days, size=n_spike, replace=False)
            )
            volatile_factor = float(vol_rng.uniform(4.0, 7.0))
        profiles.append(
            SourceProfile(
                meta=SourceMeta(f"flightweb_{k:02d}", f"FlightWeb {k + 1}",
                                SourceCategory.THIRD_PARTY),
                schema=schema,
                object_coverage=float(rng.uniform(0.25, 0.80)),
                error_rate=error_rate,
                error_mix=_flight_error_mix(),
                semantic_variants=variants,
                volatile_days=volatile_days,
                volatile_factor=volatile_factor,
            )
        )

    return _attach_local_schemas(profiles, config)


def _attach_local_schemas(
    profiles: List[SourceProfile], config: FlightConfig
) -> List[SourceProfile]:
    """Local spellings plus tail attributes (15 global / 43 local, Table 1)."""
    rng = rng_for(config.seed, "flight-schemas")
    tail_names = [
        "Aircraft type", "Flight status", "Baggage claim", "Terminal",
        "On-time rating", "Codeshare", "Average delay", "Distance", "Duration",
    ]
    tail_popularity = (0.45, 0.40, 0.24, 0.22, 0.15, 0.12, 0.10, 0.08, 0.07)
    finished: List[SourceProfile] = []
    for profile in profiles:
        local_names = {}
        for attribute in profile.schema:
            pool = FLIGHT_SYNONYMS.get(attribute, (attribute,))
            local_names[attribute] = str(pool[int(rng.integers(len(pool)))])
        tail = tuple(
            name for name, p in zip(tail_names, tail_popularity)
            if rng.random() < p
        )
        for name in tail:
            local_names[name] = name
        finished.append(
            SourceProfile(
                meta=profile.meta,
                schema=profile.schema,
                full_schema=profile.schema + tail,
                local_names=local_names,
                object_coverage=profile.object_coverage,
                covered_objects=profile.covered_objects,
                error_rate=profile.error_rate,
                error_mix=profile.error_mix,
                semantic_variants=profile.semantic_variants,
                basis_offsets=profile.basis_offsets,
                instance_confusions=profile.instance_confusions,
                rounding_sigfigs=profile.rounding_sigfigs,
                frozen_at_day=profile.frozen_at_day,
                volatile_days=profile.volatile_days,
                volatile_factor=profile.volatile_factor,
            )
        )
    return finished


def generate_flight_collection(
    config: Optional[FlightConfig] = None,
) -> DomainCollection:
    """Generate the full Flight collection: snapshots, profiles, gold standards."""
    config = config or FlightConfig()
    world = FlightWorld(
        n_objects=config.n_objects, num_days=config.num_days, seed=config.seed
    )
    profiles = build_flight_profiles(world, config)
    labels = config.day_labels()
    series = generate_series(DOMAIN, world, profiles, labels, seed=config.seed)

    rng = rng_for(config.seed, "flight-gold-objects")
    n_gold = min(config.n_gold_objects, config.n_objects)
    picks = rng.choice(config.n_objects, size=n_gold, replace=False)
    gold_objects = [world.object_ids[int(i)] for i in picks]

    airline_ids = [p.source_id for p in profiles if p.meta.is_authority]
    gold_by_day = {
        snapshot.day: build_gold_standard(
            snapshot, gold_objects, min_providers=1, authority_ids=airline_ids
        )
        for snapshot in series
    }
    return DomainCollection(
        domain=DOMAIN,
        world=world,
        profiles=profiles,
        series=series,
        gold_by_day=gold_by_day,
        gold_objects=gold_objects,
        report_day=config.report_day(),
        config=config,
    )
