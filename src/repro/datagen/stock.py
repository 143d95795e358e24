"""The Stock domain: world, attributes, and the 55-source collection.

Reproduces the data collection of Section 2.2: 55 sources observed every
weekday of July 2011 over 1000 symbols and the 16 examined attributes of
Table 2.  The simulated source population is calibrated to the paper's
Section 3 statistics:

* five authority sources (Google Finance, Yahoo! Finance, NASDAQ, MSN Money,
  Bloomberg) with accuracies ~.94/.93/.92/.91/.83 and coverage ~.8-.9
  (Table 4); Bloomberg's deficit comes from alternative semantics on
  statistical attributes, as the paper observes;
* a copying group of 11 sources fed by a market-data service (accuracy ~.92)
  and a pair of merged sites (accuracy ~.75) — Table 5;
* one stale source, ``StockSmart``, frozen a month before the observation
  period (the paper's accuracy-0.06 outlier);
* a long tail of third-party sources with accuracies between ~.54 and ~.97
  averaging ~.86 (Figure 8a), a handful of which are volatile over time
  (Figure 8b);
* widespread alternative semantics on statistical attributes (Dividend
  period, trailing/forward EPS and P/E, quarterly Yield, diluted shares and
  market cap, consolidated Volume, 52-week window endpoints), producing the
  paper's headline result that ~46% of Stock inconsistency is semantics
  ambiguity (Figure 6);
* ten terminated symbols that a few sources map to the wrong entity
  (instance ambiguity — the paper's Volume-deviation culprit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.attributes import AttributeSpec, AttributeTable, ValueKind
from repro.core.gold import build_gold_standard
from repro.core.records import ErrorReason, SourceCategory, SourceMeta, Value
from repro.datagen.generator import (
    DomainCollection,
    generate_series,
    rng_for,
)
from repro.datagen.profiles import SourceProfile
from repro.datagen.worlds import World
from repro.errors import ConfigError

DOMAIN = "stock"

#: The 16 examined attributes of Table 2.
STOCK_ATTRIBUTES: Tuple[AttributeSpec, ...] = (
    AttributeSpec("Last price", ValueKind.NUMERIC),
    AttributeSpec("Open price", ValueKind.NUMERIC),
    AttributeSpec("Today's change ($)", ValueKind.NUMERIC),
    AttributeSpec("Today's change (%)", ValueKind.PERCENT),
    AttributeSpec("Market cap", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("Volume", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("Today's high price", ValueKind.NUMERIC),
    AttributeSpec("Today's low price", ValueKind.NUMERIC),
    AttributeSpec("Dividend", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("Yield", ValueKind.PERCENT, statistical=True),
    AttributeSpec("52-week high price", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("52-week low price", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("EPS", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("P/E", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("Shares outstanding", ValueKind.NUMERIC, statistical=True),
    AttributeSpec("Previous close", ValueKind.NUMERIC),
)

#: Weekdays of July 2011 (21 observation days, Table 1).
STOCK_DAY_LABELS: Tuple[str, ...] = tuple(
    f"2011-07-{day:02d}"
    for day in (1, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 18, 19, 20, 21, 22, 25, 26, 27, 28, 29)
)

#: The randomly-chosen snapshot the paper reports in detail (Section 3).
STOCK_REPORT_DAY = "2011-07-07"

#: Local-name synonym pools (schema-level heterogeneity, Section 2.1).
STOCK_SYNONYMS: Dict[str, Tuple[str, ...]] = {
    "Last price": ("Last price", "Last trade", "Price", "Last"),
    "Open price": ("Open price", "Open", "Today's open"),
    "Today's change ($)": ("Today's change ($)", "Change", "Chg"),
    "Today's change (%)": ("Today's change (%)", "Change %", "Chg %", "% change"),
    "Market cap": ("Market cap", "Mkt cap", "Market capitalization"),
    "Volume": ("Volume", "Vol", "Share volume"),
    "Today's high price": ("Today's high price", "Day high", "High"),
    "Today's low price": ("Today's low price", "Day low", "Low"),
    "Dividend": ("Dividend", "Div", "Dividend rate"),
    "Yield": ("Yield", "Div yield", "Dividend yield"),
    "52-week high price": ("52-week high price", "52wk high", "52 week high", "Year high"),
    "52-week low price": ("52-week low price", "52wk low", "52 week low", "Year low"),
    "EPS": ("EPS", "Earnings per share", "EPS (ttm)"),
    "P/E": ("P/E", "PE ratio", "Price/earnings"),
    "Shares outstanding": ("Shares outstanding", "Shares out", "Outstanding shares"),
    "Previous close": ("Previous close", "Prev close", "Prior close"),
}

_PRE_DAYS = 45  # pre-observation history for out-of-date / frozen sources


class StockWorld(World):
    """Random-walk market ground truth for ``n_objects`` symbols."""

    def __init__(self, n_objects: int = 1000, num_days: int = 21, seed: int = 0,
                 n_terminated: int = 10):
        if n_objects < 20:
            raise ConfigError("StockWorld needs at least 20 objects")
        self.attributes = AttributeTable.from_specs(list(STOCK_ATTRIBUTES))
        self._num_days = num_days
        self._n = n_objects
        self._ids = [f"STK{i:04d}" for i in range(n_objects)]
        self._index = {o: i for i, o in enumerate(self._ids)}

        rng = rng_for(seed, "stock-world")
        total = num_days + _PRE_DAYS
        price0 = np.exp(rng.normal(3.3, 0.8, size=n_objects))
        returns = rng.normal(0.0, 0.02, size=(n_objects, total))
        self._close = price0[:, None] * np.exp(np.cumsum(returns, axis=1))
        prev = np.concatenate([price0[:, None], self._close[:, :-1]], axis=1)
        self._prev_close = prev
        self._open = prev * np.exp(rng.normal(0.0, 0.008, size=(n_objects, total)))
        hi_jitter = np.abs(rng.normal(0.0, 0.008, size=(n_objects, total)))
        lo_jitter = np.abs(rng.normal(0.0, 0.008, size=(n_objects, total)))
        self._high = np.maximum(self._open, self._close) * (1.0 + hi_jitter)
        self._low = np.minimum(self._open, self._close) * (1.0 - lo_jitter)

        self._shares = np.exp(rng.normal(19.0, 1.0, size=n_objects))
        self._diluted_shares = self._shares * rng.uniform(1.02, 1.12, size=n_objects)
        self._float_shares = self._shares * rng.uniform(0.6, 0.95, size=n_objects)
        self._eps = price0 / 20.0 * rng.uniform(0.5, 1.5, size=n_objects)
        self._forward_eps = self._eps * rng.uniform(0.70, 0.95, size=n_objects)
        dividend = price0 * rng.uniform(0.0, 0.05, size=n_objects)
        dividend[rng.random(n_objects) < 0.3] = 0.0
        self._dividend = dividend
        self._volume = self._shares[:, None] * np.exp(
            rng.normal(-4.0, 0.8, size=(n_objects, total))
        )
        self._consolidation = rng.uniform(1.10, 1.40, size=n_objects)

        low_base = price0 * (1.0 - rng.uniform(0.10, 0.50, size=n_objects))
        high_base = price0 * (1.0 + rng.uniform(0.10, 0.50, size=n_objects))
        self._wk_low = np.minimum(low_base[:, None], np.minimum.accumulate(self._low, axis=1))
        self._wk_high = np.maximum(high_base[:, None], np.maximum.accumulate(self._high, axis=1))

        terminated = self._ids[-n_terminated:] if n_terminated else []
        alias_pool = rng.choice(n_objects - n_terminated, size=len(terminated), replace=False)
        self._aliases = {
            sym: self._ids[int(alias)] for sym, alias in zip(terminated, alias_pool)
        }

    # ------------------------------------------------------------------ World
    @property
    def object_ids(self) -> List[str]:
        return list(self._ids)

    @property
    def num_days(self) -> int:
        return self._num_days

    @property
    def aliased_objects(self) -> Dict[str, str]:
        return dict(self._aliases)

    def alias_of(self, object_id: str) -> Optional[str]:
        return self._aliases.get(object_id)

    def _t(self, day: int) -> int:
        t = day + _PRE_DAYS
        if t < 0:
            t = 0
        if t >= self._close.shape[1]:
            raise ConfigError(f"day {day} outside generated horizon")
        return t

    def true_value(self, object_id: str, attribute: str, day: int) -> Value:
        i = self._index[object_id]
        t = self._t(day)
        if attribute == "Last price":
            return float(self._close[i, t])
        if attribute == "Previous close":
            return float(self._prev_close[i, t])
        if attribute == "Open price":
            return float(self._open[i, t])
        if attribute == "Today's high price":
            return float(self._high[i, t])
        if attribute == "Today's low price":
            return float(self._low[i, t])
        if attribute == "Today's change ($)":
            return float(self._close[i, t] - self._prev_close[i, t])
        if attribute == "Today's change (%)":
            return float(100.0 * (self._close[i, t] / self._prev_close[i, t] - 1.0))
        if attribute == "Volume":
            return float(self._volume[i, t])
        if attribute == "Market cap":
            return float(self._close[i, t] * self._shares[i])
        if attribute == "Shares outstanding":
            return float(self._shares[i])
        if attribute == "EPS":
            return float(self._eps[i])
        if attribute == "P/E":
            return float(self._close[i, t] / self._eps[i])
        if attribute == "Dividend":
            return float(self._dividend[i])
        if attribute == "Yield":
            return float(100.0 * self._dividend[i] / self._close[i, t])
        if attribute == "52-week high price":
            return float(self._wk_high[i, t])
        if attribute == "52-week low price":
            return float(self._wk_low[i, t])
        raise ConfigError(f"unknown stock attribute {attribute!r}")

    _VARIANTS: Dict[str, Tuple[str, ...]] = {
        "Dividend": ("quarterly", "semiannual"),
        "Yield": ("quarterly", "prevclose-basis"),
        "EPS": ("forward",),
        "P/E": ("forward",),
        "Market cap": ("diluted",),
        "Shares outstanding": ("diluted", "float"),
        "Volume": ("consolidated",),
        "52-week high price": ("prior-window",),
        "52-week low price": ("prior-window",),
    }

    def variants_of(self, attribute: str) -> List[str]:
        return list(self._VARIANTS.get(attribute, ()))

    def variant_value(
        self, object_id: str, attribute: str, day: int, variant: str
    ) -> Value:
        self.check_variant(attribute, variant)
        i = self._index[object_id]
        t = self._t(day)
        if attribute == "Dividend":
            div = 4.0 if variant == "quarterly" else 2.0
            return float(self._dividend[i] / div)
        if attribute == "Yield":
            if variant == "quarterly":
                return float(25.0 * self._dividend[i] / self._close[i, t])
            return float(100.0 * self._dividend[i] / self._prev_close[i, t])
        if attribute == "EPS":
            return float(self._forward_eps[i])
        if attribute == "P/E":
            return float(self._close[i, t] / self._forward_eps[i])
        if attribute == "Market cap":
            return float(self._close[i, t] * self._diluted_shares[i])
        if attribute == "Shares outstanding":
            shares = self._diluted_shares if variant == "diluted" else self._float_shares
            return float(shares[i])
        if attribute == "Volume":
            return float(self._volume[i, t] * self._consolidation[i])
        if attribute in ("52-week high price", "52-week low price"):
            arr = self._wk_high if attribute.startswith("52-week high") else self._wk_low
            return float(arr[i, max(0, t - 1)])
        raise ConfigError(f"unknown variant {variant!r} for {attribute!r}")


# --------------------------------------------------------------------- config
@dataclass
class StockConfig:
    """Scale and population parameters of the Stock collection."""

    n_objects: int = 200
    num_days: int = 21
    n_sources: int = 55
    n_gold_objects: int = 100
    n_terminated: int = 6
    seed: int = 6

    #: Per-attribute schema popularity (probability a source provides it).
    attribute_popularity: Dict[str, float] = field(
        default_factory=lambda: {
            "Last price": 0.97,
            "Previous close": 0.92,
            "Open price": 0.85,
            "Volume": 0.85,
            "Today's high price": 0.82,
            "Today's low price": 0.82,
            "Today's change (%)": 0.75,
            "Today's change ($)": 0.70,
            "Market cap": 0.70,
            "P/E": 0.62,
            "EPS": 0.60,
            "52-week high price": 0.60,
            "52-week low price": 0.60,
            "Dividend": 0.50,
            "Yield": 0.50,
            "Shares outstanding": 0.42,
        }
    )

    #: Fraction of non-authority independent sources adopting each variant.
    variant_adoption: Dict[Tuple[str, str], float] = field(
        default_factory=lambda: {
            ("Dividend", "quarterly"): 0.50,
            ("Dividend", "semiannual"): 0.12,
            ("Yield", "quarterly"): 0.50,
            ("Yield", "prevclose-basis"): 0.08,
            ("EPS", "forward"): 0.48,
            ("P/E", "forward"): 0.45,
            ("Market cap", "diluted"): 0.25,
            ("Shares outstanding", "diluted"): 0.25,
            ("Shares outstanding", "float"): 0.10,
            ("Volume", "consolidated"): 0.15,
            ("52-week high price", "prior-window"): 0.25,
            ("52-week low price", "prior-window"): 0.25,
        }
    )

    #: Probability that a tail source computes a statistical attribute on its
    #: own idiosyncratic basis, and the spread of that basis multiplier.
    basis_offset_probability: float = 0.22
    basis_offset_sigma: float = 0.10

    @classmethod
    def paper_scale(cls, seed: int = 6) -> "StockConfig":
        return cls(n_objects=1000, num_days=21, n_gold_objects=200,
                   n_terminated=10, seed=seed)

    @classmethod
    def small(cls, seed: int = 6) -> "StockConfig":
        return cls(n_objects=80, num_days=8, n_gold_objects=50,
                   n_terminated=4, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 6) -> "StockConfig":
        return cls(n_objects=30, num_days=3, n_gold_objects=20,
                   n_terminated=2, seed=seed)

    @classmethod
    def large_corpus(cls, seed: int = 6, n_objects: int = 1500) -> "StockConfig":
        """A wide, shallow corpus: many objects, two days — the one-day
        truth-serving workload (items dominate the claim count)."""
        return cls(
            n_objects=n_objects,
            num_days=2,
            n_gold_objects=min(200, n_objects),
            n_terminated=max(2, n_objects // 150),
            seed=seed,
        )

    def day_labels(self) -> Tuple[str, ...]:
        if self.num_days > len(STOCK_DAY_LABELS):
            raise ConfigError(
                f"at most {len(STOCK_DAY_LABELS)} stock days available"
            )
        return STOCK_DAY_LABELS[: self.num_days]

    def report_day(self) -> str:
        labels = self.day_labels()
        return STOCK_REPORT_DAY if STOCK_REPORT_DAY in labels else labels[-1]


_AUTHORITIES = (
    # (id, name, base error rate, semantic attrs)
    ("google_finance", "Google Finance", 0.045, ()),
    ("yahoo_finance", "Yahoo! Finance", 0.055, ()),
    ("nasdaq", "NASDAQ", 0.065, ()),
    ("msn_money", "MSN Money", 0.075, ()),
    ("bloomberg", "Bloomberg", 0.035,
     (("EPS", "forward"), ("P/E", "forward"), ("Yield", "quarterly"))),
)


def _draw_schema(rng: np.random.Generator, config: StockConfig,
                 minimum: int = 3) -> Tuple[str, ...]:
    names = [spec.name for spec in STOCK_ATTRIBUTES]
    popularity = config.attribute_popularity
    schema = [a for a in names if rng.random() < popularity.get(a, 0.5)]
    if "Last price" not in schema:
        schema.insert(0, "Last price")
    while len(schema) < minimum:
        extra = names[int(rng.integers(len(names)))]
        if extra not in schema:
            schema.append(extra)
    return tuple(a for a in names if a in schema)


def _draw_variants(rng: np.random.Generator, config: StockConfig,
                   schema: Tuple[str, ...]) -> Dict[str, str]:
    variants: Dict[str, str] = {}
    for (attribute, variant), adoption in config.variant_adoption.items():
        if attribute not in schema or attribute in variants:
            continue
        if rng.random() < adoption:
            variants[attribute] = variant
    return variants


def _draw_offsets(rng: np.random.Generator, config: StockConfig,
                  schema: Tuple[str, ...],
                  variants: Dict[str, str]) -> Dict[str, float]:
    """Idiosyncratic computation bases on statistical attributes (Table 3)."""
    offsets: Dict[str, float] = {}
    for spec in STOCK_ATTRIBUTES:
        if not spec.statistical or spec.name not in schema:
            continue
        if spec.name in variants:
            continue
        if rng.random() < config.basis_offset_probability:
            factor = float(
                np.clip(rng.normal(1.0, config.basis_offset_sigma), 0.7, 1.3)
            )
            offsets[spec.name] = factor
    return offsets


def _draw_rounding(rng: np.random.Generator, schema: Tuple[str, ...]) -> Dict[str, int]:
    rounding: Dict[str, int] = {}
    for attribute, probability, sigfigs_choices in (
        ("Volume", 0.35, (2, 3)),
        ("Market cap", 0.40, (3, 4)),
        ("Shares outstanding", 0.30, (3,)),
    ):
        if attribute in schema and rng.random() < probability:
            rounding[attribute] = int(rng.choice(sigfigs_choices))
    return rounding


def _stock_error_mix() -> Dict[ErrorReason, float]:
    return {
        ErrorReason.OUT_OF_DATE: 0.62,
        ErrorReason.UNIT_ERROR: 0.03,
        ErrorReason.PURE_ERROR: 0.35,
    }


def build_stock_profiles(world: StockWorld, config: StockConfig) -> List[SourceProfile]:
    """The 55-source population of Section 2.2, calibrated to Section 3."""
    rng = rng_for(config.seed, "stock-profiles")
    all_attrs = tuple(spec.name for spec in STOCK_ATTRIBUTES)
    profiles: List[SourceProfile] = []

    # -- five authorities (Table 4) -------------------------------------
    for source_id, name, error_rate, semantic in _AUTHORITIES:
        schema = tuple(a for a in all_attrs if rng.random() < 0.93)
        profiles.append(
            SourceProfile(
                meta=SourceMeta(source_id, name,
                                SourceCategory.FINANCIAL_AGGREGATOR,
                                is_authority=True),
                schema=schema if len(schema) >= 12 else all_attrs,
                object_coverage=float(rng.uniform(0.90, 0.98)),
                error_rate=error_rate,
                error_mix=_stock_error_mix(),
                semantic_variants={a: v for a, v in semantic},
                rounding_sigfigs={},
            )
        )

    # -- copying group 1: market-data service + 10 copiers (Table 5) ----
    # A market-data feed carries real-time quote fields only; the statistical
    # attributes are left to the long tail, which keeps semantic disagreement
    # on them competitive with the truth (the paper's low-dominance items).
    fincontent_schema = tuple(
        a for a in all_attrs
        if a in (
            "Last price", "Open price", "Today's change ($)",
            "Today's change (%)", "Volume", "Today's high price",
            "Today's low price", "Market cap", "Previous close",
        )
    )
    # The feed reports consolidated volume (all venues), a semantics the
    # gold-standard authorities do not use: its 11 mirrors form a coherent
    # wrong cluster on Volume items, which is why removing copiers raises
    # the precision of dominant values (Section 3.4).
    profiles.append(
        SourceProfile(
            meta=SourceMeta("fincontent", "FinancialContent",
                            SourceCategory.FINANCIAL_NEWS),
            schema=fincontent_schema,
            object_coverage=1.0,
            error_rate=0.08,
            error_mix=_stock_error_mix(),
            semantic_variants={"Volume": "consolidated"},
        )
    )
    for k in range(10):
        profiles.append(
            SourceProfile(
                meta=SourceMeta(f"fincontent_copier_{k:02d}",
                                f"FC Affiliate {k + 1}",
                                SourceCategory.FINANCIAL_NEWS,
                                copies_from="fincontent", copy_rate=0.99),
                schema=fincontent_schema,
                object_coverage=1.0,
                error_rate=0.08,
                error_mix=_stock_error_mix(),
                semantic_variants={"Volume": "consolidated"},
            )
        )

    # -- copying group 2: two merged sites, accuracy ~.75 ----------------
    merged_schema = _draw_schema(rng, config, minimum=8)
    merged_variants = {"Dividend": "quarterly", "Yield": "quarterly"}
    merged_variants = {a: v for a, v in merged_variants.items() if a in merged_schema}
    profiles.append(
        SourceProfile(
            meta=SourceMeta("merged_a", "MergedSite A", SourceCategory.THIRD_PARTY),
            schema=merged_schema,
            object_coverage=0.97,
            error_rate=0.16,
            error_mix=_stock_error_mix(),
            semantic_variants=merged_variants,
        )
    )
    profiles.append(
        SourceProfile(
            meta=SourceMeta("merged_b", "MergedSite B", SourceCategory.THIRD_PARTY,
                            copies_from="merged_a", copy_rate=0.995),
            schema=merged_schema,
            object_coverage=0.97,
            error_rate=0.16,
            error_mix=_stock_error_mix(),
            semantic_variants=merged_variants,
        )
    )

    # -- the stale StockSmart source -------------------------------------
    dynamic_attrs = tuple(
        a for a in all_attrs
        if a not in ("Shares outstanding", "EPS", "Dividend")
    )
    profiles.append(
        SourceProfile(
            meta=SourceMeta("stocksmart", "StockSmart", SourceCategory.THIRD_PARTY),
            schema=dynamic_attrs,
            object_coverage=0.95,
            error_rate=0.05,
            error_mix=_stock_error_mix(),
            frozen_at_day=-30,
        )
    )

    # -- long tail of independent sources --------------------------------
    confused_sources = 0
    remaining = config.n_sources - len(profiles)
    if remaining < 0:
        raise ConfigError(
            f"n_sources={config.n_sources} too small for the fixed population"
        )
    volatile_picks = set(rng.choice(remaining, size=min(4, remaining), replace=False))
    low_quality_picks = set(rng.choice(remaining, size=min(3, remaining), replace=False))
    for k in range(remaining):
        schema = _draw_schema(rng, config)
        if k in low_quality_picks:
            error_rate = float(rng.uniform(0.25, 0.46))
        else:
            error_rate = float(rng.uniform(0.02, 0.15))
        variants = _draw_variants(rng, config, schema)
        offsets = _draw_offsets(rng, config, schema, variants)
        confusions: Dict[str, str] = {}
        if confused_sources < 6 and rng.random() < 0.2 and world.aliased_objects:
            confusions = dict(world.aliased_objects)
            confused_sources += 1
        volatile_days = frozenset()
        volatile_factor = 1.0
        if k in volatile_picks:
            # Dedicated stream: the population must not depend on num_days.
            vol_rng = rng_for(config.seed, "stock-volatile", k)
            n_spike = max(1, config.num_days // 5)
            volatile_days = frozenset(
                int(d)
                for d in vol_rng.choice(config.num_days, size=n_spike, replace=False)
            )
            volatile_factor = float(vol_rng.uniform(4.0, 8.0))
        profiles.append(
            SourceProfile(
                meta=SourceMeta(f"stockweb_{k:02d}", f"StockWeb {k + 1}",
                                SourceCategory.THIRD_PARTY),
                schema=schema,
                object_coverage=float(rng.uniform(0.90, 1.0)),
                error_rate=error_rate,
                error_mix=_stock_error_mix(),
                semantic_variants=variants,
                basis_offsets=offsets,
                instance_confusions=confusions,
                rounding_sigfigs=_draw_rounding(rng, schema),
                volatile_days=volatile_days,
                volatile_factor=volatile_factor,
            )
        )

    return _attach_local_schemas(profiles, config)


def _attach_local_schemas(
    profiles: List[SourceProfile], config: StockConfig
) -> List[SourceProfile]:
    """Assign local attribute spellings and tail attributes (Fig 1, Table 1)."""
    rng = rng_for(config.seed, "stock-schemas")
    n_tail = 137  # 153 global attributes - 16 considered (Table 1)
    tail_names = [f"Stat attribute {i + 1}" for i in range(n_tail)]
    tail_popularity = 0.30 / (1.0 + 0.10 * np.arange(n_tail))
    tail_synonyms = {
        name: (name, f"{name} (alt)") for name in tail_names
    }
    finished: List[SourceProfile] = []
    for profile in profiles:
        local_names = {}
        for attribute in profile.schema:
            pool = STOCK_SYNONYMS.get(attribute, (attribute,))
            local_names[attribute] = str(pool[int(rng.integers(len(pool)))])
        tail = tuple(
            name for name, p in zip(tail_names, tail_popularity)
            if rng.random() < p
        )
        full = profile.schema + tail
        for name in tail:
            pool = tail_synonyms[name]
            local_names[name] = str(pool[int(rng.integers(len(pool)))])
        finished.append(
            SourceProfile(
                meta=profile.meta,
                schema=profile.schema,
                full_schema=full,
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


def generate_stock_collection(config: Optional[StockConfig] = None) -> DomainCollection:
    """Generate the full Stock collection: snapshots, profiles, gold standards."""
    config = config or StockConfig()
    world = StockWorld(
        n_objects=config.n_objects,
        num_days=config.num_days,
        seed=config.seed,
        n_terminated=config.n_terminated,
    )
    profiles = build_stock_profiles(world, config)
    labels = config.day_labels()
    series = generate_series(DOMAIN, world, profiles, labels, seed=config.seed)

    rng = rng_for(config.seed, "stock-gold-objects")
    n_gold = min(config.n_gold_objects, config.n_objects)
    picks = rng.choice(config.n_objects, size=n_gold, replace=False)
    gold_objects = [world.object_ids[int(i)] for i in picks]

    gold_by_day = {
        snapshot.day: build_gold_standard(snapshot, gold_objects, min_providers=3)
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
