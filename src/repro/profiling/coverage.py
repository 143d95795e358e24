"""Attribute coverage (Section 2.2, Figure 1, Table 1).

Figure 1 plots, for each threshold in {5, 10, 20, 30, 40, 50}, the percentage
of *global* attributes provided by more than that many sources.  The paper
computes this over the full matched schema (153 global attributes for Stock,
15 for Flight), so this module works off the source *profiles'* full schemas
rather than the generated claims (claims are only generated for the
considered attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.datagen.profiles import SourceProfile
from repro.normalize.schema import SchemaMatcher, match_statistics

#: The x-axis of Figure 1.
COVERAGE_THRESHOLDS: Sequence[int] = (5, 10, 20, 30, 40, 50)


@dataclass
class AttributeCoverageProfile:
    """Provider counts per global attribute, plus schema-size statistics."""

    providers_per_attribute: Dict[str, int]
    num_sources: int
    num_local_attributes: int

    def fraction_above(self, threshold: int) -> float:
        """Fraction of attributes provided by more than ``threshold`` sources."""
        if not self.providers_per_attribute:
            return 0.0
        hits = sum(
            1 for count in self.providers_per_attribute.values() if count > threshold
        )
        return hits / len(self.providers_per_attribute)

    def series(self, thresholds: Sequence[int] = COVERAGE_THRESHOLDS) -> List[float]:
        """The Figure 1 series for this domain."""
        return [self.fraction_above(t) for t in thresholds]

    def fraction_below_quarter(self) -> float:
        """Fraction of attributes provided by < 25% of the sources."""
        if not self.providers_per_attribute:
            return 0.0
        cutoff = 0.25 * self.num_sources
        hits = sum(
            1 for count in self.providers_per_attribute.values() if count < cutoff
        )
        return hits / len(self.providers_per_attribute)


def attribute_coverage(profiles: Sequence[SourceProfile]) -> AttributeCoverageProfile:
    """Provider counts per global attribute across the source population."""
    counts: Dict[str, int] = {}
    local_names = set()
    for profile in profiles:
        for attribute in profile.effective_schema():
            counts[attribute] = counts.get(attribute, 0) + 1
            local_names.add(profile.local_label(attribute).lower())
    return AttributeCoverageProfile(
        providers_per_attribute=counts,
        num_sources=len(profiles),
        num_local_attributes=len(local_names),
    )


def build_schema_matcher(profiles: Sequence[SourceProfile]) -> SchemaMatcher:
    """A matcher resolving every local spelling used by the population."""
    matcher = SchemaMatcher()
    registered = set()
    for profile in profiles:
        for attribute in profile.effective_schema():
            if attribute not in registered:
                matcher.register_global(attribute)
                registered.add(attribute)
    for profile in profiles:
        for attribute in profile.effective_schema():
            local = profile.local_label(attribute)
            if local != attribute:
                matcher.register_synonym(local, attribute)
    return matcher


def schema_match_statistics(profiles: Sequence[SourceProfile]) -> Dict[str, int]:
    """(#local, #global) attribute counts as reported in Table 1."""
    matcher = build_schema_matcher(profiles)
    local_schemas = {
        profile.source_id: [
            profile.local_label(a) for a in profile.effective_schema()
        ]
        for profile in profiles
    }
    n_local, n_global = match_statistics(matcher, local_schemas)
    return {"local": n_local, "global": n_global}
