"""Claim-generation machinery: determinism, coverage, copying, errors."""

import numpy as np
import pytest

from repro.core.records import ErrorReason
from repro.datagen.generator import (
    _SnapshotMemo,
    covered_objects_for,
    generate_snapshot,
    rng_for,
)
from repro.datagen.stock import StockConfig, StockWorld, build_stock_profiles


@pytest.fixture(scope="module")
def world():
    return StockWorld(n_objects=30, num_days=3, seed=1, n_terminated=2)


@pytest.fixture(scope="module")
def profiles(world):
    return build_stock_profiles(world, StockConfig.tiny(seed=1))


class TestRng:
    def test_deterministic(self):
        a = rng_for(1, "x").random(5)
        b = rng_for(1, "x").random(5)
        assert np.allclose(a, b)

    def test_distinct_streams(self):
        a = rng_for(1, "x").random(5)
        b = rng_for(1, "y").random(5)
        assert not np.allclose(a, b)


class TestCoverage:
    def test_full_coverage(self, world, profiles):
        profile = profiles[0]
        if profile.object_coverage >= 1.0 and profile.covered_objects is None:
            assert covered_objects_for(profile, world, 1) == world.object_ids

    def test_coverage_stable_across_calls(self, world, profiles):
        for profile in profiles[:5]:
            first = covered_objects_for(profile, world, 1)
            second = covered_objects_for(profile, world, 1)
            assert first == second


class TestSnapshotGeneration:
    def test_deterministic_snapshots(self, world, profiles):
        a = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        b = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        assert a.num_claims == b.num_claims
        for item, source, claim in a.iter_claims():
            other = b.claims_on(item)[source]
            assert other.value == claim.value

    def test_different_seeds_differ(self, world, profiles):
        a = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        b = generate_snapshot("stock", world, profiles, 0, "d0", seed=6)
        differing = sum(
            1
            for item, source, claim in a.iter_claims()
            if b.claims_on(item).get(source) is not None
            and b.claims_on(item)[source].value != claim.value
        )
        assert differing > 0

    def test_copiers_mirror_originals(self, world, profiles):
        snapshot = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        original = snapshot.claims_by("fincontent")
        copier = snapshot.claims_by("fincontent_copier_00")
        shared = set(original) & set(copier)
        assert shared
        same = sum(
            1 for item in shared if original[item].value == copier[item].value
        )
        assert same / len(shared) > 0.95

    def test_claims_carry_reason_tags(self, world, profiles):
        snapshot = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        reasons = {
            claim.reason
            for _i, _s, claim in snapshot.iter_claims()
            if claim.reason is not None
        }
        assert ErrorReason.SEMANTICS_AMBIGUITY in reasons
        assert ErrorReason.OUT_OF_DATE in reasons

    def test_stale_source_frozen_across_days(self, world, profiles):
        day0 = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        day2 = generate_snapshot("stock", world, profiles, 2, "d2", seed=5)
        stale0 = day0.claims_by("stocksmart")
        stale2 = day2.claims_by("stocksmart")
        shared = set(stale0) & set(stale2)
        assert shared
        # A frozen source reports the same (stale) world on both days.
        same = sum(1 for i in shared if stale0[i].value == stale2[i].value)
        assert same / len(shared) > 0.9

    def test_variant_claims_consistent_across_sources(self, world, profiles):
        """Two adopters of the same variant report the same wrong value."""
        adopters = [
            p.source_id
            for p in profiles
            if p.semantic_variants.get("Dividend") == "quarterly"
        ]
        if len(adopters) < 2:
            pytest.skip("tiny profile draw produced < 2 quarterly adopters")
        snapshot = generate_snapshot("stock", world, profiles, 0, "d0", seed=5)
        a, b = adopters[:2]
        claims_a = snapshot.claims_by(a)
        claims_b = snapshot.claims_by(b)
        aliased = set(world.aliased_objects)  # instance ambiguity overrides
        shared = [
            i
            for i in set(claims_a) & set(claims_b)
            if i.attribute == "Dividend" and i.object_id not in aliased
        ]
        assert shared
        for item in shared:
            assert claims_a[item].value == pytest.approx(claims_b[item].value)


def _reading(claim):
    """A claim's exact reading: what its ``repr`` and digest lines show."""
    value = claim.value
    return (type(value), repr(value), repr(claim.granularity), claim.reason)


class TestClaimInterning:
    """Each snapshot holds one ``Claim`` object per distinct exact reading."""

    @pytest.mark.parametrize("domain", ["stock", "flight"])
    def test_one_claim_object_per_distinct_reading(
        self, domain, stock_collection, flight_collection
    ):
        collection = {"stock": stock_collection, "flight": flight_collection}
        for snapshot in collection[domain].series:
            objects = {id(c): c for _item, _src, c in snapshot.iter_claims()}
            readings = {_reading(c) for c in objects.values()}
            assert len(objects) == len(readings) < snapshot.num_claims

    def test_readings_that_compare_equal_stay_apart(self, world):
        memo = _SnapshotMemo(world)
        zero, negative_zero = memo.claim(0.0, None, None), memo.claim(-0.0, None, None)
        assert zero is not negative_zero
        assert repr(zero.value) == "0.0" and repr(negative_zero.value) == "-0.0"
        assert memo.claim(0.0, None, None) is zero
        assert memo.claim(-0.0, None, None) is negative_zero
        assert memo.claim(1, None, None) is not memo.claim(1.0, None, None)
        assert memo.claim(1.0, 0.1, None) is not memo.claim(1.0, None, None)
        copied = memo.claim(1.0, None, ErrorReason.COPIED)
        assert copied is not memo.claim(1.0, None, None)
        assert memo.claim(1.0, None, ErrorReason.COPIED) is copied
