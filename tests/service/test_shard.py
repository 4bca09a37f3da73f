"""Sweep expansion + sharding: determinism, partition laws, fidelity."""

import pytest

from repro.engine.executor import execute
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service.shard import (
    expand_specs,
    expand_sweep,
    parse_shard,
    shard_specs,
)


@pytest.fixture(scope="module")
def sweep_scenario():
    @scenario("_sweepable", params={"n": 1, "gain": 1.0})
    def _sweepable(n=1, gain=1.0):
        rows = [{"i": i, "value": i * gain} for i in range(n)]
        return {"rows": rows, "verdict": {"total": n * gain, "ok": True}}

    yield "_sweepable"
    unregister("_sweepable")


BASE = ScenarioSpec("_sweepable", {"n": 1, "gain": 1.0})
AXES = {"n": [1, 2, 3], "gain": [1.0, 2.0]}


class TestExpansion:
    def test_cross_product_size_and_order(self):
        specs = expand_sweep(BASE, AXES)
        assert len(specs) == 6
        # sorted axis names (gain before n), value order preserved
        assert [(s.params_dict()["gain"], s.params_dict()["n"])
                for s in specs] == [
            (1.0, 1), (1.0, 2), (1.0, 3), (2.0, 1), (2.0, 2), (2.0, 3),
        ]

    def test_expansion_is_deterministic_under_axis_ordering(self):
        forward = expand_sweep(BASE, {"n": [1, 2], "gain": [3.0]})
        backward = expand_sweep(BASE, {"gain": [3.0], "n": [1, 2]})
        assert [s.content_hash for s in forward] == [
            s.content_hash for s in backward
        ]

    def test_hashes_are_unique_across_the_grid(self):
        hashes = {s.content_hash for s in expand_sweep(BASE, AXES)}
        assert len(hashes) == 6
        # the grid point matching the base params hashes like the base:
        # override-to-same-value is identity, so caching still applies
        assert BASE.content_hash in hashes

    def test_tags_and_seed_survive_expansion(self):
        base = ScenarioSpec("_sweepable", {"n": 1}, seed=9, tags=("x",))
        for spec in expand_sweep(base, {"n": [4, 5]}):
            assert spec.seed == 9 and spec.tags == frozenset({"x"})

    def test_no_axes_is_identity(self):
        assert expand_sweep(BASE, {}) == [BASE]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            expand_sweep(BASE, {"n": []})

    def test_expand_specs_preserves_spec_order(self):
        other = ScenarioSpec("_sweepable", {"n": 9, "gain": 1.0})
        specs = expand_specs([BASE, other], {"gain": [1.0, 2.0]})
        assert [s.params_dict()["n"] for s in specs] == [1, 1, 9, 9]


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize("text", ["4/4", "-1/4", "0/0", "1", "a/b"])
    def test_parse_shard_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    def test_shards_partition_the_expansion(self):
        specs = expand_sweep(BASE, AXES)
        total = 4
        shards = [shard_specs(specs, i, total) for i in range(total)]
        flattened = [s for shard in shards for s in shard]
        assert sorted(s.content_hash for s in flattened) == sorted(
            s.content_hash for s in specs
        )
        seen = set()
        for shard in shards:
            hashes = {s.content_hash for s in shard}
            assert not (hashes & seen)
            seen |= hashes

    def test_round_robin_balances_within_one(self):
        specs = expand_sweep(BASE, {"n": list(range(1, 11))})
        sizes = [len(shard_specs(specs, i, 3)) for i in range(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_specs_leaves_empties(self):
        sizes = [len(shard_specs([BASE], i, 4)) for i in range(4)]
        assert sizes == [1, 0, 0, 0]


class TestMergeFidelity:
    def test_sharded_sweep_merges_identical_to_serial(self, sweep_scenario):
        specs = expand_sweep(BASE, AXES)
        serial = execute(specs, backend="serial")

        total = 4
        merged = [
            result
            for i in range(total)
            for result in execute(shard_specs(specs, i, total),
                                  backend="serial").results
        ]

        def by_hash(results):
            return [r.comparable_payload()
                    for r in sorted(results, key=lambda r: r.spec_hash)]

        assert len(merged) == len(serial)
        assert by_hash(merged) == by_hash(serial)
