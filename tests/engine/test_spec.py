"""Spec hashing: stability, canonicalization, and seed derivation."""

import hashlib
import pickle

import pytest

from repro.engine.spec import ScenarioSpec


class TestContentHash:
    def test_hash_is_stable_across_instances(self):
        a = ScenarioSpec("x", {"alpha": 1, "beta": [1, 2]}, seed=3)
        b = ScenarioSpec("x", {"alpha": 1, "beta": [1, 2]}, seed=3)
        assert a.content_hash == b.content_hash
        assert len(a.content_hash) == 64

    def test_param_order_does_not_matter(self):
        a = ScenarioSpec("x", {"alpha": 1, "beta": 2})
        b = ScenarioSpec("x", {"beta": 2, "alpha": 1})
        assert a.content_hash == b.content_hash

    def test_lists_and_tuples_hash_identically(self):
        a = ScenarioSpec("x", {"loads": [0.1, 0.2]})
        b = ScenarioSpec("x", {"loads": (0.1, 0.2)})
        assert a.content_hash == b.content_hash

    def test_nested_dicts_are_canonicalized(self):
        a = ScenarioSpec("x", {"cfg": {"b": 2, "a": 1}})
        b = ScenarioSpec("x", {"cfg": {"a": 1, "b": 2}})
        assert a.content_hash == b.content_hash

    def test_name_params_seed_all_change_hash(self):
        base = ScenarioSpec("x", {"alpha": 1}, seed=0)
        assert ScenarioSpec("y", {"alpha": 1}).content_hash != base.content_hash
        assert base.with_params(alpha=2).content_hash != base.content_hash
        assert base.with_seed(1).content_hash != base.content_hash

    def test_tags_do_not_change_hash(self):
        a = ScenarioSpec("x", {"alpha": 1}, tags={"one"})
        b = ScenarioSpec("x", {"alpha": 1}, tags={"two", "three"})
        assert a.content_hash == b.content_hash

    def test_known_hash_pinned(self):
        # Canary: if canonicalization ever changes, caches silently
        # re-key — fail loudly instead.
        spec = ScenarioSpec("E0", {"alpha": 1, "loads": (0.5, 1.0)}, seed=7)
        assert spec.canonical_json() == (
            '{"name":"E0","params":{"alpha":1,"loads":[0.5,1.0]},"seed":7}'
        )

    def test_pair_list_does_not_collide_with_dict(self):
        pairs = ScenarioSpec("x", {"v": [("a", 1), ("b", 2)]})
        mapping = ScenarioSpec("x", {"v": {"a": 1, "b": 2}})
        assert pairs.params_dict()["v"] == (("a", 1), ("b", 2))
        assert mapping.params_dict()["v"] == {"a": 1, "b": 2}
        assert pairs.content_hash != mapping.content_hash

    def test_non_jsonable_params_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec("x", {"fn": object()})


class TestMemoizedHash:
    """``content_hash`` is computed once and kept outside the fields."""

    SPEC = ("x", {"cfg": {"b": [1, {"c": 2}], "a": 1}, "loads": (0.1, 0.2)})

    def test_memoized_value_is_the_digest(self):
        spec = ScenarioSpec(*self.SPEC, seed=4)
        expected = hashlib.sha256(spec.canonical_json().encode()).hexdigest()
        assert spec.content_hash == expected
        assert spec.content_hash == expected  # the memoized read

    def test_read_hash_does_not_change_identity(self):
        read = ScenarioSpec(*self.SPEC, seed=4)
        _ = read.content_hash
        unread = ScenarioSpec(*self.SPEC, seed=4)
        assert read == unread
        assert hash(read) == hash(unread)

    def test_round_trips_keep_the_hash(self):
        spec = ScenarioSpec(*self.SPEC, seed=4, tags={"t"})
        digest = spec.content_hash
        assert ScenarioSpec.from_dict(spec.to_dict()).content_hash == digest
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.content_hash == digest


class TestSpecBehavior:
    def test_spec_is_hashable_and_frozen(self):
        spec = ScenarioSpec("x", {"alpha": 1})
        assert spec in {spec}
        with pytest.raises(AttributeError):
            spec.name = "y"

    def test_params_roundtrip(self):
        params = {"alpha": 1, "nested": {"b": [1, 2]}, "s": "str"}
        spec = ScenarioSpec("x", params)
        out = spec.params_dict()
        assert out["alpha"] == 1
        assert out["nested"] == {"b": (1, 2)}
        assert out["s"] == "str"

    def test_derived_seed_deterministic_and_seed_sensitive(self):
        a = ScenarioSpec("x", {"alpha": 1}, seed=0)
        assert a.derived_seed() == ScenarioSpec("x", {"alpha": 1}).derived_seed()
        assert a.derived_seed() != a.with_seed(99).derived_seed()

    def test_dict_roundtrip(self):
        spec = ScenarioSpec("x", {"alpha": 1}, seed=2, tags={"t1", "t2"})
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash == spec.content_hash

    def test_matches_tags(self):
        spec = ScenarioSpec("x", tags={"noc", "smoke"})
        assert spec.matches(None)
        assert spec.matches(["noc", "other"])
        assert not spec.matches(["economics"])
