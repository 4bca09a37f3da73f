"""Unit tests for deterministic random streams."""

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_same_seed_reproduces_draws(self):
        a = RandomStreams(seed=42).get("traffic")
        b = RandomStreams(seed=42).get("traffic")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=42)
        a = [streams.get("x").random() for _ in range(5)]
        b = [streams.get("y").random() for _ in range(5)]
        assert a != b

    def test_adding_consumer_does_not_perturb_existing(self):
        """The whole point: draws of stream 'a' are identical whether or
        not stream 'b' exists."""
        solo = RandomStreams(seed=7)
        solo_draws = [solo.get("a").random() for _ in range(5)]

        mixed = RandomStreams(seed=7)
        mixed.get("b").random()  # interleaved consumer
        mixed_draws = [mixed.get("a").random() for _ in range(5)]
        assert solo_draws == mixed_draws

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("s").random()
        b = RandomStreams(seed=2).get("s").random()
        assert a != b
