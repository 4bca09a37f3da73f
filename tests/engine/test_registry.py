"""Registry: discovery, tag selection, and the unified namespace."""

import pytest

from repro.engine import registry
from repro.engine.registry import scenario


@pytest.fixture
def temp_scenario():
    @scenario("_tmp_scn", tags=("_tmp_tag",), params={"n": 2})
    def _tmp(n=2):
        return {"rows": [{"n": n}], "verdict": {"ok": True}}

    yield registry.get("_tmp_scn")
    registry.unregister("_tmp_scn")


class TestAutoDiscovery:
    def test_every_scenario_bearing_module_is_discovered(self):
        """A forgotten registry entry can no longer drop scenarios.

        Scans src/repro for the decorator marker independently of the
        registry's own scan: any module applying @scenario must be in
        the discovered set, and importing the discovered set must
        register at least one scenario per module.
        """
        import re
        from pathlib import Path

        import repro

        discovered = set(registry.discover_scenario_modules())
        package_root = Path(repro.__file__).parent
        marker = re.compile(r"^\s*@(?:registry\.)?scenario\(", re.M)
        for path in package_root.rglob("*.py"):
            if not marker.search(path.read_text()):
                continue
            parts = ("repro",) + path.relative_to(
                package_root
            ).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            assert ".".join(parts) in discovered

        modules_with_scenarios = {
            s.module for s in registry.all_scenarios()
        }
        for module in discovered:
            assert module in modules_with_scenarios, (
                f"{module} applies @scenario but registered nothing"
            )

    def test_discovery_is_memoized(self):
        assert registry.discover_scenario_modules() is (
            registry.discover_scenario_modules()
        )


class TestDiscovery:
    def test_all_workloads_registered(self):
        names = {s.name for s in registry.all_scenarios()}
        assert {f"E{i}" for i in range(1, 19)} <= names
        assert {f"A{i}" for i in range(1, 10)} <= names
        assert "DSE" in names

    def test_natural_ordering(self):
        names = [s.name for s in registry.select(tags=["experiments"])]
        assert names == [f"E{i}" for i in range(1, 19)]

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            registry.get("E99")


class TestSelection:
    def test_tag_selection_ablations(self):
        names = [s.name for s in registry.select(tags=["ablation"])]
        assert names == [f"A{i}" for i in range(1, 10)]

    def test_tag_selection_any_match(self):
        noc = {s.name for s in registry.select(tags=["noc"])}
        assert "A1" in noc and "E10" in noc
        union = {s.name for s in registry.select(tags=["noc", "rtos"])}
        assert noc < union and "A7" in union

    def test_name_selection_and_union_with_tags(self):
        picked = {s.name for s in registry.select(tags=["rtos"], names=["E1"])}
        assert picked == {"A7", "E1"}

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError, match="E99"):
            registry.select(names=["E99"])

    def test_smoke_tag_is_fast_subset(self):
        smoke = registry.select(tags=["smoke"])
        assert 10 <= len(smoke) < len(registry.all_scenarios())

    def test_no_filter_returns_everything(self):
        assert registry.select() == registry.all_scenarios()


class TestRegistration:
    def test_decorator_registers_and_returns_fn(self, temp_scenario):
        assert temp_scenario.spec.name == "_tmp_scn"
        assert temp_scenario.fn(n=3) == {
            "rows": [{"n": 3}],
            "verdict": {"ok": True},
        }

    def test_conflicting_reregistration_raises(self, temp_scenario):
        with pytest.raises(ValueError, match="already registered"):
            @scenario("_tmp_scn")
            def _other():
                return {}

    def test_analysis_modules_register_their_scenarios(self):
        from repro.analysis import ablations, experiments

        for module, count in ((experiments, 18), (ablations, 9)):
            entries = registry.registered(module.__name__)
            assert len(entries) == count
            for entry in entries:
                assert registry.get(entry.name) is entry
                assert getattr(module, entry.fn.__name__) is entry.fn
