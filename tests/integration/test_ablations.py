"""Integration tests: every ablation reproduces at its registered params.

Each ``ablation``-tagged scenario runs once through the engine exactly
as ``repro run`` would, and must end ``ok`` with every boolean verdict
holding (negative controls, listed in ``expected_false``, excepted).
"""

import pytest

from repro.engine import registry
from repro.engine.executor import run_spec

ABLATIONS = [entry.name for entry in registry.select(tags=["ablation"])]


@pytest.mark.parametrize("name", ABLATIONS)
def test_ablation_reproduces_at_registered_params(name):
    result = run_spec(registry.get(name).spec)
    assert result.ok, f"{name} {result.status}: {result.error}"
    assert result.reproduced is True, result.verdict
