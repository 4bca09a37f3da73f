"""Output checks: golden digests for the paper suite, parity for the rest.

A result's digest is the sha256 of the canonical JSON of its status,
rows and verdict.  Columns that record host time rather than a modelled
quantity are left out, because they differ from run to run; they are
declared in :data:`HOST_TIME_COLUMNS`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: scenario -> row columns measured in host time (excluded from digests).
HOST_TIME_COLUMNS = {"A4": ("map_time_ms",)}


def output_digest(result: Mapping) -> str:
    """Digest of one result dict (``ScenarioResult.to_dict`` shape)."""
    drop = HOST_TIME_COLUMNS.get(result["name"], ())
    rows = [
        {k: v for k, v in row.items() if k not in drop}
        for row in result.get("rows") or ()
    ]
    payload = json.dumps(
        {"status": result.get("status"), "rows": rows,
         "verdict": result.get("verdict") or {}},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def failed_verdicts(result: Mapping) -> List[str]:
    """Boolean verdict keys that are False and not negative controls."""
    allowed = set(result.get("expected_false") or ())
    return [
        key for key, value in (result.get("verdict") or {}).items()
        if value is False and key not in allowed
    ]


def load_golden() -> Dict[str, Dict[str, str]]:
    """Workload seed (as a string) -> scenario -> digest."""
    return json.loads(GOLDEN_PATH.read_text())["seeds"]


def suite_failures(
    passes: Iterable[List[Mapping]],
    golden: Mapping[str, str] | None,
) -> List[str]:
    """One line per failed result over every pass of a paper-suite run.

    A result fails when it did not finish ``ok``, when a verdict
    boolean outside ``expected_false`` is False, when its digest
    differs from the first pass's, or when it differs from ``golden``
    (the committed digests for this workload seed, if there are any).
    A golden scenario absent from a pass fails as missing.
    """
    failures: List[str] = []
    first: Dict[str, str] = {}
    for index, results in enumerate(passes):
        seen = set()
        for result in results:
            name = result["name"]
            seen.add(name)
            where = f"pass {index} {name}"
            if result.get("status") != "ok":
                failures.append(f"{where}: status {result.get('status')}")
                continue
            bad = failed_verdicts(result)
            if bad:
                failures.append(f"{where}: verdict false: {', '.join(bad)}")
                continue
            digest = output_digest(result)
            if first.setdefault(name, digest) != digest:
                failures.append(f"{where}: output differs from pass 0")
            elif golden is not None and golden.get(name) != digest:
                failures.append(f"{where}: digest differs from golden.json")
        for name in sorted(set(golden or ()) - seen):
            failures.append(f"pass {index} {name}: missing from the run")
    return failures


def parity_failures(
    results: Iterable[Mapping],
    reference: Mapping[str, str],
) -> List[str]:
    """One line per streamed result that does not match the in-process
    reference digest of its spec (``reference`` is keyed by spec hash)."""
    failures: List[str] = []
    for result in results:
        key = result["spec_hash"]
        if result.get("status") != "ok":
            failures.append(f"{key[:12]}: status {result.get('status')}")
        elif key not in reference:
            failures.append(f"{key[:12]}: result for a spec never submitted")
        elif output_digest(result) != reference[key]:
            failures.append(
                f"{key[:12]}: output differs from in-process run_spec"
            )
    return failures
