"""Golden digests of simulated results.

Simulated statistics are deterministic, so every result a workload
produces is checked exactly against a digest recorded by
``make_golden.py`` on the reference (kernels disabled) replay path.  A
missing or different digest fails the op; ``corrupt=True`` flips every
expected digest so the self-test can prove mismatches are caught.
"""

from __future__ import annotations

import json

from measure import ROOT, digest

GOLDEN_DIR = ROOT / "perfbench" / "golden"


class Golden:
    def __init__(self, workload: str, corrupt: bool = False):
        with open(GOLDEN_DIR / f"{workload}.json") as source:
            self.table: dict[str, str] = json.load(source)
        self.corrupt = corrupt

    def check(self, key: str, payload) -> bool:
        expected = self.table.get(key)
        if expected is None:
            return False
        if self.corrupt:
            expected = expected[::-1] + "!"
        return digest(payload) == expected
