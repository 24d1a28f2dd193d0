"""Verification reports and their JSON form.

The JSON field order is fixed and byte-deterministic for fixed inputs;
``wall_ms`` is informational and excluded from determinism guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RESIDUAL_SAMPLE_LIMIT = 8


@dataclass
class Report:
    suite: str
    n: int
    cutoff: int
    status: str = "PASS"           # PASS | FAIL | SKIPPED
    residual_count: int = 0
    residual_sample: list = field(default_factory=list)
    truncated: bool = False
    wall_ms: int = 0
    note: str = ""

    def fail(self, residuals: list):
        self.residual_count += len(residuals)
        room = RESIDUAL_SAMPLE_LIMIT - len(self.residual_sample)
        self.residual_sample.extend(str(r) for r in residuals[:room])
        if residuals:
            self.status = "FAIL"

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "n": self.n,
            "cutoff": self.cutoff,
            "status": self.status,
            "residual_count": self.residual_count,
            "residual_sample": self.residual_sample,
            "truncated": self.truncated,
            "wall_ms": self.wall_ms,
        }
        if self.note:
            out["note"] = self.note
        return out

    def line(self) -> str:
        extra = f" [{self.note}]" if self.note else ""
        return (f"{self.status:7s} {self.suite} (n={self.n}, cutoff={self.cutoff}, "
                f"residuals={self.residual_count}, {self.wall_ms} ms){extra}")
