"""Verification reports and their JSON form.

A :class:`Report` is one suite's verdict at one (n, cutoff) point.
``to_dict`` fixes the JSON field order, so a report is byte-deterministic
for fixed inputs; ``wall_ms`` is informational and excluded from that
guarantee.  ``Report`` is a plain class, not a dataclass: importing
``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and eight more modules
at every ``qball`` start-up.
"""

from __future__ import annotations

RESIDUAL_SAMPLE_LIMIT = 8


class Report:
    def __init__(self, suite: str, n: int, cutoff: int):
        self.suite = suite
        self.n = n
        self.cutoff = cutoff
        self.status = "PASS"           # PASS | FAIL | SKIPPED
        self.residual_count = 0
        self.residual_sample = []
        self.truncated = False
        self.wall_ms = 0
        self.note = ""

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
