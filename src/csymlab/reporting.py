"""Uniform check bookkeeping for verification reports."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "skip"
    residual: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class CheckList:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, residual=None, detail: str = "") -> Check:
        c = Check(name, "pass" if passed else "fail", residual, detail)
        self.checks.append(c)
        return c

    def add_residual(self, name: str, residual: float, bound: float, detail: str = "") -> Check:
        return self.add(name, float(residual) <= bound, residual, detail)

    def skip(self, name: str, reason: str) -> Check:
        c = Check(name, "skip", None, reason)
        self.checks.append(c)
        return c

    def extend(self, other: "CheckList", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.status, c.residual, c.detail))

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_list(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]

    def __iter__(self):
        return iter(self.checks)
