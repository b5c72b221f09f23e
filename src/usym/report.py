"""Structured pass/fail reports shared by the axiom checkers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CheckReport:
    items: list[CheckItem]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)
