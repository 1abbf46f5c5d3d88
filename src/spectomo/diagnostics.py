"""Structured warning channel.

Every non-fatal condition in the toolkit is reported as a `Diagnostic`
(code + message + numeric payload) wrapped in a `DiagnosticWarning`, so it
can be surfaced by the normal `warnings` machinery, asserted on in tests,
or captured wholesale by pipeline drivers via `capture()`.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    payload: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class DiagnosticWarning(UserWarning):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def emit(code: str, message: str, **payload) -> Diagnostic:
    """Emit a diagnostic through the warnings channel and return it."""
    diag = Diagnostic(code, message, payload)
    warnings.warn(DiagnosticWarning(diag), stacklevel=3)
    return diag


@contextmanager
def capture():
    """Collect diagnostics emitted inside the block.

    Yields a list that is populated (in emission order) when the block
    exits. Every other warning is re-raised, in order, once the block exits,
    so the caller's filters (pytest's "error" among them) still apply to it.
    """
    collected: list[Diagnostic] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield collected
    for item in caught:
        if isinstance(item.message, DiagnosticWarning):
            collected.append(item.message.diagnostic)
        else:
            warnings.warn_explicit(item.message, item.category, item.filename, item.lineno, source=item.source)


def dedupe(diagnostics) -> list[Diagnostic]:
    """Collapse repeats of the same (code, message), counting occurrences."""
    order: list[tuple[str, str]] = []
    counts: dict[tuple[str, str], int] = {}
    first: dict[tuple[str, str], Diagnostic] = {}
    for diag in diagnostics:
        key = (diag.code, diag.message)
        if key not in counts:
            order.append(key)
            first[key] = diag
        counts[key] = counts.get(key, 0) + 1
    out = []
    for key in order:
        diag = first[key]
        payload = dict(diag.payload)
        if counts[key] > 1:
            payload["occurrences"] = counts[key]
        out.append(Diagnostic(diag.code, diag.message, payload))
    return out
