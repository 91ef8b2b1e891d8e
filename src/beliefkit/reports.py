"""Command reports, rendered as plain text or machine JSON.

A report is a kind tag plus an insertion-ordered payload of JSON-compatible
values: subsets as canonical brace strings, rationals as exact ``p/q``
strings, simulation frequencies as floats already rounded to six decimal
places.  Rendering is deterministic; the machine form reparses to exactly
the kind and the payload.
"""

from __future__ import annotations

import json
from typing import Mapping

_TABLE_PREFIX = {
    "mass": "m",
    "belief": "Bel",
    "plausibility": "Pl",
    "prior": "prior",
    "likelihood": "likelihood",
    "posterior": "posterior",
    "uniform_posterior": "posterior",
    "frequency": "freq",
}


def _scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_report(kind: str, payload: Mapping[str, object], format: str = "text") -> str:
    """Render the report `kind` with `payload`; `format` is ``text`` or ``machine``."""
    if format == "machine":
        doc: dict[str, object] = {"kind": kind, **payload}
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines: list[str] = []
    for key, value in payload.items():
        if key == "findings":
            assert isinstance(value, list)
            if not value:
                lines.append("no findings")
            lines.extend(f"warning: {finding}" for finding in value)
        elif key == "pair":
            assert isinstance(value, (list, tuple)) and len(value) == 2
            lines.append(f"pair = {value[0]} vs {value[1]}")
        elif isinstance(value, Mapping):
            prefix = _TABLE_PREFIX[key]
            lines.extend(f"{prefix}({k}) = {_scalar(v)}" for k, v in value.items())
        else:
            lines.append(f"{key} = {_scalar(value)}")
    return "\n".join(lines) + "\n"
