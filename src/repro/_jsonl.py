"""The reader of header-first JSONL logs (run journals and trace files).

Both logs are written the same way — one ``{"type": "header", "version":
N, ...}`` line, then one JSON record per line, appended and flushed — so
a crash can only ever tear the file mid-line.  :func:`read_log` parses
either: it checks the header and version, decodes records until the
first line that does not parse, and reports how many trailing lines it
dropped; everything before the tear is trusted.  It sits below both the
engine and telemetry, importing neither.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

__all__ = ["read_log"]


def read_log(
    path: Union[str, Path],
    name: str,
    version: int,
    error: Type[Exception],
    kind: Optional[str] = None,
    decode: Callable[[Dict[str, Any], int], Any] = lambda data, seq: data,
) -> Tuple[Dict[str, Any], List[Any], int]:
    """Parse a log into ``(header, records, n_dropped)``.

    ``name`` words the errors (``"journal"``, ``"trace"``); a missing,
    unreadable or wrong-version header raises ``error`` — corruption of a
    different kind from a torn tail, never silently read past.  A record
    must be a dict whose ``"type"`` is ``kind`` (any ``"type"`` when
    ``kind`` is ``None``); ``decode(record, seq)`` turns it into what is
    returned, ``seq`` being its 1-based position, and a ``KeyError``,
    ``TypeError`` or ``ValueError`` from it counts as a torn line.
    """
    path = Path(path)
    lines = path.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise error(f"{name} {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise error(f"{name} {path} has an unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != "header":
        raise error(f"{name} {path} does not start with a header record")
    if header.get("version") != version:
        raise error(
            f"{name} {path} has version {header.get('version')!r}; this build reads {version}"
        )
    records: List[Any] = []
    for index, line in enumerate(lines[1:]):
        try:
            data = json.loads(line)
            if not isinstance(data, dict) or "type" not in data:
                raise KeyError("type")
            if kind is not None and data["type"] != kind:
                raise KeyError("type")
            records.append(decode(data, index + 1))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return header, records, len(lines) - 1 - index
    return header, records, 0
