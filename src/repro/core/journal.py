"""The durable append-only JSONL journal.

Both crash-safe files of the package are journals: a campaign checkpoint
(one experiment or quarantine per line) and the service's job registry
(one job snapshot per line). A journal is a header line naming what the
file belongs to, then one JSON record per line.

:class:`Journal` writes one. A new or empty file gets its header. An
existing file must start with a header *equal* to the writer's, key for
key: a torn or alien header, or one written for a different campaign,
raises :class:`CheckpointCorrupt`, so two runs never interleave records
in one file. A torn trailing line is healed by terminating it. Every
append batch costs one fsync, and closing fsyncs once more.

:func:`read_journal` reads one. A torn or corrupt record line is skipped
with a :class:`RuntimeWarning`, so recovery proceeds from the records
that landed; an empty file, a corrupt header or an unknown schema version
raises :class:`ValueError`.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.records import decode_record
from repro.core.resilience import CheckpointCorrupt

__all__ = ["JournalKind", "Journal", "read_journal", "check_header"]


@dataclass(frozen=True)
class JournalKind:
    """What distinguishes one journal from another: how messages name the
    file (``label``) and what its header identifies (``owner``), the header
    layout (:mod:`repro.core.records`), a check of one parsed record line
    that raises :class:`ValueError` to skip it, and a note for that skip."""

    label: str
    owner: str
    header: type
    check_record: Callable[[Any], Any]
    skip_note: str = ""


def _parse_header(line: bytes | str, kind: JournalKind) -> dict[str, Any]:
    header = json.loads(line)
    decode_record(kind.header, header, f"{kind.label} header")
    return header


def check_header(
    path: Path, found: dict[str, Any], expected: dict[str, Any],
    kind: JournalKind, refusal: str, error: type[ValueError] = ValueError,
) -> None:
    """Refuse ``found`` unless it equals ``expected`` key for key."""
    if found != expected:
        mismatched = [
            name for name in sorted({*found, *expected})
            if found.get(name) != expected.get(name)
        ]
        raise error(
            f"{kind.label} {path} belongs to a different {kind.owner} "
            f"(mismatched {', '.join(mismatched)}); {refusal}"
        )


class Journal:
    """A journal open for appending: created with ``header``, or validated
    and healed if it exists."""

    def __init__(
        self, path: str | Path, header: dict[str, Any], kind: JournalKind
    ) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        size = path.stat().st_size if path.exists() else 0
        torn_tail = False
        if size > 0:
            with path.open("rb") as probe:
                try:
                    found = _parse_header(probe.readline(), kind)
                except ValueError as exc:  # JSONDecodeError included
                    raise CheckpointCorrupt(
                        f"{kind.label} {path} has a torn or unrecognizable "
                        f"header line ({exc}); refusing to append to it — "
                        f"move the file aside (or delete it) and rerun"
                    ) from exc
                check_header(
                    path, found, header, kind, "refusing to append to it",
                    CheckpointCorrupt,
                )
                probe.seek(-1, os.SEEK_END)
                torn_tail = probe.read(1) != b"\n"
        self._stream = path.open("a")
        if size == 0:
            self._write(json.dumps(header) + "\n")
        elif torn_tail:
            self._write("\n")

    def _write(self, text: str) -> None:
        self._stream.write(text)
        self._sync()

    def _sync(self) -> None:
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def append(self, records: Iterable[dict[str, Any]]) -> None:
        """Append one batch of records with a single fsync."""
        text = "".join(json.dumps(record) + "\n" for record in records)
        if text:
            self._write(text)

    def close(self) -> None:
        try:
            self._sync()
        finally:
            self._stream.close()


def read_journal(
    path: str | Path, kind: JournalKind
) -> tuple[dict[str, Any], list[Any]]:
    """Read a journal: ``(header, checked records)`` in file order. Raises
    :class:`ValueError` if the file is empty, or its header line is not
    valid JSON, not a header of this kind, or of an unknown schema version."""
    path = Path(path)
    lines = [
        (number, line)
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"{kind.label} {path} is empty")
    try:
        header = _parse_header(lines[0][1], kind)
    except ValueError as exc:
        raise ValueError(
            f"{kind.label} {path} has a corrupt header line: {exc}"
        ) from exc
    records = []
    for number, line in lines[1:]:
        try:
            records.append(kind.check_record(json.loads(line)))
        except ValueError as exc:  # JSONDecodeError included
            warnings.warn(
                f"skipping corrupt {kind.label} record at {path}:{number} "
                f"({exc}){kind.skip_note}",
                RuntimeWarning,
                stacklevel=3,
            )
    return header, records
