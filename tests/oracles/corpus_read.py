"""The line-at-a-time corpus reader that ``amrkit.corpus`` replaced with
one compiled pattern scanned once over the whole text.

Kept as an oracle: for any text, ``entries_from_text`` here and in
``amrkit.corpus`` must give the same entries, down to metadata, graph
text and line numbers, or raise the same ``CorpusFormatError`` message.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Optional

from amrkit.corpus import CorpusEntry, CorpusFormatError

_META_KEY_RE = re.compile(r"::(\S+)")


def entries_from_text(text: str) -> list[CorpusEntry]:
    """Split corpus text into entries without parsing any graphs.

    Raises CorpusFormatError for a record that has metadata but no graph
    text, and for two records sharing an ``::id``.  One leading byte-order
    mark is dropped.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, so
    any other separator stays inside its metadata value or string.  Only
    spaces and tabs make a line blank; a line of other whitespace, such as
    a form feed, stays in its record, and a record of nothing but such
    lines is skipped like a blank line.
    """
    entries: list[CorpusEntry] = []
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = enumerate(lines, start=1)
    for filled, block in groupby(numbered, lambda item: bool(item[1].strip(" \t"))):
        block = list(block)
        # lines of other whitespace alone, such as a form feed page break
        if not filled or all(line.isspace() for _, line in block):
            continue
        meta: dict[str, str] = {}
        graph_lines: list[str] = []
        source_line = graph_line = 0
        for lineno, line in block:
            # a block has no blank line, so [0] exists; it beats startswith
            if line.lstrip(" \t")[0] != "#":
                graph_lines.append(line)
                graph_line = graph_line or lineno
            # a '#' line may carry several '::key value' fields; each value
            # runs to the next '::' or the end of the line
            elif len(fields := _META_KEY_RE.split(line)) > 1:
                meta.update(zip(fields[1::2], map(str.strip, fields[2::2])))
            else:
                continue  # a plain comment, which does not start the record
            source_line = source_line or lineno
        if graph_lines:
            entries.append(CorpusEntry(meta, "\n".join(graph_lines), source_line, graph_line))
        elif meta:
            label = meta.get("id") or f"line {source_line}"
            raise CorpusFormatError(f"record {label} has no PENMAN block")
    first_line: dict[Optional[str], int] = {}
    for entry in entries:
        first = first_line.setdefault(entry.id, entry.source_line)
        if first != entry.source_line and entry.id is not None:
            raise CorpusFormatError(
                f"duplicate ::id {entry.id!r} at lines {first} and {entry.source_line}"
            )
    return entries
