"""Report serialization: canonical JSON plus derived markdown/csv renderings.

JSON is the source of truth (sorted keys, no timestamps, exact scalar
strings), so two runs with the same configuration and seed produce
byte-identical files; the markdown and csv renderings are computed from the
JSON document, never separately.  The analyses build their documents from
plain JSON values (dicts with string keys, lists, strings, numbers, booleans),
so a document equals the JSON written for it.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = 1


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _flatten(doc, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            rows.extend(_flatten(doc[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            rows.extend(_flatten(item, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, json.dumps(doc)))
    return rows


def render_csv(doc: dict) -> str:
    lines = ["path,value"]
    for path, value in _flatten(doc):
        escaped = value.replace('"', '""')
        lines.append(f'"{path}","{escaped}"')
    return "\n".join(lines) + "\n"


def _is_table(items) -> bool:
    return (
        isinstance(items, list)
        and items
        and all(isinstance(x, dict) for x in items)
        and all(set(x) == set(items[0]) for x in items)
        and all(
            not isinstance(v, (dict, list)) for x in items for v in x.values()
        )
    )


def _render_value(value, depth: int) -> list[str]:
    pad = "  " * depth
    if _is_table(value):
        cols = sorted(value[0])
        out = [
            pad + "| " + " | ".join(cols) + " |",
            pad + "|" + "---|" * len(cols),
        ]
        for row in value:
            out.append(pad + "| " + " | ".join(json.dumps(row[c]) for c in cols) + " |")
        return out
    if isinstance(value, dict):
        out = []
        for key in sorted(value):
            inner = _render_value(value[key], depth + 1)
            if len(inner) == 1 and not inner[0].strip().startswith(("|", "-")):
                out.append(f"{pad}- **{key}**: {inner[0].strip()}")
            else:
                out.append(f"{pad}- **{key}**:")
                out.extend(inner)
        return out
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [pad + json.dumps(list(value))]
        out = []
        for item in value:
            out.append(pad + "-")
            out.extend(_render_value(item, depth + 1))
        return out
    return [pad + json.dumps(value)]


def render_markdown(title: str, doc: dict) -> str:
    lines = [f"# {title}", ""]
    lines.extend(_render_value(doc, 0))
    return "\n".join(lines) + "\n"


def write_report(out_dir: Path, name: str, doc: dict, fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{name}.json"
    json_path.write_text(canonical_json(doc), encoding="utf-8")
    if fmt == "markdown":
        (out_dir / f"{name}.md").write_text(render_markdown(name, doc), encoding="utf-8")
    elif fmt == "csv":
        (out_dir / f"{name}.csv").write_text(render_csv(doc), encoding="utf-8")
    return json_path
