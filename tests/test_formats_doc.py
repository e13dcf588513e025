"""The params tables in docs/formats.md list exactly the schema's fields and
defaults, in both directions."""

import json
import re
from pathlib import Path

from mgv import config

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def documented_tables() -> dict[str, dict[str, str]]:
    """Heading name -> {field: default cell} for every field table."""
    tables: dict[str, dict[str, str]] = {}
    name = None
    for line in FORMATS.read_text().splitlines():
        heading = re.match(r"#{3,4} `(\w+)`", line)
        if heading:
            name = heading.group(1)
            continue
        if name is None or not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] == "field":
            default_col = cells.index("default")
            tables[name] = {}
        elif not cells[0].startswith("---"):
            for field in re.findall(r"`(\w+)`", cells[0]):
                tables[name][field] = cells[default_col]
    return tables


def _nested_table(kind):
    while isinstance(kind, (config._List, config._NullOr)):
        kind = kind.item if isinstance(kind, config._List) else kind.inner
    return kind if isinstance(kind, config._Table) else None


def schema_tables() -> dict[str, dict]:
    """Doc table name -> {field: default} from the schema.

    Nested tables are named after their field.  A switched table documents
    its shared fields under the mode and the rest under each choice.
    """
    tables: dict[str, dict] = {}

    def visit(name, table):
        tables[name] = {f.name: f.default for f in table.fields}
        for f in table.fields:
            nested = _nested_table(f.type)
            if nested is not None:
                visit(f.name, nested)

    for mode, (table, _) in config._MODES.items():
        if isinstance(table, config._Switch):
            shared = set.intersection(*(t.names for t in table.tables.values()))
            for choice, variant in table.tables.items():
                visit(choice, variant)
                tables[mode.value] = {k: v for k, v in tables[choice].items() if k in shared}
                tables[choice] = {k: v for k, v in tables[choice].items() if k not in shared}
        else:
            visit(mode.value, table)
    return tables


def test_docs_list_the_schema_fields_and_defaults():
    documented, declared = documented_tables(), schema_tables()
    assert set(documented) == set(declared)
    for name, fields in declared.items():
        assert set(documented[name]) == set(fields), name
        for field, default in fields.items():
            cell = documented[name][field]
            where = f"{name}.{field}"
            if default is config.REQUIRED:
                assert cell == "required", where
            elif callable(default):
                assert cell != "required" and "`" not in cell, where
            else:
                assert cell.startswith("`") and json.loads(cell.strip("`")) == default, where
