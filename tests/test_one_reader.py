"""The package's one front door for outside input: only ``cli.py`` reads
files or parses JSON text.

Every other module takes decoded values (``matrix_from_obj`` and its
siblings), so the checks in ``cli._load_json`` (UTF-8, no repeated key,
bounded nesting) hold for every file the package reads.  The scan reads
the syntax tree, so docstrings and comments that name these calls pass.
"""

import ast
import pathlib

import daggermp

SRC = pathlib.Path(daggermp.__file__).parent
READER = "cli.py"
JSON_READS = {"load", "loads"}


def reader_calls(source):
    """Line numbers of calls to open, json.load or json.loads, and of
    imports of the latter two by name."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute)
                and func.attr in JSON_READS
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                bad.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in JSON_READS for alias in node.names):
                bad.append(node.lineno)
    return sorted(set(bad))


def test_the_scan_catches_each_form():
    assert reader_calls("with open(path) as fh:\n    pass\n") == [1]
    assert reader_calls("import json\nobj = json.load(fh)\n") == [2]
    assert reader_calls("x = json.loads(text)") == [1]
    assert reader_calls("from json import loads") == [1]
    assert reader_calls("from json import load as read") == [1]
    assert reader_calls("text = json.dumps(obj)") == []
    assert reader_calls("from json import dumps") == []
    assert reader_calls('"""json.load(fh) and open(path)"""') == []
    assert reader_calls("fh.open()") == []


def test_only_the_cli_reads_files_or_parses_json():
    files = sorted(SRC.glob("*.py"))
    assert READER in {f.name for f in files}
    found = {f.name: reader_calls(f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines and name != READER} == {}
