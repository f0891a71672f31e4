"""Readers for every input the package takes: model documents, hardware specs and CSV tables.

A text whose first non-blank character is `{` is tried as JSON first,
through the C decoder behind json.loads. If it does not decode, it falls
back to YAML, so flow-style YAML such as `{name: x, ...}` still loads
and keeps YAML's error positions. YAML goes through libyaml
(yaml.CSafeLoader) when PyYAML was built with it, and through the
pure-Python yaml.SafeLoader when it was not. Both report a syntax error
at the same line and column; only the wording of the problem differs.

JSON and YAML 1.1 read one number form differently: an unquoted `1e3`
is the float 1000.0 in JSON and the string '1e3' in YAML 1.1, which
takes a float only with a dot and a signed exponent (`1.0e+3`).
"""

from __future__ import annotations

import csv
import io
import json

import yaml

from .errors import InputError

# A model document nests five nodes deep: document, layers, layer, inputs
# and a name. libyaml composes nodes by recursing in C, where a document
# nested some tens of thousands of levels overflows the stack and kills
# the process instead of raising; this limit stops both loaders far short.
MAX_DEPTH = 100


class _DepthLimited:
    """Loader mixin: refuse a document whose nodes nest deeper than MAX_DEPTH.

    Both composers call descend_resolver before and ascend_resolver after
    every node, scalars included, so the running count is the depth. The hooks
    exist for path resolvers, which this package never registers, so
    they do nothing else.
    """

    _depth = 0

    def descend_resolver(self, parent, index):
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise RecursionError

    def ascend_resolver(self):
        self._depth -= 1


class _PythonLoader(_DepthLimited, yaml.SafeLoader):
    pass


if yaml.__with_libyaml__:

    class _LibyamlLoader(_DepthLimited, yaml.CSafeLoader):
        pass

    _LOADER = _LibyamlLoader
else:  # pragma: no cover - PyYAML built without libyaml
    _LOADER = _PythonLoader


def load_document(text: str, error: type[Exception]):
    """The JSON or YAML document in `text`; any failure raises `error` with a position if known."""
    try:
        if text.lstrip()[:1] == "{":
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                pass  # not JSON: flow-style YAML, or a typo YAML reports with its own position
        return yaml.load(text, Loader=_LOADER)
    except RecursionError:
        raise error("document nests too deeply") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
        raise error(f"syntax error at {where}: {exc.problem or exc}") from exc
    except yaml.YAMLError as exc:
        raise error(f"syntax error: {exc}") from exc


def read_rows(text: str):
    """(header, rows) of a CSV table: rows yields (number, fields) per non-blank data row, from row 2.

    A data row not as wide as the header, or one the csv module cannot
    read, raises InputError when reached; a header it cannot read, at once.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise InputError(f"row 1: {exc}") from None

    def rows():
        number = 1  # the last row read
        try:
            for number, fields in enumerate(filter(None, reader), start=2):
                if len(fields) != len(header):
                    raise InputError(f"row {number}: expected {len(header)} fields, got {len(fields)}")
                yield number, fields
        except csv.Error as exc:
            raise InputError(f"row {number + 1}: {exc}") from None

    return header, rows()
