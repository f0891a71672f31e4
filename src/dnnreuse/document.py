"""Readers for every input the package takes: model documents, hardware specs and CSV tables.

A text whose first non-blank character is `{` is tried as JSON first,
through the C decoder behind json.loads. If it does not decode, it falls
back to YAML, so flow-style YAML such as `{name: x, ...}` still loads
and keeps YAML's error positions. YAML goes through libyaml
(yaml.CSafeLoader) when PyYAML was built with it, and through the
pure-Python yaml.SafeLoader when it was not. Both report a syntax error
at the same line and column; only the wording of the problem differs.

The loader parses; the data is built here, in one loop over its events,
without PyYAML's node tree, whose composer and constructor call back into
Python several times per node. A plain scalar is typed by the loader's own
resolver and constructor, once per distinct text in a document; after
that it costs one lookup and one append. Whatever this builder does not
handle the way PyYAML does goes back to PyYAML whole: it stops, and the
text is loaded again with yaml.load, at a document that has an anchor or
an alias, an explicit tag on a collection, a scalar tag without a
constructor (as the merge key `<<` and the value key `=` have), a
collection as a key, a scalar whose constructor raises, no document or a
second document. So every result and every error is PyYAML's; a
constructor's error still comes only after the whole document has been
parsed. No bundled document takes that path.

JSON and YAML 1.1 read one number form differently: an unquoted `1e3`
is the float 1000.0 in JSON and the string '1e3' in YAML 1.1, which
takes a float only with a dot and a signed exponent (`1.0e+3`).
"""

from __future__ import annotations

import csv
import io
import json
from types import GeneratorType

import yaml
from yaml.events import DocumentEndEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, SequenceEndEvent, StreamEndEvent
from yaml.nodes import ScalarNode

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


class _Defer(Exception):
    """The document needs PyYAML's own composer and constructor."""


def _build(loader):
    """The data of the one document in the loader's event stream.

    One loop dispatches on each event's class. An open collection is a
    flat list of its items (a mapping's read key, value, key, ...), put in
    its parent's list as itself or as a dict when it closes. Raises _Defer
    where the result or the error is left to yaml.load, RecursionError at
    the first node deeper than MAX_DEPTH (the node _DepthLimited stops
    at), and the loader's own error for a text that does not parse.
    """
    get_event = loader.get_event
    plain = {}  # implicit -> {text: value}, for the scalars without an explicit tag
    stack = []  # (items, mapping) of each open collection but the innermost, outermost first

    def construct(tag, event):
        if tag == "tag:yaml.org,2002:str":
            return event.value
        try:
            value = loader.yaml_constructors[tag](loader, ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style))
        except Exception:  # no constructor, or one that fails: yaml.load fails too, once all is composed
            raise _Defer from None
        if isinstance(value, GeneratorType):  # a collection's constructor, which refuses a scalar later
            raise _Defer
        return value

    def too_deep(value):  # the append of a collection MAX_DEPTH deep, which can hold no node
        raise RecursionError

    get_event()  # StreamStartEvent
    if loader.check_event(StreamEndEvent):  # no document
        raise _Defer
    get_event()  # DocumentStartEvent
    items, mapping = [], False  # the innermost open collection's items; outermost, the root node
    append = items.append
    while True:
        event = get_event()
        cls = event.__class__
        if cls is ScalarEvent and event.anchor is None and (event.tag is None or event.tag == "!"):  # typed by its text
            try:
                append(plain[event.implicit][event.value])
            except KeyError:  # a text new to the document
                if len(stack) >= MAX_DEPTH:
                    raise RecursionError from None
                texts = plain.setdefault(event.implicit, {})
                texts[event.value] = construct(loader.resolve(ScalarNode, event.value, event.implicit), event)
                append(texts[event.value])
        elif cls is SequenceEndEvent or cls is MappingEndEvent:
            value = dict(zip(pairs := iter(items), pairs)) if mapping else items
            items, mapping = stack.pop()
            append = items.append
            append(value)
        elif cls is DocumentEndEvent:
            break
        elif event.anchor is not None or cls is not ScalarEvent and mapping and not len(items) % 2:
            raise _Defer  # an anchor, an alias (whose anchor is never None), or a collection as a key
        elif len(stack) >= MAX_DEPTH:  # this node would nest MAX_DEPTH + 1 deep
            raise RecursionError
        elif cls is ScalarEvent:  # an explicit tag
            append(construct(event.tag, event))
        elif event.tag is not None:
            raise _Defer
        else:  # a collection opens
            stack.append((items, mapping))
            items, mapping = [], cls is MappingStartEvent
            append = items.append if len(stack) < MAX_DEPTH else too_deep
    if not loader.check_event(StreamEndEvent):  # a second document
        raise _Defer
    return items[0]


def load_document(text: str, error: type[Exception]):
    """The JSON or YAML document in `text`; any failure raises `error` with a position if known."""
    try:
        if text.lstrip()[:1] == "{":
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                pass  # not JSON: flow-style YAML, or a typo YAML reports with its own position
        loader = _LOADER(text)
        try:
            return _build(loader)
        except _Defer:
            pass
        finally:
            loader.dispose()
        return yaml.load(text, Loader=_LOADER)
    except RecursionError:
        raise error("document nests too deeply") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
        raise error(f"syntax error at {where}: {exc.problem or exc}") from exc
    except yaml.YAMLError as exc:
        raise error(f"syntax error: {exc}") from exc
    except (LookupError, ValueError) as exc:  # a scalar constructor's own failure, as for `!!int abc`
        raise error(f"bad value: {type(exc).__name__}: {exc}") from None


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
