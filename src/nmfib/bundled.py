"""The JSON input files: their kinds, where they are found, and their entries.

A file named on the command line resolves against the working directory
first and then against the bundled ``nmfib/systems/`` directory.  The
built-in calculi and the catalog fragments are read from the bundled
directory only, so no file in the working directory can stand in for one.

This module imports nothing else from nmfib, so every module can use it.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

__all__ = ["FILE_KEYS", "KEY_TYPES", "ITEM_TYPES", "read", "stems", "expect", "fields", "signature_pairs"]

# the top-level keys each kind of file must have
FILE_KEYS = {
    "fragment": ("connectives",),
    "system": ("signature", "values", "designated", "interpretation"),
    "calculus": ("signature", "rules"),
    "translation": ("source", "mapping"),
}
# the top-level keys a kind of file may have
_OPTIONAL_KEYS = {"system": ("saturated",)}

_SYSTEMS = resources.files("nmfib") / "systems"

# the JSON type of each key that the loaders read, at the top of a file or in an entry
KEY_TYPES = {
    **dict.fromkeys(("connectives", "signature", "values", "designated", "rules", "source"), list),
    **dict.fromkeys(("interpretation", "mapping"), dict),
    **dict.fromkeys(("args", "out", "premises"), list),
    **dict.fromkeys(("name", "table", "conclusion"), str),
    "arity": int,
    "saturated": bool,
}
# the JSON type of each item of a list key, or of each value of an object key
ITEM_TYPES = dict.fromkeys(("values", "designated", "args", "out", "premises", "mapping"), str)
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}


def _missing(data: object, kind: str) -> list[str]:
    return [key for key in FILE_KEYS[kind] if not isinstance(data, dict) or key not in data]


def read(name: str, kind: str, builtin: bool = False) -> dict:
    """The parsed JSON of a file of the given kind.

    A file on disk comes before the bundled file of the same name, unless
    ``builtin`` asks for the bundled file only.  Undecodable JSON is a ValueError naming the file."""
    source = _SYSTEMS / name
    if not builtin and Path(name).exists():
        source = Path(name)
    elif not source.is_file():
        raise ValueError(f"no such file: {name} (not on disk, not bundled)")
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting past the decoder's limit
        raise ValueError(f"{name} is not a JSON file ({exc})") from exc
    missing = _missing(data, kind)
    if missing:
        raise ValueError(f"{name} is not a {kind} file (missing {', '.join(repr(k) for k in missing)})")
    for key in (*FILE_KEYS[kind], *_OPTIONAL_KEYS.get(kind, ())):
        if key in data:
            _typed(data[key], key, name)
    return data


def stems(kind: str) -> tuple[str, ...]:
    """The names, without ``.json``, of the bundled files of one kind, sorted."""
    return tuple(
        sorted(
            entry.name[: -len(".json")]
            for entry in _SYSTEMS.iterdir()
            if entry.name.endswith(".json") and not _missing(json.loads(entry.read_text(encoding="utf-8")), kind)
        )
    )


def expect(value: object, kind: type, what: str) -> object:
    """``value`` when it is a ``kind``; otherwise a ValueError naming ``what``."""
    if not isinstance(value, kind) or kind is int and type(value) is bool:  # JSON's true is no integer
        raise ValueError(f"{what} is not {_TYPE_NAMES[kind]}: {value!r}")
    return value


def fields(entry: object, what: str, *keys: str) -> tuple:
    """The values of ``keys`` in one entry of a file.

    A missing key, or a value not of its ``KEY_TYPES`` type, is a ValueError
    naming the entry (``what`` and its "name", if any) and the key."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} is not an object: {entry!r}")
    if "name" in entry:
        what = f"{what} {entry['name']!r}"
    missing = [key for key in keys if key not in entry]
    if missing:
        raise ValueError(f"{what} has no {', '.join(repr(k) for k in missing)}")
    return tuple(_typed(entry[key], key, what) for key in keys)


def _typed(value: object, key: str, what: str) -> object:
    """``value`` when it has the ``KEY_TYPES`` type of ``key`` and its items
    or values the ``ITEM_TYPES`` type; otherwise a ValueError naming the key
    of ``what``, and the item when one is wrong."""
    expect(value, KEY_TYPES[key], f"the {key!r} of {what}")
    item = ITEM_TYPES.get(key)
    if item is not None:
        if isinstance(value, dict):
            for name, v in value.items():
                expect(v, item, f"the {key!r} entry {name!r} of {what}")
        else:
            for v in value:
                expect(v, item, f"an item of the {key!r} of {what}")
    return value


def signature_pairs(entries: object, what: str = "signature entry") -> list[tuple[str, int]]:
    """The (name, arity) pairs of a signature list such as a file's "signature"."""
    pairs = []
    for entry in entries:
        name, arity = fields(entry, what, "name", "arity")
        pairs.append((name, int(arity)))
    return pairs
