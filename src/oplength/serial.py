"""JSON serialization of instances, certificates and reports.

Complex values are encoded as ``[re, im]`` pairs of decimal doubles;
Python's shortest-round-trip float formatting makes write-then-read
bit-exact.  Output is strict JSON: a non-finite float in a report is
written as ``null``.

Arrays are written and read one entry at a time, an entry being one
slice along the array's first axis, so neither direction holds nested
Python lists, or text, for a whole array.  ``json_pieces`` is the one
writer: its pieces are the header, the brackets and separators, and the
text of each entry; the bytes are those of ``json.dumps`` on the
``[re, im]`` lists, with the same keys, key order and separators.  The
reader walks the top-level object itself and decodes each entry of
``blocks`` and of each ``alphas`` and ``diags`` factor with ``json``'s
own scanner, so files from any other JSON writer load too: any
whitespace or key order, and of duplicate keys the last one, as
``json.loads`` takes them.  A text ``json.loads`` refuses is refused
with its message.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from itertools import chain
from typing import NamedTuple

import numpy as np

from .blocks import BlockMatrix, DiagonalMatrix, ShapeMismatchError
from .certs import FactorizationCertificate, cost

__all__ = [
    "json_pieces",
    "instance_to_json",
    "instance_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "dump_report",
]

_WS = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().raw_decode


def _complex_json(a: np.ndarray) -> str:
    """``json.dumps(np.stack([a.real, a.imag], -1).tolist())``, built without the lists.

    Each distinct bit pattern of the interleaved ``[re, im]`` doubles is
    formatted once by ``float.__repr__`` (as ``json`` does, keeping 0.0
    and -0.0 apart; the caller has checked them finite); the separator
    after each number, ``", "`` or ``"], ["`` with as many brackets as
    axes end there, follows from its flat index, and one ``str.join``
    makes the text.
    """
    shape = a.shape + (2,)
    flat = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1)
    if flat.size == 0:
        return json.dumps(np.zeros(shape).tolist())
    bits, index = np.unique(flat.view(np.uint64), return_inverse=True)
    words = np.array([float.__repr__(v) for v in bits.view(np.float64).tolist()], dtype=object)
    # closing brackets after each number of one slice along the first axis
    period = flat.size // shape[0]
    closes = np.zeros(period, dtype=np.intp)
    step = 1
    for n in shape[:0:-1]:
        step *= n
        closes[step - 1::step] += 1
    seps = np.array(["]" * j + ", " + "[" * j for j in range(len(shape))], dtype=object)
    out = [None] * (2 * flat.size + 1)
    out[0] = "[" * len(shape)
    out[1::2] = words[index].tolist()
    out[2::2] = seps[closes].tolist() * shape[0]
    out[-1] = "]" * len(shape)
    return "".join(out)


def _listed(items) -> Iterator[str]:
    """The JSON list of ``items`` in pieces: brackets and separators around each item's pieces."""
    yield "["
    for i, item in enumerate(items):
        if i:
            yield ", "
        yield from item
    yield "]"


def json_pieces(obj: BlockMatrix | FactorizationCertificate) -> Iterator[str]:
    """The JSON text of an instance or a certificate, in pieces of at most one array entry each.

    ``"".join`` of the pieces is the text; a writer that sends each piece
    out as it is made never holds more than one entry's text.  A certificate
    carries its cost under ``claimed_cost`` (ignored on load).  Every array
    is checked finite (ValueError otherwise) before the cost is taken and
    the pieces are returned, so nothing is refused once the first piece is
    out.
    """
    def pieces(a):  # an array's JSON text: the list of its entries' texts, each made when reached
        # by a one-item map, holding no text once out (a list would, while the next is made)
        return _listed(map(_complex_json, (e,)) for e in a)

    if isinstance(obj, BlockMatrix):
        arrays = [obj.blocks]
    else:
        arrays = [*obj.alphas, *(D.entries for D in obj.diags)]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite values cannot be written as JSON")
    if isinstance(obj, BlockMatrix):
        return chain([f'{{"n": {obj.n}, "k": {obj.k}, "blocks": '], pieces(obj.blocks), ["}"])
    return chain(
        [f'{{"d": {obj.d}, "k": {obj.k}, "widths": {json.dumps(list(obj.widths))}, "alphas": '],
        _listed(map(pieces, obj.alphas)),
        [', "diags": '],
        _listed(pieces(D.entries) for D in obj.diags),
        [f', "claimed_cost": {json.dumps(_finite_or_null(cost(obj)))}}}'],
    )


class _Floats(NamedTuple):
    """A JSON value read as an array, one entry at a time.

    ``array`` is ``np.asarray(value, dtype=float)``, stacked from its
    entries' arrays, or None where that raises (not a list, a non-number,
    ragged nesting, an integer too large for a double); ``bools`` tells
    whether the value holds a JSON boolean, looked for only when the text
    has the token.
    """

    array: np.ndarray | None
    bools: bool


def _items(text: str, pos: int, item, close: str) -> tuple[list, int]:
    """The items of the JSON list (``close="]"``) or object (``close="}"``) at ``pos``, and its end.

    ``item(start)`` reads each item: it gets the position of the item's first
    character and returns ``(value, end)``, ``end`` being the position after
    the item.
    """
    values = []
    pos = _WS(text, pos + 1).end()
    if text.startswith(close, pos):
        return values, pos + 1
    while True:
        value, end = item(pos)
        values.append(value)
        pos = _WS(text, end).end()
        if text.startswith(close, pos):
            return values, pos + 1
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = _WS(text, pos + 1).end()


def _array(text: str, pos: int, scan: bool) -> tuple[_Floats, int]:
    """The JSON value at ``pos`` as an array, read one entry at a time, and where it ends.

    Each entry is decoded by ``json``, checked for booleans when ``scan`` is
    set and turned into a float array, so no nested lists of the whole array
    are held; the entries' arrays are stacked into one of exactly their size.
    """
    if not text.startswith("[", pos):
        value, end = _scan(text, pos)
        return _Floats(None, scan and _holds_bool(value)), end
    bools = False

    def entry(start: int) -> tuple:
        nonlocal bools
        value, end = _scan(text, start)
        bools = bools or (scan and _holds_bool(value))
        try:
            return np.asarray(value, dtype=float), end
        except (TypeError, ValueError, OverflowError):  # non-number, ragged, too large
            return None, end

    entries, end = _items(text, pos, entry, "]")
    array = None
    # checked first: np.stack would make an object array of refused entries
    if not any(e is None for e in entries):
        try:
            array = np.stack(entries) if entries else np.zeros(0)
        except (ValueError, IndexError):  # unequal shapes; more axes than numpy allows
            pass
    return _Floats(array, bools), end


def _arrays(text: str, pos: int, scan: bool) -> tuple[list, int]:
    """The JSON list at ``pos`` as a list of arrays, each read by ``_array``, and where it ends."""
    return _items(text, pos, lambda start: _array(text, start, scan), "]")


def _object(text: str, readers: dict, scan: bool):
    """The JSON value in ``text``, a top-level object read field by field.

    A field named in ``readers`` whose value is a list is read by its reader
    (``reader(text, pos, scan) -> (value, end)``); any other value is decoded
    by ``json``.  Of duplicate keys the last one's value is kept.  A text that
    is not an object is left to ``json.loads``.
    """
    pos = _WS(text).end()
    if not text.startswith("{", pos):
        return json.loads(text)

    def field(start: int) -> tuple:
        if not text.startswith('"', start):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                       text, start)
        key, pos = json.decoder.scanstring(text, start + 1)
        pos = _WS(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        pos = _WS(text, pos + 1).end()
        reader = readers.get(key) if text.startswith("[", pos) else None
        value, end = reader(text, pos, scan) if reader else _scan(text, pos)
        return (key, value), end

    fields, end = _items(text, pos, field, "}")
    end = _WS(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return dict(fields)


def _document(text: str, scalars, lists: dict) -> dict:
    """The JSON object in ``text``; every field named must be there, those in ``lists`` as lists.

    ``lists`` maps each list field to its reader (see ``_object``), or to
    None for a list decoded by ``json``.  A text ``json.loads`` refuses is
    handed to it, so the error is its own.
    The ``scalars`` and the items of a ``widths`` list must be JSON integers:
    1.0 and true compare equal to 1, so the shape checks would take them.
    The arrays may hold no true or false, which ``np.asarray`` reads as 1.0
    and 0.0; no file the format writes has the token "true" or "false", so
    the entries are only scanned when the text has one (a string search:
    about 1 ms at 18 MB; a ``null`` claimed cost does not trigger it).
    """
    scan = "true" in text or "false" in text
    try:
        try:
            doc = _object(text, lists, scan)
        except json.JSONDecodeError:
            json.loads(text)  # raises json's own error for the text
            raise
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        for name in (*scalars, *lists):
            if name not in doc:
                raise ValueError(f"{name}: missing")
            if name in lists and not isinstance(doc[name], (list, _Floats)):
                raise ValueError(f"{name}: expected a list")
        ints = [(name, doc[name]) for name in scalars]
        if "widths" in lists:
            ints += [(f"widths[{i}]", v) for i, v in enumerate(doc["widths"])]
        for name, v in ints:
            if type(v) is not int:
                raise ValueError(f"{name}: expected an integer, got {json.dumps(v)}")
        for name in lists:
            read = [doc[name]] if isinstance(doc[name], _Floats) else doc[name]
            if any(type(f) is _Floats and f.bools for f in read):
                raise ValueError(f"{name}: expected numbers, got a JSON boolean")
    except RecursionError:  # json and _holds_bool recurse once per level of nesting
        raise ValueError("JSON nested too deeply") from None
    return doc


def _holds_bool(v) -> bool:
    return type(v) is bool or (type(v) is list and any(map(_holds_bool, v)))


def _decode_complex(floats: _Floats, name: str) -> np.ndarray:
    arr = floats.array
    if arr is None or arr.shape[-1] != 2:
        raise ValueError(f"{name}: complex arrays must be nested lists of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in {name}")
    # a view, not re + 1j * im, which turns a -0 real or imaginary part into +0
    return arr.view(np.complex128)[..., 0]


def _finite_or_null(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def instance_to_json(x: BlockMatrix) -> str:
    return "".join(json_pieces(x))


def instance_from_json(text: str) -> BlockMatrix:
    doc = _document(text, ("n", "k"), {"blocks": _array})
    blocks = _decode_complex(doc["blocks"], "blocks")
    if blocks.shape != (doc["n"], doc["n"], doc["k"], doc["k"]):
        raise ValueError(
            f"inconsistent instance dimensions: header ({doc['n']}, {doc['k']}) "
            f"vs blocks {blocks.shape}"
        )
    return BlockMatrix(blocks)


def certificate_to_json(cert: FactorizationCertificate) -> str:
    return "".join(json_pieces(cert))


def certificate_from_json(text: str) -> FactorizationCertificate:
    doc = _document(text, ("d", "k"), {"widths": None, "alphas": _arrays, "diags": _arrays})
    alphas = tuple(_decode_complex(a, f"alphas[{i}]") for i, a in enumerate(doc["alphas"]))
    diags = []
    for i, D in enumerate(doc["diags"]):
        try:
            # the decoded array is new and held by nothing else: adopted, not copied
            diags.append(DiagonalMatrix._adopt(_decode_complex(D, f"diags[{i}]")))
        except ShapeMismatchError as exc:
            raise ShapeMismatchError(f"diags[{i}]: {exc}") from None
    cert = FactorizationCertificate(alphas, tuple(diags))
    if list(cert.widths) != list(doc["widths"]) or cert.d != doc["d"] or cert.k != doc["k"]:
        raise ValueError("certificate header disagrees with factor shapes")
    return cert


def dump_report(doc: dict) -> str:
    """A flat report as one strict JSON object with sorted keys."""
    doc = {key: _finite_or_null(v) for key, v in doc.items()}
    return json.dumps(doc, sort_keys=True, allow_nan=False)
