"""JSON serialization of instances, certificates and reports.

Complex values are encoded as ``[re, im]`` pairs of decimal doubles;
Python's shortest-round-trip float formatting makes write-then-read
bit-exact.  Output is strict JSON: a non-finite float in a report is
written as ``null``.

Instance and certificate files are written as text straight from the
arrays, with no nested Python lists in between, by one generator of text
pieces (``json_pieces``), one array's text at a time; the bytes are those
of ``json.dumps`` on the ``[re, im]`` lists, with the same keys, key
order and separators.  Reading is plain ``json.loads``, so files from any
other JSON writer load too.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

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


def _listed(arrays) -> list:
    """The JSON list of ``arrays`` as parts: its brackets and separators around the arrays."""
    parts = ["["]
    for i, a in enumerate(arrays):
        parts += [", ", a] if i else [a]
    return parts + ["]"]


def json_pieces(obj: BlockMatrix | FactorizationCertificate) -> Iterator[str]:
    """The JSON text of an instance or a certificate, in pieces of at most one array each.

    ``"".join`` of the pieces is the text; a writer that sends each piece
    out as it is made never holds more than one array's text.  A
    certificate carries its cost under ``claimed_cost`` (ignored on load).
    Every array is checked finite (ValueError otherwise) before the cost is
    taken and the pieces are returned, so nothing is refused once the
    first piece is out.
    """
    if isinstance(obj, BlockMatrix):
        parts = [f'{{"n": {obj.n}, "k": {obj.k}, "blocks": ', obj.blocks, "}"]
    else:
        parts = [
            f'{{"d": {obj.d}, "k": {obj.k}, "widths": {json.dumps(list(obj.widths))}, "alphas": ',
            *_listed(obj.alphas),
            ', "diags": ',
            *_listed(D.entries for D in obj.diags),
        ]
    if not all(np.all(np.isfinite(p)) for p in parts if isinstance(p, np.ndarray)):
        raise ValueError("non-finite values cannot be written as JSON")
    if isinstance(obj, FactorizationCertificate):
        parts.append(f', "claimed_cost": {json.dumps(_finite_or_null(cost(obj)))}}}')
    return (p if isinstance(p, str) else _complex_json(p) for p in parts)


def _document(text: str, scalars, lists) -> dict:
    """The JSON object in ``text``; every field named must be there, those in ``lists`` as lists.

    The ``scalars`` and the items of a ``widths`` list must be JSON integers:
    1.0 and true compare equal to 1, so the shape checks would take them.
    The ``lists`` may hold no true or false, which ``np.asarray`` reads as 1.0
    and 0.0; no file the format writes has the token "true" or "false", so
    the lists are only scanned when the text has one (a string search: about
    1 ms at 18 MB; a ``null`` claimed cost does not trigger it).
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        for name in (*scalars, *lists):
            if name not in doc:
                raise ValueError(f"{name}: missing")
            if name in lists and not isinstance(doc[name], list):
                raise ValueError(f"{name}: expected a list")
        ints = [(name, doc[name]) for name in scalars]
        if "widths" in lists:
            ints += [(f"widths[{i}]", v) for i, v in enumerate(doc["widths"])]
        for name, v in ints:
            if type(v) is not int:
                raise ValueError(f"{name}: expected an integer, got {json.dumps(v)}")
        if "true" in text or "false" in text:
            for name in lists:
                if _holds_bool(doc[name]):
                    raise ValueError(f"{name}: expected numbers, got a JSON boolean")
    except RecursionError:  # json.loads and _holds_bool recurse once per level of nesting
        raise ValueError("JSON nested too deeply") from None
    return doc


def _holds_bool(v) -> bool:
    return type(v) is bool or (type(v) is list and any(map(_holds_bool, v)))


def _decode_complex(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):  # a non-number, or ragged nesting
        arr = None
    if arr is None or arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"{name}: complex arrays must be nested lists of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in {name}")
    # a view, not re + 1j * im, which turns a -0 real or imaginary part into +0
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def _finite_or_null(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def instance_to_json(x: BlockMatrix) -> str:
    return "".join(json_pieces(x))


def instance_from_json(text: str) -> BlockMatrix:
    doc = _document(text, ("n", "k"), ("blocks",))
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
    doc = _document(text, ("d", "k"), ("widths", "alphas", "diags"))
    alphas = tuple(_decode_complex(a, f"alphas[{i}]") for i, a in enumerate(doc["alphas"]))
    diags = []
    for i, D in enumerate(doc["diags"]):
        try:
            diags.append(DiagonalMatrix(_decode_complex(D, f"diags[{i}]")))
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
