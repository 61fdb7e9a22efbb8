"""JSON serialization of instances, certificates and reports.

Complex values are encoded as ``[re, im]`` pairs of decimal doubles;
Python's shortest-round-trip float formatting makes write-then-read
bit-exact.  Output is strict JSON: a non-finite float in a report is
written as ``null``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .blocks import BlockMatrix, DiagonalMatrix
from .certs import FactorizationCertificate, cost

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "dump_report",
]


def _encode_complex(a: np.ndarray):
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _decode_complex(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"{name}: complex arrays must be nested lists of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in {name}")
    # a view, not re + 1j * im, which turns a -0 real or imaginary part into +0
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def _finite_or_null(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def instance_to_json(x: BlockMatrix) -> str:
    doc = {"n": x.n, "k": x.k, "blocks": _encode_complex(x.blocks)}
    return json.dumps(doc)


def instance_from_json(text: str) -> BlockMatrix:
    doc = json.loads(text)
    blocks = _decode_complex(doc["blocks"], "blocks")
    if blocks.shape != (doc["n"], doc["n"], doc["k"], doc["k"]):
        raise ValueError(
            f"inconsistent instance dimensions: header ({doc['n']}, {doc['k']}) "
            f"vs blocks {blocks.shape}"
        )
    return BlockMatrix(blocks)


def certificate_to_json(cert: FactorizationCertificate) -> str:
    """The factors, plus the cost under ``claimed_cost`` (ignored on load)."""
    doc = {
        "d": cert.d,
        "k": cert.k,
        "widths": list(cert.widths),
        "alphas": [_encode_complex(a) for a in cert.alphas],
        "diags": [_encode_complex(D.entries) for D in cert.diags],
        "claimed_cost": _finite_or_null(cost(cert)),
    }
    return json.dumps(doc, allow_nan=False)


def certificate_from_json(text: str) -> FactorizationCertificate:
    doc = json.loads(text)
    alphas = tuple(_decode_complex(a, f"alphas[{i}]") for i, a in enumerate(doc["alphas"]))
    diags = tuple(
        DiagonalMatrix(_decode_complex(D, f"diags[{i}]")) for i, D in enumerate(doc["diags"])
    )
    cert = FactorizationCertificate(alphas, diags)
    if list(cert.widths) != list(doc["widths"]) or cert.d != doc["d"] or cert.k != doc["k"]:
        raise ValueError("certificate header disagrees with factor shapes")
    return cert


def dump_report(doc: dict) -> str:
    """A flat report as one strict JSON object with sorted keys."""
    doc = {key: _finite_or_null(v) for key, v in doc.items()}
    return json.dumps(doc, sort_keys=True, allow_nan=False)
