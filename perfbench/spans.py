"""Span tracing of the oplength package from outside it.

A :class:`Tracer` replaces the package's public functions with thin
wrappers for the length of a traced run.  Each wrapper records one span
(name, start, end, parent) in memory; per-layer metrics are computed
from the spans after the run.  A name is wrapped in every module that
holds it, because ``from .blocks import operator_norm`` binds a private
copy in each importing module, methods are wrapped on their class, and
the ``CONSTRUCTIONS`` registry entries hold their own ``build``
callables.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

_WRAPPED = "__perfbench_span__"

# (span name, module, attribute path) for every traced public callable.
FUNCTIONS = (
    ("blocks.DiagonalMatrix.norm", "oplength.blocks", "DiagonalMatrix.norm"),
    ("blocks.operator_norm", "oplength.blocks", "operator_norm"),
    ("blocks.scalar_norm", "oplength.blocks", "scalar_norm"),
    ("blocks.spectral", "oplength.blocks", "psd_sqrt"),
    ("blocks.spectral", "oplength.blocks", "spectral_projection"),
    ("blocks.spectral", "oplength.blocks", "hermitian_spectral"),
    ("certs.FactorizationCertificate.init", "oplength.certs",
     "FactorizationCertificate.__post_init__"),
    ("certs.cost", "oplength.certs", "cost"),
    ("certs.evaluate", "oplength.certs", "evaluate"),
    ("certs.verify", "oplength.certs", "verify"),
    ("certs.add", "oplength.certs", "add"),
    ("certs.rebalance", "oplength.certs", "rebalance"),
    ("certs.pad", "oplength.certs", "pad"),
    ("certs.conjugate", "oplength.certs", "conjugate"),
    ("constructions.pinch", "oplength.constructions", "pinch"),
    ("constructions.IsometryFamily.validate", "oplength.constructions",
     "IsometryFamily.validate"),
    ("constructions.factor_through_family", "oplength.constructions",
     "factor_through_family"),
    ("constructions.projection_isometries", "oplength.constructions",
     "projection_isometries"),
    ("constructions.pinch_certificate", "oplength.constructions", "pinch_certificate"),
    ("constructions.partition_row_decomposition", "oplength.constructions",
     "partition_row_decomposition"),
    ("splitting.split_small_l2", "oplength.splitting", "split_small_l2"),
    ("pipeline.pinching_pipeline", "oplength.pipeline", "pinching_pipeline"),
    ("pipeline.assemble_from_approximant", "oplength.pipeline",
     "assemble_from_approximant"),
    ("pipeline.uniformity_check", "oplength.pipeline", "uniformity_check"),
    ("serial.encode", "oplength.serial", "instance_to_json"),
    ("serial.encode", "oplength.serial", "certificate_to_json"),
    ("serial.decode", "oplength.serial", "instance_from_json"),
    ("serial.decode", "oplength.serial", "certificate_from_json"),
    ("simhom.cb_lower_bound", "oplength.simhom", "cb_lower_bound"),
    ("cli.gen", "oplength.cli", "cmd_gen"),
    ("cli.factor", "oplength.cli", "cmd_factor"),
    ("cli.verify", "oplength.cli", "cmd_verify"),
    ("cli.uniformity", "oplength.cli", "cmd_uniformity"),
    ("cli.cb", "oplength.cli", "cmd_cb"),
)

BUILD_PREFIX = "constructions.build."


def _diag_entries(args, kwargs, result):
    return {"blocks.DiagonalMatrix.norm.entries": args[0].size}


def _dense_elems(args, kwargs, result):
    x = args[0]
    blocks = getattr(x, "blocks", None)
    return {"blocks.operator_norm.dense_elems": (blocks if blocks is not None else x).size}


def _pinch_bytes(args, kwargs, result):
    # computed traffic: read the projections and x once, write the result once
    x, part = args[0], args[1]
    return {"constructions.pinch.bytes": part.projections.nbytes + 2 * x.blocks.nbytes}


def _bytes_out(args, kwargs, result):
    return {"serial.bytes_out": len(result)}


def _bytes_in(args, kwargs, result):
    return {"serial.bytes_in": len(args[0])}


COUNTERS = {
    "DiagonalMatrix.norm": _diag_entries,
    "operator_norm": _dense_elems,
    "pinch": _pinch_bytes,
    "instance_to_json": _bytes_out,
    "certificate_to_json": _bytes_out,
    "instance_from_json": _bytes_in,
    "certificate_from_json": _bytes_in,
}


class Tracer:
    """Records spans of wrapped calls; install() wraps, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []   # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []  # (owner, attribute, original, set via object.__setattr__)

    def wrap(self, name, fn, counter=None):
        """A wrapper of fn that records a span named name on every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), 0.0, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        setattr(wrapper, _WRAPPED, name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every traced module first, so none binds a wrapper at import
        for _, modname, _ in FUNCTIONS:
            importlib.import_module(modname)
        modules = package_modules()
        for span, modname, path in FUNCTIONS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapper = self.wrap(span, original, COUNTERS.get(path))
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        constructions = importlib.import_module("oplength.pipeline").CONSTRUCTIONS
        for cname, spec in constructions.items():
            wrapper = self.wrap(BUILD_PREFIX + cname, spec.build)
            self._patch(spec, "build", spec.build, wrapper, frozen=True)

    def _patch(self, owner, attr, original, wrapper, frozen=False):
        (object.__setattr__ if frozen else setattr)(owner, attr, wrapper)
        self._patches.append((owner, attr, original, frozen))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, frozen = self._patches.pop()
            (object.__setattr__ if frozen else setattr)(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def package_modules():
    """The loaded oplength package and its submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "oplength" or name.startswith("oplength."))]


def leftover_wrappers():
    """(owner, attribute) pairs in the package that still hold a span wrapper."""
    found = []
    owners = list(package_modules())
    for mod in list(owners):
        owners.extend(v for v in vars(mod).values() if isinstance(v, type)
                      and getattr(v, "__module__", "").startswith("oplength"))
    pipeline = sys.modules.get("oplength.pipeline")
    if pipeline is not None:
        owners.extend(pipeline.CONSTRUCTIONS.values())
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if hasattr(value, _WRAPPED):
                found.append((owner, key))
    return found


def aggregate(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    child spans (children of one span never overlap: one thread).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child[i]
    return dict(out)


def write_jsonl(spans, path: str) -> None:
    """One JSON object per span; times in seconds from the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as f:
        for i, (name, start, end, parent) in enumerate(spans):
            f.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                "end": end - t0, "parent": parent}) + "\n")
