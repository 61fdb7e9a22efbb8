"""Serialization round-trips and the command-line driver."""

import collections
import csv
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    CONSTRUCTIONS,
    BlockMatrix,
    DiagonalMatrix,
    FactorizationCertificate,
    ShapeMismatchError,
    cost,
    operator_norm,
    random_instance,
    universal_depth1,
)
import oplength
from oplength import certs, pipeline, serial
from oplength.cli import _write_out, main
from oplength.serial import (
    _complex_json,
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
    json_pieces,
)

from conftest import random_block, random_certificate


def wide_complex(rng, shape):
    """Complex entries over the whole double range, subnormals and signed zeros included."""
    parts = rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-320, 300, size=shape + (2,))
    parts[rng.random(shape + (2,)) < 0.2] = 0.0
    parts[rng.random(shape + (2,)) < 0.2] = -0.0
    return parts.view(np.complex128)[..., 0]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pairs(a):
    """The ``[re, im]`` nested lists that ``json.dumps`` writes for a complex array."""
    return np.stack([a.real, a.imag], -1).tolist()


# zeros, subnormals, the largest doubles, and both sides of the switches of
# float.__repr__ to exponent notation at 1e16 and 1e-4
EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,
    9.999999999999999e-05, 1e-4, 0.00010000000000000002, -1e-4,
]


@pytest.fixture(scope="module")
def sub19_6_12():
    """sub19 at (6, 12): 15 MB of arrays in an 18 MB file; costed, as factor has it."""
    cert, _ = CONSTRUCTIONS["sub19"].build(random_instance(6, 12, 7))
    cost(cert)
    return cert


def holds_bool(v):
    return type(v) is bool or (type(v) is list and any(map(holds_bool, v)))


def oracle_document(text, scalars, lists):
    """The whole-text reading: ``json.loads``, the field and integer checks, the boolean scan."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        if any(name not in doc for name in (*scalars, *lists)):
            raise ValueError("missing")
        if any(not isinstance(doc[name], list) for name in lists):
            raise ValueError("expected a list")
        ints = [doc[name] for name in scalars] + list(doc.get("widths", []))
        if any(type(v) is not int for v in ints):
            raise ValueError("expected an integer")
        if any(holds_bool(doc[name]) for name in lists):
            raise ValueError("expected numbers")
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return doc


def oracle_complex(data):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("not [re, im] pairs") from None
    if arr.ndim == 0 or arr.shape[-1] != 2 or not np.all(np.isfinite(arr)):
        raise ValueError("not finite [re, im] pairs")
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def oracle_instance(text):
    doc = oracle_document(text, ("n", "k"), ("blocks",))
    blocks = oracle_complex(doc["blocks"])
    if blocks.shape != (doc["n"], doc["n"], doc["k"], doc["k"]):
        raise ValueError("inconsistent instance dimensions")
    return BlockMatrix(blocks)


def oracle_certificate(text):
    doc = oracle_document(text, ("d", "k"), ("widths", "alphas", "diags"))
    cert = FactorizationCertificate(tuple(map(oracle_complex, doc["alphas"])),
                                    tuple(DiagonalMatrix(oracle_complex(D)) for D in doc["diags"]))
    if list(cert.widths) != doc["widths"] or cert.d != doc["d"] or cert.k != doc["k"]:
        raise ValueError("certificate header disagrees with factor shapes")
    return cert


def read_outcome(read, text):
    """The shapes and bytes of the arrays ``read`` takes from ``text``; None if it refuses it."""
    try:
        obj = read(text)
    except ValueError:
        return None
    arrays = [obj.blocks] if isinstance(obj, BlockMatrix) else [
        *obj.alphas, *(D.entries for D in obj.diags)]
    return [(a.shape, a.tobytes()) for a in arrays]


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def file_texts(draw):
    """An instance or certificate file, as another JSON writer might lay it out, often broken."""
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        read, oracle = instance_from_json, oracle_instance
        doc = json.loads(instance_to_json(BlockMatrix(wide_complex(rng, (n, n, k, k)))))
    else:
        read, oracle = certificate_from_json, oracle_certificate
        widths = (n,) + tuple(int(w) for w in rng.integers(1, 4, size=draw(st.integers(1, 3))))
        widths += (n,)
        cert = FactorizationCertificate(
            tuple(wide_complex(rng, (widths[i], widths[i + 1])) for i in range(len(widths) - 1)),
            tuple(DiagonalMatrix(wide_complex(rng, (w, k, k))) for w in widths[1:-1]),
        )
        doc = json.loads(certificate_to_json(cert))
    items = list(doc.items())
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    # duplicate keys: json.loads keeps the last value, and only it is judged
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from([key for key, _ in items]))
        value = draw(st.sampled_from([doc[key], [], [True], {"x": 1}, 1.5, [[1.0, 0.0]],
                                      [[[[[float("nan"), 0.0]]]]], [[[[[10**400, 0.0]]]]],
                                      doc["k"]]))
        items.insert(draw(st.integers(0, len(items))), (key, value))
    indent = draw(st.sampled_from([None, None, 0, 1, "\t", " \r\n "]))
    separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\n", " :\t")]))
    text = "{" + separators[0].join(
        json.dumps(key) + separators[1] + json.dumps(v, indent=indent, separators=separators)
        for key, v in items) + "}"
    text = draw(st.sampled_from(["", " ", "\n\t"])) + text + draw(st.sampled_from(["", "\r\n"]))
    if draw(st.booleans()):  # a number token replaced
        numbers = list(NUMBER.finditer(text))
        if numbers:
            m = draw(st.sampled_from(numbers))
            token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-0",
                                          "true", "false", "null", '"1.0"', "1E2", "[]"]))
            text = text[:m.start()] + token + text[m.end():]
    mutation = draw(st.sampled_from(["none", "insert", "delete", "truncate"]))
    if mutation != "none":
        i = draw(st.integers(0, len(text) - (mutation != "insert")))
        if mutation == "insert":
            text = text[:i] + draw(st.sampled_from(list(' \n[]{},:"-+.eE019tfnul\\'))) + text[i:]
        elif mutation == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    return read, oracle, text


class TestSerialization:
    @given(case=file_texts())
    @settings(max_examples=400, deadline=None)
    def test_reader_agrees_with_whole_text_reading(self, case):
        # the entry-at-a-time reader takes what json.loads + np.asarray take, with the same
        # bytes, and refuses the rest with a ValueError
        read, oracle, text = case
        assert read_outcome(read, text) == read_outcome(oracle, text)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4), k=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_instance_round_trip_bit_exact_property(self, seed, n, k):
        rng = np.random.default_rng(seed)
        x = BlockMatrix(wide_complex(rng, (n, n, k, k)))
        assert same_bits(instance_from_json(instance_to_json(x)).blocks, x.blocks)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4), k=st.integers(1, 4),
           d=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_certificate_round_trip_bit_exact_property(self, seed, n, k, d):
        rng = np.random.default_rng(seed)
        widths = (n,) + tuple(int(w) for w in rng.integers(1, 6, size=d)) + (n,)
        cert = FactorizationCertificate(
            tuple(wide_complex(rng, (widths[i], widths[i + 1])) for i in range(d + 1)),
            tuple(DiagonalMatrix(wide_complex(rng, (w, k, k))) for w in widths[1:-1]),
        )
        back = certificate_from_json(certificate_to_json(cert))
        assert back.widths == cert.widths
        assert all(same_bits(a, b) for a, b in zip(back.alphas, cert.alphas))
        assert all(same_bits(D.entries, E.entries) for D, E in zip(back.diags, cert.diags))

    @given(data=st.data(), shape=st.lists(st.integers(0, 3), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_complex_json_is_json_dumps_of_pairs(self, data, shape):
        size = 2 * int(np.prod(shape))
        doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from(EDGE_DOUBLES))
        parts = np.array(data.draw(st.lists(doubles, min_size=size, max_size=size)), dtype=float)
        a = parts.reshape(tuple(shape) + (2,)).view(np.complex128)[..., 0]
        for b in (a, a.T):
            assert _complex_json(b) == json.dumps(pairs(b))

    def test_json_pieces_formats_one_entry_at_a_time(self, monkeypatch):
        # repeated entries, and zeros with a -0.0 real or imaginary part, which must keep it
        zero = np.zeros((2, 2), dtype=complex)
        neg_re, neg_im = zero.copy(), zero.copy()
        neg_re[0, 1] = complex(-0.0, 0.0)
        neg_im[0, 1] = complex(0.0, -0.0)
        eye = np.eye(2, dtype=complex)
        entries = np.array([zero, eye, neg_re, zero, neg_im, eye, neg_re, 2 * eye, zero])
        cert = FactorizationCertificate(
            (np.ones((1, 9)), np.array([[1.0], [-0.0], [1.0], [0.0], [1.0], [-0.0], [2.0], [1.0],
                                        [0.0]])),
            (DiagonalMatrix(entries),),
        )
        formatted = []
        original = serial._complex_json
        monkeypatch.setattr(serial, "_complex_json", lambda a: formatted.append(a.tobytes())
                            or original(a))
        text = "".join(json_pieces(cert))
        assert formatted == [e.tobytes() for a in (*cert.alphas, entries) for e in a]
        assert text == json.dumps({
            "d": 1, "k": 2, "widths": [1, 9, 1],
            "alphas": [pairs(a) for a in cert.alphas],
            "diags": [pairs(entries)],
            "claimed_cost": cost(cert),
        })

    def test_json_pieces_hold_no_earlier_entry_text(self, monkeypatch, rng):
        # a writer that drops each piece once written (as f.writelines does with a piece
        # larger than its buffer) holds one entry's text at a time: every earlier text is
        # gone when the next one is made
        class Text(str):  # a str that can be watched by weakref
            pass

        made = []
        original = serial._complex_json

        def formatted(a):
            assert [ref() for ref in made if ref() is not None] == []
            text = Text(original(a))
            made.append(weakref.ref(text))
            return text

        monkeypatch.setattr(serial, "_complex_json", formatted)
        cert = random_certificate(rng, n=3)
        arrays = [*cert.alphas, *(D.entries for D in cert.diags)]
        for obj, entries in ((random_instance(3, 2, 0), 3), (cert, sum(map(len, arrays)))):
            made.clear()
            collections.deque(json_pieces(obj), maxlen=0)  # drops each piece as it comes
            assert len(made) == entries

    def test_reading_holds_no_nested_lists_of_a_whole_array(self, sub19_6_12):
        # json.loads held nested [re, im] lists of every array: 10.5x the arrays' bytes for
        # this certificate and about 12x for the instance; the reader holds one entry's
        x = random_instance(8, 32, 7)
        for read, text, arrays in (
            (certificate_from_json, certificate_to_json(sub19_6_12),
             lambda c: [*c.alphas, *(D.entries for D in c.diags)]),
            (instance_from_json, instance_to_json(x), lambda y: [y.blocks]),
        ):
            tracemalloc.start()
            try:
                obj = read(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            nbytes = sum(a.nbytes for a in arrays(obj))
            assert peak < 2.5 * nbytes, f"{read.__name__}: peak {peak} bytes for {nbytes}"

    def test_json_pieces_refuses_non_finite(self):
        eye = np.eye(2)
        for alpha, entry in ((complex(0.0, np.inf), 1.0), (1.0, complex(np.nan, 0.0))):
            cert = FactorizationCertificate((np.array([[1.0, alpha]]), np.ones((2, 1))),
                                            (DiagonalMatrix(np.array([[[entry]], [[1.0]]])),))
            with pytest.raises(ValueError, match="non-finite values cannot be written as JSON"):
                json_pieces(cert)

    def test_instance_round_trip_bit_exact(self, rng):
        x = random_block(rng, 3, 3, 4)
        y = instance_from_json(instance_to_json(x))
        np.testing.assert_array_equal(x.blocks, y.blocks)

    def test_instance_dimension_check(self, rng):
        doc = json.loads(instance_to_json(random_block(rng, 2, 2, 2)))
        doc["n"] = 3
        with pytest.raises(ValueError):
            instance_from_json(json.dumps(doc))

    def test_certificate_round_trip_bit_exact(self, rng):
        cert = universal_depth1(random_block(rng, 3, 3, 2))
        back = certificate_from_json(certificate_to_json(cert))
        assert back.widths == cert.widths
        for a, b in zip(cert.alphas, back.alphas):
            np.testing.assert_array_equal(a, b)
        for D, E in zip(cert.diags, back.diags):
            np.testing.assert_array_equal(D.entries, E.entries)
        assert json.loads(certificate_to_json(cert))["claimed_cost"] == cost(cert)

    @pytest.mark.parametrize("kind, field, value, named", [
        ("instance", "n", 1.0, "n: expected an integer, got 1.0"),
        ("instance", "k", True, "k: expected an integer, got true"),
        ("certificate", "d", 1.0, "d: expected an integer, got 1.0"),
        ("certificate", "k", True, "k: expected an integer, got true"),
        ("certificate", "widths", [1, True, 1], "widths[1]: expected an integer, got true"),
    ])
    def test_header_fields_must_be_json_integers(self, kind, field, value, named):
        # at n = k = d = 1 the shape checks alone would take 1.0 and true, which equal 1
        eye = np.eye(1)
        to_json, from_json, obj = {
            "instance": (instance_to_json, instance_from_json, BlockMatrix(np.ones((1, 1, 1, 1)))),
            "certificate": (certificate_to_json, certificate_from_json,
                            FactorizationCertificate((eye, eye), (DiagonalMatrix(np.ones((1, 1, 1))),))),
        }[kind]
        doc = json.loads(to_json(obj))
        from_json(json.dumps(doc))
        doc[field] = value
        with pytest.raises(ValueError, match=re.escape(named)):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind, field, path", [
        ("instance", "blocks", (0, 0, 0, 0, 0)),
        ("certificate", "alphas", (1, 0, 0, 1)),
        ("certificate", "diags", (0, 0, 0, 0, 0)),
    ])
    @pytest.mark.parametrize("value", [True, False])
    def test_array_entries_must_not_be_json_booleans(self, kind, field, path, value):
        # np.asarray would read true and false as 1.0 and 0.0
        eye = np.eye(1)
        to_json, from_json, obj = {
            "instance": (instance_to_json, instance_from_json, BlockMatrix(np.ones((1, 1, 1, 1)))),
            "certificate": (certificate_to_json, certificate_from_json,
                            FactorizationCertificate((eye, eye), (DiagonalMatrix(np.ones((1, 1, 1))),))),
        }[kind]
        doc = json.loads(to_json(obj))
        entry = doc[field]
        for i in path[:-1]:
            entry = entry[i]
        entry[path[-1]] = value
        with pytest.raises(ValueError, match=f"{field}: expected numbers, got a JSON boolean"):
            from_json(json.dumps(doc))

    def test_null_claimed_cost_does_not_scan_the_lists(self, monkeypatch):
        # a cost that overflows is written as null, which has no true or false token
        cert = FactorizationCertificate(
            (np.array([[1e200, 1.0]]), np.array([[1.0], [1e-200]])),
            (DiagonalMatrix(np.array([1e-200, 1e200]).reshape(2, 1, 1)),),
        )
        text = certificate_to_json(cert)
        assert json.loads(text)["claimed_cost"] is None
        calls = []
        monkeypatch.setattr(serial, "_holds_bool", lambda v: calls.append(v) or False)
        assert certificate_from_json(text).widths == cert.widths
        assert calls == []

    def test_certificate_header_check(self, rng):
        doc = json.loads(certificate_to_json(universal_depth1(random_block(rng, 2, 2, 2))))
        doc["d"] = 5
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps(doc))


class TestCli:
    def run_gen(self, tmp_path, n=2, k=2, seed=3, name="x.json"):
        path = tmp_path / name
        assert main([
            "gen", "--n", str(n), "--k", str(k), "--seed", str(seed),
            "--out", str(path),
        ]) == 0
        return path

    @pytest.mark.parametrize("n, k", [(2, 4), (3, 6)])
    @pytest.mark.parametrize("construction", ["length1", "lemma5", "sub18", "sub19", "t13"])
    def test_files_are_json_dumps_text_and_re_encode_identically(self, tmp_path, construction,
                                                                 n, k):
        inst = self.run_gen(tmp_path, n=n, k=k)
        text = inst.read_text()
        x = instance_from_json(text)
        assert text == json.dumps({"n": n, "k": k, "blocks": pairs(x.blocks)})
        assert instance_to_json(x) == text
        path = tmp_path / "cert.json"
        assert main([
            "factor", "--instance", str(inst), "--construction", construction,
            "--out", str(path),
        ]) == 0
        text = path.read_text()
        cert = certificate_from_json(text)
        assert certificate_to_json(cert) == text
        assert text == json.dumps({
            "d": cert.d,
            "k": cert.k,
            "widths": list(cert.widths),
            "alphas": [pairs(a) for a in cert.alphas],
            "diags": [pairs(D.entries) for D in cert.diags],
            "claimed_cost": cost(cert),
        })

    def test_non_finite_certificate_leaves_the_out_file_untouched(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes(b"old bytes")
        cert = FactorizationCertificate((np.eye(2), np.eye(2)),
                                        (DiagonalMatrix(np.array([[[1.0]], [[np.inf]]])),))
        with pytest.raises(ValueError, match="non-finite"):
            _write_out(json_pieces(cert), str(path))
        assert path.read_bytes() == b"old bytes"

    def test_certificate_file_is_written_one_factor_at_a_time(self, tmp_path, sub19_6_12):
        # sub19 at (6, 12): an 18 MB file of five diagonals and six scalars; the
        # whole text held once, as str and as encoded bytes, would peak at 2x its size
        path = tmp_path / "sub19.json"
        tracemalloc.start()
        try:
            _write_out(json_pieces(sub19_6_12), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 17_000_000
        assert peak < 1.5 * size, f"peak {peak} bytes for a {size}-byte file"

    def test_gen_deterministic(self, tmp_path):
        a = self.run_gen(tmp_path, name="a.json")
        b = self.run_gen(tmp_path, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_factor_then_verify_pass(self, tmp_path, capsys):
        inst = self.run_gen(tmp_path)
        cert = tmp_path / "cert.json"
        assert main([
            "factor", "--instance", str(inst), "--construction", "length1",
            "--out", str(cert),
        ]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["passed"] and doc["depth"] == 1
        assert main([
            "verify", "--instance", str(inst), "--certificate", str(cert),
        ]) == 0

    def test_factor_out_then_verify_at_1e200(self, tmp_path, capsys):
        # a correct certificate verifies at any finite scale, and so does its file
        inst = tmp_path / "x200.json"
        inst.write_text(instance_to_json(random_instance(3, 12, 7, "blockdiag", 0) * 1e200))
        cert = tmp_path / "cert200.json"
        assert main(["factor", "--instance", str(inst), "--construction", "t13",
                     "--out", str(cert)]) == 0
        assert main(["verify", "--instance", str(inst), "--certificate", str(cert)]) == 0
        factored, verified = map(json.loads, capsys.readouterr().out.splitlines())
        assert verified["passed"] and verified == {k: factored[k] for k in verified}

    def test_verify_wrong_instance_fails(self, tmp_path, capsys):
        inst = self.run_gen(tmp_path)
        other = self.run_gen(tmp_path, seed=4, name="y.json")
        cert = tmp_path / "cert.json"
        main(["factor", "--instance", str(inst), "--construction", "length1",
              "--out", str(cert)])
        capsys.readouterr()
        assert main([
            "verify", "--instance", str(other), "--certificate", str(cert),
        ]) == 1

    def test_tampered_claimed_cost_still_passes(self, tmp_path):
        # claimed_cost is advisory; verification recomputes the real cost
        inst = self.run_gen(tmp_path)
        cert = tmp_path / "cert.json"
        main(["factor", "--instance", str(inst), "--construction", "length1",
              "--out", str(cert)])
        doc = json.loads(cert.read_text())
        doc["claimed_cost"] = 1e9
        cert.write_text(json.dumps(doc))
        assert main([
            "verify", "--instance", str(inst), "--certificate", str(cert),
        ]) == 0

    def overflow_files(self, tmp_path):
        # value 1e200 * 1e-200 + 1 * 1e200 * 1e-200 = 2, cost 1e200 * 1e200 = inf
        inst = tmp_path / "two.json"
        inst.write_text(instance_to_json(BlockMatrix(np.full((1, 1, 1, 1), 2.0))))
        cert = FactorizationCertificate(
            (np.array([[1e200, 1.0]]), np.array([[1.0], [1e-200]])),
            (DiagonalMatrix(np.array([1e-200, 1e200]).reshape(2, 1, 1)),),
        )
        path = tmp_path / "overflow.json"
        path.write_text(certificate_to_json(cert))
        return inst, path

    def test_overflowing_cost_fails_with_strict_json(self, tmp_path, capsys):
        inst, cert = self.overflow_files(tmp_path)
        assert json.loads(cert.read_text())["claimed_cost"] is None
        assert main([
            "verify", "--instance", str(inst), "--certificate", str(cert),
        ]) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(capsys.readouterr().out.strip(), parse_constant=reject)
        assert doc["cost"] is None and doc["ratio"] is None
        assert doc["recon_error"] <= 1e-9 and not doc["passed"]

    @pytest.mark.parametrize("alphas, entries, value, want", [
        ((1e200 * np.eye(2),) * 2, [1e-300 * np.eye(2)] * 2, 1e100,
         [9.999999999999998e99, 0.9999999999999998]),
        ((1e200 * np.eye(2),) * 2, [0.0 * np.eye(2)] * 2, 0.0, [0.0, 0.0]),
        (([[1.0, 0.0]], [[10.0], [10.0]]), [[[0.0]], [[1.0]]], 0.0, [14.142135623730951, None]),
    ], ids=["tiny", "zero", "zero-target"])
    def test_finite_cost_behind_overflowing_scalars_verifies(self, tmp_path, capsys, alphas,
                                                             entries, value, want):
        # tiny, zero: cost 1e200 * 1e200 * d, where the two scalar norms alone overflow;
        # zero-target: a positive cost over a zero target, whose ratio inf is written null
        cert = FactorizationCertificate(alphas, (DiagonalMatrix(np.array(entries)),))
        inst = tmp_path / "x.json"
        inst.write_text(instance_to_json(
            BlockMatrix.from_dense(value * np.eye(cert.n * cert.k), cert.k)))
        path = tmp_path / "cert.json"
        path.write_text(certificate_to_json(cert))
        assert main(["verify", "--instance", str(inst), "--certificate", str(path)]) == 0
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert [doc["cost"], doc["ratio"]] == want and out.err == ""

    def test_non_finite_factor_named_on_load(self, tmp_path, capsys):
        inst, cert = self.overflow_files(tmp_path)
        doc = json.loads(cert.read_text())
        doc["diags"][0][1][0][0][0] = float("nan")
        cert.write_text(json.dumps(doc))
        assert main([
            "verify", "--instance", str(inst), "--certificate", str(cert),
        ]) == 2
        assert "diags[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, target, malform, named", [
        ("verify", "cert", lambda doc: {**doc, "alphas": 5}, "alphas: expected a list"),
        ("verify", "cert", lambda doc: {**doc, "widths": None}, "widths: expected a list"),
        ("verify", "cert", lambda doc: {**doc, "alphas": [doc["alphas"][0], {}]}, "alphas[1]: "),
        ("verify", "cert", lambda doc: {**doc, "alphas": [[[1.0, 0.0]], doc["alphas"][1]]},
         "alphas[0]: scalar factors must be matrices"),
        ("verify", "cert", lambda doc: {**doc, "alphas": [[doc["alphas"][0]], doc["alphas"][1]]},
         "alphas[0]: scalar factors must be matrices"),
        ("verify", "cert", lambda doc: {**doc, "diags": [[[[[1.0, 0.0]] * 3] * 2] * 4]},
         "diags[0]: expected (N, k, k) entries, got (4, 2, 3)"),
        ("verify", "cert", lambda doc: [doc], "expected a JSON object"),
        ("verify", "inst", lambda doc: {**doc, "blocks": {}}, "blocks: expected a list"),
        ("factor", "inst", lambda doc: {**doc, "blocks": [[[[[1.0, 0.0]]]], [1.0]]}, "blocks: "),
        ("factor", "inst", lambda doc: [doc], "expected a JSON object"),
        ("verify", "cert", lambda doc: "[" * 3000 + "]" * 3000, "error: JSON nested too deeply\n"),
        ("factor", "inst", lambda doc: {**doc, "blocks": [[[[[10**400, 0.0]]]]]},
         "blocks: complex arrays must be nested lists of [re, im] pairs"),
        # no entry is a number array: stacking the refused entries would make an object array
        ("factor", "inst", lambda doc: {**doc, "blocks": ["a", "b"]},
         "blocks: complex arrays must be nested lists of [re, im] pairs"),
        # one entry of 64 axes reads; stacking it would need 65, more than numpy allows
        ("factor", "inst", lambda doc: {**doc, "blocks": json.loads("[" * 65 + "0.0" + "]" * 65)},
         "blocks: complex arrays must be nested lists of [re, im] pairs"),
        # only the last "blocks" is judged: the first one's integer is read and let go
        ("factor", "inst", lambda doc: json.dumps({"blocks": [[[[[10**400, 0.0]]]]]})[:-1] + ", "
         + json.dumps({**doc, "blocks": {}})[1:], "blocks: expected a list"),
    ], ids=["alphas-number", "widths-null", "alpha-object", "alpha-vector", "alpha-3d",
            "diag-non-square", "cert-list",
            "blocks-object", "blocks-ragged", "instance-list", "nested-3000-deep",
            "blocks-huge-integer", "blocks-strings", "blocks-entry-64-axes",
            "blocks-huge-integer-in-discarded-duplicate"])
    def test_malformed_file_is_usage_error_naming_the_field(self, tmp_path, capsys, command,
                                                            target, malform, named):
        inst = self.run_gen(tmp_path)
        cert = tmp_path / "cert.json"
        main(["factor", "--instance", str(inst), "--construction", "length1",
              "--out", str(cert)])
        path = cert if target == "cert" else inst
        text = malform(json.loads(path.read_text()))
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        capsys.readouterr()
        argv = {"verify": ["verify", "--instance", str(inst), "--certificate", str(cert)],
                "factor": ["factor", "--instance", str(inst), "--construction", "length1"]}
        assert main(argv[command]) == 2
        out = capsys.readouterr()
        assert named in out.err and out.out == ""

    @pytest.mark.parametrize("command, target, name", [
        *[(c, "inst", f) for c in ("factor", "verify") for f in ("n", "k", "blocks")],
        *[("verify", "cert", f) for f in ("d", "k", "widths", "alphas", "diags")],
    ])
    def test_missing_field_is_usage_error_naming_it(self, tmp_path, capsys, command, target,
                                                    name):
        inst = self.run_gen(tmp_path)
        cert = tmp_path / "cert.json"
        main(["factor", "--instance", str(inst), "--construction", "length1",
              "--out", str(cert)])
        path = cert if target == "cert" else inst
        doc = json.loads(path.read_text())
        del doc[name]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = {"verify": ["verify", "--instance", str(inst), "--certificate", str(cert)],
                "factor": ["factor", "--instance", str(inst), "--construction", "length1"]}
        assert main(argv[command]) == 2
        assert f"error: {name}: missing" in capsys.readouterr().err

    def test_tampered_diagonal_fails(self, tmp_path):
        inst = self.run_gen(tmp_path)
        cert = tmp_path / "cert.json"
        main(["factor", "--instance", str(inst), "--construction", "length1",
              "--out", str(cert)])
        doc = json.loads(cert.read_text())
        doc["diags"][0][0][0][0][0] += 1.0
        cert.write_text(json.dumps(doc))
        assert main([
            "verify", "--instance", str(inst), "--certificate", str(cert),
        ]) == 1

    @pytest.mark.parametrize("argv, named", [
        (["factor", "--instance", "{x34}", "--construction", "t13"], "partition needs n | k"),
        (["factor", "--instance", "{x34}", "--construction", "lemma5"], "partition needs n | k"),
        (["uniformity", "--construction", "t13", "--n", "3", "--k", "4"], "partition needs n | k"),
        (["gen", "--n", "3", "--k", "4", "--distribution", "blockdiag"], "partition needs n | k"),
        (["bench", "--constructions", "nope"],
         "--constructions: unknown 'nope'; known: lemma5, length1, sub18, sub19, t13"),
        (["bench", "--constructions", "t13", "--n-range", "2", "--k", "3"],
         "nothing to run: t13 at n=2, k=3: the diagonal partition needs n | k, got n=2, k=3"),
        (["bench", "--n-range", "", "--trials", "1"], "--n-range: empty"),
        (["bench", "--trials", "0"], "--trials"),
        (["bench", "--n-range", "2,x"], "--n-range: cannot read 'x'"),
        (["cb", "--xi-spec", ""], "--xi-spec: empty"),
        (["cb", "--xi-spec", "abc"], "--xi-spec: cannot read 'abc'"),
        (["verify", "--instance", "{missing}", "--certificate", "{missing}"], "nope.json"),
        (["gen", "--n", "2", "--k", "2", "--noise", "nan"], "noise must be finite, got nan"),
        (["gen", "--n", "2", "--k", "2", "--distribution", "blockdiag", "--noise", "nan"],
         "noise must be finite, got nan"),
        (["gen", "--n", "2", "--k", "2", "--distribution", "blockdiag", "--noise", "1e308"],
         "noise must keep the instance finite, got 1e+308"),
        (["gen", "--n", "2", "--k", "2", "--seed", "-1"], "seed must be >= 0"),
        (["cb", "--xi-spec", "1,1", "--seed", "-1"], "seed must be >= 0"),
        (["bench", "--seed", "-1"], "seed must be >= 0"),
        (["gen", "--n", "2"], "the following arguments are required: --k"),
        (["factor", "--instance", "{x34}", "--construction", "nope"],
         "argument --construction: invalid choice: 'nope'"),
        (["gen", "--n", "x", "--k", "2"], "argument --n: invalid int value: 'x'"),
        (["factor", "--instance", "{x24}", "--construction", "t13", "--out", "{nodir}"],
         "no_such_dir"),
        (["factor", "--instance", "{float_n}", "--construction", "length1"],
         "n: expected an integer, got 1.0"),
        (["factor", "--instance", "{bool_entry}", "--construction", "length1"],
         "blocks: expected numbers, got a JSON boolean"),
    ], ids=["factor-t13-3x4", "factor-lemma5-3x4", "uniformity-t13-3x4", "gen-blockdiag-3x4",
            "bench-unknown-name", "bench-nothing-applicable", "bench-empty-range",
            "bench-zero-trials", "bench-bad-range-item", "cb-empty-spec", "cb-bad-spec",
            "missing-file", "gen-nan-noise", "gen-blockdiag-nan-noise",
            "gen-blockdiag-overflowing-noise", "gen-negative-seed",
            "cb-negative-seed", "bench-negative-seed", "gen-missing-k",
            "factor-unknown-construction", "gen-bad-int", "factor-out-missing-dir",
            "factor-float-header", "factor-boolean-entry"])
    def test_usage_error_is_one_stderr_line_naming_the_rule(self, tmp_path, capsys, argv, named):
        files = {"{missing}": str(tmp_path / "nope.json"),
                 "{nodir}": str(tmp_path / "no_such_dir" / "cert.json")}
        if "{x34}" in argv:
            files["{x34}"] = str(self.run_gen(tmp_path, n=3, k=4))
        if "{x24}" in argv:
            files["{x24}"] = str(self.run_gen(tmp_path, n=2, k=4))
        if "{float_n}" in argv:
            files["{float_n}"] = str(tmp_path / "float_n.json")
            with open(files["{float_n}"], "w") as f:
                f.write('{"n": 1.0, "k": true, "blocks": [[[[[1.0, 0.0]]]]]}')
        if "{bool_entry}" in argv:
            files["{bool_entry}"] = str(tmp_path / "bool_entry.json")
            with open(files["{bool_entry}"], "w") as f:
                f.write('{"n": 1, "k": 1, "blocks": [[[[[true, false]]]]]}')
        capsys.readouterr()
        assert main([files.get(a, a) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert named in out.err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: oplength gen")

    def test_corrupt_instance_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "k": 2, "blocks": []}')
        assert main([
            "factor", "--instance", str(bad), "--construction", "length1",
        ]) == 2

    def test_bench_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            path = tmp_path / name
            assert main([
                "bench", "--n-range", "2,3", "--k", "2", "--trials", "2",
                "--seed", "5", "--constructions", "length1,sub18",
                "--out", str(path),
            ]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "construction,n,k,trial,cost,norm,ratio"

    def test_bench_columns_are_cost_and_target_norm(self, tmp_path):
        path = tmp_path / "b.csv"
        assert main([
            "bench", "--n-range", "2", "--k", "4", "--trials", "2", "--seed", "3",
            "--constructions", ",".join(CONSTRUCTIONS), "--out", str(path),
        ]) == 0
        rows = [r for r in csv.DictReader(path.read_text().splitlines()) if r["trial"] == "1"]
        assert sorted(r["construction"] for r in rows) == sorted(CONSTRUCTIONS)
        for row in rows:
            cert, target = CONSTRUCTIONS[row["construction"]].build(random_instance(2, 4, 3001))
            assert row["cost"] == repr(cost(cert))
            assert row["norm"] == repr(operator_norm(target))

    def test_bench_timings_column(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main([
            "bench", "--n-range", "2", "--k", "2", "--trials", "1",
            "--timings", "--out", str(path),
        ]) == 0
        assert path.read_text().splitlines()[0].endswith(",seconds")

    def test_bench_notes_each_skipped_pair_on_stderr(self, capsys):
        assert main(["bench"]) == 0  # --n-range 2,3 --k 2: t13 needs n | k at n = 3
        out = capsys.readouterr()
        assert out.err == ("skipped t13 at n=3, k=2: "
                           "the diagonal partition needs n | k, got n=3, k=2\n")
        rows = ["construction,n,k,trial,cost,norm,ratio"]
        for name in ("length1", "sub18", "sub19", "t13"):
            for n in (2, 3) if name != "t13" else (2,):
                for t in range(3):
                    rep = certs.verify(*CONSTRUCTIONS[name].build(random_instance(n, 2, t)))
                    rows.append(f"{name},{n},2,{t},{rep.cost!r},{rep.lower!r},{rep.ratio!r}")
        assert out.out == "\n".join(rows) + "\n"

    def test_bench_error_from_a_builder_is_a_usage_error(self, capsys, monkeypatch):
        def refuse(x):
            raise ValueError("builder refused the input")

        spec = replace(CONSTRUCTIONS["length1"], build=refuse)
        monkeypatch.setitem(CONSTRUCTIONS, "length1", spec)
        assert main(["bench", "--constructions", "length1", "--n-range", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: builder refused the input\n"

    def test_bench_shape_error_after_the_first_trial_is_not_a_skip(self, capsys, monkeypatch):
        build, trials = CONSTRUCTIONS["length1"].build, []

        def second_trial_refused(x):
            trials.append(x)
            if len(trials) == 2:
                raise ShapeMismatchError("refused at trial 1")
            return build(x)

        spec = replace(CONSTRUCTIONS["length1"], build=second_trial_refused)
        monkeypatch.setitem(CONSTRUCTIONS, "length1", spec)
        assert main(["bench", "--constructions", "length1", "--n-range", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: refused at trial 1\n"
        assert len(trials) == 2

    def test_cb_tight_case(self, capsys):
        assert main([
            "cb", "--xi-spec", "2,1", "--level", "2", "--restarts", "10",
        ]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["tight"] and doc["consistent"]
        assert doc["oracle"] == pytest.approx(2.0)

    def test_cb_zero_restarts_usage_error(self, capsys):
        assert main(["cb", "--xi-spec", "4,2,1", "--level", "2", "--restarts", "0"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spec", ["nan,1", "1,nan", "1+nanj,1", "inf,1"])
    def test_cb_non_finite_xi_usage_error_naming_xi(self, capsys, spec):
        assert main(["cb", "--xi-spec", spec, "--level", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "xi has non-finite entries" in captured.err

    def test_uniformity_pass(self, capsys):
        assert main([
            "uniformity", "--construction", "length1", "--n", "2", "--k", "2",
            "--trials", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["stable"]

    def test_uniformity_failure_is_a_report_with_exit_1(self, capsys, monkeypatch):
        build = CONSTRUCTIONS["length1"].build

        def input_scaled_scalars(x):
            cert, target = build(x)
            s = abs(x.blocks[0, 0, 0, 0])  # the first scalar factor now depends on the input
            return FactorizationCertificate((cert.alphas[0] * s,) + cert.alphas[1:],
                                            cert.diags), target

        spec = replace(CONSTRUCTIONS["length1"], build=input_scaled_scalars)
        monkeypatch.setitem(CONSTRUCTIONS, "length1", spec)
        assert main(["uniformity", "--construction", "length1", "--n", "2", "--k", "2"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {"stable": False,
                                       "detail": "scalar factor 0 differs at trial 1"}
        assert out.err == ""

    @pytest.mark.parametrize("command", ["factor", "verify", "bench"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, command, tol):
        inst = self.run_gen(tmp_path)
        cert = tmp_path / "cert.json"
        main(["factor", "--instance", str(inst), "--construction", "length1", "--out", str(cert)])
        capsys.readouterr()
        argv = {"factor": ["factor", "--instance", str(inst), "--construction", "length1"],
                "verify": ["verify", "--instance", str(inst), "--certificate", str(cert)],
                "bench": ["bench", "--n-range", "2", "--trials", "1"]}[command]
        assert main(argv + [f"--tol={tol}"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--tol" in out.err

    @pytest.mark.parametrize("construction", ["t13", "lemma5", "length1"])
    def test_zero_n_is_usage_error(self, capsys, construction):
        assert main(["uniformity", "--construction", construction, "--n", "0", "--k", "4"]) == 2
        assert main(["bench", "--n-range", "0", "--k", "4", "--constructions", construction]) == 2
        assert capsys.readouterr().err.count("n and k must be positive") == 2

    def test_factor_t13_evaluates_once(self, tmp_path, monkeypatch):
        inst = self.run_gen(tmp_path, n=2, k=4)
        calls = []
        original = certs.evaluate
        for mod in (certs, pipeline):
            monkeypatch.setattr(mod, "evaluate", lambda c: calls.append(c) or original(c))
        assert main(["factor", "--instance", str(inst), "--construction", "t13"]) == 0
        assert len(calls) == 1

    def test_bench_verification_gates_exit_code(self, tmp_path):
        # all shipped constructions verify, so a full bench run exits 0
        path = tmp_path / "full.csv"
        assert main([
            "bench", "--n-range", "2", "--k", "4", "--trials", "1",
            "--constructions", "length1,lemma5,sub18,sub19,t13",
            "--out", str(path),
        ]) == 0
        rows = path.read_text().splitlines()
        assert len(rows) == 6  # header + one row per construction

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_main_places_arrays_whatever_was_freed_before(self):
        # Memory given back when a 16 MiB array is freed after a command, with and
        # without a 24 MiB array freed first; glibc's default thresholds make these differ.
        code = textwrap.dedent("""
            import os, sys
            import numpy as np
            from oplength.cli import main
            def rss():
                with open("/proc/self/statm") as f:
                    return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
            main(["cb", "--xi-spec", "2,1", "--level", "1", "--restarts", "1"])
            if sys.argv[1] == "1":
                np.ones(3 << 20)  # 24 MiB, freed at once
            a = np.ones(2 << 20)
            before = rss()
            del a
            print(before - rss())
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oplength.__file__)))
        given_back = [
            int(subprocess.run([sys.executable, "-c", code, first], env=env, text=True,
                               capture_output=True, check=True).stdout.splitlines()[-1])
            for first in "01"
        ]
        assert abs(given_back[0] - given_back[1]) < 1 << 20, given_back
