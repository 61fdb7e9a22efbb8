"""Serialization round-trips and the command-line driver."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    CONSTRUCTIONS,
    BlockMatrix,
    DiagonalMatrix,
    FactorizationCertificate,
    cost,
    operator_norm,
    random_instance,
    universal_depth1,
)
from oplength.cli import main
from oplength.serial import (
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
)

from conftest import random_block


def wide_complex(rng, shape):
    """Complex entries over the whole double range, subnormals and signed zeros included."""
    parts = rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-320, 300, size=shape + (2,))
    parts[rng.random(shape + (2,)) < 0.2] = 0.0
    parts[rng.random(shape + (2,)) < 0.2] = -0.0
    return parts.view(np.complex128)[..., 0]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSerialization:
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

    def test_non_finite_factor_named_on_load(self, tmp_path, capsys):
        inst, cert = self.overflow_files(tmp_path)
        doc = json.loads(cert.read_text())
        doc["diags"][0][1][0][0][0] = float("nan")
        cert.write_text(json.dumps(doc))
        assert main([
            "verify", "--instance", str(inst), "--certificate", str(cert),
        ]) == 2
        assert "diags[0]" in capsys.readouterr().err

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

    def test_factor_inapplicable_is_usage_error(self, tmp_path, capsys):
        inst = self.run_gen(tmp_path, n=3, k=4)
        assert main([
            "factor", "--instance", str(inst), "--construction", "lemma5",
        ]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main([
            "verify", "--instance", str(tmp_path / "nope.json"),
            "--certificate", str(tmp_path / "nope2.json"),
        ]) == 2

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

    def test_bench_empty_range_usage_error(self, tmp_path):
        assert main(["bench", "--n-range", "", "--trials", "1"]) == 2

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

    def test_cb_bad_spec_usage_error(self, capsys):
        assert main(["cb", "--xi-spec", "abc"]) == 2

    def test_uniformity_pass(self, capsys):
        assert main([
            "uniformity", "--construction", "length1", "--n", "2", "--k", "2",
            "--trials", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["stable"]

    def test_uniformity_inapplicable_usage_error(self):
        assert main([
            "uniformity", "--construction", "t13", "--n", "3", "--k", "4",
        ]) == 2

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
