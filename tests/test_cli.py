import contextlib
import copy
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisplit import cli, cohomology, linalg
from equisplit.bundle import EquivariantBundle, LineSummand, TorusAction, random_instance, random_reframe
from equisplit.cli import main
from equisplit.cohomology import Character
from equisplit.jsonio import certificate_to_json, dumps_canonical, instance_to_json, load_json_file
from equisplit.laurent import LaurentPoly
from equisplit.linalg import LaurentMatrix
from equisplit.selftest import CriterionResult, _closed_form_characters, fixture_dir
from equisplit.splitting import InvariantViolation, SplittingCertificate, equivariant_split


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fixture_path(name):
    return str(fixture_dir() / name / "instance.json")


def dumps_with_duplicate(doc, path, key, value):
    """JSON text of doc whose object at path lists key once more, with value, after its own keys."""
    marker = "duplicate-key-marker"
    doc = copy.deepcopy(doc)
    parent, obj = None, doc
    for part in path:
        parent, obj = obj, obj[part]
    text = json.dumps(obj)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    if parent is None:
        return text
    parent[path[-1]] = marker
    return json.dumps(doc).replace(json.dumps(marker), text)


class TestValidate:
    def test_valid_instance(self, capsys):
        code, out, _ = run(capsys, "validate", fixture_path("o_3"))
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_invalid_instance(self, capsys, tmp_path):
        doc = load_json_file(fixture_path("o_3"))
        doc["lambdaInf"] = [[5]]
        bad = tmp_path / "bad.json"
        bad.write_text(dumps_canonical(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_singular_transition_takes_no_adjugate_pass(self, capsys, monkeypatch, tmp_path):
        # dense m=32, a=(0,) with its last row zeroed: det 0 is read off the
        # core's pattern, where a whole-core pass took seconds
        rng = random.Random(1)
        summands = [LineSummand(rng.randint(-3, 3), (rng.randint(-2, 2),)) for _ in range(32)]
        E, _ = random_instance(1, summands, 320, TorusAction(1, (0,)))
        for k in range(32):
            E.A.entries[31][k] = LaurentPoly.zero()
        path = tmp_path / "singular.json"
        path.write_text(dumps_canonical(instance_to_json(E)))
        sizes = []
        adjugate = linalg.mat_adjugate
        monkeypatch.setattr(linalg, "mat_adjugate", lambda M: sizes.append(M.rows) or adjugate(M))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert json.loads(out) == {"valid": False, "violations": ["det(A) = 0 is not a nonzero monomial"]}
        assert sizes == []

    def test_parse_error_exit_2(self, capsys, tmp_path):
        doc = load_json_file(fixture_path("o_3"))
        doc["A"][0][0] = [[0, 1, 0]]
        bad = tmp_path / "bad.json"
        bad.write_text(dumps_canonical(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["pointer"].startswith("/A/0/0")

    def test_missing_file(self, capsys):
        code, out, _ = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 2
        assert "error" in json.loads(out)

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 2


class TestCohomology:
    def test_o_minus2(self, capsys):
        code, out, _ = run(capsys, "cohomology", fixture_path("o_minus2"))
        assert code == 0
        doc = json.loads(out)
        assert doc["h0_dim"] == 0 and doc["h1_dim"] == 1
        assert doc["h1_character"] == [{"weight": [1], "mult": 1}]
        assert doc["degree"] == -2

    def test_matches_expected_file(self, capsys):
        for name in ("o_0", "o_1", "o_3", "jump_type_0_0", "peel_equivariant"):
            code, out, _ = run(capsys, "cohomology", fixture_path(name))
            assert code == 0
            doc = json.loads(out)
            expected = load_json_file(str(fixture_dir() / name / "expected.json"))
            assert doc["h0_character"] == expected["h0_character"]
            assert doc["h1_character"] == expected["h1_character"]

    def test_dense_rank_7_matches_closed_forms(self, capsys, tmp_path):
        # a dense no-torus scramble of 70 operations
        rng = random.Random(1)
        summands = [LineSummand(rng.randint(-3, 3), ()) for _ in range(7)]
        E, hidden = random_instance(1, summands, 70)
        path = tmp_path / "inst.json"
        path.write_text(dumps_canonical(instance_to_json(E)))
        code, out, _ = run(capsys, "cohomology", str(path))
        assert code == 0
        h0, h1 = _closed_form_characters(hidden, E.torus)
        assert json.loads(out) == {
            "rank": 7,
            "degree": sum(s.n for s in hidden),
            "h0_dim": h0.total(),
            "h1_dim": h1.total(),
            "h0_character": h0.to_json(),
            "h1_character": h1.to_json(),
        }


class TestSplit:
    def test_o3_exact_output(self, capsys):
        code, out, _ = run(capsys, "split", fixture_path("o_3"))
        assert code == 0
        assert json.loads(out) == {"summands": [{"n": 3, "lam": [0]}]}

    def test_expected_block_checked(self, capsys, tmp_path):
        doc = load_json_file(fixture_path("peel_equivariant"))
        doc["expected"] = {"summands": [{"n": 2, "lam": [0]}, {"n": 0, "lam": [-1]}]}
        f = tmp_path / "wrong.json"
        f.write_text(dumps_canonical(doc))
        code, out, err = run(capsys, "split", str(f))
        assert code == 1

    def test_certificate_output(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "split", fixture_path("peel_equivariant"), "--certificate", str(cert_file)
        )
        assert code == 0
        assert cert_file.exists()
        code, out, _ = run(capsys, "verify", fixture_path("peel_equivariant"), str(cert_file))
        assert code == 0
        assert json.loads(out)["ok"] is True


    @pytest.mark.parametrize("seed", range(4))
    def test_reframing_keeps_the_document(self, capsys, tmp_path, seed):
        # degree ties: peel order depends on the frame, the printed order must not
        summands = [LineSummand(1, (0,)), LineSummand(1, (-1,)), LineSummand(0, (2,)),
                    LineSummand(0, (1,))]
        E, _ = random_instance(seed, summands, 6, TorusAction(1, (0,)))
        docs = []
        for k, bundle in enumerate((E, random_reframe(E, seed + 100, 6))):
            path = tmp_path / f"inst{k}.json"
            path.write_text(dumps_canonical(instance_to_json(bundle)))
            code, out, _ = run(capsys, "split", str(path))
            assert code == 0
            docs.append(out)
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["summands"] == [
            {"n": 1, "lam": [-1]}, {"n": 1, "lam": [0]}, {"n": 0, "lam": [1]}, {"n": 0, "lam": [2]}
        ]


def _tampered(cert, kind):
    """cert with one thing broken: a product entry, a weight-law monomial or an exponent's sign."""
    P = LaurentPoly
    M0 = [row[:] for row in cert.M0.entries]
    MInf = [row[:] for row in cert.MInf.entries]
    summands = list(cert.summands)
    if kind == "off_diagonal_product":  # column 1 += column 0
        for row in M0:
            row[1] = row[1] + row[0]
    elif kind == "diagonal_product":
        for row in M0:
            row[0] = row[0].scale(2)
    elif kind == "m0_weight_law":  # five monomials off the law, so the detail is cut at four
        M0[1][2] = M0[1][2] + P({5: 3, 6: -1})
        M0[3][1] = M0[3][1] + P({7: 2})
        M0[0][3] = M0[0][3] + P.monomial(1)
        M0[2][0] = M0[2][0] + P.monomial(2)
    elif kind == "minf_weight_law":
        MInf[2][0] = MInf[2][0] + P.monomial(4, Fraction(1, 2))
    else:  # M0 diag(z^-1, 1, 1, 1) still reaches the diagonal with n_0 one larger
        for row in M0:
            row[0] = row[0].shift(-1)
        summands[0] = LineSummand(summands[0].n + 1, summands[0].lam)
    return SplittingCertificate(summands, LaurentMatrix(M0), LaurentMatrix(MInf))


def _failed(**details):
    """A verify document whose named checks fail with the given details; the others pass."""
    names = ["product_diagonal", "frames_invertible", "frames_equivariant", "degrees_sum", "summand_inf_weights"]
    checks = [
        {"name": name, "ok": False, "detail": details[name]} if name in details else {"name": name, "ok": True}
        for name in names
    ]
    return {"ok": False, "checks": checks}


NEEDS = "needs product_diagonal"
TAMPERED_DOCUMENTS = {
    "off_diagonal_product": _failed(
        product_diagonal="entry (0,1) is z^-2, expected 0",
        frames_invertible=NEEDS,
        frames_equivariant="M0[1][1] exponent 0",
        degrees_sum=NEEDS,
    ),
    "diagonal_product": _failed(
        product_diagonal="entry (0,0) is 2*z^-2, expected z^-2",
        frames_invertible=NEEDS,
        degrees_sum=NEEDS,
    ),
    "m0_weight_law": _failed(
        product_diagonal="entry (0,2) is 3*z^3 - z^4, expected 0",
        frames_invertible=NEEDS,
        frames_equivariant="M0[0][3] exponent 1; M0[1][2] exponent 5; M0[1][2] exponent 6; M0[2][0] exponent 2",
        degrees_sum=NEEDS,
    ),
    "minf_weight_law": _failed(
        product_diagonal="entry (2,0) is 1/2*z^-6, expected 0",
        frames_invertible=NEEDS,
        frames_equivariant="MInf[2][0] exponent 4",
        degrees_sum=NEEDS,
        summand_inf_weights="row 2: implied (-5,), claimed (0,)",
    ),
    "negative_exponent": _failed(
        frames_invertible="M0 has a negative exponent",
        frames_equivariant="M0[1][0] exponent -1; MInf[0][0] exponent 0",
        degrees_sum="degrees [3, 0, 0, -1] vs degree(E) = 1",
        summand_inf_weights="row 0: implied (-1,), claimed (-2,)",
    ),
}


class TestVerify:
    def test_tampered_certificate(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run(capsys, "split", fixture_path("peel_equivariant"), "--certificate", str(cert_file))
        doc = load_json_file(str(cert_file))
        doc["M0"][0][0] = [[1, 7, 2]]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(dumps_canonical(doc))
        code, out, _ = run(capsys, "verify", fixture_path("peel_equivariant"), str(tampered))
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        failed = {c["name"] for c in report["checks"] if not c["ok"]}
        assert failed & {"product_diagonal", "frames_equivariant"}

    def test_laurent_frame_certificate(self, capsys, tmp_path):
        # M0 = diag(z^-1, z) would certify O + O as O(1) + O(-1)
        E = EquivariantBundle(LaurentMatrix.identity(2), ((), ()), ((), ()))
        M0 = LaurentMatrix.diagonal([LaurentPoly.monomial(-1), LaurentPoly.monomial(1)])
        cert = SplittingCertificate(
            [LineSummand(1, ()), LineSummand(-1, ())], M0, LaurentMatrix.identity(2)
        )
        inst, cert_file = tmp_path / "inst.json", tmp_path / "cert.json"
        inst.write_text(dumps_canonical(instance_to_json(E)))
        cert_file.write_text(dumps_canonical(certificate_to_json(cert)))
        code, out, _ = run(capsys, "verify", str(inst), str(cert_file))
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert [c["name"] for c in report["checks"] if not c["ok"]] == ["frames_invertible"]

    @pytest.mark.parametrize("kind", sorted(TAMPERED_DOCUMENTS))
    def test_failure_document_is_pinned(self, capsys, tmp_path, kind):
        # one certificate of a rank-4 moving-base bundle, tampered one way per
        # case; the verify command's stdout stays byte for byte the same
        T = TorusAction(1, (1,))
        summands = [LineSummand(2, (1,)), LineSummand(0, (0,)), LineSummand(0, (-1,)), LineSummand(-1, (2,))]
        E, _ = random_instance(5, summands, 14, T)
        _, cert = equivariant_split(E)
        inst, cert_file = tmp_path / "inst.json", tmp_path / "cert.json"
        inst.write_text(dumps_canonical(instance_to_json(E)))
        cert_file.write_text(dumps_canonical(certificate_to_json(_tampered(cert, kind))))
        code, out, _ = run(capsys, "verify", str(inst), str(cert_file))
        assert code == 1
        assert out == dumps_canonical(TAMPERED_DOCUMENTS[kind])


class TestRandom:
    def test_pipeline_closure(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "random", "--seed", "7", "--summands", "1:0,1:-1", "--ops", "6", "--torus", "1"
        )
        assert code == 0
        inst = tmp_path / "inst.json"
        inst.write_text(out)
        code, out2, _ = run(capsys, "split", str(inst))
        assert code == 0
        got = json.loads(out2)["summands"]
        assert sorted((s["n"], tuple(s["lam"])) for s in got) == [(1, (-1,)), (1, (0,))]

    def test_deterministic_output(self, capsys):
        args = ("random", "--seed", "11", "--summands", "2:1,0:0", "--ops", "8", "--torus", "1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_no_torus(self, capsys):
        code, out, _ = run(capsys, "random", "--seed", "1", "--summands", "1,0", "--ops", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["torus"] == {"rank": 0, "a": []}

    def test_bad_summand_weight_count(self, capsys):
        code, out, _ = run(capsys, "random", "--seed", "1", "--summands", "1:0", "--ops", "2")
        assert code == 2

    def test_torus_rank_two(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "random", "--seed", "5", "--summands", "1:0:1,0:1:-1", "--ops", "5",
            "--torus", "1,-1",
        )
        assert code == 0
        inst = tmp_path / "inst.json"
        inst.write_text(out)
        assert run(capsys, "validate", str(inst))[0] == 0


class TestErrors:
    """Bad inputs give one JSON error document and exit code 2, never a traceback."""

    def test_directory_argument(self, capsys, tmp_path):
        code, out, _ = run(capsys, "split", str(tmp_path))
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "kind, path, key, value",
        [("instance", (), "rank", 3), ("instance", ("torus",), "a", [2]), ("certificate", (), "M0", [])],
        ids=["top-level", "torus", "certificate"],
    )
    def test_duplicate_key_is_a_parse_error(self, capsys, tmp_path, kind, path, key, value):
        # json.load alone keeps the last value: "rank": 1 then "rank": 3 read as rank 3
        inst, cert = fixture_path("o_3"), tmp_path / "cert.json"
        run(capsys, "split", inst, "--certificate", str(cert))
        bad = tmp_path / "bad.json"
        base = load_json_file(inst if kind == "instance" else str(cert))
        bad.write_text(dumps_with_duplicate(base, path, key, value))
        argv = ["validate", str(bad)] if kind == "instance" else ["verify", inst, str(bad)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": {"pointer": "(document)", "message": f"duplicate key {key!r}"}}
        assert "Traceback" not in err

    def test_unknown_key_is_ignored(self, capsys, tmp_path):
        doc = load_json_file(fixture_path("o_3"))
        doc["comment"] = "not part of the schema"
        path = tmp_path / "extra.json"
        path.write_text(dumps_canonical(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_undecodable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"rank": 1, "A": "\xff\xfe"}')
        code, out, _ = run(capsys, "cohomology", str(bad))
        assert code == 2
        assert "UTF-8" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 100_000 + b"]" * 100_000,
            b'{"rank": 1, "A": [[[[0, ' + b"7" * 5000 + b', 1]]]]}',
            b'{"rank": 1, "A": "\xff\xfe"}',
        ],
        ids=["deep-nesting", "5000-digit-integer", "non-utf8"],
    )
    @pytest.mark.parametrize("command", ["validate", "cohomology", "split", "verify-instance", "verify-certificate"])
    def test_unparsable_file_is_one_json_document(self, capsys, tmp_path, content, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {
            "verify-instance": ["verify", str(bad), fixture_path("o_3")],
            "verify-certificate": ["verify", fixture_path("o_3"), str(bad)],
        }.get(command, [command, str(bad)])
        code, out, err = run(capsys, *argv)
        assert code in (1, 2)
        doc = json.loads(out)  # exactly one document: trailing text would not parse
        assert list(doc) == ["error"] and doc["error"]["message"]
        assert "Traceback" not in err

    def test_negative_op_count(self, capsys):
        code, out, err = run(capsys, "random", "--seed", "1", "--summands", "1,0", "--ops", "-3")
        assert code == 2
        doc = json.loads(out)
        assert list(doc) == ["error"] and doc["error"]["pointer"] == "--ops"
        assert "Traceback" not in err

    def test_bad_torus(self, capsys):
        code, out, _ = run(capsys, "random", "--seed", "1", "--summands", "1:0", "--torus", "x")
        assert code == 2
        assert json.loads(out)["error"]["pointer"] == "--torus"

    @pytest.mark.parametrize(
        "torus, summands, pointer",
        [("1,,2", "1:0:0", "--torus"), ("1,", "1:0", "--torus"), ("1", "1::0", "--summands[0]"),
         ("1", "1:0,0:1:", "--summands[1]"), ("", "", "--summands[0]")],
        ids=["torus-inner", "torus-trailing", "summand-inner", "summand-trailing", "summands-empty"],
    )
    def test_empty_field(self, capsys, torus, summands, pointer):
        code, out, err = run(
            capsys, "random", "--seed", "1", "--summands", summands, "--torus", torus
        )
        assert code == 2
        doc = json.loads(out)
        assert list(doc) == ["error"] and doc["error"]["pointer"] == pointer
        assert "Traceback" not in err

    def test_unreadable_file(self, capsys, monkeypatch):
        # a permission bit cannot be relied on when the tests run as root
        def deny(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "load_json_file", deny)
        code, out, _ = run(capsys, "validate", fixture_path("o_3"))
        assert code == 2
        assert "Permission denied" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "argv, phrase",
        [
            (["random", "--summands", "1"], "--seed"),
            (["bogus"], "invalid choice"),
            (["random", "--seed", "x", "--summands", "1"], "invalid int value"),
        ],
    )
    def test_usage_error_is_one_json_document(self, capsys, argv, phrase):
        code, out, err = run(capsys, *argv)
        assert code == 2
        doc = json.loads(out)  # exactly one document: trailing text would not parse
        assert list(doc) == ["error"]
        assert phrase in doc["error"]["message"]
        assert "usage:" in err and "Traceback" not in err

    def test_window_variable_is_ignored(self, capsys, monkeypatch):
        # the H^1 window is exact, so there is no cap left to override
        for name in ("o_3", "jump_type_0_0"):
            monkeypatch.delenv("EQUISPLIT_MAX_WINDOW", raising=False)
            unset = run(capsys, "cohomology", fixture_path(name))
            assert unset[0] == 0
            for value in ("abc", "1"):
                monkeypatch.setenv("EQUISPLIT_MAX_WINDOW", value)
                assert run(capsys, "cohomology", fixture_path(name)) == unset, (name, value)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_shared_parser_answers_every_call_the_same(self, capsys):
        # the parser is built once per process; an error or a successful
        # parse must leave nothing behind for the next call
        assert cli.build_parser() is cli.build_parser()
        usage = run(capsys, "random", "--summands", "1")
        valid = run(capsys, "validate", fixture_path("o_3"))
        assert run(capsys, "random", "--summands", "1") == usage
        assert run(capsys, "validate", fixture_path("o_3")) == valid
        assert json.loads(usage[1])["error"]["pointer"] == "equisplit random"

    def test_invariant_violation_exit_1(self, capsys, monkeypatch):
        def broken(E):
            raise InvariantViolation("peel degrees out of order: 2 after 1")

        monkeypatch.setattr(cli, "equivariant_split", broken)
        code, out, _ = run(capsys, "split", fixture_path("o_3"))
        assert code == 1
        assert json.loads(out)["error"]["invariant"] == "peel degrees out of order: 2 after 1"

    def test_memory_error_is_one_json_document(self, capsys, monkeypatch):
        # an H^1 window past the process's memory limit
        def exhausted(E):
            raise MemoryError

        monkeypatch.setattr(cli, "cech_cohomology", exhausted)
        code, out, err = run(capsys, "cohomology", fixture_path("o_3"))
        assert code == 1
        assert json.loads(out) == {"error": {"message": "out of memory"}}
        assert "Traceback" not in err

    def _assert_invariant_document(self, capsys, phrase):
        code, out, err = run(capsys, "cohomology", fixture_path("jump_type_0_0"))
        assert code == 1
        doc = json.loads(out)  # exactly one document: trailing text would not parse
        assert doc["error"]["message"] == "internal invariant failed"
        assert phrase in doc["error"]["invariant"]
        assert "Traceback" not in err

    def test_non_polynomial_section_is_an_invariant_failure(self, capsys, monkeypatch):
        # f = A^-1 h with a negative exponent fails inside the split's eigen-section
        monkeypatch.setattr(cohomology, "_times_column", lambda M, v: tuple(LaurentPoly.monomial(-1) for _ in v))
        code, out, err = run(capsys, "split", fixture_path("o_3"))
        assert code == 1
        doc = json.loads(out)  # exactly one document
        assert doc["error"]["message"] == "internal invariant failed"
        assert "non-polynomial f" in doc["error"]["invariant"]
        assert "Traceback" not in err

    def test_oracle_disagreement_is_an_invariant_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cech_cohomology", lambda E: (5, Character()))
        self._assert_invariant_document(capsys, "H^0 dimension 2 from the inverse route != 5")

    def test_euler_failure_is_an_invariant_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cohomology, "_cech_once", lambda E, f_degrees, W: (0, Character()))
        self._assert_invariant_document(capsys, "Euler identity fails at Cech window")


def _fuzz_base(seed, summands, torus):
    E, hidden = random_instance(seed, summands, 6, torus)
    return instance_to_json(E, hidden), certificate_to_json(equivariant_split(E)[1])


# small valid instances, with their certificates, that the fuzz test mutates
FUZZ_BASES = [
    _fuzz_base(1, [LineSummand(1, (0,)), LineSummand(-1, (1,))], TorusAction(1, (1,))),
    _fuzz_base(2, [LineSummand(2, ()), LineSummand(0, ()), LineSummand(-1, ())], TorusAction(0, ())),
    _fuzz_base(3, [LineSummand(1, (0,)), LineSummand(1, (-1,)), LineSummand(0, (2,))], TorusAction(1, (0,))),
    _fuzz_base(4, [LineSummand(0, (0, 0)), LineSummand(-2, (1, 0))], TorusAction(2, (1, -1))),
]

# one value of each JSON type, small enough that no exponent span grows
FUZZ_VALUES = [None, True, 0, 1, -1, 1.5, "x", [], [0], {}, {"n": 0}]


def _fuzz_node(data, doc):
    """(parent, key) of a node reached by walking a drawn number of levels down from the root."""
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 6))):
        if node.__class__ not in (dict, list) or not node:
            break
        keys = sorted(node) if node.__class__ is dict else range(len(node))
        key = data.draw(st.sampled_from(keys))
        parent, node = node, node[key]
    return parent, key


def _fuzz_entries(doc, names):
    """(matrix name, row, column) of every entry of the named matrices."""
    return [(name, i, j) for name in names for i, row in enumerate(doc[name]) for j in range(len(row))]


def _mutated(data, doc, kind):
    """The text of doc with one drawn change; kind is "instance" or "certificate"."""
    doc = copy.deepcopy(doc)
    matrices = ("A",) if kind == "instance" else ("M0", "MInf")
    mutations = ["retype", "drop_key", "duplicate_key", "resize_row", "zero_row"]
    mutations.append("break_law" if kind == "instance" else "perturb_coefficient")
    mutation = data.draw(st.sampled_from(mutations))
    if mutation == "retype":
        parent, key = _fuzz_node(data, doc)
        old = doc if parent is None else parent[key]
        value = data.draw(st.sampled_from([v for v in FUZZ_VALUES if v.__class__ is not old.__class__]))
        if parent is None:
            return json.dumps(value)
        parent[key] = value
    elif mutation in ("drop_key", "duplicate_key"):
        path = []
        node = doc
        while True:  # descend through objects only, stopping at a drawn depth
            children = [k for k, v in node.items() if v.__class__ is dict and v]
            if not children or not data.draw(st.booleans()):
                break
            path.append(data.draw(st.sampled_from(sorted(children))))
            node = node[path[-1]]
        key = data.draw(st.sampled_from(sorted(node)))
        if mutation == "duplicate_key":
            value = data.draw(st.sampled_from([node[key], *FUZZ_VALUES]))
            return dumps_with_duplicate(doc, path, key, value)
        del node[key]
    elif mutation in ("resize_row", "zero_row"):
        name = data.draw(st.sampled_from(matrices))
        row = doc[name][data.draw(st.integers(0, len(doc[name]) - 1))]
        if mutation == "zero_row":
            row[:] = [[] for _ in row]
        elif row and data.draw(st.booleans()):
            row.pop()
        else:
            row.append([])
    elif mutation == "break_law":
        weights = [w for name in ("lambda0", "lambdaInf") for w in doc[name]]
        if weights[0]:  # shift one weight entry: the law pairs it with the transition
            w = data.draw(st.sampled_from(weights))
            w[data.draw(st.integers(0, len(w) - 1))] += data.draw(st.sampled_from([-1, 1]))
        else:  # no torus: the law is empty, so add a monomial to A instead
            name, i, j = data.draw(st.sampled_from(_fuzz_entries(doc, ("A",))))
            entry = doc["A"][i][j]
            entry[:] = [m for m in entry if m[0] != 1] + [[1, 1, 1]]
    else:
        monomials = [(name, i, j, k) for name, i, j in _fuzz_entries(doc, matrices)
                     for k in range(len(doc[name][i][j]))]
        name, i, j, k = data.draw(st.sampled_from(monomials))
        mono = doc[name][i][j][k]
        mono[1] += data.draw(st.sampled_from([1, 2]))
        if mono[1] == 0:
            mono[1] = 3
    return json.dumps(doc)


def _assert_contract(argv):
    """cli.main returns 0, 1 or 2 and writes exactly one JSON document; nothing escapes it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    text = out.getvalue()
    doc, end = json.JSONDecoder().raw_decode(text)
    assert text[end:] == "\n" and doc.__class__ is dict
    if code == 2:
        assert list(doc) == ["error"]


class TestContractFuzz:
    """Mutated instances and certificates keep the CLI contract on every command.

    Each example changes one thing in a valid document: a value's JSON type,
    a dropped or duplicated key, a resized or zeroed matrix row, the weight
    law, or one certificate coefficient.  Exponents stay small, so this does
    not cover a huge exponent span, on which ``cohomology`` has no bound yet.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(range(len(FUZZ_BASES))), st.sampled_from(["instance", "certificate"]), st.data())
    def test_mutated_documents_keep_the_contract(self, tmp_path_factory, base, kind, data):
        inst_doc, cert_doc = FUZZ_BASES[base]
        folder = tmp_path_factory.mktemp("fuzz")
        inst, cert = folder / "instance.json", folder / "cert.json"
        inst.write_text(json.dumps(inst_doc))
        cert.write_text(json.dumps(cert_doc))
        if kind == "instance":
            inst.write_text(_mutated(data, inst_doc, kind))
            for command in ("validate", "cohomology", "split"):
                _assert_contract([command, str(inst)])
        else:
            cert.write_text(_mutated(data, cert_doc, kind))
        _assert_contract(["verify", str(inst), str(cert)])


class TestSelftest:
    def test_json_carries_no_timing(self):
        fast = CriterionResult(1, "round trip", True, "", 0.5).to_json()
        slow = CriterionResult(1, "round trip", True, "", 50.0).to_json()
        assert fast == slow
        assert "seconds" not in fast


def test_cohomology_work_counters(capsys, monkeypatch, tmp_path):
    # the first 20 instances of the benchmark's cohomology-dense pool (run
    # seed 0), through the CLI.  The det pass of each input pivots on
    # monomial entries; only a nonempty unit-free core takes a
    # Faddeev–LeVerrier pass (mat_adjugate) and two finishing products.
    # With a pass for every input this was 20 adjugate passes and 80 matrix
    # products
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    from instances import write_pool
    from workloads import WORKLOADS

    keys = write_pool(WORKLOADS["cohomology-dense"], 0, tmp_path, count=20)
    calls = {"adjugate": [], "matmul": 0}
    adjugate = linalg.mat_adjugate
    matmul = LaurentMatrix.__matmul__

    def counted_adjugate(M):
        calls["adjugate"].append(M.rows)
        return adjugate(M)

    def counted_matmul(self, other):
        calls["matmul"] += 1
        return matmul(self, other)

    monkeypatch.setattr(linalg, "mat_adjugate", counted_adjugate)
    monkeypatch.setattr(LaurentMatrix, "__matmul__", counted_matmul)
    for key in keys:
        code, out, _ = run(capsys, "cohomology", key.path)
        assert code == 0, key.seed
        assert json.loads(out) == key.cohomology_doc(), key.seed
    # one input leaves a 2x2 core: its pass is the fused det product, and
    # S^-1 and the pivot rows' correction take one product each
    assert calls == {"adjugate": [2], "matmul": 3}


def test_cohomology_pool_document_is_byte_identical(capsys, monkeypatch, tmp_path):
    # sha256 of the concatenated cohomology stdout over the benchmark's whole
    # cohomology-dense pool (run seed 0), the digest its traced runs report
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    from instances import write_pool
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for key in write_pool(WORKLOADS["cohomology-dense"], 0, tmp_path):
        code, out, _ = run(capsys, "cohomology", key.path)
        assert code == 0, key.seed
        digest.update(out.encode())
    assert digest.hexdigest() == "2be755bacd1690d03d9ebd7ee21d59f9914e8f3da091678c57aad68dcbeb5ddc"


# sha256 of the cohomology stdout of the dense rank-m scramble with 10*m ops
# under the torus acting through a, as in tests/test_splitting.py::dense_moving
COHOMOLOGY_SHA_DENSE = {
    (6, ()): "395820f1b21eae7b786874f84147f56660e50665d54d609ada4c660fa0295bc7",
    (8, ()): "ca22403db6a692fc60fe479332e4ff893d27896008df50d7693b4083dc82a647",
    (12, ()): "af81d539c2df770299460d5761974aefa3b527dbfb07c6dd4959838ca33ab582",
    (16, ()): "36304481ea2416de2024ca4f6de81d53b3b92be97759426edb42fdd331f31cf9",
    (6, (0,)): "d0b868e19f3252fefe4056ed1fbda2399302e1992400373efa5df4b383fb6d63",
    (8, (0,)): "b6ee836920d88ff0eff463fca9bc6cc7bef97d467ce38299af5e8c333fdc9f6e",
    (12, (0,)): "4a2986201c112a3d27663dc0e4258a4ca469a52addc030d81266aa1727da7aff",
    (16, (0,)): "cd899193e417635cbf92a5e8d4d63df24aeae438cd2f2e07834d2930f68ddca5",
    (6, (1,)): "a687e437f02ed08fb46751ef5997c613eeef1cea780ab2d158c6fc639ca4aaf8",
    (8, (1,)): "eb9fd870ad0aeafb61c5cb703e7a8967372d1831ce437648aadc81e9174bc556",
    (12, (1,)): "44892fc74060f651aac9ce0ddd6524aacb633a330963657708bbc2441d89263c",
    (16, (1,)): "b44e7e4271444b6a7d354674984262b6ae4ca094facca6a7d76a639c2890c8df",
}


@pytest.mark.parametrize("m, a", list(COHOMOLOGY_SHA_DENSE), ids=lambda v: str(v))
def test_dense_cohomology_document_is_byte_identical(capsys, tmp_path, m, a):
    torus = TorusAction(len(a), a)
    rng = random.Random(1)
    summands = [LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in a)) for _ in range(m)]
    E, _ = random_instance(1, summands, 10 * m, torus)
    path = tmp_path / "instance.json"
    path.write_text(dumps_canonical(instance_to_json(E)))
    code, out, _ = run(capsys, "cohomology", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COHOMOLOGY_SHA_DENSE[m, a]
