"""Acceptance suite: one test per shipped criterion, exact arithmetic, zero tolerance.

Each test prints its pass/fail line; the ``selftest`` CLI command runs the
same criteria.  Criterion 8 (invariant assertions never fire) aggregates over
the criteria executed before it, so the module keeps shared state in order.
"""

from equisplit import selftest
from equisplit.linalg import LaurentMatrix
from equisplit.splitting import SplittingCertificate, verify_certificate

_RESULTS: list[selftest.CriterionResult] = []


def _record(result):
    _RESULTS.append(result)
    print(result.line())
    assert result.passed, result.detail
    assert result.invariant_violations == 0


def test_criterion_1_theorem_round_trip():
    # 200 seeded instances: rank <= 5, torus rank <= 2, ops <= 10, |d| <= 3;
    # split must return the hidden summand multiset and the certificate must
    # pass all five checks.  Budget: well under 60 seconds.
    result = selftest.criterion_1_roundtrip(200)
    _record(result)
    assert result.seconds < 60.0


def test_criterion_2_splitting_type_uniqueness():
    _record(selftest.criterion_2_uniqueness(100))


def test_criterion_3_riemann_roch():
    _record(selftest.criterion_3_riemann_roch(500))


def test_criterion_4_character_identity():
    _record(selftest.criterion_4_character_identity(200))


def test_criterion_5_oracle_equivalence():
    _record(selftest.criterion_5_oracle_equivalence(100))


def test_criterion_6_projection_surjectivity():
    _record(selftest.criterion_6_projection_surjectivity(50))


def test_criterion_7_golden_fixtures():
    _record(selftest.criterion_7_golden_fixtures())


def test_criterion_8_invariant_assertions_never_fire():
    result = selftest.criterion_8_invariant_assertions(_RESULTS)
    _RESULTS.append(result)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_9_mutation_detection():
    _record(selftest.criterion_9_mutation_detection(40))


def test_criterion_1_compares_the_split_as_emitted(monkeypatch):
    # swap two summands of equal degree and different weight, with the frames
    # permuted to match: the certificate still verifies, but the summands are
    # out of canonical sort_key order, so the round trip must fail
    original = selftest.equivariant_split
    swapped = []

    def out_of_order(E):
        summands, cert = original(E)
        i = next(
            (
                i
                for i in range(len(summands) - 1)
                if summands[i].n == summands[i + 1].n and summands[i].lam != summands[i + 1].lam
            ),
            None,
        )
        if i is None:
            return summands, cert
        perm = list(range(len(summands)))
        perm[i], perm[i + 1] = i + 1, i
        cert = SplittingCertificate(
            [summands[k] for k in perm],
            LaurentMatrix([[row[k] for k in perm] for row in cert.M0.entries]),
            LaurentMatrix([cert.MInf.entries[k] for k in perm]),
        )
        assert verify_certificate(E, cert).ok
        swapped.append(i)
        return cert.summands, cert

    monkeypatch.setattr(selftest, "equivariant_split", out_of_order)
    result = selftest.criterion_1_roundtrip(40)
    assert swapped
    assert not result.passed
    assert "!= hidden" in result.detail
