"""The acceptance suite: every shipped guarantee, run end to end.

Each criterion is a standalone function returning a CriterionResult; the
pytest acceptance module and the ``selftest`` CLI command both drive
:func:`run_all`.  Everything is seeded and exact — failures mean a real bug,
not noise.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .bundle import (
    EquivariantBundle,
    LineSummand,
    TorusAction,
    degree,
    random_instance,
    random_reframe,
    transition_law_violations,
    validate,
)
from .cohomology import Character, cech_cohomology, h0_character, h0_dim, h1_character
from .jsonio import (
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    load_json_file,
    summands_to_json,
)
from .laurent import LaurentPoly
from .linalg import LaurentMatrix
from .splitting import (
    InvariantViolation,
    SplittingCertificate,
    equivariant_split,
    peel,
    projection_surjective_on_invariants,
    splitting_hom,
    verify_certificate,
)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float
    invariant_violations: int = 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"criterion {self.cid} ({self.name}): {status} [{self.seconds:.1f}s]"
        if self.detail and not self.passed:
            msg += f" -- {self.detail}"
        return msg

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "pass": self.passed,
            "detail": self.detail,
        }


def sample_case(
    seed: int,
    max_rank: int = 5,
    max_torus_rank: int = 2,
    max_ops: int = 10,
    torus_rank: int | None = None,
) -> tuple[EquivariantBundle, list[LineSummand], TorusAction]:
    """Deterministic random instance: degrees in [-3, 3], weights in [-2, 2]."""
    rng = random.Random(seed)
    r = torus_rank if torus_rank is not None else rng.randint(0, max_torus_rank)
    torus = TorusAction(r, tuple(rng.randint(-2, 2) for _ in range(r)))
    m = rng.randint(1, max_rank)
    summands = [
        LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in range(r)))
        for _ in range(m)
    ]
    E, hidden = random_instance(seed, summands, rng.randint(0, max_ops), torus)
    return E, hidden, torus


def _run(cid: int, name: str, body: Callable[[], str]) -> CriterionResult:
    start = time.time()
    violations = 0
    try:
        detail = body()
        passed = detail == ""
    except InvariantViolation as exc:
        passed, detail, violations = False, f"invariant violation: {exc}", 1
    except Exception as exc:  # a criterion must report, not crash the suite
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(cid, name, passed, detail, time.time() - start, violations)


def criterion_1_roundtrip(count: int = 200) -> CriterionResult:
    """Split emits the generator's hidden summands in order; certificates verify."""

    def body() -> str:
        for seed in range(count):
            E, hidden, _ = sample_case(seed)
            if not validate(E).ok:
                return f"seed {seed}: generated instance is invalid"
            got, cert = equivariant_split(E)
            if got != hidden:
                return f"seed {seed}: split {got} != hidden {hidden}"
            report = verify_certificate(E, cert)
            if not report.ok:
                return f"seed {seed}: certificate failed: {report.summary()}"
        return ""

    return _run(1, f"round-trip on {count} seeded instances", body)


def criterion_2_uniqueness(count: int = 100) -> CriterionResult:
    """Degree multiset invariance under fresh random frames (no torus)."""

    def body() -> str:
        for seed in range(count):
            E, hidden, _ = sample_case(10_000 + seed, torus_rank=0)
            reframed = random_reframe(E, 20_000 + seed, 6)
            if not validate(reframed).ok:
                return f"seed {seed}: reframed instance is invalid"
            d1 = sorted(s.n for s in equivariant_split(E)[0])
            d2 = sorted(s.n for s in equivariant_split(reframed)[0])
            if d1 != d2 or d1 != sorted(s.n for s in hidden):
                return f"seed {seed}: degree multisets differ: {d1} vs {d2}"
        return ""

    return _run(2, f"splitting-type uniqueness on {count} reframed instances", body)


def criterion_3_riemann_roch(count: int = 500) -> CriterionResult:
    """h0 - h1 = degree + rank exactly, including r = 0 and fixed-base cases."""

    def body() -> str:
        fixed_base_seen = 0
        for k in range(count):
            seed = 30_000 + k
            E, _, torus = sample_case(seed, max_rank=4, max_ops=8)
            if torus.rank and torus.base_is_fixed():
                fixed_base_seen += 1
            h0 = h0_dim(E)
            h1 = h1_character(E).total()
            if h0 - h1 != degree(E) + E.rank:
                return f"seed {seed}: h0-h1={h0-h1} but deg+rank={degree(E)+E.rank}"
        if fixed_base_seen == 0:
            return "sampler produced no fixed-base (a = 0) instances"
        return ""

    return _run(3, f"Riemann-Roch on {count} random instances", body)


def _closed_form_characters(
    summands: list[LineSummand], torus: TorusAction
) -> tuple[Character, Character]:
    h0: list[tuple[int, ...]] = []
    h1: list[tuple[int, ...]] = []
    for s in summands:
        for d in range(0, s.n + 1):
            h0.append(tuple(l - d * ak for l, ak in zip(s.lam, torus.a)))
        for d in range(s.n + 1, 0):
            h1.append(tuple(l - d * ak for l, ak in zip(s.lam, torus.a)))
    return Character.from_weights(h0), Character.from_weights(h1)


def criterion_4_character_identity(count: int = 200) -> CriterionResult:
    """Computed h0/h1 characters equal the closed forms from the split."""

    def body() -> str:
        for seed in range(count):
            E, _, torus = sample_case(seed)
            summands, _ = equivariant_split(E)
            want_h0, want_h1 = _closed_form_characters(summands, torus)
            got_h0 = h0_character(E)
            got_h1 = h1_character(E)
            if got_h0 != want_h0:
                return f"seed {seed}: h0 {got_h0!r} != closed form {want_h0!r}"
            if got_h1 != want_h1:
                return f"seed {seed}: h1 {got_h1!r} != closed form {want_h1!r}"
        return ""

    return _run(4, f"character identities on {count} split instances", body)


def criterion_5_oracle_equivalence(count: int = 100) -> CriterionResult:
    """Inverse-route H^0 dimension equals the overlap kernel at the exact bounds.

    Both routes bound each unknown by its own component: h[i] by the least
    exponent of row i of A, f[j] by the greatest exponent of row j of A^-1.
    """

    def body() -> str:
        for k in range(count):
            seed = 50_000 + k
            E, _, _ = sample_case(seed, max_rank=4, max_ops=8)
            primary = h0_dim(E)
            cech, _ = cech_cohomology(E)
            if primary != cech:
                return f"seed {seed}: inverse route {primary} != overlap kernel {cech}"
        return ""

    return _run(5, f"H^0 oracle equivalence on {count} instances", body)


def criterion_6_projection_surjectivity(count: int = 50) -> CriterionResult:
    """Weight-0 Hom(Q,E) -> Hom(Q,Q) is onto for peeled subbundles."""

    def body() -> str:
        done = 0
        seed = 60_000
        while done < count:
            seed += 1
            E, _, _ = sample_case(seed, max_rank=4, max_ops=8)
            if E.rank < 2:
                continue
            step = peel(E)
            if not projection_surjective_on_invariants(step):
                return f"seed {seed}: projection map is not surjective on invariants"
            done += 1
        return ""

    return _run(6, f"invariant-projection surjectivity on {count} peel steps", body)


# -- golden fixtures ---------------------------------------------------------

FIXTURE_NAMES = (
    "o_minus2",
    "o_minus1",
    "o_0",
    "o_1",
    "o_3",
    "jump_type_0_0",
    "peel_equivariant",
)


def fixture_dir():
    return resources.files("equisplit") / "fixtures"


def check_fixture(name: str) -> str:
    """Recompute one golden fixture through both routes; '' if it checks out."""
    base = fixture_dir() / name
    instance = load_json_file(str(base / "instance.json"))
    expected = load_json_file(str(base / "expected.json"))
    E, _ = instance_from_json(instance)
    report = validate(E)
    if not report.ok:
        return f"{name}: instance invalid: {report.violations}"

    summands, cert = equivariant_split(E)
    got_summands = summands_to_json(summands)
    if got_summands != expected["summands"]:
        return f"{name}: summands {got_summands} != {expected['summands']}"
    if not verify_certificate(E, cert).ok:
        return f"{name}: produced certificate does not verify"

    got_h0 = h0_character(E)
    got_h1 = h1_character(E)
    cech_h0, cech_h1 = cech_cohomology(E)
    if got_h0.to_json() != expected["h0_character"]:
        return f"{name}: h0 character {got_h0.to_json()} != {expected['h0_character']}"
    if got_h1.to_json() != expected["h1_character"]:
        return f"{name}: h1 character {got_h1.to_json()} != {expected['h1_character']}"
    # independent route must agree before the golden values are trusted
    if cech_h0 != got_h0.total() or cech_h1 != got_h1:
        return f"{name}: overlap-complex recomputation disagrees with the inverse route"
    if got_h0.total() != expected["h0_dim"] or got_h1.total() != expected["h1_dim"]:
        return f"{name}: dimensions disagree with the golden file"
    if degree(E) != expected["degree"]:
        return f"{name}: degree {degree(E)} != {expected['degree']}"
    return ""


def criterion_7_golden_fixtures() -> CriterionResult:
    """Hand-verified fixtures, recomputed by both routes before trusting."""

    def body() -> str:
        for name in FIXTURE_NAMES:
            msg = check_fixture(name)
            if msg:
                return msg
        return ""

    return _run(7, f"golden fixtures ({len(FIXTURE_NAMES)} instances)", body)


def criterion_8_invariant_assertions(results: list[CriterionResult]) -> CriterionResult:
    """No theory-guaranteed assertion fired anywhere in the suite.

    The assertions (nowhere-vanishing sections, sorted degrees in the
    verified certificate, equivariance of produced frames) are always armed;
    any InvariantViolation in criteria 1-7 is recorded and fails this
    criterion.  A fresh sweep of splits runs here as well and checks both
    frames of each splitting map against the weight law.
    """

    def body() -> str:
        fired = sum(r.invariant_violations for r in results)
        if fired:
            return f"{fired} invariant violation(s) fired in earlier criteria"
        for seed in range(80_000, 80_050):
            E, _, torus = sample_case(seed)
            summands, cert = equivariant_split(E)
            s, _ = splitting_hom(E, cert)
            S = s.source
            bad = transition_law_violations(s.F0, E.lambda0, S.lambda0, torus, "s.F0")
            bad += transition_law_violations(
                s.FInf.invert_variable(), E.lambdaInf, S.lambdaInf, torus, "s.FInf(1/z)"
            )
            if bad:
                return f"seed {seed}: splitting section is not weight-invariant: {bad[0]}"
        return ""

    return _run(8, "invariant assertions never fire", body)


# -- mutation testing --------------------------------------------------------


def _mutate_monomial(M: LaurentMatrix, rng: random.Random) -> LaurentMatrix | None:
    """Tamper exactly one monomial (change, delete, or insert); None if M is empty."""
    out = LaurentMatrix([[LaurentPoly(dict(e.terms)) for e in row] for row in M.entries])
    populated = [
        (i, j)
        for i in range(out.rows)
        for j in range(out.cols)
        if not out.entries[i][j].is_zero()
    ]
    mode = rng.choice(("coeff", "exp", "insert"))
    if mode == "insert" or not populated:
        if out.rows == 0:
            return None
        i = rng.randrange(out.rows)
        j = rng.randrange(out.cols)
        entry = out.entries[i][j]
        e = rng.randint(-3, 3)
        while e in entry.terms:
            e += 1
        out.entries[i][j] = entry + LaurentPoly.monomial(e, rng.choice((1, -1, 2)))
        return out
    i, j = populated[rng.randrange(len(populated))]
    entry = out.entries[i][j]
    exps = sorted(entry.terms)
    e = exps[rng.randrange(len(exps))]
    c = entry.terms[e]
    if mode == "coeff":
        out.entries[i][j] = entry + LaurentPoly.monomial(e, 1 if c != -1 else 2)
    else:
        out.entries[i][j] = entry - LaurentPoly.monomial(e, c) + LaurentPoly.monomial(e + 1, c)
    return out


def criterion_9_mutation_detection(count: int = 40) -> CriterionResult:
    """Single-monomial tampering of a certificate never passes the verifier."""

    def body() -> str:
        detected = 0
        attempts = 0
        seed = 0
        while detected < count:
            seed += 1
            if seed > 20 * count:
                return f"only {detected} mutations detected after {attempts} attempts"
            E, _, _ = sample_case(90_000 + seed, max_rank=4, max_ops=6)
            _, cert = equivariant_split(E)
            rng = random.Random(seed)
            which = rng.choice(("M0", "MInf"))
            mutated_matrix = _mutate_monomial(
                cert.M0 if which == "M0" else cert.MInf, rng
            )
            if mutated_matrix is None:
                continue
            tampered = SplittingCertificate(
                list(cert.summands),
                mutated_matrix if which == "M0" else cert.M0,
                mutated_matrix if which == "MInf" else cert.MInf,
            )
            attempts += 1
            if verify_certificate(E, tampered).ok:
                return f"seed {seed}: tampered {which} passed verification"
            # round-trip through JSON so the serialized form is what is checked
            reloaded = certificate_from_json(certificate_to_json(tampered), E.torus.rank)
            if verify_certificate(E, reloaded).ok:
                return f"seed {seed}: tampered {which} passed after serialization"
            detected += 1
        return ""

    return _run(9, f"mutation detection on {count} tampered certificates", body)


def run_all(counts: dict[int, int] | None = None) -> list[CriterionResult]:
    """Run the full suite; per-criterion instance counts can be overridden."""
    counts = counts or {}
    results = [
        criterion_1_roundtrip(counts.get(1, 200)),
        criterion_2_uniqueness(counts.get(2, 100)),
        criterion_3_riemann_roch(counts.get(3, 500)),
        criterion_4_character_identity(counts.get(4, 200)),
        criterion_5_oracle_equivalence(counts.get(5, 100)),
        criterion_6_projection_surjectivity(counts.get(6, 50)),
        criterion_7_golden_fixtures(),
    ]
    results.append(criterion_8_invariant_assertions(results))
    results.append(criterion_9_mutation_detection(counts.get(9, 40)))
    return results
