import random
from fractions import Fraction

import pytest

from equisplit import cohomology, splitting
from equisplit.bundle import (
    EquivariantBundle,
    LineSummand,
    TorusAction,
    degree,
    direct_sum,
    line_bundle,
    random_instance,
    random_reframe,
    twist,
)
from equisplit.cli import main
from equisplit.cohomology import (
    Character,
    _cech_bounds,
    _cech_once,
    _coefficient_rows,
    _entry_rows,
    _h0_basis,
    _h0_records,
    cech_cohomology,
    euler_check,
    h0_character,
    h0_dim,
    h0_sections,
    h1_character,
    h1_dim,
)
from equisplit.laurent import LaurentPoly
from equisplit.linalg import LaurentMatrix
from equisplit.jsonio import instance_from_json, load_json_file
from equisplit.selftest import FIXTURE_NAMES, _closed_form_characters, fixture_dir, sample_case
from equisplit.splitting import eigen_section, max_twist
from oracles import (
    brute_force_h0_dim,
    dense_rank,
    exponent_range,
    naive_mul,
    per_class_h0_kernel,
    reference_cech_once,
    reference_cech_window,
    reference_h0_basis,
)

P = LaurentPoly
T1 = TorusAction(1, (1,))


def lm(rows):
    return LaurentMatrix([[P(dict(cell)) for cell in row] for row in rows])


def jump_bundle():
    return EquivariantBundle(lm([[{1: 1}, {0: 1}], [{}, {-1: 1}]]), ((), ()), ((), ()))


def e3_bundle():
    return EquivariantBundle(
        lm([[{-1: 1}, {0: 1}], [{}, {-1: 1}]]), ((0,), (-1,)), ((-1,), (-2,)), T1
    )


def dense(m, torus):
    rng = random.Random(m)
    summands = [
        LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in torus.a))
        for _ in range(m)
    ]
    return random_instance(m, summands, 10 * m, torus)[0]


TORI = [TorusAction(0, ()), TorusAction(1, (0,)), T1]
TORUS_IDS = ["none", "a=0", "a=1"]


def lopsided():
    """Rows whose least exponents differ most: row 0 reaches z^-4, row 1 starts at z^3.

    Row 1 of A has no exponent <= 0, so h[1] has an empty window.
    """
    E = direct_sum(line_bundle(4, (0,), T1), line_bundle(-3, (1,), T1))
    return random_reframe(E, 2, 6)


def per_row_cases():
    """Bundles whose rows of A and of A^-1 have unequal exponent ranges."""
    return [dense(m, torus) for m in (6, 8) for torus in TORI] + [lopsided()]


def sample(seed, max_rank=4, ops=8):
    rng = random.Random(seed)
    r = rng.randint(0, 2)
    torus = TorusAction(r, tuple(rng.randint(-2, 2) for _ in range(r)))
    summands = [
        LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in range(r)))
        for _ in range(rng.randint(1, max_rank))
    ]
    E, _ = random_instance(seed, summands, rng.randint(0, ops), torus)
    return E


class TestH0LineBundles:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_nonnegative_degree(self, n):
        L = line_bundle(n, (0,), T1)
        secs = h0_sections(L)
        assert len(secs) == n + 1
        # basis monomials z^d carry weight -d when lam=0, a=1
        assert sorted(w for _, w in secs) == [(-d,) for d in range(n, -1, -1)]

    def test_negative_degree_empty(self):
        assert h0_sections(line_bundle(-1, (0,), T1)) == []
        assert h0_sections(line_bundle(-5)) == []

    def test_sections_satisfy_compatibility(self):
        L = line_bundle(3, (2,), T1)
        for s, w in h0_sections(L):
            assert s.compatibility_violation(L) is None
            assert s.weight == w


class TestH0Jump:
    def test_dimension_is_two(self):
        # Oracle first: direct coefficient enumeration gives 2 on this
        # instance; the frozen value matches the by-hand solution
        # f = (-b1, b0 + b1 z), g = (b0, b0 w + b1).
        E = jump_bundle()
        assert brute_force_h0_dim(E.A) == 2
        assert h0_dim(E) == 2

    def test_twist_down_kills_sections(self):
        E = twist(jump_bundle(), -1, ())
        assert brute_force_h0_dim(E.A) == 0
        assert h0_dim(E) == 0


class TestH0Random:
    def test_matches_brute_force(self):
        for seed in range(30):
            E = sample(seed, max_rank=3, ops=5)
            assert h0_dim(E) == brute_force_h0_dim(E.A), seed

    def test_matches_brute_force_on_per_row_cases(self):
        # brute force at one uniform window that holds every section,
        # max(-lo, hi') over the whole of A and A^-1, as the dense rank of
        # the default window would take minutes at rank 8
        for k, E in enumerate(per_row_cases()):
            lo, _ = exponent_range(E.A)
            _, hi_inv = exponent_range(E.inverse_transition())
            assert h0_dim(E) == brute_force_h0_dim(E.A, max(-lo, hi_inv)), k

    def test_sections_are_honest(self):
        for seed in range(15):
            E = sample(seed)
            for s, w in h0_sections(E):
                assert s.compatibility_violation(E) is None

    def test_weight_sum_identity(self):
        for seed in range(15):
            E = sample(seed)
            assert h0_character(E).total() == h0_dim(E)

    def test_twist_monotonicity(self):
        for seed in range(10):
            E = sample(seed, max_rank=3)
            zero = E.torus.zero_weight
            dims = [h0_dim(twist(E, -k, zero)) for k in range(0, 5)]
            assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_character_functoriality(self):
        for seed in range(10):
            E = sample(seed, max_rank=2)
            F = sample(seed + 40, max_rank=2)
            if E.torus != F.torus:
                continue
            assert h0_character(direct_sum(E, F)) == h0_character(E) + h0_character(F)


def torus_kind(torus):
    return torus.rank and ("fixed" if torus.base_is_fixed() else "moving")


class TestOneElimination:
    """One kernel solve per bundle; sections are built only where a caller reads them."""

    def test_matches_per_class_oracle(self):
        # sample_case seeds draw torus rank 0-2; twisting up by 0-2 reaches
        # bundles with sections, several weight classes among them
        with_sections, multi_class = set(), set()
        for seed in range(60):
            E, _, torus = sample_case(seed, max_rank=4, max_ops=8)
            for k in (0, 1, 2):
                Et = twist(E, k, torus.zero_weight)
                got = _h0_records(Et)
                assert got == per_class_h0_kernel(Et), (seed, k)
                if got:
                    with_sections.add(torus_kind(torus))
                if len({chi for chi, _ in got}) > 1:
                    multi_class.add(torus_kind(torus))
        assert with_sections == {0, "fixed", "moving"}
        assert multi_class == {"fixed", "moving"}
        for k, E in enumerate(per_row_cases()):
            got = _h0_records(E)
            assert got, k
            assert got == per_class_h0_kernel(E), k

    def test_exponent_prefix_is_the_twist(self):
        # unknowns are ordered by exponent, so those with e <= -s are the
        # unknowns of E(-s), and their free count is its dimension
        for seed in range(60):
            E, _, torus = sample_case(seed, max_rank=4, max_ops=8)
            for k in (0, 1, 2):
                Et = twist(E, k, torus.zero_weight)
                system = cohomology._h0_system(Et)
                assert [e for _, e in system.unknowns] == sorted(e for _, e in system.unknowns)
                exps = [system.unknowns[c][1] for c in system.free_columns()]
                for s in range(1 - exponent_range(Et.A)[0]):
                    want = h0_dim(twist(Et, -s, torus.zero_weight))
                    assert sum(e <= -s for e in exps) == want, (seed, k, s)

    def test_straddling_row_rejected(self):
        # weights that break the law of the entry z^-1: the row of z^-1 in
        # (A^-1 h)_0 meets h[0] at z^-1 (weight 1) and h[1] at z^0 (weight 0)
        A = lm([[{0: 1}, {-1: 1}], [{}, {0: 1}]])
        E = EquivariantBundle(A, ((0,), (0,)), ((0,), (0,)), T1)
        with pytest.raises(ValueError, match="mixes weight classes"):
            h0_dim(E)

    @pytest.fixture
    def section_builds(self, monkeypatch):
        built = []
        original = cohomology._section_from_h

        def counted(E, h, chi):
            built.append(chi)
            return original(E, h, chi)

        for module in (cohomology, splitting):
            monkeypatch.setattr(module, "_section_from_h", counted)
        return built

    def test_sections_only_where_read(self, section_builds):
        read = 0
        for seed in range(20):
            E = sample(seed)
            E = twist(E, seed % 3, E.torus.zero_weight)
            h0_dim(E)
            h0_character(E)
            _, Et, _ = max_twist(E)
            assert section_builds == [], seed
            read += len(h0_sections(E))
            assert len(section_builds) == h0_dim(E), seed
            section_builds.clear()
            eigen_section(Et)
            assert len(section_builds) == 1, seed
            section_builds.clear()
        assert read > 0

    def test_one_kernel_solve_per_bundle(self, monkeypatch):
        # one forward elimination per bundle with unknowns; counts and
        # characters read its pivots, and only sections back-substitute,
        # once per h0_sections call
        solves, reductions = [], []
        original_echelon = cohomology.echelon_sparse
        original_rref = cohomology.rref_sparse

        def counted_echelon(rows, ncols):
            solves.append(ncols)
            return original_echelon(rows, ncols)

        def counted_rref(rows, ncols):
            reductions.append(ncols)
            return original_rref(rows, ncols)

        monkeypatch.setattr(cohomology, "echelon_sparse", counted_echelon)
        monkeypatch.setattr(cohomology, "rref_sparse", counted_rref)
        bundles = [sample(seed) for seed in range(20)]
        bundles += [line_bundle(2, (0,), T1), line_bundle(-1)]
        bundles.append(EquivariantBundle(LaurentMatrix.zeros(0, 0), (), (), T1))
        for E in bundles:
            before = len(solves)
            h0_dim(E)
            h0_character(E)
            assert reductions == []
            h0_sections(E)
            h0_sections(E)
            want = int(E.rank > 0 and exponent_range(E.A)[0] <= 0)
            assert len(solves) - before == want
            assert len(reductions) == 2 * int(h0_dim(E) > 0)
            reductions.clear()

    def test_mutated_kernel_list_does_not_leak(self):
        # the kernel list is the caller's: emptying or reordering it leaves
        # the next h0_sections unchanged
        def read(E):
            return [(s.f, s.g, w) for s, w in h0_sections(E)]

        read_any = 0
        for seed in range(20):
            E = sample(seed)
            E = twist(E, seed % 3 + 1, E.torus.zero_weight)
            want = read(E)
            records = _h0_records(E)
            assert len(records) == len(want), seed
            records.reverse()
            records += records
            assert read(E) == want, seed
            _h0_records(E).clear()
            assert read(E) == want, seed
            read_any += len(want)
        assert read_any > 0


class TestH1:
    def test_o_minus_2_character(self):
        # Overlap monomial z^1 in the chart-inf frame is the only cokernel
        # class; weight lamInf - 1*a = 2 - 1 = 1.
        got = h1_character(line_bundle(-2, (0,), T1))
        assert got == Character({(1,): 1})

    @pytest.mark.parametrize("n", [-1, 0, 1, 4])
    def test_vanishes_at_degree_minus_one_and_up(self, n):
        assert h1_character(line_bundle(n, (0,), T1)).total() == 0

    def test_line_bundle_closed_form(self):
        for n in (-4, -3, -2):
            lam = (1,)
            got = h1_character(line_bundle(n, lam, T1))
            want = Character.from_weights([(1 - d,) for d in range(n + 1, 0)])
            assert got == want

    def test_sum_character(self):
        got = h0_character(direct_sum(line_bundle(1, (0,), T1), line_bundle(0, (0,), T1)))
        assert got == Character({(0,): 2, (-1,): 1})


def fresh(E):
    """A copy of E with nothing cached."""
    return EquivariantBundle(E.A, E.lambda0, E.lambdaInf, E.torus)


class TestPivotsAgreeWithKernel:
    """dim H^0 and the character read off the forward pivots equal the kernel's."""

    @staticmethod
    def check(E):
        records = _h0_records(fresh(E))
        pivots_read = fresh(E)
        assert h0_dim(pivots_read) == len(records)
        assert h0_character(pivots_read) == Character.from_weights(chi for chi, _ in records)

    def test_sample_seeds(self):
        for seed in range(100):
            self.check(sample(seed))

    @pytest.mark.parametrize("m", [6, 8])
    @pytest.mark.parametrize("torus", TORI, ids=TORUS_IDS)
    def test_dense(self, m, torus):
        self.check(dense(m, torus))

    def test_lopsided_rows(self):
        E = lopsided()
        self.check(E)
        self.check(twist(E, -1, E.torus.zero_weight))

    def test_cli_cohomology_makes_no_reduction(self, monkeypatch, capsys):
        reductions = []
        original = cohomology.rref_sparse

        def counted(rows, ncols):
            reductions.append(ncols)
            return original(rows, ncols)

        monkeypatch.setattr(cohomology, "rref_sparse", counted)
        for name in ("o_3", "jump_type_0_0", "peel_equivariant"):
            assert main(["cohomology", str(fixture_dir() / name / "instance.json")]) == 0
        capsys.readouterr()
        assert reductions == []


class TestOracleEquivalence:
    def test_kernel_dimension_agreement(self):
        for seed in range(25):
            E = sample(seed)
            cech_h0, _ = cech_cohomology(E)
            assert cech_h0 == h0_dim(E), seed


class TestEuler:
    @pytest.mark.parametrize("n", [-3, -2, -1, 0, 2])
    def test_line_bundles(self, n):
        report = euler_check(line_bundle(n, (0,), T1))
        assert report.ok
        assert report.h0 - report.h1 == n + 1

    def test_boundary_duality(self):
        report = euler_check(line_bundle(-2, (0,), T1))
        assert report.h1 == 1 and report.serre_h0 == 1

    def test_random_instances(self):
        for seed in range(25):
            E = sample(seed)
            report = euler_check(E)
            assert report.ok, (seed, report.to_json())


def enlarged(f_degrees, windows):
    """Every way the tests enlarge the Cech bounds.

    Each f bound alone, all of them, each cokernel window W_i alone, all of
    them, and every bound at once.  A negative f bound leaves no unknown and
    a zero window no column, so doubling either enlarges nothing and is
    skipped.
    """
    grows = (lambda b: b + 1, lambda b: max(b, 2 * b))

    def one(bounds, j, grow):
        return [grow(b) if k == j else b for k, b in enumerate(bounds)]

    out = []
    for grow in grows:
        out += [(one(f_degrees, j, grow), windows) for j in range(len(f_degrees))]
        out += [(f_degrees, one(windows, i, grow)) for i in range(len(windows))]
        all_f, all_w = [grow(b) for b in f_degrees], [grow(w) for w in windows]
        out += [(all_f, windows), (f_degrees, all_w), (all_f, all_w)]
    return out


def uniform_reference(E):
    """The bounds of the uniform reference window: every f at W + margin, every cokernel window at W."""
    W = reference_cech_window(E)
    return [W + max(0, -exponent_range(E.A)[0])] * E.rank, [W] * E.rank


class TestStabilization:
    """Exact per-component bounds: larger bounds change nothing."""

    def test_larger_windows_agree(self):
        # sample_case seeds draw torus rank 0-2, so they cover no torus, a = 0
        # and a moving base; pin that each kind is reached
        kinds = set()
        for seed in range(150):
            E, _, torus = sample_case(seed, max_rank=4, max_ops=8)
            kinds.add(torus.rank and ("fixed" if torus.base_is_fixed() else "moving"))
            f_degrees, windows = _cech_bounds(E)
            want = _cech_once(E, f_degrees, windows)
            assert cech_cohomology(E) == want, seed
            for bounds in enlarged(f_degrees, windows):
                assert _cech_once(E, *bounds) == want, (seed, bounds)
            assert _cech_once(E, *uniform_reference(E)) == want, seed
        assert kinds == {0, "fixed", "moving"}

    def test_larger_windows_agree_on_per_row_cases(self):
        for k, E in enumerate(per_row_cases()):
            f_degrees, windows = _cech_bounds(E)
            want = _cech_once(E, f_degrees, windows)
            for bounds in enlarged(f_degrees, windows)[-1:] + [uniform_reference(E)]:
                assert _cech_once(E, *bounds) == want, (k, bounds)

    def test_one_window_per_bundle(self, monkeypatch):
        windows = []
        original = cohomology._cech_once

        def counted(E, f_degrees, W):
            windows.append(W)
            return original(E, f_degrees, W)

        monkeypatch.setattr(cohomology, "_cech_once", counted)
        bundles = [sample(seed) for seed in range(20)]
        bundles.append(EquivariantBundle(LaurentMatrix.zeros(0, 0), (), (), T1))
        for E in bundles:
            before = len(windows)
            cech_cohomology(E)
            assert len(windows) - before == min(E.rank, 1)

    @staticmethod
    def check_closed_forms(m, torus):
        rng = random.Random(m)
        summands = [
            LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in torus.a))
            for _ in range(m)
        ]
        E, hidden = random_instance(m, summands, 10 * m, torus)
        want_h0, want_h1 = _closed_form_characters(hidden, torus)
        assert h0_character(E) == want_h0
        assert cech_cohomology(E) == (want_h0.total(), want_h1)

    @pytest.mark.parametrize("torus", TORI, ids=TORUS_IDS)
    def test_dense_rank_6_matches_closed_forms(self, torus):
        self.check_closed_forms(6, torus)

    @pytest.mark.parametrize("m", [12, 16])
    def test_dense_moving_base_matches_closed_forms(self, m):
        self.check_closed_forms(m, T1)

    def test_rank_zero(self):
        E = EquivariantBundle(LaurentMatrix.zeros(0, 0), (), (), T1)
        assert cech_cohomology(E) == (0, Character())


# a singular transition: zero, zero but for one entry, and two equal rows
SINGULAR_TRANSITIONS = [
    LaurentMatrix.zeros(2, 2),
    LaurentMatrix([[P.monomial(1), P.zero()], [P.zero(), P.zero()]]),
    LaurentMatrix([[P.one(), P({0: 1, 1: 2})], [P.one(), P({0: 1, 1: 2})]]),
]


@pytest.mark.parametrize(
    "fn", [cech_cohomology, h0_dim, h0_character, h0_sections, h1_dim, h1_character, degree]
)
def test_zero_transition_matrix_is_one_error(fn):
    # every entry point asks inverse_transition(), whose one error names det
    for A in SINGULAR_TRANSITIONS:
        E = EquivariantBundle(A, ((), ()), ((), ()))
        with pytest.raises(ValueError, match="determinant 0 is not a nonzero monomial"):
            fn(E)


def full_cech_kernel_dim(E, f_degrees, g_degree):
    """Kernel dimension of the truncated system f, g -> A f - g(1/z), densely.

    f[j] runs over the degrees [0, f_degrees[j]] and every g[i] over
    [0, g_degree]; every Laurent coefficient is one equation.
    """
    m = E.rank
    fcol = [sum(max(0, b + 1) for b in f_degrees[:j]) for j in range(m)]
    nf = sum(max(0, b + 1) for b in f_degrees)
    ncols = nf + m * (g_degree + 1)
    rows = {}
    for i in range(m):
        for j in range(m):
            for d, c in E.A.entries[i][j].monomials():
                for e in range(f_degrees[j] + 1):
                    rows.setdefault((i, d + e), [Fraction(0)] * ncols)[fcol[j] + e] += c
        for e in range(g_degree + 1):
            rows.setdefault((i, -e), [Fraction(0)] * ncols)[nf + i * (g_degree + 1) + e] -= 1
    return ncols - dense_rank(list(rows.values()))


def test_cech_kernel_dim_matches_full_system_rank():
    # the dense oracle truncates g too, at -lo: every section has deg g <= -lo
    truncated_smaller = 0
    for seed in range(12):
        E, _, _ = sample_case(seed, max_rank=3, max_ops=6)
        f_degrees, windows = _cech_bounds(E)
        g_degree = max(0, -exponent_range(E.A)[0])
        h0, _ = _cech_once(E, f_degrees, windows)
        assert h0 == full_cech_kernel_dim(E, f_degrees, g_degree), seed
        truncated = [b - 1 for b in f_degrees]
        got = _cech_once(E, truncated, windows)[0]
        assert got == full_cech_kernel_dim(E, truncated, g_degree), seed
        truncated_smaller += got < h0
        # the uniform reference window, f and g both truncated by it
        f_ref, _ = uniform_reference(E)
        assert cech_cohomology(E)[0] == full_cech_kernel_dim(E, f_ref, reference_cech_window(E)), seed
    assert truncated_smaller > 0


class TestSizeGate:
    """Each solve has exactly one unknown per exponent inside its component's bound."""

    @staticmethod
    def row_bounds(M):
        """(least, greatest) exponent of each row of M, read off its entries."""
        out = []
        for row in M.entries:
            exps = [e for p in row for e in p.terms]
            out.append((min(exps), max(exps)))
        return out

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        for name in ("echelon_sparse", "rank_sparse"):
            original = getattr(cohomology, name)

            def counted(rows, ncols, original=original, name=name):
                log.append((name, ncols))
                return original(rows, ncols)

            monkeypatch.setattr(cohomology, name, counted)
        return log

    @staticmethod
    def bundles():
        for name in FIXTURE_NAMES:
            yield name, instance_from_json(
                load_json_file(str(fixture_dir() / name / "instance.json"))
            )[0]
        yield "dense m=8, a=()", dense(8, TorusAction(0, ()))

    def test_unknowns_per_component(self, calls):
        names = []
        narrower = 0
        for name, E in self.bundles():
            names.append(name)
            h0_cols = sum(max(0, 1 - lo) for lo, _ in self.row_bounds(E.A))
            h0_dim(E)
            assert calls == ([("echelon_sparse", h0_cols)] if h0_cols else []), name
            calls.clear()
            inv = E.inverse_transition()
            f_cols = sum(max(0, hi + 1) for _, hi in self.row_bounds(inv))
            # cokernel component i on [1, W_i], W_i from column i of A^-1
            windows = [max(0, -lo - 1) for lo, _ in self.row_bounds(inv.transpose())]
            cech_cohomology(E)
            assert calls == [("rank_sparse", f_cols), ("echelon_sparse", sum(windows))], name
            calls.clear()
            narrower += sum(windows) < E.rank * max(windows)
        assert len(names) == len(FIXTURE_NAMES) + 1
        # some window is narrower than the widest one, as the uniform window was
        assert narrower > 0


def random_sparse_matrix(rng, rows, cols):
    """A seeded Laurent matrix with zero entries, int and Fraction coefficients."""
    def entry():
        if rng.random() < 0.4:
            return P()
        return P({rng.randint(-4, 4): rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
                  for _ in range(rng.randint(1, 3))})
    return LaurentMatrix([[entry() for _ in range(cols)] for _ in range(rows)], rows, cols)


def naive_coefficient_rows(M, starts, columns, lo, hi):
    """The rows "coefficient of z^x in (M u)_i vanishes", lo <= x < hi, expanded with naive_mul."""
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, row in enumerate(M.entries):
        for j, p in enumerate(row):
            for k, col in enumerate(columns[j]):
                for x, c in naive_mul(p, P.monomial(starts[j] + k)).items():
                    if (lo is None or lo <= x) and (hi is None or x < hi):
                        rows.setdefault((i, x), {})[col] = c
    return list(rows.values())


class TestCoefficientRows:
    """The one builder behind the H^0 system and both halves of the Cech complex."""

    @pytest.mark.parametrize("window", [(None, 0), (1, None), (-2, 3), (None, None)],
                             ids=["below", "above", "both", "open"])
    def test_matches_naive_expansion(self, window):
        empty_boxes = 0
        for seed in range(150):
            rng = random.Random(seed)
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            M = random_sparse_matrix(rng, rows, cols)
            starts = [rng.randint(-4, 3) for _ in range(cols)]
            sizes = [rng.choice([0, 1, 2, 4]) for _ in range(cols)]
            empty_boxes += sizes.count(0)
            # the unknowns of all boxes, numbered in a shuffled order
            order = list(range(sum(sizes)))
            rng.shuffle(order)
            columns, k = [], 0
            for n in sizes:
                columns.append(order[k:k + n])
                k += n
            got = _coefficient_rows(_entry_rows(M), starts, columns, *window)
            want = naive_coefficient_rows(M, starts, columns, *window)
            assert all(got), seed
            assert sorted(sorted(r.items()) for r in got) == sorted(sorted(r.items()) for r in want), seed
        assert empty_boxes > 0

    def test_entry_rows_are_the_sorted_nonzero_entries(self):
        M = LaurentMatrix([[P({3: 1, -1: 2}), P()], [P(), P({0: Fraction(1, 2)})]])
        assert _entry_rows(M) == [[(0, [(-1, 2), (3, 1)])], [(1, [(0, Fraction(1, 2))])]]


def frozen_builder_cases():
    """sample_case seeds 0-299, then dense m = 6, 8, 12 under no torus, a = 0 and a = 1."""
    for seed in range(300):
        yield seed, sample_case(seed)[0]
    for m in (6, 8, 12):
        for torus, name in zip(TORI, TORUS_IDS):
            yield (m, name), dense(m, torus)


def test_systems_match_the_frozen_row_loops():
    # the row loops that built each system before the shared builder are
    # kept in tests/oracles.py; every count, character and kernel agrees
    kinds = set()
    for case, E in frozen_builder_cases():
        kinds.add(torus_kind(E.torus))
        got, want = _h0_basis(E), reference_h0_basis(E)
        assert (got.unknowns, got.weights, got.pivots) == (want.unknowns, want.weights, want.pivots), case
        from_frozen = fresh(E)
        from_frozen._h0 = want
        assert _h0_records(fresh(E)) == _h0_records(from_frozen), case
        if E.rank:
            bounds = _cech_bounds(E)
            assert _cech_once(E, *bounds) == reference_cech_once(E, *bounds), case
    assert kinds == {0, "fixed", "moving"}
