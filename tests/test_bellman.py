import numpy as np
import pytest

from anchors import HANNER_HALF_MASS_P15
from helpers import PartitionMismatchError, StepFunction, boundary_value, hanner_gap
from ucx import bellman
from ucx.bellman import (
    MOMENT_RTOL,
    SearchBudget,
    StepPair,
    brute_force_batch,
    brute_force_bellman,
    format_witness,
    moment,
    payoff,
    witness_test,
)
from ucx.certificates import certificate
from ucx.cli import main as cli_main
from ucx.domain import BoundaryFace, LambdaPoint, contains
from ucx.errors import DomainError, InfeasibleError, NoFeasiblePairError, NonFiniteError, WitnessError


#: the budget of calls that run no search: points outside the cone or on a face
NO_SEARCH = SearchBudget(1, 1, seed=0)


def pair(*atoms):
    return StepPair(tuple(atoms))


class TestStepPair:
    def test_weight_validation(self):
        with pytest.raises(DomainError):
            pair((0.5, 1.0, 0.0))  # mass 1/2 only
        with pytest.raises(DomainError):
            pair((-0.5, 1.0, 0.0), (1.5, 0.0, 0.0))
        with pytest.raises(DomainError):
            StepPair(())

    def test_merge_is_affine_in_moment_and_payoff(self):
        p = 2.5
        a = pair((0.5, 1.3, -0.2), (0.5, 0.1, 0.7))
        b = pair((1.0, -2.0, 0.4))
        lam = 0.3
        merged = StepPair(
            tuple((lam * w, f, g) for w, f, g in a.atoms)
            + tuple(((1 - lam) * w, f, g) for w, f, g in b.atoms)
        )
        ma, mb, mm = moment(a, p), moment(b, p), moment(merged, p)
        np.testing.assert_allclose(
            mm.as_array(), lam * ma.as_array() + (1 - lam) * mb.as_array(), rtol=1e-13
        )
        assert payoff(merged, p) == pytest.approx(
            lam * payoff(a, p) + (1 - lam) * payoff(b, p), rel=1e-13
        )

    def test_value_scaling_homogeneity(self):
        p = 1.7
        base = pair((0.25, 1.0, -2.0), (0.75, 0.3, 0.4))
        lam = 0.6
        c = lam ** (1.0 / p)
        scaled = StepPair(tuple((a, c * f, c * g) for a, f, g in base.atoms))
        np.testing.assert_allclose(
            moment(scaled, p).as_array(), lam * moment(base, p).as_array(), rtol=1e-13
        )
        assert payoff(scaled, p) == pytest.approx(lam * payoff(base, p), rel=1e-13)


class TestMomentPayoff:
    def test_single_antipodal_atom(self):
        m = moment(pair((1.0, 1.0, -1.0)), 2.0)
        assert (m.x1, m.x2, m.x3) == (1.0, 1.0, 4.0)
        assert payoff(pair((1.0, 1.0, -1.0)), 2.0) == 0.0

    def test_equal_functions(self):
        m = moment(pair((0.5, 1.0, 1.0), (0.5, -1.0, -1.0)), 3.0)
        assert (m.x1, m.x2, m.x3) == (1.0, 1.0, 0.0)

    def test_disjoint_supports(self):
        m = moment(pair((0.5, 1.0, 0.0), (0.5, 0.0, 1.0)), 2.0)
        assert (m.x1, m.x2, m.x3) == (0.5, 0.5, 1.0)
        assert contains(m, 2.0) is BoundaryFace.INTERIOR

    def test_payoff_constant_pair(self):
        assert payoff(pair((1.0, 1.0, 1.0)), 2.0) == 1.0

    def test_payoff_half_mass(self):
        assert payoff(pair((0.5, 2.0, 0.0), (0.5, 0.0, 2.0)), 2.0) == 1.0

    def test_moments_land_in_cone(self):
        # vectorized mirror of the moment formula over bulk random pairs,
        # checked against the p-th-root triangle inequalities directly
        rng = np.random.default_rng(99)
        for p in [1.1, 1.5, 2.0, 3.0, 4.0]:
            w = rng.dirichlet(np.ones(4), size=20000)
            f = rng.uniform(-3, 3, (20000, 4))
            g = rng.uniform(-3, 3, (20000, 4))
            x1 = (w * np.abs(f) ** p).sum(axis=1) ** (1 / p)
            x2 = (w * np.abs(g) ** p).sum(axis=1) ** (1 / p)
            x3 = (w * np.abs(f - g) ** p).sum(axis=1) ** (1 / p)
            slack = 1e-9 * np.maximum(np.maximum(x1, x2), x3)
            assert (x1 + x2 - x3 >= -slack).all()
            assert (x2 + x3 - x1 >= -slack).all()
            assert (x3 + x1 - x2 >= -slack).all()
        # spot check through the real API
        for _ in range(100):
            w = rng.dirichlet(np.ones(4))
            atoms = tuple((w[j], rng.uniform(-3, 3), rng.uniform(-3, 3)) for j in range(4))
            assert contains(moment(StepPair(atoms), 1.5), 1.5) is not BoundaryFace.OUTSIDE


class TestHanner:
    def test_collinear_equality(self):
        f = StepFunction(((1.0, 1.0),))
        g = StepFunction(((1.0, -1.0),))
        assert hanner_gap(f, g, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_parallelogram_identity_p2(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = rng.dirichlet(np.ones(4))
            f = StepFunction(tuple(zip(w, rng.uniform(-2, 2, 4))))
            g = StepFunction(tuple(zip(w, rng.uniform(-2, 2, 4))))
            assert hanner_gap(f, g, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_mass_example(self):
        f = StepFunction(((0.5, 1.0), (0.5, 1.0)))
        g = StepFunction(((0.5, 1.0), (0.5, 0.0)))
        assert hanner_gap(f, g, 1.5) == pytest.approx(HANNER_HALF_MASS_P15, abs=1e-13)

    def test_partition_mismatch(self):
        f = StepFunction(((0.5, 1.0), (0.5, 0.0)))
        g = StepFunction(((0.4, 1.0), (0.6, 0.0)))
        with pytest.raises(PartitionMismatchError):
            hanner_gap(f, g, 1.5)

    def test_p1_admitted(self):
        f = StepFunction(((1.0, 1.0),))
        g = StepFunction(((1.0, 0.5),))
        assert hanner_gap(f, g, 1.0) >= -1e-12

    def test_array_atoms_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(4), size=50)
        fv, gv = rng.uniform(-2, 2, (2, 50, 4))
        for p in [1.0, 1.5, 3.0]:
            gaps = hanner_gap(StepFunction(tuple(zip(w.T, fv.T))), StepFunction(tuple(zip(w.T, gv.T))), p)
            assert gaps.shape == (50,)
            for i in range(50):
                one = hanner_gap(
                    StepFunction(tuple(zip(w[i], fv[i]))), StepFunction(tuple(zip(w[i], gv[i]))), p
                )
                # vectorized powers may round differently from scalar ones
                assert gaps[i] == pytest.approx(one, rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_sign_by_regime(self, p):
        rng = np.random.default_rng(421)
        for _ in range(2000):
            w = rng.dirichlet(np.ones(4))
            atoms_f = tuple(zip(w, rng.uniform(-2, 2, 4)))
            atoms_g = tuple(zip(w, rng.uniform(-2, 2, 4)))
            gap = hanner_gap(StepFunction(atoms_f), StepFunction(atoms_g), p)
            if p <= 2.0:
                assert gap >= -1e-12
            if p >= 2.0:
                assert gap <= 1e-12


class TestBruteForce:
    def test_outside_rejected(self):
        with pytest.raises(InfeasibleError):
            brute_force_bellman(LambdaPoint(1.0, 1.0, 100.0), 2.0, NO_SEARCH)

    def test_apex(self):
        res = brute_force_bellman(LambdaPoint(0.0, 0.0, 0.0), 2.0, NO_SEARCH)
        assert res.value == 0.0 and res.residual == 0.0

    def test_antipodal_boundary_point_pins_value_to_zero(self):
        # the documented probe budget; only collinear antipodal pairs are feasible
        budget = SearchBudget(restarts=200, local_steps=2000, seed=3)
        res = brute_force_bellman(LambdaPoint(1.0, 1.0, 8.0), 3.0, budget)
        assert res.value <= 1e-6

    def test_interior_point_reaches_certificate_p4(self):
        budget = SearchBudget(restarts=64, local_steps=1200, seed=3)
        res = brute_force_bellman(LambdaPoint(1.0, 1.0, 1.0), 4.0, budget)
        assert res.residual <= 2.0 * MOMENT_RTOL * np.sqrt(3.0)
        assert 15.0 / 16.0 - 1e-10 <= res.value <= 15.0 / 16.0 + 1e-12

    @pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 3.0, 4.0])
    def test_never_above_certificate(self, p):
        # payoff <= V(m) <= cert(m) = cert(x) + c.(m - x) at the witness's
        # moments m; |m - x| is within the solve's check, doubled for the
        # rounding of the unit-mass rescale
        cert = certificate(p, 1.0) if p < 2.0 else certificate(p)
        top = 2.0**p
        for x3 in [0.0, 1e-6, top * (1.0 - 1e-6), top]:
            x = LambdaPoint(1.0, 1.0, x3)
            rounding = 2.0 * MOMENT_RTOL * np.maximum(x.as_array(), max(x.x1, x.x2))
            res = brute_force_bellman(x, p, SearchBudget(24, 600, seed=0))
            assert (np.abs(moment(res.witness, p).as_array() - x.as_array()) <= rounding).all()
            assert res.value <= cert.value(x) + np.abs(cert.c) @ rounding + 1e-15

    @pytest.mark.parametrize("p", [1.25, 4.0])
    def test_faces_give_the_collinear_atom(self, p):
        # no 3 atoms have full rank on a face: the one-atom pair is returned
        for x3, value in [(0.0, 1.0), (2.0**p, 0.0)]:
            res = brute_force_bellman(LambdaPoint(1.0, 1.0, x3), p, NO_SEARCH)
            assert len(res.witness.atoms) == 1
            assert res.value == value and res.residual == 0.0
        faces = [(2.0**p, 1.0, 1.0), (1.0, 2.0**p, 1.0), (1.0, 2.0**p, 3.0**p)]
        assert [contains(LambdaPoint(*c), p) for c in faces] == [
            BoundaryFace.FACE1, BoundaryFace.FACE2, BoundaryFace.FACE3]
        for coords in faces:
            x = LambdaPoint(*coords)
            res = brute_force_bellman(x, p, NO_SEARCH)
            assert len(res.witness.atoms) == 1
            assert res.value == pytest.approx(boundary_value(x, p), rel=1e-14)
            assert res.residual <= 1e-15 * np.linalg.norm(x.as_array())
        # within the face tolerance of face 3: the one-atom pair is returned
        # as it is, its moments off x by that tolerance, not by rounding
        x = LambdaPoint(1.0, 1.0, 2.0**p * (1.0 - 1e-11))
        res = brute_force_bellman(x, p, NO_SEARCH)
        assert len(res.witness.atoms) == 1 and res.value == 0.0
        assert 0.0 < res.residual <= 1e-10 * x.x3

    def test_tiny_budget_without_feasible_pair_raises(self):
        # one restart and one poll: seed 2's restart reaches no pair at (1, 1, 1)
        with pytest.raises(NoFeasiblePairError):
            brute_force_bellman(LambdaPoint(1.0, 1.0, 1.0), 3.0, SearchBudget(1, 1, seed=2))

    def test_extreme_query_scales(self):
        # the search runs at x / max(x): the cross products of moments of
        # size 1e-200 or 1e200 would under- or overflow
        budget = SearchBudget(8, 200, seed=0)
        unit = brute_force_bellman(LambdaPoint(1.0, 1.0, 1.0), 1.5, budget)
        for s in [1e-200, 1e200]:
            res = brute_force_bellman(LambdaPoint(s, s, s), 1.5, budget)
            assert res.value == pytest.approx(s * unit.value, rel=1e-13)
            # the unit-mass rescale by s**(1/p) is off by about |log s| ulps
            assert res.residual <= 1e-12 * s

    @pytest.mark.parametrize("p", [50.0, 400.0])
    def test_witness_scale_in_logs(self, p):
        # at x = 1e-300 the ratio c**p = max(x) W / top is below the normal
        # floats, but the atom scale c, taken in logs, is not
        budget = SearchBudget(24, 600, seed=0)
        for s in [1.0, 1e-100, 1e-200, 1e-300]:
            res = brute_force_bellman(LambdaPoint(s, s, s), p, budget)
            assert res.residual <= 1e-12 * s
            # the value at (1, 1, 1) is 1 - 2^-p for p >= 2
            assert abs(res.value - s * (1.0 - 2.0**-p)) <= 1e-11 * s

    def test_witness_scale_overflow(self):
        # every witness atom has a moment of at least max(x), which overflows
        # float64 here once its moments exceed x anywhere
        x = LambdaPoint(1.7e308, 1.7e308, 1.7e308)
        with pytest.raises(NonFiniteError, match="overflows"):
            brute_force_bellman(x, 2.0, SearchBudget(8, 200, seed=0))

    def test_witness_moments_are_checked(self, monkeypatch):
        # a witness whose moments miss x by more than rounding is an error,
        # not a lower bound: move 1e-9 of weight between two atoms
        atoms_of = bellman._witness_atoms

        def perturbed(*args):
            (a0, f0, g0), (a1, f1, g1), *rest = atoms_of(*args)
            return ((a0 - 1e-9, f0, g0), (a1 + 1e-9, f1, g1), *rest)

        x, budget = LambdaPoint(1.0, 1.0, 1.0), SearchBudget(8, 200, seed=0)
        assert brute_force_bellman(x, 3.0, budget).residual <= 1e-14
        monkeypatch.setattr(bellman, "_witness_atoms", perturbed)
        with pytest.raises(WitnessError, match="off by more than rounding"):
            brute_force_bellman(x, 3.0, budget)

    def test_witness_consistent_with_reported_value(self):
        budget = SearchBudget(restarts=16, local_steps=400, seed=8)
        x = LambdaPoint(1.0, 1.0, 1.0)
        res = brute_force_bellman(x, 2.0, budget)
        assert payoff(res.witness, 2.0) == pytest.approx(res.value, rel=1e-12)
        m = moment(res.witness, 2.0)
        assert np.linalg.norm(m.as_array() - x.as_array()) == pytest.approx(
            res.residual, rel=1e-9, abs=1e-12
        )

    def test_deterministic_bit_for_bit(self):
        budget = SearchBudget(restarts=16, local_steps=300, seed=12345)
        x = LambdaPoint(1.0, 1.0, 1.0)
        a = brute_force_bellman(x, 1.5, budget)
        b = brute_force_bellman(x, 1.5, budget)
        assert a.value == b.value and a.residual == b.residual
        assert a.witness == b.witness

    def test_lower_bound_against_certificates(self):
        budget = SearchBudget(restarts=24, local_steps=500, seed=1)
        for p, cert in [(4.0, certificate(4.0)), (1.5, certificate(1.5, 1.0))]:
            for x3 in [0.5, 1.0, 2.0]:
                x = LambdaPoint(1.0, 1.0, x3)
                res = brute_force_bellman(x, p, budget)
                # certified domination holds at the witness's actual moments
                m = moment(res.witness, p)
                assert res.value <= cert.value(m) + 1e-9

    def test_scaling_lower_bound(self):
        budget = SearchBudget(restarts=32, local_steps=600, seed=5)
        x = LambdaPoint(1.0, 1.0, 1.0)
        base = brute_force_bellman(x, 1.5, budget)
        for lam in [0.5, 2.0]:
            scaled = brute_force_bellman(LambdaPoint(lam, lam, lam), 1.5, budget)
            assert scaled.value >= lam * base.value - 5e-2 * lam

    def test_format_witness_layout(self):
        budget = SearchBudget(restarts=4, local_steps=50, seed=0)
        x = LambdaPoint(1.0, 1.0, 1.0)
        res = brute_force_bellman(x, 2.0, budget)
        text = format_witness(x, 2.0, res)
        lines = text.splitlines()
        assert lines[0].startswith("x=1.0,1.0,1.0 p=2.0 theta=0.5 value=")
        assert len(lines) == 4
        assert all(line.startswith("w=") and " f=" in line and " g=" in line for line in lines[1:])


def slice_rows(p, n):
    """The query points of ``ucx envelope --grid-n n``, both face rows included."""
    return [LambdaPoint(1.0, 1.0, i * 2.0**p / (n - 1)) for i in range(n)]


def same_result(a, b):
    return a.value == b.value and a.residual == b.residual and a.witness == b.witness


def spy_batches(monkeypatch):
    """Record the (trials per row, rows) of every weight solve of the pattern search."""
    sizes, solve = [], bellman._solve_weights

    def spy(*args):
        weights, score = solve(*args)
        sizes.append((score.size // score.shape[-1], score.shape[-1]))
        return weights, score

    monkeypatch.setattr(bellman, "_solve_weights", spy)
    return sizes


class TestBatch:
    """One pattern search over all interior queries, equal to one search per query."""

    @pytest.mark.parametrize("p", [1.25, 1.5, 4.0])
    def test_batch_equals_one_call_per_point(self, p):
        points = slice_rows(p, 7)
        budget = SearchBudget(restarts=16, local_steps=400, seed=3)
        batch = brute_force_batch(points, p, budget)
        assert len(batch) == len(points)
        for x, res in zip(points, batch):
            assert same_result(res, brute_force_bellman(x, p, budget))
        assert len(batch[0].witness.atoms) == len(batch[-1].witness.atoms) == 1

    def test_empty_batch(self):
        assert brute_force_batch([], 2.0, NO_SEARCH) == []

    def test_all_face_batch_runs_no_search(self, monkeypatch, capsys):
        sizes = spy_batches(monkeypatch)
        res = brute_force_batch(slice_rows(2.5, 2), 2.5, NO_SEARCH)
        assert [r.value for r in res] == [1.0, 0.0]
        assert all(len(r.witness.atoms) == 1 for r in res)
        assert cli_main(["envelope", "--p", "2.5", "--grid-n", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert sizes == []

    def test_mixed_face_and_interior(self):
        p, budget = 3.0, SearchBudget(restarts=8, local_steps=300, seed=1)
        points = [LambdaPoint(1.0, 1.0, 1.0), LambdaPoint(2.0**p, 1.0, 1.0), LambdaPoint(1.0, 1.0, 0.0),
                  LambdaPoint(0.5, 1.0, 2.0), LambdaPoint(1.0, 2.0**p, 3.0**p)]
        batch = brute_force_batch(points, p, budget)
        assert [len(r.witness.atoms) for r in batch] == [3, 1, 1, 3, 1]
        for x, res in zip(points, batch):
            assert same_result(res, brute_force_bellman(x, p, budget))

    def test_queries_stop_at_different_steps(self, monkeypatch):
        p, budget = 1.5, SearchBudget(restarts=8, local_steps=1500, seed=2)
        points = slice_rows(p, 7)[1:-1]
        sizes = spy_batches(monkeypatch)
        batch = brute_force_batch(points, p, budget)
        rows = [r for _, r in sizes]
        # the batch shrinks as rows stop, each on its own, not query by query
        assert rows == sorted(rows, reverse=True) and len(set(rows)) >= 3
        assert rows[0] == 5 * 8 and any(r % 8 for r in rows)
        assert sizes[0][0] == 1 and all(t == bellman.POLL_TRIALS for t, _ in sizes[1:])
        for x, res in zip(points, batch):
            assert same_result(res, brute_force_bellman(x, p, budget))

    @pytest.mark.parametrize("limit", [1, 17, 40])
    def test_chunks_of_whole_queries(self, monkeypatch, limit):
        # BATCH_ROWS below one query's restarts still searches one query at a time
        p, budget = 4.0, SearchBudget(restarts=8, local_steps=200, seed=0)
        points = slice_rows(p, 9)
        whole = brute_force_batch(points, p, budget)
        monkeypatch.setattr(bellman, "BATCH_ROWS", limit)
        sizes = spy_batches(monkeypatch)
        chunked = brute_force_batch(points, p, budget)
        assert max(rows for _, rows in sizes) == max(8, limit // 8 * 8)
        assert all(same_result(a, b) for a, b in zip(whole, chunked))

    def test_first_query_without_feasible_pair_in_input_order(self, capsys):
        # one restart and one poll: rows 1-3 of this slice reach a pair, rows 4-7 do not
        p, budget = 3.0, SearchBudget(restarts=1, local_steps=1, seed=5)
        points = slice_rows(p, 9)
        assert all(r.value >= 0.0 for r in brute_force_batch(points[:4], p, budget))
        for order, named in [(points, 4.0), ([points[7], points[1], points[5]], 7.0)]:
            with pytest.raises(NoFeasiblePairError, match=rf"\[1\.0, 1\.0, {named}\]"):
                brute_force_batch(order, p, budget)
        outside = LambdaPoint(1.0, 1.0, 100.0)
        with pytest.raises(NoFeasiblePairError):
            brute_force_batch([points[5], outside], p, budget)
        with pytest.raises(InfeasibleError):
            brute_force_batch([points[1], outside, points[5]], p, budget)
        argv = ["envelope", "--p", "3", "--grid-n", "9", "--restarts", "1", "--local-steps", "1",
                "--seed", "5"]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "[1.0, 1.0, 4.0]" in err

    def test_slice_reaches_the_two_atom_optimum(self):
        # the slice of the p = 4 envelope benchmark: the value is 1 - x3/2^p,
        # carried by a near-equal atom and an antipodal one; moves of one
        # value at a time stalled 2.4e-7 below it
        p, budget = 4.0, SearchBudget(restarts=32, local_steps=600, seed=0)
        points = slice_rows(p, 25)
        for x, res in zip(points, brute_force_batch(points, p, budget)):
            assert abs(res.value - (1.0 - x.x3 / 16.0)) <= 1e-12

    def test_work_stays_within_the_budget(self, monkeypatch):
        # the same slice, counted: one solve per row for its start, then at most
        # local_steps // 12 polls of 24 trials, 2 local_steps per row
        p, budget = 4.0, SearchBudget(restarts=32, local_steps=600, seed=0)
        points = slice_rows(p, 25)[1:-1]
        sizes = spy_batches(monkeypatch)
        brute_force_batch(points, p, budget)
        starts = [i for i, (trials, _) in enumerate(sizes) if trials == 1]
        assert sum(sizes[i][1] for i in starts) == len(points) * budget.restarts
        polls = [sizes[a + 1:b] for a, b in zip(starts, starts[1:] + [len(sizes)])]
        assert all(len(chunk) <= budget.local_steps // 12 for chunk in polls)
        trials = sum(t * rows for chunk in polls for t, rows in chunk)
        assert trials <= 2 * budget.local_steps * len(points) * budget.restarts
        # rows retire on their own before the last poll
        assert any(chunk[-1][1] < chunk[0][1] for chunk in polls)


class TestWitnessSuite:
    def test_p2_bound_is_parallelogram_sharp(self):
        rep = witness_test(2.0, 1.0, 10000, seed=11)
        assert rep.passed
        assert rep.worst_value <= np.sqrt(3.0) / 2.0 + 1e-9

    def test_p4_eps2_only_antipodal_survive(self):
        rep = witness_test(4.0, 2.0, 10000, seed=11)
        assert rep.passed
        assert rep.worst_value <= 1e-9  # survivors are exactly antipodal; midpoint 0

    def test_p15(self):
        rep = witness_test(1.5, 1.0, 10000, seed=11)
        assert rep.passed

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            witness_test(2.0, 0.0, 100, seed=0)
