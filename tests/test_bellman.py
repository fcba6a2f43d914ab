import tracemalloc

import numpy as np
import pytest

from anchors import HANNER_HALF_MASS_P15
from helpers import PartitionMismatchError, StepFunction, boundary_value, delta_mpmath, hanner_gap, hanner_value
from ucx import bellman
from ucx.bellman import (
    ATOM_COUNT,
    MOMENT_RTOL,
    StepPair,
    brute_force_batch,
    brute_force_bellman,
    format_witness,
    moment,
    payoff,
)
from ucx.certificates import _extremal_pair, certificate
from ucx.cli import main as cli_main
from ucx.domain import BoundaryFace, LambdaPoint, contains
from ucx.errors import DomainError, InfeasibleError, NonFiniteError, WitnessError
from ucx.moduli import delta


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
            brute_force_bellman(LambdaPoint(1.0, 1.0, 100.0), 2.0)

    def test_apex(self):
        res = brute_force_bellman(LambdaPoint(0.0, 0.0, 0.0), 2.0)
        assert res.value == 0.0 and res.residual == 0.0

    def test_antipodal_boundary_point_pins_value_to_zero(self):
        # only collinear antipodal pairs are feasible
        res = brute_force_bellman(LambdaPoint(1.0, 1.0, 8.0), 3.0)
        assert res.value <= 1e-6

    def test_interior_point_reaches_certificate_p4(self):
        res = brute_force_bellman(LambdaPoint(1.0, 1.0, 1.0), 4.0)
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
            res = brute_force_bellman(x, p)
            assert (np.abs(moment(res.witness, p).as_array() - x.as_array()) <= rounding).all()
            assert res.value <= cert.value(x) + np.abs(cert.c) @ rounding + 1e-15

    @pytest.mark.parametrize("p", [1.25, 4.0])
    def test_faces_give_the_collinear_atom(self, p):
        # a face's pairs are collinear: the one-atom pair is returned
        for x3, value in [(0.0, 1.0), (2.0**p, 0.0)]:
            res = brute_force_bellman(LambdaPoint(1.0, 1.0, x3), p)
            assert len(res.witness.atoms) == 1
            assert res.value == value and res.residual == 0.0
        faces = [(2.0**p, 1.0, 1.0), (1.0, 2.0**p, 1.0), (1.0, 2.0**p, 3.0**p)]
        assert [contains(LambdaPoint(*c), p) for c in faces] == [
            BoundaryFace.FACE1, BoundaryFace.FACE2, BoundaryFace.FACE3]
        for coords in faces:
            x = LambdaPoint(*coords)
            res = brute_force_bellman(x, p)
            assert len(res.witness.atoms) == 1
            assert res.value == pytest.approx(boundary_value(x, p), rel=1e-14)
            assert res.residual <= 1e-15 * np.linalg.norm(x.as_array())
        # within the face tolerance of face 3: the one-atom pair is returned
        # as it is, its moments off x by that tolerance, not by rounding
        x = LambdaPoint(1.0, 1.0, 2.0**p * (1.0 - 1e-11))
        res = brute_force_bellman(x, p)
        assert len(res.witness.atoms) == 1 and res.value == 0.0
        assert 0.0 < res.residual <= 1e-10 * x.x3

    def test_extreme_query_scales(self):
        # the search runs at x / max(x): the cross products of moments of
        # size 1e-200 or 1e200 would under- or overflow
        unit = brute_force_bellman(LambdaPoint(1.0, 1.0, 1.0), 1.5)
        for s in [1e-200, 1e200]:
            res = brute_force_bellman(LambdaPoint(s, s, s), 1.5)
            assert res.value == pytest.approx(s * unit.value, rel=1e-13)
            # the unit-mass rescale by (s (a1 + a2))**(1/p) rounds the atom values
            assert res.residual <= 1e-12 * s

    @pytest.mark.parametrize("p", [50.0, 400.0])
    def test_witness_scale_in_logs(self, p):
        # at x = 1e-300 the atom scale c = (max(x) (a1 + a2))**(1/p) is a
        # normal float: each hexagon atom has largest moment 1
        for s in [1.0, 1e-100, 1e-200, 1e-300]:
            res = brute_force_bellman(LambdaPoint(s, s, s), p)
            assert res.residual <= 1e-12 * s
            # the value at (1, 1, 1) is 1 - 2^-p for p >= 2
            assert abs(res.value - s * (1.0 - 2.0**-p)) <= 1e-11 * s

    def test_witness_scale_overflow(self):
        # every witness atom has a moment of at least max(x), which overflows
        # float64 here once its moments exceed x anywhere
        x = LambdaPoint(1.7e308, 1.7e308, 1.7e308)
        with pytest.raises(NonFiniteError, match="overflows"):
            brute_force_bellman(x, 2.0)

    def test_witness_moments_are_checked(self, monkeypatch):
        # a witness whose moments miss x by more than rounding is an error,
        # not a lower bound: move 1e-9 of weight between two atoms
        atoms_of = bellman._witness

        def perturbed(*args):
            value, pair = atoms_of(*args)
            (a0, f0, g0), (a1, f1, g1) = pair.atoms
            return value, StepPair(((a0 - 1e-9, f0, g0), (a1 + 1e-9, f1, g1)))

        x = LambdaPoint(1.0, 1.0, 1.0)
        assert brute_force_bellman(x, 3.0).residual <= 1e-14
        monkeypatch.setattr(bellman, "_witness", perturbed)
        with pytest.raises(WitnessError, match="off by more than rounding"):
            brute_force_bellman(x, 3.0)

    def test_witness_consistent_with_reported_value(self):
        x = LambdaPoint(1.0, 1.0, 1.0)
        res = brute_force_bellman(x, 2.0)
        assert payoff(res.witness, 2.0) == pytest.approx(res.value, rel=1e-12)
        m = moment(res.witness, 2.0)
        assert np.linalg.norm(m.as_array() - x.as_array()) == pytest.approx(
            res.residual, rel=1e-9, abs=1e-12
        )

    def test_deterministic_bit_for_bit(self):
        x = LambdaPoint(1.0, 1.0, 1.0)
        a = brute_force_bellman(x, 1.5)
        b = brute_force_bellman(x, 1.5)
        assert a.value == b.value and a.residual == b.residual
        assert a.witness == b.witness

    def test_lower_bound_against_certificates(self):
        for p, cert in [(4.0, certificate(4.0)), (1.5, certificate(1.5, 1.0))]:
            for x3 in [0.5, 1.0, 2.0]:
                x = LambdaPoint(1.0, 1.0, x3)
                res = brute_force_bellman(x, p)
                # certified domination holds at the witness's actual moments
                m = moment(res.witness, p)
                assert res.value <= cert.value(m) + 1e-9

    def test_scaling_lower_bound(self):
        x = LambdaPoint(1.0, 1.0, 1.0)
        base = brute_force_bellman(x, 1.5)
        for lam in [0.5, 2.0]:
            scaled = brute_force_bellman(LambdaPoint(lam, lam, lam), 1.5)
            assert scaled.value >= lam * base.value - 5e-2 * lam

    def test_format_witness_layout(self):
        x = LambdaPoint(1.0, 1.0, 1.0)
        res = brute_force_bellman(x, 2.0)
        text = format_witness(x, 2.0, res)
        lines = text.splitlines()
        assert lines[0].startswith("x=1.0,1.0,1.0 p=2.0 theta=0.5 value=")
        assert len(lines) == 1 + ATOM_COUNT
        assert all(line.startswith("w=") and " f=" in line and " g=" in line for line in lines[1:])


def slice_rows(p, n):
    """The query points of ``ucx envelope --grid-n n``, both face rows included."""
    return [LambdaPoint(1.0, 1.0, i * 2.0**p / (n - 1)) for i in range(n)]


def same_result(a, b):
    return a.value == b.value and a.residual == b.residual and a.witness == b.witness


def spy_scans(monkeypatch):
    """Record the queries of every scan of the search, one column of x each."""
    queries, scan = [], bellman._scan

    def spy(x, p):
        queries.extend(x.T.tolist())
        return scan(x, p)

    monkeypatch.setattr(bellman, "_scan", spy)
    return queries


class TestBatch:
    """One search over all interior queries, equal to one search per query."""

    @pytest.mark.parametrize("p", [1.25, 1.5, 4.0])
    def test_batch_equals_one_call_per_point(self, p):
        points = slice_rows(p, 7)
        batch = brute_force_batch(points, p)
        assert len(batch) == len(points)
        for x, res in zip(points, batch):
            assert same_result(res, brute_force_bellman(x, p))
        assert len(batch[0].witness.atoms) == len(batch[-1].witness.atoms) == 1

    def test_empty_batch(self):
        assert brute_force_batch([], 2.0) == []

    def test_all_face_batch_runs_no_search(self, monkeypatch, capsys):
        queries = spy_scans(monkeypatch)
        res = brute_force_batch(slice_rows(2.5, 2), 2.5)
        assert [r.value for r in res] == [1.0, 0.0]
        assert all(len(r.witness.atoms) == 1 for r in res)
        assert cli_main(["envelope", "--p", "2.5", "--grid-n", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert queries == []

    def test_mixed_face_and_interior(self):
        p = 3.0
        points = [LambdaPoint(1.0, 1.0, 1.0), LambdaPoint(2.0**p, 1.0, 1.0), LambdaPoint(1.0, 1.0, 0.0),
                  LambdaPoint(0.5, 1.0, 2.0), LambdaPoint(1.0, 2.0**p, 3.0**p)]
        batch = brute_force_batch(points, p)
        assert [len(r.witness.atoms) for r in batch] == [2, 1, 1, 2, 1]
        for x, res in zip(points, batch):
            assert same_result(res, brute_force_bellman(x, p))

    def test_first_query_without_feasible_pair_in_input_order(self, capsys):
        # no step pair has moments outside the cone; the first such query in
        # input order is the one named, whatever else the batch holds
        p = 3.0
        points, outside = slice_rows(p, 9), [LambdaPoint(1.0, 1.0, 100.0), LambdaPoint(1.0, 9.0, 1.0)]
        for order, named in [(points[:3] + outside, "x2=1.0, x3=100.0"), (outside[::-1] + points, "x2=9.0")]:
            with pytest.raises(InfeasibleError, match=named):
                brute_force_batch(order, p)
        assert cli_main(["bruteforce", "--p", "3", "--x", "1,9,1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "x2=9.0" in err

    def test_work_stays_within_the_budget(self, monkeypatch):
        # a fixed budget of chords per query: one per scan point, then at most
        # ZOOM per round of each of the PEAKS peaks, and one for the witness.
        # A lockstep call scores one chord per entry of its payoffs
        p = 4.0
        points = slice_rows(p, 25)[1:-1]
        chords, chord = [], bellman._chord

        def spy(x, t1, t2, p):
            scored = chord(x, t1, t2, p)
            chords.append(np.size(scored[0]))
            return scored

        monkeypatch.setattr(bellman, "_chord", spy)
        brute_force_batch(points, p)
        budget = 3 * bellman.SCAN_PER_SIDE + bellman.PEAKS * bellman.ZOOM * bellman.ZOOM_ROUNDS + 1
        assert 0 < sum(chords) <= len(points) * budget
        # every row here has 2 scan peaks, the two ends of one chord, which is zoomed in on once
        assert sum(chords) == len(points) * (3 * bellman.SCAN_PER_SIDE + bellman.ZOOM * bellman.ZOOM_ROUNDS + 1)

    @pytest.mark.parametrize("p", [1.04, 1.5, 2.0, 4.0])
    def test_each_chord_is_zoomed_in_on_once(self, p, monkeypatch):
        # off p = 2 a slice row's 2 scan peaks meet one chord from its two ends, and one lane
        # zooms in on it; at p = 2 the payoff is flat along the slice, and a row keeps PEAKS lanes
        lanes, zoom = [], bellman._zoom

        def spy(x, *ends):
            lanes.extend(map(tuple, x.T.tolist()))
            return zoom(x, *ends)

        monkeypatch.setattr(bellman, "_zoom", spy)
        points = slice_rows(p, 25)[1:-1]
        brute_force_batch(points, p)
        per_row = [lanes.count(q) for q in dict.fromkeys(lanes)]
        assert len(per_row) == len(points)
        if p == 2.0:
            assert max(per_row) <= bellman.PEAKS
        else:
            assert per_row == [1] * len(points)

    @pytest.mark.parametrize("p", [1.04, 1.5, 2.0, 4.0])
    def test_chunks_equal_one_call_per_point(self, p, monkeypatch):
        # 23 interior slice rows, three chunks, with faces between them; each
        # row has 2 scan peaks at p != 2 and 54 to 68 at p = 2, whose payoff
        # is flat along the slice
        points = slice_rows(p, 25)
        points[9:9] = [LambdaPoint(1.0, 1.0, 0.0), LambdaPoint(2.0**p, 1.0, 1.0)]
        single = [brute_force_bellman(x, p) for x in points]
        for chunk in [3, bellman.CHUNK]:
            monkeypatch.setattr(bellman, "CHUNK", chunk)
            batch = brute_force_batch(points, p)
            assert all(same_result(a, b) for a, b in zip(batch, single))
        assert [len(r.witness.atoms) for r in batch].count(1) == 4

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_memory_stays_within_a_chunk(self, p):
        # lockstep arrays are one chunk's whatever the batch size; only the
        # results grow with it
        points = [LambdaPoint(1.0, 1.0, (i + 0.5) * 2.0**p / 64) for i in range(64)]
        assert len(points) >= 4 * bellman.CHUNK

        def peak(batch):
            tracemalloc.start()
            try:
                brute_force_batch(batch, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(points) <= 1.25 * peak(points[:bellman.CHUNK])

    def test_slice_reaches_the_two_atom_optimum(self):
        # the slice of the p = 4 envelope benchmark: the value is 1 - x3/2^p,
        # carried by the atom (1, 1) and an antipodal one
        p = 4.0
        points = slice_rows(p, 25)
        for x, res in zip(points, brute_force_batch(points, p)):
            assert abs(res.value - (1.0 - x.x3 / 16.0)) <= 1e-14


class TestExact:
    """The search meets the value function in closed form (Hanner 1956)."""

    def test_meets_hanners_value_off_the_plane(self):
        # random interior points with x1 != x2, a third of them within 1e-3
        # of a face (a gap of 1e-6 to 1e-3 in one triangle inequality of the
        # p-th roots), at 14 exponents on both sides of 2 down to p = 1.02,
        # where the best chord's peak is narrow
        rng = np.random.default_rng(22)
        exponents = np.concatenate([rng.uniform(1.02, 1.1, 3), rng.uniform(1.1, 2.0, 4), rng.uniform(2.0, 8.0, 7)])
        count = 0
        for p in exponents:
            points = []
            while len(points) < 15:
                if len(points) % 3:
                    w = rng.dirichlet(np.ones(3))
                    f, g = rng.uniform(-1.0, 1.0, (2, 3))
                    x = [w @ np.abs(f) ** p, w @ np.abs(g) ** p, w @ np.abs(f - g) ** p]
                else:
                    u = rng.uniform(0.2, 1.0, 2)
                    roots = np.roll([u[0], u[1], (u[0] + u[1]) * (1.0 - 10.0 ** rng.uniform(-6.0, -3.0))],
                                    rng.integers(3))
                    x = list(roots**p)
                point = LambdaPoint(*x)
                if x[0] != x[1] and contains(point, p) is BoundaryFace.INTERIOR:
                    points.append(point)
            for x, res in zip(points, brute_force_batch(points, p)):
                # the payoff is at most the value at the witness's moments m,
                # which differ from x by rounding; near a face at p near 1 the
                # value's gradient is in the tens, which makes that 1e-14
                tol = 1e-14 * max(x.as_array())
                m = moment(res.witness, p).as_array()
                assert hanner_value(x.as_array(), p) - tol <= res.value <= hanner_value(m, p) + tol, (p, x)
                count += 1
        assert count >= 200

    def test_each_chord_from_its_better_end(self):
        # the search zooms in on one end of each chord the scan meets from both; from the other
        # end the zoom can land on a worse chord.  At p in [10, 30], off the plane, with p-th roots
        # u1, u2 in [1/2, 1] and u3 inside their triangle, zooming from the lower scan index of
        # a peak and the peak next to its far end falls up to 7.5e-11 short; zooming from both
        # ends came within 6.5e-15
        rng = np.random.default_rng(30)
        for p in rng.uniform(10.0, 30.0, 4):
            points = []
            while len(points) < 40:
                u1, u2 = rng.uniform(0.5, 1.0, 2)
                u3 = abs(u1 - u2) + (u1 + u2 - abs(u1 - u2)) * rng.uniform(0.1, 0.9)
                x = np.roll([u1, u2, u3], rng.integers(3)) ** p
                if x[0] != x[1]:
                    points.append(LambdaPoint(*x))
            for x, res in zip(points, brute_force_batch(points, p)):
                exact = float(hanner_value(x.as_array(), p))
                assert abs(res.value - exact) <= 1e-14 * exact, (p, x)
        # points where one part of the rule matters, with what falls short without it:
        # - p = 27.97 and 491.7: a peak sits next to the far end of another but not the other
        #   way round, so they are two chords; dropping the one with the higher scan index
        #   falls 2.7e-11 short, and dropping peak 72 at p = 491.7 lands 22 orders short;
        # - p = 60.6 and 83.9: the end with the higher scan payoff has the steeper far end;
        #   zooming from it alone lands on 7e-95 for 9.7e-4 and on 1e-34 for 5.7e-31;
        # - p = 863.5: keeping the lower index of a resolved pair, not the flatter far end,
        #   falls 3.6e-9 short;
        # - p = 618.5 and 1e7: far ends the scan does not resolve as inverse maps (2.2 and 95
        #   cells; a whole side each); zooming from the flatter alone falls 1.3e-9 and 2.9e-5 short
        for p, x, rtol in [
            (27.967403238704676, (0.9654293488819077, 0.5440609667239762, 0.017215308147325532), 1e-14),
            (491.68393664243877, (6.802846974001163e-103, 1.9935928083361042e-75, 1.0428833816325757e60), 1e-9),
            (60.6190683983187, (0.001963051961765572, 0.0018805597890658645, 1682324095691515.2), 1e-14),
            (83.92342485775568, (2.3431183117318853e-20, 2.000455203630806e-41, 0.0003881601516990815), 1e-11),
            (863.4811838872816, (1.0755995587890475e-178, 8.696943261975551e-74, 2.1124949963989206e66), 1e-12),
            (618.5256101722737, (8.347877132681615e-07, 3.189655562977437e-10, 3.1493280967886345e169), 1e-12),
            (1e7, (0.3, 0.9, 0.5), 1e-9),
        ]:
            exact = float(hanner_value(x, p))
            assert abs(brute_force_bellman(LambdaPoint(*x), p).value - exact) <= rtol * exact, p

    def test_short_chord_within_one_scan_cell(self):
        # the best chord's ends lie 0.025 apart, and the far end of the scan
        # point t = 2.5 lies in that point's own cell; the value's gradient
        # is about 430 here, so above it is checked at the witness's moments
        p, x = 1.0404580324449908, LambdaPoint(0.942928023810568, 0.9021608490754252, 1.8975396677255532)
        res, tol = brute_force_bellman(x, p), 1e-14 * x.x3
        m = moment(res.witness, p).as_array()
        assert hanner_value(x.as_array(), p) - tol <= res.value <= hanner_value(m, p) + tol

    def test_slice_rows_meet_hanners_value(self):
        p = 4.0
        for x, res in zip(slice_rows(p, 25), brute_force_batch(slice_rows(p, 25), p)):
            assert abs(res.value - float(hanner_value(x.as_array(), p))) <= 1e-14

    @pytest.mark.parametrize("p, i", [(1.5, 1), (1.75, 1), (1.75, 3), (3.0, 1), (4.0, 2),
                                      (1.25, 2), (1.1, 1), (1.5, 2)])
    def test_sharp_points_meet_the_value(self, p, i):
        # row i of the 5-row slice, x3 = eps^p: the value there is (1 - delta)^p,
        # which is 1 - x3/2^p for p >= 2
        x3 = i * 2.0**p / 4
        eps = 2.0 * (i / 4) ** (1.0 / p)
        exact = float((1 - delta_mpmath(p, eps)) ** p) if p < 2.0 else 1.0 - x3 / 2.0**p
        assert abs(brute_force_bellman(LambdaPoint(1.0, 1.0, x3), p).value - exact) <= 1e-14

    @pytest.mark.parametrize("p, i", [(1.5, 1), (1.75, 1), (1.75, 3), (3.0, 1), (4.0, 2)])
    def test_sharp_witness_is_the_extremal_pair(self, p, i):
        # the search and the certificate route reach one pair: Hanner's for p < 2,
        # Clarkson's for p >= 2.  Atoms are matched by their direction g/f, and
        # the weighted moment vectors compared at unit total x1; the payoff is
        # flat at its maximum, so the argmax is resolved to about 3e-8
        eps = 2.0 * (i / 4) ** (1.0 / p)
        found = brute_force_bellman(LambdaPoint(1.0, 1.0, i * 2.0**p / 4), p).witness
        f, g = _extremal_pair(p, eps, delta(p, eps))
        sides = []
        for weights, fv, gv in [(found.weights, found.f_values, found.g_values), (np.full(2, 0.5), f, g)]:
            order = np.argsort(gv / fv)
            moments = weights * np.array([np.abs(fv) ** p, np.abs(gv) ** p, np.abs(fv - gv) ** p])
            sides.append(((gv / fv)[order], (moments / moments[0].sum())[:, order]))
        (found_dirs, found_moments), (pair_dirs, pair_moments) = sides
        assert np.allclose(found_dirs, pair_dirs, rtol=1e-6, atol=0.0)
        assert np.allclose(found_moments, pair_moments, rtol=1e-6, atol=1e-6 * pair_moments.max())

