import io
import json
import math
import os
import random
import re
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchors import DELTA_E1_P4, DELTA_P15_E1
from helpers import delta_mpmath
from ucx import bellman
from ucx.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestTable:
    def test_grid_endpoints(self):
        code, out, _ = run_cli(["table", "--p", "2", "--eps", "0:2:5"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert float(rows[0]["delta"]) == 0.0
        assert float(rows[-1]["delta"]) == 1.0

    def test_single_eps_p15(self):
        code, out, _ = run_cli(["table", "--p", "1.5", "--eps", "1:1:1"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["delta"]) == pytest.approx(DELTA_P15_E1, abs=1e-10)
        assert float(row["cross_check_residual"]) < 1e-8
        assert row["route"] == "s_star"

    @pytest.mark.parametrize("p, eps", [("1.5", "1e-08"), ("1.99", "1e-06")])
    def test_small_eps_below_two(self, p, eps):
        code, out, err = run_cli(["table", "--p", p, "--eps", eps])
        assert code == 0, err
        row = parse_csv(out)[0]
        assert row["route"] == "s_star" and float(row["delta"]) > 0.0
        assert float(row["cross_check_residual"]) <= 1e-8

    @pytest.mark.parametrize("p, eps", [("2", "3e-9"), ("1.0425836237757702", "1.537179516623108e-08")])
    def test_implicit_root_below_rounding(self, p, eps):
        # the implicit residual at delta = 0 rounds to <= 0, and the cross-check returns 0
        code, out, err = run_cli(["table", "--p", p, "--eps", eps])
        assert code == 0 and err == ""
        row = parse_csv(out)[0]
        assert float(row["cross_check_residual"]) == float(row["delta"]) > 0.0

    @pytest.mark.parametrize("k", range(44, 53))
    def test_p_near_one(self, k):
        # at k = 52 and eps = 3e-7, 2e-6 or 1e-3 the tangency residual at
        # delta = 0, >= 0 exactly, rounds below 0; delta, below 1e-21 there,
        # reads 0.0, inside the accuracy contract's 2e-15 / (p - 1) relative
        p = 1.0 + 2.0**-k
        for eps in [3e-7, 2e-6, 1e-3, 0.1, 1.0, 1.9]:
            code, out, err = run_cli(["table", "--p", repr(p), "--eps", repr(eps)])
            assert code == 0 and err == "", (eps, err)
            d, ref = float(parse_csv(out)[0]["delta"]), delta_mpmath(p, eps)
            assert abs(d - ref) <= 2e-15 / (p - 1.0) * ref, (eps, d)

    def test_p4_closed_form(self):
        code, out, _ = run_cli(["table", "--p", "4", "--eps", "1"])
        row = parse_csv(out)[0]
        assert code == 0
        assert float(row["delta"]) == pytest.approx(DELTA_E1_P4, abs=1e-12)
        assert row["route"] == "closed_form"
        assert float(row["cross_check_residual"]) == 0.0

    def test_json_csv_numeric_round_trip(self):
        _, csv_out, _ = run_cli(["table", "--p", "1.5", "--eps", "0.2:1.8:7"])
        _, json_out, _ = run_cli(["table", "--p", "1.5", "--eps", "0.2:1.8:7", "--format", "json"])
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for field in ("p", "eps", "delta", "cross_check_residual"):
                assert float(c[field]) == j[field]  # identical numeric content
            assert c["route"] == j["route"]

    def test_invalid_config_exit_2(self):
        code, _, err = run_cli(["table", "--p", "0.9", "--eps", "1"])
        assert code == 2 and err.strip()
        code, _, err = run_cli(["table", "--p", "2", "--eps", "3"])
        assert code == 2 and err.strip()
        code, _, err = run_cli(["table", "--p", "2", "--eps", "0:2:0"])
        assert code == 2 and err.strip()

    def test_non_integer_grid_count_exit_2(self):
        code, out, err = run_cli(["table", "--p", "1.5", "--eps", "0.1:1.9:abc"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    def test_unwritable_output_exit_2(self, tmp_path):
        target = tmp_path / "missing-dir" / "rows.csv"
        code, out, err = run_cli(["table", "--p", "3", "--eps", "1", "--output", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--p", "3", "--grid-n", "11"],
        ["envelope", "--p", "3", "--grid-n", "2", "--n-per-face", "4"],
        ["bruteforce", "--p", "3", "--x", "1,1,8"],
    ])
    def test_unwritable_output_exit_2_every_subcommand(self, tmp_path, argv):
        target = tmp_path / "missing-dir" / "out.txt"
        code, out, err = run_cli([*argv, "--output", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("ucx: cannot write --output") and err.count("\n") == 1

    def test_output_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(["table", "--p", "3", "--eps", "1", "--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("p,eps,delta,route,cross_check_residual")


class TestVerify:
    def test_ge2_passes(self):
        code, out, _ = run_cli(["verify", "--p", "3", "--grid-n", "2001"])
        assert code == 0
        lines = out.strip().splitlines()
        assert all(" pass=true " in line for line in lines)
        assert sum(line.startswith("claim=chord-equality") for line in lines) == 1

    def test_lt2_passes_with_witness(self):
        code, out, _ = run_cli(
            ["verify", "--p", "1.5", "--eps", "1", "--grid-n", "2001", "--trials", "2000", "--seed", "5"]
        )
        assert code == 0
        assert sum(line.startswith("claim=midpoint-contraction") for line in out.splitlines()) == 1

    def test_missing_eps_diagnostic(self):
        code, out, err = run_cli(["verify", "--p", "1.5"])
        assert code == 2
        assert "epsilon required for p<2" in err
        assert out == ""

    def test_small_eps_grid_passes(self):
        # every claim is scanned on the compact section, where it is O(1) at any eps
        rng = random.Random(20141104)
        points = [(1.99, 1e-8), (1.3, 1e-8), (1.01, 1e-8), (1.99, 1.99), (2.0, 1e-6), (30.0, 1e-6)]
        points += [(rng.uniform(1.01, 1.99), math.exp(rng.uniform(math.log(1e-8), math.log(1.99))))
                   for _ in range(24)]
        points += [(rng.uniform(2.0, 30.0), math.exp(rng.uniform(math.log(1e-6), math.log(2.0))))
                   for _ in range(8)]
        t0 = time.perf_counter()
        for p, eps in points:
            code, out, err = run_cli(["verify", "--p", repr(p), "--eps", repr(eps),
                                      "--grid-n", "201"])
            failed = [line for line in out.splitlines() if "pass=false" in line]
            assert code == 0, (p, eps, failed, err)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("eps", ["1e-300", "5e-324"])
    def test_tiny_eps_certifies(self, eps):
        # s* = w**-p and 2 eps^-p overflow float64 here; the tangency root w does
        # not.  Seven claims: an eps adds midpoint-contraction
        code, out, err = run_cli(["verify", "--p", "1.5", "--eps", eps])
        lines = out.splitlines()
        assert code == 0 and err == "" and len(lines) == 7
        assert all(" pass=true " in line for line in lines)

    @pytest.mark.parametrize("p", ["1100", "2000", "1e308", "1.6363308087894492e+308",
                                   "1.7976931348623157e+308"])
    def test_large_p_certifies(self, p):
        # the scans run on the compact section and never form 2**p; there
        # 2**-p underflows to 0 and moves no scanned quantity.  Near the
        # largest float (p - 1) log(r2/r1) on face 3 overflows to -inf, which
        # still gives 1 + g' = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["verify", "--p", p, "--grid-n", "11"])
        lines = out.splitlines()
        assert code == 0 and err == "" and len(lines) == 6
        assert all(" pass=true " in line for line in lines)

    @pytest.mark.parametrize("command", ["verify", "envelope"])
    def test_eps_two_below_p2_exit_2(self, command):
        # no affine certificate exists at eps = 2 for p < 2
        code, out, err = run_cli([command, "--p", "1.5", "--eps", "2", "--grid-n", "3"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--s-max=100", "--s-probe=1000"])
    def test_slice_cutoff_flags_removed(self, flag):
        with redirect_stderr(io.StringIO()):
            assert main(["verify", "--p", "3", flag]) == 2

    def test_chord_scan_flag_removed(self):
        # chord-equality checks the chord's two ends, where its affine gap peaks
        with redirect_stderr(io.StringIO()):
            assert main(["verify", "--p", "3", "--n-chord=11"]) == 2
        _, out, _ = run_cli(["verify", "--p", "3", "--grid-n", "11"])
        chord = [line for line in out.splitlines() if line.startswith("claim=chord-equality")]
        assert len(chord) == 1 and chord[0].endswith(" at=0.0 grid=2")

    @pytest.mark.parametrize("k", [41, 44, 52])
    @pytest.mark.parametrize("eps", ["0.5", "1", "1.9"])
    def test_p_near_one_certifies(self, k, eps):
        # 1 + g' = 1 - (r2/r1)**(p-1) rounded to 0 on face 3 here, with numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["verify", "--p", repr(1.0 + 2.0**-k), "--eps", eps])
        assert code == 0 and err == "", [line for line in out.splitlines() if "pass=false" in line]

    def test_eps_near_two_certifies(self):
        # k is 3.8e5 here; the 1,001-point chord scan failed on an interior
        # sample's rounding, 1.05e-10, while both chord ends are at 4.7e-11
        code, out, err = run_cli(["verify", "--p", "1.005", "--eps", "1.9999999996837723"])
        assert code == 0 and err == "", out

    @pytest.mark.xfail(strict=True, reason=(
        "chord-equality fails by float64 rounding of c . x at a chord end, 9.58e-10: "
        "k is 4.5e6 here; an interval proof with c at higher precision is ROADMAP item 2"))
    def test_eps_nearer_two_certifies(self):
        code, out, _ = run_cli(["verify", "--p", "1.01", "--eps", "1.999999999999"])
        assert code == 0, out

    def test_line_format(self):
        _, out, _ = run_cli(["verify", "--p", "2.5", "--grid-n", "501"])
        pattern = re.compile(
            r"claim=[\w\-\[\]=.+e0-9]+ pass=(true|false) worst=[-+0-9.e]+ at=[-+0-9.e]+ grid=\d+"
        )
        for line in out.strip().splitlines():
            assert pattern.fullmatch(line), line


class TestEnvelope:
    def test_p2_exact_line(self):
        code, out, err = run_cli(
            ["envelope", "--p", "2", "--grid-n", "9", "--n-per-face", "12"]
        )
        assert code == 0, err
        rows = parse_csv(out)
        assert len(rows) == 9
        for row in rows:
            x3, env = float(row["x3"]), float(row["envelope"])
            assert env == pytest.approx(1.0 - x3 / 4.0, abs=1e-8)

    def test_p4_monotone_envelope(self):
        code, out, err = run_cli(
            ["envelope", "--p", "4", "--grid-n", "9", "--n-per-face", "12"]
        )
        assert code == 0, err
        vals = [float(r["envelope"]) for r in parse_csv(out)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_p15_query_point(self):
        code, out, err = run_cli(
            ["envelope", "--p", "1.5", "--eps", "1", "--grid-n", "5", "--n-per-face", "24"]
        )
        assert code == 0, err
        rows = parse_csv(out)
        # x3 grid [0, 2^p] with 5 points does not hit 1 exactly; check the header shape
        assert list(rows[0].keys()) == ["x3", "envelope", "certificate", "brute_force"]

    def test_search_above_certificate_exit_1(self, monkeypatch):
        # the search is a lower bound: a value above the certificate breaks the
        # sandwich even where it stays within --sandwich-tol of the envelope
        search = bellman.brute_force_batch

        def raised(*args, **kwargs):
            return [replace(r, value=r.value + 1e-3) for r in search(*args, **kwargs)]

        monkeypatch.setattr(bellman, "brute_force_batch", raised)
        code, out, err = run_cli(["envelope", "--p", "4", "--grid-n", "5"])
        assert code == 1 and len(parse_csv(out)) == 5
        assert err.count("sandwich violation") == 5

    @pytest.mark.parametrize("p, column", [
        ("60", [1.0, 0.75, 0.5, 0.25, 0.0]),
        ("500", [1.0, 0.5, 0.0]),
        ("560", [1.0, 0.5, 0.0]),
    ])
    def test_large_p_envelope_is_the_line(self, p, column):
        # for p >= 2 the slice value is 1 - x3 / 2^p; the boundary samples'
        # x3 per unit of x1 + x2 spans [0, 2^(p-1)]
        code, out, err = run_cli(["envelope", "--p", p, "--grid-n", str(len(column))])
        assert code == 0 and err == ""
        got = [float(r["envelope"]) for r in parse_csv(out)]
        assert got == pytest.approx(column, abs=1e-12)

    def test_p580_sandwich(self):
        # the witness at x3 = 2^579 scales back from max(x) = 1; the search
        # value stays at or below the value 1/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["envelope", "--p", "580", "--grid-n", "3"])
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert [float(r["envelope"]) for r in rows] == [1.0, 0.5, 0.0]
        assert 0.5 - 5e-3 <= float(rows[1]["brute_force"]) <= 0.5

    def test_missing_eps_exit_2(self):
        code, _, err = run_cli(["envelope", "--p", "1.5"])
        assert code == 2 and "epsilon required" in err

    def test_tiny_eps_runs(self):
        # the p < 2 certificate exists down to eps = 1e-300, where it is (x1 + x2)/2
        # up to c3 ~ -1e-151
        code, out, err = run_cli(["envelope", "--p", "1.5", "--eps", "1e-300", "--grid-n", "3",
                                  "--n-per-face", "8"])
        assert code == 0 and err == ""
        assert float(parse_csv(out)[0]["certificate"]) == 1.0

    @pytest.mark.parametrize("argv", [
        ["--p", p, "--eps", eps] for p, eps in [("1.05", "0.3"), ("1.1", "0.5"), ("1.25", "0.66"),
                                                ("1.5", "0.794"), ("1.75", "1.2"), ("2", "1"), ("3", "1"),
                                                ("4", "1.68"), ("8", "1.5")]
    ])
    def test_search_stays_below_the_value_at_the_antipodal_edge(self, argv):
        # only antipodal pairs have the moments (1, 1, 2^p), and their payoff is 0
        code, out, err = run_cli(["envelope", *argv, "--grid-n", "5"])
        assert code == 0 and err == ""
        assert float(parse_csv(out)[-1]["brute_force"]) == 0.0


class TestBruteforce:
    def test_probe_value_range(self):
        code, out, _ = run_cli(["bruteforce", "--p", "4", "--x", "1,1,1"])
        assert code == 0
        head = out.splitlines()[0]
        value = float(re.search(r"value=([-+0-9.e]+)", head).group(1))
        assert 0.93 <= value <= 0.9375 + 1e-9

    def test_boundary_point_value_zero(self):
        code, out, _ = run_cli(["bruteforce", "--p", "3", "--x", "1,1,8"])
        assert code == 0
        value = float(re.search(r"value=([-+0-9.e]+)", out.splitlines()[0]).group(1))
        assert value <= 1e-6

    def test_negative_coordinate_exit_2(self):
        code, _, err = run_cli(["bruteforce", "--p", "2", "--x", "-1,1,1"])
        assert code == 2 and err.strip()

    def test_malformed_point_exit_2(self):
        code, _, _ = run_cli(["bruteforce", "--p", "2", "--x", "1,1"])
        assert code == 2
        code, _, _ = run_cli(["bruteforce", "--p", "2", "--x", "a,b,c"])
        assert code == 2

    def test_large_p_face_point(self):
        # (0, 1, 1) lies on face 3, where the collinear atom (0, -1) is exact;
        # its payoff 2**-1556 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bruteforce", "--p", "1556", "--x", "0,1,1"])
        assert code == 0 and err == ""
        assert out == "x=0.0,1.0,1.0 p=1556.0 theta=0.5 value=0.0 residual=0.0\nw=1.0 f=0.0 g=-1.0\n"

    def test_large_p_interior_point(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bruteforce", "--p", "1100", "--x", "1,1,1"])
        assert code == 0 and err == ""
        head = out.splitlines()[0]
        value = float(re.search(r"value=([-+0-9.e]+)", head).group(1))
        residual = float(re.search(r"residual=([-+0-9.e]+)", head).group(1))
        assert 1.0 - 1e-9 <= value <= 1.0 and residual <= 1e-12

    @pytest.mark.parametrize("p", ["50", "400"])
    def test_tiny_query_certifies(self, p):
        # at x = 1e-300 the atom scale c = (max(x) (a1 + a2))**(1/p) is a
        # normal float: each searched atom has largest moment 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bruteforce", "--p", p, "--x", "1e-300,1e-300,1e-300"])
        assert code == 0 and err == ""
        head = out.splitlines()[0]
        value = float(re.search(r"value=([-+0-9.e]+)", head).group(1))
        residual = float(re.search(r"residual=([-+0-9.e]+)", head).group(1))
        assert residual <= 1e-12 * 1e-300
        assert abs(value - 1e-300 * (1.0 - 2.0**-float(p))) <= 1e-11 * 1e-300

    def test_outside_point_exit_2(self):
        # a point outside the cone is a bad input, not a failed mathematical check
        code, out, err = run_cli(["bruteforce", "--p", "2", "--x", "1,1,99"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and "outside" in err and err.count("\n") == 1


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        args = ["envelope", "--p", "1.5", "--eps", "1", "--grid-n", "5", "--n-per-face", "10"]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first.encode() == second.encode()


class TestSearchOptions:
    """``--restarts``, ``--local-steps`` and ``--seed`` (and ``envelope --radius``, ``verify --trials``) are parsed
    and do nothing."""

    @pytest.mark.parametrize("argv, options", [
        (["envelope", "--p", "1.5", "--eps", "1", "--grid-n", "5", "--n-per-face", "10"],
         ["--restarts", "1", "--local-steps", "1", "--seed", "3", "--radius", "128"]),
        (["envelope", "--p", "4", "--grid-n", "9"], ["--restarts", "32", "--local-steps", "600", "--seed", "0"]),
        (["bruteforce", "--p", "1.25", "--x", "0.5,1,0.7"], ["--seed", "-1", "--restarts", "0", "--local-steps", "0"]),
        (["bruteforce", "--p", "3", "--x", "1,1,99"], ["--restarts", "2", "--local-steps", "10"]),
        (["verify", "--p", "1.5", "--eps", "1", "--grid-n", "101"], ["--trials", "20000", "--seed", "1"]),
    ])
    def test_output_is_byte_identical_without_them(self, argv, options):
        assert run_cli(argv + options) == run_cli(argv)

    @pytest.mark.parametrize("command, options", [
        ("envelope", ["--restarts", "--local-steps", "--seed", "--radius"]),
        ("bruteforce", ["--restarts", "--local-steps", "--seed"]),
        ("verify", ["--trials", "--seed"]),
    ])
    def test_help_says_no_effect(self, command, options):
        code, out, _ = run_cli([command, "--help"])
        assert code == 0 and out.count("no effect") == len(options)
        assert all(re.search(rf"{name} \S+\s+no effect", out) for name in options)

    @pytest.mark.parametrize("argv", [
        ["envelope", "--p", "3", "--restarts", "x"],
        ["bruteforce", "--p", "3", "--x", "1,1,1", "--local-steps", "1.5"],
        ["bruteforce", "--p", "3", "--x", "1,1,1", "--seed", ""],
    ])
    def test_malformed_value_exit_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1


class TestBadInputsExit2:
    @pytest.mark.parametrize("command", [
        ["envelope", "--p", "2000", "--grid-n", "3", "--n-per-face", "4"],
    ])
    def test_p_too_large_for_2_to_the_p(self, command):
        code, out, err = run_cli(command)
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p, x", [("2", "1e308,1,1")])
    def test_search_moments_overflow(self, p, x):
        # the point lies outside the cone, so no search runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bruteforce", "--p", p, "--x", x])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    def test_witness_scale_overflow(self):
        # the search runs at max(x) = 1; scaled back to x, every witness atom
        # has a moment above max(x), and that overflows float64 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bruteforce", "--p", "2", "--x", "1.7e308,1.7e308,1.7e308"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and "overflows" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "table --p 0.9 --eps 1", "table --p 2 --eps 3",
        "verify --p 1.5", "verify --p 3 --eps 3", "verify --p 3 --eps 0", "verify --p 1.5 --eps 2",
        "envelope --p 1.5", "envelope --p 1.5 --eps 0", "envelope --p 3 --eps 5",
        "envelope --p 3 --eps 0 --grid-n 3",
        "bruteforce --p 0.5 --x 1,1,1", "bruteforce --p 2 --x -1,1,1", "bruteforce --p 2 --x=-1,1,1",
        "bruteforce --p 2 --x nan,1,1",
        "bruteforce --p 3 --x 1,1,1 --theta 0.3",
        # float64 resolves the search's hexagon too coarsely past p = 1e7
        "bruteforce --p 1e8 --x 1,0.5,0.7",
        # the sandwich tolerance is fixed and the envelope prints CSV only
        "envelope --p 3 --sandwich-tol 0.05", "envelope --p 3 --format json",
        # a negative tolerance made every exact meeting of search and envelope a violation
        "envelope --p=5.824077088250119 --grid-n=2 --n-per-face=2 --restarts=2 --local-steps=2"
        " --sandwich-tol=-2.6e16",
    ])
    def test_one_line_diagnostic(self, argv):
        code, out, err = run_cli(argv.split())
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    def test_slice_rows_overflow(self):
        # 2**1023 is finite, but i * 2**p overflows before the division by grid-n - 1
        code, out, err = run_cli(["envelope", "--p", "1023", "--grid-n", "3"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and "slice rows i >= 2" in err and err.count("\n") == 1

    def test_table_keeps_large_p(self):
        code, out, _ = run_cli(["table", "--p", "2000", "--eps", "1"])
        assert code == 0 and float(parse_csv(out)[0]["delta"]) >= 0.0

    @pytest.mark.parametrize("x", ["1,1,inf", "nan,1,1", "1,-inf,1"])
    def test_non_finite_point(self, x):
        code, out, err = run_cli(["bruteforce", "--p", "2", f"--x={x}"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1


def _number():
    special = st.sampled_from(
        ["nan", "inf", "-inf", "0", "-1", "1", "1.0000000000000002", "2", "1.5", "3", "2000", "1e300",
         "5e-324", "1e-300"]
    )
    return st.one_of(special, st.floats(allow_nan=True, allow_infinity=True).map(repr))


def _exponent():
    return st.one_of(_number(), st.floats(1.0, 6.0).map(repr))


def _eps_grid():
    count = st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["abc", "2.5", ""]))
    grid = st.tuples(_number(), _number(), count).map(":".join)
    return st.one_of(_number(), grid, st.sampled_from(["", ":", "1:2", "1:2:3:4", "x"]))


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["table", "verify", "envelope", "bruteforce"]))
    argv = [command, f"--p={draw(_exponent())}"]
    if command == "table":
        argv += [f"--eps={draw(_eps_grid())}"]
        argv += draw(_opt("format", st.sampled_from(["csv", "json", "xml"])))
    elif command == "verify":
        argv += draw(_opt("eps", _number()))
        argv += [f"--grid-n={draw(_ints(-1, 11))}", f"--trials={draw(_ints(-1, 50))}"]
        argv += draw(_opt("seed", _ints(-2, 2**64)))
    elif command == "envelope":
        argv += draw(_opt("eps", _number()))
        argv += [f"--grid-n={draw(_ints(-1, 11))}", f"--n-per-face={draw(_ints(-1, 6))}",
                 f"--restarts={draw(_ints(-1, 2))}", f"--local-steps={draw(_ints(-1, 20))}"]
        argv += draw(_opt("seed", _ints(-2, 2**64)))
    else:
        coords = st.lists(_number(), min_size=2, max_size=4).map(",".join)
        argv += [f"--x={draw(coords)}", f"--restarts={draw(_ints(-1, 2))}",
                 f"--local-steps={draw(_ints(-1, 20))}"]
        argv += draw(_opt("seed", _ints(-2, 2**64)))
    return argv


class TestFuzz:
    @given(_argv())
    # 1 + g' on face 3 once warned of an overflow at p near the largest float
    @example(["verify", "--p=1.6363308087894492e+308", "--grid-n=3", "--trials=0"])
    @settings(max_examples=150, deadline=None)
    def test_main_exits_cleanly(self, argv):
        # an exception escaping main fails the test with its traceback
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        ours = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and os.path.join("ucx", "") in w.filename]
        assert not ours, (argv, [f"{w.filename}: {w.message}" for w in ours])
