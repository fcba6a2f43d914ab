import io
import json
import math
import os
import random
import re
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchors import DELTA_E1_P4, DELTA_P15_E1
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
        assert any(line.startswith("claim=midpoint-contraction") for line in out.splitlines())

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
                                      "--grid-n", "201", "--n-chord", "101"])
            failed = [line for line in out.splitlines() if "pass=false" in line]
            assert code == 0, (p, eps, failed, err)
        assert time.perf_counter() - t0 < 1.0

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
            ["envelope", "--p", "2", "--grid-n", "9", "--n-per-face", "12",
             "--restarts", "8", "--local-steps", "200"]
        )
        assert code == 0, err
        rows = parse_csv(out)
        assert len(rows) == 9
        for row in rows:
            x3, env = float(row["x3"]), float(row["envelope"])
            assert env == pytest.approx(1.0 - x3 / 4.0, abs=1e-8)

    def test_p4_monotone_envelope(self):
        code, out, err = run_cli(
            ["envelope", "--p", "4", "--grid-n", "9", "--n-per-face", "12",
             "--restarts", "8", "--local-steps", "200"]
        )
        assert code == 0, err
        vals = [float(r["envelope"]) for r in parse_csv(out)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_p15_query_point(self):
        code, out, err = run_cli(
            ["envelope", "--p", "1.5", "--eps", "1", "--grid-n", "5", "--n-per-face", "24",
             "--restarts", "16", "--local-steps", "400"]
        )
        assert code == 0, err
        rows = parse_csv(out)
        # x3 grid [0, 2^p] with 5 points does not hit 1 exactly; check the header shape
        assert list(rows[0].keys()) == ["x3", "envelope", "certificate", "brute_force"]

    def test_missing_eps_exit_2(self):
        code, _, err = run_cli(["envelope", "--p", "1.5"])
        assert code == 2 and "epsilon required" in err

    @pytest.mark.parametrize("argv", [
        *(["--p", "1.25", "--eps", "0.66", "--seed", str(seed)] for seed in range(8)),
        ["--p", "1.5", "--eps", "0.794", "--seed", "4"],
    ])
    def test_search_stays_below_the_value_at_the_antipodal_edge(self, argv):
        # only antipodal pairs have the moments (1, 1, 2^p), and their payoff is 0
        code, out, err = run_cli(["envelope", *argv, "--grid-n", "5"])
        assert code == 0 and err == ""
        assert float(parse_csv(out)[-1]["brute_force"]) == 0.0


class TestBruteforce:
    def test_probe_value_range(self):
        code, out, _ = run_cli(["bruteforce", "--p", "4", "--x", "1,1,1", "--seed", "7"])
        assert code == 0
        head = out.splitlines()[0]
        value = float(re.search(r"value=([-+0-9.e]+)", head).group(1))
        assert 0.93 <= value <= 0.9375 + 1e-9

    def test_boundary_point_value_zero(self):
        code, out, _ = run_cli(["bruteforce", "--p", "3", "--x", "1,1,8", "--seed", "1"])
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

    def test_tiny_budget_without_feasible_pair_exit_2(self):
        code, out, err = run_cli(["bruteforce", "--p", "3", "--x", "1,1,1",
                                  "--restarts", "1", "--local-steps", "1", "--seed", "1"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    def test_outside_point_exit_1(self):
        code, _, err = run_cli(["bruteforce", "--p", "2", "--x", "1,1,99",
                                "--restarts", "2", "--local-steps", "10"])
        assert code == 1 and "outside" in err


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        args = ["envelope", "--p", "1.5", "--eps", "1", "--grid-n", "5", "--n-per-face", "10",
                "--restarts", "8", "--local-steps", "200", "--seed", "42"]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first.encode() == second.encode()


class TestBadInputsExit2:
    @pytest.mark.parametrize("command", [
        ["envelope", "--p", "2000", "--grid-n", "3", "--n-per-face", "4",
         "--restarts", "1", "--local-steps", "5"],
        ["verify", "--p", "2000", "--grid-n", "11", "--n-chord", "11"],
    ])
    def test_p_too_large_for_2_to_the_p(self, command):
        code, out, err = run_cli(command)
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p, x", [("1556", "0,1,1"), ("2", "1e308,1,1")])
    def test_search_moments_overflow(self, p, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["bruteforce", "--p", p, "--x", x])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1

    def test_table_keeps_large_p(self):
        code, out, _ = run_cli(["table", "--p", "2000", "--eps", "1"])
        assert code == 0 and float(parse_csv(out)[0]["delta"]) >= 0.0

    @pytest.mark.parametrize("x", ["1,1,inf", "nan,1,1", "1,-inf,1"])
    def test_non_finite_point(self, x):
        code, out, err = run_cli(["bruteforce", "--p", "2", f"--x={x}",
                                  "--restarts", "1", "--local-steps", "5"])
        assert code == 2 and out == ""
        assert err.startswith("ucx: ") and err.count("\n") == 1


def _number():
    special = st.sampled_from(
        ["nan", "inf", "-inf", "0", "-1", "1", "2", "1.5", "3", "2000", "1e300", "5e-324", "1e-300"]
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
        argv += [f"--grid-n={draw(_ints(-1, 11))}", f"--n-chord={draw(_ints(-1, 11))}",
                 f"--trials={draw(_ints(-1, 50))}"]
        argv += draw(_opt("seed", _ints(-2, 2**64)))
    elif command == "envelope":
        argv += draw(_opt("eps", _number()))
        argv += [f"--grid-n={draw(_ints(-1, 11))}", f"--n-per-face={draw(_ints(-1, 6))}",
                 f"--restarts={draw(_ints(-1, 2))}", f"--local-steps={draw(_ints(-1, 20))}"]
        argv += draw(_opt("sandwich-tol", _number()))
        argv += draw(_opt("seed", _ints(-2, 2**64)))
    else:
        coords = st.lists(_number(), min_size=2, max_size=4).map(",".join)
        argv += [f"--x={draw(coords)}", f"--restarts={draw(_ints(-1, 2))}",
                 f"--local-steps={draw(_ints(-1, 20))}"]
        argv += draw(_opt("theta", _number()))
        argv += draw(_opt("seed", _ints(-2, 2**64)))
    return argv


class TestFuzz:
    @given(_argv())
    @settings(max_examples=150, deadline=None)
    def test_main_exits_cleanly(self, argv):
        # an exception escaping main fails the test with its traceback
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        search = [w for w in caught if issubclass(w.category, RuntimeWarning)
                  and w.filename.endswith(os.path.join("ucx", "bellman.py"))]
        assert not search, (argv, [str(w.message) for w in search])
