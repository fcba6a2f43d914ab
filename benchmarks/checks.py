"""Parsers and correctness checks for the output of the four ``ucx`` subcommands.

Every check compares the printed numbers against values the benchmark
computes itself (the mpmath oracle, the exact value 1 - x3 2^-p on the
p >= 2 slice) or against properties the method must have (monotonicity,
endpoint values, a payoff recomputed from the printed witness).  None of
them compares against a stored copy of earlier output.  A failed check
raises :class:`CheckFailure`; its ``kind`` lets the runner tell a known
fault (F1-F3 in README.md) from a new one.
"""

from __future__ import annotations

import json

import mpmath

#: relative bound on |delta - delta_ref| / delta_ref for ``ucx table``
REL_TOL = 1e-8
#: bound on the printed cross_check_residual column
RESIDUAL_TOL = 1e-8
#: LP feasibility tolerance of the envelope (``numerics.LP_TOL``)
LP_TOL = 1e-9
#: how far below the value the envelope and the search may stay
BAND = 5e-3
#: slack for brute force above the exact slice value
SLICE_SEARCH_TOL = 1e-6
#: brute force may exceed the value by this many times its moment residual
RESIDUAL_SLOPE = 2.0
#: gaps are reported no smaller than this: below the LP tolerance they are
#: rounding, and a run without envelope or search reads this floor
GAP_FLOOR = 1e-9

TABLE_FIELDS = ["p", "eps", "delta", "route", "cross_check_residual"]
ENVELOPE_FIELDS = ["x3", "envelope", "certificate", "brute_force"]


class CheckFailure(Exception):
    """An output failed a check; ``kind`` names which one."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def _require(ok: bool, kind: str, message: str) -> None:
    if not ok:
        raise CheckFailure(kind, message)


def parse_csv(text: str, fields: list[str]) -> list[dict]:
    lines = text.strip().splitlines()
    _require(bool(lines) and lines[0].split(",") == fields, "format", f"header is not {fields}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        _require(len(cells) == len(fields), "format", f"malformed row {line!r}")
        rows.append(dict(zip(fields, cells)))
    return rows


def parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise CheckFailure("format", f"table json does not parse: {e}") from e
        _require(isinstance(rows, list), "format", "table json is not a list")
    else:
        rows = parse_csv(text, TABLE_FIELDS)
    out = []
    for r in rows:
        _require(set(r) == set(TABLE_FIELDS), "format", f"table row keys {sorted(r)}")
        out.append({
            "p": float(r["p"]), "eps": float(r["eps"]), "delta": float(r["delta"]),
            "route": str(r["route"]), "cross_check_residual": float(r["cross_check_residual"]),
        })
    return out


def eps_grid(lo: float, hi: float, n: int) -> list[float]:
    """The lo:hi:n grid as documented for ``ucx table --eps``."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def relative_error(value: float, ref: mpmath.mpf) -> float:
    if ref == 0:
        return 0.0 if value == 0.0 else float("inf")
    return float(abs(mpmath.mpf(value) - ref) / ref)


def check_table(rows: list[dict], p: float, eps_expected: list[float], delta_ref) -> None:
    """Rows of ``ucx table``: grid, route, oracle accuracy, monotonicity, residual."""
    _require(len(rows) == len(eps_expected), "format",
             f"{len(rows)} rows for {len(eps_expected)} eps values")
    route = "s_star" if p < 2.0 else "closed_form"
    for r, e in zip(rows, eps_expected):
        _require(r["p"] == p, "format", f"row p={r['p']!r}, asked for {p!r}")
        _require(abs(r["eps"] - e) <= 1e-15 * max(1.0, e), "format", f"eps {r['eps']!r} != {e!r}")
        _require(r["route"] == route, "route", f"route {r['route']} at p={p!r}")
        _require(r["cross_check_residual"] <= RESIDUAL_TOL, "residual",
                 f"cross_check_residual={r['cross_check_residual']!r} at eps={r['eps']!r}")
        err = relative_error(r["delta"], delta_ref(p, r["eps"]))
        _require(err <= REL_TOL, "accuracy",
                 f"delta({p!r}, {r['eps']!r})={r['delta']!r} off by {err:.3g} relative")
    for a, b in zip(rows, rows[1:]):
        _require(b["delta"] >= a["delta"], "monotone",
                 f"delta decreases from eps={a['eps']!r} to eps={b['eps']!r}")


def parse_envelope(text: str) -> list[dict]:
    return [{k: float(v) for k, v in r.items()} for r in parse_csv(text, ENVELOPE_FIELDS)]


def _check_x3_grid(rows: list[dict], p: float, grid_n: int) -> None:
    _require(len(rows) == grid_n, "format", f"{len(rows)} envelope rows, expected {grid_n}")
    for i, r in enumerate(rows):
        x3 = i * (2.0**p) / (grid_n - 1)
        _require(abs(r["x3"] - x3) <= 1e-12 * max(1.0, x3), "format", f"x3 {r['x3']!r} != {x3!r}")


def check_slice(rows: list[dict], p: float, grid_n: int) -> dict:
    """``ucx envelope`` at p >= 2, where the value on (1, 1, x3) is exactly 1 - x3 2^-p."""
    _check_x3_grid(rows, p, grid_n)
    env_gap = search_gap = GAP_FLOOR
    for r in rows:
        v = 1.0 - r["x3"] * 2.0 ** (-p)
        _require(v - BAND <= r["envelope"] <= v + LP_TOL, "envelope",
                 f"envelope {r['envelope']!r} outside [{v - BAND!r}, {v + LP_TOL!r}] at x3={r['x3']!r}")
        _require(abs(r["certificate"] - v) <= 1e-12, "certificate",
                 f"certificate {r['certificate']!r} != {v!r} at x3={r['x3']!r}")
        _require(r["brute_force"] <= v + SLICE_SEARCH_TOL, "search",
                 f"brute force {r['brute_force']!r} above value {v!r} at x3={r['x3']!r}")
        env_gap = max(env_gap, v - r["envelope"])
        search_gap = max(search_gap, v - r["brute_force"])
    return {"envelope_gap": env_gap, "search_gap": search_gap}


def check_sharp_envelope(rows: list[dict], p: float, grid_n: int, index: int, value: float) -> dict:
    """Envelope at the sharp point (row ``index``), its endpoints and monotonicity."""
    _check_x3_grid(rows, p, grid_n)
    env = [r["envelope"] for r in rows]
    _require(abs(env[0] - 1.0) <= LP_TOL, "envelope", f"envelope at x3=0 is {env[0]!r}, not 1")
    _require(abs(env[-1]) <= LP_TOL, "envelope", f"envelope at x3=2^p is {env[-1]!r}, not 0")
    for k in range(grid_n - 1):
        _require(env[k + 1] <= env[k] + LP_TOL, "envelope",
                 f"envelope increases between x3={rows[k]['x3']!r} and x3={rows[k + 1]['x3']!r}")
    e = env[index]
    _require(value - BAND <= e <= value + LP_TOL, "envelope",
             f"envelope {e!r} outside [{value - BAND!r}, {value + LP_TOL!r}] at the sharp point")
    return {"envelope_gap": max(GAP_FLOOR, value - e)}


def parse_verify(text: str) -> list[dict]:
    reports = []
    for line in text.strip().splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split())
        _require({"claim", "pass", "worst", "at", "grid"} <= set(fields), "format",
                 f"malformed report line {line!r}")
        reports.append(fields)
    return reports


def check_verify(reports: list[dict], bound: float) -> None:
    """Every claim passes; the witness suite's worst midpoint is within ``bound``."""
    _require(bool(reports), "format", "no report lines")
    for r in reports:
        _require(r["pass"] == "true", "verify", f"claim {r['claim']} failed with worst={r['worst']}")
    mids = [float(r["worst"]) for r in reports if r["claim"] == "midpoint-contraction"]
    _require(len(mids) == 1, "format", "no midpoint-contraction line")
    _require(mids[0] <= bound, "verify", f"midpoint worst {mids[0]!r} above 1 - delta_ref = {bound!r}")


def parse_bruteforce(text: str) -> dict:
    lines = text.strip().splitlines()
    _require(len(lines) >= 2, "format", "bruteforce printed no witness")
    head = dict(tok.split("=", 1) for tok in lines[0].split())
    atoms = []
    for line in lines[1:]:
        a = dict(tok.split("=", 1) for tok in line.split())
        atoms.append((float(a["w"]), float(a["f"]), float(a["g"])))
    return {
        "x": tuple(float(v) for v in head["x"].split(",")),
        "p": float(head["p"]),
        "theta": float(head["theta"]),
        "value": float(head["value"]),
        "residual": float(head["residual"]),
        "atoms": atoms,
    }


def check_bruteforce(result: dict, p: float, x: tuple, value: float) -> dict:
    """The search value sits within the band below ``value`` and is its witness's payoff."""
    _require(result["x"] == tuple(x) and result["p"] == p, "format", "query echo does not match")
    atoms, th = result["atoms"], result["theta"]
    _require(abs(sum(w for w, _, _ in atoms) - 1.0) <= 1e-12, "witness", "atom weights do not sum to 1")
    pay = sum(w * abs(th * f + (1.0 - th) * g) ** p for w, f, g in atoms)
    got = result["value"]
    _require(abs(pay - got) <= 1e-12 * max(1.0, abs(got)), "witness",
             f"payoff of the printed atoms is {pay!r}, printed value {got!r}")
    slack = LP_TOL + RESIDUAL_SLOPE * result["residual"]
    _require(value - BAND <= got <= value + slack, "search",
             f"brute force {got!r} outside [{value - BAND!r}, {value + slack!r}]")
    return {"search_gap": max(GAP_FLOOR, value - got)}
