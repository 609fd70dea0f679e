"""Seeded workload generator: CLI argv lists for one scan campaign.

The program under test receives only the argv lists built here.  Band and gap
wave numbers are placed with this module's own Kronig-Penney dispersion
z = cos(ka) + (g/k) sin(ka); nothing here imports scatterchain.  Cell
parameters come from the seed; every size (k counts, chain lengths) is
fixed, so the cost of a campaign does not depend on the seed.  No input is
ever re-drawn because the program fails on it: a failure is counted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = {
    "grid_scan": (
        "single-cell amplitudes, Chebyshev bands and CSV rendering of 42k rows; "
        "no long chains, stencils only in the tiny shared probe"
    ),
    "long_chain": (
        "N=20000 recurrences at gap and band k0, the O(N^2) per-N table, Hartman "
        "scan, 800x25601 packet profile, JSON rendering"
    ),
    "delay_sweep": (
        "10k short recurrences for 5-point delays on a well chain plus a piecewise "
        "cell: unwrap and stencil dominate; tiny CSV output"
    ),
}

# Full sizes, and the toy sizes the self-test runs at.
SIZES = {
    False: dict(grid_k=20000, chain_k=2000, chain_n=64, long_n=20000, hartman_n=4000,
                packet_n=800, delay_k=1000, delay_n=32, delay1_k=2000),
    True: dict(grid_k=200, chain_k=40, chain_n=64, long_n=400, hartman_n=60,
               packet_n=12, delay_k=20, delay_n=4, delay1_k=30),
}


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv, the rows it must emit, and what to check."""

    argv: tuple[str, ...]
    rows: int
    check: str
    params: dict = field(default_factory=dict)


def kp_z(k: float, g: float, a: float) -> float:
    """Kronig-Penney band parameter of the delta comb."""
    return math.cos(k * a) + (g / k) * math.sin(k * a)


def _bisect_edge(g: float, a: float, inside: float, outside: float) -> float:
    """k where |z| crosses 1 between a gap point and a band point."""
    for _ in range(200):
        mid = 0.5 * (inside + outside)
        if abs(kp_z(mid, g, a)) > 1.0:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def first_gap_and_band(g: float, a: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The first gap above ka = pi of a repulsive comb (g > 0) and the band after it.

    |z| = 1 exactly at ka = pi and the gap opens above it; the band that
    follows closes at ka = 2 pi, where the next gap opens.
    """
    lo = math.pi / a
    hi = 2.0 * math.pi / a
    steps = 4096
    prev = lo
    for i in range(1, steps):
        k = lo + (hi - lo) * i / steps
        if abs(kp_z(k, g, a)) < 1.0:
            edge = _bisect_edge(g, a, prev, k)
            return (lo, edge), (edge, hi)
        prev = k
    raise ValueError(f"no band found above the first gap for g={g}, a={a}")


def _interior(rng: random.Random, interval: tuple[float, float]) -> float:
    lo, hi = interval
    return lo + rng.uniform(0.35, 0.65) * (hi - lo)


def _num(x: float) -> str:
    return repr(float(x))


def _grid(k_min: float, k_max: float, count: int) -> list[str]:
    return ["--k-min", _num(k_min), "--k-max", _num(k_max), "--k-count", str(count)]


def _piecewise(rng: random.Random) -> str:
    """Cell spec of three segments, one of them a well."""
    well = rng.randrange(3)
    segments = []
    for i in range(3):
        width = round(rng.uniform(0.3, 0.7), 6)
        height = round(rng.uniform(0.5, 2.5), 6)
        segments.append((width, -height if i == well else height))
    return "piecewise:" + ",".join(f"{_num(w)}:{_num(v)}" for w, v in segments)


def _comb(rng: random.Random) -> dict:
    g = round(rng.uniform(0.8, 1.6), 6)
    a = round(rng.uniform(0.9, 1.1), 6)
    gap, band = first_gap_and_band(g, a)
    return dict(g=g, a=a, k_gap=_interior(rng, gap), k_band=_interior(rng, band))


def _probe(rng: random.Random, fmt: str) -> list[Command]:
    """Four tiny calls that touch every layer a little on every workload."""
    comb = _comb(rng)
    delta = ["--cell", f"delta:g={_num(comb['g'])}", "--period", _num(comb["a"])]
    spec = _piecewise(rng)
    out = ["--format", fmt]
    return [
        Command(("hartman", *delta, "--k0", _num(comb["k_gap"]), "--N-max", "16", *out),
                16, "rows"),
        Command(("packet", *delta, "--k0", _num(comb["k_band"]), "--N-max", "4",
                 "--sigma", "0.02", *out), 4, "rows"),
        Command(("chain", "--cell", spec, "--period", "2.5", "--N", "4",
                 *_grid(0.5, 3.0, 8), *out), 8, "chain", {"gate_n": 64}),
        Command(("delay", *delta, "--N", "2", *_grid(0.5, 3.0, 8), *out), 8, "rows"),
    ]


def grid_scan(rng: random.Random, size: dict) -> list[Command]:
    spec = _piecewise(rng)
    comb = _comb(rng)
    v0 = round(rng.uniform(0.5, 2.5), 6)
    w = round(rng.uniform(0.3, 0.7), 6)
    period = round(rng.uniform(1.0, 1.5), 6)
    csv = ["--format", "csv"]
    return [
        Command(("cell", "--cell", spec, *_grid(0.05, 6.0, size["grid_k"]), *csv),
                size["grid_k"], "cell"),
        Command(("bands", "--cell", f"delta:g={_num(comb['g'])}", "--period", _num(comb["a"]),
                 *_grid(0.05, 12.0, size["grid_k"]), "--N-max", "64", *csv),
                size["grid_k"], "bands", {"g": comb["g"], "a": comb["a"]}),
        Command(("chain", "--cell", f"barrier:V0={_num(v0)},w={_num(w)}", "--period",
                 _num(period), "--N", str(size["chain_n"]),
                 *_grid(0.1, 5.0, size["chain_k"]), *csv),
                size["chain_k"], "chain", {"gate_n": 64}),
    ] + _probe(rng, "csv")


def long_chain(rng: random.Random, size: dict) -> list[Command]:
    comb = _comb(rng)
    delta = ["--cell", f"delta:g={_num(comb['g'])}", "--period", _num(comb["a"])]
    js = ["--format", "json"]
    n = size["long_n"]
    oracle = {"g": comb["g"], "a": comb["a"], "gate_n": 64}
    return [
        Command(("chain", *delta, "--k0", _num(comb["k_gap"]), "--N-max", str(n), *js),
                n, "chain_oracle", {**oracle, "k0": comb["k_gap"]}),
        Command(("chain", *delta, "--k0", _num(comb["k_band"]), "--N-max", str(n), *js),
                n, "chain_oracle", {**oracle, "k0": comb["k_band"]}),
        Command(("hartman", *delta, "--k0", _num(comb["k_gap"]),
                 "--N-max", str(size["hartman_n"]), *js), size["hartman_n"], "rows"),
        Command(("packet", *delta, "--k0", _num(comb["k_band"]),
                 "--N-max", str(size["packet_n"]), "--sigma", "0.02", *js),
                size["packet_n"], "packet"),
    ] + _probe(rng, "json")


def delay_sweep(rng: random.Random, size: dict) -> list[Command]:
    v0 = -round(rng.uniform(0.5, 2.5), 6)
    w = round(rng.uniform(0.3, 0.7), 6)
    period = round(rng.uniform(1.0, 1.5), 6)
    spec = _piecewise(rng)
    csv = ["--format", "csv"]
    return [
        Command(("delay", "--cell", f"barrier:V0={_num(v0)},w={_num(w)}",
                 "--period", _num(period), "--N", str(size["delay_n"]), "--displaced",
                 *_grid(0.2, 4.0, size["delay_k"]), *csv),
                size["delay_k"], "displaced", {"a": period}),
        Command(("delay", "--cell", spec, "--N", "1", *_grid(0.2, 4.0, size["delay1_k"]), *csv),
                size["delay1_k"], "rows"),
    ] + _probe(rng, "csv")


_BUILDERS = {"grid_scan": grid_scan, "long_chain": long_chain, "delay_sweep": delay_sweep}


def campaign(workload: str, seed: int, toy: bool = False) -> list[Command]:
    """The commands of one campaign of ``workload``, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, SIZES[toy])
