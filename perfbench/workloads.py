"""Inputs and workload definitions of the benchmark of record.

Every input is a Table I row named as a library ``CircuitSpec`` with the
paper's noise, ``NoiseSpec(channel="depolarizing", p=0.999, noises=k)``;
``k`` per row matches ``benchmarks/_common.py`` (``selftest.py`` checks
it).  Only the noise seed varies, and it derives from the workload seed
given on the command line, so one seed always yields byte-identical
requests in the same order.

Rows cycle in a fixed order with equal shares.  The rows of one workload
are far apart in cost, so the sorted latencies fall into one block per
row and the p50 and tail ranks land inside a block, on the same row in
every run of a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import CheckRequest, CircuitSpec, NoiseSpec

#: row -> (library generator, generator params, paper noise count k)
ROWS: Dict[str, Tuple[str, Dict[str, int], int]] = {
    "qft2": ("qft", {"num_qubits": 2}, 2),
    "qv_n5d5": ("quantum_volume", {"num_qubits": 5, "depth": 5, "seed": 0}, 3),
    "qv_n7d5": ("quantum_volume", {"num_qubits": 7, "depth": 5, "seed": 0}, 2),
    "grover3": ("grover", {"num_qubits": 3}, 4),
    "rb2": ("randomized_benchmarking", {"num_qubits": 2, "length": 6, "seed": 0}, 6),
    "qft5": ("qft", {"num_qubits": 5}, 3),
    "7x1mod15": ("mod_mult_7x15", {}, 3),
}

#: Row of the warm-up check that ends every set-up.  It is outside every
#: timed mix, so it pays the once-per-process lazy set-up (first einsum
#: and TDD contraction, networkx's tree decomposition) without warming
#: any timed input.
WARMUP_ROW = "qft2"

#: A fidelity further than this from the reference counts as a failure.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Item:
    """One request of a run, with the row it was drawn from."""

    row: str
    request: CheckRequest


def make_request(row: str, noise_seed: int, mode: str) -> CheckRequest:
    library, params, noises = ROWS[row]
    return CheckRequest(
        ideal=CircuitSpec.from_library(library, **params),
        noise=NoiseSpec(
            channel="depolarizing", p=0.999, noises=noises, seed=noise_seed
        ),
        mode=mode,
    )


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: its Engine, rows and reference."""

    name: str
    why: str
    #: base CheckConfig of the timed Engine
    engine: Dict[str, object]
    #: Engine(cache=...) of the timed Engine
    cache: bool
    mode: str
    rows: Tuple[str, ...]
    #: True: every request is new (noise seed = seed + i).  False: the
    #: first cycle's requests are answered once in set-up, then replayed.
    fresh: bool
    #: seconds one cycle over ``rows`` takes on the reference machine
    #: (2 CPUs, Python 3.11, numpy 2.4); sizes the fixed request count
    cycle_seconds: float
    #: base CheckConfig of the independent reference Engine
    reference: Dict[str, object]
    #: cycles per round: throughput and p50 are taken per round and
    #: reported at the slow decile over rounds (0 = the whole run is one
    #: round)
    round_cycles: int = 0
    #: rounds per tail window: the tail is taken per window, which must
    #: hold more than 10 checks, and reported at the slow decile
    tail_rounds: int = 1

    def cycles(self, seconds: float) -> int:
        """Whole cycles in a run of about ``seconds`` on the reference
        machine.  A fixed count, not a deadline: every run of a seed
        then times the same inputs, so each percentile rank is the
        latency of the same input.  Whole tail windows, when rounds are
        set."""
        unit = self.round_cycles * self.tail_rounds or 1
        return unit * max(1, round(seconds / (self.cycle_seconds * unit)))

    def items(self, seed: int, seconds: float) -> List[Item]:
        """The timed requests, in order: new ones for fresh workloads,
        the first cycle's over and over for replay workloads."""
        count = self.cycles(seconds) * len(self.rows)
        distinct = count if self.fresh else len(self.rows)
        pool = [
            Item(row, make_request(row, seed + i, self.mode))
            for i, row in enumerate(
                self.rows[i % len(self.rows)] for i in range(distinct)
            )
        ]
        return [pool[i % distinct] for i in range(count)]

    def fill_items(self, seed: int) -> List[Item]:
        """Requests answered in set-up: the first cycle of a replay
        workload (cold_plan's first inputs), nothing for fresh ones."""
        return [] if self.fresh else self.items(seed, 0)[: len(self.rows)]

    def warmup_request(self, seed: int) -> CheckRequest:
        return make_request(WARMUP_ROW, seed, self.mode)


#: Three rows about 2x apart in planning time and in cache-hit time, so
#: each workload's p50 and tail ranks sit mid-block with ~17 samples per
#: row.  With seven rows qv_n6d5 and qv_n7d5 plan in about the same time
#: (the tail fell where they interleave); with qv_n9d5 on top a 24 s run
#: holds ~8 samples a row and the tail, one sample, spread 31% over seeds.
_COLD_ROWS = ("qft5", "qv_n5d5", "qv_n7d5")
#: The reference engine: another kernel (tensordot) behind another
#: planner (the in-house min-fill order), about 2.5x cheaper than
#: einsum behind networkx's tree decomposition.
_DENSE_MIN_FILL = {"backend": "dense", "algorithm": "alg2", "order_method": "min_fill"}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold_plan",
            why="every request new over three Table I rows with a cold "
            "result cache: planning is ~90% of check time",
            engine={"backend": "einsum", "algorithm": "alg2"},
            cache=True,
            mode="check",
            rows=_COLD_ROWS,
            fresh=True,
            cycle_seconds=1.5,
            reference=_DENSE_MIN_FILL,
        ),
        Workload(
            name="tdd_alg1",
            why="Algorithm I on the TDD engine with a shared computed "
            "table, every Kraus term contracted (paper Table II)",
            engine={"backend": "tdd", "algorithm": "alg1"},
            cache=False,
            mode="fidelity",
            # 64, 256 and 4096 terms; grover3's and rb2's times barely
            # move with the noise seed (qv_n5d5's span 0.7-1.7 s and
            # bv13's 0.23-0.40 s, which overlaps grover3's)
            rows=("7x1mod15", "grover3", "rb2"),
            fresh=True,
            cycle_seconds=2.6,
            reference=_DENSE_MIN_FILL,
        ),
        Workload(
            name="warm_hits",
            why="cold_plan's first inputs replayed: every check is a "
            "result-cache hit, so per-request overhead shows",
            engine={"backend": "einsum", "algorithm": "alg2"},
            cache=True,
            mode="check",
            rows=_COLD_ROWS,
            fresh=False,
            cycle_seconds=0.005,
            reference=_DENSE_MIN_FILL,
            # 24 checks a round (about 40 ms), short enough that most
            # rounds run at one host speed; 96 checks a tail window, 150
            # windows a 24 s run: a window's tail rank (p90) sits inside
            # the slowest row's block unless 10 stalls hit one window
            round_cycles=8,
            tail_rounds=4,
        ),
    )
}
