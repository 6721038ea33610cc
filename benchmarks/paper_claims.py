#!/usr/bin/env python
"""The paper's claims, one row each, checked against this reproduction.

Each row of :data:`CLAIMS` names a figure or table of the paper, the
claim the repo checks for it, the :mod:`repro.experiments` callable
that measures it, the bands its measurement must fall in, and two sets
of explicit arguments: ``full`` (the paper-scale sizes REPRODUCTION.md
records) and ``quick`` (reduced sizes at which the same bands hold,
run by ``tests/test_paper_claims.py`` in tier-1).  Rows with the same
callable and arguments share one run.

Usage::

    PYTHONPATH=src python benchmarks/paper_claims.py

runs every row at ``full`` sizes, prints the markdown verdict table and
exits non-zero if any band fails.  Absolute values differ from the
paper's PlanetLab testbed; the bands check shapes.
"""

from __future__ import annotations

import math
import operator
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro._util import SEED, mean  # noqa: E402
from repro.experiments import ablations, complexity, fig3, fig45, fig6, rangecost  # noqa: E402
from repro.simnet.experiment import ExperimentConfig, run_experiment  # noqa: E402

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
       "==": operator.eq}


class Band(NamedTuple):
    """One comparison ``value op bound``; ``of`` names a measured bound."""

    what: str
    value: float
    op: str
    bound: float
    of: str = ""

    @property
    def ok(self) -> bool:
        return OPS[self.op](self.value, self.bound)

    def text(self) -> str:
        return f"{self.what} {self.op} {self.of or _fmt(self.bound)}"

    def measured(self) -> str:
        return _fmt(self.value) + (f" vs {_fmt(self.bound)}" if self.of else "")


class Claim(NamedTuple):
    """One row: ``check`` maps ``run(**full)`` or ``run(**quick)`` to bands."""

    id: str
    figure: str
    claim: str
    run: Callable
    check: Callable[[object], List[Band]]
    full: Dict[str, object]
    quick: Dict[str, object]


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _avg(values) -> float:
    values = list(values)
    return mean(values) if values else math.nan


# -- checks: one Band per comparison a claim rests on ---------------------------


def check_fig3(curve):
    values = [c for _, _, c in curve]
    return [
        Band("min alpha''(p)", min(values), ">", 0.0),
        Band("alpha''(p) at the regime end", values[-1], ">", 3 * values[0],
             "3 × alpha''(p) at p = 0.02"),
    ]


def check_fig4(sweep):
    bias = {name: mean(abs(v) for v in sweep.deviation[name]) for name in fig45.MODELS}
    return [
        Band("bias SAM", bias["SAM"], ">", 2 * bias["COR"], "2 × bias COR"),
        Band("bias AEP", bias["AEP"], ">", bias["COR"], "bias COR"),
        Band("bias MVA", bias["MVA"], "<", 2.0),
    ]


def check_fig5(sweep):
    cost = {name: dict(zip(fig45.P_GRID, sweep.interactions[name])) for name in fig45.MODELS}
    beta_regime = [cost["MVA"][p] for p in (0.35, 0.4, 0.45, 0.5)]
    n = sweep.n
    return [
        Band("|MVA(0.5) − N ln 2|", abs(cost["MVA"][0.5] - n * math.log(2)), "<", 0.05 * n,
             "0.05 N"),
        Band("|AUT(0.5) − 2 ln 2 · N|", abs(cost["AUT"][0.5] - 2 * math.log(2) * n), "<",
             0.05 * n, "0.05 N"),
        Band("AUT(0.5)", cost["AUT"][0.5], ">", 1.6 * cost["AEP"][0.5], "1.6 × AEP(0.5)"),
        Band("AUT(0.05)", cost["AUT"][0.05], "<", cost["MVA"][0.05], "MVA(0.05)"),
        Band("MVA spread over p = 0.35-0.5", max(beta_regime) - min(beta_regime), "<",
             0.02 * n, "0.02 N"),
    ]


def _series(panel, field="deviation"):
    return {label: [getattr(point, field) for point in points]
            for label, points in panel.items()}


def _max_spread(series):
    return max(max(v) - min(v) for v in series.values())


def check_fig6a(fig):
    dev = _series(fig.by_population)
    return [
        Band("max deviation", max(max(v) for v in dev.values()), "<", 1.2),
        Band("max spread across populations", _max_spread(dev), "<", 0.6),
        Band("min U", min(dev["U"]), "<=", max(dev["P1.5"]) + 0.2, "max P1.5 + 0.2"),
    ]


def check_fig6b(fig):
    dev = _series(fig.by_n_min)
    return [
        Band("max deviation", max(max(v) for v in dev.values()), "<", 1.6),
        Band("U spread across n_min", max(dev["U"]) - min(dev["U"]), "<", 0.8),
    ]


def check_fig6c(fig):
    columns = list(zip(*_series(fig.by_d_max).values()))
    col_means = [mean(col) for col in columns]
    return [Band("spread of the d_max column means", max(col_means) - min(col_means),
                 "<", 0.35)]


def check_fig6d(fig):
    theory = mean(row[1] for row in fig.theory_vs_heuristic)
    heuristic = mean(row[2] for row in fig.theory_vs_heuristic)
    return [Band("mean heuristic deviation", heuristic, ">", 1.2 * theory,
                 "1.2 × mean theory deviation")]


def check_fig6e(fig):
    cost = _series(fig.by_population, "interactions_per_peer")
    return [
        Band("max of cost(largest n) − 3 × cost(smallest n)",
             max(v[-1] - 3.0 * v[0] for v in cost.values()), "<", 5.0),
        Band("max P1.5", max(cost["P1.5"]), ">", min(cost["U"]), "min U"),
    ]


def check_fig6f(fig):
    keys = _series(fig.by_population, "bandwidth_per_peer")
    return [
        Band("min keys moved at the smallest n", min(v[0] for v in keys.values()), ">", 50),
        Band("max growth, largest n / smallest n", max(v[-1] / v[0] for v in keys.values()),
             "<", 6.0),
        Band("max P1.0", max(keys["P1.0"]), ">", 0.8 * min(keys["U"]), "0.8 × min U"),
    ]


def check_fig7(report):
    config = report.config
    pop = dict(report.population)
    plateau_t = (config.construct_start + config.query_start) / 2
    plateau = max(c for m, c in pop.items() if abs(m - plateau_t) < 30)
    early = min(c for m, c in pop.items() if m <= config.join_end / 4)
    churn_min = min(c for m, c in pop.items() if m > config.churn_start + 2)
    return [
        Band("plateau population", plateau, "==", config.peers, "peers"),
        Band("early population", early, "<", plateau, "plateau"),
        Band("min population under churn", churn_min, "<", plateau, "plateau"),
    ]


def check_fig8(report):
    config = report.config
    maint = dict(report.maintenance_bandwidth)
    construction = [bps for m, bps in maint.items()
                    if config.construct_start < m <= config.query_start]
    late = [bps for m, bps in maint.items() if m > config.query_start + 10]
    query = dict(report.query_bandwidth)
    return [
        Band("peak construction maintenance Bps", max(construction), ">",
             4 * (max(late) if late else 1.0), "4 × peak maintenance Bps after queries"),
        Band("query bytes in the query phase",
             sum(bps for m, bps in query.items() if m > config.query_start), ">",
             sum(bps for m, bps in query.items() if m <= config.query_start), "before it"),
    ]


def check_fig9(report):
    config = report.config
    static = [(avg, sd) for m, avg, sd in report.latency
              if config.query_start < m <= config.churn_start]
    churn = [(avg, sd) for m, avg, sd in report.latency if m > config.churn_start + 3]
    return [
        Band("latency samples in the sparser phase", min(len(static), len(churn)), ">=", 1),
        Band("churn mean latency", _avg(a for a, _ in churn), ">=",
             0.8 * _avg(a for a, _ in static), "0.8 × static"),
        Band("churn latency stddev", _avg(s for _, s in churn), ">=",
             0.8 * _avg(s for _, s in static), "0.8 × static"),
    ]


def check_sec52(report):
    return [
        Band("load-balance deviation", report.deviation, "<", 0.8),
        Band("mean path length", report.mean_path_length, ">=", 2.0),
        Band("mean path length", report.mean_path_length, "<=", 9.0),
        Band("mean query hops", report.mean_query_hops, ">=", 1.0),
        Band("mean query hops", report.mean_query_hops, "<=", report.mean_path_length,
             "mean path length"),
        Band("replication factor", report.replication_factor, ">=", 3.0),
        Band("query success, static", report.success_rate_static, ">=", 0.97),
        Band("query success, churn", report.success_rate_churn, ">=", 0.85),
    ]


def check_correction(rows):
    by_m = {row[0]: row for row in rows}
    return [
        Band("|COR bias| at m = 10", abs(by_m[10][3]), "<", abs(by_m[10][1]), "|AEP bias|"),
        Band("|COR bias| at m = 25", abs(by_m[25][3]), "<", abs(by_m[25][1]), "|AEP bias|"),
        Band("|AEP bias| at m = 50", abs(by_m[50][1]), "<", abs(by_m[2][1]), "at m = 2"),
    ]


def check_replication_floor(rows):
    return [Band("min replicas per leaf", min(row[2] for row in rows), ">=", 1)]


def check_range_cost(rows):
    return [
        Band("min PHT / P-Grid cost ratio", min(row[3] for row in rows), ">", 1.5),
        Band("PHT − P-Grid at the widest range", rows[-1][2] - rows[-1][1], ">",
             rows[0][2] - rows[0][1], "at the narrowest"),
    ]


def check_latency(rows):
    speedups = [row[4] for row in rows]
    return [
        Band("speedup at the largest n", speedups[-1], ">", speedups[0], "at the smallest"),
        Band("speedup at the largest n", speedups[-1], ">", 10.0),
        Band("max parallel rounds / log2(n)^2", max(row[3] / row[5] for row in rows),
             "<", 6.0),
    ]


# -- the table ------------------------------------------------------------------

FIG45_FULL = dict(n=1000, reps=30, seed=SEED)
FIG45_QUICK = dict(n=200, reps=10, seed=SEED)
FIG6_FULL = dict(populations=(256, 512, 1024), n=256, n_mins=(5, 10, 15, 20, 25),
                 factors=(10.0, 20.0, 30.0), reps=2, seed=SEED)
FIG6_QUICK = dict(populations=(64, 128, 256), n=128, n_mins=(5, 10, 15, 20, 25),
                  factors=(10.0, 20.0, 30.0), reps=1, seed=SEED)
SYSTEM_FULL = dict(config=ExperimentConfig(peers=296, seed=SEED))
SYSTEM_QUICK = dict(config=ExperimentConfig.compressed(peers=80, seed=SEED))

CLAIMS = [
    Claim("fig3", "Fig. 3",
          "alpha''(p) is positive over the alpha-regime and rises steeply toward its "
          "boundary p* = 1 − ln 2, where the sampling corrections matter most",
          fig3.alpha_curvature_curve, check_fig3, dict(points=26), dict(points=26)),
    Claim("fig4", "Fig. 4 / Sec. 3.3",
          "sampling biases SAM and AEP; the Eq. (9)/(10) correction (COR) removes the "
          "drift; the exact-p mean-value model (MVA) is unbiased",
          fig45.run_sweep, check_fig4, FIG45_FULL, FIG45_QUICK),
    Claim("fig5", "Fig. 5 / Eqs. (1), (3)",
          "eager cost at p = 1/2 is N ln 2 and AUT's twice that, 2 N ln 2; AUT is cheaper for "
          "strongly skewed splits (stated for the exact-knowledge family: sampling shifts "
          "the AEP curve); the cost is flat in p across the beta-regime",
          fig45.run_sweep, check_fig5, FIG45_FULL, FIG45_QUICK),
    Claim("fig6a", "Fig. 6(a)",
          "load-balance deviation is practically stable across population sizes, and "
          "uniform data balances at least as well as the most skewed Pareto",
          fig6.figure6, check_fig6a, FIG6_FULL, FIG6_QUICK),
    Claim("fig6b", "Fig. 6(b)",
          "deviation stays bounded as the replication floor n_min grows, and is "
          "practically unaffected for uniform data",
          fig6.figure6, check_fig6b, FIG6_FULL, FIG6_QUICK),
    Claim("fig6c", "Fig. 6(c)",
          "larger per-partition samples (d_max) do not improve load balance, so the "
          "protocol can run with very small samples",
          fig6.figure6, check_fig6c, FIG6_FULL, FIG6_QUICK),
    Claim("fig6d", "Fig. 6(d)",
          "even a minor change to the theoretically derived probability functions "
          "degrades load balance substantially",
          fig6.figure6, check_fig6d, FIG6_FULL, FIG6_QUICK),
    Claim("fig6e", "Fig. 6(e)",
          "bilateral interactions per peer grow gracefully (far sublinearly) with the "
          "network size; skewed data costs more than uniform",
          fig6.figure6, check_fig6e, FIG6_FULL, FIG6_QUICK),
    Claim("fig6f", "Fig. 6(f)",
          "construction moves real data volume per peer, grows gracefully with the "
          "network size, and skew increases it",
          fig6.figure6, check_fig6f, FIG6_FULL, FIG6_QUICK),
    Claim("fig7", "Fig. 7",
          "the population ramps up during the join phase, every peer participates on the "
          "plateau, and churn makes a visible dip",
          run_experiment, check_fig7, SYSTEM_FULL, SYSTEM_QUICK),
    Claim("fig8", "Fig. 8",
          "maintenance traffic peaks during construction and decays afterwards; query "
          "traffic belongs to the query phase",
          run_experiment, check_fig8, SYSTEM_FULL, SYSTEM_QUICK),
    Claim("fig9", "Fig. 9",
          "churn does not make queries faster and widens the latency spread (offline "
          "peers force retries)",
          run_experiment, check_fig9, SYSTEM_FULL, SYSTEM_QUICK),
    Claim("sec5.2", "Sec. 5.2 statistics",
          "paper: deviation 0.39 (simulation 0.38), mean path length slightly below 6, "
          "~3 query hops, replication factor 5, query success 95-100% even under churn; "
          "the bands are loose because the substrate is a simulator, not PlanetLab",
          run_experiment, check_sec52, SYSTEM_FULL, SYSTEM_QUICK),
    Claim("correction", "Ablation of Eqs. (9)/(10)",
          "at the paper's m = 10 and above the bias correction beats plain AEP, and the "
          "uncorrected bias shrinks with the sample size m (p = 0.4)",
          ablations.correction_ablation, check_correction,
          dict(n=1000, reps=20, seed=SEED), dict(n=1000, reps=10, seed=SEED)),
    Claim("replication-floor", "Ablation of Algorithm 1's n_min floor",
          "the decentralized split policy leaves every populated leaf replicated, with "
          "and without the corrections, on skewed data (P1.0)",
          ablations.replication_floor_ablation, check_replication_floor,
          dict(n=256, reps=3, seed=SEED), dict(n=64, reps=1, seed=SEED)),
    Claim("range-vs-pht", "Sec. 6",
          "an in-network trie answers a range query cheaper than a uniform-hash DHT with "
          "a prefix hash tree on top, by a margin that grows with the range width",
          rangecost.range_cost_sweep, check_range_cost,
          dict(n_nodes=128, n_keys=2000, queries_per_width=10, seed=SEED),
          dict(n_nodes=64, n_keys=1000, queries_per_width=5, seed=SEED)),
    Claim("seq-vs-parallel", "Sec. 4.3",
          "parallel construction needs O(log² N) rounds against sequential joins' "
          "O(N log N) latency, so the speedup grows with N",
          complexity.latency_sweep, check_latency,
          dict(populations=(64, 128, 256, 512), seed=SEED),
          dict(populations=(32, 64, 128), seed=SEED)),
]

def measure(claim: Claim, size: str, runs: List[tuple]) -> List[Band]:
    """The bands of ``claim`` at its ``"full"`` or ``"quick"`` arguments.

    ``runs`` collects ``(run, args, result)``; a row whose run and
    arguments are already there reuses that result.
    """
    args = getattr(claim, size)
    for run, done, result in runs:
        if run is claim.run and done == args:
            break
    else:
        result = claim.run(**args)
        runs.append((claim.run, args, result))
    return claim.check(result)


HEADER = "| id | figure | claim | band | measured | verdict |"


def render(verdicts) -> str:
    """The markdown verdict table of ``(claim, bands)`` pairs."""
    lines = [HEADER, "|---|---|---|---|---|---|"]
    for claim, bands in verdicts:
        failed = sum(not band.ok for band in bands)
        cells = [
            claim.id, claim.figure, claim.claim,
            "<br>".join(band.text() for band in bands),
            "<br>".join(band.measured() for band in bands),
            f"FAIL ({failed} of {len(bands)})" if failed else "pass",
        ]
        lines.append("| " + " | ".join(cell.replace("|", r"\|") for cell in cells) + " |")
    return "\n".join(lines)


def main() -> int:
    runs: List[tuple] = []
    verdicts = [(claim, measure(claim, "full", runs)) for claim in CLAIMS]
    print(render(verdicts))
    print("\n| run | full arguments |\n|---|---|")
    for run, args, _ in runs:
        arguments = ", ".join(f"{name}={value!r}" for name, value in args.items())
        print(f"| `{run.__module__}.{run.__name__}` | `{arguments}` |")
    return int(any(not band.ok for _, bands in verdicts for band in bands))


if __name__ == "__main__":
    sys.exit(main())
