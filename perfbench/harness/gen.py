"""Seeded inputs of the workloads, as socyield-serve/1 request lines.

Only ``random.Random(seed).random()`` is drawn from; its sequence is fixed
for an integer seed across Python versions, so a seed names one input set.

The work a query costs depends on its circuit and on the truncation point
M, not on lambda itself: the coded ROBDD is built from the circuit and M,
and lambda only changes the probabilities read during the traversal. So
lambda is drawn inside intervals on which M is constant. Seeds then change
every yield and every cache key, but not how much work a run asks for,
which keeps the figures of different seeds comparable.
"""

import bisect
import json
import random

# lambda intervals with a constant M under the suite's defect model
# (negative binomial, alpha 4, P_L 0.1, epsilon 1e-3). The boundaries lie
# near 1.6, 3.3, 5.4 and 7.8; the intervals keep clear of them.
M_LAMBDA = {
    2: (0.6, 1.4),
    3: (1.8, 3.1),
    4: (3.5, 5.2),
    5: (5.6, 7.6),
    6: (8.0, 10.0),
}

# eval-table4: the paper's Table 4 rows MS6 and ESEN8x1 at lambda' = 1.
TABLE4_ROWS = ("ms6", "esen8x1")

# serve-hot: 6 circuits x 4 lambdas x 2 methods = 48 queries, fewer than
# the daemon's 128 cache entries. Small M keeps the fill cheap. The Zipf
# exponent and the interleaving of ranks over circuits (see hot_queries)
# are an assumed traffic shape: socyield has no recorded traffic to fit
# them to. hot_shares() gives the share of picks each circuit gets.
HOT_CIRCUITS = ("MS2", "MS4", "MS10", "ESEN4x1", "ESEN8x2", "ESEN8x4")
HOT_STRATA = (2, 2, 3, 3)
HOT_METHODS = ("eval", "conditional-yields")
ZIPF_S = 1.0

# serve-cold: a pool of distinct queries. MS4 stays below lambda 8 (M <= 5);
# one query in ten is MS4 at lambda' = 2 with a node budget far below its
# 13.65M-node peak, whose correct answer is budget-exhausted.
COLD_STRATA = {
    "MS2": (3, 4, 5, 6),
    "ESEN4x1": (3, 4, 5, 6),
    "ESEN4x2": (3, 4, 5, 6),
    "MS4": (3, 4, 5),
}
COLD_CIRCUITS = ("MS2", "ESEN4x1", "ESEN4x2", "MS4")
BUDGET_EVERY = 10
BUDGET_LAMBDA = 20.0
BUDGET_NODES = (15_000, 25_000)


def request(method, benchmark, lam, node_limit=None):
    params = {"benchmark": benchmark, "lambda": lam}
    if node_limit is not None:
        params["node_limit"] = node_limit
    return json.dumps(
        {"socyield-serve": 1, "method": method, "params": params},
        separators=(",", ":"),
    )


class Query:
    """One request line plus what the harness knows about it."""

    def __init__(self, method, benchmark, lam, node_limit=None):
        self.method = method
        self.benchmark = benchmark
        self.lam = lam
        self.node_limit = node_limit
        self.line = request(method, benchmark, lam, node_limit)
        self.expect_budget = node_limit is not None

    def eval_line(self):
        """The same query as an ``eval`` request (what the layer probes run)."""
        return request("eval", self.benchmark, self.lam, self.node_limit)


def _draw(rng, lo, hi, taken):
    while True:
        lam = round(lo + (hi - lo) * rng.random(), 6)
        if lam not in taken:
            taken.add(lam)
            return lam


def _shuffle(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def table4_rows(reference):
    """eval-table4's queries: the reference rows, in paper order."""
    rows = {r["name"]: r for r in reference["rows"]}
    return [Query("eval", rows[n]["benchmark"], rows[n]["lambda"]) for n in TABLE4_ROWS]


def hot_queries(seed):
    """serve-hot's 48 queries, ordered by popularity rank.

    Rank r belongs to circuit ``HOT_CIRCUITS[r % 6]``, so every circuit
    gets the same share of the Zipf weight whatever the seed; the seed
    decides the lambdas and which (lambda, method) of a circuit takes which
    of its ranks. Hit cost grows with circuit size, so this keeps the
    latency mix, and with it the p50, independent of the seed.
    """
    rng = random.Random(seed)
    per_circuit = []
    for bench in HOT_CIRCUITS:
        taken = set()
        lambdas = [_draw(rng, *M_LAMBDA[m], taken) for m in HOT_STRATA]
        qs = [Query(meth, bench, lam) for lam in lambdas for meth in HOT_METHODS]
        per_circuit.append(_shuffle(rng, qs))
    n = len(HOT_CIRCUITS)
    return [per_circuit[r % n][r // n] for r in range(n * len(per_circuit[0]))]


def hot_shares(s=ZIPF_S):
    """The expected share of serve-hot's picks per circuit, from the Zipf
    weights of the ranks each circuit owns."""
    n = len(HOT_CIRCUITS)
    weights = [1.0 / (r + 1) ** s for r in range(n * len(HOT_STRATA) * len(HOT_METHODS))]
    total = sum(weights)
    return {b: sum(weights[c::n]) / total for c, b in enumerate(HOT_CIRCUITS)}


class ZipfPicker:
    """Draws ranks 0..n-1 with weight 1/(rank+1)^s from its own stream."""

    def __init__(self, n, seed, s=ZIPF_S):
        self.rng = random.Random(seed)
        self.cum = []
        total = 0.0
        for r in range(n):
            total += 1.0 / (r + 1) ** s
            self.cum.append(total)

    def __call__(self):
        x = self.rng.random() * self.cum[-1]
        return min(bisect.bisect_right(self.cum, x), len(self.cum) - 1)


def zipf_picks(n, seed, count):
    """``count`` Zipf-distributed ranks in 0..n-1 from stream ``seed``."""
    pick = ZipfPicker(n, seed)
    return [pick() for _ in range(count)]


def cold_queries(seed, count):
    """serve-cold's first ``count`` queries (its pool), all distinct.

    Position i is a budget query when ``i % 10 == 9``; otherwise the j-th
    regular query takes circuit ``COLD_CIRCUITS[j % 4]`` and the M stratum
    ``COLD_STRATA[circuit][(j // 4) % len]``, so the work a position costs
    is the same for every seed.
    """
    rng = random.Random(seed)
    taken = {b: set() for b in COLD_CIRCUITS}
    budgets = set()
    out = []
    j = 0
    for i in range(count):
        if i % BUDGET_EVERY == BUDGET_EVERY - 1:
            lo, hi = BUDGET_NODES
            while True:
                nodes = lo + int((hi - lo) * rng.random())
                if nodes not in budgets:
                    budgets.add(nodes)
                    break
            out.append(Query("eval", "MS4", BUDGET_LAMBDA, node_limit=nodes))
        else:
            bench = COLD_CIRCUITS[j % len(COLD_CIRCUITS)]
            strata = COLD_STRATA[bench]
            m = strata[(j // len(COLD_CIRCUITS)) % len(strata)]
            out.append(Query("eval", bench, _draw(rng, *M_LAMBDA[m], taken[bench])))
            j += 1
    return out
