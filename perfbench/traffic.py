"""Seeded request streams for the serve-path benchmark.

Everything here is a pure function of ``(workload, seed)``: the same
seed gives a byte-identical stream, and the server only ever sees the
bytes built here.  Nothing imports :mod:`repro`, so the streams can be
generated (and tested) without the program under test.

Streams
-------
``interactive`` / ``routed``
    An open loop of Poisson arrivals at :data:`INTERACTIVE_RATE_RPS`
    (``rate x seconds`` of them, the process conditioned on its count),
    each one single-query ``POST /v1/predict``.  Exactly one request in
    five asks a key new to the run, drawn from a population of ~17k
    (workload, size, config, threads) points -- four times the service's
    4,096-entry result cache -- cycling through the workload x config x
    threads strata, sizes in an order the seed shuffles.  The other
    four repeat an earlier key, the k-th distinct key with Zipf weight
    1/k, so about four in five hit the result cache whatever the seed.
    ``routed`` replays ``interactive``'s stream.
``sweep``
    A closed loop of ``grid`` bodies shaped like the paper's exhibit
    sweeps (Fig. 4 size sweeps, Fig. 5/6 thread sweeps, multi-workload
    blocks).  Sizes are drawn fresh per grid, so most points are cold.
    The shape mix is a fixed multiset (:data:`SWEEP_SHAPES`), shuffled by
    the seed within each cycle; one grid per cycle expands past the
    1,024-query admission queue (and stays under the 4,096-query request
    cap) and is refused at the seed.  The grid after it is always the
    smallest shape, so the refusal does not cascade onto the next grid.
``plan``
    A closed loop of ``POST /v1/plan`` over ``knl7210`` + ``xeonmax9480``
    with both objectives.  Items come from a finite population that
    cycles through the workloads and thread counts at sizes stratified
    over each workload's range, so they recur across plans and the run
    cache is partly warm.  Every cycle sends one plan of each of
    :data:`PLAN_SIZES`, in that order; the seed picks the items.

Closed-loop runs send a fixed number of whole cycles
(:func:`closed_loop_count`), so every run does the same amount of work
with the same mix of request sizes whatever the seed.  The count is
scaled from ``--seconds`` so that a run lasts about that long at the
seed; a faster program finishes the same work sooner.

Every stream has a key-disjoint warm-up slice: the same workloads,
configs and sizes at thread counts the measured streams never use (the
thread count is part of every run key), so it settles lazy set-up
(model tables, code paths, both worker threads) without pre-filling any
cache entry the measurement reads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "WORKLOADS",
    "INTERACTIVE_RATE_RPS",
    "REQUEST_CAP",
    "ADMISSION_QUEUE",
    "Request",
    "stream",
    "warmup",
    "interactive_population",
    "iter_queries",
    "cycle_length",
    "closed_loop_count",
]

WORKLOADS = ("interactive", "sweep", "plan", "routed")

#: Offered load of the open-loop workloads (requests per second).
INTERACTIVE_RATE_RPS = 50.0
#: Share of interactive requests that repeat a key seen earlier in the run.
REPEAT_SHARE = 0.8
#: A repeat picks the k-th distinct key of the run with weight k ** -this.
ZIPF_EXPONENT = 1.0
#: The service's documented per-request cap (``max_request_queries``).
REQUEST_CAP = 4096
#: The service's default admission queue (``--max-queue``).
ADMISSION_QUEUE = 1024

CONFIGS = ("DRAM", "HBM", "Cache Mode")
SWEEP_CONFIGS = ("DRAM", "HBM", "Cache Mode", "Interleave")
#: Thread counts of the measured streams, and of the warm-up slices.
THREADS = {False: tuple(range(32, 257, 32)), True: tuple(range(16, 257, 32))}
INTERACTIVE_THREADS = {False: (64, 128, 192, 256), True: (48, 112, 176, 240)}
ALL_WORKLOADS = ("dgemm", "minife", "gups", "graph500", "xsbench")

#: Problem-size ranges (GB) of the continuous-size workloads (Fig. 4).
SIZE_RANGES = {"dgemm": (0.1, 24.0), "minife": (0.1, 28.8), "xsbench": (5.6, 90.0)}
#: GUPS and Graph500 sizes quantize to powers of two inside the model, so
#: only their Fig. 4 panel points are distinct keys.
POWER_OF_TWO_SIZES = {
    "gups": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    "graph500": (1.1, 2.2, 4.4, 8.8, 17.5, 35.0),
}
#: Sizes per continuous-size workload in the interactive population.
POPULATION_SIZES = 480

#: Sweep grid shapes as (workloads, sizes, configs, threads) counts, and
#: how many of each one shuffled cycle holds.
SWEEP_SHAPES = (
    ((1, 8, 3, 1), 16),  # Fig. 4 size sweep: 24 points
    ((1, 2, 3, 8), 6),  # Fig. 6 thread sweep: 48
    ((1, 24, 3, 1), 4),  # dense size sweep: 72
    ((3, 4, 3, 4), 2),  # Fig. 5 block: 144
    ((2, 12, 3, 4), 1),  # 288
    ((3, 16, 4, 4), 1),  # 768
    ((3, 32, 4, 4), 1),  # 1,536: past the admission queue
)

#: Plan sizes (mix items) of one cycle, in the order it sends them.  An
#: odd number of them, so the median plan latency falls inside one size
#: class instead of on the step between two.  The order is fixed, small
#: and large interleaved: how much cold work the first cycles batch
#: together depends on it, so a seeded order made runs differ by seed.
PLAN_SIZES = (12, 256, 24, 192, 32, 128, 48, 96, 64)
PLAN_POOL = ("knl7210", "xeonmax9480")
PLAN_OBJECTIVES = ("runtime", "energy")
#: Distinct plan items the mixes draw from (so items recur).
PLAN_ITEM_POPULATION = 600


@dataclass(frozen=True)
class Request:
    """One request of a stream: its wire bytes and what it asks for."""

    path: str
    body: bytes
    #: Open loop: seconds after the window opens at which it is due.
    #: Closed loop: ``None`` (sent when the previous reply arrived).
    due_s: float | None
    #: Queries the request expands to (plan: candidate queries).
    queries: int

    def wire(self) -> bytes:
        """The full HTTP/1.1 request."""
        head = (
            f"POST {self.path} HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + self.body

    def payload(self) -> dict[str, Any]:
        return json.loads(self.body)


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# -- interactive ---------------------------------------------------------------
def interactive_population(warm: bool = False) -> list[dict[str, Any]]:
    """The what-if key space: every workload x size x config x threads.

    Continuous-size workloads get :data:`POPULATION_SIZES` evenly spaced
    sizes each; the power-of-two workloads get their panel points.
    """
    sizes: list[tuple[str, float]] = []
    for workload in ALL_WORKLOADS:
        if workload in POWER_OF_TWO_SIZES:
            sizes += [(workload, s) for s in POWER_OF_TWO_SIZES[workload]]
            continue
        lo, hi = SIZE_RANGES[workload]
        step = (hi - lo) / (POPULATION_SIZES - 1)
        sizes += [(workload, round(lo + i * step, 3)) for i in range(POPULATION_SIZES)]
    return [
        {"workload": w, "size_gb": s, "config": c, "num_threads": t}
        for w, s in sizes
        for c in CONFIGS
        for t in INTERACTIVE_THREADS[warm]
    ]


def _stratified(rng: random.Random, population: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The population in an order that cycles through every (workload,
    config, threads) stratum, each stratum's sizes shuffled by the seed,
    so any prefix holds the same mix of workloads, configs and threads."""
    strata: dict[tuple, list[dict[str, Any]]] = {}
    for query in population:
        strata.setdefault((query["num_threads"], query["config"], query["workload"]), []).append(query)
    for members in strata.values():
        rng.shuffle(members)
    order = [strata[key] for key in sorted(strata, key=lambda k: (k[0], CONFIGS.index(k[1]), ALL_WORKLOADS.index(k[2])))]
    depth = max(len(members) for members in order)
    return [members[i] for i in range(depth) for members in order if i < len(members)]


def _interactive(seed: int, seconds: float) -> list[Request]:
    rng = random.Random(f"interactive:{seed}")
    population = _stratified(rng, interactive_population())
    count = round(INTERACTIVE_RATE_RPS * seconds)
    # A Poisson process conditioned on its count: sorted uniform arrivals.
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    fresh_count = round((1.0 - REPEAT_SHARE) * count)
    fresh = {0, *rng.sample(range(1, count), fresh_count - 1)}
    seen: list[dict[str, Any]] = []
    cumulative: list[float] = []
    requests = []
    for i, due in enumerate(dues):
        if i in fresh:
            seen.append(population[len(seen)])
            total = cumulative[-1] if cumulative else 0.0
            cumulative.append(total + len(seen) ** -ZIPF_EXPONENT)
            query = seen[-1]
        else:
            query = rng.choices(seen, cum_weights=cumulative)[0]
        requests.append(Request("/v1/predict", _encode({"query": query}), due, 1))
    return requests


def _interactive_warmup(seed: int) -> list[Request]:
    """Half a second of uniform open-loop traffic at twice the measured
    rate, so some misses coalesce and both worker threads warm up."""
    rng = random.Random(f"interactive-warmup:{seed}")
    population = interactive_population(warm=True)
    rate = 2 * INTERACTIVE_RATE_RPS
    return [
        Request("/v1/predict", _encode({"query": query}), i / rate, 1)
        for i, query in enumerate(rng.sample(population, int(rate / 2)))
    ]


# -- sweep ---------------------------------------------------------------------
def _grid(rng: random.Random, shape: tuple[int, int, int, int], warm: bool) -> dict[str, Any]:
    n_workloads, n_sizes, n_configs, n_threads = shape
    workloads = sorted(rng.sample(sorted(SIZE_RANGES), n_workloads))
    # One size axis shared by the grid's workloads, drawn from the range
    # every one of them accepts.
    lo = max(SIZE_RANGES[w][0] for w in workloads)
    hi = min(SIZE_RANGES[w][1] for w in workloads)
    sizes: set[float] = set()
    while len(sizes) < n_sizes:
        sizes.add(round(rng.uniform(lo, hi), 3))
    return {
        "workloads": workloads,
        "sizes_gb": sorted(sizes),
        "configs": list(SWEEP_CONFIGS[:n_configs]),
        "num_threads": sorted(rng.sample(THREADS[warm], n_threads)),
    }


def grid_points(shape: tuple[int, ...]) -> int:
    points = 1
    for n in shape:
        points *= n
    return points


def _sweep(seed: int, count: int | None, warm: bool) -> list[Request]:
    """``count`` requests of whole shuffled cycles; ``None``: one cycle."""
    rng = random.Random(f"sweep:{seed}:{warm}")
    if warm:
        # One grid of each shape, whatever the seed.  Warm-up never
        # overflows the admission queue: refused work would still be
        # evaluating when the measured window opens.
        cycle = [shape for shape, _ in SWEEP_SHAPES if grid_points(shape) <= ADMISSION_QUEUE]
    else:
        cycle = [shape for shape, copies in SWEEP_SHAPES for _ in range(copies)]
    if count is None:
        count = len(cycle)
    over = [shape for shape in cycle if grid_points(shape) > ADMISSION_QUEUE]
    rest = [shape for shape in cycle if shape not in over]
    requests: list[Request] = []
    while len(requests) < count:
        order = list(rest)
        rng.shuffle(order)
        # Each over-cap grid is followed by the smallest grid: a refused
        # grid leaves up to 1,024 orphaned queries in the admission queue,
        # and a large successor would be refused in turn, so how far the
        # refusals cascade would depend on timing instead of the mix.
        smallest = min(order, key=grid_points)
        for shape in over:
            order.remove(smallest)
            at = rng.randrange(len(order) + 1)
            order[at:at] = [shape, smallest]
        for shape in order:
            body = _encode({"grid": _grid(rng, shape, warm)})
            requests.append(Request("/v1/predict", body, None, grid_points(shape)))
    return requests[:count]


# -- plan ----------------------------------------------------------------------
def _stratified_sizes(rng: random.Random, workload: str, count: int) -> list[float]:
    """``count`` sizes spread evenly over the workload's range (one per
    equal-width stratum, jittered; the power-of-two workloads cycle
    through their panel points), in an order the seed shuffles."""
    if workload in POWER_OF_TWO_SIZES:
        points = POWER_OF_TWO_SIZES[workload]
        sizes = [points[k % len(points)] for k in range(count)]
    else:
        lo, hi = SIZE_RANGES[workload]
        sizes = [round(lo + (k + rng.random()) * (hi - lo) / count, 3) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def _plan_items(seed: int, warm: bool) -> list[dict[str, Any]]:
    """Items cycling through the workloads and thread counts, at sizes
    stratified over each workload's range, so every seed prices the same
    mix of workloads, threads and sizes."""
    rng = random.Random(f"plan-items:{seed}:{warm}")
    per_workload = PLAN_ITEM_POPULATION // len(ALL_WORKLOADS)
    sizes = {w: _stratified_sizes(rng, w, per_workload) for w in ALL_WORKLOADS}
    items = []
    for i in range(PLAN_ITEM_POPULATION):
        workload = ALL_WORKLOADS[i % len(ALL_WORKLOADS)]
        # DGEMM's 256-thread run is the paper's failed run: no machine
        # can place it, so plan items leave it out.
        threads = [t for t in THREADS[warm] if t < 256 or workload != "dgemm"]
        k = i // len(ALL_WORKLOADS)
        items.append(
            {
                "workload": workload,
                "size_gb": sizes[workload][k],
                "num_threads": threads[k % len(threads)],
            }
        )
    return items


def plan_candidates(plan: dict[str, Any]) -> int:
    """Candidate queries of a plan body (mix x paper trio per machine)."""
    return len(plan["mix"]) * len(CONFIGS) * len(plan["pool"])


def _plan(seed: int, count: int, warm: bool) -> list[Request]:
    rng = random.Random(f"plan:{seed}:{warm}")
    population = _plan_items(seed, warm)
    requests: list[Request] = []
    while len(requests) < count:
        # Warm-up: the smallest plans, so it does the same work whatever
        # the seed.
        sizes = sorted(PLAN_SIZES)[:count] if warm else PLAN_SIZES
        for n_items in sizes:
            mix = [
                dict(item, weight=round(rng.uniform(0.0005, 0.004), 6))
                for item in rng.sample(population, n_items)
            ]
            plan = {
                "mix": mix,
                # Generous capacity: every mix fits, packing still chooses.
                "pool": [{"machine": m, "nodes": 4 + n_items // 2} for m in PLAN_POOL],
                "objective": PLAN_OBJECTIVES[len(requests) % 2],
            }
            body = _encode({"plan": plan})
            requests.append(Request("/v1/plan", body, None, plan_candidates(plan)))
    return requests[:count]


# -- public --------------------------------------------------------------------
def cycle_length(workload: str) -> int:
    """Requests per cycle of a closed-loop stream."""
    if workload == "sweep":
        return sum(copies for _, copies in SWEEP_SHAPES)
    if workload == "plan":
        return len(PLAN_SIZES)
    raise ValueError(f"{workload!r} is not a closed-loop workload")


#: Seconds per cycle that size a run from ``--seconds``.  Plan: the mean
#: cycle of a 45 s run at the seed on a 2-core host, rounded up (the first
#: cycles are slower, while the run cache fills).  Sweep: the mean of the
#: first four cycles; later cycles are slower (the table-cache rewrites
#: grow), so a 45 s run's twelve cycles take about 85 s at the seed.
CYCLE_SECONDS = {"sweep": 3.75, "plan": 0.45}


def closed_loop_count(workload: str, seconds: float) -> int:
    """Requests a closed-loop run sends: whole cycles filling about
    ``seconds`` at the seed."""
    cycles = max(1, round(seconds / CYCLE_SECONDS[workload]))
    return cycles * cycle_length(workload)


def stream(workload: str, seed: int, seconds: float) -> list[Request]:
    """The measured stream: ``seconds`` of open-loop arrivals
    (interactive, routed) or :func:`closed_loop_count` closed-loop
    requests (sweep, plan)."""
    if workload in ("interactive", "routed"):
        return _interactive(seed, seconds)
    if workload == "sweep":
        return _sweep(seed, closed_loop_count(workload, seconds), warm=False)
    if workload == "plan":
        return _plan(seed, closed_loop_count(workload, seconds), warm=False)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup(workload: str, seed: int) -> list[Request]:
    """The key-disjoint warm-up slice, sent before timing (open loop for
    the open-loop workloads, closed loop otherwise)."""
    if workload in ("interactive", "routed"):
        return _interactive_warmup(seed)
    if workload == "sweep":
        return _sweep(seed, None, warm=True)
    if workload == "plan":
        return _plan(seed, 4, warm=True)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def iter_queries(request: Request) -> Iterator[dict[str, Any]]:
    """The query dicts a ``/v1/predict`` body expands to, in the
    service's answer order (grids are workload-major)."""
    payload = request.payload()
    if "query" in payload:
        yield payload["query"]
        return
    grid = payload["grid"]
    for w in grid["workloads"]:
        for s in grid["sizes_gb"]:
            for c in grid["configs"]:
                for t in grid["num_threads"]:
                    yield {"workload": w, "size_gb": s, "config": c, "num_threads": t}
