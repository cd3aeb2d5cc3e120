"""The benchmark's two workloads, both on the program's default config.

Every workload runs ``DynoConfig()`` as shipped -- no columnar or
parallel switches -- so a later change to the default data path shows up
here. Each has a set-up (inputs made from a seed, reference answers, and
anything else that is not the operation being measured), a warm-up pass,
and a timed phase. An untraced run sets up three times from three seeds
derived from ``--seed``; the standing workload rotates its timed phase
over all three inputs, so one run averages over several data sets, and
serving uses only the first. ``simulated`` gives the simulated cost of
fixed work -- one pass over each data set -- so ``sim_s`` repeats exactly
for a seed.
Every answer is checked against a reference computed without the engine,
and an empty answer counts as wrong because it proves nothing.

Why each workload exists
------------------------

``serving_mixed`` -- open loop at a fixed offered rate below the
service's capacity, three tenants at priorities 1-3, ``QueryService``
with the result cache on, over TPC-H SF 0.02 plus 500-event weblog
tables. Requests are seeded draws, Zipf with a mild exponent, over the
benchmark's own parameterized Q3, Q10, WeblogEngagement and WeblogPremium
templates: the universe of identities grows with the run, one per
``REQUESTS_PER_IDENTITY`` requests, so about 60% of requests repeat an
earlier identity at any run length, and its 200 or more identities
outnumber the result cache's 128 entries, so many repeats come back
after their entry was evicted. Admission, DWRR dispatch, the plan and
result caches and metastore pilot skipping carry the load; the runtime
works on every miss. Latency is timed from
each request's due time, so the drain-batch barrier shows in it: a
request that arrives while a batch runs waits for the whole batch. Two
requests for one identity are at least ``MIN_REUSE`` apart, so a repeat
never shares a drain batch with its first occurrence and whether it hits
follows from the schedule (the same seed gives the same hits). With
under a third of requests answered from the cache, the median request is
a miss. A hit share near one half would put the median on the boundary
between a 2 ms hit and a miss several times slower, where it jumps from
run to run.

``standing_refresh`` -- the write side. Standing WeblogEngagement and
PremiumSessions queries over ``changing_tables(0.25)``, and a seeded
cycle of CDC batches: 1% append to ``pageviews``, 5% update/delete on
``users``, 20% append to ``pageviews``, and a mixed insert/update/delete
batch on ``pages``. Each batch is applied and refreshed together with one
ad-hoc query. It covers DFS table rewrites, statistics folds and
invalidations, cache eviction and the delta-versus-full refresh decision,
none of which serving touches. The batches are made during set-up:
synthesizing them is slow (the generator rescans the table per inserted
row), and that cost belongs to set-up, not to refresh latency.

Why there is no cold-query workload
-----------------------------------

A closed loop of TPC-H Q2, Q7, Q8', Q9' and Q10 at scale factor 0.75
plus the two skew queries, each on a fresh ``Dyno``, would measure the
data path with no cache or service in the way. On a two-core share of a
busy host it could not be made steady: a run fits only 6 to 8 cycles of
its 7 queries, its large tables make it slow down more than the other
workloads whenever the host is busy, and over ten seeds the quartile
spread of its throughput and latencies was 14 to 28% of the median --
over the 25% bound in some sets -- whether it was read from totals,
pooled percentiles or per-query medians. The data path is still measured
on both workloads here: every cache miss and every refresh runs it.
"""

from __future__ import annotations

import bisect
import datetime
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.dyno import Dyno
from repro.data import tpch
from repro.data.table import Table
from repro.errors import DynoError
from repro.incremental import cdc
from repro.incremental.standing import StandingQueryManager
from repro.jaql.functions import Udf, UdfRegistry
from repro.jaql.parser import SqlParser
from repro.service import QueryRequest, QueryService, ResultCache
from repro.validation import compare_rows, interpret
from repro.workloads import changing, skewed, weblogs

from loadgen import run_open_loop
from spans import Recorder

#: driver threads of every service; the benchmark is sized for two cores.
SERVICE_WORKERS = 2


@dataclass
class Op:
    """One measured operation (query, request or change batch)."""

    name: str
    #: wall seconds; on serving_mixed, from the request's due time.
    latency: float
    #: simulated cluster seconds the operation cost.
    sim: float
    #: wall seconds the operation kept the engine busy (its latency less
    #: any queueing); the tracing-overhead ratio compares these.
    busy: float
    #: failure or refusal reported by the program, None on success.
    error: str | None = None


@dataclass
class Phase:
    """Operations of one timed phase, plus what the service observed."""

    ops: list[Op] = field(default_factory=list)
    wall: float = 0.0
    #: wrong or empty answers, one message each.
    wrong: list[str] = field(default_factory=list)
    #: service-level observations (queue waits, cache summaries, load
    #: generator lateness); empty where no service runs.
    service: dict[str, Any] = field(default_factory=dict)
    #: per data set, simulated seconds of each successful operation of
    #: one pass of fixed work over it, so sim_s repeats exactly however
    #: many passes the wall-clock budget allowed.
    sim: list[list[float]] = field(default_factory=list)
    #: operations per cycle of a closed loop, which repeats the same
    #: sequence of operations; 0 in an open loop.
    cycle: int = 0


def _check(wrong: list[str], label: str, rows, expected) -> None:
    if not rows:
        wrong.append(f"{label}: empty answer")
        return
    report = compare_rows(rows, expected)
    if not report.matches:
        wrong.append(f"{label}: {report.describe()}")


def _service_summary(service: QueryService, outcomes) -> dict[str, Any]:
    plan_cache = service.plan_cache
    return {
        "waits": [o.wait_seconds for o in outcomes],
        "execs": [o.latency_seconds - o.wait_seconds for o in outcomes],
        "plan_cache_hits": plan_cache.hits,
        "plan_cache_lookups": plan_cache.hits + plan_cache.misses,
        # share of requests answered from the result cache; the cache's
        # own miss counter skips requests whose statistics are unknown.
        "result_cache_hits": sum(1 for o in outcomes if o.result_cache_hit),
        "requests": len(outcomes),
        "result_cache_invalidations": service.result_cache.invalidations,
    }


def _merge_summaries(parts: list[dict[str, Any]]) -> dict[str, Any]:
    merged: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, type(value)()) + value
    return merged


# ---------------------------------------------------------------------------
# serving_mixed
# ---------------------------------------------------------------------------

SERVING_SCALE_FACTOR = 0.02
SERVING_WEBLOG_EVENTS = 500
OFFERED_QPS = 20.0
ZIPF_S = 0.2
#: requests per identity of the universe the draws come from (200
#: identities for 500 requests); the universe grows with the run so that
#: the repeat share stays near 60%.
REQUESTS_PER_IDENTITY = 2.5
#: fewest requests between two of one identity (2 s at the offered rate):
#: longer than any drain batch, so a repeat never shares a batch with the
#: request that fills its cache entry, and hit or miss follows from the
#: schedule rather than from timing.
MIN_REUSE = 40
TENANTS = (("tenant-a", 1), ("tenant-b", 2), ("tenant-c", 3))
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
BROWSERS = (("chrome", "blink"), ("edge", "blink"), ("safari", "webkit"),
            ("firefox", "gecko"))
COUNTRIES = ("US", "DE", "JP", "BR", "IN", "FR")

TEMPLATES = {
    "Q3": """
        SELECT l.l_orderkey AS orderkey, o.o_orderdate AS orderdate,
               sum(l.l_extendedprice) AS revenue
        FROM customer c, orders o, lineitem l
        WHERE c.c_mktsegment = '{segment}'
        AND c.c_custkey = o.o_custkey
        AND l.l_orderkey = o.o_orderkey
        AND o.o_orderdate <= '{date}' AND l.l_shipdate >= '{date}'
        GROUP BY l.l_orderkey, o.o_orderdate
        ORDER BY revenue DESC LIMIT 10""",
    "Q10": """
        SELECT c.c_custkey AS custkey, c.c_name AS cname,
               n.n_name AS nname, sum(l.l_extendedprice) AS revenue
        FROM customer c, orders o, lineitem l, nation n
        WHERE c.c_custkey = o.o_custkey
        AND l.l_orderkey = o.o_orderkey
        AND o.o_orderdate >= '{start}' AND o.o_orderdate <= '{end}'
        AND l.l_returnflag = 'R'
        AND c.c_nationkey = n.n_nationkey
        GROUP BY c.c_custkey, c.c_name, n.n_name
        ORDER BY revenue DESC LIMIT 20""",
    "WeblogEngagement": """
        SELECT u.country AS country, p.category AS category,
               count(*) AS views, sum(pv.dwell_ms) AS dwell
        FROM pageviews pv, users u, pages p
        WHERE pv.userid = u.userid
        AND pv.url = p.url
        AND is_human(pv.client.ua)
        AND pv.dwell_ms >= {dwell}
        GROUP BY u.country, p.category
        ORDER BY dwell DESC""",
    "WeblogPremium": """
        SELECT u.userid AS userid, count(*) AS views
        FROM pageviews pv, users u
        WHERE pv.userid = u.userid
        AND pv.client.browser = '{browser}'
        AND pv.client.engine = '{engine}'
        AND pv.dwell_ms >= {dwell}
        AND u.country = '{country}'
        GROUP BY u.userid""",
}


def identity_universe() -> dict[str, list[dict[str, Any]]]:
    """Candidate parameters per template, 120 each."""
    epoch = datetime.date(1993, 1, 1)
    day = datetime.timedelta(days=1)
    universe: dict[str, list[dict[str, Any]]] = {
        "Q3": [{"segment": segment,
                "date": (epoch + (365 + 30 * step) * day).isoformat()}
               for segment in SEGMENTS for step in range(24)],
        "Q10": [{"start": (epoch + 7 * step * day).isoformat(),
                 "end": (epoch + (7 * step + 364) * day).isoformat()}
                for step in range(120)],
        "WeblogEngagement": [{"dwell": 1000 + 300 * step}
                             for step in range(120)],
        "WeblogPremium": [{"browser": browser, "engine": engine,
                           "country": country, "dwell": 2500 * step}
                          for browser, engine in BROWSERS
                          for country in COUNTRIES for step in range(5)],
    }
    return universe


def template_identities(count: int) -> int:
    """Identities per template for ``count`` requests, at most the 120
    candidates each template has."""
    return min(120, round(count / REQUESTS_PER_IDENTITY / len(TEMPLATES)))


def draw_identities(rng: random.Random, count: int,
                    ) -> list[tuple[str, dict[str, Any]]]:
    """``count`` seeded Zipf draws over the identity universe.

    Popularity ranks interleave the templates (rank ``r`` belongs to the
    ``r mod 4``-th template in a seeded order) and the draws are
    stratified -- one uniform variate per ``1/count`` slice -- so every
    seed gets the same template mix and nearly the same number of
    distinct identities; the seed decides which parameters are popular
    and the order requests arrive in (see ``spread_repeats``).
    """
    universe = identity_universe()
    templates = sorted(universe)
    rng.shuffle(templates)
    per_template = template_identities(count)
    for params in universe.values():
        rng.shuffle(params)
        del params[per_template:]
    size = len(templates) * per_template
    cdf = skewed.zipf_cdf(size, ZIPF_S)
    ranks = spread_repeats(rng, [
        min(bisect.bisect_left(cdf, (i + rng.random()) / count), size - 1)
        for i in range(count)])
    width = len(templates)
    return [(templates[rank % width],
             universe[templates[rank % width]][rank // width])
            for rank in ranks]


def spread_repeats(rng: random.Random, ranks: list[int]) -> list[int]:
    """Seeded order of ``ranks`` keeping ``MIN_REUSE`` between repeats.

    Each position takes a rank not used in the last ``MIN_REUSE``
    positions, drawn with weight the cube of its remaining copies, so the
    most repeated ranks are spread out early and enough distinct ranks
    are left for the end (a linear weight runs out of eligible ranks for
    most seeds; the cube did not for any of 1000 seeds tried at 500
    requests, nor of 300 at 720 or 800). If no
    rank is eligible, the one whose last use is oldest goes next; the
    shortest reuse distance is part of the workload record.
    """
    remaining: dict[int, int] = {}
    for rank in ranks:
        remaining[rank] = remaining.get(rank, 0) + 1
    last: dict[int, int] = {}
    order: list[int] = []
    for position in range(len(ranks)):
        candidates = sorted(remaining)
        eligible = [rank for rank in candidates
                    if position - last.get(rank, -MIN_REUSE) >= MIN_REUSE]
        if eligible:
            rank, = rng.choices(eligible, [remaining[rank] ** 3
                                           for rank in eligible])
        else:
            rank = min(candidates, key=lambda r: (last[r], r))
        remaining[rank] -= 1
        if not remaining[rank]:
            del remaining[rank]
        last[rank] = position
        order.append(rank)
    return order


def min_reuse_distance(identities: list[str]) -> int | None:
    """Fewest positions between two occurrences of one identity."""
    last: dict[str, int] = {}
    shortest = None
    for position, identity in enumerate(identities):
        if identity in last:
            gap = position - last[identity]
            shortest = gap if shortest is None else min(shortest, gap)
        last[identity] = position
    return shortest


def serving_udfs() -> UdfRegistry:
    udfs = UdfRegistry()
    udfs.register(Udf("is_human", weblogs.is_human, cost_seconds=0.0005))
    return udfs


@dataclass
class ServingState:
    tables: dict[str, Table]
    udfs: UdfRegistry
    #: (due offset seconds, request, identity) in due order; an identity
    #: is the request's template and parameters, rendered as text.
    schedule: list[tuple[float, QueryRequest, str]]
    references: dict[str, list]

    def empty(self) -> bool:
        """True when some reference answer is empty."""
        return not all(self.references.values())


class ServingMixed:
    name = "serving_mixed"
    #: the timed phase serves the first set-up's schedule only.
    rotates = False

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def setup(self, seed: int, seconds: float) -> ServingState:
        tables = dict(tpch.generate_tpch(SERVING_SCALE_FACTOR,
                                         seed=seed).tables)
        tables.update(weblogs.generate_weblogs(
            event_count=SERVING_WEBLOG_EVENTS, seed=seed))
        udfs = serving_udfs()
        rng = random.Random(seed)
        parser = SqlParser(udfs)
        specs: dict[str, Any] = {}
        schedule = []
        count = max(1, round(OFFERED_QPS * seconds))
        for position, (template, params) in enumerate(
                draw_identities(rng, count)):
            identity = f"{template} {json.dumps(params, sort_keys=True)}"
            if identity not in specs:
                specs[identity] = parser.parse(
                    TEMPLATES[template].format(**params), template)
            tenant, priority = TENANTS[rng.randrange(len(TENANTS))]
            request = QueryRequest.single(template, specs[identity],
                                          tenant=tenant, priority=priority)
            schedule.append((position / OFFERED_QPS, request, identity))
        # DFS registration of the catalog the service will load.
        Dyno(tables)
        references = {identity: interpret(tables, spec)
                      for identity, spec in specs.items()}
        return ServingState(tables, udfs, schedule, references)

    def warm_up(self, state: ServingState) -> Phase:
        """One request per template on a throwaway service."""
        phase = Phase()
        first: dict[str, tuple[QueryRequest, str]] = {}
        for _, request, identity in state.schedule:
            first.setdefault(request.name, (request, identity))
        service = QueryService(dict(state.tables), udfs=state.udfs,
                               workers=SERVICE_WORKERS, result_cache=True)
        start = time.perf_counter()
        outcomes = service.run_batch([r for r, _ in first.values()])
        phase.wall = time.perf_counter() - start
        for outcome, (_, identity) in zip(outcomes, first.values()):
            phase.ops.append(self._op(outcome, outcome.latency_seconds,
                                      phase.wrong, state, identity))
        return phase

    def run(self, states: list[ServingState],
            seconds: float | None) -> Phase:
        """The first set-up's seeded schedule, sized to ``seconds`` at
        set-up, on a fresh service."""
        state = states[0]
        service = QueryService(dict(state.tables), udfs=state.udfs,
                               workers=SERVICE_WORKERS, result_cache=True)
        loaded = run_open_loop(service.scheduler,
                               [(due, request)
                                for due, request, _ in state.schedule])
        phase = Phase(wall=loaded.wall_seconds)
        for sent, (_, _, identity) in zip(loaded.sent, state.schedule):
            phase.ops.append(self._op(sent.outcome, sent.latency_from_due,
                                      phase.wrong, state, identity))
        phase.service = _service_summary(
            service, [sent.outcome for sent in loaded.sent])
        phase.service.update(
            lateness=[sent.lateness for sent in loaded.sent],
            offered_qps=loaded.achieved_qps(1.0 / OFFERED_QPS),
        )
        return phase

    def simulated(self, states: list[ServingState],
                  phase: Phase) -> list[list[float]]:
        """Simulated seconds of the schedule served one request at a
        time, in due order, on a fresh service.

        In the open loop, which requests share a drain batch -- and so
        whether a request finds the statistics an earlier one piloted --
        depends on timing; served serially the same schedule costs the
        same every time. Answers are checked here as well.
        """
        state = states[0]
        service = QueryService(dict(state.tables), udfs=state.udfs,
                               workers=SERVICE_WORKERS, result_cache=True)
        sims = []
        for _, request, identity in state.schedule:
            outcome, = service.run_batch([request])
            op = self._op(outcome, outcome.latency_seconds, phase.wrong,
                          state, identity)
            if op.error is None:
                sims.append(op.sim)
        return [sims]

    def _op(self, outcome, latency: float, wrong: list[str],
            state: ServingState, identity: str) -> Op:
        busy = outcome.latency_seconds - outcome.wait_seconds
        if not outcome.ok:
            return Op(outcome.name, latency, 0.0, busy, outcome.error)
        _check(wrong, identity, outcome.rows, state.references[identity])
        sim = (outcome.execution.total_seconds
               if outcome.execution is not None else 0.0)
        return Op(outcome.name, latency, sim, busy)

    def record(self, states: list[ServingState]) -> dict[str, Any]:
        state = states[0]
        seen: set[str] = set()
        repeats = 0
        mix: dict[str, int] = {}
        for _, request, identity in state.schedule:
            repeats += identity in seen
            seen.add(identity)
            mix[request.name] = mix.get(request.name, 0) + 1
        return {
            "loop": "open",
            "offered_qps": OFFERED_QPS,
            "requests": len(state.schedule),
            "tenants": dict(TENANTS),
            "workers": SERVICE_WORKERS,
            "template_mix": mix,
            "identity_universe": (template_identities(len(state.schedule))
                                  * len(TEMPLATES)),
            "zipf_s": ZIPF_S,
            "distinct_identities": len(seen),
            "min_reuse_distance": min_reuse_distance(
                [identity for _, _, identity in state.schedule]),
            "result_cache_capacity": ResultCache().max_entries,
            "repeat_share": round(repeats / len(state.schedule), 4),
            "table_rows": {name: len(table.rows)
                           for name, table in state.tables.items()},
        }


# ---------------------------------------------------------------------------
# standing_refresh
# ---------------------------------------------------------------------------

STANDING_SCALE_FACTOR = 0.25
CHANGE_CYCLE = (
    changing.ScenarioStep("pageviews", 0.01),
    changing.ScenarioStep("users", 0.05, (0.0, 1.0, 1.0)),
    changing.ScenarioStep("pageviews", 0.20),
    changing.ScenarioStep("pages", 0.10, (1.0, 1.0, 1.0)),
)


@dataclass
class StandingState:
    tables: dict[str, Table]
    batches: list[cdc.ChangeBatch]
    #: interpreter answer of the ad-hoc query after each batch.
    adhoc_references: list[list]
    #: interpreter answer of each standing query after the last batch.
    final_references: dict[str, list]
    final_rows: dict[str, int]

    def empty(self) -> bool:
        """True when some reference answer is empty."""
        return not (all(self.adhoc_references)
                    and all(self.final_references.values()))


class StandingRefresh:
    name = "standing_refresh"
    rotates = True

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.standing = changing.standing_workloads()
        self.adhoc = weblogs.weblog_premium_blink()

    def setup(self, seed: int, seconds: float) -> StandingState:
        tables = changing.changing_tables(STANDING_SCALE_FACTOR, seed=seed)
        generators = {
            table: cdc.ChangeGenerator(tables[table],
                                       changing.KEY_COLUMNS[table],
                                       seed=seed * 101 + position)
            for position, table in enumerate(sorted(changing.KEY_COLUMNS))
        }
        current = dict(tables)
        batches, adhoc_references = [], []
        for step in CHANGE_CYCLE:
            generator = generators[step.table]
            batches.append(generator.next_batch(step.change_rate, step.mix))
            current[step.table] = generator.current
            adhoc_references.append(
                interpret(current, self.adhoc.final_spec))
        # DFS registration of the catalog each episode's service loads.
        Dyno(tables)
        final_references = {workload.name: interpret(current,
                                                     workload.final_spec)
                            for workload in self.standing}
        return StandingState(
            tables, batches, adhoc_references, final_references,
            {name: len(table.rows) for name, table in current.items()})

    def warm_up(self, state: StandingState) -> Phase:
        return self.run([state], None)

    def run(self, states: list[StandingState],
            seconds: float | None) -> Phase:
        """Whole episodes, each on the next set-up's tables and batches,
        until every set-up had an episode and ``seconds`` of refresh time
        have passed (one episode per set-up when ``seconds`` is None). An
        episode registers the standing queries on a fresh service,
        untimed, then applies and refreshes one cycle of batches."""
        phase = Phase(sim=[[] for _ in states], cycle=len(CHANGE_CYCLE))
        summaries = []
        for episode in itertools.count():
            state = states[episode % len(states)]
            service = QueryService(dict(state.tables),
                                   udfs=changing.changing_udfs(),
                                   workers=SERVICE_WORKERS,
                                   result_cache=True)
            manager = StandingQueryManager(service)
            for workload in self.standing:
                manager.register(workload.name, workload.final_spec)
            adhoc_outcomes = []
            start = time.perf_counter()
            for index, batch in enumerate(state.batches):
                op = self._apply(service, manager, state, index, batch,
                                 len(phase.ops), phase.wrong, adhoc_outcomes)
                phase.ops.append(op)
                if episode < len(states) and op.error is None:
                    phase.sim[episode].append(op.sim)
            phase.wall += time.perf_counter() - start
            for workload in self.standing:
                _check(phase.wrong, f"standing {workload.name}",
                       manager.result(workload.name),
                       state.final_references[workload.name])
            summaries.append(_service_summary(service, adhoc_outcomes))
            if episode + 1 >= len(states) and (
                    seconds is None or phase.wall >= seconds):
                break
        phase.service = _merge_summaries(summaries)
        return phase

    def simulated(self, states: list[StandingState],
                  phase: Phase) -> list[list[float]]:
        """Simulated seconds of the first episode on each set-up."""
        return phase.sim

    def _apply(self, service, manager, state: StandingState, index: int,
               batch, op_index: int, wrong: list[str],
               adhoc_outcomes: list) -> Op:
        label = f"{batch.table}@{batch.sequence}"
        request = QueryRequest.from_workload(self.adhoc, tenant="adhoc")
        started = time.perf_counter()
        with self.recorder.span(label, "op", request=f"{label}#{op_index}"):
            try:
                applied = cdc.apply_change_batch(
                    service.dyno, batch, changing.KEY_COLUMNS[batch.table])
                report = manager.refresh(applied, adhoc=[request])
            except DynoError as error:
                elapsed = time.perf_counter() - started
                return Op(label, elapsed, 0.0, elapsed,
                          f"{type(error).__name__}: {error}")
        elapsed = time.perf_counter() - started
        adhoc_outcomes.extend(report.adhoc)
        errors = [o.error for o in report.outcomes if not o.ok]
        errors += [o.error for o in report.adhoc if not o.ok]
        sim = sum(o.simulated_seconds for o in report.outcomes)
        sim += sum(o.execution.total_seconds for o in report.adhoc
                   if o.execution is not None)
        if not errors:
            adhoc, = report.adhoc
            _check(wrong, f"ad-hoc after {label}", adhoc.rows,
                   state.adhoc_references[index])
        return Op(label, elapsed, sim, elapsed,
                  "; ".join(errors) if errors else None)

    def record(self, states: list[StandingState]) -> dict[str, Any]:
        state = states[0]
        return {
            "loop": "closed, one client",
            "scale_factor": STANDING_SCALE_FACTOR,
            "standing_queries": [w.name for w in self.standing],
            "adhoc_query": self.adhoc.name,
            "change_cycle": [
                {"table": s.table, "rate": s.change_rate,
                 "mix_insert_update_delete": list(s.mix)}
                for s in CHANGE_CYCLE],
            "variants": len(states),
            "changed_rows": [[b.change_count for b in variant.batches]
                             for variant in states],
            "table_rows_initial": {name: len(table.rows)
                                   for name, table in state.tables.items()},
            "table_rows_final": state.final_rows,
        }


WORKLOADS: dict[str, Callable[[Recorder], Any]] = {
    ServingMixed.name: ServingMixed,
    StandingRefresh.name: StandingRefresh,
}

