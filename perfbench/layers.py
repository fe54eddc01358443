"""The traced run: per-layer numbers, timed from outside the program.

A traced check walks the path ``Engine.respond`` takes for the
workload, one public call per layer, and records a span around each
call.  Nothing inside the program is traced (``repro.trace`` and
``CheckConfig(trace=True)`` stay off), so a layer's time is the wall
time of its public call:

==================  ====================================================
span                public call
==================  ====================================================
``resolve``         the two steps of ``CheckRequest.resolve_circuits``:
                    ``spec.resolve`` (memoised per spec, as the Engine
                    does) and ``apply_noise``
``cache.*``         ``CheckCache.results.key_for`` / ``.get`` / ``.put``,
                    and ``CheckCache.plans.get`` / ``.put`` around planning
``network.build``   ``alg2_trace_network`` or ``alg1_template``
``plan.build``      ``backend.plan_for`` on the traced run's own backend
``execute``         ``backend.contract_scalar(network, plan=plan)``
``alg1.terms``      Algorithm I's term loop, ``execute`` nested per term
==================  ====================================================

``api.self_s`` is the untraced ``Engine.respond`` latency of the same
request, sent to a twin Engine right before or after, minus its
top-level layer spans.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import CheckCache, CheckConfig, CheckSession
from repro.api.request import apply_noise
from repro.core import CheckResult
from repro.core.algorithm1 import enumerate_selections
from repro.core.miter import (
    alg1_template,
    alg1_trace_network,
    alg2_trace_network,
    lower_kraus_selection,
)
from repro.tensornet import ContractionStats


@dataclass
class Span:
    name: str
    request_id: int
    span_id: int
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Spans kept in memory; written out by the caller at the end."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, request_id: int, **attrs):
        record = Span(
            name, request_id, next(self._ids),
            self._stack[-1] if self._stack else None,
            time.perf_counter_ns(), attrs=attrs,
        )
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)


@dataclass
class TracedCheck:
    """What one traced check leaves behind besides its spans."""

    request_id: int
    fidelity: float
    #: set-up pass of a replay workload (not a timed-path check)
    fill: bool
    hit: Optional[bool] = None
    tensors: int = 0
    plan_cost: int = 0
    plan_peak: int = 0
    max_intermediate: int = 0
    terms: int = 0
    max_nodes: int = 0
    #: the contracted network and its plan (alg1: the template's)
    network: object = None
    plan: object = None


class TracedPath:
    """Replays one workload's Engine path layer by layer.

    Owns a fresh backend (no plan cache, so every new structure plans)
    and a fresh cache in ``cache_dir``.  A workload whose path skips the
    cache (fidelity-mode checks are never cached) still has its inputs
    and plans looked up and stored, in a ``probe`` span after the check,
    so the cache layer is measured on every workload; probe spans count
    in no share.
    """

    def __init__(self, workload, cache_dir: str):
        self.workload = workload
        self.config = CheckConfig(**workload.engine)
        self.backend = CheckSession(self.config).backend
        self.cache = CheckCache.open(cache_dir)
        self.tracer = Tracer()
        self._ideals: Dict[object, object] = {}

    def check(self, request_id: int, request, fill: bool) -> TracedCheck:
        span = self.tracer.span
        on_path = self.workload.cache
        with span("check", request_id, fill=fill):
            with span("resolve", request_id):
                ideal = self._ideals.get(request.ideal)
                if ideal is None:
                    ideal = self._ideals[request.ideal] = request.ideal.resolve()
                noisy = apply_noise(request.noise, ideal)
            config = request.resolve_config(self.config)
            if on_path:
                key, cached = self._lookup(request_id, ideal, noisy, config)
                if cached is not None:
                    return TracedCheck(request_id, cached.fidelity, fill, hit=True)
            if config.algorithm == "alg1":
                out = self._alg1(request_id, config, ideal, noisy, fill)
            else:
                out = self._alg2(request_id, config, ideal, noisy, fill)
            if on_path:
                out.hit = False
                self._store(request_id, key, config, out)
        if not on_path:
            with span("probe", request_id):
                key, _ = self._lookup(request_id, ideal, noisy, config)
                self._store(request_id, key, config, out)
                with span("cache.plan_get", request_id):
                    self.cache.plans.get(out.network, **_knobs(config))
                self._store_plan(request_id, config, out.network, out.plan)
        return out

    def _lookup(self, request_id, ideal, noisy, config):
        with self.tracer.span("cache.fingerprint", request_id):
            key = self.cache.results.key_for(ideal, noisy, config)
        with self.tracer.span("cache.get", request_id):
            return key, self.cache.results.get(key)

    def _store(self, request_id, key, config, out: "TracedCheck") -> None:
        result = CheckResult(
            equivalent=out.fidelity > 1.0 - config.epsilon,
            epsilon=config.epsilon,
            fidelity=out.fidelity,
            is_lower_bound=False,
        )
        with self.tracer.span("cache.put", request_id):
            self.cache.results.put(key, result)

    def _store_plan(self, request_id, config, network, plan) -> None:
        with self.tracer.span("cache.plan_put", request_id):
            self.cache.plans.put(network, plan, **_knobs(config))

    def _plan(self, request_id, config, network):
        """Plan as the Engine's backend does (``plan_for``): through the
        shared plan cache when caching is on."""
        plan = None
        if self.workload.cache:
            with self.tracer.span("cache.plan_get", request_id):
                plan = self.cache.plans.get(network, **_knobs(config))
        if plan is None:
            with self.tracer.span("plan.build", request_id):
                plan = self.backend.plan_for(network)
            if self.workload.cache:
                self._store_plan(request_id, config, network, plan)
        return plan

    def _alg2(self, request_id, config, ideal, noisy, fill) -> TracedCheck:
        with self.tracer.span("network.build", request_id):
            network = alg2_trace_network(noisy, ideal)
        plan = self._plan(request_id, config, network)
        stats = ContractionStats()
        with self.tracer.span("execute", request_id):
            value = self.backend.contract_scalar(network, plan=plan, stats=stats)
        dim = 2**ideal.num_qubits
        return TracedCheck(
            request_id,
            min(max(value.real / (dim * dim), 0.0), 1.0),
            fill,
            tensors=len(network.tensors),
            plan_cost=plan.total_cost(),
            plan_peak=plan.peak_size(),
            max_intermediate=stats.max_intermediate_size,
            network=network,
            plan=plan,
        )

    def _alg1(self, request_id, config, ideal, noisy, fill) -> TracedCheck:
        span = self.tracer.span
        with span("network.build", request_id):
            template = alg1_template(noisy, ideal)
        if template is None:
            # a noise on an otherwise idle wire: Algorithm I builds every
            # term's network afresh, and so does this path
            first = tuple(0 for _ in noisy.noise_instructions())
            network = alg1_trace_network(
                lower_kraus_selection(noisy, first), ideal
            )
            shared = None
        else:
            network = template.network
            shared = {id(t) for t in network.tensors}
        plan = self._plan(request_id, config, network)
        stats = ContractionStats()
        total, terms = 0.0, 0
        with span("alg1.terms", request_id):
            for selection in enumerate_selections(noisy):
                if template is not None:
                    term = template.instantiate(selection)
                else:
                    term = alg1_trace_network(
                        lower_kraus_selection(noisy, selection), ideal
                    )
                with span("execute", request_id):
                    trace = self.backend.contract_scalar(
                        term, plan=plan, stats=stats,
                        cacheable_tensor_ids=shared,
                    )
                total += abs(trace) ** 2
                terms += 1
        dim = 2**ideal.num_qubits
        return TracedCheck(
            request_id,
            min(total / (dim * dim), 1.0),
            fill,
            tensors=len(network.tensors),
            plan_cost=plan.total_cost() * terms,
            plan_peak=plan.peak_size(),
            max_intermediate=stats.max_intermediate_size,
            terms=terms,
            max_nodes=stats.max_nodes,
            network=network,
            plan=plan,
        )


def _knobs(config) -> Dict[str, object]:
    """The planning knobs a plan-cache key covers."""
    return {
        "planner": config.planner,
        "order_method": config.order_method,
        "max_intermediate_size": config.max_intermediate_size,
        "plan_budget_seconds": config.plan_budget_seconds,
        "plan_seed": config.plan_seed,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    path: TracedPath, checks: List[TracedCheck], latency: Dict[int, float]
) -> Dict[str, float]:
    """Per-layer metrics of a traced pass.

    ``latency`` maps a request id to its untraced ``Engine.respond``
    latency on the twin Engine.  Shares and ``api.self_s`` use the
    timed-path checks only (a replay workload's set-up pass is where its
    network, plan, execute and put layers run; their times come from
    there).
    """
    spans = path.tracer.spans
    by_id = {s.span_id: s for s in spans}
    roots = {s.request_id: s for s in spans if s.name == "check"}
    def root(s: Span) -> Span:
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    per_check: Dict[int, Dict[str, float]] = {}
    probes: Dict[str, List[float]] = {}
    for s in spans:
        if s.parent is not None and root(s).name == "probe":
            probes.setdefault(s.name, []).append(s.seconds)
        elif s.name not in ("check", "probe"):
            slot = per_check.setdefault(s.request_id, {})
            slot[s.name] = slot.get(s.name, 0.0) + s.seconds
    top: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None and by_id[s.parent].name == "check":
            top[s.request_id] = top.get(s.request_id, 0.0) + s.seconds
    timed = [c.request_id for c in checks if not c.fill]

    def median_of(name: str) -> float:
        values = [v[name] for v in per_check.values() if name in v]
        return _median(values or probes.get(name, ()))

    def share(name: str) -> float:
        used = sum(per_check.get(r, {}).get(name, 0.0) for r in timed)
        return used / sum(latency[r] for r in timed)

    executed = [c for c in checks if c.plan_cost]
    execute_total = sum(per_check[c.request_id]["execute"] for c in executed)
    gets = [c.hit for c in checks if not c.fill and c.hit is not None]
    terms = sum(c.terms for c in checks)
    api_self = [latency[r] - top.get(r, 0.0) for r in timed]
    metrics = {
        "api.self_s": _median(api_self),
        "resolve.s": median_of("resolve"),
        "cache.fingerprint_s": median_of("cache.fingerprint"),
        "cache.get_s": median_of("cache.get"),
        "cache.put_s": median_of("cache.put"),
        "cache.plan_get_s": median_of("cache.plan_get"),
        "cache.plan_put_s": median_of("cache.plan_put"),
        "cache.hit_ratio": sum(gets) / len(gets) if gets else 0.0,
        "network.build_s": median_of("network.build"),
        "network.tensors": _median(c.tensors for c in executed),
        "plan.build_s": median_of("plan.build"),
        "plan.cost": sum(c.plan_cost for c in executed),
        "plan.peak_size": max((c.plan_peak for c in executed), default=0),
        "execute.s": median_of("execute"),
        "execute.gflops": (
            sum(c.plan_cost for c in executed) / execute_total / 1e9
            if execute_total else 0.0
        ),
        "execute.max_intermediate": max(
            (c.max_intermediate for c in executed), default=0
        ),
        "tdd.max_nodes": max((c.max_nodes for c in checks), default=0),
        "tdd.unique_nodes": (
            path.backend.manager.num_unique_nodes()
            if getattr(path.backend, "manager", None) is not None else 0
        ),
        "alg1.terms": terms,
        "alg1.term_s": (
            sum(per_check[c.request_id]["alg1.terms"] for c in checks if c.terms)
            / terms if terms else 0.0
        ),
        "trace.overhead": (
            _median(roots[r].seconds for r in timed)
            / _median(latency[r] for r in timed) - 1.0
        ),
        "share.api": sum(api_self) / sum(latency[r] for r in timed),
    }
    for name in ("resolve", "cache.fingerprint", "cache.get", "cache.put",
                 "cache.plan_get", "cache.plan_put", "network.build",
                 "plan.build", "execute", "alg1.terms"):
        metrics[f"share.{name}"] = share(name)
    return metrics


def spans_as_json(path: TracedPath) -> List[dict]:
    return [
        {
            "name": s.name, "request_id": s.request_id, "id": s.span_id,
            "parent": s.parent, "start_ns": s.start_ns, "end_ns": s.end_ns,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in path.tracer.spans
    ]
