"""The ledger's three workloads: inputs from a seed, checks, modeled outputs.

Each workload copies a configuration a real caller of the package already
uses (an example script, the planet-scale docs, the ``repro serve``
builder), generates every input -- underlay, demand, fault schedule --
from the workload seed, and hands the program only those inputs.  One
*round* is a fresh system run over a fixed simulated window; the window
is fixed so that modeled outputs, exact per-layer counts and digests
repeat byte for byte at a given seed.  All three are closed loops: the
engine fires the next simulated event only after the previous callback
returns, and nothing paces simulated time against the wall.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import cli
from repro.core import simulator as simulator_mod
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.service import ServiceConfig, XRONService, build_soak_schedule
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.faults.spec import FaultKind
from repro.obs.slo import SLOEngine
from repro.qoe.metrics import qoe_badness
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.config import UnderlayConfig
from repro.underlay.planet import build_planet_underlay
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay

FAULT_KINDS = [kind.value for kind in FaultKind]


@dataclass
class Case:
    """One built round: the system, how to run it and how to close it."""

    system: Any
    run: Callable[[], Any]
    close: Callable[[], None]
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one round produced, as the ledger reports it."""

    #: (check name, passed, detail) -- every check must hold for any seed.
    checks: List[Tuple[str, bool, str]]
    #: Operations attempted: tracked-session measurement ticks (bound to
    #: a stream or not), or evaluated pair-epochs.
    attempted: int
    #: Operations that failed a correctness check.
    failed: int
    #: Operations that failed by design: ticks blackholed by a fault.
    modeled_failed: int
    #: Modeled end-to-end samples: latency (ms) and loss rate.
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    #: Exact counts read off the result (probe bursts, faults, installs).
    counts: Dict[str, float]
    #: sha256 over the modeled outputs (not gated; read across commits).
    digest: str
    #: Simulated seconds the round covered.
    sim_s: float
    billed_cost_per_sim_h: float = float("nan")


def _digest(parts: List[Any]) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _sessions(result) -> Tuple[int, int, np.ndarray, np.ndarray, str]:
    """Measured and blackholed ticks, modeled samples and the digest."""
    sessions = [result.sessions[pair] for pair in sorted(result.sessions)]
    measured = sum(len(r.times) for r in sessions)
    blackholed = sum(len(r.blackholed) for r in sessions)
    lat = np.array([x for r in sessions for x in r.latency_ms], dtype=float)
    loss = np.array([x for r in sessions for x in r.loss_rate], dtype=float)
    parts: List[Any] = [len(result.control_outputs), result.probe_bytes,
                        result.fault_counters, result.resilience_counters,
                        result.partition_counters]
    for r in sessions:
        parts += [list(r.pair), r.times, r.latency_ms, r.loss_rate,
                  r.on_backup, r.hop_counts, r.blackholed]
    return measured, blackholed, lat, loss, _digest(parts)


def _probe_bursts(system: EventDrivenXRON, probe_bytes: int) -> int:
    mon = system.sim_config.monitoring
    return probe_bytes // (mon.packets_per_burst * mon.packet_bytes)


class EventN11:
    name = "event-n11"
    why = ("EventDrivenXRON, 11 regions, as examples/planetary_event_sim.py "
           "runs it, calm: the probing-bound engine, where batched probing "
           "must show its gain")
    #: 10:00 in the China regions, the first daily peak (as the example).
    start_s = 2.0 * 3600.0
    window_s = 60.0
    #: Wall seconds of one round on the reference host.
    round_wall_s = 12.0
    #: Slice boundaries: every tracked-session measurement tick (1 s).
    tick = (EventDrivenXRON, "_measure")
    epoch_ticks = False
    ticks_per_slice = 5
    slice_sim_s = 5.0
    #: (owner, attribute, every n calls) probing host speed inside a
    #: slice; None when slices are short enough to probe at cuts only.
    probe_hook = None

    def build(self, seed: int, scratch: Path) -> Case:
        regions = default_regions()
        underlay = build_underlay(regions,
                                  UnderlayConfig(horizon_s=6 * 3600.0),
                                  seed=seed)
        demand = DemandModel(regions, seed=seed)
        system = EventDrivenXRON(
            underlay, demand,
            sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=10.0,
                                        seed=seed, initial_gateways=2))
        return Case(system, lambda: system.run(self.start_s, self.window_s),
                    system.close)

    def outcome(self, case: Case, result) -> Outcome:
        system = case.system
        measured, blackholed, lat, loss, digest = _sessions(result)
        outputs = result.control_outputs
        epochs = int(self.window_s // system.sim_config.epoch_s) + 1
        codes = set(system.underlay.codes)
        tables_ok = (len(outputs) == epochs and all(
            set(out.path_result.forwarding_tables) == codes
            and any(out.path_result.forwarding_tables.values())
            for out in outputs))
        # Without faults or two-phase installs a tracked session rides
        # the stream its pair was assigned in the latest epoch at or
        # before the tick, and has no stream when the pair went
        # unassigned (capacity): such ticks are not measured at all.
        starts = [out.epoch_start for out in outputs]
        assigned = [{(a.stream.src, a.stream.dst)
                     for a in out.path_result.assignments} for out in outputs]
        step = system.measure_interval_s
        ticks = [self.start_s + k * step
                 for k in range(1, int(round(self.window_s / step)) + 1)]
        bound = sum(pair in assigned[bisect.bisect_right(starts, t) - 1]
                    for t in ticks for pair in result.sessions)
        checks = [
            ("every epoch yields forwarding tables", tables_ok,
             f"{len(outputs)}/{epochs} epochs"),
            ("every bound tracked session measured on every tick",
             measured + blackholed == bound,
             f"{measured + blackholed}/{bound} bound ticks; "
             f"{len(ticks) * len(result.sessions) - bound} unbound ticks"),
            ("no blackholed tick in a calm run", blackholed == 0,
             f"{blackholed} blackholed"),
        ]
        return Outcome(
            checks, len(ticks) * len(result.sessions), abs(bound - measured),
            0, lat, loss,
            {"dataplane.probe_bursts":
                 _probe_bursts(system, result.probe_bytes),
             "sim.events": result.events_processed,
             "sim.unbound_ticks": len(ticks) * len(result.sessions) - bound},
            digest, self.window_s)


class EpochN50:
    name = "epoch-n50"
    why = ("EpochSimulator, xron(), 50 planet regions, cohorts + incremental "
           "control: the day-scale engine, spread over path series, demand "
           "matrix and live warm-tier epochs")
    start_s = 0.0
    epoch_s = 300.0
    #: One cold and two warm epochs: with more warm than cold epochs the
    #: median control epoch is a warm one, not the mean of the two kinds.
    window_s = 900.0
    round_wall_s = 15.0
    #: Slice boundaries: each epoch starts with one demand matrix.
    tick = (TrafficMatrix, "from_model")
    epoch_ticks = True
    ticks_per_slice = 1
    slice_sim_s = 300.0
    #: An epoch slice lasts seconds: probe every 245 of its 2450 pair
    #: evaluations as well.
    probe_hook = (simulator_mod, "effective_path_series", 245)

    def build(self, seed: int, scratch: Path) -> Case:
        underlay = build_planet_underlay(
            50, seed=seed, underlay_config=UnderlayConfig(
                horizon_s=self.start_s + self.window_s + self.epoch_s))
        demand = DemandModel(underlay.regions, seed=seed)
        system = EpochSimulator(
            underlay, demand, xron(),
            sim_config=SimulationConfig(
                epoch_s=self.epoch_s, eval_step_s=30.0, seed=seed,
                stream_cohorts=True, control_mode="incremental"))
        return Case(system, lambda: system.run(self.start_s, self.window_s),
                    system.close)

    def outcome(self, case: Case, result) -> Outcome:
        n_epochs = result.epoch_starts.size
        steps = int(round(result.epoch_s / result.eval_step_s))
        lat = result.latency_ms.astype(float)
        loss = result.loss_rate.astype(float)
        finite = (np.isfinite(lat) & np.isfinite(loss)
                  ).reshape(len(result.pairs), n_epochs, steps).all(axis=2)
        attempted = int(finite.size)
        failed = attempted - int(finite.sum())
        expected = int(np.ceil(self.window_s / self.epoch_s))
        checks = [
            ("every pair has finite latency samples in every epoch",
             failed == 0 and n_epochs == expected,
             f"{attempted - failed}/{attempted} pair-epochs, "
             f"{n_epochs}/{expected} epochs"),
        ]
        cost = result.ledger.breakdown().total
        digest = _digest([result.latency_ms, result.loss_rate,
                          result.on_backup, result.demand_mbps,
                          result.containers, repr(cost)])
        return Outcome(checks, attempted, failed, 0, lat.ravel(),
                       loss.ravel(), {}, digest,
                       n_epochs * self.epoch_s,
                       billed_cost_per_sim_h=cost / (
                           n_epochs * self.epoch_s / 3600.0))


class ServeChaosN5:
    name = "serve-chaos-n5"
    why = ("XRONService as 'repro serve --chaos --slo --regions 5' builds it, "
           "unpaced, every fault kind scheduled: probing plus the install, "
           "checkpoint, membership and regional write paths")
    window_s = 540.0
    round_wall_s = 22.0
    #: Dense soak rotation: one fault every 30 s from t=60 s, so all ten
    #: kinds start by t=330 s and the last window closes inside the run.
    chaos_period_s = 30.0
    chaos_lead_s = 60.0
    tick = (EventDrivenXRON, "_measure")
    epoch_ticks = False
    ticks_per_slice = 20
    slice_sim_s = 20.0
    probe_hook = None

    def build(self, seed: int, scratch: Path) -> Case:
        args = argparse.Namespace(regions=5, hours=0.0,
                                  minutes=self.window_s / 60.0,
                                  epoch_s=60.0, seed=seed)
        schedule = build_soak_schedule(
            0.0, self.window_s, cli._serve_region_codes(args),
            period_s=self.chaos_period_s, lead_s=self.chaos_lead_s)
        engine = SLOEngine(badness=qoe_badness())
        system, __ = cli._build_serve_system(args, engine, schedule)
        envelope = scratch / f"serve-envelope-{seed}.json"
        service = XRONService(system, ServiceConfig(
            duration_s=self.window_s, compress=0.0,
            checkpoint_path=envelope))
        # Looked up at call time, so a traced round sees the wrapped run.
        return Case(system, lambda: service.run(), engine.close,
                    {"schedule": schedule, "envelope": envelope,
                     "seed": seed})

    def outcome(self, case: Case, result) -> Outcome:
        system = case.system
        ev = result.eventsim
        measured, blackholed, lat, loss, digest = _sessions(ev)
        ticks = int(round(self.window_s / system.measure_interval_s))
        by_kind = system._injector.counters.by_kind()
        scheduled = sorted({spec.kind.value
                            for spec in case.extra["schedule"].specs})
        # platform_load is left out on purpose: serve builds static
        # fleets (elastic=False), so ContainerPool.scale_to never runs
        # and no load spike can apply (see perfbench/README.md).
        silent = [kind for kind in scheduled
                  if kind != FaultKind.PLATFORM_LOAD.value
                  and by_kind[kind] == 0]
        parts = ev.partition_counters
        res = ev.resilience_counters
        envelope = XRONService.load_envelope(case.extra["envelope"])
        checks = [
            ("service completed its window",
             result.stop_reason == "completed", result.stop_reason),
            ("service drained", result.drained, str(result.drained)),
            ("partitions healed == partitions started",
             parts["partitions_started"] >= 1
             and parts["partitions_healed"] == parts["partitions_started"],
             f"{parts['partitions_healed']}/{parts['partitions_started']}"),
            ("at least one install committed",
             res["installs_committed"] >= 1,
             f"{res['installs_committed']} committed"),
            ("every scheduled fault kind but platform_load fired",
             len(scheduled) == len(FAULT_KINDS) and not silent,
             f"{len(scheduled)} kinds scheduled, silent: {silent}"),
            ("checkpoint envelope persisted",
             envelope.get("seed") == case.extra["seed"],
             str(case.extra["envelope"].name)),
        ]
        attempts = (res["installs_committed"] + res["installs_rejected"]
                    + res["installs_deferred"])
        counts: Dict[str, float] = {
            "dataplane.probe_bursts": _probe_bursts(system, ev.probe_bytes),
            "sim.events": result.events_processed,
            "resilience.installs.committed": res["installs_committed"],
            "resilience.installs.rejected": res["installs_rejected"],
            "resilience.installs.retried": res["installs_retried"],
            "resilience.installs.abandoned": res["installs_abandoned"],
            "resilience.installs.attempts": attempts,
        }
        for kind in FAULT_KINDS:
            counts[f"faults.{kind}"] = by_kind[kind]
        counts["sim.unbound_ticks"] = (ticks * len(ev.sessions) - measured
                                       - blackholed)
        return Outcome(checks, ticks * len(ev.sessions), 0, blackholed, lat,
                       loss, counts, digest, self.window_s)


WORKLOADS = {w.name: w for w in (EventN11(), EpochN50(), ServeChaosN5())}
