"""Runs one workload and reports its end-to-end or per-layer metrics.

Untraced runs (``--trace 0``) give the end-to-end metrics.  They run
fresh rounds of the workload's fixed simulated window, as many as fit
``--seconds`` on the reference host, timing each build as set-up.  Two
light hooks stay on while a round runs: a `SliceClock` cut at each slice
boundary (a group of tracked-session ticks, or an epoch start) and a
timer around `Controller.run_epoch`.  `sim_rate` is the median of the
per-slice rates, each scaled by the host speed probed beside it.

Traced runs (``--trace 1``) run one untraced round and then one traced
round of the same window.  The traced round wraps the public entry
points of each layer (see `LAYERS`) in spans; the spans are written
once, at the end, under ``.perfbench/traces/``.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.controlplane import controller as controller_mod
from repro.controlplane.controller import Controller
from repro.controlplane.incremental import IncrementalEngine
from repro.controlplane.membership import MembershipTable
from repro.controlplane.nib import NetworkInformationBase
from repro.core import simulator as simulator_mod
from repro.core.eventsim import EventDrivenXRON
from repro.core.service import XRONService
from repro.core.simulator import EpochSimulator
from repro.dataplane.cluster import RegionCluster
from repro.dataplane.gateway import Gateway
from repro.dataplane.grouping import ProbingGroupManager
from repro.obs.slo import SLOEngine
from repro.qoe.video import stall_ratio
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.install import TwoPhaseInstaller
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkProcess
from repro.underlay.topology import Underlay

from spans import Patches, SpanRecorder
from workloads import FAULT_KINDS, WORKLOADS, Outcome

#: Set-up is timed at least this many times per run (once per round,
#: plus builds that are closed unrun), and until the builds add up to
#: `SETUP_MIN_S`, so that millisecond builds still give a steady median.
SETUP_SAMPLES = 5
SETUP_MIN_S = 1.0

#: `reference_work` seconds on the reference host (2-core Xeon @ 2.1 GHz,
#: Python 3.11, NumPy 2.4): wall metrics are scaled to this host speed.
REFERENCE_S = 0.0072

#: Layer spans: (metric name, owner, attribute).  The controller-step
#: spans wrap both the monolithic functions `Controller.run_epoch` calls
#: and the `IncrementalEngine` methods it calls instead in incremental
#: mode.  Root spans (the engine drivers) come last.
LAYERS: List[Tuple[str, Any, str]] = [
    ("dataplane.probe_round", RegionCluster, "probe_round"),
    ("dataplane.probe_all", Gateway, "probe_all"),
    ("underlay.link_eval", LinkProcess, "latency_ms"),
    ("underlay.link_eval", LinkProcess, "loss_rate"),
    ("dataplane.aggregate", ProbingGroupManager, "aggregate"),
    ("controlplane.nib_ingest", NetworkInformationBase, "update_many"),
    ("underlay.snapshot", Underlay, "snapshot"),
    ("controlplane.epoch", Controller, "run_epoch"),
    ("controlplane.path_control", controller_mod, "path_control"),
    ("controlplane.path_control", IncrementalEngine, "path_control"),
    ("controlplane.capacity", controller_mod, "capacity_control"),
    ("controlplane.capacity", IncrementalEngine, "capacity_control"),
    ("controlplane.reaction_plans", controller_mod,
     "generate_reaction_plans"),
    ("controlplane.reaction_plans", IncrementalEngine, "reaction_plans"),
    ("traffic.matrix", TrafficMatrix, "from_model"),
    ("dataplane.path_series", simulator_mod, "effective_path_series"),
    ("dataplane.burst_series", simulator_mod, "burst_series"),
    ("dataplane.install", RegionCluster, "install"),
    ("dataplane.resolve", RegionCluster, "resolve"),
    ("dataplane.flush_passive", RegionCluster, "flush_passive"),
    ("resilience.validate", TwoPhaseInstaller, "validate"),
    ("resilience.checkpoint", Checkpoint, "dumps"),
    ("controlplane.membership_refresh", MembershipTable, "refresh"),
    ("obs.slo_observe", SLOEngine, "observe"),
    ("core.eventsim", EventDrivenXRON, "run"),
    ("core.simulator", EpochSimulator, "run"),
    ("core.service", XRONService, "run"),
]

REUSE_TIERS = ("identical", "masked", "warm", "cold")

#: Count-only per-layer metrics, read off results or span boundaries.
COUNTS = (["dataplane.probe_bursts", "controlplane.nib_ingest.reports",
           "resilience.checkpoint.bytes", "sim.events", "sim.unbound_ticks",
           "controlplane.reuse.epochs"]
          + [f"controlplane.reuse.{tier}" for tier in REUSE_TIERS]
          + [f"resilience.installs.{k}" for k in
             ("committed", "rejected", "retried", "abandoned", "attempts")]
          + [f"faults.{kind}" for kind in FAULT_KINDS])

#: End-to-end metrics in the final JSON line: (name, unit).  The modeled
#: ones (`Ledger.modeled`) are printed, not gated: see README.md.
END_TO_END = [("sim_rate", "sim_s/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("control_epoch_p50_s", "s")]


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports: (name, unit)."""
    names: List[Tuple[str, str]] = []
    for layer in dict.fromkeys(name for name, __, __ in LAYERS):
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [(name, "count") for name in COUNTS]
    names += [("controlplane.reuse_hit_ratio", "ratio"),
              ("resilience.commit_ratio", "ratio"),
              ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
              ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s")]
    return names


def reference_work() -> float:
    """Wall seconds of a fixed probe of host speed.

    Interpreter-bound work with small-array NumPy calls -- the same mix
    as the probing path (`np.median` over a few values, scalar reads).
    """
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(300):
        acc += float(np.median(x[i % 7:i % 7 + 3])) + float(x[i % 64])
    return time.perf_counter() - t0


class SliceClock:
    """Cuts a round into slices and probes host speed around and inside them.

    A slice closes every `ticks_per_slice` ticks of the workload's tick
    hook.  At each cut the clock runs `reference_work`, and a workload
    whose slices last seconds also probes every `n` calls of its
    `probe_hook`, so a slice's host speed is the mean of the probes on
    both sides of it and inside it.  Probe time is kept out of the
    slices' wall time.  Epoch workloads tick at each epoch start: the
    first tick opens the round, and a final cut closes the last epoch.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ticks = 0
        self.calls = 0
        #: Probes taken inside the open slice, and their wall seconds.
        self._inside: List[float] = []
        self._inside_wall = 0.0
        #: (wall before the probe, wall after it, probes, probe wall
        #: inside the slice this cut closes)
        self.cuts: List[Tuple[float, float, List[float], float]] = []
        #: Wall seconds of each `Controller.run_epoch` call.
        self.epochs: List[float] = []

    def cut(self) -> None:
        t0 = time.perf_counter()
        probe = reference_work()
        self.cuts.append((t0, time.perf_counter(), self._inside + [probe],
                          self._inside_wall))
        self._inside, self._inside_wall = [], 0.0

    def tick(self) -> None:
        self.ticks += 1
        if self.workload.epoch_ticks and self.ticks == 1:
            return
        if self.ticks % self.workload.ticks_per_slice == 0:
            self.cut()

    def probe_call(self) -> None:
        self.calls += 1
        if self.calls % self.workload.probe_hook[2] == 0:
            t0 = time.perf_counter()
            self._inside.append(reference_work())
            self._inside_wall += time.perf_counter() - t0

    def probes(self) -> List[float]:
        return [p for cut in self.cuts for p in cut[2]]

    def slices(self) -> List[Tuple[float, float]]:
        """(wall seconds, mean probe seconds) of each closed slice."""
        return [(a1 - b0 - inside_wall,
                 statistics.fmean([probes0[-1]] + probes1))
                for (a0, b0, probes0, __), (a1, b1, probes1, inside_wall)
                in zip(self.cuts, self.cuts[1:])]

    def patches(self) -> Patches:
        clock, epochs = time.perf_counter, self.epochs

        def calling(hook: Callable[[], None]) -> Callable:
            def make(fn: Callable) -> Callable:
                def wrapper(*args, **kwargs):
                    hook()
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def timed(fn: Callable) -> Callable:
            def timer(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    epochs.append(clock() - t0)
            return timer

        wl = self.workload
        patches = [(wl.tick[0], wl.tick[1], calling(self.tick)),
                   (Controller, "run_epoch", timed)]
        if wl.probe_hook is not None:
            patches.append((wl.probe_hook[0], wl.probe_hook[1],
                            calling(self.probe_call)))
        return Patches(patches)


class Ledger:
    """One workload's run: rounds, checks and the metrics they give."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        #: Wall seconds of each build, and of the host-speed probe
        #: taken just before it.
        self.setup_s: List[float] = []
        self.setup_probes: List[float] = []
        self.checks: List[Tuple[str, bool, str]] = []
        self.outcomes: List[Outcome] = []
        self.info = ""

    def build(self):
        self.setup_probes.append(reference_work())
        t0 = time.perf_counter()
        case = self.workload.build(self.seed, self.scratch)
        self.setup_s.append(time.perf_counter() - t0)
        return case

    def round(self, case, patches: Patches,
              on_end: Callable[[], None] = lambda: None
              ) -> Tuple[float, float]:
        """Run one built round under `patches`; returns (start, end)."""
        try:
            with patches:
                t0 = time.perf_counter()
                result = case.run()
                t1 = time.perf_counter()
                on_end()
        finally:
            case.close()
        outcome = self.workload.outcome(case, result)
        self.outcomes.append(outcome)
        self.checks += outcome.checks
        return t0, t1

    def finish_checks(self) -> None:
        digests = {o.digest for o in self.outcomes}
        self.checks.append((
            "every round repeats byte-identically", len(digests) == 1,
            f"{len(self.outcomes)} rounds, {len(digests)} digest(s)"))

    # --------------------------------------------------------------- report
    def totals(self) -> Tuple[bool, int, int]:
        attempted = sum(o.attempted for o in self.outcomes)
        failed = sum(o.failed for o in self.outcomes)
        failed_checks = sum(1 for __, ok, __ in self.checks if not ok)
        return failed_checks == 0, max(attempted, 1), failed + failed_checks

    def modeled(self) -> Dict[str, Tuple[float, str, str]]:
        """Modeled end-to-end metrics of the first round."""
        o = self.outcomes[0]
        n = o.latency_ms.size
        p50, p95 = np.percentile(o.latency_ms, [50, 95]) if n else (0, 0)
        return {
            "stream_latency_p50_ms": (float(p50), "ms", f"{n} samples"),
            "stream_latency_p95_ms": (float(p95), "ms", f"{n} samples"),
            "video_stall_ratio": (
                stall_ratio(o.latency_ms, o.loss_rate), "ratio",
                f"{n} samples"),
            "billed_cost_per_sim_h": (
                o.billed_cost_per_sim_h, "cost/h",
                "epoch-n50 only" if np.isnan(o.billed_cost_per_sim_h)
                else f"{o.sim_s / 3600.0:g} simulated h"),
            "failed_share": (
                (o.failed + o.modeled_failed) / max(o.attempted, 1),
                "ratio", f"{o.failed + o.modeled_failed}/{o.attempted} "
                         "ticks or pair-epochs"),
        }


def run_untraced(name: str, seed: int, seconds: float,
                 scratch: Path) -> Tuple[Ledger, Dict[str, tuple]]:
    ledger = Ledger(name, seed, scratch)
    wl = ledger.workload
    # A fixed round count per --seconds (from the round's wall time on
    # the reference host), so every run does the same work and gives
    # the same number of slices whatever the host's speed right now.
    rounds = max(1, round(seconds / wl.round_wall_s))
    while (len(ledger.setup_s) < SETUP_SAMPLES - rounds
           or sum(ledger.setup_s) < SETUP_MIN_S):
        ledger.build().close()
    raw: List[float] = []
    rates: List[float] = []
    probes: List[float] = []
    epochs: List[float] = []
    wall = sim = 0.0
    for __ in range(rounds):
        case = ledger.build()
        clock = SliceClock(wl)
        clock.cut()
        t0, t1 = ledger.round(
            case, clock.patches(),
            clock.cut if wl.epoch_ticks else lambda: None)
        for slice_wall, probe in clock.slices():
            raw.append(wl.slice_sim_s / slice_wall)
            rates.append(wl.slice_sim_s / slice_wall * probe / REFERENCE_S)
        probes += clock.probes()
        epochs += clock.epochs
        wall += t1 - t0
        sim += ledger.outcomes[-1].sim_s
    ledger.finish_checks()
    speed = REFERENCE_S / statistics.median(probes)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics: Dict[str, tuple] = {
        "sim_rate": (statistics.median(rates), "sim_s/s",
                     f"median of {len(rates)} slices of {wl.slice_sim_s:g} "
                     f"simulated s, at reference host speed"),
        "sim_rate_wall": (statistics.median(raw), "sim_s/s",
                          f"same slices, raw wall; whole window "
                          f"{sim / wall:.4g}; host speed {speed:.3f}"),
        "setup_s": (statistics.median(ledger.setup_s) * REFERENCE_S
                    / statistics.median(ledger.setup_probes), "s",
                    f"median of {len(ledger.setup_s)} builds"),
        "peak_rss_mb": (peak, "MB", "ru_maxrss"),
        "control_epoch_p50_s": (statistics.median(epochs) * speed, "s",
                                f"{len(epochs)} Controller.run_epoch calls"),
    }
    metrics.update(ledger.modeled())
    ledger.info = (f"{len(ledger.outcomes)} round(s) of {wl.window_s:g} "
                   f"simulated s, {wall:.2f} s timed")
    return ledger, metrics


def _count_reports(rec: SpanRecorder, args: tuple, result) -> None:
    rec.count("controlplane.nib_ingest.reports", len(args[1]))


def _count_bytes(rec: SpanRecorder, args: tuple, result) -> None:
    rec.count("resilience.checkpoint.bytes", len(result))


def _layer_patches(rec: SpanRecorder) -> Patches:
    hooks = {"controlplane.nib_ingest": _count_reports,
             "resilience.checkpoint": _count_bytes}
    patches = [(owner, attr, rec.wrapper(name, hooks.get(name)))
               for name, owner, attr in LAYERS]

    def tiers(fn: Callable) -> Callable:
        def classified(*args, **kwargs):
            tier = fn(*args, **kwargs)
            rec.count(f"controlplane.reuse.{tier}")
            rec.count("controlplane.reuse.epochs")
            return tier
        return classified

    patches.append((IncrementalEngine, "begin_epoch", tiers))
    return Patches(patches)


def run_traced(name: str, seed: int, scratch: Path,
               trace_path: Path) -> Tuple[Ledger, Dict[str, tuple]]:
    ledger = Ledger(name, seed, scratch)
    wl = ledger.workload
    u0, u1 = ledger.round(ledger.build(), Patches([]))
    rec = SpanRecorder()
    t0, t1 = ledger.round(ledger.build(), _layer_patches(rec))
    ledger.finish_checks()
    rec.dump(trace_path)
    counts: Dict[str, float] = {name: 0 for name in COUNTS}
    counts.update(rec.counts)
    counts.update(ledger.outcomes[-1].counts)
    metrics: Dict[str, tuple] = {}
    for layer, row in rec.layer_totals().items():
        metrics[f"{layer}.calls"] = (row["calls"], "count", "")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s",
                                      f"total {row['total_s']:.4g} s")
    for name, value in counts.items():
        metrics[name] = (value, "count", "")
    epochs = counts["controlplane.reuse.epochs"]
    hits = (counts["controlplane.reuse.identical"]
            + counts["controlplane.reuse.masked"])
    metrics["controlplane.reuse_hit_ratio"] = (
        hits / epochs if epochs else 0.0, "ratio", f"{hits}/{epochs} epochs")
    attempts = counts["resilience.installs.attempts"]
    committed = counts["resilience.installs.committed"]
    metrics["resilience.commit_ratio"] = (
        committed / attempts if attempts else 0.0, "ratio",
        f"{committed}/{attempts} install attempts")
    root_wall, coverage = rec.root_coverage()
    metrics["trace.coverage"] = (coverage, "ratio",
                                 f"of {root_wall:.4g} s in engine drivers")
    metrics["trace.overhead"] = ((t1 - t0) / (u1 - u0) - 1.0, "ratio",
                                 "traced wall / untraced wall - 1")
    metrics["trace.wall_s"] = (t1 - t0, "s", f"{len(rec.spans)} spans")
    metrics["trace.untraced_wall_s"] = (u1 - u0, "s", "same window")
    ledger.info = (f"1 untraced + 1 traced round of {wl.window_s:g} "
                   f"simulated s; spans in {trace_path}")
    return ledger, metrics
