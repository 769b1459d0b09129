"""Event-driven XRON deployment.

Where `EpochSimulator` evaluates paths analytically on a grid, this
module runs the actual moving parts on the discrete-event engine:

* every 400 ms each region cluster's *representative* gateways send
  probe bursts; group state is aggregated, distributed to members and
  reported to the NIB (§4.1);
* every second, tracked video sessions are forwarded hop by hop through
  the gateways' live forwarding tables — including any local fast
  reaction decisions (§4.3) — and the resulting end-to-end latency/loss
  is measured; the data packets feed passive tracking;
* every few seconds gateways fold passive windows into their estimators;
* every control epoch the controller recomputes paths, reaction plans
  and capacity from the NIB/SIB, tables are installed cluster-wide, and
  container pools scale (with provisioning delays) before the cluster
  fleet follows (§5).

It is slower per simulated second than the epoch simulator and meant
for minutes-scale studies of the *mechanisms* (detection timing, control
loop interplay), not day-scale statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.controller import Controller, ControlOutput
from repro.controlplane.membership import MembershipConfig, MembershipTable
from repro.controlplane.model import ControlConfig
from repro.controlplane.regional import (PartitionCounters,
                                         RegionalControlConfig,
                                         RegionalController)
from repro.core.config import SimulationConfig
from repro.core.variants import VariantSpec, xron
from repro.dataplane.cluster import RegionCluster
from repro.dataplane.gateway import Gateway
from repro.elastic.containers import ContainerPool
from repro.faults.runtime import FaultInjector, truncate_install
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.obs import telemetry as _telemetry
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.config import ResilienceConfig
from repro.resilience.install import ResilienceCounters, TwoPhaseInstaller
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.rng import RngStreams
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import RegionPair
from repro.underlay.topology import Underlay

#: Packets per tracked session per measurement tick (passive tracking).
_PACKETS_PER_TICK = 50

_TEL = _telemetry()


@dataclass
class SessionRecord:
    """Measured samples of one tracked session."""

    pair: RegionPair
    times: List[float] = field(default_factory=list)
    latency_ms: List[float] = field(default_factory=list)
    loss_rate: List[float] = field(default_factory=list)
    on_backup: List[bool] = field(default_factory=list)
    hop_counts: List[int] = field(default_factory=list)
    #: Measurement instants where the session could NOT be walked to its
    #: destination (missing table row or routing loop): the stream was
    #: blackholed for that tick.
    blackholed: List[float] = field(default_factory=list)

    def latency_array(self) -> np.ndarray:
        return np.asarray(self.latency_ms)

    def backup_fraction(self) -> float:
        return float(np.mean(self.on_backup)) if self.on_backup else 0.0

    def blackholed_seconds(self, measure_interval_s: float) -> float:
        """Blackholed-stream-seconds: failed walks x the tick length."""
        return len(self.blackholed) * measure_interval_s

    def flap_count(self) -> int:
        """Number of normal->backup transitions in the measured series."""
        flaps = 0
        previous = False
        for backed in self.on_backup:
            if backed and not previous:
                flaps += 1
            previous = backed
        return flaps


@dataclass
class EventSimResult:
    sessions: Dict[RegionPair, SessionRecord]
    control_outputs: List[ControlOutput]
    probe_bytes: int
    detections: int
    gateway_counts: Dict[str, int]
    events_processed: int
    #: What the fault injector actually did (None without a schedule).
    fault_counters: Optional[Dict[str, int]] = None
    #: What the resilience layer actually did (None when disabled).
    resilience_counters: Optional[Dict[str, int]] = None
    #: Soft-state membership activity (None when disabled).
    membership_counters: Optional[Dict[str, int]] = None
    #: Partition-tolerance activity (None without regional control).
    partition_counters: Optional[Dict[str, int]] = None


class EventDrivenXRON:
    """The full system on the event engine."""

    def __init__(self, underlay: Underlay, demand: DemandModel,
                 variant: Optional[VariantSpec] = None,
                 sim_config: Optional[SimulationConfig] = None,
                 control_config: Optional[ControlConfig] = None,
                 tracked_pairs: Optional[List[RegionPair]] = None,
                 measure_interval_s: float = 1.0,
                 passive_flush_s: float = 5.0,
                 faults: Optional[FaultSchedule] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 sib_params: Optional[Dict[str, int]] = None,
                 slo: Optional[object] = None,
                 membership: Optional[MembershipConfig] = None,
                 regional: Optional[RegionalControlConfig] = None):
        """`faults` is a declarative `FaultSchedule` of timed failures
        (gateway crashes, probe blackouts, NIB report loss/staleness,
        delayed/partial installs, provisioning storms, controller
        outages) injected deterministically during the run.  An empty or
        absent schedule leaves the simulation byte-identical to a build
        without the fault subsystem.

        `resilience` arms the safe-update & recovery layer
        (`repro.resilience`): versioned two-phase installs validated
        against the routing invariants, controller checkpoint/warm
        restart across outages, degraded-mode forwarding on stale
        tables, and failover hysteresis.  An absent or disabled config
        leaves the run byte-identical to a build without the layer.

        `sib_params` overrides the controller's SIB keyword arguments
        (``history_slots``, ``refit_every``, ``min_history``) so
        short-epoch deployments can fit the demand model within the run.

        `slo` is an optional `repro.obs.slo.SLOEngine` fed every
        tracked-session measurement sample (latency/loss, or the
        blackholed flag).  The engine is a passive observer: it draws
        no randomness and never touches simulator state, so arming it
        leaves simulation output byte-identical.

        `membership` arms the controller's soft-state gateway liveness
        (`repro.controlplane.membership`): probe-report batches that
        reach the controller refresh TTL'd entries, expiry demotes a
        silent region out of global path control.  `regional` arms
        per-partition degraded-mode sub-controllers
        (`repro.controlplane.regional`), which need the resilience
        layer — heal-time reconciliation rides the two-phase install
        versioning.  Both are off by default and normalize to ``None``
        so disabled runs stay byte-identical to a build without them."""
        self.underlay = underlay
        self.demand = demand
        self.variant = variant if variant is not None else xron()
        if not self.variant.overlay_relaying:
            raise ValueError(
                "the event simulator models the overlay variants; use "
                "EpochSimulator for the direct-path baselines")
        self.sim_config = (sim_config if sim_config is not None
                           else SimulationConfig())
        self.control_config = (control_config if control_config is not None
                               else ControlConfig())
        self.measure_interval_s = measure_interval_s
        self.passive_flush_s = passive_flush_s
        self._slo = slo
        schedule = faults if faults is not None else FaultSchedule.empty()
        self.faults = schedule
        self.skipped_epochs = 0
        #: Resolved resilience config; None when absent or disabled so
        #: every seam stays a single `is None` test (the byte-identical
        #: when-disabled guarantee).
        self.resilience = (resilience.resolved(self.sim_config.epoch_s)
                           if resilience is not None and resilience.enabled
                           else None)
        self._sib_params = dict(sib_params) if sib_params else None
        self._installer = (TwoPhaseInstaller(self.resilience)
                           if self.resilience is not None else None)
        self._res_counters: Optional[ResilienceCounters] = (
            self._installer.counters if self._installer is not None else None)
        #: Serialized last checkpoint (the JSON string IS the artifact a
        #: warm restart loads, so every restore exercises the round trip).
        self._checkpoint_json: Optional[str] = None
        #: Set while a modeled controller restart is owed after an outage.
        self._restart_pending = False
        self._streams = RngStreams(self.sim_config.seed)
        #: Compiled schedule the injection seams query; None when the
        #: schedule is empty so every seam stays a single `is None` test
        #: (the byte-identical no-faults guarantee).
        self._injector = (FaultInjector(schedule,
                                        rng=self._streams.get("faults"))
                          if schedule else None)
        #: Monotonic install sequence per region: a delayed install is
        #: discarded when a newer one already landed.
        self._install_seq: Dict[str, int] = {}
        self._epoch_seq = 0
        #: Soft-state membership (None when disabled: single-seam test).
        self.membership_config = (membership
                                  if membership is not None
                                  and membership.enabled else None)
        self._membership = (MembershipTable(self.membership_config)
                            if self.membership_config is not None else None)
        #: Regional degraded-mode control (None when disabled).
        self.regional_config = (regional
                                if regional is not None and regional.enabled
                                else None)
        if self.regional_config is not None and self._installer is None:
            raise ValueError(
                "regional sub-controllers need the resilience layer: "
                "heal-time reconciliation rides the two-phase install "
                "versioning (pass resilience=resilience())")
        #: Active sub-controllers, keyed by their (sorted) region set.
        self._regional: Dict[Tuple[str, ...], RegionalController] = {}
        self._partition_counters = (PartitionCounters()
                                    if self.regional_config is not None
                                    else None)
        #: Epoch seq at the last heal; the next global commit closes the
        #: reconvergence window it opens.
        self._reconverge_epoch0: Optional[int] = None

        self.controller = self._make_controller()
        reaction = replace(
            self.sim_config.reaction,
            enabled=(self.sim_config.reaction.enabled
                     and self.variant.fast_reaction))
        if (self.resilience is not None
                and self.resilience.failover_trigger_bursts is not None):
            # Failover hysteresis knob: require N consecutive bad probe
            # bursts before the estimators flag a link degraded.
            reaction = replace(
                reaction,
                trigger_bursts=self.resilience.failover_trigger_bursts)
        self.clusters: Dict[str, RegionCluster] = {
            code: RegionCluster(
                code, underlay,
                initial_gateways=self.sim_config.initial_gateways,
                monitoring=self.sim_config.monitoring,
                reaction=reaction,
                rng=self._streams.get(f"cluster.{code}"),
                resilience=self.resilience,
                resilience_counters=self._res_counters)
            for code in underlay.codes}
        self.pools: Dict[str, ContainerPool] = {
            code: ContainerPool(
                code, self._streams.get(f"pool.{code}"),
                initial=self.sim_config.initial_gateways,
                max_containers=self.control_config.max_containers)
            for code in underlay.codes}
        if self._injector is not None:
            for cluster in self.clusters.values():
                cluster.faults = self._injector
            self.controller.nib.fault_filter = self._injector.filter_report
            for code, pool in self.pools.items():
                pool.platform_load_fn = self._make_load_fn(code)

        if tracked_pairs is None:
            tracked_pairs = sorted(
                demand.pairs, key=lambda p: -demand.pair_scale(*p))[:4]
        self.sessions: Dict[RegionPair, SessionRecord] = {
            pair: SessionRecord(pair) for pair in tracked_pairs}
        #: Controller stream id currently carrying each tracked pair.
        self._session_stream: Dict[RegionPair, Optional[int]] = {
            pair: None for pair in tracked_pairs}
        self.control_outputs: List[ControlOutput] = []

    def _make_controller(self) -> Controller:
        """Build a controller with this deployment's configuration.

        Also the restart path: a modeled post-outage restart constructs
        the controller exactly like boot did, then (warm restarts only)
        loads the last checkpoint into it.
        """
        return Controller(
            self.underlay.codes, self.control_config,
            pricing=self.underlay.pricing,
            symmetric_only=self.variant.symmetric_only,
            premium_only=not self.variant.internet_allowed,
            internet_only=not self.variant.premium_allowed,
            sib_params=self._sib_params,
            control_mode=self.sim_config.control_mode,
            shard_workers=self.sim_config.shard_workers,
            seed=self.sim_config.seed)

    # ------------------------------------------------------------------ api
    def run(self, start_s: float, duration_s: float) -> EventSimResult:
        sim = Simulator(start_time=start_s)
        # The final flush runs on EVERY exit path: without it, an
        # exception mid-run (or simply the tail of the run after the
        # last epoch boundary) would leave the attached telemetry
        # stream's last metric deltas unwritten.
        try:
            self._schedule(sim)
            sim.run_until(start_s + duration_s)
        finally:
            if _TEL.enabled:
                _TEL.flush_stream(sim.now)
        return self._result(sim)

    def _schedule(self, sim: Simulator,
                  after_epoch: Optional[Callable[[], None]] = None
                  ) -> Dict[str, PeriodicTask]:
        """Run the boot epoch at `sim.now` and queue every process.

        The one scheduler both `run` and `XRONService` use, so a served
        window is the batch window by construction.  `after_epoch` runs
        right after each control epoch, the boot epoch included.
        Returns the periodic tasks by component name.
        """
        start = sim.now

        # Gateway-crash windows go on the queue up front at priority -1,
        # so a crash at a later epoch instant hits before the controller
        # acts.  At the window start the boot epoch below runs first: it
        # is called directly, not queued.  Windows already fired (state
        # restored from a checkpoint taken at t > 0) are not replayed.
        if self._injector is not None:
            for spec in self._injector.crash_windows():
                if spec.end_s <= start or self._injector.fired(spec):
                    continue
                sim.schedule_at(max(spec.start_s, start),
                                lambda spec=spec: self._apply_crash(sim, spec),
                                priority=-1)

        def epoch() -> None:
            self._control_epoch(sim)
            if after_epoch is not None:
                after_epoch()

        # Control epoch first (priority 0) so tables exist before the
        # first measurements; probing before measurement at equal times.
        epoch()
        return {
            "controller": sim.every(self.sim_config.epoch_s, epoch,
                                    start_delay=self.sim_config.epoch_s,
                                    priority=0),
            "probing": sim.every(self.sim_config.monitoring.burst_interval_s,
                                 lambda: self._probe_round(sim), priority=1),
            "passive-flush": sim.every(self.passive_flush_s,
                                       lambda: self._flush_passive(sim),
                                       start_delay=self.passive_flush_s,
                                       priority=2),
            "workload": sim.every(self.measure_interval_s,
                                  lambda: self._measure(sim),
                                  start_delay=self.measure_interval_s,
                                  priority=3),
        }

    def _result(self, sim: Simulator) -> EventSimResult:
        """What the run on `sim` produced so far."""
        return EventSimResult(
            sessions=self.sessions,
            control_outputs=self.control_outputs,
            probe_bytes=sum(c.probe_bytes() for c in self.clusters.values()),
            detections=sum(c.degradation_detections()
                           for c in self.clusters.values()),
            gateway_counts={code: c.size
                            for code, c in self.clusters.items()},
            events_processed=sim.events_processed,
            fault_counters=(self._injector.counters.as_dict()
                            if self._injector is not None else None),
            resilience_counters=(self._res_counters.as_dict()
                                 if self._res_counters is not None else None),
            membership_counters=(self._membership.counters.as_dict()
                                 if self._membership is not None else None),
            partition_counters=(self._partition_counters.as_dict()
                                if self._partition_counters is not None
                                else None))

    def close(self) -> None:
        """Release held resources: the controller's solve pool (idempotent).

        The warm-restart path replaces the controller and closes the old
        one; this is the teardown for every *other* exit — without it a
        sharded deployment strands its fork workers until process exit.
        """
        if self.controller is not None:
            self.controller.close()
        for sub in self._regional.values():
            sub.close()
        self._regional.clear()

    def __enter__(self) -> "EventDrivenXRON":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- internal
    def _probe_round(self, sim: Simulator) -> None:
        # Under the modeled-restart semantics an outage is a dead
        # process, not a paused one: reports sent while it is down are
        # lost, which is what makes the post-outage NIB/SIB state an
        # honest recovery problem instead of a free warm cache.
        now = sim.now
        lost = (self.resilience is not None and self.resilience.model_restart
                and self._injector is not None
                and self._injector.controller_down(now) is not None)
        partitioned = (self._injector.partition_regions(now)
                       if self._injector is not None else frozenset())
        for cluster in self.clusters.values():
            reports = cluster.probe_round(now)
            if partitioned and cluster.region in partitioned:
                # Severed: the reports never cross the partition edge to
                # the global controller (its NIB ages, its membership
                # entries starve).  An active sub-controller covering
                # this region ingests them into its local NIB instead.
                self._injector.counters.reports_severed += len(reports)
                for sub in self._regional.values():
                    if sub.covers(cluster.region):
                        sub.ingest_reports(reports)
                        break
                continue
            if not lost:
                self.controller.nib.update_many(reports)
                if self._membership is not None and reports:
                    self._membership_refresh(cluster, now)

    def _membership_refresh(self, cluster: RegionCluster,
                            now: float) -> None:
        """One region's probe batch reached the controller: refresh its
        soft-state liveness — unless a churn fault eats the refresh."""
        if self._injector is not None:
            spec = self._injector.membership_churn(cluster.region, now)
            if spec is not None:
                self._injector.counters.refreshes_churned += 1
                if _TEL.enabled:
                    _TEL.counter("fault.refreshes_churned").inc()
                    _TEL.event("fault_membership_churn", t=now,
                               region=cluster.region,
                               fault_id=self._injector.fault_id(spec))
                return
        self._membership.refresh(cluster.region, cluster.gateways.keys(),
                                 now)

    def _flush_passive(self, sim: Simulator) -> None:
        for cluster in self.clusters.values():
            cluster.flush_passive(sim.now)

    def _control_epoch(self, sim: Simulator) -> None:
        now = sim.now
        partitioned = (self._injector.partition_regions(now)
                       if self._injector is not None else frozenset())
        if partitioned and _TEL.enabled:
            for spec in self._injector.active_partitions(now):
                _TEL.event("fault_control_partition", t=now,
                           regions=list(spec.regions),
                           fault_id=self._injector.fault_id(spec))
        if self._regional:
            # Heal first: fencing the installer BEFORE this epoch's
            # next_version() guarantees the first post-heal global
            # install supersedes every regional table.
            self._reconcile_healed(sim, now)
        outage = (self._injector.controller_down(now)
                  if self._injector is not None else None)
        if outage is not None:
            # Controller unreachable: the data plane soldiers on with the
            # last-installed tables and plans, reacting locally.
            self.skipped_epochs += 1
            self._injector.counters.epochs_skipped += 1
            if _TEL.enabled:
                _TEL.counter("eventsim.skipped_epochs").inc()
                _TEL.event("controller_outage", t=now,
                           outage_start=outage.start_s,
                           outage_end=outage.end_s,
                           skipped_epochs=self.skipped_epochs)
                _TEL.counter("fault.epochs_skipped").inc()
                _TEL.event("fault_controller_outage", t=now,
                           outage_start=outage.start_s,
                           outage_end=outage.end_s,
                           skipped_epochs=self.skipped_epochs,
                           fault_id=self._injector.fault_id(outage))
                _TEL.flush_stream(now)
            if self.resilience is not None and self.resilience.model_restart:
                # The outage killed the process: the first epoch after it
                # ends must restart the controller (cold or warm).
                self._restart_pending = True
            if self.regional_config is not None and partitioned:
                # Sub-controllers are separate processes inside their
                # partitions: a global outage does not stop them.
                self._partition_tick(sim, partitioned)
            return
        if self._restart_pending:
            self._perform_restart(sim)
            self._restart_pending = False
        self._epoch_seq += 1
        # The very first epoch needs NIB state: run one probing round.
        if len(self.controller.nib) == 0:
            self._probe_round(sim)
        matrix = TrafficMatrix.from_model(self.demand, now,
                                          self.sim_config.demand_scale)
        ready = {code: max(1, self.pools[code].ready_count(now))
                 for code in self.underlay.codes}
        if self._membership is not None:
            # Sweep TTL-expired entries, then cap each region's usable
            # capacity at its live count: a region whose refreshes are
            # severed (partition, blackout, churn) drops to zero and is
            # routed AROUND instead of through.
            self._membership.expire(now)
            ready = self._membership.clamp(ready, now)
        output = self.controller.run_epoch(now, matrix, ready)
        self.control_outputs.append(output)

        if self.variant.elastic:
            for code, target in output.capacity.target.items():
                if partitioned and code in partitioned:
                    continue  # the autoscaler cannot reach a severed region
                self.pools[code].scale_to(target, now)
            if _TEL.enabled:
                _TEL.event("autoscale", t=now, policy="capacity_control",
                           target=output.capacity.total_target(),
                           ready=sum(ready.values()))
        # The fleet follows the pool's *ready* container count.
        for code, cluster in self.clusters.items():
            if partitioned and code in partitioned:
                continue
            cluster.scale_to(max(1, self.pools[code].ready_count(now)))

        # Install forwarding tables and per-region reaction plans.
        plans_by_region: Dict[str, Dict[int, Tuple[str, ...]]] = {
            code: {} for code in self.underlay.codes}
        for (sid, region), plan in output.reaction_plans.items():
            plans_by_region[region][sid] = plan.relay_regions
        if self._installer is not None:
            # Safe-update path: validate the global update while every
            # gateway still rides its last-good table, then commit
            # everywhere-or-nowhere.  Sessions rebind on commit.
            self._install_two_phase(sim, output, plans_by_region)
        else:
            for code, cluster in self.clusters.items():
                if partitioned and code in partitioned:
                    self._sever_install(code)
                    continue
                self._install(sim, code, cluster,
                              output.path_result.forwarding_tables[code],
                              plans_by_region[code])
            self._rebind_sessions(output, now)

        if self.regional_config is not None and partitioned:
            # Degraded mode runs AFTER the global epoch so the regional
            # tables (merged over whatever the global plane managed to
            # land outside the partition) are what the checkpoint and
            # the next measurement tick observe.
            self._partition_tick(sim, partitioned)

        if (self.resilience is not None and self.resilience.checkpoint_enabled
                and self._epoch_seq
                % self.resilience.checkpoint_every_epochs == 0):
            self._take_checkpoint(now)
        if _TEL.enabled:
            # Epoch boundary: push the accumulated metric deltas to an
            # attached telemetry stream (no-op without one).
            _TEL.flush_stream(now)

    def _rebind_sessions(self, output: ControlOutput, now: float) -> None:
        """Re-bind tracked sessions to this epoch's stream ids.

        While a partition is active and regional control is armed, the
        pairs living entirely inside an active partition are OWNED by
        the partition's sub-controller: the global plane cannot program
        their gateways anyway, so binding them to global stream ids the
        severed tables never learn would only manufacture blackholes.
        They rejoin global binding the epoch after heal — counted as a
        heal flap when that moves them off a regional stream id."""
        owned: frozenset = frozenset()
        if self._regional:
            active = (self._injector.partition_regions(now)
                      if self._injector is not None else frozenset())
            owned = frozenset(pair for pair in self.sessions
                              if pair[0] in active and pair[1] in active)
        base = (self.regional_config.stream_id_base
                if self.regional_config is not None else None)
        best: Dict[RegionPair, Tuple[int, float]] = {}
        for a in output.path_result.assignments:
            key = (a.stream.src, a.stream.dst)
            if key in self.sessions and (
                    key not in best or a.mbps > best[key][1]):
                best[key] = (a.stream.stream_id, a.mbps)
        for pair in self.sessions:
            if pair in owned:
                continue
            new_sid = best[pair][0] if pair in best else None
            old_sid = self._session_stream[pair]
            if (base is not None and old_sid is not None and old_sid >= base
                    and (new_sid is None or new_sid < base)):
                self._partition_counters.heal_flaps += 1
            if _TEL.enabled and new_sid != old_sid:
                _TEL.counter("eventsim.session_rebinds").inc()
                _TEL.event("path_decision", t=now, src=pair[0], dst=pair[1],
                           stream=new_sid, previous_stream=old_sid)
            self._session_stream[pair] = new_sid

    def _perform_restart(self, sim: Simulator) -> None:
        """Model the post-outage controller restart (cold or warm).

        The outage killed the controller process; the replacement is
        constructed exactly like boot, then — when a checkpoint exists —
        warm-loaded from the serialized artifact (the JSON string, so
        every restore exercises the full round trip)."""
        warm = (self.resilience.checkpoint_enabled
                and self._checkpoint_json is not None)
        self.controller.close()  # release the old solve pool, if any
        self.controller = self._make_controller()
        if self._injector is not None:
            self.controller.nib.fault_filter = self._injector.filter_report
        if self._membership is not None:
            # Soft state dies with the process: the replacement rebuilds
            # liveness from the refresh stream (boot grace until then).
            self._membership.reset()
        if warm:
            Checkpoint.loads(self._checkpoint_json).restore(self.controller)
            self._res_counters.restores_warm += 1
        else:
            self._res_counters.restores_cold += 1
        if _TEL.enabled:
            _TEL.counter("resilience.restores").inc()
            _TEL.event("resilience_restore", t=sim.now, warm=warm,
                       epochs_run=self.controller.epochs_run)

    def _take_checkpoint(self, now: float) -> None:
        """Serialize controller state + the last committed install."""
        checkpoint = Checkpoint.take(
            self.controller,
            {code: c.current_entries() for code, c in self.clusters.items()},
            {code: c.current_plans() for code, c in self.clusters.items()},
            t=now, epoch_seq=self._epoch_seq,
            version=self._installer.committed_version,
            fault_state=(self._injector.export_state()
                         if self._injector is not None else None))
        self._checkpoint_json = checkpoint.dumps()
        self._res_counters.checkpoints_taken += 1
        if _TEL.enabled:
            _TEL.counter("resilience.checkpoints").inc()
            _TEL.event("resilience_checkpoint", t=now,
                       epoch_seq=self._epoch_seq,
                       version=self._installer.committed_version,
                       bytes=len(self._checkpoint_json))

    def _install(self, sim: Simulator, code: str, cluster: RegionCluster,
                 entries: Dict[int, Tuple[str, LinkType]],
                 plans: Dict[int, Tuple[str, ...]]) -> None:
        """Push one region's controller update, applying install faults."""
        now = sim.now
        if self._injector is not None:
            keep = self._injector.install_keep_fraction(code, now)
            if keep < 1.0:
                entries, plans = self._apply_partial(
                    code, cluster, entries, plans, keep, now)
            delay_spec = self._injector.install_delay_spec(code, now)
            delay = delay_spec.delay_s if delay_spec is not None else 0.0
            if delay > 0.0:
                self._injector.counters.installs_delayed += 1
                if _TEL.enabled:
                    _TEL.counter("fault.installs_delayed").inc()
                    _TEL.event("fault_install_delayed", t=now, region=code,
                               delay_s=delay,
                               fault_id=self._injector.fault_id(delay_spec))
                sim.schedule(
                    delay,
                    lambda seq=self._epoch_seq: self._late_install(
                        code, cluster, entries, plans, seq),
                    priority=0)
                return
        self._install_seq[code] = self._epoch_seq
        cluster.install(entries, plans)

    def _late_install(self, code: str, cluster: RegionCluster,
                      entries: Dict[int, Tuple[str, LinkType]],
                      plans: Dict[int, Tuple[str, ...]], seq: int) -> None:
        """Apply a delayed install unless a newer one already landed."""
        if self._install_seq.get(code, 0) > seq:
            return
        self._install_seq[code] = seq
        cluster.install(entries, plans)

    def _apply_partial(self, code: str, cluster: RegionCluster,
                       entries: Dict[int, Tuple[str, LinkType]],
                       plans: Dict[int, Tuple[str, ...]],
                       keep: float, now: float
                       ) -> Tuple[Dict[int, Tuple[str, LinkType]],
                                  Dict[int, Tuple[str, ...]]]:
        """Truncate one region's update to its first `keep` fraction.

        Partial install: only the first `keep` fraction of the update's
        rows (by stream id) lands; rows beyond the cut keep their
        previously installed value — the stream rides a stale table row,
        it does not vanish.  Streams absent from the new table are still
        withdrawn.
        """
        kept = truncate_install(entries, keep)
        stale_entries = cluster.current_entries()
        stale_plans = cluster.current_plans()
        lost = [sid for sid in entries if sid not in kept]
        merged = dict(kept)
        merged_plans = {sid: plan for sid, plan in plans.items()
                        if sid in kept}
        for sid in lost:
            if sid in stale_entries:
                merged[sid] = stale_entries[sid]
            if sid in stale_plans:
                merged_plans[sid] = stale_plans[sid]
        self._injector.counters.installs_truncated += 1
        if _TEL.enabled:
            _TEL.counter("fault.installs_truncated").inc()
            _TEL.event("fault_install_partial", t=now, region=code,
                       fresh=len(kept), stale=len(merged) - len(kept),
                       keep_fraction=keep,
                       fault_id=self._injector.fault_id(
                           self._injector.install_partial_spec(code, now)))
        return merged, merged_plans

    # --------------------------------------------------- two-phase installs
    def _install_two_phase(self, sim: Simulator, output: ControlOutput,
                           plans_by_region: Dict[str, Dict[int, Tuple[str, ...]]]
                           ) -> None:
        """Start the safe-update protocol for one epoch's tables."""
        seen = set()
        streams: List[Tuple[int, str, str]] = []
        for a in output.path_result.assignments:
            key = (a.stream.stream_id, a.stream.src, a.stream.dst)
            if key not in seen:
                seen.add(key)
                streams.append(key)
        version = self._installer.next_version(sim.now)
        self._attempt_install(sim, output, plans_by_region, streams,
                              version, attempt=1)

    def _attempt_install(self, sim: Simulator, output: ControlOutput,
                         plans_by_region: Dict[str, Dict[int, Tuple[str, ...]]],
                         streams: List[Tuple[int, str, str]],
                         version: int, attempt: int) -> None:
        """One prepare->validate->commit round of the two-phase install."""
        if not self._installer.is_current(version):
            return  # superseded by a newer epoch's update
        now = sim.now
        partitioned = (self._injector.partition_regions(now)
                       if self._injector is not None else frozenset())
        tables = output.path_result.forwarding_tables
        delivered_t: Dict[str, Dict[int, Tuple[str, LinkType]]] = {}
        delivered_p: Dict[str, Dict[int, Tuple[str, ...]]] = {}
        max_delay = 0.0
        for code, cluster in self.clusters.items():
            entries = tables[code]
            plans = plans_by_region[code]
            if partitioned and code in partitioned:
                # Severed: the push never crosses the partition edge, so
                # the install-fault seams are moot.  The controller still
                # validates its full proposed update (its *belief* about
                # the topology); only the commit stops at the edge.
                delivered_t[code] = entries
                delivered_p[code] = plans
                continue
            if self._injector is not None:
                keep = self._injector.install_keep_fraction(code, now)
                if keep < 1.0:
                    entries, plans = self._apply_partial(
                        code, cluster, entries, plans, keep, now)
                delay_spec = self._injector.install_delay_spec(code, now)
                delay = (delay_spec.delay_s if delay_spec is not None
                         else 0.0)
                if delay > 0.0:
                    self._injector.counters.installs_delayed += 1
                    if _TEL.enabled:
                        _TEL.counter("fault.installs_delayed").inc()
                        _TEL.event(
                            "fault_install_delayed", t=now, region=code,
                            delay_s=delay,
                            fault_id=self._injector.fault_id(delay_spec))
                    max_delay = max(max_delay, delay)
            delivered_t[code] = entries
            delivered_p[code] = plans
        if max_delay > 0.0:
            # The protocol cannot commit until every region acknowledges
            # delivery, so the slowest region paces the whole round.
            self._res_counters.installs_deferred += 1
            self._schedule_retry(sim, output, plans_by_region, streams,
                                 version, attempt, max_delay,
                                 reason="deferred")
            return
        violations = self._installer.validate(
            delivered_t, delivered_p,
            {code: c.size for code, c in self.clusters.items()}, streams)
        if violations:
            self._res_counters.installs_rejected += 1
            if _TEL.enabled:
                _TEL.counter("resilience.installs_rejected").inc()
                _TEL.event("resilience_install_rejected", t=now,
                           version=version, attempt=attempt,
                           violation_count=len(violations),
                           violations=[str(v) for v in violations[:5]])
            self._schedule_retry(sim, output, plans_by_region, streams,
                                 version, attempt,
                                 self._installer.backoff_delay(attempt),
                                 reason="rejected")
            return
        # Phase 2: commit everywhere with the same version — "everywhere"
        # being every region the controller can actually reach.  A
        # severed region keeps riding its last-installed tables (or its
        # sub-controller's) until heal, when the fenced version of the
        # first post-heal commit supersedes them.
        for code, cluster in self.clusters.items():
            if partitioned and code in partitioned:
                self._sever_install(code)
                continue
            self._install_seq[code] = self._epoch_seq
            cluster.install(delivered_t[code], delivered_p[code],
                            version=version, now=now)
        self._installer.mark_committed(version, now)
        if (self._partition_counters is not None
                and self._reconverge_epoch0 is not None):
            # First global commit after a heal: the fenced version just
            # superseded the regional tables everywhere it reached.
            epochs = self._epoch_seq - self._reconverge_epoch0
            self._partition_counters.reconvergence_epochs += epochs
            self._reconverge_epoch0 = None
            if _TEL.enabled:
                _TEL.counter("partition.reconciliations").inc()
                _TEL.event("partition_reconciled", t=now, version=version,
                           epochs=epochs)
        if _TEL.enabled:
            _TEL.counter("resilience.installs_committed").inc()
            latency = self._installer.last_commit_latency_s
            _TEL.event("resilience_install_commit", t=now, version=version,
                       attempt=attempt,
                       rows=sum(len(t) for t in delivered_t.values()),
                       latency_s=(round(latency, 6)
                                  if latency is not None else None))
        # Bind-on-commit: tracked sessions only move to the new epoch's
        # stream ids once the tables that know those ids are live.
        self._rebind_sessions(output, now)

    def _schedule_retry(self, sim: Simulator, output: ControlOutput,
                        plans_by_region: Dict[str, Dict[int, Tuple[str, ...]]],
                        streams: List[Tuple[int, str, str]],
                        version: int, attempt: int, delay: float,
                        reason: str) -> None:
        """Queue the next attempt, or abandon when the budget is spent.

        An abandoned update commits nowhere: every gateway keeps its
        last-good table until the next control epoch proposes afresh."""
        now = sim.now
        if self._installer.exhausted(attempt):
            self._res_counters.installs_abandoned += 1
            if _TEL.enabled:
                _TEL.counter("resilience.installs_abandoned").inc()
                _TEL.event("resilience_install_abandoned", t=now,
                           version=version, attempt=attempt, reason=reason)
            return
        self._res_counters.installs_retried += 1
        if _TEL.enabled:
            _TEL.counter("resilience.installs_retried").inc()
            _TEL.event("resilience_install_retry", t=now, version=version,
                       attempt=attempt, delay_s=delay, reason=reason)
        sim.schedule(
            delay,
            lambda: self._attempt_install(sim, output, plans_by_region,
                                          streams, version, attempt + 1),
            priority=0)

    # ------------------------------------------------- partition tolerance
    def _sever_install(self, code: str) -> None:
        """Count one install push stopped at a partition edge."""
        self._injector.counters.installs_severed += 1
        if _TEL.enabled:
            _TEL.counter("fault.installs_severed").inc()

    def _partition_tick(self, sim: Simulator, partitioned) -> None:
        """Run degraded-mode control for every active partition."""
        now = sim.now
        for spec in self._injector.active_partitions(now):
            sub = self._regional.get(spec.regions)
            if sub is None:
                # Overlapping windows over intersecting region sets are
                # not supported: the first partition to claim a region
                # keeps it (two sub-controllers must never race installs
                # into the same cluster).
                claimed = set()
                for key in self._regional:
                    claimed.update(key)
                if claimed & set(spec.regions):
                    continue
                sub = self._activate_regional(sim, spec)
            self._regional_epoch(sim, sub)

    def _activate_regional(self, sim: Simulator,
                           spec: FaultSpec) -> RegionalController:
        """Spin up a sub-controller inside a freshly severed partition.

        It is seeded from the global controller's last-known NIB view of
        the intra-partition links and allocates install versions above
        the last globally committed version, so its tables supersede the
        stale global rows locally — and nothing else."""
        now = sim.now
        sub = RegionalController(
            spec.regions,
            control_config=self.control_config,
            pricing=self.underlay.pricing,
            sib_params=self._sib_params,
            base_version=self._installer.committed_version,
            config=self.regional_config,
            seed=self.sim_config.seed,
            nib_reports=self.controller.nib.export_reports(),
            symmetric_only=self.variant.symmetric_only,
            premium_only=not self.variant.internet_allowed,
            internet_only=not self.variant.premium_allowed)
        self._regional[sub.regions] = sub
        self._partition_counters.partitions_started += 1
        if _TEL.enabled:
            _TEL.counter("partition.activations").inc()
            _TEL.event("partition_onset", t=now, regions=list(sub.regions),
                       base_version=sub.base_version,
                       fault_id=self._injector.fault_id(spec))
        return sub

    def _regional_epoch(self, sim: Simulator,
                        sub: RegionalController) -> None:
        """One degraded-mode control epoch inside a partition.

        The sub-controller computes paths for intra-partition demand
        only, the update is validated against the same routing
        invariants as a global install (over the partition's clusters),
        and regional rows are merged OVER the global-band rows so
        cross-partition streams keep their last-good tables."""
        now = sim.now
        counters = self._partition_counters
        matrix = sub.restrict_matrix(TrafficMatrix.from_model(
            self.demand, now, self.sim_config.demand_scale))
        ready = {code: max(1, self.pools[code].ready_count(now))
                 for code in sub.regions}
        output = sub.run_epoch(now, matrix, ready)
        counters.regional_epochs += 1
        if _TEL.enabled:
            _TEL.counter("partition.regional_epochs").inc()
            _TEL.event("partition_regional_epoch", t=now,
                       regions=list(sub.regions), epoch=sub.epochs_run)
        plans_by_region: Dict[str, Dict[int, Tuple[str, ...]]] = {
            code: {} for code in sub.regions}
        for (sid, region), plan in output.reaction_plans.items():
            plans_by_region[region][sid] = plan.relay_regions
        seen = set()
        streams: List[Tuple[int, str, str]] = []
        for a in output.path_result.assignments:
            key = (a.stream.stream_id, a.stream.src, a.stream.dst)
            if key not in seen:
                seen.add(key)
                streams.append(key)
        tables = output.path_result.forwarding_tables
        violations = self._installer.validate(
            tables, plans_by_region,
            {code: self.clusters[code].size for code in sub.regions},
            streams)
        if violations:
            # No retries: a degraded-mode controller proposes afresh
            # next epoch; the partition keeps riding its current tables.
            counters.regional_installs_rejected += 1
            if _TEL.enabled:
                _TEL.counter("partition.installs_rejected").inc()
                _TEL.event("partition_regional_rejected", t=now,
                           regions=list(sub.regions),
                           violation_count=len(violations),
                           violations=[str(v) for v in violations[:5]])
            return
        version = sub.next_version()
        base = self.regional_config.stream_id_base
        for code in sub.regions:
            cluster = self.clusters[code]
            merged = {sid: entry
                      for sid, entry in cluster.current_entries().items()
                      if sid < base}
            merged.update(tables[code])
            merged_plans = {sid: plan
                            for sid, plan in cluster.current_plans().items()
                            if sid < base}
            merged_plans.update(plans_by_region[code])
            if self._injector is not None:
                # Intra-partition pushes still honor the install-delay
                # seam — the heal race in miniature: a delayed regional
                # install landing after the heal's fenced global commit
                # loses at the gateways' version guard.
                delay_spec = self._injector.install_delay_spec(code, now)
                delay = delay_spec.delay_s if delay_spec is not None else 0.0
                if delay > 0.0:
                    self._injector.counters.installs_delayed += 1
                    if _TEL.enabled:
                        _TEL.counter("fault.installs_delayed").inc()
                        _TEL.event(
                            "fault_install_delayed", t=now, region=code,
                            delay_s=delay,
                            fault_id=self._injector.fault_id(delay_spec))
                    sim.schedule(
                        delay,
                        lambda c=cluster, e=merged, p=merged_plans,
                        v=version, t=now + delay: c.install(
                            e, p, version=v, now=t),
                        priority=0)
                    continue
            cluster.install(merged, merged_plans, version=version, now=now)
        counters.regional_installs_committed += 1
        if _TEL.enabled:
            _TEL.counter("partition.installs_committed").inc()
            _TEL.event("partition_regional_commit", t=now,
                       regions=list(sub.regions), version=version,
                       rows=sum(len(tables[c]) for c in sub.regions))
        # Bind intra-partition tracked sessions to regional stream ids.
        best: Dict[RegionPair, Tuple[int, float]] = {}
        for a in output.path_result.assignments:
            key = (a.stream.src, a.stream.dst)
            if key in self.sessions and (
                    key not in best or a.mbps > best[key][1]):
                best[key] = (a.stream.stream_id, a.mbps)
        for pair in sorted(best):
            new_sid = best[pair][0]
            if self._session_stream[pair] != new_sid:
                counters.regional_rebinds += 1
                if _TEL.enabled:
                    _TEL.counter("eventsim.session_rebinds").inc()
                    _TEL.event("path_decision", t=now, src=pair[0],
                               dst=pair[1], stream=new_sid,
                               previous_stream=self._session_stream[pair],
                               regional=True)
                self._session_stream[pair] = new_sid

    def _reconcile_healed(self, sim: Simulator, now: float) -> None:
        """Retire sub-controllers whose partition window has closed.

        The fence: the global installer's proposed-version counter jumps
        to the highest version any healed sub-controller allocated, so
        the next global two-phase install carries a strictly newer
        version and supersedes every regional table everywhere-or-
        nowhere — while any still-in-flight regional install (delayed
        push) is discarded by the gateways' version guard."""
        active = {spec.regions
                  for spec in self._injector.active_partitions(now)
                  } if self._injector is not None else set()
        counters = self._partition_counters
        for key in sorted(self._regional):
            if key in active:
                continue
            sub = self._regional.pop(key)
            counters.partitions_healed += 1
            fence = max(self._installer.proposed_version, sub.version_high)
            if fence > self._installer.proposed_version:
                self._installer.proposed_version = fence
                counters.reconcile_fences += 1
            self._reconverge_epoch0 = self._epoch_seq
            if _TEL.enabled:
                _TEL.counter("partition.heals").inc()
                _TEL.event("partition_heal", t=now, regions=list(key),
                           fenced_version=fence,
                           regional_epochs=sub.epochs_run)
            sub.close()

    def _make_load_fn(self, code: str):
        """Per-region provisioning-storm hook for a `ContainerPool`."""
        injector = self._injector

        def load(now: float) -> float:
            value = injector.platform_load(code, now)
            if value > 1.0:
                injector.counters.load_spikes_applied += 1
            return value
        return load

    def _apply_crash(self, sim: Simulator, spec: FaultSpec) -> None:
        """Fire one gateway-crash window (and queue its restarts)."""
        self._injector.mark_fired(spec)
        codes = ([spec.region] if spec.region is not None
                 else sorted(self.clusters))
        fault_id = self._injector.fault_id(spec)
        for code in codes:
            victims = self.clusters[code].crash_gateways(
                spec.count, sim.now, fault_id=fault_id)
            self._injector.counters.gateways_crashed += len(victims)
            if victims and spec.restart and math.isfinite(spec.end_s):
                sim.schedule_at(
                    max(spec.end_s, sim.now),
                    lambda code=code, n=len(victims): self._apply_restart(
                        sim, code, n, fault_id),
                    priority=-1)

    def _apply_restart(self, sim: Simulator, code: str, count: int,
                       fault_id: Optional[int] = None) -> None:
        started = self.clusters[code].restore_gateways(
            count, sim.now, fault_id=fault_id)
        self._injector.counters.gateways_restarted += len(started)

    def _measure(self, sim: Simulator) -> None:
        now = sim.now
        rng = self._streams.get("eventsim.measure")
        for pair, record in self.sessions.items():
            sid = self._session_stream[pair]
            if sid is None:
                continue
            hops = self._walk(pair, sid, now)
            if hops is None:
                # Missing table row or routing loop: the stream had
                # nowhere to go this tick (blackholed-stream-seconds).
                record.blackholed.append(now)
                if self._slo is not None:
                    self._slo.observe(f"{pair[0]}->{pair[1]}", now,
                                      blackholed=True)
                continue
            latency = 0.0
            survive = 1.0
            on_backup = False
            for (a, b, lt, via_backup, gateway) in hops:
                link = self.underlay.link(a, b, lt)
                hop_lat = float(link.latency_ms(now))
                hop_loss = float(link.loss_rate(now))
                latency += hop_lat
                survive *= 1.0 - hop_loss
                on_backup = on_backup or via_backup
                # Passive tracking: account the session's packets on the
                # gateway that actually made the forwarding decision
                # (round robin), not an arbitrary cluster sibling.
                lost = int(rng.binomial(_PACKETS_PER_TICK,
                                        min(hop_loss, 1.0)))
                gateway.passive.record((a, b, lt), _PACKETS_PER_TICK,
                                       lost, hop_lat)
            record.times.append(now)
            record.latency_ms.append(latency)
            record.loss_rate.append(1.0 - survive)
            record.on_backup.append(on_backup)
            record.hop_counts.append(len(hops))
            if self._slo is not None:
                self._slo.observe(f"{pair[0]}->{pair[1]}", now,
                                  latency, 1.0 - survive)

    def _walk(self, pair: RegionPair, stream_id: int,
              now: Optional[float] = None
              ) -> Optional[List[Tuple[str, str, LinkType, bool, Gateway]]]:
        """Follow the live forwarding decisions from source to destination.

        Each hop records the gateway that made the `ForwardDecision`, so
        measurement can book passive samples on the right container.
        """
        src, dst = pair
        hops: List[Tuple[str, str, LinkType, bool, Gateway]] = []
        current = src
        for __ in range(8):  # generous loop guard
            if current == dst:
                return hops
            resolved = self.clusters[current].resolve(stream_id, now)
            if resolved is None:
                return None
            gateway, decision = resolved
            hops.append((current, decision.next_hop, decision.link_type,
                         decision.via_backup, gateway))
            current = decision.next_hop
        return None  # routing loop: drop the sample
