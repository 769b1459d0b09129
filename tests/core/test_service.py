"""Tests for the always-on service mode (`repro.core.service`)."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.service import (ServiceConfig, ServiceError, XRONService,
                                build_soak_schedule)
from repro.core.variants import xron
from repro.faults import spec as fault_spec
from repro.faults.spec import FaultSchedule
from repro.resilience.config import resilience
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import quiet_link
from repro.underlay.topology import build_underlay


@pytest.fixture(scope="module")
def regions():
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in ("HGH", "SIN", "FRA")]


def _build_system(regions, seed=5, faults=None, with_resilience=True,
                  measure_interval_s=5.0):
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = 1e-6
    config.internet.base_loss_max = 1e-5
    config.internet.diurnal_loss_amp = 0.0
    for tier in (config.internet, config.premium):
        tier.short_events_per_day = 0.0
        tier.long_events_per_day = 0.0
    underlay = build_underlay(regions, config, seed=seed)
    for (a, b) in underlay.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(underlay, a, b, lt)
    demand = DemandModel(regions, seed=seed)
    from dataclasses import replace
    return EventDrivenXRON(
        underlay, demand, variant=replace(xron(), elastic=False),
        sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=60.0,
                                    seed=seed, demand_scale=0.05,
                                    initial_gateways=4),
        measure_interval_s=measure_interval_s,
        faults=faults,
        resilience=resilience() if with_resilience else None)


# -------------------------------------------------------------- the service
def test_service_runs_a_window_and_drains(tmp_path, regions):
    system = _build_system(regions)
    config = ServiceConfig(duration_s=300.0, heartbeat_s=60.0,
                           checkpoint_path=tmp_path / "cp.json")
    service = XRONService(system, config, start_s=0.0)
    result = service.run()
    assert result.stop_reason == "completed"
    assert result.drained
    assert result.sim_t1 == 300.0
    # Epochs at t=0, 60, ..., 300 inclusive.
    assert result.epochs == 6
    assert result.heartbeats == 5
    assert result.eventsim.probe_bytes > 0
    assert any(r.times for r in result.eventsim.sessions.values())
    # The drain persisted a resumable envelope.
    envelope = XRONService.load_envelope(tmp_path / "cp.json")
    assert envelope["sim_t"] == 300.0
    assert envelope["epoch_seq"] == 6
    # Teardown left no stranded fork workers.
    assert multiprocessing.active_children() == []


def test_service_is_deterministic(regions):
    def run_once():
        system = _build_system(regions)
        service = XRONService(
            system, ServiceConfig(duration_s=300.0, heartbeat_s=150.0))
        result = service.run()
        return result

    a, b = run_once(), run_once()
    assert a.events_processed == b.events_processed
    assert a.epochs == b.epochs
    for pair in a.eventsim.sessions:
        assert (a.eventsim.sessions[pair].latency_ms
                == b.eventsim.sessions[pair].latency_ms)


def _stop_at(system, t, action):
    """Wrap the system's measurement tick to call `action` at sim time `t`."""
    measure = system._measure

    def tick(sim):
        measure(sim)
        if sim.now == t:
            action()

    system._measure = tick


def _assert_served_equals_batch(regions, crash_s):
    """A served window is the batch window plus heartbeats.

    Both run `EventDrivenXRON._schedule` on the same engine, so every
    session sample, control output and counter must be identical to
    `EventDrivenXRON.run` over the same window.
    """
    schedule = FaultSchedule.of(
        fault_spec.gateway_crash(crash_s, 60.0, regions[0].code),
        fault_spec.probe_blackout(200.0, 60.0, region=regions[1].code))
    batch = _build_system(regions, faults=schedule)
    batch_result = batch.run(0.0, 400.0)
    batch.close()

    served = _build_system(regions, faults=schedule)
    service = XRONService(served, ServiceConfig(duration_s=400.0,
                                                heartbeat_s=60.0))
    result = service.run()
    live = result.eventsim

    assert result.heartbeats == 6
    assert result.events_processed == (batch_result.events_processed
                                       + result.heartbeats)
    assert live.events_processed == result.events_processed
    assert len(live.control_outputs) == len(batch_result.control_outputs)
    for mine, theirs in zip(live.control_outputs,
                            batch_result.control_outputs):
        assert (mine.path_result.assignments
                == theirs.path_result.assignments)
        assert (mine.path_result.forwarding_tables
                == theirs.path_result.forwarding_tables)
    assert live.fault_counters == batch_result.fault_counters
    assert live.fault_counters["gateways_crashed"] == 1
    assert live.membership_counters == batch_result.membership_counters
    assert live.partition_counters == batch_result.partition_counters
    # The drain takes one checkpoint the batch run never takes.
    expected = dict(batch_result.resilience_counters)
    expected["checkpoints_taken"] += 1
    assert live.resilience_counters == expected
    assert live.probe_bytes == batch_result.probe_bytes
    assert live.detections == batch_result.detections
    assert live.gateway_counts == batch_result.gateway_counts
    assert list(live.sessions) == list(batch_result.sessions)
    for pair, record in batch_result.sessions.items():
        assert live.sessions[pair] == record


def test_service_matches_batch_engine(regions):
    _assert_served_equals_batch(regions, crash_s=100.0)


def test_service_matches_batch_engine_crash_at_start(regions):
    """A crash window opening at the window start fires after the boot
    epoch under serve exactly as under batch."""
    _assert_served_equals_batch(regions, crash_s=0.0)


def test_service_stop_request_drains_immediately(tmp_path, regions):
    system = _build_system(regions)
    config = ServiceConfig(duration_s=600.0, heartbeat_s=60.0,
                           checkpoint_path=tmp_path / "cp.json")
    service = XRONService(system, config)
    _stop_at(system, 150.0, lambda: service.request_stop("test-stop"))

    result = service.run()
    assert result.stop_reason == "test-stop"
    assert result.drained
    # The stop lands at the end of the probe-burst slice holding t=150.
    slice_s = system.sim_config.monitoring.burst_interval_s
    assert 150.0 <= result.sim_t1 <= 150.0 + slice_s
    assert result.heartbeats == 2
    # The drain checkpoint reflects the stop time, not the window end.
    envelope = XRONService.load_envelope(tmp_path / "cp.json")
    assert envelope["sim_t"] == result.sim_t1


def test_service_sigterm_drains_and_restores_handlers(tmp_path, regions):
    """A real SIGTERM mid-run drains gracefully, persists the envelope
    and leaves the process's own signal handlers in place afterwards."""
    system = _build_system(regions)
    path = tmp_path / "cp.json"
    service = XRONService(system, ServiceConfig(
        duration_s=600.0, heartbeat_s=60.0, checkpoint_path=path))
    _stop_at(system, 150.0, lambda: os.kill(os.getpid(), signal.SIGTERM))

    def mine(signum, frame):
        raise AssertionError("the service's handler should be active")

    before_int = signal.getsignal(signal.SIGINT)
    before_term = signal.signal(signal.SIGTERM, mine)
    try:
        result = service.run()
        assert signal.getsignal(signal.SIGTERM) is mine
        assert signal.getsignal(signal.SIGINT) is before_int
    finally:
        signal.signal(signal.SIGTERM, before_term)
    assert result.stop_reason == "SIGTERM"
    assert result.drained
    assert 150.0 <= result.sim_t1 < 600.0
    envelope = XRONService.load_envelope(path)
    assert envelope["sim_t"] == result.sim_t1
    assert envelope["seed"] == system.sim_config.seed


def test_component_error_drains_and_raises(regions):
    system = _build_system(regions)
    service = XRONService(system, ServiceConfig(duration_s=300.0))

    def boom():
        raise RuntimeError("injected component failure")

    system._flush_passive = lambda sim: boom()
    with pytest.raises(ServiceError, match="injected component failure"):
        service.run()
    # The drain still ran: no stranded children, controller closed.
    assert multiprocessing.active_children() == []


# ------------------------------------------------------- checkpoint/restore
def test_restore_mid_schedule_does_not_replay_fired_faults(tmp_path, regions):
    """A resumed soak skips crash windows that already fired (issue #9).

    Two crash windows; the first leg runs past the first, drains, and
    the second leg restores from the envelope and finishes the window.
    Total crashes across both legs must equal the scheduled count —
    under the old absolute-offset assumption the restored run would
    re-fire the first window and crash twice the gateways.
    """
    schedule = FaultSchedule.of(
        fault_spec.gateway_crash(100.0, 60.0, regions[0].code),
        fault_spec.gateway_crash(400.0, 60.0, regions[1].code))
    path = tmp_path / "cp.json"

    leg1_system = _build_system(regions, faults=schedule)
    leg1 = XRONService(leg1_system,
                       ServiceConfig(duration_s=250.0, checkpoint_path=path))
    leg1_result = leg1.run()
    assert leg1_result.eventsim.fault_counters["gateways_crashed"] == 1
    envelope = XRONService.load_envelope(path)
    inner = json.loads(envelope["checkpoint"])
    assert inner["fault_state"]["fired"] == [0]

    leg2_system = _build_system(regions, faults=schedule)
    leg2 = XRONService(leg2_system,
                       ServiceConfig(duration_s=600.0, checkpoint_path=path))
    t = leg2.restore_from(envelope)
    assert t == pytest.approx(250.0)
    leg2.config.duration_s = 600.0 - t
    leg2_result = leg2.run()

    # Counters are imported with the checkpoint, so the leg-2 totals are
    # cumulative: exactly one crash per scheduled window, never two.
    counters = leg2_result.eventsim.fault_counters
    assert counters["gateways_crashed"] == 2
    assert counters["gateways_restarted"] == 2
    assert sorted(leg2_system._injector.export_state()["fired"]) == [0, 1]


def test_restore_rejects_mismatched_schedule(tmp_path, regions):
    schedule = FaultSchedule.of(
        fault_spec.gateway_crash(100.0, 60.0, regions[0].code))
    path = tmp_path / "cp.json"
    leg1 = XRONService(_build_system(regions, faults=schedule),
                       ServiceConfig(duration_s=200.0, checkpoint_path=path))
    leg1.run()
    envelope = XRONService.load_envelope(path)

    other = FaultSchedule.of(
        fault_spec.gateway_crash(500.0, 60.0, regions[0].code))
    leg2 = XRONService(_build_system(regions, faults=other),
                       ServiceConfig(duration_s=600.0))
    with pytest.raises(ValueError, match="schedule"):
        leg2.restore_from(envelope)


def test_restore_resumes_controller_state(tmp_path, regions):
    """The restored controller predicts from the checkpointed SIB."""
    path = tmp_path / "cp.json"
    leg1_system = _build_system(regions)
    leg1 = XRONService(leg1_system,
                       ServiceConfig(duration_s=300.0, checkpoint_path=path))
    leg1.run()
    sib_state = leg1_system.controller.sib.export_state()

    leg2_system = _build_system(regions)
    leg2 = XRONService(leg2_system,
                       ServiceConfig(duration_s=600.0, checkpoint_path=path))
    t = leg2.restore_from(XRONService.load_envelope(path))
    assert t == pytest.approx(300.0)
    # SIB demand history survived the round trip (the expensive state).
    assert leg2_system.controller.sib.export_state() == sib_state
    assert leg2_system._epoch_seq == leg1_system._epoch_seq
    # The last committed tables are live before the first epoch runs.
    for code, cluster in leg2_system.clusters.items():
        assert (cluster.current_entries()
                == leg1_system.clusters[code].current_entries())


def test_envelope_round_trip_rejects_foreign_files(tmp_path):
    bogus = tmp_path / "not-an-envelope.json"
    bogus.write_text(json.dumps({"record": "something-else"}))
    with pytest.raises(ValueError, match="not a service checkpoint"):
        XRONService.load_envelope(bogus)


# ------------------------------------------------------------ soak schedule
def test_build_soak_schedule_is_deterministic_and_sorted():
    codes = ["HGH", "SIN", "FRA"]
    a = build_soak_schedule(0.0, 3600.0, codes)
    b = build_soak_schedule(0.0, 3600.0, codes)
    assert a.to_json() == b.to_json()
    assert len(a.specs) == 6  # lead 120, period 600, tail margin 180
    starts = [s.start_s for s in a.specs]
    assert starts == sorted(starts)
    kinds = {s.kind for s in a.specs}
    assert len(kinds) == 6  # the rotation walks the taxonomy


def test_build_soak_schedule_requires_regions():
    with pytest.raises(ValueError):
        build_soak_schedule(0.0, 3600.0, [])


def test_soak_rotation_covers_the_entire_fault_taxonomy():
    """The rotation is derived from `FaultKind`: every kind has a
    builder, and a window long enough for one full rotation fires every
    kind exactly once, in enum order."""
    from repro.core.service import _SOAK_BUILDERS

    assert set(_SOAK_BUILDERS) == set(fault_spec.FaultKind)
    codes = ["HGH", "SIN", "FRA"]
    n = len(fault_spec.FaultKind)
    schedule = build_soak_schedule(0.0, 120.0 + (n - 1) * 600.0 + 180.0,
                                   codes)
    assert [s.kind for s in schedule.specs] == list(fault_spec.FaultKind)


def test_soak_partition_slot_severs_a_multi_region_set():
    codes = ["HGH", "SIN", "FRA"]
    schedule = build_soak_schedule(0.0, 2 * 10 * 600.0, codes)
    partitions = [s for s in schedule.specs
                  if s.kind is fault_spec.FaultKind.CONTROL_PARTITION]
    assert partitions
    for spec in partitions:
        assert len(spec.regions) == 2
        assert set(spec.regions) <= set(codes)


def test_soak_rotation_first_slots_are_stable():
    """Short chaos windows (CI's 30-minute soak) must keep firing the
    same leading kinds the pre-taxonomy rotation fired."""
    schedule = build_soak_schedule(0.0, 1800.0, ["HGH", "SIN"])
    assert [s.kind for s in schedule.specs] == [
        fault_spec.FaultKind.GATEWAY_CRASH,
        fault_spec.FaultKind.PROBE_BLACKOUT,
        fault_spec.FaultKind.REPORT_DROP,
    ]
