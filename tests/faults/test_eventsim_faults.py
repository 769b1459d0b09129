"""Integration tests: the fault schedule driving the event simulator."""

from dataclasses import replace

import pytest

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.variants import xron
from repro.faults import (FaultSchedule, controller_outage, gateway_crash,
                          install_delay, install_partial, probe_blackout,
                          report_drop, report_staleness)
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


def _build(regions, seed=5):
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = 1e-6
    config.internet.base_loss_max = 1e-5
    config.internet.diurnal_loss_amp = 0.0
    for tier in (config.internet, config.premium):
        tier.short_events_per_day = 0.0
        tier.long_events_per_day = 0.0
    u = build_underlay(regions, config, seed=seed)
    for (a, b) in u.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(u, a, b, lt)
    return u, DemandModel(regions, seed=seed)


def _run(regions, seed=5, duration=90.0, **kwargs):
    u, d = _build(regions, seed=seed)
    sim = EventDrivenXRON(
        u, d,
        sim_config=SimulationConfig(epoch_s=30.0, eval_step_s=10.0,
                                    seed=seed, demand_scale=0.05),
        **kwargs)
    return sim, sim.run(3600.0, duration)


def _fingerprint(result):
    """Everything a fault-free run produces, as comparable values."""
    doc = {"events": result.events_processed,
           "probe_bytes": result.probe_bytes,
           "epochs": len(result.control_outputs),
           "gateways": dict(result.gateway_counts)}
    for pair, rec in sorted(result.sessions.items()):
        doc[pair] = (tuple(rec.times), tuple(rec.latency_ms),
                     tuple(rec.loss_rate), tuple(rec.on_backup))
    return doc


class TestNoFaultEquivalence:
    def test_empty_schedule_is_byte_identical_to_no_schedule(self, regions):
        __, plain = _run(regions)
        sim, empty = _run(regions, faults=FaultSchedule.empty())
        assert sim._injector is None  # no injector ever constructed
        assert _fingerprint(plain) == _fingerprint(empty)
        assert plain.fault_counters is None
        assert empty.fault_counters is None

    def test_same_schedule_same_seed_reproduces_exactly(self, regions):
        sched = FaultSchedule.of(
            controller_outage(3620.0, 3680.0),
            report_drop(3600.0, 90.0, probability=0.5),
            probe_blackout(3610.0, 20.0, region="HGH"))
        __, a = _run(regions, faults=sched)
        __, b = _run(regions, faults=sched)
        assert _fingerprint(a) == _fingerprint(b)
        assert a.fault_counters == b.fault_counters
        assert a.fault_counters["reports_dropped"] > 0


class TestControllerOutage:
    def test_epochs_skipped_and_sessions_survive(self, regions):
        sched = FaultSchedule.of(controller_outage(3601.0, 3700.0))
        sim, result = _run(regions, faults=sched)
        assert result.fault_counters["epochs_skipped"] == 3
        assert sim.skipped_epochs == 3
        # The bootstrap epoch ran; sessions were measured throughout.
        assert len(result.control_outputs) == 1
        assert any(rec.times for rec in result.sessions.values())


class TestGatewayCrash:
    # Elastic capacity control would scale these tiny-demand clusters to
    # one gateway before the crash fires (and crash always spares one),
    # so the crash tests pin the fleet by disabling elasticity.
    FROZEN = None

    @classmethod
    def setup_class(cls):
        cls.FROZEN = replace(xron(), elastic=False)

    def test_crash_removes_and_restart_restores(self, regions):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=2))
        sim, result = _run(regions, faults=sched, variant=self.FROZEN)
        assert result.fault_counters["gateways_crashed"] == 2
        assert result.fault_counters["gateways_restarted"] == 2

    def test_no_restart_when_disabled(self, regions):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=1,
                          restart=False))
        __, result = _run(regions, faults=sched, variant=self.FROZEN)
        assert result.fault_counters["gateways_crashed"] == 1
        assert result.fault_counters["gateways_restarted"] == 0

    def test_replacement_gateways_inherit_reaction_plans(self, regions):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=1))
        sim, __ = _run(regions, faults=sched, variant=self.FROZEN)
        cluster = sim.clusters["HGH"]
        plans = [g.reaction_plans() for g in cluster.gateways.values()]
        assert all(p == plans[0] for p in plans)

    def test_at_least_one_gateway_survives(self, regions):
        sched = FaultSchedule.of(
            gateway_crash(3610.0, 30.0, region="HGH", count=99,
                          restart=False))
        sim, result = _run(regions, faults=sched, variant=self.FROZEN)
        assert all(c.size >= 1 for c in sim.clusters.values())


class TestProbeBlackout:
    def test_blackout_freezes_nib_reports(self, regions):
        sched = FaultSchedule.of(
            probe_blackout(3605.0, 1000.0, region="HGH"))
        sim, result = _run(regions, faults=sched)
        assert result.fault_counters["probes_blacked_out"] > 0
        nib = sim.controller.nib
        # HGH-sourced links stopped reporting at the blackout start;
        # other regions kept reporting until the end of the run.
        hgh = nib.get("HGH", "SIN", LinkType.INTERNET)
        sin = nib.get("SIN", "HGH", LinkType.INTERNET)
        assert hgh.reported_at < 3606.0
        assert sin.reported_at > 3680.0


class TestReportFaults:
    def test_drop_blinds_the_nib_not_the_gateways(self, regions):
        sched = FaultSchedule.of(report_drop(3605.0, 1000.0, region="HGH"))
        sim, result = _run(regions, faults=sched)
        assert result.fault_counters["reports_dropped"] > 0
        assert sim.controller.nib.get(
            "HGH", "SIN", LinkType.INTERNET).reported_at < 3606.0
        # Probing itself never stopped (the drop is on the NIB path).
        assert result.fault_counters["probes_blacked_out"] == 0

    def test_staleness_ages_reports(self, regions):
        sched = FaultSchedule.of(
            report_staleness(3605.0, 1000.0, staleness_s=500.0))
        sim, result = _run(regions, faults=sched)
        assert result.fault_counters["reports_staled"] > 0
        # Back-dated reports lose to the freshest pre-fault entry, so
        # the NIB's view freezes at the fault start instead of tracking
        # the run: only aging data arrives (§6.3's stale-NIB regime).
        report = sim.controller.nib.get("HGH", "SIN", LinkType.INTERNET)
        assert report.reported_at < 3605.0


class TestInstallFaults:
    def test_delay_counted_and_tables_eventually_land(self, regions):
        sched = FaultSchedule.of(
            install_delay(3601.0, 1000.0, delay_s=5.0, region="HGH"))
        sim, result = _run(regions, faults=sched)
        assert result.fault_counters["installs_delayed"] > 0
        assert sim.clusters["HGH"].current_entries()

    def test_partial_install_rides_stale_rows(self, regions):
        sched = FaultSchedule.of(
            install_partial(3601.0, 1000.0, keep_fraction=0.5))
        sim, result = _run(regions, faults=sched)
        assert result.fault_counters["installs_truncated"] > 0
        # Sessions keep being measured: lost rows fell back to the
        # bootstrap epoch's tables instead of vanishing.
        assert any(rec.times and max(rec.times) > 3660.0
                   for rec in result.sessions.values())

    def test_delay_and_partial_compose_on_the_same_epoch(self, regions):
        """Both install faults active over the same epochs: the update
        must be truncated first (stale rows merged in), THEN delayed —
        the late install that eventually lands is the truncated one,
        and a delayed stale update never overwrites a newer epoch's."""
        sched = FaultSchedule.of(
            install_partial(3601.0, 1000.0, keep_fraction=0.5),
            install_delay(3601.0, 1000.0, delay_s=5.0))
        sim, result = _run(regions, faults=sched, duration=150.0)
        assert result.fault_counters["installs_truncated"] > 0
        assert result.fault_counters["installs_delayed"] > 0
        # Every faulted epoch was both truncated and delayed, in every
        # region (region=None matches all three).
        assert (result.fault_counters["installs_truncated"]
                == result.fault_counters["installs_delayed"])
        # The delayed+truncated updates landed: tables exist everywhere
        # and sessions kept measuring past the second faulted epoch.
        assert all(c.current_entries() for c in sim.clusters.values())
        assert any(rec.times and max(rec.times) > 3660.0
                   for rec in result.sessions.values())
        # Monotonic install sequencing held despite the delays.
        assert all(seq <= sim._epoch_seq
                   for seq in sim._install_seq.values())


class TestPassiveAttribution:
    def test_passive_samples_land_on_the_deciding_gateway(self, regions):
        """Satellite regression: round-robin forwarding must book the
        passive window on the gateway that made the decision, so the
        samples spread across the fleet instead of piling onto the
        lowest id."""
        sim, __ = _run(regions, passive_flush_s=1e9, duration=60.0,
                       variant=replace(xron(), elastic=False))
        tracked_srcs = {pair[0] for pair, rec in sim.sessions.items()
                        if rec.times}
        assert tracked_srcs
        src = next(iter(tracked_srcs))
        with_windows = [g for g in sim.clusters[src].gateways.values()
                        if g.passive.tracked_links]
        assert len(with_windows) > 1
