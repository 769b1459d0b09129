"""End-to-end: real simulations emit the documented trace events.

Reuses the deterministic degradation recipe of
``tests/core/test_eventsim.py``: a quiet underlay plus one injected
Internet degradation on the busiest pair, so the local fast reaction
must fire — and therefore `failover` events must be traced.
"""

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.simulator import EpochSimulator
from repro.core.variants import xron
from repro.faults import FaultSchedule, controller_outage
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.topology import build_underlay


@pytest.fixture(autouse=True)
def clean_hub():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def regions():
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in ("HGH", "SIN", "FRA")]


def _quiet_build(regions, seed=5):
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = 1e-6
    config.internet.base_loss_max = 1e-5
    config.internet.diurnal_loss_amp = 0.0
    config.internet.short_events_per_day = 0.0
    config.internet.long_events_per_day = 0.0
    config.premium.short_events_per_day = 0.0
    config.premium.long_events_per_day = 0.0
    u = build_underlay(regions, config, seed=seed)
    for (a, b) in u.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(u, a, b, lt)
    return u, DemandModel(regions, seed=seed)


def test_eventsim_emits_probe_and_failover_traces(regions):
    u, d = _quiet_build(regions)
    pair = max(d.pairs, key=lambda p: d.pair_scale(*p))
    inject_events(u, pair[0], pair[1], LinkType.INTERNET,
                  [DegradationEvent(3630.0, 60.0, 5000.0, 0.3)])
    sim = EventDrivenXRON(
        u, d,
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0,
                                    seed=5, demand_scale=0.05),
        tracked_pairs=[pair])

    tel = obs.enable()
    result = sim.run(3600.0, 120.0)

    assert result.detections >= 1  # the recipe still behaves
    kinds = set(tel.tracer.kinds())
    assert "probe_round" in kinds
    assert "failover" in kinds
    assert "control_epoch" in kinds
    assert "algo_step" in kinds
    assert "path_decision" in kinds

    failover = tel.tracer.by_kind("failover")[0]
    # Enum fields coerce to their value at JSON time.
    assert failover.to_json()["degraded_link"] == "internet"
    assert failover.fields["backup_next_hop"]
    assert failover.t is not None and failover.t >= 3600.0

    snap = tel.metrics.snapshot()
    assert snap["reaction.failovers"]["value"] >= 1
    assert snap["cluster.probe_rounds"]["value"] > 0
    assert snap["probing.bursts"]["value"] > 0
    assert snap["controller.epochs"]["value"] >= 1


def test_eventsim_outage_emits_controller_outage(regions):
    u, d = _quiet_build(regions)
    sim = EventDrivenXRON(
        u, d,
        sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=10.0,
                                    seed=5),
        faults=FaultSchedule.of(controller_outage(3650.0, 3800.0)))
    tel = obs.enable()
    sim.run(3600.0, 240.0)
    outages = tel.tracer.by_kind("controller_outage")
    assert outages
    assert outages[0].fields["outage_start"] == 3650.0


def test_epoch_simulator_emits_epoch_and_autoscale_traces(regions):
    u, d = _quiet_build(regions)
    sim = EpochSimulator(
        u, d, xron(),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0,
                                    seed=5))
    tel = obs.enable()
    sim.run(3600.0, 900.0)
    kinds = set(tel.tracer.kinds())
    assert "probe_round" in kinds
    assert "control_epoch" in kinds
    assert "autoscale" in kinds
    assert tel.metrics.snapshot()["simulator.epochs"]["value"] == 3


def test_instrumentation_is_deterministic(regions):
    """Enabling telemetry must not change simulation results."""
    def run_once(enabled):
        obs.reset()
        (obs.enable if enabled else obs.disable)()
        u, d = _quiet_build(regions)
        sim = EventDrivenXRON(
            u, d,
            sim_config=SimulationConfig(epoch_s=60.0, eval_step_s=10.0,
                                        seed=5))
        result = sim.run(3600.0, 120.0)
        return [(pair, tuple(rec.latency_ms), tuple(rec.on_backup))
                for pair, rec in sorted(result.sessions.items())]

    assert run_once(False) == run_once(True)
