"""The scenario DSL, overlay ops, campaign packs, and their parity.

The golden-fixture tests pin each shipped pack's full output (sha256 of
the JSONL stream plus headline counts) at a small scale; regenerate
after intentional changes with::

    REPRO_REGOLD=1 python -m pytest tests/test_scenario.py

Parity tests then assert the exact same bytes come out of every
execution mode: worker counts, reference (no-fastpath) evaluation, and
the email-by-email (no-columnar) engine.
"""

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.core import fastpath
from repro.parallel.runner import run_parallel_simulation
from repro.scenario import ScenarioBuilder, ScenarioError, get_pack, list_packs
from repro.scenario.report import scenario_report
from repro.stream.runner import stream_simulation
from repro.world.config import SimulationConfig
from repro.world.model import build_world
from repro.world.overlay import (
    CampaignOp,
    MxOutageOp,
    MxTopologyOp,
    PublishZoneOp,
    ReceiverAuthOp,
    SenderSpfOp,
    resolve_receiver,
    resolve_sender,
)

GOLDEN_DIR = Path(__file__).parent / "data"
PACK_SCALE = 0.02


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- DSL validation ------------------------------------------------------------


class TestBuilderValidation:
    def test_bad_name_rejected(self):
        with pytest.raises(ScenarioError, match="slug"):
            ScenarioBuilder("not a slug!")

    def test_bad_scale_fails_on_constructor_line(self):
        with pytest.raises(ValueError, match="scale"):
            ScenarioBuilder("x", scale=-1.0)

    def test_configure_validates_eagerly(self):
        builder = ScenarioBuilder("x")
        with pytest.raises(ValueError, match="retry_gap_mean_s"):
            builder.configure(retry_gap_mean_s=-1.0)
        with pytest.raises(ScenarioError, match="unexpected keyword"):
            builder.configure(no_such_field=1)

    def test_duplicate_zone_rejected(self):
        builder = ScenarioBuilder("x").zone("z.example")
        with pytest.raises(ScenarioError, match="already declared"):
            builder.zone("z.example")

    def test_bad_spf_text_rejected(self):
        with pytest.raises(ScenarioError, match="v=spf1"):
            ScenarioBuilder("x").zone("z.example", spf="spf1 +all")
        with pytest.raises(ScenarioError, match="v=spf1"):
            ScenarioBuilder("x").sender(0).spf("+all")

    def test_outage_requires_declared_host(self):
        receiver = ScenarioBuilder("x").receiver(0).mx(("mx1", 10))
        with pytest.raises(ScenarioError, match="declare the host"):
            receiver.outage("mx9", 1, 2)

    def test_blackout_requires_topology(self):
        with pytest.raises(ScenarioError, match="declare the topology"):
            ScenarioBuilder("x").receiver(0).blackout(1, 2)

    def test_bad_outage_window_rejected(self):
        receiver = ScenarioBuilder("x").receiver(0).mx(("mx1", 10))
        with pytest.raises(ScenarioError, match="bad window"):
            receiver.outage("mx1", 5, 5)

    def test_campaign_unknown_major_rejected(self):
        with pytest.raises(ScenarioError, match="not a named major"):
            ScenarioBuilder("x").campaign("c", sender=0, to=["nope.example"])

    def test_campaign_bad_target_type_rejected(self):
        with pytest.raises(ScenarioError, match="bad target"):
            ScenarioBuilder("x").campaign("c", sender=0, to=[3.14])

    def test_compile_requires_a_campaign(self):
        builder = ScenarioBuilder("x").zone("z.example")
        with pytest.raises(ScenarioError, match="no campaigns"):
            builder.compile()

    def test_include_chain_loop_lengths(self):
        builder = ScenarioBuilder("x")
        entry = builder.include_chain("loop.example", length=3)
        assert entry == "chain-0.loop.example"
        zones = [op for op in builder._ops if isinstance(op, PublishZoneOp)]
        assert len(zones) == 3
        assert zones[-1].spf == "v=spf1 include:chain-0.loop.example -all"

    def test_compile_round_trips_through_config_validation(self):
        builder = ScenarioBuilder("x", scale=0.02, seed=5)
        builder.sender(0).spf(None, drop_dkim=True)
        builder.campaign("c", sender=0, to=["gmail.com"], per_day=2, days=(0, 3))
        compiled = builder.compile()
        assert compiled.config.scenario  # carried on the config
        # config_digest must cover the scenario: two scenarios differ.
        from repro.parallel.resume import config_digest

        other = ScenarioBuilder("x", scale=0.02, seed=5)
        other.sender(1).spf(None)
        other.campaign("c", sender=1, to=["gmail.com"], per_day=2, days=(0, 3))
        assert config_digest(compiled.config) != config_digest(other.compile().config)


# -- overlay application -------------------------------------------------------


class TestOverlayApplication:
    @pytest.fixture(scope="class")
    def scenario_world(self):
        ops = (
            PublishZoneOp("prov.example", spf="v=spf1 ip4:1.2.3.4 -all"),
            SenderSpfOp(0, "v=spf1 +all", drop_dkim=True),
            ReceiverAuthOp(0, True),
            MxTopologyOp(1, (("mx1", 10), ("backup", 20))),
            MxOutageOp(1, "mx1", 2, 4),
        )
        config = SimulationConfig(scale=0.02, seed=11, scenario=ops)
        return build_world(config)

    def test_zone_published(self, scenario_world):
        zone = scenario_world.resolver.zone("prov.example")
        assert zone is not None
        assert zone.registered_at(scenario_world.clock.start_ts)
        assert [r.value for r in zone.records] == ["v=spf1 ip4:1.2.3.4 -all"]

    def test_sender_spf_rewritten_dkim_dropped(self, scenario_world):
        from repro.dnssim.records import RecordType

        domain = resolve_sender(scenario_world, 0)
        zone = scenario_world.resolver.zone(domain)
        spf = [r.value for r in zone.records_of(RecordType.TXT_SPF)]
        assert spf == ["v=spf1 +all"]
        assert not zone.records_of(RecordType.TXT_DKIM)
        assert zone.auth_error_windows == []

    def test_receiver_auth_enforced(self, scenario_world):
        domain = resolve_receiver(scenario_world, 0)
        assert scenario_world.receiver_mtas[domain].policy.enforces_auth

    def test_mx_topology_and_outage(self, scenario_world):
        from repro.dnssim.records import RecordType

        domain = resolve_receiver(scenario_world, 1)
        zone = scenario_world.resolver.zone(domain)
        mx = sorted((r.priority, r.value) for r in zone.records_of(RecordType.MX))
        assert mx == [(10, f"mx1.{domain}"), (20, f"backup.{domain}")]
        clock = scenario_world.clock
        inside = clock.day_start(3)
        assert zone.mx_host_down_at(f"mx1.{domain}", inside)
        assert not zone.mx_host_down_at(f"backup.{domain}", inside)

    def test_mx_route_fails_over_during_outage(self, scenario_world):
        domain = resolve_receiver(scenario_world, 1)
        resolver = scenario_world.resolver
        clock = scenario_world.clock
        before = clock.day_start(1)
        during = clock.day_start(3)
        assert resolver.mx_route(domain, before) == (f"mx1.{domain}", False)
        assert resolver.mx_route(domain, during) == (f"backup.{domain}", False)

    def test_empty_scenario_is_byte_neutral(self):
        base = SimulationConfig(scale=0.01, seed=13)
        tagged = SimulationConfig(scale=0.01, seed=13, scenario=())
        a = [r.to_json() for r in stream_simulation(base)]
        b = [r.to_json() for r in stream_simulation(tagged)]
        assert a == b

    def test_unknown_receiver_in_campaign_raises_at_materialisation(self):
        op = CampaignOp("c", 0, receiver_domains=("gmail.com",),
                        per_day=2, start_day=0, end_day=2)
        config = SimulationConfig(scale=0.02, seed=11, scenario=(op,))
        from repro.workload.campaigns import campaign_workload

        bad = CampaignOp("c", 0, receiver_domains=("nope.example",),
                         per_day=2, start_day=0, end_day=2)
        world = build_world(config)
        from repro.util.rng import RandomSource

        with pytest.raises(ScenarioError, match="unknown receiver"):
            list(campaign_workload(bad)(world, RandomSource(1, name="x")))


# -- pack golden fixtures + parity --------------------------------------------


def _run_pack_serial(name: str) -> list[str]:
    compiled = get_pack(name, scale=PACK_SCALE)
    return [r.to_json() for r in
            stream_simulation(compiled.config,
                              extra_workloads=list(compiled.workloads))]


@pytest.fixture(scope="module")
def pack_lines():
    return {name: _run_pack_serial(name) for name, _ in list_packs()}


class TestPackGoldens:
    @pytest.mark.parametrize("name", ["spf-epidemic", "mx-failover"])
    def test_matches_golden(self, pack_lines, name):
        lines = pack_lines[name]
        compiled = get_pack(name, scale=PACK_SCALE)
        text = "\n".join(lines) + "\n"
        from repro.delivery.records import DeliveryRecord

        records = [DeliveryRecord.from_json(line) for line in lines]
        scen = [r for r in records if "scenario" in r.truth_tags]
        truth = Counter()
        for record in scen:
            if record.delivered:
                truth["delivered"] += 1
            else:
                truth[record.final_attempt().truth_type or "dropped"] += 1
        actual = {
            "pack": name,
            "scale": PACK_SCALE,
            "seed": compiled.config.seed,
            "n_records": len(lines),
            "n_scenario": len(scen),
            "scenario_outcomes": dict(sorted(truth.items())),
            "stream_sha256": _sha(text),
        }
        golden = GOLDEN_DIR / f"scenario_{name}.json"
        if os.environ.get("REPRO_REGOLD"):
            golden.write_text(json.dumps(actual, indent=2) + "\n",
                              encoding="utf-8")
        expected = json.loads(golden.read_text(encoding="utf-8"))
        assert actual == expected

    def test_spf_pack_produces_permerror_bounces(self, pack_lines):
        from repro.delivery.records import DeliveryRecord

        records = [DeliveryRecord.from_json(line)
                   for line in pack_lines["spf-epidemic"]]
        t3 = [r for r in records
              if "broken-include" in r.truth_tags and r.bounced
              and r.final_attempt().truth_type == "T3"]
        assert len(t3) > 100  # the epidemic is visible, not incidental
        loop_t3 = [r for r in records
                   if "include-loop" in r.truth_tags and r.bounced
                   and r.final_attempt().truth_type == "T3"]
        assert len(loop_t3) > 100
        # The +all control arm never fails authentication — any residual
        # bounces are ordinary receiver behaviour (quota, greylisting),
        # never T3.
        permissive = [r for r in records if "permissive-all" in r.truth_tags]
        assert permissive
        assert not [r for r in permissive if r.bounced
                    and r.final_attempt().truth_type == "T3"]
        assert sum(r.delivered for r in permissive) > 0.8 * len(permissive)

    def test_mx_pack_bounces_only_in_blackouts(self, pack_lines):
        from repro.delivery.records import DeliveryRecord

        compiled = get_pack("mx-failover", scale=PACK_SCALE)
        world = build_world(compiled.config)
        clock = world.clock
        records = [DeliveryRecord.from_json(line)
                   for line in pack_lines["mx-failover"]]
        t14 = [r for r in records if "scenario" in r.truth_tags and r.bounced
               and r.final_attempt().truth_type == "T14"]
        assert len(t14) > 30
        # Every scenario T14 starts inside a declared blackout window.
        blackouts = [(30, 33), (45, 47)]
        for record in t14:
            day = (record.start_time - clock.start_ts) / 86400.0
            assert any(lo <= day < hi for lo, hi in blackouts), day
        # The primary-only outage (days 10-17) fails over silently.
        tiered = resolve_receiver(world, 1)
        d10_17 = [r for r in records
                  if "scenario" in r.truth_tags
                  and r.receiver_domain == tiered
                  and 10 <= (r.start_time - clock.start_ts) / 86400.0 < 17]
        assert d10_17 and all(r.delivered for r in d10_17)


class TestPackParity:
    @pytest.mark.parametrize("name", ["spf-epidemic", "mx-failover"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_byte_identical(self, pack_lines, name, workers):
        compiled = get_pack(name, scale=PACK_SCALE)
        with run_parallel_simulation(
            compiled.config, workers=workers,
            extra_workloads=list(compiled.workloads),
        ) as run:
            parallel = [r.to_json() for r in run.iter_records()]
        assert parallel == pack_lines[name]

    def test_run_with_workers_removes_its_shards(
        self, pack_lines, monkeypatch, tmp_path
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        compiled = get_pack("spf-epidemic", scale=PACK_SCALE)
        lines = [r.to_json() for r in compiled.run(workers=2)]
        assert lines == pack_lines["spf-epidemic"]
        assert list(tmp_path.glob("repro-parallel-*")) == []

    @pytest.mark.parametrize("name", ["spf-epidemic", "mx-failover"])
    def test_no_cache_byte_identical(self, pack_lines, name):
        fastpath.disable()
        try:
            assert _run_pack_serial(name) == pack_lines[name]
        finally:
            fastpath.enable()

    @pytest.mark.parametrize("name", ["spf-epidemic", "mx-failover"])
    def test_no_columnar_byte_identical(self, pack_lines, name):
        fastpath.disable_columnar()
        try:
            assert _run_pack_serial(name) == pack_lines[name]
        finally:
            fastpath.enable_columnar()


class TestReport:
    def test_spf_report_sections(self, pack_lines):
        from repro.delivery.records import DeliveryRecord

        compiled = get_pack("spf-epidemic", scale=PACK_SCALE)
        records = [DeliveryRecord.from_json(line)
                   for line in pack_lines["spf-epidemic"]]
        report = scenario_report(compiled, records)
        assert "LOOKUP-LIMIT OVERRUN" in report
        assert "SPOOFABLE" in report
        assert "PERMERROR" in report
        assert "broken-include" in report and "include-loop" in report

    def test_mx_report_sections(self, pack_lines):
        from repro.delivery.records import DeliveryRecord

        compiled = get_pack("mx-failover", scale=PACK_SCALE)
        records = [DeliveryRecord.from_json(line)
                   for line in pack_lines["mx-failover"]]
        report = scenario_report(compiled, records)
        assert "MX availability timeline" in report
        assert "<- outage" in report
        assert "misconfig episodes on scenario entities" in report
