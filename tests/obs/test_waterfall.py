"""Waterfall assembly and the PLT-breakdown acceptance invariant.

The subsystem's acceptance gate lives here: for every Figure 3
condition, a traced load's waterfall must decompose the *measured* PLT
into phases that sum back to it exactly (±1 event-loop tick).
"""

import pytest

from repro.errors import ReproError
from repro.experiments.fault_battery import CHAOS
from repro.experiments.local_setup import FIGURE3, FIGURE3_CONDITIONS
from repro.experiments.remote_setup import FIGURE5
from repro.obs.spans import Tracer
from repro.obs.waterfall import (PltBreakdown, assemble_waterfall,
                                 waterfall_from_dict)
from repro.simnet.events import EventLoop


class TestAcceptanceInvariant:
    @pytest.mark.parametrize("condition", FIGURE3_CONDITIONS)
    def test_breakdown_sums_to_measured_plt(self, condition):
        world, result = FIGURE3.traced(condition, seed=107)
        plt_ms = result.plt_ms
        waterfall = assemble_waterfall(world.tracer)
        waterfall.breakdown.check(plt_ms)  # raises on mismatch
        assert waterfall.plt_ms == pytest.approx(plt_ms)

    def test_remote_load_breakdown_sums(self):
        world, result = FIGURE5.traced("single origin / SCION", seed=503)
        assemble_waterfall(world.tracer).breakdown.check(result.plt_ms)

    def test_fault_load_breakdown_sums(self):
        world, result = CHAOS.traced("link-flap", "opportunistic", seed=501)
        assemble_waterfall(world.tracer).breakdown.check(result.plt_ms)

    def test_failed_load_attributes_everything_to_main(self):
        # strict-SCION with zero compliant paths on the main document
        # host is impossible in the standard testbed, so synthesize one.
        tracer = Tracer(EventLoop())
        page = tracer.span("page.load", host="x.example")
        main = tracer.span("browser.fetch", parent=page, url="x.example/",
                           main=True)
        tracer.loop.run(until=7.0)
        main.end("error")
        page.set(failed=True).end("error")
        waterfall = assemble_waterfall(tracer)
        assert waterfall.breakdown.failed
        assert waterfall.breakdown.main_document_ms == 7.0
        assert waterfall.breakdown.parse_ms == 0.0
        waterfall.breakdown.check(7.0)

    def test_check_raises_on_mismatch(self):
        breakdown = PltBreakdown(plt_ms=10.0, main_document_ms=3.0,
                                 parse_ms=2.0, subresources_ms=4.0,
                                 failed=False)
        with pytest.raises(ReproError):
            breakdown.check()
        breakdown.check(9.0)  # against the actual sum it passes


class TestAssembly:
    def test_rows_cover_every_fetch_with_segments(self):
        world, _result = FIGURE3.traced("mixed SCION-IP", seed=111,
                                        n_resources=6)
        waterfall = assemble_waterfall(world.tracer)
        assert len(waterfall.rows) == 1 + 6
        assert waterfall.rows[0].main  # main document sorts first
        for row in waterfall.rows:
            labels = {segment.label for segment in row.segments}
            assert "extension.intercept" in labels
            assert "proxy.fetch" in labels

    def test_no_page_load_raises(self):
        tracer = Tracer(EventLoop())
        tracer.span("browser.fetch").end()
        with pytest.raises(ReproError):
            assemble_waterfall(tracer)

    def test_page_index_selects_among_loads(self):
        world, _result = FIGURE3.traced("mixed SCION-IP", seed=115,
                                        n_resources=2)
        result = world.internet.loop.run_process(
            world.browser.load(world.page))  # second load, cache-warm
        second = assemble_waterfall(world.tracer, page_index=1)
        second.breakdown.check(result.plt_ms)
        first = assemble_waterfall(world.tracer, page_index=0)
        assert first.rows[0].start_ms < second.rows[0].start_ms
        with pytest.raises(ReproError):
            assemble_waterfall(world.tracer, page_index=2)

    def test_dict_round_trip(self):
        world, _result = FIGURE3.traced("mixed SCION-IP", seed=119,
                                        n_resources=3)
        waterfall = assemble_waterfall(world.tracer)
        rebuilt = waterfall_from_dict(waterfall.to_dict())
        assert rebuilt.to_dict() == waterfall.to_dict()

    def test_render_mentions_page_and_phases(self):
        world, _result = FIGURE3.traced("mixed SCION-IP", seed=123,
                                        n_resources=2)
        text = assemble_waterfall(world.tracer).render()
        assert "PLT" in text and "parse" in text and "subresources" in text
