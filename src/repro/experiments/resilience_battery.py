"""The resilience battery: time-to-recover and PLT under path churn.

The chaos battery (PR 2) measures how one page load survives a fault.
This battery measures how fast the *system* heals: a browsing session
keeps loading the same page every :data:`LOAD_PERIOD_MS` while the
preferred core link flaps repeatedly, and we record

* **time-to-recover (TTR)** — how long after the first failure the
  session gets its next *clean* load (every fetch succeeds on its
  first-choice path: no failover, no fallback, nothing lost), and
* **PLT under churn** — the mean page-load time across the session,
* **failed requests** — fetches that failed on the path initially
  chosen for them (rescued by SCION failover or IP fallback, or lost).

Cells cross ``revocation on/off × opportunistic/strict``. With
revocation enabled, routers adjacent to the flapping link originate
SCMP-style revocations (:mod:`repro.scion.revocation`), so by the next
load the daemon already filtered the dead path — recovery costs one
propagation delay. With revocation disabled, every dead path must be
discovered by a request timing out on it — recovery costs a full
timeout plus blacklist cycle. The battery proves the former strictly
beats the latter in both proxy modes.

Trials are pure functions of ``(revocation, mode, seed)``; serial and
worker-pool runs are bit-identical, like every other battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.fault_battery import MODES, build_fault_world
from repro.experiments.harness import Battery, BoxStats, World, mean
from repro.simnet.faults import FaultSchedule, inject

#: The battery's two control-plane conditions, in presentation order.
REVOCATION_CONDITIONS = (True, False)

#: Page loads per trial session and their cadence.
SESSION_LOADS = 6
LOAD_PERIOD_MS = 15_000.0

#: The link-flap churn the session endures: (start_ms, duration_ms) on
#: the latency-best detour link. The first flap is the recovery clock's
#: zero point.
FLAPS = ((10_000.0, 15_000.0), (32_000.0, 8_000.0), (55_000.0, 10_000.0))

#: Subresources per page (5 fetches per load with the main document).
N_RESOURCES = 4


def churn_schedule(ases) -> FaultSchedule:
    """The battery's link-flap churn on the detour link."""
    schedule = FaultSchedule()
    target = f"{ases.local_core}~{ases.third_core}"
    for at_ms, duration_ms in FLAPS:
        schedule.link_down(target, at_ms=at_ms, duration_ms=duration_ms)
    return schedule


def _session(world: World, loads: int):
    """Driver process: paced loads, one session, result rows.

    Yields loop events; returns ``[(start_ms, done_ms, result), …]``.
    """
    loop = world.internet.loop
    rows = []
    for index in range(loads):
        start = index * LOAD_PERIOD_MS
        if loop.now < start:
            yield loop.timeout(start - loop.now)
        started = loop.now
        result = yield from world.browser.load(world.page)
        rows.append((started, loop.now, result))
    return rows


def resilience_trial(revocation: bool | None, mode: str, seed: int,
                     loads: int = SESSION_LOADS) -> tuple[float, float,
                                                          float, float]:
    """One churn session; returns ``(ttr_ms, mean_plt_ms,
    failed_requests, lost_requests)``.

    * ``ttr_ms`` — completion of the first clean load at/after the first
      flap, minus the flap time (saturated at the session window's end
      when no load after the first fault is clean).
    * ``mean_plt_ms`` — mean PLT over every load in the session.
    * ``failed_requests`` — fetches that failed on their initially
      chosen path (failover + fallback rescues plus outright losses).
    * ``lost_requests`` — fetches that never arrived at all.

    The world is the chaos battery's, with revocation dissemination
    switched per cell; ``revocation=None`` defers to the
    ``REPRO_REVOCATION`` knob (the ablation harness drives the battery
    that way). Pure function of its arguments — the parallel trial pool
    relies on that.
    """
    world = build_fault_world(seed, n_resources=N_RESOURCES,
                              strict=(mode == "strict"),
                              revocation=revocation)
    inject(world.internet, churn_schedule(world.ases))
    rows = world.internet.loop.run_process(_session(world, loads))
    total_per_load = 1 + len(world.page.resources)
    first_fault = FLAPS[0][0]
    ttr = loads * LOAD_PERIOD_MS - first_fault
    plts = []
    failed_requests = 0.0
    lost_requests = 0.0
    recovered = False
    for started, done, result in rows:
        plts.append(result.plt_ms)
        lost = total_per_load - result.ok_count
        failed_requests += result.failover_count + result.fallback_count \
            + lost
        lost_requests += lost
        clean = (lost == 0 and result.failover_count == 0
                 and result.fallback_count == 0)
        if not recovered and started >= first_fault and clean:
            recovered = True
            ttr = done - first_fault
    return (ttr, sum(plts) / len(plts), failed_requests, lost_requests)


@dataclass(frozen=True)
class ResilienceCell:
    """One (revocation, mode) cell of the battery."""

    ttr: BoxStats
    plt: BoxStats
    failed_requests: int
    lost_requests: int
    total_requests: int


@dataclass
class ResilienceBatteryResult:
    """The whole battery: one :class:`ResilienceCell` per condition."""

    trials: int
    cells: dict[tuple[bool, str], ResilienceCell] = field(
        default_factory=dict)

    def cell(self, revocation: bool, mode: str) -> ResilienceCell:
        """Look up one cell."""
        return self.cells[(revocation, mode)]

    def render(self) -> str:
        """The battery as a text table."""
        lines = [
            "== Resilience battery — time-to-recover and PLT under "
            "path churn ==",
            (f"{self.trials} trials/cell; {SESSION_LOADS} loads per "
             f"session every {LOAD_PERIOD_MS / 1000:.0f} s under "
             f"{len(FLAPS)} link flaps; failed = fetches that failed "
             "on their first-choice path"),
            "",
        ]
        for (revocation, mode), cell in self.cells.items():
            label = f"revocation-{'on' if revocation else 'off'} / {mode}"
            lines.append(cell.ttr.row(f"{label} TTR"))
            lines.append(cell.plt.row(f"{label} PLT"))
            lines.append(f"{'':<24} failed={cell.failed_requests}"
                         f"/{cell.total_requests} "
                         f"lost={cell.lost_requests}")
        lines.append(
            "note: expected shape — with revocation dissemination on, "
            "the first load after a flap is already clean (TTR ≈ one "
            "load period), because the daemon dropped the dead path "
            "before any request tried it; with it off, every recovery "
            "waits for a request to time out on the dead path first, "
            "so TTR is several times higher and more requests fail, in "
            "both proxy modes")
        return "\n".join(lines)


def _assemble(trials: int, rows_by_cell,
              loads: int = SESSION_LOADS) -> ResilienceBatteryResult:
    battery = ResilienceBatteryResult(trials=trials)
    per_session = loads * (1 + N_RESOURCES)
    for key, rows in rows_by_cell.items():
        battery.cells[key] = ResilienceCell(
            ttr=BoxStats.from_samples([row[0] for row in rows]),
            plt=BoxStats.from_samples([row[1] for row in rows]),
            failed_requests=int(sum(row[2] for row in rows)),
            lost_requests=int(sum(row[3] for row in rows)),
            total_requests=trials * per_session,
        )
    return battery


def resilience_holds(battery: ResilienceBatteryResult) -> bool:
    """The acceptance shape: revocation-on recovers strictly faster and
    fails strictly fewer requests than revocation-off, per mode."""
    for mode in MODES:
        on = battery.cell(True, mode)
        off = battery.cell(False, mode)
        if not (on.ttr.mean < off.ttr.mean
                and on.failed_requests < off.failed_requests
                and on.lost_requests <= off.lost_requests):
            return False
    return True


def _measured(battery: ResilienceBatteryResult) -> str:
    on = battery.cell(True, "opportunistic")
    off = battery.cell(False, "opportunistic")
    return (f"TTR {on.ttr.mean / 1000:.1f} s (revocation on) vs "
            f"{off.ttr.mean / 1000:.1f} s (off); failed fetches "
            f"{on.failed_requests} vs {off.failed_requests} "
            "(opportunistic; strict matches)")


RESILIENCE = Battery(
    name="resilience", label="Resilience battery",
    title="Resilience battery — self-healing paths under churn",
    claim="§4.2: path awareness lets hosts heal around failures without "
          "waiting for them locally — revocation dissemination recovers "
          "sessions faster than timeout-driven discovery",
    measured=_measured, holds=resilience_holds, assemble=_assemble,
    cells=tuple((revocation, mode) for revocation in REVOCATION_CONDITIONS
                for mode in MODES),
    trial=resilience_trial, base_seed=4200, trials=6, opt_in=True,
    reducers=(("ttr_ms", mean), ("plt_ms", mean),
              ("failed_requests", sum), ("lost_requests", sum)),
)
