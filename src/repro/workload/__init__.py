"""Population-scale traffic generation ("a city browses").

The paper evaluates the browser integrations with a handful of
sequential page loads; this package generates the load the ROADMAP
north star actually asks about — *populations* of browsers per world:

* :mod:`repro.workload.catalog` — a site catalog with Zipf popularity
  and per-site resource profiles;
* :mod:`repro.workload.session` — per-user session plans (think time,
  tab parallelism, revisit locality so warm HTTP pools and daemon
  caches actually get hit);
* :mod:`repro.workload.arrivals` — open-loop, diurnal, flash-crowd
  and correlated site-of-the-day spike arrival curves.

Everything is driven by dedicated string-seeded RNG streams
(``random.Random(f"catalog:{seed}")`` etc. — SHA-512 seeded, stable
across processes), so the same seed yields the same workload in every
worker: serial == ``REPRO_WORKERS=4`` bit-identity is preserved by
construction. The consumer is
:mod:`repro.experiments.population`.
"""

from repro.workload.arrivals import (ArrivalCurve, arrival_times,
                                     burst_intensity, burst_mass,
                                     burst_window_ms, spike_site_flags)
from repro.workload.catalog import (SiteCatalog, SiteProfile, ZipfSampler,
                                    default_catalog)
from repro.workload.session import SessionConfig, Visit, plan_session

__all__ = [
    "ArrivalCurve", "arrival_times", "burst_intensity", "burst_mass",
    "burst_window_ms", "spike_site_flags",
    "SiteCatalog", "SiteProfile", "ZipfSampler", "default_catalog",
    "SessionConfig", "Visit", "plan_session",
]
