"""The site catalog: what a population has to browse.

A :class:`SiteCatalog` holds N sites ranked by popularity. Popularity
follows a Zipf law (rank ``r`` drawn with probability proportional to
``r**-s``), the standard model for web-site request frequency, so a
population's request stream concentrates on a warm head — which is
exactly what lets daemon path caches and HTTP connection pools show
their worth under load.

Each site has a stable resource profile (subresource count and sizes)
drawn once from the dedicated ``catalog:{seed}`` RNG stream, and builds
its :class:`~repro.core.browser.page.WebPage` under a per-site URL
prefix — two sites on the same origin never share asset URLs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro.core.browser.page import Resource, WebPage, content_for_origin

#: Classic web-popularity exponent (Breslau et al.: 0.6–0.9).
DEFAULT_ZIPF_EXPONENT = 0.9


@dataclass(frozen=True)
class SiteProfile:
    """One site: an origin, a popularity rank, and a resource profile."""

    name: str
    origin: str
    rank: int  # 1-based popularity rank (1 = most popular)
    n_resources: int
    mean_resource_bytes: int
    html_size: int

    def page(self) -> WebPage:
        """The site's static page, namespaced under ``/{name}/``.

        Sizes come from the site's own RNG stream, so the page is a
        pure function of the profile — every user loads byte-identical
        content.
        """
        rng = random.Random(f"site:{self.name}")
        resources = tuple(
            Resource(host=self.origin,
                     path=f"/{self.name}/asset-{index}.png",
                     size=max(256, int(rng.uniform(0.5, 1.5)
                                       * self.mean_resource_bytes)),
                     content_type="image/png")
            for index in range(self.n_resources))
        return WebPage(host=self.origin, path=f"/{self.name}/index.html",
                       html_size=self.html_size, resources=resources)


class ZipfSampler:
    """Inverse-CDF Zipf(s) sampler over ranks ``1..n`` (0-based draws).

    The cumulative weights are precomputed once; each draw is one
    ``rng.random()`` plus a bisect — O(log n), no rejection loop, and
    fully deterministic given the caller's RNG stream.
    """

    __slots__ = ("exponent", "_cumulative")

    def __init__(self, n: int, exponent: float = DEFAULT_ZIPF_EXPONENT):
        if n < 1:
            raise ValueError("a Zipf sampler needs at least one rank")
        self.exponent = exponent
        total = 0.0
        cumulative = []
        for rank in range(1, n + 1):
            total += rank ** -exponent
            cumulative.append(total)
        self._cumulative = tuple(value / total for value in cumulative)

    def __len__(self) -> int:
        return len(self._cumulative)

    def probability(self, index: int) -> float:
        """The probability mass of the 0-based ``index``."""
        previous = self._cumulative[index - 1] if index else 0.0
        return self._cumulative[index] - previous

    def sample(self, rng: random.Random) -> int:
        """Draw a 0-based index from ``rng`` (index 0 = rank 1)."""
        return bisect.bisect_left(self._cumulative, rng.random())


class SiteCatalog:
    """An immutable ranked site list plus its popularity sampler.

    Pages are memoized per site: the catalog is shared by every user in
    a world, so one world builds each site's page exactly once.
    """

    __slots__ = ("sites", "sampler", "_pages")

    def __init__(self, sites, exponent: float = DEFAULT_ZIPF_EXPONENT):
        self.sites: tuple[SiteProfile, ...] = tuple(sites)
        self.sampler = ZipfSampler(len(self.sites), exponent)
        self._pages: dict[int, WebPage] = {}

    def __len__(self) -> int:
        return len(self.sites)

    def sample_index(self, rng: random.Random) -> int:
        """Draw a site index by Zipf popularity."""
        return self.sampler.sample(rng)

    def page_for(self, index: int) -> WebPage:
        """The (memoized) page of site ``index``."""
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = self.sites[index].page()
        return page

    def origins(self) -> tuple[str, ...]:
        """Distinct origins, in first-appearance order."""
        seen: dict[str, None] = {}
        for site in self.sites:
            seen.setdefault(site.origin, None)
        return tuple(seen)

    def origin_content(self, origin: str):
        """The merged content map an origin server needs to serve every
        site the catalog places on ``origin``."""
        content = {}
        for index, site in enumerate(self.sites):
            if site.origin == origin:
                content.update(content_for_origin(self.page_for(index),
                                                  origin))
        return content


def default_catalog(n_sites: int, origins, seed: int = 0,
                    exponent: float = DEFAULT_ZIPF_EXPONENT) -> SiteCatalog:
    """A catalog of ``n_sites`` sites spread across ``origins``.

    Site profiles (origin placement, resource count, sizes) are drawn
    from the dedicated ``catalog:{seed}`` stream — independent of every
    other RNG consumer, so changing e.g. the arrival curve never
    reshuffles the catalog.
    """
    if not origins:
        raise ValueError("a catalog needs at least one origin")
    rng = random.Random(f"catalog:{seed}")
    origins = tuple(origins)
    sites = []
    for rank in range(1, n_sites + 1):
        sites.append(SiteProfile(
            name=f"site-{rank:03d}",
            origin=origins[rng.randrange(len(origins))],
            rank=rank,
            n_resources=rng.randint(3, 9),
            mean_resource_bytes=rng.randint(6_000, 24_000),
            html_size=rng.randint(8_000, 20_000),
        ))
    return SiteCatalog(sites, exponent=exponent)
