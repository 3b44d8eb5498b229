"""Placement pin: one SHA-256 over ``place_pg`` results on a fixed grid.

The hash was recorded when single-region pools still had their own flat
straw2 implementation, before every placement went through the
region-spanning rule.  It holds the one-algorithm ``CrushMap`` to the
exact acting sets (and the exact unplaceable cases) the two algorithms
produced: a single region with no rule and three regions under
``RegionRule(spread=3)``; 1-3 OSDs per host, 1 and 4 racks, OSD/host/rack
failure domains, widths 4 and 6, PGs 0-63; and four exclusion cases (none,
one OSD, one host's OSDs, one failed disk).
"""

import hashlib
import itertools

from repro.cluster import ClusterTopology, CrushMap, FailureDomain, PlacementError
from repro.core.digest import canonical_json
from repro.geo.rules import RegionRule
from repro.sim import Environment

PINNED_PLACEMENT_HASH = (
    "fefb0fc82dac68d7174a36cef522d1846222fcf3b30a1587764cffa25ffb2d38"
)

NUM_HOSTS = 12
DOMAINS = (FailureDomain.OSD, FailureDomain.HOST, FailureDomain.RACK)
EXCLUSIONS = ("none", "osd", "host", "failed_disk")


def _place(crush, pg, width, domain, excluded, rule):
    try:
        return crush.place_pg(1, pg, width, domain, excluded_osds=excluded,
                              region_rule=rule)
    except PlacementError:
        return "PlacementError"


def placement_grid():
    """Every grid point's placement, in a fixed order."""
    rows = []
    for (num_regions, rule), osds_per_host, num_racks in itertools.product(
        ((1, None), (3, RegionRule(spread=3))), (1, 2, 3), (1, 4)
    ):
        topo = ClusterTopology(
            Environment(), num_hosts=NUM_HOSTS, osds_per_host=osds_per_host,
            num_racks=num_racks, num_regions=num_regions,
        )
        crush = CrushMap(topo, seed=42)
        for domain, width, pg in itertools.product(DOMAINS, (4, 6), range(64)):
            base = _place(crush, pg, width, domain, set(), rule)
            # The victim is a shard of the base placement when there is
            # one, so every exclusion case remaps.
            victim = (
                base[pg % width] if isinstance(base, list)
                else pg % len(topo.osds)
            )
            for case in EXCLUSIONS:
                excluded = set()
                if case == "osd":
                    excluded = {victim}
                elif case == "host":
                    excluded = set(topo.host_of(victim).osd_ids)
                elif case == "failed_disk":
                    topo.osds[victim].disk.fail()
                acting = _place(crush, pg, width, domain, excluded, rule)
                topo.osds[victim].disk.restore()
                rows.append([
                    num_regions, osds_per_host, num_racks, domain, width,
                    pg, case, acting,
                ])
    return rows


def test_placement_grid_is_pinned():
    rows = placement_grid()
    digest = hashlib.sha256(canonical_json(rows).encode("ascii")).hexdigest()
    assert digest == PINNED_PLACEMENT_HASH
