"""Sweeping the direction circle at a fixed level.

As u rotates, the optimal two-point basis changes only at finitely many
breakpoint angles.  The sweep returns that arc decomposition; the
intersection of the swept halfspaces is the exact depth contour.  The
regular hexagon at tau = 1/4 is a nice case: twelve arcs alternate
between polygon sides and vertex-skipping chords, yet only the six
chords survive as facets of the region.
"""

import numpy as np

from quantour import (
    PointCloud,
    depth_region_bruteforce_2d,
    fixed_tau_region,
    hausdorff_distance,
    probability_contents,
    sweep,
)

ang = np.arange(6) * np.pi / 3.0
hexagon = PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))


def main():
    res = sweep(hexagon, 0.25)
    print(f"hexagon, tau = 0.25: {len(res.arcs)} arcs")
    print(f"{'start':>9} {'end':>9} {'width':>8} fitted  n_below")
    # one table row per arc: bounds, fitted pair, points below the line
    for (start, end), fitted, n_below in zip(
        np.degrees(res.arcs).tolist(), res.fitted.tolist(), res.n_below.tolist()
    ):
        print(
            f"{start:>8.3f}d {end:>8.3f}d {end - start:>7.3f}d "
            f"{tuple(fitted)}   {n_below}"
        )

    region = fixed_tau_region(res)
    print(f"\nregion: {len(region.halfplanes)} facets, area {region.area():.12f}")
    print(f"sqrt(3)/2 =        {np.sqrt(3.0) / 2.0:.12f}")
    print("vertices:")
    for v in region.vertices:
        print(f"  ({v[0]:+.6f}, {v[1]:+.6f})")
    print(f"sample mass inside: {probability_contents(region, hexagon):.3f}")

    # the brute-force depth region, built from every point pair's line,
    # must be the same polygon
    oracle = depth_region_bruteforce_2d(hexagon, 0.25)
    gap = hausdorff_distance(region, oracle)
    print(f"\nsweep vs brute-force region: Hausdorff distance {gap:.1e}")


if __name__ == "__main__":
    main()
