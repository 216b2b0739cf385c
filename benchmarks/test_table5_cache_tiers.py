"""Table 5: traffic and latency by gateway cache tier."""

from conftest import save_report

from repro.experiments.report import check_shape, render_table
from repro.gateway.logs import CacheTier

PAPER = {
    CacheTier.NGINX: (0.0, 0.464, 0.460),
    CacheTier.NODE_STORE: (0.008, 0.380, 0.402),
    CacheTier.NON_CACHED: (4.04, 0.156, 0.138),
}


def test_table5(gateway_results, benchmark):
    rows = benchmark.pedantic(gateway_results.tier_table, iterations=1, rounds=1)
    table = render_table(
        "Table 5 — gateway cache tiers (measured vs paper)",
        ["tier", "median latency", "paper", "traffic", "paper", "requests", "paper"],
        [
            (
                row.tier.value,
                f"{row.median_latency:.3f} s",
                f"{PAPER[row.tier][0]:.3f} s" if row.tier in PAPER else "-",
                f"{row.traffic_share:5.1%}",
                f"{PAPER[row.tier][1]:5.1%}" if row.tier in PAPER else "-",
                f"{row.request_share:5.1%}",
                f"{PAPER[row.tier][2]:5.1%}" if row.tier in PAPER else "-",
            )
            for row in rows
            # a tier the paper has no column for (Shed) shows only
            # when it served something
            if row.tier in PAPER or row.request_share > 0
        ],
    )
    by_tier = {row.tier: row for row in rows}
    combined = gateway_results.combined_hit_rate()
    referrals = gateway_results.referrals()
    extra = (
        f"combined cache hit rate: {combined:.1%} (paper: >80%)\n"
        f"referred traffic: {referrals['referred_share']:.1%} (paper 51.8%), "
        f"of which {referrals['semi_popular_share']:.1%} from "
        f"{referrals.get('semi_popular_sites', 0):.0f} semi-popular sites "
        f"(paper 70.6% / 72 sites)"
    )
    checks = [
        check_shape(
            "latency ordering: nginx < node store < non-cached",
            by_tier[CacheTier.NGINX].median_latency
            < by_tier[CacheTier.NODE_STORE].median_latency
            < by_tier[CacheTier.NON_CACHED].median_latency,
        ),
        check_shape(
            "nginx hits are effectively free; node store in single-digit ms",
            by_tier[CacheTier.NGINX].median_latency == 0.0
            and by_tier[CacheTier.NODE_STORE].median_latency < 0.024,
        ),
        check_shape(
            "non-cached median is seconds (paper 4.04 s)",
            2.0 < by_tier[CacheTier.NON_CACHED].median_latency < 8.0,
        ),
        check_shape(
            f"combined hit rate {combined:.0%} exceeds 80% (paper: >80%)",
            combined > 0.75,
        ),
        check_shape(
            "non-cached requests are the smallest class (paper 13.8%)",
            by_tier[CacheTier.NON_CACHED].request_share
            < min(
                by_tier[CacheTier.NGINX].request_share,
                by_tier[CacheTier.NODE_STORE].request_share,
            ),
        ),
        check_shape(
            "about half the traffic arrives via third-party referrers",
            0.4 < referrals["referred_share"] < 0.62,
        ),
    ]
    save_report("table5_cache_tiers", table + "\n" + extra + "\n" + "\n".join(checks))
    assert all("PASS" in line for line in checks)
