"""Figures bench: the paper's Figs 4-11, Tables 1-5 and the six design
ablations at the frozen bench shape (``BENCH_figures.json``, pinned by
``test_graded_bench.py``), written to ``results/figures.txt``.

``BODY_SHA256`` and ``CHECKS`` were frozen from the 21 per-figure
benches this registry replaced, before they were deleted: the sha256 of
every rendered table or figure and the description of each of its 77
shape checks, all ``[PASS]``. ``CHECKS`` also lists, in place, the 17
paper-target registry rows the figures grade beside their shape checks
(the other 10 registry rows are shape checks re-keyed). A displayed
number that moves must edit them; nothing else may. Since the gateway
day has one latency stream, ``fig11.size_latency_abs_r`` is an
informational row and no longer among them. The ``ablation.hydra`` and
``ablation.client_server`` entries were re-frozen when their arms became
build inputs of the one table fill (the ledger has old and new).
"""

import pytest
from conftest import save_report

from repro.experiments.figures import FiguresConfig, run_figures
from repro.validation.compare import Grade

BODY_SHA256 = {
    "fig04a":
        "0e77b1189628b761d818fe87165cfde0432c136ab0d9d7c1333248afe6b8eecb",
    "fig04b":
        "4b35275ea89347337d98c1946e7b9511fe62129ee071ce802bcefc7dd9436f29",
    "fig05":
        "70763014b45c1ac407f369ed80b8610a45a24370508d00edaec3bcc50d0d9c4b",
    "fig06":
        "d59322ddc6c304d3388ddb1cf2fdc67447f8e8db150b73092c824762fa9fc25a",
    "fig07":
        "2153025ca6e131790a61a0210858ee15cb4f06106c747431be3bfccde7460ba3",
    "fig08":
        "1dad5f72de3ebdfc7b8c98ee656fe97af6691210b896a02cb17046841b377d1e",
    "fig09abc":
        "e99deba521e91e741311e2be5bea046004b454f4aab4aaca1b3c8a3344737e74",
    "fig09def":
        "4cc6c23cd12d1d345c79a3d4c457ce054afedf5d57a120707858854f07521bb0",
    "fig10":
        "a595a40d9363bc63208f4889ddea676335b8c1ff89eb843c2e7799164c5e29ac",
    "fig11":
        "7bef50acd7422b31549f1f2bd3957e35c769cf1f625604b4f3c8c45fbd648c83",
    "table1":
        "d9185038c50bb5d0ac352a4cab9a76328500b25fb638ef84955bc1be4344eba2",
    "table2":
        "bd5307c57bafbc9033dfa0189cd25cdfc4d6b9a93870db20671b615ddf05730f",
    "table3":
        "373f1b2454b3c8970233e2853492999b6fb4fad1c482dfe0b76e2711abb60b79",
    "table4":
        "1732fc6f526c931c4e0a125eccffeaf35545ce1461a3da389bdec81c6b8b0a4b",
    "table5":
        "7bc05574f5ffe822e9ee0f55379628e7ba4aa93bb2a5d74ff44d482ba048030f",
    "ablation.alpha":
        "e90d29948b0b8366bf6a86f8f995188b581230508affe05f6b1673dacdc8b468",
    "ablation.client_server":
        "cf41252729de34199be8079114f7fa7ea7235128e3294b967e2dc4f1792733e2",
    "ablation.gateway_cache":
        "c3f0fd2b9b0fd4327e5d90003328650721752df509252d0976548ebec2f6bac3",
    "ablation.hydra":
        "e69121ad26fafc298396132444505a0830e75324ddee11cbc71a5a7fc35f8df6",
    "ablation.parallel_lookup":
        "8e21555c628c75128b0ddfc847f27adf6f62192a70507dd7d67a78469dad155e",
    "ablation.replication":
        "9197f4b735d006aaa79d19b4b7588aa7094ff044176335357ecb59ab60704757",
}

CHECKS = {
    "fig04a": [
        '24 crawls completed over the campaign window',
        'probed peers split into all three reliability classes (paper: 1.4% reliable, ~1/3 never reachable)',
        'every crawl reaches the bulk of the server population',
        'a large minority of crawled peers is undialable (measured 49%, paper ~45.5% of addresses)',
        'peer counts are stable crawl over crawl (no collapse)',
    ],
    "fig04b": [
        'the day is fully covered in 5-minute bins',
        'demand is diurnal: peak bin at least 1.5x the trough bin',
        'no empty bins (the gateway is busy all day, as in Fig 4b)',
        'requests per distinct user over the day (paper 7.1 M / 101 k)',
        'requests per distinct CID over the day (paper 7.1 M / 274 k)',
    ],
    "fig05": [
        'US and CN dominate (paper: 28.5% and 24.2%)',
        'FR / TW / KR fill the next ranks',
        'top-five shares within 3 points of the paper',
        '~150 countries observed (152)',
        'multihoming share 9.0% (paper 8.8%)',
        'US share of peers (paper 28.5%)',
        'CN share of peers (paper 24.2%)',
    ],
    "fig06": [
        'US then CN lead (paper: 50.4% / 31.9%)',
        'US share within 5 points of the paper',
        '~59 countries send requests',
        'US share of distinct users (paper 50.4%)',
        'CN share of distinct users (paper 31.9%)',
    ],
    "fig07": [
        '~1.4% of peers reliable (measured 2.1%)',
        '~1/3 of peers never reachable (measured 32.8%)',
        'reliable distribution is egalitarian: largest country < 1.5% of all peers (paper: 0.3% for the US)',
        'most IPs host a single PeerID (98.8%)',
        'a few mega-IPs host thousands of PeerIDs',
        'top-10 ASes hold ~65% of IPs',
        'top-100 ASes hold ~90% of IPs',
    ],
    "fig08": [
        'most sessions are short: 94% under 8 h (paper 87.6%)',
        'long sessions are rare: 0.0% over 24 h (paper 2.5%)',
        'several hundred session observations per campaign',
        "Germany's median uptime (68 min) above Hong Kong's (38 min), as in the paper (the 12 h window censors DE's long tail, so the factor is smaller than the paper's 2x)",
    ],
    "fig09abc": [
        'DHT walk dominates publication (measured 91%, paper 87.9%)',
        'RPC batch: 47% under 2 s (paper 43.3%)',
        'RPC batch: 38% at/over 5 s (paper 53.7%)',
        'overall publication median in the tens of seconds',
        'median publication latency, all regions pooled (paper 33.8 s)',
    ],
    "fig09def": [
        '100% retrieval success (paper reports the same)',
        'single walk median 646 ms is sub-second (paper 622 ms)',
        'both walks < 2 s for >=50% of retrievals (measured 72%)',
        'fetch: 100% under 1.26 s (paper >99%)',
        'retrieval floor at the 1 s Bitswap window',
        'retrieval p50, all regions pooled (Table 4 Total row)',
        'retrieval p90, all regions pooled (Table 4 Total row)',
        'retrieval p95, all regions pooled (Table 4 Total row)',
        'KS distance to the digitized Fig 9d retrieval CDF',
    ],
    "fig10": [
        'median stretch with window 4.8 is ~4 (paper 4.3): the cost of decentralization',
        'dropping the Bitswap window lowers stretch across the board',
        "eu_central stretch < 2 for 14% of retrievals without the window (paper: 80%; our EU walks are slower relative to dial+fetch than the paper's, see EXPERIMENTS.md)",
    ],
    "fig11": [
        '91% of requests served under 250 ms (paper 76%)',
        "object-size median 513 kB in the paper's range (664.59 kB)",
        '14% of objects below 100 kB (paper 20.9%)',
        'cache-hit fraction stays high across every 30-min bin',
        'median object size over the CID corpus, kB (paper 664.59)',
        'CIDs in the corpus larger than 100 kB (paper 79.1%)',
    ],
    "table1": [
        'every region both publishes and retrieves',
        'each region retrieves ~(regions-1)x its publications',
    ],
    "table2": [
        "the paper's five ASes top the table, in order",
        '>50% of IPs sit in just five ASes',
        'the two Chinese backbones alone hold >25% of IPs (paper 31.7%)',
        'every top-AS share within 2.5 points of the paper',
    ],
    "table3": [
        'cloud share 2.32% is small (<2.3% in the paper)',
        "Contabo and AWS are the two largest cloud hosts (as in the paper's Table 3)",
        'the overwhelming majority of nodes are self-hosted',
    ],
    "table4": [
        'publication is an order of magnitude slower than retrieval',
        "publication medians land in the paper's tens-of-seconds band",
        "retrieval medians land in the paper's seconds band",
        'eu_central_1 has the fastest retrieval (as in the paper)',
        'the slowest retrieval region is af-south, ap-southeast or sa-east',
    ],
    "table5": [
        'latency ordering: nginx < node store < non-cached',
        'nginx hits are effectively free; node store in single-digit ms',
        'non-cached median is seconds (paper 4.04 s)',
        'combined hit rate 91% exceeds 80% (paper: >80%)',
        'non-cached requests are the smallest class (paper 13.8%)',
        'requests served by the nginx cache (paper 46.0%)',
        'requests served by the IPFS node store (paper 40.2%)',
        'about half the traffic arrives via third-party referrers',
        'referred traffic from the semi-popular sites (paper 70.6%)',
    ],
    "ablation.alpha": [
        'α=3 beats serial lookups (24s vs 56s)',
        'raising α from 3 to 6 shows diminishing returns (19s vs 24s)',
    ],
    "ablation.client_server": [
        "excluding NAT'ed peers speeds walks up substantially (5s vs 32s median)",
        'and slashes failed RPCs (6 vs 226)',
    ],
    "ablation.gateway_cache": [
        'nginx hit share grows monotonically with cache size',
        'even a small cache absorbs a meaningful share of requests',
        'returns diminish: 30% cache adds little over 15%',
    ],
    "ablation.hydra": [
        'the booster speeds up content discovery (0.19s vs 0.23s median)',
        'and trims the tail',
    ],
    "ablation.parallel_lookup": [
        'parallel discovery cuts the median retrieval by 1.10s (roughly the 1 s Bitswap window, as Section 6.2 predicts)',
        'the speedup costs extra network requests',
    ],
    "ablation.replication": [
        'k=20 keeps every record discoverable (100%)',
        'k=1 loses a large share of records (33%)',
        'survival improves with replication (why the paper picked 20)',
    ],
}


@pytest.fixture(scope="module")
def report():
    report = run_figures(FiguresConfig())
    save_report("figures", report.render_text())
    return report


def test_figures_bench(report):
    assert report.overall is Grade.PASS
    assert {cell["figure"]: cell["body_sha256"] for cell in report.cells} == BODY_SHA256


@pytest.mark.parametrize("figure", sorted(CHECKS))
def test_shape_checks_became_passing_claims(report, figure):
    graded = [c for c in report.claims if c.scope == figure and c.grade is not None]
    assert [(c.grade, c.description) for c in graded] == [
        (Grade.PASS, description) for description in CHECKS[figure]
    ]
