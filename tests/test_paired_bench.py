"""The verdict column of ``tools/paired_bench.py``'s report, on synthetic runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

from paired_bench import report  # noqa: E402

CAMPAIGN_S = {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.25}
SAMPLES_PER_S = {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}


def runs_of(metric, base, head):
    def side(values):
        return [{"metrics": {metric["name"]: {"value": v}}, "failed": 0, "attempted": 3} for v in values]

    return {"base": side(base), "head": side(head)}


TIGHT = [1.0 + 0.001 * i for i in range(10)]  # q3 - q1 = 0.0045
WIDE = [0.5 + 0.11 * i for i in range(10)]  # q3 - q1 = 0.495, above a 0.25 bound


@pytest.mark.parametrize(
    "metric, base, head, expected",
    [
        (CAMPAIGN_S, TIGHT, [v - 0.1 for v in TIGHT], "gain"),
        (SAMPLES_PER_S, TIGHT, [v + 0.1 for v in TIGHT], "gain"),
        # nine wins of ten, the tenth a tie
        (CAMPAIGN_S, TIGHT, [v - 0.1 for v in TIGHT[:9]] + TIGHT[9:], "gain"),
        # eight wins of ten are not enough, however wide the gap
        (CAMPAIGN_S, TIGHT, [v - 0.1 for v in TIGHT[:8]] + TIGHT[8:], "no change"),
        # every pair won, but by less than the base's own spread
        (CAMPAIGN_S, TIGHT, [v - 0.004 for v in TIGHT], "no change"),
        # one pair cannot make a gain
        (CAMPAIGN_S, [1.0], [0.5], "no change"),
        (CAMPAIGN_S, TIGHT, [v * 1.3 for v in TIGHT], "regression"),
        (SAMPLES_PER_S, TIGHT, [v * 0.7 for v in TIGHT], "regression"),
        (CAMPAIGN_S, TIGHT, [v * 1.2 for v in TIGHT], "no change"),
        (CAMPAIGN_S, WIDE, WIDE[::-1], "unresolved"),
        # a wide base spread, but every head run better than every base run
        (CAMPAIGN_S, [1.0] * 5 + [1.6, 1.7, 1.8, 1.9, 2.0], [0.99] * 10, "no change"),
        (CAMPAIGN_S, TIGHT, TIGHT, "no change"),
    ],
)
def test_verdict(metric, base, head, expected):
    lines = report([metric], runs_of(metric, base, head))
    assert lines[0].endswith("verdict")
    assert lines[1].startswith(metric["name"])
    assert lines[1].rstrip().endswith(f"  {expected}")
    assert lines[2:] == [
        f"base: 0 of {3 * len(base)} campaigns failed",
        f"head: 0 of {3 * len(head)} campaigns failed",
    ]
