"""The verdict columns of ``tools/paired_bench.py``'s reports, on synthetic
runs: each seed's, and the verdict over all seeds."""

import pytest

from paired_bench import overall, parse_args, report, summary

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


@pytest.mark.parametrize(
    "verdicts, expected",
    [
        (["gain"], "gain"),
        (["gain", "gain", "gain"], "gain"),
        # one seed's gain that another seed does not read is no gain
        (["gain", "no change"], "no change"),
        (["no change", "gain"], "no change"),
        (["gain", "unresolved"], "unresolved"),
        (["gain", "regression"], "regression"),
        (["unresolved", "regression", "no change"], "regression"),
        (["no change", "no change"], "no change"),
    ],
)
def test_overall_verdict(verdicts, expected):
    assert overall(verdicts) == expected


def test_summary_gives_each_seed_and_the_overall_verdict():
    metrics = [CAMPAIGN_S, SAMPLES_PER_S]
    gain = [v - 0.1 for v in TIGHT]

    def seed(base, head):
        return {
            side: [
                {"metrics": {"campaign_s": {"value": v}, "samples_per_s": {"value": 1 / v}}} for v in values
            ]
            for side, values in (("base", base), ("head", head))
        }

    lines = summary(metrics, {89: seed(TIGHT, gain), 97: seed(TIGHT, TIGHT)})
    assert lines[0].startswith("metric") and lines[0].endswith("overall")
    assert lines[1].split() == ["campaign_s", "89:", "gain,", "97:", "no", "change", "no", "change"]
    assert lines[2].split() == ["samples_per_s", "89:", "gain,", "97:", "no", "change", "no", "change"]
    lines = summary(metrics, {89: seed(TIGHT, gain), 97: seed(TIGHT, gain)})
    assert lines[1].endswith("  gain") and lines[2].endswith("  gain")


def test_seed_repeats_and_defaults_to_0():
    assert parse_args(["HEAD", "--workload", "tcp_link"]).seed == [0]
    assert parse_args(["HEAD", "--workload", "tcp_link", "--seed", "89", "--seed", "97"]).seed == [89, 97]
