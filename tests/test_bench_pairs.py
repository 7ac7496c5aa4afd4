import importlib.util
from pathlib import Path

import pytest

# tools/ is not a package: load the script by path, as its command line does
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "setup_s", "better": "lower", "bound": 0.25},
           {"name": "items_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def run(setup_s, items_per_s, peak_rss_mb, correct=True, failed=0):
    """A last line of the benchmark, as its JSON object."""
    values = {"setup_s": setup_s, "items_per_s": items_per_s, "peak_rss_mb": peak_rss_mb}
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {k: {"value": v, "unit": "?"} for k, v in values.items()}}


# ten pairs, then one whose change run printed no last line
PARENT = [run(0.1 * (k + 1), 100.0, 61.0 + 0.1 * k) for k in range(10)]
CHANGE = [run(0.1 * (k + 1) - 0.05, 100.0 if k < 5 else 110.0, 62.5 if k == 2 else 59.0 + 0.1 * k)
          for k in range(10)]
PAIRS = list(zip(PARENT, CHANGE)) + [(run(0.5, 100.0, 61.5), {"correct": False, "failed": None, "metrics": {}})]


def test_summarize_medians_quartiles_wins_and_claims():
    got = {s["name"]: s for s in bench_pairs.summarize(PAIRS, METRICS)}
    assert all(s["pairs"] == 10 for s in got.values())  # the pair without a change value is left out
    rss = got["peak_rss_mb"]
    # linear quartiles of 61.0..61.9, and of 59.0..59.9 with 59.2 replaced by 62.5
    assert rss["parent"] == pytest.approx((61.225, 61.45, 61.675))
    assert rss["change"] == pytest.approx((59.325, 59.55, 59.775))
    assert rss["wins"] == 9 and rss["gap"] == pytest.approx(-1.9) and rss["parent_iqr"] == pytest.approx(0.45)
    assert rss["resolved"] and rss["claimable"]
    # ties count for neither side: 5 wins of 10, so a resolved gain cannot be claimed
    rate = got["items_per_s"]
    assert rate["wins"] == 5 and rate["gap"] == pytest.approx(5.0) and rate["parent_iqr"] == 0.0
    assert rate["resolved"] and not rate["claimable"]
    # every pair won, but the gap is inside the parent's spread
    setup = got["setup_s"]
    assert setup["wins"] == 10 and setup["gap"] == pytest.approx(-0.05) and setup["parent_iqr"] == pytest.approx(0.45)
    assert not setup["resolved"] and not setup["claimable"]


def test_a_resolved_loss_is_not_claimable():
    worse = [(run(1.0, 100.0, 60.0), run(2.0, 50.0, 70.0 + k)) for k in range(10)]
    for s in bench_pairs.summarize(worse, METRICS):
        assert s["wins"] == 0 and s["resolved"] and not s["claimable"]


@pytest.mark.parametrize("rate, rss, rate_within, rss_within", [
    (75.5, 110.1, True, False),   # rate -24.5 % of a 25 % bound, RSS +10.1 % of a 10 % bound
    (74.5, 109.9, False, True),   # rate -25.5 %, RSS +9.9 %
    (150.0, 50.0, True, True),    # better by any amount is within
])
def test_bound_verdict_in_both_directions(rate, rss, rate_within, rss_within):
    pairs = [(run(0.2, 100.0, 100.0), run(0.2, rate, rss)) for _ in range(10)]
    got = {s["name"]: s for s in bench_pairs.summarize(pairs, METRICS)}
    assert got["items_per_s"]["rel_change"] == pytest.approx(rate / 100.0 - 1.0)
    assert got["peak_rss_mb"]["rel_change"] == pytest.approx(rss / 100.0 - 1.0)
    assert (got["items_per_s"]["within_bound"], got["peak_rss_mb"]["within_bound"]) == (rate_within, rss_within)
    assert got["setup_s"]["rel_change"] == 0.0 and got["setup_s"]["within_bound"]
    lines = dict(zip([m["name"] for m in METRICS], bench_pairs.report(list(got.values()))))
    for name, within in (("items_per_s", rate_within), ("peak_rss_mb", rss_within)):
        assert lines[name].endswith(f"{got[name]['rel_change']:+.1%} against bound {got[name]['bound']:.0%}: "
                                    + ("within bound" if within else "exceeds bound"))


def test_no_reported_value_gives_an_empty_summary():
    empty = {"correct": False, "failed": None, "metrics": {}}
    assert [s["pairs"] for s in bench_pairs.summarize([(empty, empty)], METRICS)] == [0, 0, 0]


@pytest.mark.parametrize("last_line, is_flagged", [
    (run(0.1, 1.0, 1.0), False),
    (run(0.1, 1.0, 1.0, correct=False), True),
    (run(0.1, 1.0, 1.0, failed=1), True),
    ({"correct": False, "failed": None, "metrics": {}}, True),
])
def test_flagged_runs(last_line, is_flagged):
    assert bench_pairs.flagged(last_line) is is_flagged


def test_table_has_one_row_per_pair_with_flags():
    rows = bench_pairs.table("decide", list(range(11, 22)), PAIRS, [m["name"] for m in METRICS])
    assert len(rows) == 2 + len(PAIRS)
    assert rows[2] == "| decide | 1 | 11 | parent | 0.100 | 0.050 | 100.00 | 100.00 | 61.00 | 59.00 |  |"
    assert rows[3].split(" | ")[3] == "change"
    assert rows[-1] == "| decide | 11 | 21 | parent | 0.500 | null | 100.00 | null | 61.50 | null | change |"


# a setup time whose median is 0.19 s and whose interquartile range, 0.07 s, is more than a third of it: wider than
# the 25 % bound, so the runs cannot show a change of that size
WIDE = [0.14, 0.15, 0.16, 0.17, 0.18, 0.20, 0.21, 0.24, 0.26, 0.30]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    pairs = [(run(p, 100.0, 60.0), run(c, 100.0, 60.0)) for p, c in zip(WIDE, WIDE[::-1])]
    got = {s["name"]: s for s in bench_pairs.summarize(pairs, METRICS)}
    setup = got["setup_s"]
    assert setup["parent_iqr"] == pytest.approx(0.07) and setup["parent"][1] == pytest.approx(0.19)
    assert setup["within_bound"] and setup["unresolved"]  # equal medians, yet not shown to be unchanged
    assert not got["items_per_s"]["unresolved"] and not got["peak_rss_mb"]["unresolved"]  # no spread at all
    lines = bench_pairs.report(list(got.values()))
    assert lines[0].endswith("within bound, unresolved: parent IQR 0.07 is wider than 25% of its median")
    assert "unresolved" not in lines[1] + lines[2]


def test_a_change_better_in_every_run_is_resolved_despite_the_spread():
    # every change run beats every parent run, in both directions of better
    pairs = [(run(p, 100.0 * p, 60.0), run(p / 2.2, 100.0 * p + 17.0, 60.0)) for p in WIDE]
    got = {s["name"]: s for s in bench_pairs.summarize(pairs, METRICS)}
    assert got["setup_s"]["parent_iqr"] > 0.25 * got["setup_s"]["parent"][1]
    assert got["items_per_s"]["parent_iqr"] > 0.25 * got["items_per_s"]["parent"][1]
    assert not got["setup_s"]["unresolved"] and not got["items_per_s"]["unresolved"]
    # one change run no better than the slowest parent run leaves it unresolved again
    pairs[0] = (pairs[0][0], run(0.30, 14.0, 60.0))
    got = {s["name"]: s for s in bench_pairs.summarize(pairs, METRICS)}
    assert got["setup_s"]["unresolved"] and got["items_per_s"]["unresolved"]


def test_a_drifting_box_shows_in_the_ratios_but_leaves_the_claim_rule_alone():
    # the box slows 2x over the ten pairs while the change is 5-14 % faster in each: every ratio is above 1, yet the
    # medians' gap stays inside the parent's drift, so no gain may be claimed
    speed = [200.0 / 2 ** (k / 9) for k in range(10)]
    pairs = [(run(0.2, v, 60.0), run(0.2, v * (1.05 + 0.01 * k), 60.0)) for k, v in enumerate(speed)]
    got = {s["name"]: s for s in bench_pairs.summarize(pairs, METRICS)}
    rate = got["items_per_s"]
    assert max(speed) == 2 * min(speed)
    assert rate["wins"] == 10 and 0 < rate["gap"] < rate["parent_iqr"]
    assert not rate["resolved"] and not rate["claimable"]
    assert rate["ratio"] == pytest.approx((1.0725, 1.095, 1.1175))  # linear quartiles of 1.05..1.14
    assert got["setup_s"]["ratio"] == (1.0, 1.0, 1.0)
    line = bench_pairs.report(list(got.values()))[1]
    assert "change wins 10/10, change/parent per pair 1.095 [1.073-1.118] (informational), " in line
    assert "gain claimable: no" in line


def test_no_ratio_without_a_nonzero_parent():
    got = bench_pairs.summarize([(run(0.0, 100.0, 60.0), run(0.1, 100.0, 60.0))], METRICS)
    assert got[0]["ratio"] is None
    assert "change/parent per pair null [null-null] (informational)" in bench_pairs.report(got)[0]
