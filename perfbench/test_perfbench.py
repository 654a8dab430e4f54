"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
from time import perf_counter

import pytest

import checks
import hostspeed
import run
import workloads
from spans import Tracer

kostka = run.load_kostka()
WRONG = (checks.CheckError, ValueError, ZeroDivisionError, IndexError, KeyError)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_items(workload):
    for index in (0, 3):
        assert workloads.block(workload, 7, index) == workloads.block(workload, 7, index)
    assert workloads.block(workload, 7, 0) != workloads.block(workload, 8, 0)
    assert workloads.block(workload, 7, 0) != workloads.block(workload, 7, 1)


def _ray_items():
    for letter, r, node in (("A", 3, 2), ("B", 3, 3), ("G", 2, 1)):
        for fmt in workloads.FORMATS:
            argv = ("rays", "--type", letter, "--rank", str(r), "--format", fmt, "--node", str(node))
            yield workloads.Item("rays", letter, r, argv, (node, fmt))


def _vertex_items():
    for kind, lam in (("regular", (1, 2, 1)), ("rational", ("1/2", 0, "2/3"))):
        for fmt in workloads.FORMATS:
            argv = ("vertices", "--type", "C", "--rank", "3", "--format", fmt,
                    f"--lambda={workloads.weight_arg(lam)}")
            yield workloads.Item("vertices", "C", 3, argv, (kind, workloads.R.fractions(lam), fmt))


@pytest.mark.parametrize("item", list(_ray_items()) + list(_vertex_items()),
                         ids=lambda it: " ".join(it.argv))
def test_checker_rejects_any_flipped_digit(item):
    rc, out, result = run.execute(kostka, item)
    assert checks.check(item, rc, out, result) > 0
    digits = [k for k, ch in enumerate(out) if ch.isdigit()]
    assert digits
    for k in digits:
        flipped = out[:k] + str((int(out[k]) + 1) % 10) + out[k + 1:]
        with pytest.raises(WRONG):
            checks.check(item, rc, flipped, result)


def test_checker_reports_oracle_mismatch():
    # non-dominant mu: multiplicities are Weyl invariant, membership is not
    item = workloads._check_item("oracle-nondominant", "A", 2, (1, 1), (2, -1), True, "pretty")
    rc, out, result = run.execute(kostka, item)
    with pytest.raises(checks.ReportedDisagreement, match="MISMATCH"):
        checks.check(item, rc, out, result)


# (lambda, mu): the oracle agrees on the first and reports MISMATCH on the second
@pytest.mark.parametrize("mu", [(1, 1), (2, -1)])
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_checker_rejects_a_flipped_oracle_verdict(mu, fmt):
    kind = "oracle-dominant" if min(mu) >= 0 else "oracle-nondominant"
    item = workloads._check_item(kind, "A", 2, (1, 1), mu, True, fmt)
    rc, out, result = run.execute(kostka, item)
    flips = {"pretty": ("oracle: agree", "oracle: MISMATCH"),
             "json": ('"oracle_agrees":true', '"oracle_agrees":false')}[fmt]
    a, b = flips
    assert (a in out) != (b in out)
    flipped = out.replace(a, b) if a in out else out.replace(b, a)
    with pytest.raises(checks.CheckError, match="oracle verdict"):
        checks.check(item, rc, flipped, result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_of_a_block_passes_or_fails_cleanly(workload):
    for item in workloads.block(workload, 1, 0)[:12]:
        dt, rc, out, result, error = run.run_one(kostka, item)
        assert error is None, error
        try:
            checks.check(item, rc, out, result)
        except checks.ReportedDisagreement:
            assert workload == "verify" and item.params[0] == "oracle-nondominant"


def test_self_times_of_one_request_fit_in_its_wall_time():
    item = next(it for it in workloads.block("rays", 1, 0) if it.rank >= 8)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 0
        t0 = perf_counter()
        run.execute(kostka, item)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    own = tracer.self_time_by_request()[0]
    assert 0 < own <= wall
    assert tracer.calls["cli.main"] == 1 and tracer.calls["linalg.solve_unique"] > 0
    assert kostka.cli.main.__module__ == "kostka.cli" and not hasattr(kostka.cli.main, "__wrapped__")
    assert not hasattr(kostka.linalg.solve_unique, "__wrapped__")


def test_request_times_scale_with_the_samples_nearest_them():
    meter = hostspeed.Meter()
    n = hostspeed.NEAREST
    # a fast stretch (samples at the reference speed), then a slow one (twice as long)
    meter.at = [float(t) for t in range(4 * n)]
    meter.samples = [hostspeed.REF_S] * (2 * n) + [2 * hostspeed.REF_S] * (2 * n)
    assert meter.scale(0.0) == pytest.approx(1.0)
    assert meter.scale(4.0 * n) == pytest.approx(0.5)
    assert meter.reference_s([n / 2, 3 * n], [1.0, 1.0]) == pytest.approx([1.0, 0.5])


def test_calibration_keeps_its_share_of_the_timed_time():
    meter = hostspeed.Meter()
    meter.keep_up(0.0)
    assert len(meter.samples) == 1
    meter.keep_up(0.2)
    assert meter.total >= hostspeed.SHARE * 0.2 > meter.total - meter.samples[-1]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
