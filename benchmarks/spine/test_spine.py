"""Self-tests of the measurement spine (``pytest benchmarks/spine -q``).

They check the instrument, not the system: names and units match
BENCHMARK.json, digests repeat, the open-loop driver charges a stall to
the requests that waited behind it, and ``compare`` tells a regression
from noise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.obs import SpanTracer  # noqa: E402
from repro.service.loadgen import Query  # noqa: E402

from benchmarks.spine import compare, measure  # noqa: E402
from benchmarks.spine.common import per_op_medians  # noqa: E402
from benchmarks.spine.measure import self_times, tail_percentile  # noqa: E402
from benchmarks.spine.openloop import poisson_schedule, run_open_loop  # noqa: E402

DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]


def _quick(workload: str, tmp_path: Path, *, trace: int = 0, seed: int = 0):
    """One ``--quick`` run through the real command line."""
    out = tmp_path / f"{workload}-{trace}-{seed}-{time.monotonic_ns()}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "__main__.py"), "run", "--quick",
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=110)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1]), \
        json.loads(out.read_text())


# -- the command line keeps the contract --------------------------------------

@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace,
                                                      tmp_path):
    line, result = _quick(workload, tmp_path, trace=trace)
    declared = DECL["per_layer"] if trace else DECL["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert result["quick"] is True
    assert result["runs"][0]["workload"] == workload
    assert {"nproc", "python", "numpy", "loadavg_1m"} <= set(result["host"])


def test_declared_workloads_are_the_implemented_ones():
    from benchmarks.spine.cli import _workload_functions
    assert set(WORKLOADS) == set(_workload_functions())


def test_run_length_is_not_a_setting():
    """The driver passes ``--seconds run_seconds``; nothing else runs."""
    from benchmarks.spine.cli import main
    with pytest.raises(SystemExit, match="run_seconds"):
        main(["run", "--workload", "serve_hot", "--seconds",
              str(DECL["run_seconds"] + 1)])


def test_digests_repeat_for_equal_seeds_and_differ_across_seeds(tmp_path):
    digests = [_quick("char_sweep", tmp_path, seed=s)[1]["runs"][0]["digests"]
               for s in (0, 0, 1)]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_compare_refuses_quick_results(tmp_path):
    _, result = _quick("serve_hot", tmp_path)
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(result))
    assert compare.compare_files(path, path, DECL) == 2


# -- open-loop driver ----------------------------------------------------------

class _StubClient:
    """Answers in 1 ms, except one request that stalls for 50 ms."""

    def __init__(self, stall_at: int):
        self.stall_at = stall_at
        self.seen = 0

    def request(self, op, **params):
        self.seen += 1
        time.sleep(0.050 if self.seen == self.stall_at else 0.001)

    def close(self):
        pass


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    n, rate = 60, 200.0                      # a request every 5 ms
    plan = [Query("ping")] * n
    due = [i / rate for i in range(n)]
    client = _StubClient(stall_at=20)
    samples = run_open_loop(plan, due, lambda: client, connections=1)
    assert len(samples) == n and all(s.ok for s in samples)
    slow = [s for s in samples if s.latency_ms > 10.0]
    # one request stalled, but the ones that came due meanwhile waited too
    assert len(slow) >= 5
    assert max(s.late_ms for s in samples[20:30]) > 10.0
    # before the stall the generator was on time
    assert max(s.latency_ms for s in samples[:19]) < 10.0


def test_open_loop_counts_a_failure_and_keeps_going():
    class Failing(_StubClient):
        def request(self, op, **params):
            super().request(op, **params)
            if self.seen == 3:
                raise OSError("connection reset")

    samples = run_open_loop([Query("ping")] * 6, [0.0] * 6,
                            lambda: Failing(stall_at=-1), connections=1)
    assert [s.ok for s in samples] == [True, True, False, True, True, True]


def test_poisson_schedule_is_seeded():
    a, b, c = (poisson_schedule(100.0, 500, s) for s in (7, 7, 8))
    assert a == b != c
    assert a == sorted(a)
    assert 4.0 < a[-1] < 6.0                 # 500 arrivals at 100/s


# -- helpers -------------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10_000)))[0] == 99.9
    assert tail_percentile(list(range(12))) == (50.0, 5.0)


def test_per_op_median_drops_a_stall_in_every_rep():
    quiet = [1.0, 2.0, 0.5]
    reps = [[1.4, 2.0, 0.5], [1.0, 2.8, 0.5], [1.0, 2.0, 0.7]]
    assert per_op_medians(reps) == quiet       # no rep total is quiet


def test_host_speed_cancels_a_host_that_slows_everything(monkeypatch):
    """Work and the reference beside it both take 1.5x as long: measured
    seconds grow, reference-host seconds do not."""
    clock, slowdown = [0.0], [1.0]

    def spend(seconds):
        clock[0] += seconds * slowdown[0]

    monkeypatch.setattr(measure, "now", lambda: clock[0])
    monkeypatch.setattr(measure, "_reference_work",
                        lambda: spend(measure.NOMINAL_REF_S))
    host = measure.HostSpeed()
    _, quiet_s, quiet_factor = host.timed(lambda: spend(2.0))
    clock[0] += 60.0                    # the last sample is stale by now
    slowdown[0] = 1.5
    _, slow_s, slow_factor = host.timed(lambda: spend(2.0))
    assert (quiet_s, slow_s) == pytest.approx((2.0, 3.0))
    assert quiet_s * quiet_factor == pytest.approx(2.0)
    assert slow_s * slow_factor == pytest.approx(2.0)
    assert len(host.samples) == 4       # none reused across the gap
    # back to back, the sample after one piece of work is the next one's
    host.timed(lambda: spend(1.0))
    assert len(host.samples) == 5


def test_self_time_is_span_minus_children():
    clock = iter([0.0, 0.0, 1.0, 4.0, 5.0, 7.0, 10.0]).__next__
    tracer = SpanTracer(clock=clock)
    with tracer.span("cell"):
        with tracer.span("build"):
            pass
        with tracer.span("kernel"):
            pass
    assert self_times(tracer.spans) == pytest.approx(
        {"cell": 5.0, "build": 3.0, "kernel": 2.0})


# -- compare -------------------------------------------------------------------

def _result(values, *, metric="wall_s", workload="char_cold", trace=0,
            **top):
    runs = [{"workload": workload, "trace": trace,
             "metrics": {metric: {"value": v, "unit": "s"}},
             "digests": {"all": "d"}, "info": {"sizes": {"scale": 0.25}}}
            for v in values]
    return {"schema": 2, "git_sha": "x" * 40, "seed": 0,
            "quick": False, "runs": runs,
            "host": {"nproc": 2, "python": "3.11", "numpy": "2",
                     "machine": "x86_64", "loadavg_1m": 0.1}, **top}


#: a declaration of the compare tests' own, so that they do not move with
#: the bounds BENCHMARK.json fixes
_DECL = {"workloads": [{"name": "char_cold"}],
         "per_layer": [{"name": "loadgen.write_p50_ms", "unit": "ms",
                        "better": "lower"},
                       {"name": "loadgen.p99_ms", "unit": "ms",
                        "better": "lower"}],
         "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                         "bound": 0.10}]}


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return compare.compare_files(pa, pb, _DECL)


def test_compare_flags_a_twenty_percent_regression(tmp_path, capsys):
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert _compare(tmp_path, _result(base),
                    _result([v * 1.2 for v in base])) == 1
    assert "regressed" in capsys.readouterr().out
    assert _compare(tmp_path, _result(base), _result(base)) == 0
    assert "unchanged" in capsys.readouterr().out


def test_compare_bounds_the_serving_latencies_among_layer_metrics(tmp_path,
                                                                  capsys):
    """A commit-path change that taxes writers must not pass unseen, though
    the benchmark contract keeps per-class latencies out of end_to_end."""
    base = [8.0, 8.1, 7.9, 8.05, 7.95]
    for metric, status in (("loadgen.write_p50_ms", 1),
                           ("loadgen.p99_ms", 0)):     # listed, not bounded
        assert _compare(
            tmp_path, _result(base, metric=metric, trace=1),
            _result([v * 1.3 for v in base], metric=metric, trace=1)
        ) == status
    assert "regressed" in capsys.readouterr().out


def test_compare_marks_a_delta_within_a_wide_spread_unresolved(tmp_path,
                                                               capsys):
    noisy = [10.0, 13.0, 8.0, 12.5, 9.0]           # spread ~ 40 %
    shifted = [v * 1.05 for v in noisy]
    assert _compare(tmp_path, _result(noisy), _result(shifted)) == 0
    assert "unresolved" in capsys.readouterr().out


def test_verdict_improved_needs_more_than_the_parents_spread():
    base = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert compare.verdict(base, [v * 0.9 for v in base],
                           "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 0.99 for v in base],
                           "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(base, [v * 0.9 for v in base],
                           "higher", 0.1)[0] == "unchanged"


def test_compare_refuses_another_seed_sizes_or_host(tmp_path, capsys):
    a = _result([1.0, 1.0])
    other_seed = dict(copy.deepcopy(a), seed=1)
    other_host = copy.deepcopy(a)
    other_host["host"]["nproc"] = 64
    other_size = copy.deepcopy(a)
    other_size["runs"][0]["info"]["sizes"]["scale"] = 0.5
    for b in (other_seed, other_host, other_size):
        assert _compare(tmp_path, a, b) == 2
    assert "refusing" in capsys.readouterr().out


def test_compare_fails_on_a_changed_digest(tmp_path, capsys):
    a, b = _result([1.0, 1.0]), _result([1.0, 1.0])
    b["runs"][0]["digests"]["all"] = "other"
    assert _compare(tmp_path, a, b) == 1
    assert "DIFFERENT" in capsys.readouterr().out
