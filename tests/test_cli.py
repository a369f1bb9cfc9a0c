"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.obs import counter_total

#: The parse of one minimal command line per leaf subcommand, recorded
#: in ``tests/data/cli_parser_defaults.json`` by ``PYTHONPATH=src python
#: -m tests.test_cli``: every flag's default, so a change to how the
#: parser is built cannot move one.  The handler a subcommand names is
#: left out (a function, not a value).
PARSES = Path(__file__).parent / "data" / "cli_parser_defaults.json"
PARITY_ARGV = (
    ["list"], ["datasets"], ["run", "BFS"], ["characterize", "BFS"],
    ["gpu", "BFS"], ["matrix"], ["serve"], ["query", "ping"],
    ["query-lang", "from ldbc | cc | count"], ["mutate"], ["loadgen"],
    ["stats"],
    ["cluster", "serve"], ["cluster", "shard", "--name", "s0"],
    ["cluster", "query", "ping"],
    ["cluster", "query-lang", "from ldbc | cc | count"],
    ["cluster", "loadgen"], ["cluster", "plan"],
)


def record() -> str:
    """``[argv, parse]`` for each line of :data:`PARITY_ARGV`, one JSON
    row a line (``json.dumps`` tells 300 from 300.0, which ``==`` would
    not)."""
    parser = build_parser()
    rows = [json.dumps([argv, {k: v for k, v
                               in vars(parser.parse_args(argv)).items()
                               if k != "handler"}], sort_keys=True)
            for argv in PARITY_ARGV]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def _leaves(parser: argparse.ArgumentParser, path=()):
    """The subcommand path of every leaf parser under ``parser``."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(path)
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, (*path, name))


class TestParserParity:
    def test_every_leaf_subcommand_has_a_row(self):
        leaves = {tuple(leaf) for leaf in _leaves(build_parser())}
        assert len(leaves) == 18
        assert {tuple(argv[:2]) if argv[0] == "cluster" else (argv[0],)
                for argv in PARITY_ARGV} == leaves

    def test_every_default_is_the_recorded_one(self):
        assert record().splitlines() == PARSES.read_text().splitlines()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "BFS"])
        assert args.workload == "BFS"
        assert args.dataset == "ldbc"
        assert args.scale == 0.25

    def test_options(self):
        args = build_parser().parse_args(
            ["characterize", "TC", "--dataset", "twitter",
             "--scale", "0.1", "--seed", "3"])
        assert args.dataset == "twitter"
        assert args.scale == 0.1
        assert args.seed == 3

    def test_matrix_defaults(self):
        args = build_parser().parse_args(["matrix"])
        assert args.timeout == 300.0
        assert args.retries == 2
        assert args.resume is False
        assert args.checkpoint is None
        assert args.isolation == "process"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out and "protocol" in out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7421
        assert args.workers == 4
        assert args.isolation == "process"
        assert args.no_cache is False
        assert args.max_pending == 64

    def test_loadgen_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "--spawn", "--requests", "80",
             "--concurrency", "8", "--no-cache",
             "--isolation", "inline"])
        assert args.spawn and args.requests == 80
        assert args.no_cache
        assert args.isolation == "inline"

    def test_no_cache_is_capacity_zero_and_memoize_follows(self):
        from repro.cli import _build_service
        for flags, capacity in ((["--no-cache"], 0),
                                (["--cache-size", "7"], 7)):
            args = build_parser().parse_args(
                ["serve", "--isolation", "inline", *flags])
            service = _build_service(args)
            try:
                assert service.caches.rows.capacity == capacity
                assert (service.caches.datasets.capacity == 0) \
                    == (capacity == 0)
                assert service.pool.memoize is (capacity > 0)
            finally:
                service.pool.shutdown()

    def test_query_ops(self):
        args = build_parser().parse_args(
            ["query", "run", "BFS", "--dataset", "roadnet",
             "--port", "9000"])
        assert args.op == "run" and args.workload == "BFS"
        assert args.port == 9000
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "frobnicate"])

    def test_matrix_resilience_flags(self):
        args = build_parser().parse_args(
            ["matrix", "--workloads", "BFS,DFS", "--datasets", "ldbc",
             "--timeout", "60", "--retries", "5", "--resume",
             "--checkpoint", "cp.jsonl"])
        assert args.workloads == "BFS,DFS"
        assert args.timeout == 60.0
        assert args.retries == 5
        assert args.resume is True
        assert args.checkpoint == "cp.jsonl"

    @pytest.mark.parametrize("command", ["matrix", "serve", "loadgen"])
    @pytest.mark.parametrize("flag", ["--chaos-rate", "--chaos-seed"])
    def test_no_cell_fault_flags(self, command, flag, capsys):
        # cell faults are a test fixture (tests/faults.py), not an option
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BFS" in out and "Gibbs" in out and "Brandes" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "twitter" in out and "roadnet" in out

    def test_run(self, capsys):
        assert main(["run", "DCentr", "--dataset", "roadnet",
                     "--scale", "0.05"]) == 0
        assert "dc" in capsys.readouterr().out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "PageRank", "--scale", "0.05"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_unknown_dataset(self, capsys):
        assert main(["run", "BFS", "--dataset", "nope",
                     "--scale", "0.05"]) == 2

    def test_characterize(self, capsys):
        assert main(["characterize", "DCentr", "--dataset", "roadnet",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "l3_mpki" in out

    def test_gpu(self, capsys):
        assert main(["gpu", "CComp", "--dataset", "roadnet",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "bdr" in out and "read_gbs" in out

    @pytest.mark.parametrize("workload", ["BFS", "BCentr"])
    def test_gpu_runs_the_characterization_inputs(self, capsys, workload):
        """``repro gpu`` runs a kernel at the input ``characterize`` runs
        it at: BFS from the highest-out-degree vertex, which is not
        vertex 0 here, and BCentr from 4 sampled sources."""
        from repro.datagen.registry import make
        from repro.harness import characterize
        spec = make("ldbc", scale=0.05, seed=0)
        assert int(np.argmax(spec.out_degrees())) != 0
        assert main(["gpu", workload, "--dataset", "ldbc",
                     "--scale", "0.05"]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        row = characterize(workload, spec, with_gpu=True, memo=False)
        assert printed == [f"  {key:18s} {value:12.6f}" for key, value
                           in sorted(row.gpu.summary().items())]

    def test_gpu_without_kernel(self, capsys):
        assert main(["gpu", "DFS", "--scale", "0.05"]) == 2

    def test_matrix_resume_requires_checkpoint(self, capsys):
        assert main(["matrix", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 13
        assert {"workload", "category", "ctype", "gpu",
                "algorithm"} <= set(rows[0])

    def test_datasets_json(self, capsys):
        assert main(["datasets", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["key"] for r in rows} == \
            {"twitter", "knowledge", "watson", "roadnet", "ldbc"}
        assert all("default_vertices" in r for r in rows)

    def test_query_without_server(self, capsys):
        # port 1 is never listening: the client reports, not tracebacks
        assert main(["query", "ping", "--port", "1"]) == 2
        assert "no service" in capsys.readouterr().err

    def test_query_requires_workload_for_run(self, capsys):
        assert main(["query", "run", "--port", "1"]) == 2
        assert "requires a workload" in capsys.readouterr().err

    def test_mutate_without_server(self, capsys):
        assert main(["mutate", "--add-vertex", "9", "--port", "1"]) == 2
        assert "no service" in capsys.readouterr().err

    def test_cluster_plan_json(self, capsys):
        assert main(["cluster", "plan", "--shards", "2", "--add", "shard-2",
                     "--json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["total_keys"] == 5                # the registry
        assert 0 < plan["moved"] < plan["total_keys"]
        assert set(plan["per_shard"]) == {"shard-0", "shard-1", "shard-2"}

    def test_loadgen_spawned_end_to_end(self, capsys):
        assert main(["loadgen", "--spawn", "--isolation", "inline",
                     "--requests", "20", "--concurrency", "4",
                     "--workloads", "BFS", "--scale", "0.03",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == 20 and payload["failed"] == 0
        assert payload["throughput_rps"] > 0
        assert counter_total(payload["server_stats"]["metrics"],
                             "scheduler_requests_total",
                             outcome="submitted") == 20

    def test_matrix_inline_sweep_and_resume(self, capsys, tmp_path):
        cp = str(tmp_path / "sweep.jsonl")
        out = str(tmp_path / "csv")
        base = ["matrix", "--workloads", "BFS,DCentr",
                "--datasets", "ldbc", "--scale", "0.03",
                "--machine", "test", "--isolation", "inline",
                "--retries", "0", "--checkpoint", cp]
        assert main(base + ["--out", out]) == 0
        text = capsys.readouterr().out
        assert "completed 2/2 cells" in text
        assert "failures.csv" not in text        # clean sweep: no failures
        assert main(base + ["--resume"]) == 0
        assert "2 resumed, 0 executed" in capsys.readouterr().out


if __name__ == "__main__":
    print(record(), end="")
