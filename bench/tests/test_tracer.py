import itertools
import json

import pytest

import run
import tracer
import workloads
from tracer import COUNT_SPAN, Target, Tracer, layer_metrics, span_times


def test_self_time_subtracts_child_durations():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 3.0, 0],
             ["c", 1.5, 2.5, 1],
             ["b", 4.0, 6.0, 0]]
    times = span_times(spans)
    assert times["root"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert times["a"] == {"s": 2.0, "self_s": 1.0, "calls": 1}
    assert times["c"]["self_s"] == 1.0


def test_wrapped_call_records_span_parent_and_counts():
    clock = itertools.count()
    t = Tracer(clock=lambda: float(next(clock)))

    def inner(x):
        return x + 1

    def count(tr, args, kwargs, result):
        tr.add("inner.total", result)

    wrapped_inner = t.wrap(inner, Target("m:inner", "inner", counter=count))
    outer = t.wrap(lambda: wrapped_inner(1) + wrapped_inner(2),
                   Target("m:outer", "outer", self_time=True))
    assert outer() == 5
    assert t.counts == {"inner.total": 5}
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", COUNT_SPAN, "inner", COUNT_SPAN]
    assert all(s[3] == 0 for s in t.spans[1:])
    times = span_times(t.spans)
    # outer spans 9 ticks; its children (two calls, two counts) cover 4
    assert times["outer"]["s"] == 9.0
    assert times["outer"]["self_s"] == 5.0
    assert times["inner"]["calls"] == 2


def test_missing_targets_are_reported_not_raised():
    t = Tracer()
    t.install([Target("tagwalk.walker:no_such_function", "a"),
               Target("tagwalk.no_such_module:f", "b"),
               Target("tagwalk.walker:WalkEnsemble.no_such_method", "c")])
    assert t.absent == ["tagwalk.walker:no_such_function",
                        "tagwalk.no_such_module:f",
                        "tagwalk.walker:WalkEnsemble.no_such_method"]
    metrics = layer_metrics(t.dump())
    assert metrics["trace.absent"] == 3


def test_every_layer_metric_is_reported_when_nothing_ran():
    metrics = layer_metrics(Tracer().dump())
    expected = {name for name, _ in tracer.metric_names()}
    assert set(metrics) == expected - {"trace.overhead_s"}
    assert all(v == 0 for v in metrics.values())


@pytest.fixture
def tiny_staged(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STAGED_WALKS", 300)
    return workloads.build("staged", 3, tmp_path / "work")


def test_traced_child_counts_calls_and_untraced_child_installs_nothing(
        tiny_staged):
    work = tiny_staged.out_dir.parent
    plain = run.run_child(tiny_staged.commands, False, work, "plain")
    assert plain.failed == 0 and plain.attempted == 5
    assert plain.trace is None
    plain_hash = run.checks.tree_hash(tiny_staged.out_dir)

    run.shutil.rmtree(tiny_staged.out_dir)
    traced = run.run_child(tiny_staged.commands, True, work, "traced")
    assert traced.failed == 0
    assert run.checks.tree_hash(tiny_staged.out_dir) == plain_hash
    m = layer_metrics(traced.trace)
    assert m["walker.walk_node_pairs.calls"] == 3
    assert m["substrate.read_edge_list.calls"] == 4
    assert m["walker.read_traces.calls"] == 2
    assert m["walker.walks"] == 300
    assert m["trace.absent"] == 0
    assert m["cli.main.self_s"] > 0


def test_failed_command_is_counted_with_its_error(tmp_path):
    child = run.run_child([["run", "--config", str(tmp_path / "none.json"),
                            "--out", str(tmp_path / "out")]],
                          False, tmp_path, "bad")
    assert (child.attempted, child.failed) == (1, 1)
    assert "run: exit 1" in child.errors[0]
    assert "cannot read config" in child.errors[1]


def test_killed_child_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1.5)
    wl = workloads.build("full", 1, tmp_path)  # substrate alone takes > 1.5 s
    child = run.run_child(wl.commands, False, tmp_path, "slow")
    assert (child.attempted, child.failed) == (1, 1)
    assert child.errors[0].startswith("child timed out")


@pytest.fixture
def broken_checkout(tmp_path, monkeypatch):
    """A checkout whose tagwalk.cli raises on import."""
    package = tmp_path / "src" / "tagwalk"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text('raise RuntimeError("cli is broken")\n')
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    return tmp_path


def test_import_failure_fails_every_command_with_its_error(broken_checkout):
    child = run.run_child([["generate"], ["walk"]], False, broken_checkout,
                          "broken")
    assert (child.attempted, child.failed) == (2, 2)
    assert child.setup_s is None
    assert "before importing tagwalk" in child.errors[0]
    assert "RuntimeError: cli is broken" in child.errors[0]


def test_import_failure_still_prints_a_result(broken_checkout, capsys):
    assert run.main(["--workload", "full", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] >= run.MIN_REPETITIONS
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb",
                                      "setup_s"}
    assert "cli is broken" in captured.err
