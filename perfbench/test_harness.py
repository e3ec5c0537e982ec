"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import math
import os
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n", [20, 21, 37, 99, 100, 101, 250, 1000, 1009, 4321])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    samples = [float(k) for k in range(n)][::-1]  # unsorted on purpose
    pct, value, beyond = harness.tail_percentile(samples)
    rank = math.ceil(round(pct * n / 100, 9))
    assert beyond == n - rank >= harness.TAIL_BEYOND
    assert value == sorted(samples)[rank - 1]
    # one step (0.1) higher leaves fewer than ten samples beyond
    higher = math.ceil(round((pct + 0.1) * n / 100, 9))
    assert n - higher < harness.TAIL_BEYOND


def test_tail_known_values():
    assert harness.tail_percentile(list(range(1000)))[:2] == (99.0, 989)
    assert harness.tail_percentile(list(range(20))) == (50.0, 9, 10)


def test_tail_omitted_without_enough_samples():
    assert harness.tail_percentile([1.0] * 19) is None
    assert harness.tail_percentile([]) is None


# -- seed determinism ---------------------------------------------------------


def _read_dir(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_same_seed_gives_byte_identical_jars(tmp_path):
    specs = inputs.corpus_specs()
    inputs.export_audit_jars(str(tmp_path / "a"), 5, specs)
    time.sleep(1.1)  # a wall-clock zip timestamp would now differ
    inputs.export_audit_jars(str(tmp_path / "b"), 5, specs)
    inputs.export_audit_jars(str(tmp_path / "c"), 6, specs)
    a, b, c = (_read_dir(str(tmp_path / x)) for x in "abc")
    assert a == b
    fillers = [name for name in a if name.startswith("filler-")]
    assert fillers and any(a[name] != c.get(name) for name in fillers)
    # the corpus jars do not depend on the seed
    assert all(a[name] == c[name] for name in a if not name.startswith("filler-"))


def test_same_seed_gives_identical_edit_scripts():
    specs = inputs.corpus_specs()
    targets = inputs.edit_targets(inputs.merged_classes(specs), specs)
    first = json.dumps(inputs.edit_script(3, targets, 300)).encode()
    assert first == json.dumps(inputs.edit_script(3, targets, 300)).encode()
    assert first != json.dumps(inputs.edit_script(4, targets, 300)).encode()


def test_same_seed_gives_identical_read_and_job_mixes():
    for seed in (1, 2):
        assert inputs.read_pool(seed) == inputs.read_pool(seed)
        bundles = inputs.serve_bundles(seed)
        assert bundles == inputs.serve_bundles(seed)
        assert inputs.serve_schedules(seed, bundles, 500) == inputs.serve_schedules(
            seed, bundles, 500)
    assert inputs.read_pool(1) != inputs.read_pool(2)
    assert inputs.serve_bundles(1) != inputs.serve_bundles(2)


def test_edit_script_applies_in_order():
    specs = inputs.corpus_specs()
    base = inputs.merged_classes(specs)
    script = inputs.edit_script(9, inputs.edit_targets(base, specs), 200)
    state = inputs.EditState(base)
    for step in script:
        state.apply(*step)
        edited = [n for n in state.order if state.current[n] is not state.base[n]]
        assert len(edited) <= inputs.MAX_EDITED


# -- failures are counted, not dropped ---------------------------------------


def test_wrong_result_counts_as_failed_op():
    def op(i, prepared, t):
        if i == 3:
            raise ValueError("boom")
        return i

    def check(i, value, t):
        return "wrong" if value % 2 else None  # every odd result is wrong

    loop = harness.run_closed_loop(lambda i, c: None, op, check, seconds=0.2)
    even = (loop.attempted + 1) // 2
    assert loop.attempted > 4
    assert loop.failed == loop.attempted - even
    assert len(loop.latencies) == even
    assert any("ValueError" in f for f in loop.failures)
    # the failures reach failed_frac: only correct ops count as completed
    assert loop.ops_per_s == pytest.approx(even / max(loop.busy))


def test_final_check_failure_fails_the_run(tmp_path, monkeypatch, capsys):
    import workloads

    class Broken(workloads.Workload):
        name = "cold-audit"

        def setup(self, seed, workdir, tracer):
            pass

        def op(self, i, prepared, t):
            return i

        def finish(self):
            return ["end state is wrong"]

    monkeypatch.setitem(workloads.WORKLOADS, "cold-audit", Broken)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    # run.main points TMPDIR into its work directory; restore both after
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    code = run.main(["--workload", "cold-audit", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] > 0


# -- tracing ------------------------------------------------------------------


def test_self_time_and_unaccounted():
    tracer = harness.Tracer()
    tracer.set_op(0)
    with tracer.span("op", "op-0"):
        time.sleep(0.01)  # not covered by any layer
        with tracer.span("core.cpg", "build") as build:
            time.sleep(0.02)
        tracer.derived(build, "core.controllability", "summaries", 0.015)
    spans = tracer.spans
    selves = harness.self_times(spans)
    assert selves["core.controllability"] == pytest.approx(0.015)
    assert selves["core.cpg"] == pytest.approx(build.duration - 0.015)
    lost, wall = harness.unaccounted(spans)
    assert lost == pytest.approx(wall - build.duration)
    assert all(s.op == 0 for s in spans)
    assert spans[1].parent == spans[0].id


def test_wal_bytes_written(tmp_path):
    log = tmp_path / "log"
    log.write_bytes(b"x" * 100)
    before = harness.dir_state(str(tmp_path))
    with open(log, "ab") as fh:
        fh.write(b"y" * 10)  # append: counts the growth
    (tmp_path / "base.1").write_bytes(b"z" * 50)  # new file: counts whole
    assert harness.bytes_written(before, harness.dir_state(str(tmp_path))) == 60
    before = harness.dir_state(str(tmp_path))
    replacement = tmp_path / "log.tmp"
    replacement.write_bytes(b"w" * 30)
    os.replace(replacement, log)  # replaced: counts the new file
    assert harness.bytes_written(before, harness.dir_state(str(tmp_path))) == 30


# -- BENCHMARK.json agrees with the harness -----------------------------------


def test_benchmark_json_matches_metric_catalogue():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert spec["paths"] == ["perfbench"]
