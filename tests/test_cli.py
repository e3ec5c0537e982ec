"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def jar_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("jars"))
    code = main(["corpus", "export", directory, "--component", "CommonsBeanutils1"])
    assert code == 0
    return directory


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])


class TestCorpus:
    def test_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        assert "CommonsBeanutils1" in out
        assert "Apache Dubbo" in out

    def test_export_writes_jars(self, jar_dir):
        names = sorted(os.listdir(jar_dir))
        assert "rt-base.jar" in names
        assert any("CommonsBeanutils1" in n for n in names)


class TestAnalyze:
    def test_analyze_and_query(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        assert main(["analyze", jar_dir, "-o", cpg]) == 0
        assert os.path.exists(cpg)
        capsys.readouterr()
        assert main([
            "query", cpg,
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        out = capsys.readouterr().out
        assert "invoke" in out

    def test_query_json_output(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main([
            "query", cpg, "--json",
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"n": "invoke"}]

    def test_query_explain_prints_plan_without_rows(self, jar_dir, tmp_path,
                                                    capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main([
            "query", cpg, "--explain",
            "MATCH (a:Method)-[:CALL]->(b:Method {IS_SINK: true}) "
            "RETURN a.NAME AS n",
        ]) == 0
        out = capsys.readouterr().out
        assert "QUERY PLAN" in out
        assert "[reversed]" in out
        assert "index seek Method.IS_SINK" in out
        assert "row(s)" not in out  # plan only, no result table

    def test_query_profile_prints_counters_to_stderr(self, jar_dir, tmp_path,
                                                     capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main([
            "query", cpg, "--profile", "--json",
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        captured = capsys.readouterr()
        assert "profiled" in captured.err and "rows=" in captured.err
        rows = json.loads(captured.out)  # --json output stays clean
        assert rows == [{"n": "invoke"}]

    def test_missing_classpath_errors(self, capsys):
        assert main(["analyze", "/no/such/dir"]) == 1
        assert "error:" in capsys.readouterr().err


class TestChains:
    def test_text_output_with_verify(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "1 gadget chain(s) found" in out
        assert "EFFECTIVE" in out
        assert "(source)java.util.PriorityQueue.readObject()" in out

    def test_json_output(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--json", "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["effective"] is True
        assert payload[0]["sink_category"] == "CODE"

    def test_source_filter(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--source-filter", "com.nonexistent"]) == 0
        assert "0 gadget chain(s)" in capsys.readouterr().out

    def test_native_sources_profile(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--sources", "native"]) == 0
        out = capsys.readouterr().out
        assert "1 gadget chain(s) found" in out


class TestSnapshotFormats:
    def test_analyze_default_output_is_v3(self, jar_dir, tmp_path,
                                          monkeypatch, capsys):
        import struct

        from repro.graphdb.snapshot import SNAPSHOT_MAGIC

        monkeypatch.chdir(tmp_path)
        assert main(["analyze", jar_dir]) == 0
        assert "CPG written to tabby.cpg (v3)" in capsys.readouterr().out
        header = (tmp_path / "tabby.cpg").read_bytes()[:10]
        assert header[:8] == SNAPSHOT_MAGIC
        assert struct.unpack_from("<H", header, 8)[0] == 3

    def test_analyze_format_json_default_output(self, jar_dir, tmp_path,
                                                monkeypatch, capsys):
        import gzip

        monkeypatch.chdir(tmp_path)
        assert main(["analyze", jar_dir, "--format", "json"]) == 0
        assert "CPG written to tabby.cpg.json.gz (json)" in capsys.readouterr().out
        doc = json.loads(gzip.decompress(
            (tmp_path / "tabby.cpg.json.gz").read_bytes()
        ))
        assert doc["format_version"] == 1

    @pytest.mark.parametrize("format", ["v3", "binary", "json"])
    def test_chains_over_saved_cpg_matches_classpath_run(self, jar_dir, tmp_path,
                                                         format, capsys):
        cpg = str(tmp_path / "saved.cpg")
        assert main(["analyze", jar_dir, "-o", cpg, "--format", format]) == 0
        capsys.readouterr()
        assert main(["chains", jar_dir, "--json"]) == 0
        from_classpath = json.loads(capsys.readouterr().out)
        assert main(["chains", "--cpg", cpg, "--json"]) == 0
        from_cpg = json.loads(capsys.readouterr().out)
        assert from_cpg == from_classpath

    def test_chains_requires_some_input(self, capsys):
        assert main(["chains"]) == 2
        assert "provide jar paths or --cpg" in capsys.readouterr().err

    def test_chains_rejects_cpg_plus_classpath(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", jar_dir, "--cpg", cpg]) == 2
        assert "incompatible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--verify", "--payload", "--refine-guards", "--check-cpg"]
    )
    def test_chains_cpg_rejects_class_dependent_flags(self, jar_dir, tmp_path,
                                                      flag, capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", "--cpg", cpg, flag]) == 2
        err = capsys.readouterr().err
        assert flag in err and "classpath" in err

    def test_query_over_binary_cpg(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "saved.cpg")
        assert main(["analyze", jar_dir, "-o", cpg]) == 0
        capsys.readouterr()
        assert main([
            "query", cpg, "--json",
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == [{"n": "invoke"}]


class TestBenchCommand:
    def test_table9_subset(self, capsys):
        assert main(["bench", "table9", "--components", "Myface"]) == 0
        out = capsys.readouterr().out
        assert "Myface" in out and "FPR%" in out


class TestSinksCommand:
    def test_full_catalog(self, capsys):
        assert main(["sinks"]) == 0
        out = capsys.readouterr().out
        assert "(38 sink method(s))" in out
        assert "java.lang.Runtime.exec()" in out

    def test_category_filter(self, capsys):
        assert main(["sinks", "--category", "exec"]) == 0
        out = capsys.readouterr().out
        assert "EXEC" in out and "JNDI" not in out


class TestPayloadFlag:
    def test_chains_payload_text(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--payload"]) == 0
        out = capsys.readouterr().out
        assert "exploit recipe for" in out
        assert "${attacker-controlled}" in out

    def test_chains_payload_json(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--payload", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["payload"]["object_graph"]["class"] == "java.util.PriorityQueue"


class TestValidateFlag:
    def test_analyze_with_validation(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "v.cpg.json.gz")
        assert main(["analyze", jar_dir, "-o", cpg, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validation:" in out


class TestCheckCpgFlag:
    def test_analyze_check_cpg(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "c.cpg.json.gz")
        assert main(["analyze", jar_dir, "-o", cpg, "--check-cpg"]) == 0
        assert "all invariants hold" in capsys.readouterr().err

    def test_chains_check_cpg(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--check-cpg"]) == 0
        captured = capsys.readouterr()
        assert "all invariants hold" in captured.err
        assert "gadget chain(s) found" in captured.out


class TestRefineGuardsFlag:
    def test_chains_refine_guards(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--refine-guards"]) == 0
        captured = capsys.readouterr()
        assert "chain(s) refuted" in captured.err
        assert "gadget chain(s) found" in captured.out

    def test_bench_table9_refine_guards(self, capsys):
        assert main([
            "bench", "table9", "--components", "BeanShell1", "--refine-guards",
        ]) == 0
        out = capsys.readouterr().out
        assert "with --refine-guards:" in out
        assert "chain(s) refuted" in out

    def test_bench_table9_without_flag_has_no_refined_row(self, capsys):
        assert main(["bench", "table9", "--components", "BeanShell1"]) == 0
        assert "with --refine-guards:" not in capsys.readouterr().out


class TestLintCommand:
    def test_lint_jars(self, jar_dir, capsys):
        assert main(["lint", jar_dir]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out and "error(s)" in out

    def test_lint_corpus_has_no_unsuppressed_errors(self, capsys):
        assert main(["lint", "--corpus", "--fail-on-error"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("lint: 0 error(s)")

    def test_lint_json(self, jar_dir, capsys):
        assert main(["lint", jar_dir, "--json"]) == 0
        issues = json.loads(capsys.readouterr().out)
        for issue in issues:
            assert {"rule", "severity", "class", "method", "message",
                    "suppressed"} <= set(issue)

    def test_lint_fail_on_error_exit_code(self, tmp_path, capsys):
        # author a defective class, write it as a jar, expect exit 1
        from repro.jvm.builder import ProgramBuilder
        from repro.jvm.jar import JarArchive, write_jar

        pb = ProgramBuilder()
        with pb.cls("bad.T") as c:
            with c.method("m") as m:
                m.assign(m.local("u"), m.local("ghost"))
        jar = str(tmp_path / "bad.jar")
        write_jar(JarArchive("bad", pb.build()), jar)
        assert main(["lint", jar, "--fail-on-error"]) == 1
        assert main(["lint", jar]) == 0  # without the flag: report only
        out = capsys.readouterr().out
        assert "use-before-init" in out

    def test_lint_requires_input(self, capsys):
        assert main(["lint"]) == 2
        assert "provide jar paths or --corpus" in capsys.readouterr().err


class TestWorkersValidation:
    """Only serve takes --workers (job threads): 0/negative/garbage is
    bad input (exit 2) and 'auto' is the explicit one-per-CPU spelling.
    The build subcommands have no --workers at all (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "0"],
        ["serve", "--workers", "-3"],
        ["serve", "--workers", "many"],
        ["analyze", "x", "--workers", "2"],
        ["chains", "x", "--workers", "2"],
        ["diff", "a", "b", "--workers", "2"],
        ["bench", "table9", "--workers", "2"],
        ["analyze", "x", "--workers", "auto"],
        ["chains", "x", "--workers", "auto"],
    ])
    def test_rejected_with_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        expected = (
            "worker count" if argv[0] == "serve"
            else "unrecognized arguments: --workers"
        )
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "auto"],
    ])
    def test_auto_is_accepted(self, argv):
        args = build_parser().parse_args(argv)
        assert args.workers == 0  # resolved to one-per-CPU downstream


class TestServeValidation:
    """tabby serve rejects bad input with exit 2, like its siblings."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
        ["serve", "--port", "web"],
        ["serve", "--rate", "0"],
        ["serve", "--rate", "-1.5"],
        ["serve", "--burst", "0"],
        ["serve", "--store-capacity", "0"],
        ["serve", "--max-queue", "-1"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err  # argparse reported the problem

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8787, 2)
        assert args.rate is None and args.cache_dir is None

    def test_burst_below_one_rejected_at_startup(self, capsys):
        # burst is a float (fractional bursts are meaningless below 1);
        # the limiter refuses it and serve exits 2 before binding
        assert main(["serve", "--rate", "5", "--burst", "0.5"]) == 2
        assert "burst" in capsys.readouterr().err


class TestBenchTables:
    def test_table10(self, capsys):
        assert main(["bench", "table10"]) == 0
        out = capsys.readouterr().out
        assert "Apache Dubbo" in out

    def test_table11(self, capsys):
        assert main(["bench", "table11"]) == 0
        out = capsys.readouterr().out
        assert "LazyInitTargetSource" in out


class TestRefineFlag:
    def test_bad_mode_is_a_parse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chains", "jars", "--refine", "cha"])

    def test_mode_order_is_canonicalized(self):
        args = build_parser().parse_args(["chains", "jars", "--refine",
                                          "taint,rta"])
        assert args.refine == ("rta", "taint")

    def test_chains_refine_summary(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--refine", "rta,taint"]) == 0
        captured = capsys.readouterr()
        assert "refinement (rta,taint):" in captured.err
        assert "kept" in captured.err
        assert "gadget chain(s) found" in captured.out

    def test_chains_refine_json_object_shape(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--refine", "rta,taint",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"chains", "refuted", "refinement"}
        assert doc["refinement"]["modes"] == ["rta", "taint"]
        for record in doc["chains"]:
            assert record["verdict"] in ("kept", "unknown")
        for record in doc["refuted"]:
            assert record["refutation"]["kind"]

    def test_json_stays_a_bare_list_without_refinement(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--json"]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), list)

    def test_refine_rejects_snapshot_input(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", "--cpg", cpg, "--refine", "rta"]) == 2
        err = capsys.readouterr().err
        assert "--refine" in err and "classpath" in err

    def test_analyze_refine_reports_rta(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "refined.cpg")
        assert main(["analyze", jar_dir, "-o", cpg, "--refine", "rta"]) == 0
        assert "RTA refinement:" in capsys.readouterr().out


class TestLintInterproceduralFlag:
    def test_flag_parses(self):
        args = build_parser().parse_args(["lint", "--corpus",
                                          "--interprocedural"])
        assert args.interprocedural is True

    def test_interprocedural_lint_runs(self, jar_dir, capsys):
        assert main(["lint", jar_dir, "--interprocedural"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out
