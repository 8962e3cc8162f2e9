"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_algorithm, _parse_ns, build_parser, main


def test_parse_ns():
    assert _parse_ns("6,8") == (6, 8)
    assert _parse_ns("6 8") == (6, 8)
    assert _parse_ns(None) is None
    assert _parse_ns("") is None


def test_build_algorithm_variants():
    assert _build_algorithm("hypercube-adaptive", "3").topology.n == 3
    assert _build_algorithm("mesh-adaptive", "3x3").topology.rows == 3
    assert _build_algorithm("torus", "3x4").topology.shape == (3, 4)
    assert _build_algorithm("shuffle-exchange", "3").topology.n == 3
    assert _build_algorithm("buffer-pool", "3").levels == 4
    with pytest.raises(SystemExit):
        _build_algorithm("nope", "3")


def test_cli_table(capsys):
    assert main(["table", "2", "--ns", "3,4"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out and "7.00" in out and "9.00" in out


def test_cli_table_without_reference(capsys):
    main(["table", "2", "--ns", "3", "--no-reference"])
    out = capsys.readouterr().out
    assert "paper" not in out


def test_cli_figure_text(capsys):
    assert main(["figure", "4"]) == 0
    assert "0101" in capsys.readouterr().out


def test_cli_figure_dot(capsys):
    assert main(["figure", "1", "--dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_cli_verify_ok(capsys):
    assert main(["verify", "hypercube-adaptive", "3"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_verify_fast(capsys):
    assert main(["verify", "torus", "3x3", "--fast"]) == 0


def test_cli_sweep(capsys):
    assert main(["sweep", "--n", "4", "--rates", "0.2,1.0"]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out and "L_avg" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_report_to_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NS", "3")
    out = tmp_path / "report.md"
    assert main(["report", "--no-figures", "-o", str(out), "--seed", "1"]) == 0
    text = out.read_text()
    assert "# Reproduction report" in text
    assert "Table 2" in text and "Other topologies" in text
    assert "written" in capsys.readouterr().out


def test_cli_faults_sweep(capsys):
    assert main(["faults", "--family", "hypercube", "--size", "3",
                 "--counts", "0,2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "failed_links" in out and "delivered_of_deliverable" in out
    assert "reroute_overhead" in out


def test_cli_faults_verify(capsys):
    assert main(["faults", "--family", "hypercube", "--size", "3",
                 "--counts", "0,1", "--seed", "7", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verify under faults" in out.lower()


def test_cli_sweep_telemetry(capsys):
    assert main(["sweep", "--n", "3", "--rates", "0.3", "--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "link_util" in out and "dyn_hops(%)" in out


def test_cli_telemetry_artifacts(tmp_path, capsys):
    out = tmp_path / "tele"
    assert main(["telemetry", "--n", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "byte-identical across engines: yes" in text
    for engine in ("reference", "compiled"):
        for name in ("events.jsonl", "metrics.prom",
                     "occupancy.csv", "summary.json"):
            assert (out / f"{engine}-{name}").read_text()
    prom = (out / "reference-metrics.prom").read_text()
    assert "repro_packets_delivered_total" in prom
    assert (out / "reference-occupancy.csv").read_text().startswith(
        "cycle,node,kind,occupancy"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "2", "--ns", "3", "--workers", "0"],
        ["table", "2", "--ns", "3", "--workers", "-2"],
        ["faults", "--size", "3", "--workers", "0"],
        ["faults", "--size", "3", "--workers", "-1"],
        ["table", "2", "--ns", "3", "--workers", "two"],
        ["serve", "scenario.yaml", "--duration", "0"],
    ],
)
def test_cli_rejects_nonpositive_worker_counts(argv, capsys):
    """--workers/--duration must be >= 1; argparse exits 2 otherwise."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "positive integer" in err or "not an integer" in err


def test_cli_telemetry_single_engine_with_faults(tmp_path, capsys):
    out = tmp_path / "tele"
    assert main(["telemetry", "--n", "3", "--engine", "compiled",
                 "--faults", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "byte-identical" not in text
    assert (out / "compiled-summary.json").exists()
    assert not (out / "reference-summary.json").exists()


def test_cli_lint_single_target(capsys):
    assert main(["lint", "torus", "--no-determinism"]) == 0
    out = capsys.readouterr().out
    assert "[ok ]" in out and "gate PASS" in out


def test_cli_lint_expected_failure_keeps_gate_green(capsys):
    assert main(["lint", "unrestricted-torus", "--no-determinism"]) == 0
    out = capsys.readouterr().out
    assert "forced-wait" in out and "gate PASS" in out


def test_cli_lint_all(capsys):
    assert main(["lint", "--all"]) == 0
    out = capsys.readouterr().out
    assert "unrestricted-torus" in out
    assert "wh-hypercube-hung-escape" in out
    assert "faults-hypercube-epoch0" in out
    assert "gate PASS" in out


def test_cli_lint_json(capsys):
    import json

    assert main(["lint", "torus", "--json", "--no-determinism"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"): out.rindex("}") + 1])
    assert doc["schema"] == "repro-static-analysis/1"
    assert doc["gate_ok"] is True


def test_cli_lint_sarif(tmp_path, capsys):
    import json

    sarif = tmp_path / "out.sarif"
    assert main(
        ["lint", "unrestricted-torus", "--sarif", str(sarif),
         "--no-determinism"]
    ) == 0
    doc = json.loads(sarif.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"]


def test_cli_lint_unknown_target():
    with pytest.raises(SystemExit):
        main(["lint", "no-such-target"])


def test_cli_lint_graph_existence(tmp_path, capsys):
    edges = tmp_path / "ring.edges"
    edges.write_text("a b\nb c\nc a\n")
    assert main(["lint", "--graph", str(edges)]) == 0
    out = capsys.readouterr().out
    assert "minimum: 2" in out
    assert main(["lint", "--graph", str(edges), "--classes", "1"]) == 1


def test_cli_lint_graph_synthesize(tmp_path, capsys):
    edges = tmp_path / "ring.edges"
    edges.write_text("a b\nb c\nc a\n")
    assert main(["lint", "--graph", str(edges), "--synthesize"]) == 0
    out = capsys.readouterr().out
    assert "synthesized scheme" in out and "static-DAG=ok" in out


# ----------------------------------------------------------------------
# repro serve (docs/SERVING.md)
# ----------------------------------------------------------------------
SERVE_YAML = """
name: cli-serve
seed: 5
topology: {family: hypercube, size: 3}
populations:
  - name: p
    qos: gold
    users: {mean: 20}
    rate_per_user: 0.02
service:
  duration_cycles: 150
  tick_cycles: 25
"""


def _scenario_file(tmp_path, text=SERVE_YAML):
    pytest.importorskip("yaml")
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return str(path)


def test_cli_serve_validate_only(tmp_path, capsys):
    assert main(["serve", _scenario_file(tmp_path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "scenario ok" in out and "cli-serve" in out


def test_cli_serve_validate_rejects_bad_scenario(tmp_path, capsys):
    bad = SERVE_YAML.replace("rate_per_user: 0.02", "rate_per_user: -1")
    assert main(["serve", _scenario_file(tmp_path, bad), "--validate"]) == 2
    err = capsys.readouterr().err
    assert "populations[0].rate_per_user" in err


def test_cli_serve_missing_file(tmp_path, capsys):
    pytest.importorskip("yaml")
    assert main(["serve", str(tmp_path / "nope.yaml")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_serve_runs_and_records(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    rc = main([
        "serve", _scenario_file(tmp_path),
        "--record", str(out_dir), "--duration", "100",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "drained at cycle" in out
    assert (out_dir / "events.jsonl").exists()
    assert (out_dir / "metrics.prom").exists()
