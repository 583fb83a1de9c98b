"""The command line surface: exit codes, JSON shape, sharding."""

import json

import pytest

from gainrank import cli
from gainrank.graphs import serialize_gain_graph


@pytest.fixture
def squares_file(tmp_path, double_squares):
    p = tmp_path / "squares.txt"
    p.write_text(serialize_gain_graph(double_squares))
    return str(p)


@pytest.fixture
def triangle_file(tmp_path, triangle):
    p = tmp_path / "triangle.txt"
    p.write_text(serialize_gain_graph(triangle))
    return str(p)


def test_analyze_text(squares_file, capsys):
    assert cli.main(["analyze", squares_file]) == 0
    out = capsys.readouterr().out
    assert "rank 6" in out
    assert "refined bounds  6 <= 6 <= 6" in out


def test_analyze_json(squares_file, capsys):
    assert cli.main(["analyze", squares_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "analyze"
    assert doc["schema_version"] == "1"
    assert doc["rank"] == 6
    assert doc["ok"] is True


def test_analyze_modes(triangle_file):
    for mode in ("numeric", "exact", "oracle"):
        assert cli.main(["analyze", triangle_file, "--mode", mode]) == 0
    assert cli.main(["analyze", triangle_file, "--tol", "1e-9"]) == 0


def test_analyze_missing_file(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope.txt")]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_bad_content(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("n 2\ne 0 5 1\n")
    assert cli.main(["analyze", str(p)]) == 1


def test_cycles_output(triangle_file, capsys):
    assert cli.main(["cycles", triangle_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    (row,) = doc["cycles"]
    assert row["length"] == 3
    assert row["type"] == "ODD_NEGATIVE"


def test_cycles_cap(squares_file, capsys):
    assert cli.main(["cycles", squares_file, "--max-cycles", "1"]) == 1
    assert "--max-cycles" in capsys.readouterr().err


def test_bad_arguments_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_verify_runs_clean(tmp_path, capsys):
    out = str(tmp_path / "failures.txt")
    code = cli.main(
        ["verify", "--count", "25", "--n", "7", "--extra-edges", "2",
         "--gains", "gaussian", "--seed", "3", "--out", out, "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["failures"] == 0
    assert doc["failure_file"] is None
    checks = doc["checks"]
    assert checks["basic_bounds"]["run"] == 25
    assert checks["basic_bounds"]["passed"] == 25
    assert checks["equivalence"]["passed"] == checks["equivalence"]["run"]
    assert not (tmp_path / "failures.txt").exists()


def test_verify_uniform_gains(capsys):
    assert cli.main(["verify", "--count", "10", "--n", "6",
                     "--gains", "uniform", "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_verify_worker_invariance(monkeypatch, capsys):
    def run():
        assert cli.main(["verify", "--count", "12", "--n", "6",
                         "--gains", "signed", "--seed", "5", "--json"]) == 0
        return json.loads(capsys.readouterr().out)["checks"]

    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    solo = run()
    monkeypatch.setenv("GAINRANK_WORKERS", "3")
    multi = run()
    assert solo == multi


def test_verify_bad_gains(capsys):
    assert cli.main(["verify", "--count", "5", "--gains", "sedenion"]) == 1


def test_bad_worker_env_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("GAINRANK_WORKERS", "0")
    assert cli.main(["verify", "--count", "5", "--gains", "signed"]) == 1
    assert "GAINRANK_WORKERS" in capsys.readouterr().err
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "signed"]) == 1
    assert "GAINRANK_WORKERS" in capsys.readouterr().err


def test_verify_failure_path(tmp_path, monkeypatch, capsys):
    # force one check to lie so the failure plumbing runs end to end
    import gainrank.cli as cli_mod

    real = cli_mod.verify_equivalence

    def sabotaged(g):
        v = real(g)
        return type(v)(
            spectral_lower=v.spectral_lower,
            spectral_upper=v.spectral_upper,
            structural_lower=v.structural_lower,
            structural_upper=v.structural_upper,
            consistent=False,
            rank=v.rank,
            rank_backend=v.rank_backend,
        )

    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    monkeypatch.setattr(cli_mod, "verify_equivalence", sabotaged)
    out = str(tmp_path / "bad.txt")
    code = cli_mod.main(
        ["verify", "--count", "3", "--n", "5", "--gains", "trivial",
         "--seed", "0", "--out", out, "--json"]
    )
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 3
    assert doc["failure_file"] == out
    body = (tmp_path / "bad.txt").read_text()
    assert "failed equivalence" in body
    assert "n " in body
    # the serialized instances re-analyze cleanly
    first = body.split("# instance")[1].splitlines()[1:]
    graph_text = "\n".join(line for line in first if line and not line.startswith("#"))
    p = tmp_path / "replay.txt"
    p.write_text(graph_text + "\n")
    assert cli_mod.main(["analyze", str(p)]) == 0
    capsys.readouterr()


def test_enumerate_small(capsys):
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "signed", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graphs"] == 5
    assert doc["instances"] == 22
    assert doc["ok"] is True


def test_enumerate_worker_invariance(monkeypatch, capsys):
    def run():
        assert cli.main(["enumerate", "--n-max", "4", "--gains", "signed",
                         "--cap", "6", "--seed", "2", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    solo = run()
    monkeypatch.setenv("GAINRANK_WORKERS", "3")
    multi = run()
    assert solo == multi
    # the cap counts classes: min(2^c, 6) per graph
    assert (solo["graphs"], solo["classes"], solo["instances"]) == (43, 82, 630)
    assert solo["switching_checks"] == solo["graphs"]


def test_enumerate_reports_classes_and_switching_checks(monkeypatch, capsys):
    def run():
        assert cli.main(["enumerate", "--n-max", "3", "--gains", "gaussian", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    doc = run()
    # one edge, three paths of 4^2, a triangle of 4^3; classes fix a tree
    assert (doc["graphs"], doc["instances"]) == (5, 4 + 3 * 16 + 64)
    assert (doc["classes"], doc["switching_checks"]) == (1 + 3 + 4, 5)
    monkeypatch.setenv("GAINRANK_WORKERS", "2")
    assert run() == doc
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "signed"]) == 0
    assert "6 class(es), 5 switching check(s)" in capsys.readouterr().out


def test_enumerate_rejects_uniform(capsys):
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "uniform"]) == 1
    assert cli.main(["enumerate", "--n-max", "9", "--gains", "signed"]) == 1
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "signed", "--cap", "0"]) == 1


def test_analyze_size_limit_is_an_input_error(tmp_path, capsys):
    # the combinatorial oracle stops at n = 12
    p = tmp_path / "path14.txt"
    p.write_text("n 14\n" + "".join(f"e {v} {v + 1} 1\n" for v in range(13)))
    assert cli.main(["analyze", str(p), "--mode", "oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n <= 12" in err
