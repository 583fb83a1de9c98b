"""The command line surface: exit codes, JSON shape, sharding."""

import json

import pytest

from gainrank import cli
from gainrank.combinatorics import CYCLE_LIMIT
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


@pytest.mark.parametrize("tol", ["-0.5", "nan"])
def test_analyze_rejects_a_negative_or_nan_tolerance(tmp_path, capsys, tol):
    # on the path P3 a negative cut once reported nullity -1 and exited 2
    p = tmp_path / "p3.txt"
    p.write_text("n 3\ne 0 1 1\ne 1 2 1\n")
    assert cli.main(["analyze", str(p), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance" in captured.err


def test_analyze_accepts_a_zero_tolerance(triangle_file, capsys):
    assert cli.main(["analyze", triangle_file, "--tol", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 3
    assert doc["inertia"] == {"p_plus": 1, "n_zero": 0, "n_minus": 2}


def test_analyze_tolerance_below_solver_error_skips_the_inertia_identity(tmp_path, capsys):
    # the zero eigenvalue of P3 comes out of the solver as +-1e-16, so at
    # tol 0 the inertia counts it on either side
    p = tmp_path / "p3.txt"
    p.write_text("n 3\ne 0 1 1\ne 1 2 1\n")
    assert cli.main(["analyze", str(p), "--tol", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["violations"] == []
    assert doc["rank"] == 2
    reason = doc["skipped"]["rank_inertia_identity"]
    assert "auto_tolerance 1e-10" in reason and "inconclusive" in reason
    assert cli.main(["analyze", str(p), "--tol", "1e-9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == {}
    assert cli.main(["analyze", str(p), "--tol", "0", "--mode", "numeric", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == {}


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


@pytest.mark.parametrize("token", ["c(nan,0)", "c(1,nan)", "c(nan,nan)"])
def test_cycles_rejects_a_non_finite_gain(tmp_path, capsys, token):
    p = tmp_path / "nan.txt"
    p.write_text(f"n 3\ne 0 1 {token}\ne 1 2 1\ne 0 2 1\n")
    assert cli.main(["cycles", str(p), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "modulus nan" in captured.err


def test_cycles_cap(squares_file, capsys):
    assert cli.main(["cycles", squares_file, "--max-cycles", "1"]) == 1
    assert capsys.readouterr().err == "error: more than 1 cycles; raise --max-cycles\n"


@pytest.mark.parametrize("text,exit_at_zero", [
    ("n 3\ne 0 1 1\ne 1 2 1\n", 0),  # a path: no cycle
    ("n 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\n", 1),  # a triangle: one cycle
], ids=["path", "triangle"])
def test_cycles_rejects_a_negative_cap(tmp_path, capsys, text, exit_at_zero):
    # a negative cap once let a path exit 0 and gave a triangle two hints
    p = tmp_path / "g.txt"
    p.write_text(text)
    assert cli.main(["cycles", str(p), "--max-cycles", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-cycles must be >= 0\n"
    assert cli.main(["cycles", str(p), "--max-cycles", "0"]) == exit_at_zero


def test_cycles_cap_defaults_to_the_enumeration_limit(squares_file):
    assert cli.build_parser().parse_args(["cycles", squares_file]).max_cycles == CYCLE_LIMIT


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


def test_verify_runs_refined_bounds_up_to_the_transversal_limit(monkeypatch, capsys):
    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    assert cli.main(["verify", "--count", "5", "--n", "16", "--gains", "signed", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["refined_bounds"] == {"passed": 5, "run": 5}


def test_verify_counts_the_refined_bounds_it_skips(monkeypatch, capsys):
    # past the searches' size limit the check is refused and counted, so
    # every instance is either run or skipped
    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    argv = ["verify", "--count", "20", "--n", "40", "--gains", "signed"]
    assert cli.main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    run, skipped = doc["checks"]["refined_bounds"]["run"], doc["skipped"]["refined_bounds"]
    assert run > 0 and skipped > 0 and run + skipped == 20
    assert cli.main(argv) == 0
    assert f"refined_bounds skipped on {skipped} instance(s)" in capsys.readouterr().out


def test_verify_reports_elapsed_and_throughput(capsys):
    assert cli.main(["verify", "--count", "20", "--n", "6", "--gains", "signed", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    assert doc["elapsed"] > 0
    assert doc["instances_per_s"] == pytest.approx(doc["instances"] / doc["elapsed"])


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


def test_verify_draws_from_a_huge_root_group_without_building_it(tmp_path, capsys):
    # each gain is drawn as one exponent; the 10^9-element alphabet is never listed
    out = str(tmp_path / "failures.txt")
    argv = ["verify", "--count", "2", "--n", "5", "--gains", "roots:1000000007", "--out", out, "--json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["elapsed"] < 10


def test_verify_bad_gains(capsys):
    assert cli.main(["verify", "--count", "5", "--gains", "sedenion"]) == 1


def test_verify_rejects_negative_extra_edges(capsys):
    assert cli.main(["verify", "--count", "5", "--gains", "signed", "--extra-edges", "-1"]) == 1
    assert "error: " in capsys.readouterr().err


def test_enumerate_reports_exact_escalations(monkeypatch, capsys):
    from gainrank import certify

    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    monkeypatch.setattr(certify, "_EIG_ERROR", 1e30)  # every representative in the band
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "roots:5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_escalations"] == doc["oracle_escalations"] == doc["classes"] > 0
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "roots:5"]) == 0
    assert f"{doc['classes']} exact escalation(s)" in capsys.readouterr().out


def test_bad_worker_env_is_an_input_error(monkeypatch, capsys):
    for value in ("0", "two"):
        monkeypatch.setenv("GAINRANK_WORKERS", value)
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


def _without_times(doc):
    return {k: v for k, v in doc.items() if k not in ("elapsed", "instances_per_s", "timings")}


def test_enumerate_worker_invariance(monkeypatch, capsys):
    def run():
        assert cli.main(["enumerate", "--n-max", "4", "--gains", "signed",
                         "--cap", "6", "--seed", "2", "--json"]) == 0
        return _without_times(json.loads(capsys.readouterr().out))

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
        return _without_times(json.loads(capsys.readouterr().out))

    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    doc = run()
    # one edge, three paths of 4^2, a triangle of 4^3; classes fix a tree
    assert (doc["graphs"], doc["instances"]) == (5, 4 + 3 * 16 + 64)
    assert (doc["classes"], doc["switching_checks"]) == (1 + 3 + 4, 5)
    monkeypatch.setenv("GAINRANK_WORKERS", "2")
    assert run() == doc
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "signed"]) == 0
    assert "6 class(es), 5 switching check(s)" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_enumerate_reports_elapsed_throughput_and_stage_timings(workers, monkeypatch, capsys):
    monkeypatch.setenv("GAINRANK_WORKERS", workers)
    assert cli.main(["enumerate", "--n-max", "4", "--gains", "gaussian", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"
    assert doc["elapsed"] > 0
    assert doc["instances_per_s"] == pytest.approx(doc["instances"] / doc["elapsed"])
    assert set(doc["timings"]) == {"enumerate", "facts", "eigensolve", "checks"}
    assert all(t >= 0.0 for t in doc["timings"].values())
    if workers == "1":
        assert sum(doc["timings"].values()) <= doc["elapsed"]


def test_near_imaginary_rational_triangle_is_consistent(tmp_path, capsys):
    p = tmp_path / "near_imaginary.txt"
    p.write_text("n 3\ne 0 1 rot(2500000000/10000000001)\ne 1 2 1\ne 0 2 1\n")
    assert cli.main(["analyze", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["consistent"] is True
    assert cli.main(["cycles", str(p), "--json"]) == 0
    assert [c["type"] for c in json.loads(capsys.readouterr().out)["cycles"]] == ["ODD_NEGATIVE"]


def test_enumerate_failures_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    from gainrank import certify

    real = certify._char_coeffs

    def last_coefficient_zeroed(H):
        w = real(H).copy()
        w[:, -1] = 0
        return w

    monkeypatch.setattr(certify, "_char_coeffs", last_coefficient_zeroed)
    docs, bodies = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("GAINRANK_WORKERS", workers)
        out = tmp_path / f"failures-{workers}.txt"
        assert cli.main(["enumerate", "--n-max", "4", "--gains", "signed",
                         "--out", str(out), "--json"]) == 2
        doc = _without_times(json.loads(capsys.readouterr().out))
        docs.append({k: v for k, v in doc.items() if k != "failure_file"})
        bodies.append(out.read_text())
    assert docs[0] == docs[1]
    assert docs[0]["failures"] == cli.MAX_FAILURES
    assert bodies[0] == bodies[1]


def test_enumerate_spot_checks_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    from gainrank import certify

    # an off-by-one matching DP fails every graph; the blossom spot checks
    # say so on the graphs their edge-set hashes pick, whichever shard has them
    real = certify._max_index_positive
    monkeypatch.setattr(certify, "_max_index_positive", lambda counts: real(counts) + 1)
    monkeypatch.setattr(cli, "MAX_FAILURES", 10**6)  # keep every failure, spot checks too
    docs, bodies = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("GAINRANK_WORKERS", workers)
        out = tmp_path / f"failures-{workers}.txt"
        assert cli.main(["enumerate", "--n-max", "5", "--gains", "signed",
                         "--out", str(out), "--json"]) == 2
        doc = _without_times(json.loads(capsys.readouterr().out))
        docs.append({k: v for k, v in doc.items() if k != "failure_file"})
        bodies.append(out.read_text())
    assert docs[0] == docs[1]
    assert bodies[0] == bodies[1]
    assert bodies[0].count("# spot check mismatch") > 1


def test_enumerate_rejects_uniform(capsys):
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "uniform"]) == 1
    assert cli.main(["enumerate", "--n-max", "9", "--gains", "signed"]) == 1
    capsys.readouterr()
    # n = 8 has 251,548,592 connected labeled graphs: refused at once, not run for hours
    assert cli.main(["enumerate", "--n-max", "8", "--gains", "signed"]) == 1
    assert capsys.readouterr().err.startswith("error: --n-max must be between 2 and 7")
    assert cli.main(["enumerate", "--n-max", "3", "--gains", "signed", "--cap", "0"]) == 1


def test_analyze_size_limit_is_an_input_error(tmp_path, capsys):
    # the combinatorial oracle stops at n = 12
    p = tmp_path / "path14.txt"
    p.write_text("n 14\n" + "".join(f"e {v} {v + 1} 1\n" for v in range(13)))
    assert cli.main(["analyze", str(p), "--mode", "oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n <= 12" in err


@pytest.fixture
def numeric_rank_off_by_one(monkeypatch):
    """The numeric rank backend reports one more than the rank."""
    from dataclasses import replace

    from gainrank import theorems

    real = theorems.inertia

    def off_by_one(h, tol=None):
        res = real(h, tol)
        return replace(res, p_plus=res.p_plus + 1, rank=res.rank + 1)

    monkeypatch.setattr(theorems, "inertia", off_by_one)


def test_analyze_rank_backend_disagreement_exits_two(
    triangle_file, numeric_rank_off_by_one, capsys
):
    assert cli.main(["analyze", triangle_file, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank backends disagree on n=3" in captured.err
    assert "n 3" in captured.err  # the instance, serialized for replay


def test_analyze_pair_count_mismatch_exits_two(tmp_path, monkeypatch, capsys):
    """A float-gain path that pendant pairs cover, with the pair count one
    too many: the check against the matching number stops analyze."""
    from gainrank import theorems

    real = theorems.pendant_pairs
    monkeypatch.setattr(theorems, "pendant_pairs", lambda g: (real(g)[0] + 1, real(g)[1]))
    p = tmp_path / "float_path.txt"
    p.write_text("n 4\ne 0 1 c(0.6,0.8)\ne 1 2 1\ne 2 3 1\n")
    assert cli.main(["analyze", str(p), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3 pendant pairs cover n=4, but m=2" in captured.err
    assert "n 4" in captured.err  # the instance, serialized for replay


def test_an_internal_value_error_in_analyze_exits_two_with_the_instance(
    tmp_path, monkeypatch, capsys
):
    """A float-gain triangle with a tail keeps a core, so a pair count one
    too many reaches pendant_peel, whose ValueError is a bug, not bad input."""
    from gainrank import theorems

    real = theorems.pendant_pairs
    monkeypatch.setattr(theorems, "pendant_pairs", lambda g: (real(g)[0] + 1, real(g)[1]))
    p = tmp_path / "float_tail.txt"
    p.write_text("n 5\ne 0 1 c(0.6,0.8)\ne 1 2 1\ne 0 2 1\ne 2 3 1\ne 3 4 1\n")
    assert cli.main(["analyze", str(p), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "n 5\ne 0 1 c(" in captured.err  # the instance, serialized for replay


def test_an_internal_value_error_in_cycles_exits_two_with_the_instance(
    triangle_file, monkeypatch, capsys
):
    def broken(g, found):
        raise ValueError("made-up walk failure")

    monkeypatch.setattr(cli, "cycle_records", broken)
    assert cli.main(["cycles", triangle_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: made-up walk failure\nn 3\n")


def test_exact_mode_on_a_float_gain_is_an_input_error(tmp_path, monkeypatch, capsys):
    from gainrank import analysis

    monkeypatch.setattr(analysis, "component_facts", None)  # rejected before any analysis
    p = tmp_path / "float_edge.txt"
    p.write_text("n 2\ne 0 1 c(0.6,0.8)\n")
    assert cli.main(["analyze", str(p), "--mode", "exact"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --mode exact needs rational-angle gains; edge (0, 1)")
    assert cli.main(["analyze", str(p), "--tol", "-1"]) == 1
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


def test_verify_writes_rank_backend_disagreements_and_continues(
    tmp_path, monkeypatch, numeric_rank_off_by_one, capsys
):
    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    out = tmp_path / "bad.txt"
    args = ["verify", "--count", "3", "--gains", "signed", "--out", str(out), "--json"]
    assert cli.main(args) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] >= 1 and doc["failure_file"] == str(out)
    body = out.read_text()
    assert body.count("failed theorem_violation") == doc["failures"]
    # instances past the cross-check size run every check to the end
    assert doc["checks"]["basic_bounds"]["run"] == 3 - doc["failures"]


def test_verify_writes_a_refined_interval_violation(tmp_path, monkeypatch, capsys):
    from gainrank import theorems

    # a transversal larger than c puts the refined interval outside the basic one
    monkeypatch.setattr(theorems, "odd_cycle_transversal", lambda G: (G.n + 1, ()))
    monkeypatch.setenv("GAINRANK_WORKERS", "1")
    out = tmp_path / "bad.txt"
    args = ["verify", "--count", "2", "--n", "6", "--gains", "signed", "--out", str(out), "--json"]
    assert cli.main(args) == 2
    assert json.loads(capsys.readouterr().out)["failures"] == 2
    assert out.read_text().count("failed theorem_violation") == 2


# two triangles sharing vertex 0, one float gain on each: rank 5, and the
# triangle 0-1-2 loses its rank-3 cycle when edge 1-2 is dropped
_BOWTIE = (
    "n 5\ne 0 1 c(0.6,0.8)\ne 0 2 1\ne 1 2 1\ne 0 3 c(0.6,0.8)\ne 0 4 1\ne 3 4 1\n"
)


def test_a_float_rank_that_loses_an_edge_disagrees_with_the_inertia(
    tmp_path, monkeypatch, capsys
):
    from gainrank import theorems

    real = theorems.hermitian_adjacency

    def drop_edge_1_2(g):
        h = real(g)
        h[1, 2] = h[2, 1] = 0
        return h

    p = tmp_path / "bowtie.txt"
    p.write_text(_BOWTIE)
    assert cli.main(["analyze", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 5
    # the numeric rank path sees rank 4; the inertia, pendant pairs plus the
    # core's cut, comes from the true matrix
    monkeypatch.setattr(theorems, "hermitian_adjacency", drop_edge_1_2)
    assert cli.main(["analyze", str(p), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 4 and doc["rank_backend"] == "numeric"
    assert doc["violations"] == ["rank 4 (numeric) disagrees with inertia sum 2+3 at tol 1e-10"]


def _edgeless_report(n: int) -> dict:
    """analyze --json on n vertices and no edge."""
    backend = "exact" if n else "trivial"
    bounds = {"rank": 0, "m": 0, "c": 0, "lower_basic": 0, "upper_basic": 0, "holds_basic": True}
    holds = {
        "holds": True, "first_failure": None, "witness": None,
        "cycles_disjoint": True, "types_ok": True, "matching_ok": True,
    }
    return {
        "command": "analyze", "schema_version": "1",
        "n": n, "edge_count": 0, "component_count": n, "m": 0, "c": 0,
        "rank": 0, "rank_backend": backend,
        "inertia": {"p_plus": 0, "n_zero": n, "n_minus": 0},
        "basic_bounds": bounds,
        "refined_bounds": {
            **bounds, "b": 0, "acyclic_deletion_value": 0,
            "lower_refined": 0, "upper_refined": 0, "holds_refined": True,
        },
        "cycles": [], "disjoint_cycles": True, "condition_iii": True,
        "verdict": {
            "spectral_lower": True, "spectral_upper": True,
            "structural_lower": holds, "structural_upper": holds,
            "consistent": True, "rank": 0, "rank_backend": backend,
        },
        "violations": [], "skipped": {}, "ok": True,
    }


@pytest.mark.parametrize("n", [0, 3])
def test_analyze_without_edges_makes_no_eigensolve(tmp_path, monkeypatch, capsys, n):
    import numpy as np

    sizes, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or real(a))
    p = tmp_path / "edgeless.txt"
    p.write_text(f"n {n}\n")
    assert cli.main(["analyze", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == _edgeless_report(n)
    assert sizes == []
