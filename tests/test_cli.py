"""Tests for the command-line harness: exit codes, reports, reproducibility."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepup.hypergraph as hg
from stepup import cli
from stepup.cli import BENCH_COLUMNS, derive_seed, main
from stepup.coloring import (
    PairColoring,
    load_coloring,
    sample_coloring,
    save_coloring,
)
from stepup.errors import EngineDisagreement, InsufficientLayers, ProofGapTrap
from stepup.hypergraph import AlphaResult, StepUpHypergraph, exact_alpha, is_edge
from stepup.witness import (
    build_layers,
    extract_with_layers,
    random_subset,
    save_q,
    verify_star_property,
)


REPO_ROOT = Path(__file__).resolve().parents[1]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_raw(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def certified12_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("phi") / "phi12.bin"
    code = main(["gen-coloring", "--bits", "12", "--seed", "0",
                 "--search", "--n", "5", "--out", str(path)])
    assert code == 0
    return str(path)


def test_check_k5_all_colorings_small_bits(capsys):
    code, rep = run_json(capsys, ["check-k5", "--bits", "3", "--all-colorings"])
    assert code == 0
    assert rep["verdict"] == "NoViolation"
    assert rep["counters"] == {"colorings": 8, "five_sets_each": 56,
                               "five_sets_total": 448}


def test_check_k5_all_colorings_guard(capsys):
    code, out, err = run_raw(capsys, ["check-k5", "--bits", "10",
                                      "--all-colorings"])
    assert code == 2
    assert "all-colorings" in err


def test_check_k5_single_coloring_and_threads(capsys):
    code1, rep1 = run_json(capsys, ["check-k5", "--bits", "5", "--seed", "2"])
    code2, rep2 = run_json(capsys, ["check-k5", "--bits", "5", "--seed", "2",
                                    "--threads", "2"])
    assert code1 == code2 == 0
    assert rep1["verdict"] == rep2["verdict"] == "NoViolation"
    assert rep1["counters"]["five_sets_each"] == 201376


def test_check_k5_all_colorings_at_four_bits(capsys):
    # edge3 depends only on the order type of its inputs and the colors
    # among at most four delta values, so these 64 colorings cover every
    # coloring at every D
    code, rep = run_json(capsys, ["check-k5", "--bits", "4", "--all-colorings"])
    assert code == 0 and rep["verdict"] == "NoViolation"
    assert rep["counters"]["colorings"] == 64


def test_check_k5_reports_its_engine(capsys):
    code, rep = run_json(capsys, ["check-k5", "--bits", "5", "--seed", "2"])
    assert code == 0
    assert rep["counters"]["engine"] == "order-types"
    assert rep["counters"]["classes_checked"] == 1616
    assert rep["counters"]["classes_fired"] == 0
    assert rep["counters"]["patterns_checked"] == 0
    code, rep = run_json(capsys, ["check-k5", "--bits", "5", "--seed", "2",
                                  "--vertex-cap", "20"])
    assert code == 0
    assert rep["counters"] == {"colorings": 1, "five_sets_each": 15504,
                               "engine": "order-types",
                               "classes_checked": 1616, "classes_fired": 0,
                               "patterns_checked": 0}
    code, rep = run_json(capsys, ["check-k5", "--bits", "4", "--seed", "1",
                                  "--vertex-cap", "4"])
    assert code == 0
    assert rep["counters"] == {"colorings": 1, "five_sets_each": 0,
                               "engine": "order-types",
                               "classes_checked": 0, "classes_fired": 0,
                               "patterns_checked": 0}


def test_check_k5_all_colorings_honours_the_vertex_cap(capsys):
    # binom(16, 5) = 4368 five-sets exceed the budget of 10; the cap of 6
    # leaves 6 in every coloring's check
    argv = ["check-k5", "--bits", "4", "--all-colorings", "--budget", "10"]
    code, out, err = run_raw(capsys, argv)
    assert code == 2 and "4368" in err
    code, rep = run_json(capsys, argv + ["--vertex-cap", "6"])
    assert code == 0 and rep["verdict"] == "NoViolation"
    assert rep["counters"] == {"colorings": 64, "five_sets_each": 6,
                               "five_sets_total": 384}


@pytest.mark.parametrize("extra", [["--seed", "2"], ["--all-colorings"]])
def test_check_k5_negative_vertex_cap_is_a_usage_error(capsys, extra):
    code, out, err = run_raw(capsys, ["check-k5", "--bits", "5",
                                      "--vertex-cap", "-3", *extra])
    assert code == 2 and out == ""
    assert "InvalidParams" in err and "vertex_cap" in err


def test_verify_coloring_all_red_is_refuted(capsys, tmp_path):
    path = tmp_path / "red.bin"
    save_coloring(PairColoring(10, np.zeros(45, dtype=np.uint8)), path)
    code, rep = run_json(capsys, ["verify-coloring", "--coloring", str(path),
                                  "--n", "5", "--exact"])
    assert code == 1
    assert rep["verdict"] == "Refuted"
    assert rep["certification"]["counterexample"] == [0, 1, 2, 3, 4]
    assert rep["certification"]["mode"] == "Exact"


def test_verify_coloring_certified_exact(capsys, certified12_file):
    code, rep = run_json(capsys, ["verify-coloring", "--coloring",
                                  certified12_file, "--n", "5", "--exact"])
    assert code == 0
    assert rep["verdict"] == "Certified"
    assert rep["certification"]["subsets_checked"] == 792


def test_verify_coloring_sampled_mode(capsys, certified12_file):
    code, rep = run_json(capsys, ["verify-coloring", "--coloring",
                                  certified12_file, "--n", "5",
                                  "--samples", "2000"])
    assert code == 0
    assert rep["verdict"] == "Estimated"
    assert rep["certification"]["mode"] == "Sampled"


def test_verify_coloring_modes_are_exclusive(capsys, certified12_file):
    code, out, err = run_raw(capsys, ["verify-coloring", "--coloring",
                                      certified12_file, "--n", "5", "--exact",
                                      "--samples", "2000"])
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_gen_coloring_writes_the_derived_sample(capsys, tmp_path):
    path = tmp_path / "phi.bin"
    code, rep = run_json(capsys, ["gen-coloring", "--bits", "8", "--seed", "5",
                                  "--out", str(path)])
    assert code == 0 and rep["verdict"] == "Saved"
    phi = load_coloring(path)
    assert phi == sample_coloring(8, derive_seed(5, "coloring"))


def test_gen_coloring_search_mode_is_certified(capsys, certified12_file):
    # the fixture already asserted exit 0; re-verify the file independently
    code, rep = run_json(capsys, ["verify-coloring", "--coloring",
                                  certified12_file, "--n", "5"])
    assert code == 0 and rep["verdict"] == "Certified"


def test_extract_witness_from_q_file(capsys, certified12_file, tmp_path):
    qpath = tmp_path / "q.bin"
    save_q(random_subset(12, 2000, seed=4), 12, qpath)
    code, rep = run_json(capsys, ["extract-witness", "--coloring",
                                  certified12_file, "--n", "5",
                                  "--q-file", str(qpath)])
    assert code == 0
    assert rep["verdict"] == "WitnessFound"
    assert rep["witness"]["vertices"] == [767, 895, 896, 1025]
    assert rep["witness"]["branch"] == "AnchorChainBranch"
    assert rep["witness"]["rule"] == "RuleIII"
    phi = load_coloring(certified12_file)
    assert is_edge(StepUpHypergraph(phi), tuple(rep["witness"]["vertices"]))


def test_extract_witness_check_star(capsys, certified12_file, tmp_path):
    qpath = tmp_path / "q.bin"
    save_q(random_subset(12, 2000, seed=4), 12, qpath)
    code, rep = run_json(capsys, ["extract-witness", "--coloring",
                                  certified12_file, "--n", "5",
                                  "--q-file", str(qpath), "--check-star"])
    assert code == 0
    assert rep["star_property"]["ok"] is True


def test_check_star_verifies_the_extractions_own_layers(capsys,
                                                        certified12_file,
                                                        monkeypatch):
    def no_rebuild(q, n):
        raise AssertionError("the star check rebuilt the layers")

    monkeypatch.setattr(cli, "build_layers", no_rebuild)
    argv = ["extract-witness", "--coloring", certified12_file, "--n", "5",
            "--q-size", "2000", "--check-star"]
    for q_seed, branch in ((4, "AnchorChainBranch"), (1, "MonotoneRunBranch")):
        code, rep = run_json(capsys, argv + ["--q-seed", str(q_seed)])
        assert code == 0 and rep["witness"]["branch"] == branch
        q = random_subset(12, 2000, derive_seed(q_seed, "q"))
        built = build_layers(q, 5)
        if branch == "AnchorChainBranch":
            star = verify_star_property(built)
            assert star.ok and rep["star_property"] == {
                "ok": True, "checks": star.checks, "counterexample": None}
        else:
            assert rep["witness"]["trace"]["run"] == built.as_dict()
            assert rep["star_property"] == {
                "ok": True, "note": "monotone run, no stack built"}


def test_check_star_builds_layers_for_a_directly_scanned_q(capsys,
                                                           certified12_file,
                                                           monkeypatch):
    # |Q| <= SMALL_Q_DIRECT is scanned without layers, so the star check
    # builds them; a Q too small to carry them keeps its witness, and the
    # star report names build_layers' InsufficientLayers
    calls = []

    def counting(q, n):
        calls.append(int(q.size))
        return build_layers(q, n)

    monkeypatch.setattr(cli, "build_layers", counting)
    argv = ["extract-witness", "--coloring", certified12_file, "--q-seed", "0",
            "--check-star"]
    code, rep = run_json(capsys, argv + ["--n", "3", "--q-size", "20"])
    assert code == 0 and rep["witness"]["branch"] == "DirectScanBranch"
    assert rep["star_property"] == {"ok": True,
                                    "note": "monotone run, no stack built"}
    assert calls == [20]
    with pytest.raises(InsufficientLayers) as info:
        build_layers(random_subset(12, 24, derive_seed(0, "q")), 5)
    assert str(info.value).startswith(
        "layer 4 came out empty: |Q| = 24 cannot sustain depth 7")
    code, rep = run_json(capsys, argv + ["--n", "5", "--q-size", "24"])
    assert code == 0 and rep["verdict"] == "WitnessFound"
    assert rep["witness"]["branch"] == "DirectScanBranch"
    assert rep["star_property"] == {"ok": None,
                                    "note": f"no stack: {info.value}"}
    assert set(rep["timings"]) == {"extract_s", "star_s", "total_s"}
    assert calls == [20, 24]
    # the rest of the report is the one written without --check-star
    code, plain = run_json(capsys, argv[:-1] + ["--n", "5", "--q-size", "24"])
    assert code == 0
    for r in (rep, plain):
        del r["timings"], r["config"]
    del rep["star_property"]
    assert rep == plain


def test_extract_witness_reports_stage_timings(capsys, certified12_file,
                                               tmp_path):
    qpath = tmp_path / "q.bin"
    save_q(random_subset(12, 2000, seed=4), 12, qpath)
    argv = ["extract-witness", "--coloring", certified12_file, "--n", "5",
            "--q-file", str(qpath)]
    code, rep = run_json(capsys, argv)
    assert code == 0 and set(rep["timings"]) == {"extract_s", "total_s"}
    code, starred = run_json(capsys, argv + ["--check-star"])
    assert code == 0
    assert set(starred["timings"]) == {"extract_s", "star_s", "total_s"}
    assert all(v >= 0 for v in starred["timings"].values())
    code, failed = run_json(capsys, ["extract-witness", "--bits", "12",
                                     "--seed", "1", "--n", "5",
                                     "--q-seed", "3", "--q-size", "30"])
    assert code == 1 and set(failed["timings"]) == {"extract_s", "total_s"}


def test_extract_witness_failure_is_exit_one(capsys):
    code, rep = run_json(capsys, ["extract-witness", "--bits", "12",
                                  "--seed", "1", "--n", "5",
                                  "--q-seed", "3", "--q-size", "30"])
    assert code == 1
    assert rep["verdict"] == "ExtractionFailed"
    assert rep["failure"]["kind"] == "NoGoodTripleInRun"


def test_alpha_command_matches_library(capsys):
    code, rep = run_json(capsys, ["alpha", "--bits", "4", "--seed", "3"])
    assert code == 0
    phi = sample_coloring(4, derive_seed(3, "coloring"))
    direct = exact_alpha(StepUpHypergraph(phi))
    assert rep["alpha"]["alpha"] == direct.alpha
    assert tuple(rep["alpha"]["witness"]) == direct.witness
    assert rep["alpha"] == direct.as_dict()
    assert set(rep["alpha"]) == {"alpha", "witness", "method", "nodes", "a0",
                                 "aR", "aL", "witness_from", "level_states"}


def test_alpha_budget_is_the_state_budget(capsys):
    argv = ["alpha", "--bits", "12", "--seed", "0"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["config"]["budget"] == hg.ALPHA_BUDGET_DEFAULT
    nodes = rep["alpha"]["nodes"]
    assert nodes == sum(rep["alpha"]["level_states"])
    code, tight = run_json(capsys, argv + ["--budget", str(nodes)])
    assert code == 0 and tight["alpha"] == rep["alpha"]
    code, out, err = run_raw(capsys, argv + ["--budget", str(nodes - 1)])
    assert code == 2 and out == ""
    assert err.startswith(
        f"error: the alpha recursion passed its state budget {nodes - 1}")


def test_alpha_witness_spanning_an_edge_is_a_typed_error(capsys,
                                                         monkeypatch):
    def spans_an_edge(H, node_budget):
        return AlphaResult(alpha=16, witness=tuple(range(16)),
                           method="half-split-recursion", nodes=9, a0=8,
                           aR=8, aL=8, witness_from="split",
                           level_states=(1, 1, 2, 3, 2))

    monkeypatch.setattr(hg, "_alpha_recursion", spans_an_edge)
    code, out, err = run_raw(capsys, ["alpha", "--bits", "4", "--seed", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error: EngineDisagreement: alpha witness")
    H = StepUpHypergraph(sample_coloring(4, derive_seed(3, "coloring")))
    with pytest.raises(EngineDisagreement) as exc:
        exact_alpha(H)
    assert exc.value.vertices == tuple(range(16))
    assert is_edge(H, exc.value.edge)


def test_alpha_report_is_the_same_under_python_optimize(capsys):
    # python -O strips assert statements; the witness check must not be one
    argv = ["alpha", "--bits", "5", "--seed", "2"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "stepup.cli", *argv],
        cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, rep = run_json(capsys, argv)
    optimized = json.loads(proc.stdout)
    optimized.pop("timings")
    rep.pop("timings")
    assert code == 0 and optimized == rep


def test_steiner_below_the_floor_is_a_typed_error_under_python_optimize():
    # the Turan-floor re-check must not be an assert that python -O strips
    code = ("import sys, stepup.coloring as c\n"
            "if __debug__: sys.exit(3)\n"
            "c._greedy_pairs = lambda pid, n: [0]\n"
            "from stepup.cli import main\n"
            "sys.exit(main(['steiner', '--n', '10', '--seed', '1']))\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(
        "error: EngineDisagreement: greedy packing at n=10, seed="), proc.stderr
    assert "kept 1 triples, below the Turan floor" in proc.stderr


def test_independent_command_both_verdicts(capsys):
    phi = sample_coloring(4, derive_seed(3, "coloring"))
    direct = exact_alpha(StepUpHypergraph(phi))
    vertex_list = ",".join(str(v) for v in direct.witness)
    code, rep = run_json(capsys, ["independent", "--bits", "4", "--seed", "3",
                                  "--vertices", vertex_list])
    assert code == 0 and rep["verdict"] == "Independent"
    everything = ",".join(str(v) for v in range(16))
    code, rep = run_json(capsys, ["independent", "--bits", "4", "--seed", "3",
                                  "--vertices", everything])
    assert code == 1 and rep["verdict"] == "EdgeFound"
    assert is_edge(StepUpHypergraph(phi), tuple(rep["witness"]["vertices"]))


def test_steiner_command_meets_bound(capsys):
    code, rep = run_json(capsys, ["steiner", "--n", "50", "--seed", "1"])
    assert code == 0
    assert rep["verdict"] == "Packed"
    assert rep["pair_disjoint"] is True
    assert rep["count"] >= 50 * 48 / 12


def test_bound_command_matches_library(capsys):
    from stepup.coloring import (failure_probability_bound,
                                 log_failure_probability_bound)
    code, rep = run_json(capsys, ["bound", "--bits", "10", "--n", "5",
                                  "--cprime", "0.0833333333333333"])
    assert code == 0
    assert rep["log_bound"] == pytest.approx(
        log_failure_probability_bound(10, 5, 0.0833333333333333))
    assert rep["bound"] == pytest.approx(
        failure_probability_bound(10, 5, 0.0833333333333333))


def test_bench_emits_fixed_csv_schema(capsys, tmp_path):
    csv_path, report = tmp_path / "bench.csv", tmp_path / "bench.json"
    code = main(["bench", "--bits", "4", "--threads", "2", "--q-bits", "16",
                 "--q-size", "20000", "--csv", str(csv_path),
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == BENCH_COLUMNS
    assert all(len(r) == len(BENCH_COLUMNS) for r in rows[1:])
    k5 = [r for r in rows[1:] if r[0] == "k5-check"]
    assert len(k5) == 2 and k5[0][6] == k5[1][6]
    assert csv_path.read_text() == out
    # the CSV holds the rows as the JSON report writes them
    rep = json.loads(report.read_text())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rep["columns"])
    writer.writerows(rep["rows"])
    assert out == buf.getvalue()
    assert report.read_text() == json.dumps(rep, indent=2,
                                            sort_keys=True) + "\n"


def test_bench_k5_rows_count_the_patterns_checked(capsys):
    # at every D the check decides from the 1,616 pattern classes, not
    # from binom(2^D, 5) vertex 5-sets or the delta patterns over [0, D)
    for bits, classes in ((4, 1616), (5, 1616)):
        code = main(["bench", "--bits", str(bits), "--threads", "2",
                     "--q-bits", "16", "--q-size", "2000"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        k5 = [r for r in rows[1:] if r[0] == "k5-check"]
        assert [(r[2], r[3]) for r in k5] == [(str(classes), "1"),
                                              (str(classes), "2")]


def test_bench_verdict_change_with_threads_is_a_typed_error(capsys,
                                                           monkeypatch):
    def k5_by_threads(H, *args, threads=1, stats=None, **kwargs):
        return None if threads == 1 else object()

    monkeypatch.setattr(cli, "check_k5_free", k5_by_threads)
    code, out, err = run_raw(capsys, ["bench", "--bits", "4", "--threads", "2",
                                      "--q-bits", "16", "--q-size", "2000"])
    assert code == 2 and out == ""
    assert "error: EngineDisagreement: K5 verdict changed with thread count" in err


def test_gen_coloring_search_says_when_no_certified_coloring_exists(
        capsys, tmp_path):
    # the search fails, as it must at D >= 14, without annealing
    code, rep = run_json(capsys, ["gen-coloring", "--bits", "14", "--seed", "0",
                                  "--search", "--n", "5", "--attempts", "1",
                                  "--out", str(tmp_path / "phi.bin")])
    assert code == 1 and rep["verdict"] == "Refuted"
    assert rep["search"]["certifiable"] is False
    assert rep["search"]["anneal_steps"] == 0
    assert "every tournament on 14 vertices" in rep["note"]


def test_gen_coloring_search_report_has_no_note_when_certifiable(
        capsys, tmp_path):
    code, rep = run_json(capsys, ["gen-coloring", "--bits", "12", "--seed", "0",
                                  "--search", "--n", "5", "--out",
                                  str(tmp_path / "phi.bin")])
    assert code == 0 and rep["search"]["certifiable"] is True
    assert "note" not in rep
    assert (rep["search"]["anneal_steps"],
            rep["search"]["anneal_accepted"]) == (36129, 5983)


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["alpha", "--bits", "4"]) == 2
    capsys.readouterr()
    assert main(["verify-coloring", "--coloring", "/nonexistent", "--n", "5"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["independent", "--bits", "4", "--seed", "1",
                 "--vertices", "1,two,3"]) == 2
    capsys.readouterr()
    # refusal on an infeasible exact computation is also usage-class
    assert main(["alpha", "--bits", "40", "--seed", "0",
                 "--budget", "1000"]) == 2
    assert "state budget 1000" in capsys.readouterr().err
    bad = tmp_path / "garbage.bin"
    bad.write_bytes(b"not a coloring file")
    assert main(["verify-coloring", "--coloring", str(bad), "--n", "5"]) == 2
    capsys.readouterr()


def test_bits_coloring_mismatch_is_usage_error(capsys, certified12_file):
    code, out, err = run_raw(capsys, ["alpha", "--bits", "10",
                                      "--coloring", certified12_file])
    assert code == 2
    assert "disagrees" in err


def test_env_threads_default(capsys, monkeypatch):
    monkeypatch.setenv("STEPUP_THREADS", "2")
    code, rep = run_json(capsys, ["check-k5", "--bits", "4", "--seed", "1"])
    assert code == 0 and rep["config"]["threads"] == 2
    monkeypatch.setenv("STEPUP_THREADS", "banana")
    code, out, err = run_raw(capsys, ["check-k5", "--bits", "4", "--seed", "1"])
    assert code == 2 and "STEPUP_THREADS" in err


def test_reports_reproduce_modulo_timings(capsys, certified12_file, tmp_path):
    qpath = tmp_path / "q.bin"
    save_q(random_subset(12, 2000, seed=4), 12, qpath)
    argvs = [
        ["check-k5", "--bits", "4", "--seed", "1"],
        ["verify-coloring", "--coloring", certified12_file, "--n", "5"],
        ["extract-witness", "--coloring", certified12_file, "--n", "5",
         "--q-file", str(qpath)],
        ["steiner", "--n", "30", "--seed", "2"],
        ["alpha", "--bits", "5", "--seed", "2"],
    ]
    for argv in argvs:
        code1, rep1 = run_json(capsys, argv)
        code2, rep2 = run_json(capsys, argv)
        rep1.pop("timings")
        rep2.pop("timings")
        assert code1 == code2 and rep1 == rep2, argv


def test_report_file_matches_stdout(capsys, certified12_file, tmp_path):
    # every subcommand but bench (CSV on stdout), and both outcomes: the
    # report file holds stdout's bytes, the standard indented encoding
    qpath = tmp_path / "q.bin"
    save_q(random_subset(12, 20, seed=5), 12, qpath)
    extract = ["extract-witness", "--coloring", certified12_file, "--n", "5"]
    argvs = [
        ["gen-coloring", "--bits", "8", "--seed", "3",
         "--out", str(tmp_path / "g.bin")],
        ["gen-coloring", "--bits", "16", "--seed", "0", "--search", "--n", "5",
         "--attempts", "1", "--out", str(tmp_path / "s.bin")],
        ["verify-coloring", "--coloring", certified12_file, "--n", "5"],
        ["verify-coloring", "--bits", "10", "--seed", "1", "--n", "5",
         "--samples", "100"],
        ["check-k5", "--bits", "3", "--all-colorings"],
        ["check-k5", "--bits", "7", "--seed", "1"],
        ["alpha", "--bits", "12", "--seed", "0"],
        ["independent", "--bits", "5", "--seed", "2", "--vertices", "0,1,2,3"],
        ["independent", "--coloring", certified12_file, "--q-file", str(qpath)],
        extract + ["--q-seed", "4", "--q-size", "2000", "--check-star"],
        extract + ["--q-seed", "1", "--q-size", "2000", "--check-star"],
        extract + ["--q-file", str(qpath)],
        ["extract-witness", "--bits", "12", "--seed", "1", "--n", "5",
         "--q-seed", "3", "--q-size", "30"],
        ["steiner", "--n", "20", "--seed", "3"],
        ["bound", "--bits", "10", "--n", "5", "--cprime", "0.08"],
    ]
    report = tmp_path / "report.json"
    codes = set()
    for argv in argvs:
        code, out, err = run_raw(capsys, argv + ["--report", str(report)])
        codes.add(code)
        assert err == "" and report.read_bytes() == out.encode(), argv
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n", argv
    assert codes == {0, 1}


# Values paired with their plain copies: what the standard encoder is
# given once numpy values, tuples and other objects are converted.
def _same(strategy):
    return strategy.map(lambda v: (v, v))


_SCALARS = st.one_of(
    _same(st.none()), _same(st.booleans()), _same(st.integers(-2 ** 70, 2 ** 70)),
    _same(st.floats()), _same(st.text(max_size=6)),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(lambda v: (np.int64(v), v)),
    st.integers(0, 255).map(lambda v: (np.uint8(v), v)),
    st.floats().map(lambda v: (np.float64(v), v)),
    st.floats(width=32).map(lambda v: (np.float32(v), float(np.float32(v)))),
    st.booleans().map(lambda v: (np.bool_(v), str(v))),
    st.fractions().map(lambda v: (v, str(v))),
    st.lists(st.integers(-2 ** 31, 2 ** 31), max_size=4).map(
        lambda v: (np.array(v, dtype=np.int64), v)),
    st.lists(st.booleans(), max_size=4).map(
        lambda v: (np.array(v, dtype=bool), v)),
    st.lists(st.floats(), max_size=4).map(
        lambda v: (np.array(v, dtype=np.float64), v)),
    st.lists(st.integers(-9, 9), max_size=3).map(
        lambda v: (np.array([v, v], dtype=np.int16), [v, v])),
)
_KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                  st.none(), st.floats(width=16))


def _as_dict(pairs):
    # keys equal as Python values (1, 1.0, True) share one entry; of keys
    # with the same str, the last one's value is kept
    value, plain_of = {}, {}
    for key, (v, p) in pairs:
        value[key] = v
        plain_of[key] = p
    return value, {str(k): plain_of[k] for k in value}


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(
            lambda kids: ([v for v, _ in kids], [p for _, p in kids])),
        st.lists(children, max_size=4).map(
            lambda kids: (tuple(v for v, _ in kids), [p for _, p in kids])),
        st.lists(st.tuples(_KEYS, children), max_size=4).map(_as_dict),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=24))
def test_encoder_writes_what_json_dumps_writes_for_a_plain_copy(pair):
    value, plain = pair
    assert cli._encode(value) == json.dumps(plain, indent=2, sort_keys=True)


def test_encoder_edge_values():
    value = {"b": True, "i": 1, "n": np.int8(1), "f": np.float32(0.1),
             "x": [float("nan"), float("inf"), -float("inf"), -0.0],
             "s": "é☃\n\"/", "e": [[], {}, ()], 2: (None,),
             "2": "kept", "a": np.array([[1, 2], [3, 4]], dtype=np.uint8)}
    assert cli._encode(value) == "\n".join([
        '{', '  "2": "kept",',
        '  "a": [', '    [', '      1,', '      2', '    ],',
        '    [', '      3,', '      4', '    ]', '  ],',
        '  "b": true,', '  "e": [', '    [],', '    {},', '    []', '  ],',
        '  "f": 0.10000000149011612,', '  "i": 1,', '  "n": 1,',
        '  "s": "\\u00e9\\u2603\\n\\"/",',
        '  "x": [', '    NaN,', '    Infinity,', '    -Infinity,', '    -0.0',
        '  ]', '}'])


def test_directory_as_coloring_file_exits_two(capsys, tmp_path):
    for argv in (["alpha", "--coloring", str(tmp_path)],
                 ["verify-coloring", "--coloring", str(tmp_path), "--n", "5"]):
        code, out, err = run_raw(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path}: "), argv


def test_directory_as_q_file_exits_two(capsys, tmp_path):
    for argv in (["extract-witness", "--bits", "12", "--seed", "1", "--n", "5",
                  "--q-file", str(tmp_path)],
                 ["independent", "--bits", "4", "--seed", "1",
                  "--q-file", str(tmp_path)]):
        code, out, err = run_raw(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path}: "), argv


def test_unwritable_report_file_exits_two_with_empty_stdout(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "r.json"
    code, out, err = run_raw(capsys, ["steiner", "--n", "20", "--seed", "3",
                                      "--report", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_witness_outside_q_is_a_proof_gap_trap(capsys, certified12_file,
                                               tmp_path, monkeypatch):
    # the extractor is made to return an edge of a larger Q: the witness
    # vertex 767 is missing from the Q given on the command line
    full = random_subset(12, 2000, seed=4)
    qpath = tmp_path / "q.bin"
    save_q(full[full != 767], 12, qpath)
    monkeypatch.setattr(cli, "extract_with_layers",
                        lambda H, q, n: extract_with_layers(H, full, n))
    argv = ["extract-witness", "--coloring", certified12_file, "--n", "5",
            "--q-file", str(qpath)]
    code, out, err = run_raw(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ProofGapTrap: ")
    assert "[767, 895, 896, 1025]" in err and "|Q| = 1999" in err
    with pytest.raises(ProofGapTrap) as info:
        cli._cmd_extract_witness(cli.build_parser().parse_args(argv))
    assert info.value.trace == {"vertices": [767, 895, 896, 1025],
                                "q_size": 1999, "is_edge": True,
                                "in_q": False}


def test_main_calls_share_one_parser(capsys, tmp_path, monkeypatch):
    report = tmp_path / "report.json"
    steiner = ["steiner", "--n", "20", "--seed", "3"]
    bound = ["bound", "--bits", "10", "--n", "5", "--cprime", "0.08"]

    def lone_config(argv):
        cli.build_parser.cache_clear()
        code, rep = run_json(capsys, argv)
        assert code == 0
        return rep["config"]

    steiner_config = lone_config(steiner + ["--report",
                                            str(tmp_path / "lone.json")])
    assert lone_config(steiner) == steiner_config
    bound_config = lone_config(bound)

    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()

    code, out, _ = run_raw(capsys, steiner + ["--report", str(report)])
    assert code == 0 and json.loads(out)["config"] == steiner_config
    assert report.read_text() == out
    report.unlink()
    code, out, err = run_raw(capsys, ["frobnicate"])
    assert code == 2 and out == "" and "frobnicate" in err
    code, rep = run_json(capsys, bound)
    assert code == 0 and rep["config"] == bound_config
    code, rep = run_json(capsys, steiner)
    assert code == 0 and rep["config"] == steiner_config
    assert not report.exists()
    assert made.count("stepup") == 1 and len(made) == len(set(made))


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
