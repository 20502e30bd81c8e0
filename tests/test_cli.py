"""Smoke and behavior tests for :mod:`repro.cli`.

Each command is exercised through :func:`repro.cli.main` with CPU-cheap
arguments, asserting on exit codes and the shape of the printed artifact
(not exact numbers — those belong to the benchmark suite).
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.cli._command import make_workload
from repro.cli.train_cmd import blas_threads_note, parse_techniques


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestParser:
    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "command" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_every_command_registered_once(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        names = list(sub.choices)
        assert len(names) == len(set(names))
        assert {"info", "delays", "theory", "train", "table2", "table3"} <= set(names)


class TestInfo:
    def test_lists_every_paper_artifact(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        for artifact in ("Table 1", "Table 2", "Table 3", "Figure 3b", "Lemmas 1-3"):
            assert artifact in out


class TestDelays:
    def test_table1_rows_for_all_methods(self, capsys):
        code, out = run_cli(capsys, "delays", "-p", "8", "-n", "4")
        assert code == 0
        for m in ("gpipe", "pipedream", "pipemare"):
            assert m in out

    def test_first_stage_delay_value(self, capsys):
        # τ_fwd = (2(P-1)+1)/N = 15/4 = 3.75 for P=8, N=4, stage 1
        _, out = run_cli(capsys, "delays", "-p", "8", "-n", "4")
        assert "3.750" in out

    def test_per_stage_table(self, capsys):
        code, out = run_cli(capsys, "delays", "-p", "4", "-n", "2", "--per-stage")
        assert code == 0
        assert "per-stage delays" in out
        # last stage: (2(P-P)+1)/N = 0.5
        assert "0.500" in out

    def test_invalid_shape_rejected(self, capsys):
        code, _ = run_cli(capsys, "delays", "-p", "0")
        assert code == 2


class TestTheory:
    def test_lemma1_threshold_matches_closed_form(self, capsys):
        code, out = run_cli(capsys, "theory", "--tau", "10")
        assert code == 0
        assert "0.14946" in out  # (2/1)sin(pi/42)

    def test_momentum_and_discrepancy_rows(self, capsys):
        code, out = run_cli(
            capsys, "theory", "--tau", "10", "--tau-bkwd", "6",
            "--delta", "5", "--beta", "0.9", "--decay", "0.135",
        )
        assert code == 0
        assert "Lemma 3" in out
        assert "Lemma 2" in out
        assert "T2-corrected" in out

    def test_t2_enlarges_stable_range(self, capsys):
        # Figure 5(b): with Δ>0 the corrected threshold beats uncorrected.
        _, out = run_cli(
            capsys, "theory", "--tau", "10", "--tau-bkwd", "6",
            "--delta", "5", "--decay", "0.135",
        )
        lines = [l for l in out.splitlines() if l.startswith(("Lemma 2", "T2-corrected"))]
        uncorrected = float(lines[0].split()[-1])
        corrected = float(lines[1].split()[-1])
        assert corrected > uncorrected

    def test_invalid_tau_rejected(self, capsys):
        code, _ = run_cli(capsys, "theory", "--tau", "0")
        assert code == 2

    def test_invalid_lam_rejected(self, capsys):
        code, _ = run_cli(capsys, "theory", "--tau", "5", "--lam", "-1")
        assert code == 2


class TestQuadratic:
    def test_divergence_labelled(self, capsys):
        # α=1.0 at τ=10 has spectral radius ≈1.14: hits the divergence cap
        # within ~600 steps, so the series is labelled as diverged.
        code, out = run_cli(
            capsys, "quadratic", "--taus", "0", "10", "--alpha", "1.0",
            "--steps", "700",
        )
        assert code == 0
        assert "τ=10 (diverged)" in out
        assert "τ=0" in out

    def test_discrepancy_mode(self, capsys):
        code, out = run_cli(
            capsys, "quadratic", "--taus", "6", "10", "--alpha", "0.05",
            "--delta", "5", "--steps", "100",
        )
        assert code == 0
        assert "Figure 5(a)" in out
        assert "τb=6" in out

    def test_bad_alpha_rejected(self, capsys):
        code, _ = run_cli(capsys, "quadratic", "--alpha", "-1")
        assert code == 2


class TestHeatmap:
    def test_small_grid_renders_with_boundary(self, capsys):
        code, out = run_cli(
            capsys, "heatmap", "--steps", "60", "--alpha-range", "-6", "-2",
            "--tau-max-pow", "2",
        )
        assert code == 0
        assert "Figure 3(b)" in out
        assert "Lemma 1 boundary" in out
        assert "τ=16" in out

    def test_bad_range_rejected(self, capsys):
        code, _ = run_cli(capsys, "heatmap", "--alpha-range", "-2", "-6")
        assert code == 2


class TestTrainCmd:
    def test_short_pipemare_run(self, capsys):
        code, out = run_cli(
            capsys, "train", "--workload", "cifar", "--epochs", "1",
            "--techniques", "t1,t2", "--stages", "6",
        )
        assert code == 0
        assert "best test_accuracy" in out

    def test_plot_flag(self, capsys):
        code, out = run_cli(
            capsys, "train", "--workload", "cifar", "--epochs", "1",
            "--stages", "6", "--plot",
        )
        assert code == 0
        assert "epoch" in out

    def test_gpipe_ignores_techniques(self, capsys):
        code, out = run_cli(
            capsys, "train", "--workload", "cifar", "--epochs", "1",
            "--method", "gpipe", "--stages", "6",
        )
        assert code == 0
        assert "config=synchronous" in out

    def test_unknown_technique_rejected(self, capsys):
        code, out = run_cli(
            capsys, "train", "--techniques", "t9", "--epochs", "1",
        )
        assert code == 2
        assert "unknown technique" in out

    def test_granularity_and_partition_flags(self, capsys):
        code, out = run_cli(
            capsys, "train", "--workload", "cifar", "--epochs", "1",
            "--stages", "6", "--runtime", "async",
            "--granularity", "sublayer", "--partition", "auto",
        )
        assert code == 0
        assert "granularity=sublayer" in out
        assert "partition=auto" in out
        assert "best test_accuracy" in out


class TestBlasThreadsNote:
    """Concurrent runtime + unpinned BLAS + more than one core ⇒ one stderr
    line; any other combination says nothing."""

    def test_note_names_the_runtime_and_the_fix(self):
        note = blas_threads_note("process", {}, cores=4)
        assert "--runtime process" in note
        assert "OPENBLAS_NUM_THREADS=1" in note
        assert "\n" not in note

    @pytest.mark.parametrize("runtime", ["async", "process", "socket"])
    def test_every_concurrent_runtime_is_covered(self, runtime):
        assert blas_threads_note(runtime, {}, cores=2) is not None

    @pytest.mark.parametrize(
        "runtime, environ, cores",
        [
            ("simulator", {}, 8),
            ("process", {}, 1),
            ("process", {"OMP_NUM_THREADS": "1"}, 8),
            ("async", {"OPENBLAS_NUM_THREADS": "2"}, 8),
            ("socket", {"MKL_NUM_THREADS": "1"}, 8),
        ],
    )
    def test_absent(self, runtime, environ, cores):
        assert blas_threads_note(runtime, environ, cores) is None

    def test_train_prints_it_on_stderr_only(self, capsys, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr("repro.cli.train_cmd._usable_cores", lambda: 4)
        argv = ["train", "--workload", "cifar", "--epochs", "1", "--stages", "6"]
        assert main(argv + ["--runtime", "async"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("note: --runtime async") == 1
        assert "note:" not in captured.out
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert main(argv + ["--runtime", "async"]) == 0
        assert "note:" not in capsys.readouterr().err


class TestInfoPartitionTable:
    def test_partition_table_renders(self, capsys):
        code, out = run_cli(
            capsys, "info", "--partition-table", "--workload", "iwslt",
            "--stages", "12", "--granularity", "sublayer",
            "--partition", "auto",
        )
        assert code == 0
        assert "granularity=sublayer" in out
        assert "cost share" in out
        assert "imbalance" in out
        # sublayer slicing: more workers than encoder+decoder layers
        workers = int(out.split("workers=")[1].split()[0])
        assert workers > 4

    def test_stages_flag_implies_table(self, capsys):
        code, out = run_cli(capsys, "info", "--workload", "cifar", "--stages", "4")
        assert code == 0
        assert "partition: workload=cifar" in out

    def test_too_many_stages_unified_error(self, capsys):
        with pytest.raises(ValueError, match="cannot split ResNet into 999"):
            run_cli(capsys, "info", "--workload", "cifar", "--stages", "999")


class TestParseTechniques:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_workload("cifar")

    def test_none_is_naive_async(self, workload):
        cfg = parse_techniques("none", workload, 0)
        assert not (cfg.use_t1 or cfg.use_t2 or cfg.use_t3)

    def test_t3_sets_warmup_steps(self, workload):
        cfg = parse_techniques("t1,t2,t3", workload, 2)
        assert cfg.use_t3
        assert cfg.warmup_steps == 2 * workload.steps_per_epoch

    def test_none_with_others_rejected(self, workload):
        with pytest.raises(ValueError):
            parse_techniques("none,t1", workload, 0)

    def test_whitespace_tolerated(self, workload):
        cfg = parse_techniques(" t1 , t2 ", workload, 0)
        assert cfg.use_t1 and cfg.use_t2


class TestSweep:
    def test_analytic_sweep_fast(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--analytic-only", "--stage-counts", "4", "8",
            "--plot",
        )
        assert code == 0
        assert "Figure 2/15" in out
        assert "throughput vs stage count" in out


class TestRecompute:
    def test_tables_and_asymptotics(self, capsys):
        code, out = run_cli(capsys, "recompute", "-p", "16", "-n", "4")
        assert code == 0
        assert "Tables 4/5" in out
        assert "asymptotics" in out

    def test_figure6_bars(self, capsys):
        code, out = run_cli(
            capsys, "recompute", "-p", "16", "-n", "4", "--stages-detail",
        )
        assert code == 0
        assert "Figure 6" in out
        assert "stage 15" in out

    def test_bad_segment_rejected(self, capsys):
        code, _ = run_cli(capsys, "recompute", "-p", "8", "--segment", "99")
        assert code == 2


class TestTables:
    def test_table3_one_epoch(self, capsys):
        code, out = run_cli(
            capsys, "table3", "--workload", "cifar", "--epochs", "1",
            "--stages", "6", "--curves",
        )
        assert code == 0
        assert "Table 3" in out
        assert "t1+t2" in out
        assert "eval-metric curves" in out


class TestSchedule:
    def test_three_panels_with_bubble_fractions(self, capsys):
        code, out = run_cli(capsys, "schedule", "-p", "4", "-n", "3")
        assert code == 0
        for marker in ("(a) Throughput-poor", "(b) Memory-hungry", "(c) PipeMare"):
            assert marker in out
        assert out.count("bubble fraction") == 3

    def test_gpipe_has_bubbles_others_do_not(self, capsys):
        _, out = run_cli(
            capsys, "schedule", "-p", "4", "-n", "3", "--minibatches", "8",
        )
        fracs = [
            float(line.split()[2])
            for line in out.splitlines()
            if line.startswith("bubble fraction")
        ]
        gpipe, pipedream, pipemare = fracs
        assert gpipe > pipedream
        assert pipedream == pipemare  # same 1F1B occupancy, different memory

    def test_memory_column_shows_stash(self, capsys):
        _, out = run_cli(capsys, "schedule", "-p", "4", "-n", "2")
        # PipeDream: 1 + P/N = 3x; the other two stay at 1x
        assert "weight copies: 3.00x" in out
        assert out.count("weight copies: 1.00x") == 2

    def test_invalid_shape_rejected(self, capsys):
        code, _ = run_cli(capsys, "schedule", "-p", "0")
        assert code == 2
