"""The omega-sim experiment registry: what it derives must match what
the hand-kept lists it replaced said, so old checkpoints resume, old
plots render identically and the same commands fan out with --jobs."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.cli import COMMANDS, build_parser, main, render_plot

#: The commands that took --jobs (and --checkpoint) before the registry,
#: plus the hifi sweeps fig11-13, whose drivers now go through run_sweep.
JOBS_COMMANDS = {
    "fig5a", "fig5b", "fig5c", "partitioned", "fig7", "fig8", "fig9",
    "omega", "fig10", "fig11", "fig12", "fig13", "fig14",
    "ablation-offer", "ablation-retry",
    "ablation-util", "ablation-preemption", "ablation-backoff",
    "ablation-placement", "resilience", "conflict-avoidance", "federation",
}

#: Manifest parameters, in order, as the hand-written
#: _manifest_parameters recorded them.
MANIFESTS = [
    (["fig8"], [("scale", 0.25), ("hours", 2.0)]),
    (
        ["fig8", "--scale", "0.05", "--hours", "0.3", "--timeline-interval", "120"],
        [("scale", 0.05), ("hours", 0.3), ("timeline_interval", 120.0)],
    ),
    (["ablation-offer", "--jobs", "2"], [("scale", 0.25), ("hours", 2.0)]),
    (
        ["omega"],
        [("scale", 0.25), ("hours", 2.0), ("cluster", "B"), ("rate_factor", 1.0),
         ("smoke", False)],
    ),
    (
        ["omega", "--smoke", "--predictor", "--cluster", "A", "--rate-factor", "3"],
        [("scale", 0.25), ("hours", 2.0), ("cluster", "A"), ("rate_factor", 3.0),
         ("smoke", True), ("predictor", True)],
    ),
    (
        ["resilience"],
        [("scale", 0.25), ("hours", 2.0), ("intensities", "0.0,1.0,3.0,10.0"),
         ("policy", "immediate"), ("smoke", False)],
    ),
    (
        ["resilience", "--smoke", "--predictor", "--policy", "backoff",
         "--intensities", "0,2"],
        [("scale", 0.25), ("hours", 2.0), ("intensities", "0,2"),
         ("policy", "backoff"), ("smoke", True), ("predictor", True)],
    ),
    (
        ["conflict-avoidance"],
        [("scale", 0.25), ("hours", 2.0), ("factors", "4.0,8.0"),
         ("intensities", "0.0,5.0"), ("smoke", False)],
    ),
    (
        ["conflict-avoidance", "--smoke", "--factors", "2,6"],
        [("scale", 0.25), ("hours", 2.0), ("factors", "2,6"),
         ("intensities", "0.0,5.0"), ("smoke", True)],
    ),
    (
        ["federation"],
        [("scale", 0.25), ("hours", 2.0), ("cells", "1,2,4"),
         ("staleness", "0.0,60.0"), ("intensities", "0.0,1.0,3.0"),
         ("policy", "least-loaded"), ("smoke", False), ("degenerate_gate", False)],
    ),
    (
        ["federation", "--smoke"],
        [("scale", 0.25), ("hours", 2.0), ("cells", "1,2,4"),
         ("staleness", "0.0,60.0"), ("intensities", "0.0,1.0,3.0"),
         ("policy", "least-loaded"), ("smoke", True), ("degenerate_gate", False)],
    ),
    (
        ["federation", "--degenerate-gate", "--cells", "1", "--policy", "round-robin"],
        [("scale", 0.25), ("hours", 2.0), ("cells", "1"),
         ("staleness", "0.0,60.0"), ("intensities", "0.0,1.0,3.0"),
         ("policy", "round-robin"), ("smoke", False), ("degenerate_gate", True)],
    ),
]

#: The --plot specs of the former PLOTS table.
PLOTS = {
    "fig5a": ("cluster", "t_job_service", "wait_batch", True, True,
              "Figure 5a: mean batch wait vs t_job (single-path)"),
    "fig5b": ("cluster", "t_job_service", "wait_batch", True, True,
              "Figure 5b: mean batch wait vs t_job(service) (multi-path)"),
    "fig5c": ("cluster", "t_job_service", "wait_batch", True, True,
              "Figure 5c: mean batch wait vs t_job(service) (shared state)"),
    "fig7": ("cluster", "t_job_service", "busy_batch", True, False,
             "Figure 7b: batch framework busyness vs t_job(service) (Mesos)"),
    "fig8": ("cluster", "rate_factor", "busy_batch", False, False,
             "Figure 8b: batch busyness vs relative lambda(batch)"),
    "fig9": ("num_batch_schedulers", "rate_factor", "conflict_batch", False, False,
             "Figure 9a: conflict fraction vs relative lambda(batch)"),
    "fig12": (None, "t_job_service", "conflict_service", True, False,
              "Figure 12b: service conflict fraction vs t_job(service)"),
    "fig14": ("mode", "t_job_service", "conflict_service", True, True,
              "Figure 14a: conflict fraction by detection/commit mode"),
    "ablation-util": (None, "initial_utilization", "conflict_batch", False, False,
                      "Conflict fraction vs standing utilization"),
    "ablation-backoff": (None, "cooldown_s", "conflict_batch", False, False,
                         "Conflict fraction vs hot-machine backoff window"),
    "resilience": ("architecture", "intensity", "wait_batch", False, False,
                   "Resilience: mean batch wait vs fault intensity"),
    "federation": ("cells", "intensity", "wait_batch", False, False,
                   "Federation: mean batch wait vs cell-fault intensity"),
}

#: SHA-256 of the chart the former render_plot drew from plot_rows().
CHARTS = {
    "fig5a": "7a61d376d5ed131c872bdfb27167e1e59b8ddfc007cf4eb450ca6be3de2a9c60",
    "fig5b": "5bbaee6b1afb8b7bb7f58cc43e5a44a38ce1127abdbcc711a930d39f532ba30b",
    "fig5c": "9a5f0a901764602f4437669e30420fae38c1e555bbb086fe6d5706b5fbd03aeb",
    "fig7": "0120d9638fdaa71885bb1eb0c878bf41714e1df56a79b6b4f8061d7d720ff6db",
    "fig8": "dc7346fd71b490fa15979f5757757d630478279c4bd66584b437d07290ca9022",
    "fig9": "256de1c61fbefc40a307499aaef8973912f208e61b0ab581fcf5bed1181b8959",
    "fig12": "5abf1bed03400bc150aa744b4e9cc7577c02f20f0f6233a2805f2418029cabc0",
    "fig14": "0d84e709b08fde093b93a2bc68de6b9d5d11d81be9b772e5695491a7d6f8da26",
    "ablation-util": "33928ce86472cc6342454bbbb6c525f7f7ac5281fc0feaf45f58df1cdbd2c476",
    "ablation-backoff": "6ba96a2894fb59aca8991621ebd74419b9845e17b4413349cf903c972aa8fd4d",
    "resilience": "d3c668f77e0733ee63e939d9ae5cecce60978b336e8451d0c2f24109ab42e267",
    "federation": "610ab692c369a4d3e6674873c3870538c94037f3833eff3314d50b9a767a93e6",
}


def plot_rows(series, x, y):
    """Two series of three points over the columns a chart reads."""
    rows = []
    for index, label in enumerate(("A", "B")):
        for step, value in enumerate((1.0, 10.0, 100.0)):
            row = {x: value, y: 0.01 * (index + 1) * (step + 1)}
            if series:
                row[series] = label
            rows.append(row)
    return rows


class TestDerivedFromRegistry:
    def test_jobs_commands_are_the_drivers_taking_jobs(self):
        assert {name for name, entry in COMMANDS.items() if entry.parallel} == (
            JOBS_COMMANDS
        )

    def test_only_jobs_commands_checkpoint(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert hasattr(args, "checkpoint") == (name in JOBS_COMMANDS), name

    @pytest.mark.parametrize("argv,expected", MANIFESTS)
    def test_manifest_parameters_unchanged(self, argv, expected):
        args = build_parser().parse_args(argv)
        assert list(cli._manifest_parameters(args).items()) == expected

    def test_plot_specs_unchanged(self):
        plotted = {name: entry.plot for name, entry in COMMANDS.items() if entry.plot}
        assert plotted == PLOTS

    @pytest.mark.parametrize("name", sorted(PLOTS))
    def test_render_plot_unchanged(self, name):
        chart = render_plot(name, plot_rows(*PLOTS[name][:3]))
        assert hashlib.sha256(chart.encode()).hexdigest() == CHARTS[name]

    def test_gate_experiments(self):
        assert cli.GATE_EXPERIMENTS == (
            "fig5c", "fig8", "omega", "fig14", "resilience",
            "conflict-avoidance", "federation",
        )

    def test_options_and_small_variants_reach_their_drivers(self):
        for name, entry in COMMANDS.items():
            for option in entry.options:
                if option.dest == "smoke":
                    assert entry.small is not None, name
                elif option.runs is None:
                    assert (option.kwarg or option.dest) in entry.parameters, (
                        name, option.flag,
                    )
            for key in entry.small or {}:
                assert key in entry.parameters, (name, key)


class TestOutputEnvelope:
    """--output records the run's parameters, the manifest's plus seed."""

    def test_smoke_and_options_recorded(self, tmp_path, capsys):
        out = tmp_path / "omega.json"
        assert main(["omega", "--smoke", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["parameters"] == {
            "scale": 0.25, "hours": 2.0, "cluster": "B", "rate_factor": 1.0,
            "smoke": True, "seed": 0,
        }

    def test_samples_recorded(self, tmp_path, capsys):
        out = tmp_path / "fig2.json"
        assert main(["fig2", "--samples", "1000", "--seed", "4",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["parameters"] == {
            "scale": 0.25, "hours": 2.0, "samples": 1000, "seed": 4,
        }


class TestSeed:
    @pytest.mark.parametrize(
        "command", ["ablation-retry", "ablation-util", "ablation-placement",
                    "ablation-backoff"],
    )
    def test_seed_changes_the_rows(self, command, capsys):
        tables = []
        for seed in ("0", "7"):
            assert main([command, "--scale", "0.05", "--hours", "0.1",
                         "--seed", seed]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] != tables[1]


def test_degenerate_gate_failure_exits_one(monkeypatch, capsys):
    from repro.experiments import federation

    single_run_rows = federation.single_run_rows

    def perturbed(**kwargs):
        rows = single_run_rows(**kwargs)
        rows[0]["wait_batch"] += 1.0
        return rows

    monkeypatch.setattr(federation, "single_run_rows", perturbed)
    assert main(["federation", "--degenerate-gate", "--scale", "0.05",
                 "--hours", "0.2"]) == 1
    assert "degenerate-baseline gate failed" in capsys.readouterr().err


def test_performance_doc_lists_the_jobs_commands():
    doc = Path(__file__).parents[2] / "docs" / "PERFORMANCE.md"
    assert jobs_sentence() in doc.read_text(), (
        "docs/PERFORMANCE.md section 1 must list the --jobs commands:\n"
        + jobs_sentence()
    )


def jobs_sentence() -> str:
    """The --jobs command list of docs/PERFORMANCE.md, from the registry."""
    names = [f"`{name}`" for name, entry in COMMANDS.items() if entry.parallel]
    return (
        "Supported commands (the drivers that take `jobs`): "
        + ", ".join(names)
        + "."
    )


class TestDeterminismGate:
    def test_no_experiment_gates_every_registered_one(self, capsys):
        from repro.analysis.determinism import main as gate

        assert gate(["--scale", "0.02", "--hours", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(cli.GATE_EXPERIMENTS)
        assert all(line.endswith("-> IDENTICAL") for line in lines)

    def test_kill_resume_needs_one_experiment(self, capsys):
        from repro.analysis.determinism import main as gate

        with pytest.raises(SystemExit) as exit_info:
            gate(["--kill-resume"])
        assert exit_info.value.code == 2
        assert "exactly one --experiment" in capsys.readouterr().err
