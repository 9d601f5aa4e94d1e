import csv
import dataclasses
import hashlib
import io
import json
import os
import threading

import numpy as np
import pytest

from dpdist import cli, experiments
from dpdist.cli import main, parse_config_file, render_csv, run_experiment
from dpdist.experiments import EXPERIMENTS, ExperimentConfig, run_rows
from dpdist.seeding import derive_rng


# sha256 of each experiment's CSV at the small sizes below, seed 3
# (recorded with numpy 2.4.6 and scipy 1.17.1)
SMALL_CSV_SHA256 = {
    "chernoff-tail": "f90588c970e664c732b579c76fa3cb15d338f4ebd6eabd264ea6e1f195e1ba88",
    "compile-to-local": "c8c5ae131988fe58055114b1be770f6a6487e5bd4e6589ff382353b1b6499f9d",
    "definition-equivalence": "b969354de2dd611285be06523e65c57cd045024a40120b05e6f603b6b7223e8c",
    "dist-alpha": "1b1ac9492eea888400736f2a4538280accb77ae71b43e33bc9aae38ee2f6c473",
    "gaussian-aggregator": "1a31f9128a4c2fb47ad1e9399e3c82e9126945c6fec4d26de89271606256c06c",
    "hoeffding-tail": "6e38808a513c9fcac78f44720b4d477aff36209277d0aaca0ac06f47b64e06de",
    "laplace-tails": "f593da076fa1646ebd926610d7bd04146cc243db8fef35749cbd82965e13aa7f",
    "lonely-parties": "550db62571c8554dc93b3d1f678793a893a267a00a48e64857816c41d747a022",
    "message-accounting": "616fdbabebc8b15898cbae0410f2f1473b65d61398aa7768c868e35e0f7a8e05",
    "phase-transition": "04ee759a76923689dac5bf6a3fe6cc9b3ae4df3352f640631e7b215c12e0ed7d",
    "rr-distributed": "069b2afe8e7fe528270fb8d4862be15c3e0902adacdf5007d9f10f436e193f5b",
    "rr-exact-epsilon": "5491782a60eed30a317753fd9d78bd7b8559bb17a60cbc53f437aea919547fe3",
    "rr-sum-error": "44ba718bb5f682dfedda8ac9e211ec013d9723275c854f492d92e7ea92a08f08",
    "symmetry": "1459807aeb8d2ed7a37100c85164f7405e30014df3edebbd3ab3639a86b5cc5c",
    "transcript-factorization": "caa2dd94863ddd035740e4c05c564ec8505b3262e990e56221f7c22aebbb101b",
    "v-bounds": "d4c25596494a6ab023447f559831d328becc0c6cd7691f057fe4995daf70fca7",
}


class TestRegistry:
    def test_expected_names_present(self):
        for name in (
            "rr-sum-error",
            "hoeffding-tail",
            "compile-to-local",
            "phase-transition",
            "dist-alpha",
            "gaussian-aggregator",
            "message-accounting",
        ):
            assert name in EXPERIMENTS

    def test_listing_shows_what_each_reproduces(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rr-sum-error" in out
        assert "hoeffding-tail" in out
        assert "compile-to-local" in out
        assert "reproduces:" in out

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_runs_small(self, name):
        small = {
            "rr-sum-error": dict(n=100, trials=50),
            "rr-exact-epsilon": dict(),
            "laplace-tails": dict(trials=2000),
            "v-bounds": dict(n=400, trials=2000),
            "hoeffding-tail": dict(n=400, trials=2000),
            "chernoff-tail": dict(n=400, trials=2000),
            "phase-transition": dict(n=400, trials=200),
            "compile-to-local": dict(),
            "lonely-parties": dict(trials=5),
            "transcript-factorization": dict(),
            "dist-alpha": dict(n=256, t=3, trials=20),
            "gaussian-aggregator": dict(n=100, trials=100),
            "symmetry": dict(n=50, trials=2000),
            "definition-equivalence": dict(),
            "message-accounting": dict(),
            "rr-distributed": dict(n=8, trials=1000),
        }[name]
        cfg = ExperimentConfig(experiment=name, seed=3, **small)
        params, rows = run_rows(cfg)
        assert rows, "experiment produced no rows"
        text = render_csv(name, params, rows)
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert header == ["experiment", "trial", "param_json", "metric", "value"]
        first = next(reader)
        assert first[0] == name
        json.loads(first[2])  # param snapshot is valid json
        float(first[4])
        assert hashlib.sha256(text.encode()).hexdigest() == SMALL_CSV_SHA256[name]

    @pytest.mark.parametrize(
        "name, size, digest",
        [
            # benchmark sizes; each digest was recorded before the speed-up it pins
            # (per-run randomized_response_sum calls, the blockwise cumsum grid check, np.sum counts)
            #
            # the lean-trials size: eight chunks of randomized-response runs, the last partial
            (
                "symmetry",
                dict(n=100, trials=2500),
                "a393a6733509b191087d6b45874f4f9f16e4fef23ae6f259a52097b06adf90be",
            ),
            # two chunks of the local twin (4,096 runs each at n=16)
            (
                "rr-distributed",
                dict(n=16, trials=5000),
                "8830033a0e90be6dec4ce5c50279cef4d76ef83e21c536a5a8406a5c76135ae7",
            ),
            # dist-alpha and rr-sum-error at their lean-trials sizes
            (
                "dist-alpha",
                dict(n=4096, t=7, alpha_exp=0.75, trials=50),
                "ffe17ca52de0906b2a29b3fbddd3a18c501a04b4eb697085760faeb104ed7e9a",
            ),
            (
                "rr-sum-error",
                dict(n=10_000, trials=1000),
                "21b1792216d203f23afaf8bf73f4bd104c501e2c74e2ebb7b7a98e83089db24b",
            ),
        ],
    )
    def test_chunked_sizes_pinned(self, name, size, digest):
        params, rows = run_rows(ExperimentConfig(experiment=name, seed=3, **size))
        assert hashlib.sha256(render_csv(name, params, rows).encode()).hexdigest() == digest


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "run",
            "--experiment",
            "rr-sum-error",
            "--n",
            "10000",
            "--eps",
            "1",
            "--trials",
            "10000",
            "--seed",
            "7",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1.decode().count("\n") == 20_001  # header + 2 metrics/trial

    def test_different_seed_differs(self, tmp_path):
        cfg7 = ExperimentConfig(experiment="rr-sum-error", seed=7, n=50, trials=20)
        cfg8 = ExperimentConfig(experiment="rr-sum-error", seed=8, n=50, trials=20)
        assert run_experiment(cfg7) != run_experiment(cfg8)

    def test_trial_reproducible_in_isolation(self):
        cfg_full = ExperimentConfig(experiment="rr-sum-error", seed=5, n=200, trials=30)
        _, rows_full = run_rows(cfg_full)
        errors = {t: v for t, m, v in rows_full if m == "error"}
        # rerunning with fewer trials reproduces the same early trials
        cfg_short = ExperimentConfig(experiment="rr-sum-error", seed=5, n=200, trials=10)
        _, rows_short = run_rows(cfg_short)
        for t, m, v in rows_short:
            if m == "error":
                assert v == errors[t]


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# sweep base\n"
            "experiment = rr-sum-error\n"
            "n = 100\n"
            "trials = 10\n"
            "eps = 0.5\n"
        )
        parsed = parse_config_file(str(cfg))
        assert parsed == {"experiment": "rr-sum-error", "n": 100, "trials": 10, "eps": 0.5}
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(cfg), "--eps", "1.0", "--out", str(out)]) == 0
        row = out.read_text().split("\n")[1]
        assert '""eps"":1.0' in row or '"eps": 1.0' in row or '""eps"":1' in row

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        assert main(["run", "--config", str(cfg), "--experiment", "rr-sum-error"]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["run", "--config", str(cfg), "--experiment", "rr-sum-error"]) == 2


# One sample per ExperimentConfig field: (text on the command line or in a
# config file, the value it must parse to).
FIELD_SAMPLES = {
    "experiment": ("rr-sum-error", "rr-sum-error"),
    "seed": ("7", 7),
    "trials": ("5", 5),
    "n": ("12", 12),
    "eps": ("0.25", 0.25),
    "delta": ("0.01", 0.01),
    "t": ("3", 3),
    "tau": ("2.5", 2.5),
    "d": ("9.0", 9.0),
    "nu": ("64.5", 64.5),
    "alpha_exp": ("0.5", 0.5),
    "out": ("result.csv", "result.csv"),
}


class TestConfigSchema:
    @pytest.fixture
    def captured(self, monkeypatch):
        """Stub out the experiment run; collect the config main() resolved."""
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return ""

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        return seen

    def test_every_field_has_a_sample(self):
        assert set(FIELD_SAMPLES) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize("field", sorted(FIELD_SAMPLES))
    def test_field_accepted_as_flag(self, field, captured):
        text, value = FIELD_SAMPLES[field]
        flag = "--" + field.replace("_", "-")
        assert main(["run", "--experiment", "rr-sum-error", flag, text]) == 0
        assert getattr(captured[0], field) == value
        assert type(getattr(captured[0], field)) is type(value)

    @pytest.mark.parametrize("field", sorted(FIELD_SAMPLES))
    def test_field_accepted_as_config_key(self, field, captured, tmp_path):
        text, value = FIELD_SAMPLES[field]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = rr-sum-error\n{field.replace('_', '-')} = {text}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert getattr(captured[0], field) == value
        assert type(getattr(captured[0], field)) is type(value)

    @pytest.mark.parametrize("flag", ["--rounds", "--kappa"])
    def test_unread_knobs_are_not_flags(self, flag, captured, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "rr-sum-error", flag, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert captured == []

    def test_unread_knob_is_not_a_config_key(self, tmp_path, captured, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = rr-sum-error\nrounds = 3\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert captured == []


class TestErrors:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "--experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_invalid_param_names_field(self, capsys):
        assert main(["run", "--experiment", "rr-sum-error", "--trials", "-5"]) == 2
        err = capsys.readouterr().err
        assert "trials" in err

    @pytest.mark.parametrize("experiment", ["message-accounting", "rr-sum-error"])
    def test_negative_seed_names_seed(self, experiment, capsys):
        # numpy's own SeedSequence text named no value
        assert main(["run", "--experiment", experiment, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "dpdist: invalid parameters: seed: expected a non-negative integer, got -1\n"

    def test_missing_experiment(self, capsys):
        assert main(["run"]) == 2

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_exits_2(self, where, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv" if where == "missing-dir" else tmp_path
        assert main(["run", "--experiment", "message-accounting", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dpdist: ") and str(out) in err and "Traceback" not in err

    def test_unwritable_out_from_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"experiment = message-accounting\nout = {tmp_path / 'no' / 'x.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("dpdist: ")

    def test_stdout_output(self, capsys):
        assert main(["run", "--experiment", "rr-exact-epsilon"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,trial,param_json,metric,value")


# The knobs each experiment takes; every other knob is rejected before it runs.
KNOBS = ("trials", "n", "eps", "delta", "t", "tau", "d", "nu", "alpha_exp")
TAKES = {
    "rr-sum-error": {"n", "eps", "trials"},
    "rr-exact-epsilon": {"eps"},
    "laplace-tails": {"eps", "trials"},
    "v-bounds": {"n", "eps", "d", "trials"},
    "hoeffding-tail": {"n", "eps", "d", "trials", "nu"},
    "chernoff-tail": {"n", "eps", "d", "trials"},
    "phase-transition": {"n", "eps", "d", "trials", "tau"},
    "compile-to-local": set(),
    "lonely-parties": {"n", "trials", "t"},
    "transcript-factorization": set(),
    "dist-alpha": {"n", "eps", "delta", "alpha_exp", "t", "trials"},
    "gaussian-aggregator": {"n", "eps", "trials"},
    "symmetry": {"n", "eps", "trials"},
    "definition-equivalence": set(),
    "message-accounting": set(),
    "rr-distributed": {"n", "eps", "trials"},
}


def _run(tmp_path, *args):
    out = tmp_path / "r.csv"
    return main(["run", *args, "--out", str(out)]), out


class TestResolver:
    def test_every_experiment_listed(self):
        assert set(TAKES) == set(EXPERIMENTS)

    @pytest.mark.parametrize(
        "name,knob", [(name, k) for name in sorted(TAKES) for k in KNOBS if k not in TAKES[name]]
    )
    def test_unread_knob_exits_2(self, name, knob, tmp_path, capsys):
        flag = "--" + knob.replace("_", "-")
        code, out = _run(tmp_path, "--experiment", name, flag, FIELD_SAMPLES[knob][0])
        assert code == 2
        assert f"{name} does not take {knob}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["-3", "0", "nan", "inf"])
    def test_tau_must_be_finite_and_positive(self, tau, tmp_path, capsys):
        code, out = _run(tmp_path, "--experiment", "phase-transition", "--tau", tau)
        assert code == 2
        assert "tau" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nu", ["inf", "20"])
    def test_hoeffding_nu_rejected(self, nu, tmp_path, capsys):
        code, out = _run(tmp_path, "--experiment", "hoeffding-tail", "--nu", nu)
        assert code == 2
        assert "nu" in capsys.readouterr().err
        assert not out.exists()

    def test_dist_alpha_takes_t_zero(self, tmp_path):
        code, out = _run(
            tmp_path, "--experiment", "dist-alpha", "--n", "256", "--t", "0", "--trials", "2"
        )
        assert code == 0
        assert '""t"":0' in out.read_text().split("\n")[1]

    def test_lonely_parties_t_zero_bytes(self, tmp_path):
        code, out = _run(tmp_path, "--experiment", "lonely-parties", "--t", "0")
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "58664c72207c93c2327744bacb9dc7b5fcf09eede81d1d9c04361036a36980e3"


class TestFormatting:
    def test_float_round_trip(self):
        text = render_csv("demo", {"a": 1}, [(0, "value", 0.1 + 0.2)])
        value = text.strip().split("\n")[1].rsplit(",", 1)[1]
        assert float(value) == 0.1 + 0.2

    def test_param_json_stable_order(self):
        t1 = render_csv("demo", {"b": 1, "a": 2}, [(0, "m", 1.0)])
        t2 = render_csv("demo", {"a": 2, "b": 1}, [(0, "m", 1.0)])
        assert t1 == t2

    @pytest.mark.parametrize(
        "value,text",
        [(True, "1"), (False, "0"), (np.True_, "1"), (np.False_, "0"), (3, "3"), (np.int64(3), "3"), (0.5, "0.5")],
    )
    def test_format_value(self, value, text):
        assert cli._format_value(value) == text

    @staticmethod
    def render_row_by_row(experiment, params, rows):
        """``render_csv`` with one ``writerow`` call per row."""
        param_json = json.dumps(params, sort_keys=True, separators=(",", ":"))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cli.CSV_HEADER)
        for trial, metric, value in rows:
            writer.writerow([experiment, trial, param_json, metric, cli._format_value(value)])
        return buf.getvalue()

    @pytest.mark.parametrize(
        "experiment, params, rows",
        [
            ("demo", {"a": 1}, []),
            (
                'a,"b"\nc',
                {"key,1": 'quote " and\nnewline', "n": 4},
                [
                    (0, "m,1", np.int64(7)),
                    (np.int64(1), 'say "hi"', True),
                    (2, "two\nlines", np.False_),
                    (3, "nan", float("nan")),
                    (4, "negative zero", -0.0),
                    (5, "plain", 0.1 + 0.2),
                ],
            ),
        ],
    )
    def test_rows_render_as_one_writerow_each(self, experiment, params, rows):
        assert render_csv(experiment, params, rows) == self.render_row_by_row(experiment, params, rows)


BATCHED = ["v-bounds", "hoeffding-tail", "chernoff-tail", "laplace-tails"]


class TestBatchedOnThreads:
    """The batched experiments draw their batches on a thread pool; no output byte depends on it."""

    @pytest.fixture
    def threads_at_start(self):
        start = threading.active_count()
        yield
        assert threading.active_count() == start

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.mark.parametrize("name", BATCHED)
    def test_csv_is_the_same_on_any_worker_count(self, name, monkeypatch, threads_at_start):
        monkeypatch.setattr(experiments, "_BATCH", 1024)  # 10 batches
        cfg = ExperimentConfig(experiment=name, seed=11, trials=10_000)
        pooled = run_experiment(cfg)
        self.cpus(monkeypatch, 1)
        serial = run_experiment(cfg)
        self.cpus(monkeypatch, 4)
        assert run_experiment(cfg) == pooled == serial
        assert '""batch"":1024' in serial

    def test_results_come_back_in_batch_order(self, monkeypatch, threads_at_start):
        monkeypatch.setattr(experiments, "_BATCH", 4)
        self.cpus(monkeypatch, 2)
        later_done = threading.Event()
        finished = []

        def fn(b, size, rng):
            if b == 0:
                assert later_done.wait(timeout=30)  # batch 1 finishes first
            finished.append(b)
            later_done.set()
            return b, size, int(rng.integers(1 << 30))

        out = experiments._batched(3, 6, fn)
        assert finished == [1, 0]
        assert out == [(b, size, int(derive_rng(3, b).integers(1 << 30))) for b, size in [(0, 4), (1, 2)]]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_failing_batch_raises(self, n_cpus, monkeypatch, threads_at_start):
        monkeypatch.setattr(experiments, "_BATCH", 4)
        self.cpus(monkeypatch, n_cpus)

        def fn(b, size, rng):
            if b == 2:
                raise ValueError("batch 2 failed")
            return b

        with pytest.raises(ValueError, match="batch 2 failed"):
            experiments._batched(0, 20, fn)
