import csv
import dataclasses
import io
import json

import pytest

from dpdist import cli
from dpdist.cli import main, parse_config_file, render_csv, run_experiment
from dpdist.experiments import EXPERIMENTS, ExperimentConfig, run_rows


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

    def test_missing_experiment(self, capsys):
        assert main(["run"]) == 2

    def test_stdout_output(self, capsys):
        assert main(["run", "--experiment", "rr-exact-epsilon"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,trial,param_json,metric,value")


class TestFormatting:
    def test_float_round_trip(self):
        text = render_csv("demo", {"a": 1}, [(0, "value", 0.1 + 0.2)])
        value = text.strip().split("\n")[1].rsplit(",", 1)[1]
        assert float(value) == 0.1 + 0.2

    def test_param_json_stable_order(self):
        t1 = render_csv("demo", {"b": 1, "a": 2}, [(0, "m", 1.0)])
        t2 = render_csv("demo", {"a": 2, "b": 1}, [(0, "m", 1.0)])
        assert t1 == t2
