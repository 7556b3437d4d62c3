import json
import shutil

import numpy as np
import pytest

from tck.cli import main
from tck.data import load_dataset
from tck.ensemble import load_ensemble, load_kernel
from tck.experiment import stratified_label_subset

from old_layout import rewrite_as_offsets_layout


def run(argv):
    return main([str(a) for a in argv])


def generate_var1(out_dir, seed=7, extra=()):
    code = run(["generate", "--recipe", "var1", "--seed", seed,
                "--out", out_dir, *extra])
    assert code == 0


SMALL = ["--q", "2", "--components", "2,3", "--t-min", "4", "--threads", "1"]
# reproduce fixes --t-min at the published value and takes no such flag
REPRODUCE_SMALL = ["--q", "2", "--components", "2,3", "--threads", "1"]


class TestGenerate:
    def test_var1_writes_expected_shape(self, tmp_path):
        generate_var1(tmp_path / "g")
        train = load_dataset(tmp_path / "g" / "train.csv",
                             tmp_path / "g" / "train_labels.csv")
        test = load_dataset(tmp_path / "g" / "test.csv",
                            tmp_path / "g" / "test_labels.csv")
        assert train.n == test.n == 200
        missing = 1.0 - train.mask.mean()
        assert abs(missing - 0.63) < 0.03
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        assert manifest["command"] == "generate"

    def test_no_missing_flag(self, tmp_path):
        generate_var1(tmp_path / "g", extra=["--no-missing"])
        train = load_dataset(tmp_path / "g" / "train.csv")
        assert train.mask.all()

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        generate_var1(tmp_path / "a", seed=3)
        generate_var1(tmp_path / "b", seed=3)
        for name in ("train.csv", "train_labels.csv", "test.csv", "manifest.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_rate_injection_recipe(self, tmp_path):
        generate_var1(tmp_path / "base", extra=["--no-missing"])
        code = run(["generate", "--recipe", "rate_mar",
                    "--data", tmp_path / "base" / "train.csv",
                    "--labels", tmp_path / "base" / "train_labels.csv",
                    "--target-corr", "0.4", "--seed", "1",
                    "--out", tmp_path / "inj"])
        assert code == 0
        manifest = json.loads((tmp_path / "inj" / "manifest.json").read_text())
        assert manifest["config"]["strength"] > 0
        injected = load_dataset(tmp_path / "inj" / "injected.csv",
                                tmp_path / "inj" / "injected_labels.csv")
        assert 0.3 < 1.0 - injected.mask.mean() < 0.7

    def test_unknown_recipe_fails(self, tmp_path, capsys):
        code = run(["generate", "--recipe", "rate_mar", "--out", tmp_path / "x"])
        assert code == 1
        assert "requires" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config", [
        pytest.param(["--strength", "0.3", "--target-corr", "0.9"], {},
                     id="flags"),
        pytest.param(["--strength", "0.3"], {"target_corr": 0.9}, id="config"),
        pytest.param([], {}, id="neither"),
    ])
    def test_strength_or_target_corr_exactly_one(self, tmp_path, capsys,
                                                 flags, config):
        generate_var1(tmp_path / "base", extra=["--no-missing"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(["generate", "--recipe", "rate_mar",
                    "--data", tmp_path / "base" / "train.csv",
                    "--labels", tmp_path / "base" / "train_labels.csv",
                    "--config", cfg, *flags, "--out", tmp_path / "inj"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--strength" in err and "--target-corr" in err
        assert not (tmp_path / "inj" / "manifest.json").exists()


@pytest.fixture(scope="module")
def var1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("var1")
    generate_var1(out, seed=5)
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, var1_dir):
    out = tmp_path_factory.mktemp("trained")
    code = run(["train", "--data", var1_dir / "train.csv",
                "--labels", var1_dir / "train_labels.csv",
                "--variant", "tck_im", "--seed", "2", "--out", out, *SMALL])
    assert code == 0
    return out


class TestTrain:
    def test_outputs_and_kernel_diagonal(self, trained_dir):
        kernel = load_kernel(trained_dir / "kernel_train.csv")
        np.testing.assert_allclose(np.diag(kernel.values), kernel.model_count,
                                   atol=1e-9)
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["config"]["variant"] == "tck_im"
        assert (trained_dir / "ensemble" / "manifest.json").exists()

    def test_semisupervised_variant_stores_transforms(self, tmp_path, var1_dir):
        out = tmp_path / "ss"
        code = run(["train", "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--variant", "sstck_im", "--h", "0.1", "--seed", "2",
                    "--out", out, *SMALL])
        assert code == 0
        ens_manifest = json.loads((out / "ensemble" / "manifest.json").read_text())
        assert ens_manifest["has_transforms"]
        for tm in load_ensemble(out / "ensemble").transforms:
            np.testing.assert_allclose(tm.weights.sum(axis=1), 1.0, atol=1e-10)

    def test_mask_concat_variant_doubles_attributes(self, tmp_path, var1_dir):
        out = tmp_path / "b"
        code = run(["train", "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--variant", "tck_b", "--seed", "2", "--out", out, *SMALL])
        assert code == 0
        ens_manifest = json.loads((out / "ensemble" / "manifest.json").read_text())
        assert ens_manifest["n_attributes"] == 4

    def test_too_small_dataset_guidance(self, tmp_path, var1_dir, capsys):
        code = run(["train", "--data", var1_dir / "train.csv",
                    "--variant", "tck", "--seed", "2", "--q", "1",
                    "--components", "500", "--out", tmp_path / "x",
                    "--threads", "1"])
        assert code == 1
        assert "shrink" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["tck", "sstck_im"])
    def test_training_outputs_are_byte_deterministic(self, tmp_path, var1_dir,
                                                     variant):
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            code = run(["train", "--data", var1_dir / "train.csv",
                        "--labels", var1_dir / "train_labels.csv",
                        "--variant", variant, "--seed", "4", "--out", out,
                        *SMALL])
            assert code == 0
            outs.append(out)
        a, b = outs
        for name in ("kernel_train.csv", "kernel_train.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        names = sorted(p.name for p in (a / "ensemble").iterdir())
        assert names == sorted(p.name for p in (b / "ensemble").iterdir())
        assert {"manifest.json", "posteriors.npy"} <= set(names)
        assert ("transforms.npy" in names) == (variant == "sstck_im")
        for name in names:
            assert (a / "ensemble" / name).read_bytes() == \
                   (b / "ensemble" / name).read_bytes(), name

    @pytest.mark.parametrize("variant", ["tck", "sstck", "stck", "tck_im",
                                         "sstck_im", "stck_im", "tck_b", "tck_0"])
    def test_binary_kernel_equals_the_csv(self, tmp_path, var1_dir, variant):
        out = tmp_path / variant
        code = run(["train", "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--variant", variant, "--seed", "4", "--out", out, *SMALL])
        assert code == 0
        binary = np.load(out / "kernel_train.npy", allow_pickle=False)
        text = load_kernel(out / "kernel_train.csv").values
        assert binary.dtype == text.dtype and binary.shape == text.shape
        assert binary.tobytes() == text.tobytes()
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == ["ensemble", "kernel_train.csv", "kernel_train.npy"]

    def test_supervised_variant_requires_labels(self, tmp_path, var1_dir, capsys):
        code = run(["train", "--data", var1_dir / "train.csv",
                    "--variant", "stck", "--seed", "2",
                    "--out", tmp_path / "x", *SMALL])
        assert code == 1
        assert "label" in capsys.readouterr().err


class TestEval:
    def test_train_as_test_is_perfect_with_k1(self, tmp_path, var1_dir, trained_dir):
        out = tmp_path / "e"
        code = run(["eval", "--train-dir", trained_dir,
                    "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--dim", "5", "--k", "1", "--out", out])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        metrics = dict(line.split(",") for line in lines[1:])
        assert float(metrics["accuracy"]) == 1.0

    def test_heldout_eval_writes_embedding(self, tmp_path, var1_dir, trained_dir):
        out = tmp_path / "e2"
        code = run(["eval", "--train-dir", trained_dir,
                    "--data", var1_dir / "test.csv",
                    "--labels", var1_dir / "test_labels.csv",
                    "--dim", "5", "--out", out])
        assert code == 0
        lines = (out / "embedding_2d.csv").read_text().splitlines()
        assert lines[0] == "role,series_id,label,pc1,pc2"
        roles = {line.split(",")[0] for line in lines[1:]}
        assert roles == {"train", "test"}
        assert len(lines) == 1 + 400

    def test_cv_selected_neighbor_count(self, tmp_path, var1_dir, trained_dir):
        out = tmp_path / "ecv"
        code = run(["eval", "--train-dir", trained_dir,
                    "--data", var1_dir / "test.csv",
                    "--labels", var1_dir / "test_labels.csv",
                    "--dim", "5", "--k", "cv", "--out", out])
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_k_that_is_not_a_count_is_named(self, tmp_path, var1_dir,
                                            trained_dir, capsys):
        code = run(["eval", "--train-dir", trained_dir,
                    "--data", var1_dir / "test.csv",
                    "--labels", var1_dir / "test_labels.csv",
                    "--k", "abc", "--out", tmp_path / "e"])
        assert code == 1
        assert capsys.readouterr().err == (
            "tck eval: --k must be an integer or 'cv'; got 'abc'\n")

    @pytest.mark.parametrize("variant", ["tck", "stck"])
    def test_cross_validated_eval(self, tmp_path, var1_dir, variant):
        out = tmp_path / "cv"
        code = run(["eval", "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--variant", variant, "--folds", "2", "--dim", "5",
                    "--seed", "3", "--out", out, *SMALL])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("fold,")
        tags = [line.split(",")[0] for line in lines[1:]]
        assert tags == ["1", "2", "mean", "se"]

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_fails(self, tmp_path, var1_dir, trained_dir,
                                       capsys, dim):
        code = run(["eval", "--train-dir", trained_dir,
                    "--data", var1_dir / "test.csv", "--dim", dim,
                    "--out", tmp_path / "e"])
        assert code == 1
        assert f"embedding dimension {dim} must lie in 1..200" in capsys.readouterr().err
        assert not (tmp_path / "e" / "embedding_2d.csv").exists()

    def test_schema_mismatch_fails(self, tmp_path, var1_dir, trained_dir, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# N=1,V=1,T=3,N_c=2\nseries_id,attribute,time,value\n"
                       "1,1,1,0.5\n")
        code = run(["eval", "--train-dir", trained_dir, "--data", bad,
                    "--out", tmp_path / "x"])
        assert code == 1
        assert "schema" in capsys.readouterr().err


@pytest.fixture
def no_fits(monkeypatch):
    """Replace fit_map_em by a function that must not be called."""
    def refuse(*args, **kwargs):
        raise AssertionError("a base model was fitted")
    monkeypatch.setattr("tck.ensemble.fit_map_em", refuse)


@pytest.mark.usefixtures("no_fits")
class TestLabelOptionsFailBeforeFitting:
    """Bad label options exit 1 naming the flag, before any base model is
    fitted."""

    @pytest.mark.parametrize("command, options, flag", [
        pytest.param("train", ["--variant", "sstck", "--h", "2"], "--h",
                     id="train-h-above-1"),
        pytest.param("train", ["--variant", "sstck_im", "--h", "0"], "--h",
                     id="train-h-0"),
        pytest.param("train", ["--variant", "sstck", "--n-labeled", "1"],
                     "--n-labeled", id="train-fewer-labels-than-classes"),
        pytest.param("train", ["--variant", "sstck_im", "--n-labeled", "-3"],
                     "--n-labeled", id="train-negative-labels"),
        pytest.param("eval", ["--folds", "2"], "--variant",
                     id="folds-without-variant"),
        pytest.param("eval", ["--folds", "2", "--variant", "sstck", "--h", "1.5"],
                     "--h", id="folds-h-above-1"),
        pytest.param("eval", ["--folds", "2", "--variant", "sstck",
                              "--n-labeled", "0"], "--n-labeled",
                     id="folds-no-labels"),
    ])
    def test_fails_naming_the_flag(self, tmp_path, var1_dir, capsys,
                                   command, options, flag):
        code = run([command, "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv", *options,
                    "--seed", "2", "--out", tmp_path / "x", *SMALL])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tck {command}: ") and flag in err
        assert not (tmp_path / "x" / "ensemble").exists()

    def test_reproduce_checks_labels_before_fitting(self, tmp_path, capsys):
        code = run(["reproduce", "--replicates", "1",
                    "--h", "2", "--out", tmp_path / "r", *REPRODUCE_SMALL])
        assert code == 1
        assert "--h" in capsys.readouterr().err

    def test_reproduce_checks_replicates_before_fitting(self, tmp_path, capsys):
        code = run(["reproduce", "--replicates", "0", "--out", tmp_path / "r",
                    *REPRODUCE_SMALL])
        assert code == 1
        assert "replicates must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.usefixtures("no_fits")
class TestEnsembleOptionsFailBeforeFitting:
    """Ensemble sizes that cannot be fitted exit 1 naming the flag, before any
    base model is fitted. Later flags win, so each case overrides SMALL."""

    @pytest.mark.parametrize("variant, options, flag", [
        pytest.param("stck", ["--components", "1,2"], "--components",
                     id="fewer-components-than-classes"),
        pytest.param("tck", ["--components", "5..2"], "--components",
                     id="empty-component-range"),
        pytest.param("tck", ["--components", "0,2"], "--components",
                     id="zero-components"),
        pytest.param("tck", ["--q", "0"], "--q", id="no-restarts"),
        pytest.param("tck", ["--components", "2..x"], "--components",
                     id="range-bound-not-an-integer"),
        pytest.param("tck", ["--components", "a,3"], "--components",
                     id="list-entry-not-an-integer"),
        pytest.param("tck", ["--threads", "-4"], "--threads",
                     id="negative-threads"),
        pytest.param("tck", ["--threads", "0"], "--threads", id="zero-threads"),
    ])
    def test_fails_naming_the_flag(self, tmp_path, var1_dir, capsys,
                                   variant, options, flag):
        code = run(["train", "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--variant", variant, "--seed", "2",
                    "--out", tmp_path / "x", *SMALL, *options])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("tck train: ") and flag in err
        assert not (tmp_path / "x" / "ensemble").exists()

    @pytest.mark.parametrize("command", ["train", "reproduce"])
    def test_threads_below_one_from_config(self, tmp_path, var1_dir, capsys,
                                           command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 0}))
        data = (["--data", var1_dir / "train.csv", "--variant", "tck"]
                if command == "train" else [])
        code = run([command, *data, "--config", cfg, "--out", tmp_path / "x"])
        assert code == 1
        assert "--threads must be at least 1; got 0" in capsys.readouterr().err


WRONG_TYPE = "a value has the wrong type"


class TestBadTrainDir:
    """A --train-dir that `tck train` did not write, or whose ensemble
    manifest is damaged, exits 1 naming the file and the key."""

    def eval_fails(self, train_dir, var1_dir, tmp_path, capsys):
        code = run(["eval", "--train-dir", train_dir,
                    "--data", var1_dir / "test.csv",
                    "--labels", var1_dir / "test_labels.csv",
                    "--out", tmp_path / "e"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("tck eval: ")
        return err

    def test_generate_output_is_not_a_train_run(self, tmp_path, var1_dir,
                                                 capsys):
        err = self.eval_fails(var1_dir, var1_dir, tmp_path, capsys)
        assert str(var1_dir / "manifest.json") in err and "'variant'" in err

    @pytest.mark.parametrize("needle, damage", [
        pytest.param("'n_series'", lambda m: m.pop("n_series"), id="missing-key"),
        pytest.param("'q2'", lambda m: m["models"][0].pop("q2"),
                     id="missing-model-key"),
        pytest.param("'bogus'", lambda m: m["config"].update(bogus=1),
                     id="unknown-config-key"),
        pytest.param("has no 'a0' key", lambda m: m["models"][0]["hp"].pop("a0"),
                     id="missing-hyperparameter"),
        pytest.param("model 0: unknown hp key 'x'",
                     lambda m: m["models"][0]["hp"].update(x=1),
                     id="unknown-hyperparameter"),
        pytest.param(WRONG_TYPE, lambda m: m["models"][0]["hp"].update(a0="x"),
                     id="string-hyperparameter"),
        pytest.param(WRONG_TYPE, lambda m: m["models"][0].update(hp="a0"),
                     id="string-hp"),
        pytest.param(WRONG_TYPE, lambda m: m.update(models=5), id="int-models"),
        pytest.param(WRONG_TYPE, lambda m: m["models"].__setitem__(0, 5),
                     id="int-model"),
        pytest.param(WRONG_TYPE, lambda m: m.update(config=5), id="int-config"),
        pytest.param(WRONG_TYPE, lambda m: m.update(failed=5), id="int-failed"),
        pytest.param(WRONG_TYPE, lambda m: m.update(length="50"),
                     id="string-length"),
    ])
    def test_damaged_ensemble_manifest(self, tmp_path, var1_dir, trained_dir,
                                       capsys, needle, damage):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        path = run_dir / "ensemble" / "manifest.json"
        manifest = json.loads(path.read_text())
        damage(manifest)
        path.write_text(json.dumps(manifest))
        err = self.eval_fails(run_dir, var1_dir, tmp_path, capsys)
        assert str(path) in err and needle in err

    @pytest.mark.parametrize("name", ["manifest.json", "ensemble/manifest.json"])
    def test_truncated_manifest(self, tmp_path, var1_dir, trained_dir, capsys,
                                name):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        path = run_dir / name
        path.write_text(path.read_text()[:11])
        err = self.eval_fails(run_dir, var1_dir, tmp_path, capsys)
        assert f"{path} is not valid JSON: " in err

    @pytest.mark.parametrize("name", ["manifest.json", "ensemble/manifest.json"])
    @pytest.mark.parametrize("text, found", [("[]", "list"), ("null", "NoneType"),
                                             ("3", "int")])
    def test_manifest_holding_another_json_value(self, tmp_path, var1_dir,
                                                 trained_dir, capsys, name,
                                                 text, found):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        path = run_dir / name
        path.write_text(text)
        err = self.eval_fails(run_dir, var1_dir, tmp_path, capsys)
        assert f"{path} must hold a JSON object; found {found}" in err

    def test_ensemble_of_an_older_tck(self, tmp_path, var1_dir, trained_dir,
                                      capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        rewrite_as_offsets_layout(run_dir / "ensemble")
        err = self.eval_fails(run_dir, var1_dir, tmp_path, capsys)
        assert str(run_dir / "ensemble" / "manifest.json") in err
        assert "older tck" in err and "retrain it" in err

    def test_train_labels_disagreeing_with_the_ensemble(self, tmp_path, var1_dir,
                                                        trained_dir, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["train_labels"].pop()
        path.write_text(json.dumps(manifest))
        err = self.eval_fails(run_dir, var1_dir, tmp_path, capsys)
        assert str(path) in err and "train labels" in err

    @pytest.mark.parametrize("damage, error", [
        pytest.param(lambda p: p.unlink(), "is missing", id="missing"),
        pytest.param(lambda p: np.save(p, np.load(p)[:, :-1]),
                     "found float64 (", id="wrong-shape"),
        pytest.param(lambda p: np.save(p, np.load(p).astype(np.float32)),
                     "found float32 (", id="wrong-dtype"),
        pytest.param(lambda p: p.write_bytes(b""), "No data left in file",
                     id="empty"),
    ])
    def test_damaged_binary_train_kernel(self, tmp_path, var1_dir, trained_dir,
                                         capsys, damage, error):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        path = run_dir / "kernel_train.npy"
        damage(path)
        err = self.eval_fails(run_dir, var1_dir, tmp_path, capsys)
        assert str(path) in err and error in err


class TestReproduce:
    def test_smoke_scale_report(self, tmp_path):
        out = tmp_path / "r"
        code = run(["reproduce", "--seed", "0",
                    "--replicates", "1", "--out", out, *REPRODUCE_SMALL])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "variant,accuracy,target,ok"
        variants = [line.split(",")[0] for line in lines[1:7]]
        assert variants == ["tck", "sstck", "stck", "tck_im", "sstck_im",
                            "stck_im"]
        report = json.loads((out / "report.json").read_text())
        assert len(report["checks"]) == 3

    def test_report_is_deterministic(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run(["reproduce", "--seed", "1",
                        "--replicates", "1", "--out", out, *REPRODUCE_SMALL])
            assert code == 0
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]


class _FitReached(Exception):
    """Raised in place of the ensemble fit, carrying (config, n_jobs)."""


@pytest.fixture
def resolve(monkeypatch):
    """Run a CLI command up to its ensemble fit; return (config, n_jobs)."""
    def stop(data, cfg, n_jobs=1):
        raise _FitReached(cfg, n_jobs)
    monkeypatch.setattr("tck.cli.train_ensemble", stop)

    def resolve_argv(argv):
        with pytest.raises(_FitReached) as info:
            run(argv)
        return info.value.args
    return resolve_argv


class TestOptionPrecedence:
    """default < --config < flag."""

    @pytest.fixture
    def train(self, tmp_path, var1_dir):
        return ["train", "--data", var1_dir / "train.csv",
                "--labels", var1_dir / "train_labels.csv",
                "--variant", "tck", "--out", tmp_path / "t"]

    @pytest.fixture
    def config(self, tmp_path):
        def write(**values):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(values))
            return ["--config", path]
        return write

    def test_int_options(self, resolve, train, config):
        cfg, _ = resolve(train)
        assert (cfg.n_init, cfg.seed) == (30, 0)
        cfg, _ = resolve(train + config(q=4, seed=9))
        assert (cfg.n_init, cfg.seed) == (4, 9)
        cfg, _ = resolve(train + config(q=4, seed=9) + ["--q", "5", "--seed", "2"])
        assert (cfg.n_init, cfg.seed) == (5, 2)

    def test_components(self, resolve, train, config):
        assert resolve(train)[0].component_counts is None
        assert resolve(train + config(components="2,3"))[0].component_counts == (2, 3)
        cfg, _ = resolve(train + config(components="2,3") + ["--components", "4..5"])
        assert cfg.component_counts == (4, 5)

    def test_threads(self, resolve, train, config, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert resolve(train)[1] == 3
        assert resolve(train + config(threads=2))[1] == 2
        assert resolve(train + config(threads=2) + ["--threads", "1"])[1] == 1

    def test_normalize_reaches_the_ensemble_manifest(self, tmp_path, train,
                                                     config):
        def normalized(extra):
            out = tmp_path / "t"
            shutil.rmtree(out, ignore_errors=True)
            assert run(train + ["--q", "1", "--components", "2", "--t-min", "4",
                                "--threads", "1", *extra]) == 0
            manifest = json.loads((out / "ensemble" / "manifest.json").read_text())
            return manifest["config"]["normalize_by_models"]

        assert normalized([]) is False
        assert normalized(config(normalize=True)) is True
        assert normalized(config(normalize=False) + ["--normalize"]) is True

    def test_k_keeps_its_type(self, tmp_path, var1_dir, trained_dir, config):
        def echoed_k(extra):
            out = tmp_path / "e"
            assert run(["eval", "--train-dir", trained_dir,
                        "--data", var1_dir / "test.csv",
                        "--labels", var1_dir / "test_labels.csv",
                        "--dim", "5", "--out", out, *extra]) == 0
            return json.loads((out / "manifest.json").read_text())["config"]["k"]

        assert echoed_k([]) == 1 and isinstance(echoed_k([]), int)
        assert echoed_k(config(k=3)) == 3
        assert echoed_k(config(k=5) + ["--k", "3"]) == "3"

    def test_keys_a_command_does_not_use_are_harmless(self, tmp_path, resolve,
                                                      train, config):
        unused = config(dim=4, folds=3, replicates=2, recipe="rate_mnar",
                        command="eval", table="ucr", no_such_option=1)
        cfg, n_jobs = resolve(train + unused + ["--threads", "1"])
        assert (cfg.n_init, cfg.seed, cfg.component_counts) == (30, 0, None)
        outs = []
        for name, extra in (("plain", []), ("configured", config(
                q=0, variant="tck", command="train", k=9, t_min=1))):
            out = tmp_path / name
            assert run(["generate", "--recipe", "var1", "--seed", "3",
                        "--out", out, *extra]) == 0
            outs.append((out / "manifest.json").read_bytes())
        assert outs[0] == outs[1]


class TestConfigPlumbing:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        out = tmp_path / "g"
        code = run(["generate", "--recipe", "var1", "--config", cfg,
                    "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9

    @pytest.mark.parametrize("text, problem", [
        pytest.param("[1]", "must hold a JSON object", id="not-an-object"),
        pytest.param("{seed: 9}", "is not valid JSON", id="invalid-json"),
    ])
    def test_bad_config_file_exits_naming_it(self, tmp_path, capsys, text,
                                             problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run(["generate", "--recipe", "var1", "--config", cfg,
                    "--out", tmp_path / "g"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tck generate: --config {cfg} ")
        assert problem in err

    @pytest.mark.parametrize("command, key, value, kind", [
        pytest.param("train", "threads", 2.5, "an integer", id="int-given-float"),
        pytest.param("train", "threads", True, "an integer", id="int-given-bool"),
        pytest.param("train", "q", "4x", "an integer", id="int-given-bad-string"),
        pytest.param("train", "h", True, "a number", id="float-given-bool"),
        pytest.param("train", "normalize", "false", "true or false",
                     id="flag-given-string"),
        pytest.param("train", "components", 5, "a string", id="string-given-int"),
        pytest.param("eval", "k", True, "a string or an integer",
                     id="int-or-cv-given-bool"),
        pytest.param("eval", "variant", "tck_x", "one of sstck, ", id="choice"),
    ])
    def test_config_value_of_the_wrong_type_is_named(
            self, tmp_path, var1_dir, resolve, capsys, command, key, value, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        extra = ["--variant", "tck"] if command == "train" else ["--folds", "2"]
        code = run([command, "--data", var1_dir / "train.csv", *extra,
                    "--config", cfg, "--out", tmp_path / "x"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"tck {command}: --config {cfg}: '{key}' must be {kind}")
        assert err.rstrip().endswith(f"got {json.dumps(value)}")

    def test_config_values_convert_as_their_flags_do(self, tmp_path):
        generate_var1(tmp_path / "base", extra=["--no-missing"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strength": 1, "seed": "4"}))
        manifests = []
        for name, extra in (("config", ["--config", cfg]),
                            ("flags", ["--strength", "1", "--seed", "4"])):
            assert run(["generate", "--recipe", "rate_mar",
                        "--data", tmp_path / "base" / "train.csv",
                        "--labels", tmp_path / "base" / "train_labels.csv",
                        *extra, "--out", tmp_path / name]) == 0
            manifests.append((tmp_path / name / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        strength = json.loads(manifests[0])["config"]["strength"]
        assert strength == 1.0 and isinstance(strength, float)

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TCK_OUTPUT_ROOT", str(tmp_path))
        code = run(["generate", "--recipe", "var1", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "tck_generate" / "train.csv").exists()


def test_stratified_label_subset_is_balanced():
    labels = np.array([1] * 100 + [2] * 100)
    subset = stratified_label_subset(labels, 20, seed=0)
    assert (subset > 0).sum() == 20
    assert (subset == 1).sum() == 10 and (subset == 2).sum() == 10
    again = stratified_label_subset(labels, 20, seed=0)
    assert np.array_equal(subset, again)
