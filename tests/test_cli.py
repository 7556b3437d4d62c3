import json

import numpy as np
import pytest

from tck.cli import main, stratified_label_subset
from tck.data import load_dataset
from tck.ensemble import load_ensemble, load_kernel


def run(argv):
    return main([str(a) for a in argv])


def generate_var1(out_dir, seed=7, extra=()):
    code = run(["generate", "--recipe", "var1", "--seed", seed,
                "--out", out_dir, *extra])
    assert code == 0


SMALL = ["--q", "2", "--components", "2,3", "--t-min", "4", "--threads", "1"]


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

    def test_training_outputs_are_byte_deterministic(self, tmp_path, var1_dir):
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            code = run(["train", "--data", var1_dir / "train.csv",
                        "--labels", var1_dir / "train_labels.csv",
                        "--variant", "tck", "--seed", "4", "--out", out,
                        *SMALL])
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "kernel_train.csv").read_bytes() == (b / "kernel_train.csv").read_bytes()
        names = sorted(p.name for p in (a / "ensemble").iterdir())
        assert names == sorted(p.name for p in (b / "ensemble").iterdir())
        assert {"manifest.json", "posteriors.npy"} <= set(names)
        for name in names:
            assert (a / "ensemble" / name).read_bytes() == \
                   (b / "ensemble" / name).read_bytes(), name

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

    def test_cross_validated_eval(self, tmp_path, var1_dir):
        out = tmp_path / "cv"
        code = run(["eval", "--data", var1_dir / "train.csv",
                    "--labels", var1_dir / "train_labels.csv",
                    "--variant", "tck", "--folds", "2", "--dim", "5",
                    "--seed", "3", "--out", out, *SMALL])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("fold,")
        tags = [line.split(",")[0] for line in lines[1:]]
        assert tags == ["1", "2", "mean", "se"]

    def test_schema_mismatch_fails(self, tmp_path, var1_dir, trained_dir, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# N=1,V=1,T=3,N_c=2\nseries_id,attribute,time,value\n"
                       "1,1,1,0.5\n")
        code = run(["eval", "--train-dir", trained_dir, "--data", bad,
                    "--out", tmp_path / "x"])
        assert code == 1
        assert "schema" in capsys.readouterr().err


class TestReproduce:
    def test_smoke_scale_report(self, tmp_path):
        out = tmp_path / "r"
        code = run(["reproduce", "--table", "var1", "--seed", "0",
                    "--replicates", "1", "--out", out, *SMALL])
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
            code = run(["reproduce", "--table", "var1", "--seed", "1",
                        "--replicates", "1", "--out", out, *SMALL])
            assert code == 0
            outs.append((out / "report.csv").read_bytes())
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
