"""Compare the CLI output bytes of two checkouts.

Run from anywhere:

    python3 bench/cli_diff.py DIR_A DIR_B

Each checkout's ``src`` runs the same tiny commands: ``generate`` of every
recipe (``var1`` with and without missing cells, then ``rate_mar`` at a
given ``--strength`` and ``rate_mnar`` at a ``--target-corr``, which tunes
the strength, both on the complete ``var1`` data), ``train`` for all eight
variants, and ``eval --k 1`` and ``eval --k cv`` against each trained run.
A third eval, ``--k 1`` on a file of the first three test series (written
with ``tck.data``), takes the small-batch path of ``kernel_test``. A small
``reproduce`` (one replicate, Q=1, component counts 2 and 3) writes its
report, and its stdout goes to ``reproduce_stdout.txt``, so that the
printed table is compared too. The checkouts run in turn at the same output
path, because manifests record absolute paths, and each one's outputs are
then moved aside. Every output file whose bytes differ, or that exists on
one side only, is listed; the exit status is 1 if there is any, else 0.
"""
from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile

VARIANTS = ("tck", "sstck", "stck", "tck_im", "sstck_im", "stck_im",
            "tck_b", "tck_0")
SMALL = ["--q", "2", "--components", "2,3", "--t-min", "4", "--threads", "1"]

# Runs each argv of a JSON list through tck.cli.main; stops at a failure.
# An argv ["head", data, labels, out_data, out_labels] instead writes the
# first three series of a data set; ["stdout", path, *argv] runs argv with
# its stdout written to path.
RUNNER = """
import contextlib, json, sys
from tck import data
from tck.cli import main

def run(argv):
    if main(argv) != 0:
        sys.exit(f"tck {' '.join(argv)} failed")

for argv in json.loads(sys.argv[1]):
    if argv[0] == "head":
        head = data.load_dataset(argv[1], argv[2]).take([0, 1, 2])
        data.save_dataset(head, argv[3], argv[4])
    elif argv[0] == "stdout":
        with open(argv[1], "w") as fh, contextlib.redirect_stdout(fh):
            run(argv[2:])
    else:
        run(argv)
"""


def commands(out: str) -> list:
    """The argv lists, writing under ``out``."""
    gen = os.path.join(out, "generate")
    data = ["--data", os.path.join(gen, "train.csv"),
            "--labels", os.path.join(gen, "train_labels.csv")]
    test = ["--data", os.path.join(gen, "test.csv"),
            "--labels", os.path.join(gen, "test_labels.csv")]
    small = ["--data", os.path.join(out, "small.csv"),
             "--labels", os.path.join(out, "small_labels.csv")]
    full = os.path.join(out, "generate_full")
    complete = ["--data", os.path.join(full, "train.csv"),
                "--labels", os.path.join(full, "train_labels.csv")]
    argvs = [["generate", "--recipe", "var1", "--seed", "7", "--out", gen],
             ["generate", "--recipe", "var1", "--no-missing", "--seed", "7",
              "--out", full],
             ["generate", "--recipe", "rate_mar", *complete, "--strength", "0.3",
              "--seed", "7", "--out", os.path.join(out, "generate_rate_mar")],
             ["generate", "--recipe", "rate_mnar", *complete, "--target-corr",
              "0.3", "--seed", "7", "--out", os.path.join(out, "generate_rate_mnar")],
             ["head", test[1], test[3], small[1], small[3]]]
    for variant in VARIANTS:
        train = os.path.join(out, f"train_{variant}")
        argvs.append(["train", *data, "--variant", variant, "--seed", "2",
                      "--out", train, *SMALL])
        for k in ("1", "cv"):
            argvs.append(["eval", "--train-dir", train, *test, "--k", k,
                          "--out", os.path.join(out, f"eval_{variant}_k{k}")])
        argvs.append(["eval", "--train-dir", train, *small, "--k", "1",
                      "--out", os.path.join(out, f"eval_{variant}_small")])
    argvs.append(["stdout", os.path.join(out, "reproduce_stdout.txt"),
                  "reproduce", "--seed", "3", "--q", "1", "--components", "2,3",
                  "--replicates", "1", "--threads", "1",
                  "--out", os.path.join(out, "reproduce")])
    return argvs


def run_checkout(checkout: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    subprocess.run([sys.executable, "-c", RUNNER, json.dumps(commands(out))],
                   env=env, check=True)


def files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def differences(a: str, b: str) -> list:
    """Lines naming each file that differs or exists on one side only."""
    fa, fb = files(a), files(b)
    lines = [f"only in A: {p}" for p in sorted(fa - fb)]
    lines += [f"only in B: {p}" for p in sorted(fb - fa)]
    lines += [f"differs: {p}" for p in sorted(fa & fb)
              if not filecmp.cmp(os.path.join(a, p), os.path.join(b, p),
                                 shallow=False)]
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        sides = []
        for side, checkout in zip("AB", argv):
            run_checkout(checkout, out)
            os.rename(out, os.path.join(work, side))
            sides.append(os.path.join(work, side))
        lines = differences(*sides)
        same = len(files(sides[0]) & files(sides[1])) - sum(
            ln.startswith("differs") for ln in lines)
    for line in lines:
        print(line)
    print(f"# {same} files identical, {len(lines)} not")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
