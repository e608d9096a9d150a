"""Command-line interface: subcommands, formats, exit codes."""

import csv
import io
import json

import pytest

from frozenrank import harness
from frozenrank.cli import main
from frozenrank.exactla import DENSE_CAP, Matrix, format_matrix
from frozenrank.field import FieldSpec
from frozenrank.randgraph import karp_sipser
from test_harness import trial_graph

F2 = FieldSpec.prime(2)
Q = FieldSpec.rationals()

P3_TEXT = "3 3 F2\n0 1 0\n1 0 1\n0 1 0\n"


def test_analytic_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["analytic", "--d-min", "0", "--d-max", "3", "--step", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#frozenrank-v1"
    assert lines[1].split(",") == ["d", "alpha_star_lo", "alpha_zero", "alpha_star_hi",
                                   "min_R", "gamma_lo", "gamma_hi", "integral_residual"]
    assert len(lines) == 2 + 4
    row = dict(zip(lines[1].split(","), lines[3].split(",")))
    assert abs(float(row["min_R"]) - 0.544061907323596) < 1e-9


def test_analytic_stdout(capsys):
    assert main(["analytic", "--d-min", "1", "--d-max", "1", "--step", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "#frozenrank-v1" and len(rows) == 3


def test_analytic_bad_step():
    assert main(["analytic", "--d-min", "0", "--d-max", "1", "--step", "0"]) == 2


def _old_frange(lo: float, hi: float, step: float) -> list[float]:
    """The grid rule as it stood before grids were counted and capped: the
    oracle for every grid that both accept."""
    if step <= 0:
        raise ValueError("--step must be positive")
    if hi < lo:
        raise ValueError("--d-max must be at least --d-min")
    values = []
    k = 0
    while True:
        d = lo + k * step
        if d > hi + 1e-12:
            break
        values.append(round(d, 12))
        k += 1
    return values


def test_analytic_grid_matches_the_uncapped_rule():
    import random

    from frozenrank.cli import ANALYTIC_GRID_CAP, _frange

    # the grids of the CLI script and README, steps that do not divide the
    # span, ends that floating-point steps miss by a rounding, and the cap
    grids = [(0, 5, 0.5), (36, 40, 1), (100, 1000, 450), (0, 5, 0.1), (0, 3, 1), (1, 1, 1),
             (0, 1, 0.3), (0.1, 0.7, 0.2), (0, 1, 0.1), (2.5, 2.5, 0.01), (0, 9.999, 0.001),
             (0, ANALYTIC_GRID_CAP - 1, 1)]
    rng = random.Random(36)
    for _ in range(300):
        lo = rng.choice((0.0, rng.uniform(0, 50), float(rng.randrange(20))))
        step = rng.choice((rng.uniform(1e-3, 5), rng.randrange(1, 10) / 10, 10.0 ** -rng.randrange(4)))
        grids.append((lo, lo + rng.uniform(0, min(100, 5000 * step)), step))
    for grid in grids:
        assert _frange(*map(float, grid)) == _old_frange(*map(float, grid)), grid
    assert len(_frange(0.0, ANALYTIC_GRID_CAP - 1.0, 1.0)) == ANALYTIC_GRID_CAP


@pytest.mark.parametrize("flags, code", [
    (("--step", "nan"), 2), (("--d-max", "inf"), 2), (("--d-min", "nan"), 2),
    (("--d-min", "-inf"), 2), (("--step", "inf"), 2), (("--step", "1e-300"), 3),
    (("--d-max", "1e308", "--step", "1"), 3), (("--d-max", "10000", "--step", "1"), 3),
    (("--d-min", "1e300", "--d-max", "1e300", "--step", "1"), 3)])
def test_analytic_refuses_a_grid_before_it_evaluates_a_point(monkeypatch, capsys, flags, code):
    # a non-finite bound or step is a usage error, and a grid above the cap
    # is a resource cap, both before a single point is solved
    from frozenrank import analytic

    def refused(d):
        raise AssertionError("a refused grid evaluates no point")

    monkeypatch.setattr(analytic, "solve_point", refused)
    args = dict(zip(("--d-min", "--d-max", "--step"), ("0", "1", "0.5")))
    args.update(zip(flags[::2], flags[1::2]))
    assert main(["analytic", *(f"{flag}={value}" for flag, value in args.items())]) == code
    assert capsys.readouterr().out == ""


def test_simulate_flags_and_config_agree(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    assert main(["simulate", "--n", "60", "--d", "2", "--field", "F2",
                 "--trials", "3", "--seed", "5", "--out", str(out_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["groups"]["F2+allones"]["count"] == 3

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 60, "d": 2.0, "field": "F2",
                               "trials": 3, "master_seed": 5}))
    out_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


@pytest.mark.parametrize("key, value", [
    ("n", "10"),          # string for an int
    ("trials", 1.5),      # float for an int
    ("master_seed", True),  # bool for an int
    ("d", "2"),           # string for a float
    ("census", 1),        # int for a bool
    ("pert_P", [8]),      # list for an optional int
    ("trials", None),     # null for a required int
])
def test_simulate_config_wrong_type_is_usage_error(tmp_path, capsys, key, value):
    config = {"n": 10, "d": 2.0, "field": "F2", "trials": 1, "master_seed": 5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, key: value}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err


def test_simulate_missing_flags():
    assert main(["simulate", "--n", "10"]) == 2


def test_simulate_stdout(capsys):
    assert main(["simulate", "--n", "30", "--d", "1", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#frozenrank-v1\n")


def test_census_cli(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--n", "50", "--d", "2", "--P", "8", "--trials", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "census" in summary
    header = out.read_text().splitlines()[1]
    assert "alpha_hat" in header


@pytest.mark.parametrize("field, template, n", [
    ("F2", "allones", 60), ("Fp:2147483647", "random", 60), ("Q", "random", 40)])
def test_census_base_columns_are_the_simulate_csv(capsys, field, template, n):
    # a census trial is a rank trial plus a census: its first columns are
    # the simulate CSV of the same config, column for column, in either
    # order and with each half from a cold memo
    args = ["--n", str(n), "--d", "2.5", "--field", field, "--template", template,
            "--trials", "3", "--seed", "6"]
    extra = {"simulate": [], "census": ["--P", "8"]}
    for order in (("simulate", "census"), ("census", "simulate")):
        out = {}
        for command in order:
            harness._leaf_removal_of.cache_clear()
            assert main([command] + args + extra[command]) == 0
            out[command] = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        width = len(out["simulate"][1])
        assert len(out["census"][1]) > width
        assert [row[:width] for row in out["census"]] == out["simulate"]


@pytest.mark.parametrize("command, census", [("census", False), ("simulate", True)])
def test_config_census_run_matches_census_flags(tmp_path, capsys, command, census):
    # `census` takes a census whatever the config says; `simulate` takes one
    # when the config asks for it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "d": 2.0, "field": "F2", "trials": 2,
                               "master_seed": 3, "pert_P": 8, "census": census}))
    assert main([command, "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["census", "--n", "50", "--d", "2", "--P", "8", "--trials", "2",
                 "--seed", "3"]) == 0
    assert from_config == capsys.readouterr().out


def test_config_output_is_written_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "trials.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "d": 2.0, "field": "F2", "trials": 2,
                               "master_seed": 3, "output": str(out)}))
    writes = []
    real_open = open

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert writes == [str(out)]
    assert json.loads(capsys.readouterr().out)["groups"]["F2+allones"]["count"] == 2
    assert main(["simulate", "--n", "50", "--d", "2", "--trials", "2", "--seed", "3"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_census_requires_P():
    assert main(["census", "--n", "50", "--d", "2", "--trials", "2"]) == 2


def test_ks_sampled(capsys):
    assert main(["ks", "--n", "40", "--d", "1.5", "--trials", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[0] == "trial_index"
    assert len(lines) == 4


def test_ks_matches_simulate(capsys):
    # both subcommands derive a trial's edge support from (seed, index) alike
    args = ["--n", "300", "--d", "2.5", "--trials", "3", "--seed", "4"]

    def rows(cmd):
        harness._leaf_removal_of.cache_clear()  # each subcommand samples its own supports
        assert main([cmd] + args) == 0
        text = capsys.readouterr().out.split("\n", 1)[1]
        return [(r["trial_index"], r["ks_isolated"], r["ks_core_size"])
                for r in csv.DictReader(io.StringIO(text))]

    assert rows("ks") == rows("simulate")


def test_ks_is_the_same_over_every_field_and_template(capsys):
    # ks reads only the support, which no field or template changes
    args = ["ks", "--n", "300", "--d", "3", "--trials", "3", "--seed", "2"]
    outs = []
    for extra in ([], ["--field", "Q", "--template", "random"], ["--field", "Fp:5"]):
        harness._leaf_removal_of.cache_clear()
        assert main(args + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    rows = list(csv.DictReader(io.StringIO(outs[0].split("\n", 1)[1])))
    for index, row in enumerate(rows):
        seed, G = trial_graph(2, index, 300, 3.0, Q, "random")
        ks = karp_sipser(G)
        assert [int(row[c]) for c in ("derived_seed", "ks_isolated", "ks_core_size",
                                      "removed_pair_count")] == \
            [seed, ks.isolated_count, len(ks.core_vertices), len(ks.removed_pairs)]


def test_ks_validates_field_and_template(capsys):
    args = ["ks", "--n", "30", "--d", "2", "--trials", "1"]
    assert main(args + ["--field", "Fp:4"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(args + ["--template", "bogus"])
    assert exc.value.code == 2


def test_ks_from_graph_file(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("3 2 F2\n0 1 1\n1 2 1\n")
    assert main(["ks", "--graph", str(gfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["isolated_count"] == 1
    assert payload["core_size"] == 0


# A 20-vertex graph over F5 with its edge lines shuffled and every other one
# written "j i w", and the ks --graph output recorded for it before Graph held
# edge arrays: the removal order and the core must not depend on the storage.
SHUFFLED_GRAPH = (
    "20 23 Fp:5\n19 14 3\n16 18 2\n12 4 3\n6 12 2\n8 6 1\n12 19 3\n19 7 4\n"
    "3 15 4\n13 4 4\n10 12 4\n12 11 3\n8 17 2\n9 4 2\n6 14 2\n12 7 1\n14 17 3\n"
    "18 3 1\n1 14 4\n10 2 3\n5 15 2\n10 9 4\n3 10 2\n17 11 4\n"
)
SHUFFLED_GRAPH_KS = {
    "n": 20, "edges": 23, "isolated_count": 3, "core_size": 7,
    "core_vertices": [6, 7, 8, 11, 12, 17, 19],
    "removed_pairs": [[1, 14], [2, 10], [5, 15], [3, 18], [9, 4]],
}


def test_ks_from_a_shuffled_graph_file(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text(SHUFFLED_GRAPH)
    assert main(["ks", "--graph", str(gfile)]) == 0
    assert capsys.readouterr().out == json.dumps(SHUFFLED_GRAPH_KS, indent=2) + "\n"


@pytest.mark.parametrize("text", ["3 2 F2\n0 1 1\n1 3 1\n", "3 2 F2\n0 1 1\n-1 2 1\n",
                                  "3 2 F2\n0 1 1\n1 0 1\n"],
                         ids=["out-of-range", "negative", "reversed-duplicate"])
def test_ks_refuses_a_bad_graph_file(tmp_path, capsys, text):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    assert main(["ks", "--graph", str(gfile)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, text", [
    (["ks", "--n", str(10 ** 12), "--d", "0", "--trials", "1"], None),
    (["ks", "--graph"], f"{10 ** 12} 1 F2\n0 1 1\n"),
    (["ks", "--graph"], f"{2 ** 33} 2 F2\n{2 ** 31} {2 ** 31 + 5} 1\n0 {2 ** 31 + 5} 1\n"),
], ids=["sampled", "graph-file", "graph-beyond-int64-keys"])
def test_ks_refuses_too_many_vertices_as_a_resource_cap(tmp_path, capsys, argv, text):
    # 10^12 vertices: a route that reached its first array of n entries
    # would fail that allocation at once, not exit 3
    if text is not None:
        gfile = tmp_path / "g.txt"
        gfile.write_text(text)
        argv = argv + [str(gfile)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "resource cap" in captured.err


def test_ks_refuses_a_negative_graph_size(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("-1 0 F2\n")
    assert main(["ks", "--graph", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph size n must be >= 0, got -1\n"


@pytest.mark.parametrize("command, flag, name", [("ks", "--seed", "--seed"),
                                                 ("simulate", "--seed", "master_seed"),
                                                 ("census", "--pert-seed", "pert_seed")])
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
def test_seeds_outside_64_bits_are_refused(capsys, command, flag, name, seed):
    # the PRF reads seeds modulo 2^64, so these would rerun a seed inside
    args = [command, "--n", "30", "--d", "2", "--trials", "1", flag, seed]
    assert main(args + (["--P", "8"] if command == "census" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must lie in [0, 2^64), got {seed}\n"


def test_ks_takes_the_largest_seed(capsys):
    assert main(["ks", "--n", "30", "--d", "2", "--trials", "1", "--seed", str(2**64 - 1)]) == 0
    assert capsys.readouterr().out.startswith("#frozenrank-v1\n")


def test_ks_needs_inputs():
    assert main(["ks"]) == 2


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--trials", "-1")])
def test_ks_rejects_nonpositive_counts(capsys, flag, value):
    args = {"--n": "40", "--d": "1.5", "--trials": "2", flag: value}
    assert main(["ks"] + [x for kv in args.items() for x in kv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1\n"


@pytest.mark.parametrize("command, flag", [("simulate", "d"), ("ks", "--d")])
def test_degree_above_n_is_usage_error(capsys, command, flag):
    # d/n is the edge probability: d > n is refused before any sampling
    assert main([command, "--n", "20", "--d", "100", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must lie in [0, ")


def test_classify(tmp_path, capsys):
    mfile = tmp_path / "p3.mat"
    mfile.write_text(P3_TEXT)
    assert main(["classify", "--matrix", str(mfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["frozen_columns"] == [1]
    assert payload["types"] == {"0": "Z", "1": "Y", "2": "Z"}
    assert abs(payload["census"]["y"] - 1 / 3) < 1e-15


@pytest.mark.parametrize("header", ["0 -3 F2", "-1 2 Q"])
def test_classify_refuses_a_negative_dimension(tmp_path, capsys, header):
    mfile = tmp_path / "neg.mat"
    mfile.write_text(header + "\n")
    assert main(["classify", "--matrix", str(mfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix header '{header}': dimensions must be >= 0\n"


def test_classify_matrix_without_rows(tmp_path, capsys):
    # a 0 x 3 matrix: every column is free, so the nullity is 3
    mfile = tmp_path / "empty.mat"
    mfile.write_text("0 3 F2\n")
    assert main(["classify", "--matrix", str(mfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["m"], payload["n"], payload["rank"], payload["nullity"]) == (0, 3, 0, 3)
    assert payload["frozen_columns"] == [] and payload["types"] == {}


def test_classify_resource_cap(tmp_path, capsys):
    # a rational matrix above 64 is classified like any other
    mfile = tmp_path / "big.mat"
    mfile.write_text(format_matrix(Matrix.identity(Q, 70)))
    assert main(["classify", "--matrix", str(mfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 70 and payload["frozen_columns"] == list(range(70))
    assert set(payload["types"].values()) == {"X"}


def test_simulate_dense_cap():
    # refused at validation, before any sampling or n x n allocation
    assert main(["simulate", "--n", "50000", "--d", "3", "--trials", "1"]) == 3
    assert main(["census", "--n", "50000", "--d", "3", "--P", "8", "--trials", "1"]) == 3


def test_census_caps(capsys):
    # a census over any field, Q included, is bounded by the dense cap alone
    for field, n in (("Q", 70), ("F2", 500)):
        assert main(["census", "--n", str(n), "--d", "2", "--field", field, "--P", "8",
                     "--trials", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["census", "--n", "5000", "--d", "2", "--field", "Q", "--P", "8",
                 "--trials", "1"]) == 3
    assert main(["census", "--n", "70", "--d", "2", "--field", "Q", "--P", "0",
                 "--trials", "1"]) == 2  # a bad P is a usage error
    # no theta exceeds the cap: a larger P is refused before any sampling
    harness.ExperimentConfig(n=3, d=1.0, field="F2", trials=1, master_seed=0,
                             pert_P=DENSE_CAP, census=True)
    assert main(["census", "--n", "3", "--d", "1", "--P", str(DENSE_CAP + 1),
                 "--trials", "1"]) == 3


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "analytic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(item["passed"] for item in payload)


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["transcend"])
    assert exc.value.code == 2


def test_commands_run_with_scipy_unimportable(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import frozenrank

    # None in sys.modules makes every `import scipy...` raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from frozenrank.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "runs = [['analytic', '--d-min', '0', '--d-max', '5', '--step', '2.5'],\n"
        "        ['verify', '--suite', 'analytic'],\n"
        "        ['simulate', '--n', '60', '--d', '2', '--trials', '2'],\n"
        "        ['census', '--n', '60', '--d', '2', '--P', '8', '--trials', '2']]\n"
        "for i, argv in enumerate(runs):\n"
        "    assert main(argv + ['--out', f'{out}/{i}.out']) == 0, argv\n"
        "print('ok')\n"
    )
    src = str(Path(frozenrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stdout.endswith("ok\n"), done.stderr
    assert all((tmp_path / f"{i}.out").stat().st_size > 0 for i in range(4))
