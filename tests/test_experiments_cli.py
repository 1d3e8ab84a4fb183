"""Experiment runner, plotting, and command-line entry point."""

import dataclasses
import importlib.metadata
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import circlewarp
from circlewarp import CorpusSpec, DerandConfig, experiments
from circlewarp.cli import main
from circlewarp.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    load_config,
    run_experiment,
)
from circlewarp.fourier import circ_dist, kernel_block_matrix
from circlewarp.plotting import emit_plot


# the keys a config's derand section takes: DerandConfig's settings
DERAND_KEYS = "ell_max, degrees, mc_check, mc_samples"


def _write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _checks_by_name(report):
    return {name: (value, bound, ok) for (name, value, bound, ok) in report.checks}


# --- configuration ----------------------------------------------------------------


def test_unknown_experiment_lists_valid_names():
    with pytest.raises(ValueError, match="valid experiments:") as err:
        ExperimentConfig("kernel-dekay")
    # the message should enumerate every dispatchable name
    for name in EXPERIMENTS:
        assert name in str(err.value)


def test_load_config_rejects_unknown_keys(tmp_path):
    p = _write_config(tmp_path / "c.json", {"experiment": "kernel-decay", "n_list": [4]})
    with pytest.raises(ValueError, match="unknown config keys: n_list"):
        load_config(p)


def test_load_config_requires_experiment_key(tmp_path):
    p = _write_config(tmp_path / "c.json", {"output_dir": "x"})
    with pytest.raises(ValueError, match="missing the 'experiment' key"):
        load_config(p)


def test_load_config_rejects_non_object(tmp_path):
    p = _write_config(tmp_path / "c.json", ["kernel-decay"])
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_config(p)


def test_format_aliases_canonicalized_and_deduped():
    cfg = ExperimentConfig("kernel-decay", formats=("svg-plot", "csv", "svg"))
    assert cfg.formats == ("svg", "csv")
    with pytest.raises(ValueError, match="unknown format"):
        ExperimentConfig("kernel-decay", formats=("pdf",))


def test_solver_options_restricted():
    cfg = ExperimentConfig(
        "signs-trend", solver={"block": 4, "retries": 8, "seed": 1, "lam": 0.25}
    )
    assert cfg.solver["block"] == 4
    with pytest.raises(ValueError, match="unknown solver option 'blok'"):
        ExperimentConfig("signs-trend", solver={"blok": 4})


@pytest.mark.parametrize(
    "solver, params, message",
    [
        ({"block": 1}, {}, "block must be an integer >= 2"),
        ({"block": True}, {}, "block must be an integer >= 2"),
        ({"block": 2.5}, {}, "block must be an integer >= 2"),
        ({"retries": 0}, {}, "retries must be an integer >= 1"),
        ({"retries": True}, {}, "retries must be an integer >= 1"),
        ({}, {"blocks": [4, 1]}, "block must be an integer >= 2"),
        ({}, {"blocks": [True]}, "block must be an integer >= 2"),
        ({}, {"blocks": 8}, "params blocks must be a nonempty list of block sizes"),
        ({}, {"blocks": []}, "params blocks must be a nonempty list of block sizes"),
        ({"lam": float("nan")}, {}, "lam must be a finite real"),
        ({"lam": float("inf")}, {}, "lam must be a finite real"),
        ({"lam": "0.5"}, {}, "lam must be a finite real"),
        ({"lam": True}, {}, "lam must be a finite real"),
        ({"seed": True}, {}, "solver seed must be an integer"),
        ({"seed": 1.5}, {}, "solver seed must be an integer"),
    ],
)
def test_solver_block_and_retries_rejected_up_front(solver, params, message):
    # block 1 never shrinks the merge groups, so the solve would not return;
    # retries 0 leaves a random block search (block > 12) no candidate; an
    # empty blocks list has no reference block to compare sizes at; a NaN
    # weight made every score NaN and the solve returned all +1
    with pytest.raises(ValueError, match=message):
        ExperimentConfig("signs-trend", solver=solver, params=params)


LIST_PARAMS = [
    (name, key)
    for name, exp in EXPERIMENTS.items()
    for key, default in exp.params.items()
    if isinstance(default, tuple)
]


@pytest.mark.parametrize("experiment, key", LIST_PARAMS, ids=["-".join(r) for r in LIST_PARAMS])
@pytest.mark.parametrize("value", [[], 2.0], ids=["empty", "scalar"])
def test_every_list_param_must_be_a_nonempty_list(experiment, key, value):
    # an empty p_list passed with no norm computed and an empty q_list
    # crashed in the plot; every list-valued key now meets one rule
    with pytest.raises(ValueError, match=f"params {key} must be a nonempty list of "):
        ExperimentConfig(experiment, params={key: value})


def test_unknown_params_rejected_with_valid_names():
    with pytest.raises(ValueError, match="unknown params for kernel-decay: nlist; valid: n_list"):
        ExperimentConfig("kernel-decay", params={"nlist": [4]})
    with pytest.raises(ValueError, match="valid: n_max, compose_m, r_max"):
        ExperimentConfig("derand-full", params={"n_max": 2, "rmax": 32})


def test_seeds_coerced_to_int_tuple():
    cfg = ExperimentConfig("df-stats", seeds=[3.0, 7])
    assert cfg.seeds == (3, 7)


@pytest.mark.parametrize("seed", [True, 2.5, "3", float("nan"), None])
def test_seeds_that_are_not_whole_numbers_rejected(seed):
    # int() would read True as seed 1, truncate 2.5 and parse "3"
    with pytest.raises(ValueError, match="seeds must be whole numbers"):
        ExperimentConfig("df-stats", seeds=[0, seed])


# counts that pass the count coercion but that the experiment cannot take:
# each raised only when the experiment met it, the derand-full degree limits
# only after the whole derand run
COUNTS_THE_EXPERIMENT_CANNOT_TAKE = [
    ("derand-full", {}, {"n_max": 0}, "n_max must be a positive integer"),
    ("derand-full", {}, {"n_max": 11}, r"n_max=11 too deep for a 2\*\*12 grid"),
    (
        "derand-full",
        {"corpus": {"kind": "oscillation", "params": {"n_cycles": 2}, "m": 8}},
        {"n_max": 7},
        r"n_max=7 too deep for a 2\*\*8 grid",
    ),
    ("derand-full", {}, {"r_max": 0}, "degrees must be a nonempty tuple of positive integers"),
    (
        "derand-full",
        {},
        {"compose_m": 8},
        r"partial sum of degree 512 needs a grid finer than 2\*\*8",
    ),
    ("derand-full", {}, {"compose_m": 27, "r_max": 2}, "grid exponent out of range: 27"),
    ("anorm-growth", {}, {"m": 0}, r"N=512 needs a grid finer than 2\*\*0"),
    ("anorm-growth", {}, {"m": 1}, r"N=512 needs a grid finer than 2\*\*1"),
    ("anorm-growth", {}, {"m": 2, "N_list": [16, 32]}, r"N=32 needs a grid finer than 2\*\*2"),
    ("anorm-growth", {}, {"m": 10}, r"N=512 needs a grid finer than 2\*\*10 \(N <= 2\*\*\(m-2\)\)"),
    ("psi-q-certificates", {}, {"depth": 0}, "depth must be a positive integer"),
    ("ac-diagnostics", {}, {"depth": 0}, "depth must be a positive integer"),
    ("df-stats", {}, {"coupling_depth": 0}, "depth must be a positive integer"),
]


@pytest.mark.parametrize(
    "experiment, sections, params, message",
    COUNTS_THE_EXPERIMENT_CANNOT_TAKE,
    ids=[
        "-".join([experiment, *(f"{k}{v}" for k, v in params.items())])
        for experiment, _, params, _ in COUNTS_THE_EXPERIMENT_CANNOT_TAKE
    ],
)
def test_load_config_rejects_counts_the_experiment_cannot_take(
    tmp_path, experiment, sections, params, message
):
    path = _write_config(
        tmp_path / "c.json", {"experiment": experiment, **sections, "params": params}
    )
    with pytest.raises(ValueError, match=f"params of {experiment}: {message}"):
        load_config(path)


def test_load_config_builds_corpus_and_defaults(tmp_path):
    p = _write_config(
        tmp_path / "c.json",
        {
            "experiment": "ac-diagnostics",
            "corpus": {"kind": "oscillation", "params": {"n_cycles": 4}, "m": 12},
            "seeds": [0, 1],
        },
    )
    cfg = load_config(p)
    assert cfg.corpus.kind == "oscillation"
    assert cfg.corpus.m == 12
    assert cfg.seeds == (0, 1)
    assert cfg.formats == ("csv", "json", "svg")  # full defaulting


@pytest.mark.parametrize(
    "corpus, message",
    [
        ({"kind": "oscillation", "params": [1, 2]}, "params must deserialize to a mapping"),
        ({"params": {"n_cycles": 4}}, "with a 'kind' key"),
        ("oscillation", "with a 'kind' key"),
    ],
    ids=["params-list", "no-kind", "not-object"],
)
def test_load_config_checks_corpus_shape(tmp_path, corpus, message):
    p = _write_config(tmp_path / "c.json", {"experiment": "ac-diagnostics", "corpus": corpus})
    with pytest.raises(ValueError, match=message):
        load_config(p)


def test_load_config_rejects_unknown_corpus_keys(tmp_path):
    p = _write_config(
        tmp_path / "c.json",
        {
            "experiment": "ac-diagnostics",
            "corpus": {"kind": "oscillation", "prams": {"n_cycles": 4}, "mm": 10},
        },
    )
    with pytest.raises(ValueError, match="unknown corpus keys: prams, mm; valid: kind, params, m"):
        load_config(p)


def test_load_config_rejects_unknown_derand_keys(tmp_path):
    p = _write_config(
        tmp_path / "c.json", {"experiment": "derand-full", "derand": {"solver_block": 4}}
    )
    with pytest.raises(ValueError, match=f"unknown derand keys: solver_block; valid: {DERAND_KEYS}$"):
        load_config(p)


def test_readme_configs_load(tmp_path):
    # a documented config that names a removed key would fail a reader's run
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```json\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert any('"derand"' in block for block in blocks)
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.json"
        path.write_text(block)
        load_config(path)


def test_load_config_rejects_non_object_derand(tmp_path):
    p = _write_config(tmp_path / "c.json", {"experiment": "derand-full", "derand": [2]})
    with pytest.raises(ValueError, match="derand must be a JSON object"):
        load_config(p)


@pytest.mark.parametrize(
    "experiment, section, value, valid",
    [
        ("derand-full", "solver", {"block": 4}, "corpus, derand"),
        ("kernel-decay", "seeds", [1, 2], "none"),
        ("anorm-growth", "derand", {"ell_max": 2}, "none"),
        ("signs-trend", "corpus", {"kind": "oscillation"}, "solver, seeds"),
        ("df-stats", "solver", {"lam": 0.25}, "seeds"),
        ("ac-diagnostics", "derand", {"mc_check": False}, "corpus, seeds"),
    ],
)
def test_load_config_rejects_sections_the_experiment_does_not_read(
    tmp_path, experiment, section, value, valid
):
    p = _write_config(tmp_path / "c.json", {"experiment": experiment, section: value})
    with pytest.raises(
        ValueError, match=f"sections {experiment} does not read: {section}; valid: {valid}$"
    ):
        load_config(p)


def test_empty_sections_are_valid_for_every_experiment():
    for name in EXPERIMENTS:
        cfg = ExperimentConfig(name, corpus=None, solver={}, derand=None, seeds=())
        assert (cfg.solver, cfg.seeds) == ({}, ())


# --- run_experiment ---------------------------------------------------------------


def _kernel_cfg(out, n_list=(4, 8), formats=("csv", "json", "svg-plot")):
    return ExperimentConfig(
        "kernel-decay", output_dir=str(out), formats=formats, params={"n_list": list(n_list)}
    )


def test_kernel_decay_reads_whole_float_sizes(tmp_path):
    # 4.0 went through the config as given, and range(4.0) raised TypeError
    rep = run_experiment(_kernel_cfg(tmp_path, n_list=(4.0,), formats=("csv",)))
    assert rep.passed
    assert (tmp_path / "kernel_decay_n4.csv").exists()


def test_kernel_decay_tables_and_thresholds(tmp_path):
    rep = run_experiment(_kernel_cfg(tmp_path))
    assert rep.passed
    checks = _checks_by_name(rep)
    value, bound, ok = checks["decay_constant_max"]
    assert ok and value <= bound == 4.0
    gap, gap_bound, gap_ok = checks["row_sum_gap_max"]
    assert gap_ok and gap <= gap_bound == 1e-8

    # one table per degree with n^2 data rows
    for n in (4, 8):
        lines = (tmp_path / f"kernel_decay_n{n}.csv").read_text().splitlines()
        assert lines[0] == "k,j,integral,weighted"
        assert len(lines) == 1 + n * n
    summary = (tmp_path / "kernel_decay_summary.csv").read_text().splitlines()
    assert summary[0] == "n,decay_constant,row_sum_gap"
    assert [row.split(",")[0] for row in summary[1:]] == ["4", "8"]

    # the reported constant is the max of the per-entry weighted column
    weighted = []
    for n in (4, 8):
        for row in (tmp_path / f"kernel_decay_n{n}.csv").read_text().splitlines()[1:]:
            weighted.append(float(row.split(",")[3]))
    assert max(weighted) == pytest.approx(value, rel=1e-9)


def test_kernel_decay_table_streams_to_disk(tmp_path):
    # the n=256 table is 2.8 MB of text; built as one list of lines and
    # joined it traced a 12.0 MB peak, streamed line by line 51 kB
    n = 256
    mat = kernel_block_matrix(n)
    kk, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    weighted = np.abs(mat) * (circ_dist(kk, jj, n) + 1.0)
    header = ("k", "j", "integral", "weighted")
    path = str(tmp_path / "kernel_decay_n256.csv")
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        experiments._write_csv(path, header, experiments._entry_rows(mat, weighted))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 1e6
    # the bytes the joined lines gave
    lines = [",".join(header)]
    lines += [",".join(f"{c:.12g}" for c in row) for row in experiments._entry_rows(mat, weighted)]
    assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode()


def test_provenance_files_always_written(tmp_path):
    run_experiment(_kernel_cfg(tmp_path, n_list=(4,)))
    echo = json.loads((tmp_path / "config_echo.json").read_text())
    assert echo["experiment"] == "kernel-decay"
    assert echo["formats"] == ["svg", "csv", "json"] or set(echo["formats"]) == {
        "svg",
        "csv",
        "json",
    }
    version = (tmp_path / "version.txt").read_text()
    assert version.startswith("circlewarp ")


def test_version_txt_names_numpy_and_cpu_count(tmp_path, monkeypatch):
    run_experiment(_kernel_cfg(tmp_path / "affinity", n_list=(4,)))
    lines = (tmp_path / "affinity" / "version.txt").read_text().splitlines()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert lines[0].startswith("circlewarp ")
    assert lines[1:] == [f"numpy {np.__version__}", f"nproc {nproc}"]
    # where the affinity mask cannot be read, the count is os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_experiment(_kernel_cfg(tmp_path / "count", n_list=(4,)))
    assert (tmp_path / "count" / "version.txt").read_text().splitlines()[2] == "nproc 3"


def test_report_json_written_only_when_requested(tmp_path):
    a = tmp_path / "with_json"
    b = tmp_path / "without_json"
    run_experiment(_kernel_cfg(a, n_list=(4,), formats=("csv", "json")))
    run_experiment(_kernel_cfg(b, n_list=(4,), formats=("csv",)))
    assert json.loads((a / "report.json").read_text())["passed"] is True
    assert not (b / "report.json").exists()
    assert not list(b.glob("*.svg"))


def test_plot_needs_both_svg_and_csv(tmp_path):
    # svg alone cannot be honored: there is no table to render
    run_experiment(_kernel_cfg(tmp_path, n_list=(4,), formats=("svg",)))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["config_echo.json", "version.txt"]


def test_plot_emitted_alongside_tables(tmp_path):
    rep = run_experiment(_kernel_cfg(tmp_path, n_list=(4,)))
    assert (tmp_path / "kernel_decay_summary.svg").exists()
    assert str(tmp_path / "kernel_decay_summary.svg") in rep.outputs


def test_same_config_gives_byte_identical_tables(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(_kernel_cfg(a))
    run_experiment(_kernel_cfg(b))
    for name in ("kernel_decay_n4.csv", "kernel_decay_n8.csv", "kernel_decay_summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_tables_write_whole_numbers_exactly(tmp_path):
    # every cell that is not a float was written to 12 significant digits
    # as well: seeds of 10**12 and more came out as 1e+12 and -1e+13
    seeds = (10**12 + 3, -(10**13) - 7)
    run_experiment(ExperimentConfig("df-stats", seeds=seeds, output_dir=str(tmp_path)))
    lines = (tmp_path / "df_stats.csv").read_text().splitlines()
    assert lines[0] == "seed,phi_half"
    assert tuple(int(line.split(",")[0]) for line in lines[1:]) == seeds


def test_env_var_supplies_default_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("CIRCLEWARP_OUT", str(env_dir))
    run_experiment(_kernel_cfg("", n_list=(4,)))
    assert (env_dir / "kernel_decay_summary.csv").exists()

    # an explicit output_dir still wins over the environment
    explicit = tmp_path / "explicit"
    run_experiment(_kernel_cfg(explicit, n_list=(4,)))
    assert (explicit / "kernel_decay_summary.csv").exists()
    assert not (env_dir / "kernel_decay_n8.csv").exists()


def test_ac_diagnostics_pass_and_threshold_failure(tmp_path):
    ok = run_experiment(
        ExperimentConfig("ac-diagnostics", seeds=(0,), output_dir=str(tmp_path / "ok"))
    )
    assert ok.passed
    checks = _checks_by_name(ok)
    assert checks["worst_growth_ratio"][0] <= 1.1
    header = (tmp_path / "ok" / "ac_diagnostics.csv").read_text().splitlines()[0]
    assert header == "seed,p,level,norm"

    # at depth 10 the coarse windows blow past the growth tolerance
    bad = run_experiment(
        ExperimentConfig(
            "ac-diagnostics",
            seeds=(0, 1, 2, 3),
            output_dir=str(tmp_path / "bad"),
            params={"depth": 10},
        )
    )
    assert not bad.passed
    assert not _checks_by_name(bad)["worst_growth_ratio"][2]


def test_signs_trend_solves_once_per_size_when_seeds_are_inert(tmp_path, monkeypatch):
    # K=4 searches every block exhaustively, so its seeds are inert; K=13
    # draws random candidates, so each seed gets its own solve
    solver = {"retries": 8, "lam": 0.5}
    calls = []
    real = experiments.solve_hierarchical
    monkeypatch.setattr(
        experiments, "solve_hierarchical", lambda *a: calls.append(a[1:4]) or real(*a)
    )
    cfg = ExperimentConfig(
        "signs-trend",
        solver=solver,
        seeds=(0, 1, 2),
        output_dir=str(tmp_path),
        params={"n_list": [16, 32], "blocks": [4, 13]},
    )
    rep = run_experiment(cfg)
    assert sorted(calls) == sorted(
        [(4, 8, 0)] * 2 + [(13, 8, s) for s in (0, 1, 2) for _ in range(2)]
    )
    lines = ["n,solver,K,seed,discrepancy"]
    for n in (16, 32):
        v = experiments.build_synthetic_matrix(n, "exact_decay")
        for K in (4, 13):
            for s in (0, 1, 2):
                d = experiments.row_discrepancy(v, real(v, K, 8, s, 0.5))
                lines.append(f"{n},hierarchical,{K},{s},{d:.12g}")
    assert (tmp_path / "signs_trend.csv").read_text() == "\n".join(lines) + "\n"
    assert len(rep.notes) == 1 and rep.notes[0].startswith("K=4:")
    assert "seeds are inert" in rep.notes[0]
    assert json.loads((tmp_path / "report.json").read_text())["notes"] == list(rep.notes)


def test_growth_ratio_check_fails_just_above_its_bound(tmp_path, monkeypatch):
    real = experiments.ac_diagnostics

    def nudged(h, p_list):
        rep = real(h, p_list)
        return dataclasses.replace(rep, worst_ratio=float(np.nextafter(1.1, 2.0)))

    monkeypatch.setattr(experiments, "ac_diagnostics", nudged)
    rep = run_experiment(
        ExperimentConfig("ac-diagnostics", seeds=(0,), output_dir=str(tmp_path))
    )
    value, bound, ok = _checks_by_name(rep)["worst_growth_ratio"]
    assert value > bound == 1.1
    assert not ok and not rep.passed


@pytest.mark.parametrize(
    "formats, written, absent",
    [
        (("csv",), ["deviations.csv"], ["manifest.json", "homeo.json"]),
        (("json",), ["manifest.json", "homeo.json"], ["deviations.csv"]),
    ],
    ids=["csv", "json"],
)
def test_derand_full_honours_formats(tmp_path, formats, written, absent):
    rep = run_experiment(
        ExperimentConfig(
            "derand-full",
            corpus=CorpusSpec("oscillation", {"n_cycles": 2}, 8),
            derand=DerandConfig(mc_check=False, ell_max=2),
            params={"n_max": 2, "compose_m": 9, "r_max": 32},
            output_dir=str(tmp_path),
            formats=formats,
        )
    )
    assert [os.path.basename(p) for p in rep.outputs[: len(written)]] == written
    for name in absent:
        assert not (tmp_path / name).exists()


# --- plotting ---------------------------------------------------------------------


def _table(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.mark.parametrize("kind", ["table", "plot"])
def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, kind):
    src = _table(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        if kind == "table":
            experiments._write_csv(str(tmp_path / "u.csv"), ("a", "b"), [(1, 2.5)])
        else:
            emit_plot(src, "line")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_line_plot_labels_axes_from_headers(tmp_path):
    src = _table(tmp_path / "two.csv", "step,height\n1,0.5\n2,0.75\n3,0.875\n")
    out = emit_plot(src, "line")
    assert out == str(tmp_path / "two.svg")
    svg = open(out).read()
    assert "<polyline" in svg
    assert ">step<" in svg and ">height<" in svg


def test_plot_output_deterministic(tmp_path):
    src = _table(tmp_path / "two.csv", "step,height\n1,0.5\n2,0.75\n")
    first = open(emit_plot(src, "line"), "rb").read()
    second = open(emit_plot(src, "line"), "rb").read()
    assert first == second


def test_empty_table_rejected_without_output(tmp_path):
    src = _table(tmp_path / "empty.csv", "a,b\n")
    with pytest.raises(ValueError, match="has no data rows"):
        emit_plot(src, "line")
    assert not (tmp_path / "empty.svg").exists()


def test_ragged_table_rejected(tmp_path):
    src = _table(tmp_path / "ragged.csv", "a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="ragged rows"):
        emit_plot(src, "line")


def test_line_plot_needs_two_numeric_columns(tmp_path):
    src = _table(tmp_path / "one.csv", "name,val\nfoo,1\nbar,2\n")
    with pytest.raises(ValueError, match="two distinct numeric columns"):
        emit_plot(src, "line")


def test_heatmap_draws_cells(tmp_path):
    src = _table(tmp_path / "heat.csv", "x,y,val\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,4.0\n")
    svg = open(emit_plot(src, "heatmap")).read()
    assert "<rect" in svg
    assert "val" in svg  # legend mentions the value column


def test_plot_kind_validated(tmp_path):
    src = _table(tmp_path / "two.csv", "a,b\n1,2\n")
    with pytest.raises(ValueError, match="kind must be"):
        emit_plot(src, "pie")


# --- command line -----------------------------------------------------------------


def test_cli_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(EXPERIMENTS)


def test_cli_run_pass_exit_zero(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "kd.json",
        {
            "experiment": "kernel-decay",
            "output_dir": str(tmp_path / "out"),
            "params": {"n_list": [4]},
        },
    )
    assert main(["run", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["experiment"] == "kernel-decay"


def test_cli_run_threshold_failure_exit_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "fail.json",
        {
            "experiment": "ac-diagnostics",
            "output_dir": str(tmp_path / "out"),
            "seeds": [0, 1, 2, 3],
            "params": {"depth": 10},
        },
    )
    assert main(["run", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_cli_run_config_error_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "bad.json", {"experiment": "no-such-thing"})
    assert main(["run", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_run_unknown_params_exit_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "typo.json",
        {
            "experiment": "kernel-decay",
            "output_dir": str(tmp_path / "out"),
            "params": {"nlist": [4]},
        },
    )
    assert main(["run", cfg]) == 2
    assert "config error: unknown params for kernel-decay: nlist" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_unknown_corpus_keys_exit_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "typo.json",
        {
            "experiment": "ac-diagnostics",
            "output_dir": str(tmp_path / "out"),
            "corpus": {"kind": "oscillation", "mm": 10},
        },
    )
    assert main(["run", cfg]) == 2
    assert "config error: unknown corpus keys: mm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "corpus, message",
    [
        (
            {"kind": "oscillation", "params": {"n_cycles": 4, "gamma": "0.5"}},
            "corpus oscillation: gamma must lie strictly inside (0, 1)",
        ),
        (
            {"kind": "oscillation", "params": {"n_cycles": 4, "convention": "literal"}},
            "corpus oscillation: bad parameters for corpus kind 'oscillation'",
        ),
        ({"kind": "rademacher", "params": {"rank": 9}, "m": 8}, "corpus rademacher: need m >= 11"),
    ],
    ids=["gamma string", "removed convention", "rank past the grid"],
)
def test_cli_run_bad_corpus_params_exit_two(tmp_path, capsys, corpus, message):
    # the corpus was built, and its parameters read, only once the run had
    # begun: a traceback and exit 1
    cfg = _write_config(
        tmp_path / "bad.json",
        {"experiment": "ac-diagnostics", "output_dir": str(tmp_path / "out"), "corpus": corpus},
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_run_unknown_derand_keys_exit_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "typo.json",
        {
            "experiment": "derand-full",
            "output_dir": str(tmp_path / "out"),
            "derand": {"solver_block": 4},
        },
    )
    assert main(["run", cfg]) == 2
    assert "config error: unknown derand keys: solver_block; valid: ell_max" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


def test_cli_run_unread_section_exit_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "unread.json",
        {
            "experiment": "derand-full",
            "output_dir": str(tmp_path / "out"),
            "solver": {"block": 4},
        },
    )
    assert main(["run", cfg]) == 2
    assert "config error: sections derand-full does not read: solver" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, params, message",
    [
        ("ac-diagnostics", {"p_list": []}, "p_list must be a nonempty list of finite reals"),
        ("ac-diagnostics", {"p_list": [0.5]}, "p_list must be a nonempty list of finite reals"),
        ("ac-diagnostics", {"depth": 1}, "depth must be at least 2"),
        ("psi-q-certificates", {"q_list": []}, "q_list must be a nonempty list of budgets"),
        ("psi-q-certificates", {"q_list": [1.5]}, "constant budget must be a real number in"),
        ("anorm-growth", {"N_list": [64]}, "N_list must be a list of at least two distinct"),
        ("signs-trend", {"n_list": [64, 64]}, "n_list must be a list of at least two distinct"),
        ("iid-vs-hierarchical", {"n_list": [512]}, "n_list must be a list of at least two distinct"),
    ],
    ids=[
        "empty p_list",
        "p below 1",
        "one level",
        "empty q_list",
        "q above 1",
        "one anorm size",
        "one signs-trend size twice",
        "one iid size",
    ],
)
def test_cli_run_bad_value_lists_exit_two(tmp_path, capsys, experiment, params, message):
    # an empty p_list passed with no norm computed, an empty q_list crashed
    # in the plot, and the other values failed only once the work had begun;
    # one size passed anorm-growth's and signs-trend's trend checks without
    # a trend to show, and failed iid-vs-hierarchical's only after its solves
    cfg = _write_config(
        tmp_path / "bad.json",
        {"experiment": experiment, "output_dir": str(tmp_path / "out"), "params": params},
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"output_dir": 5}, "output_dir must be a string"),
        ({"formats": "csv"}, "formats must be a list of names"),
        ({"derand": {"mc_check": "false"}}, "mc_check must be true or false"),
        ({"derand": {"mc_check": None}}, "mc_check must be true or false"),
        ({"derand": {"mc_check": 0}}, "mc_check must be true or false"),
        ({"derand": {"ell_max": "6"}}, "ell_max must be a nonnegative integer"),
        # a tolerance is a constant, not a setting, whatever its value
        ({"derand": {"row_tol": "1e-6"}}, f"unknown derand keys: row_tol; valid: {DERAND_KEYS}"),
        ({"derand": {"row_tol": True}}, f"unknown derand keys: row_tol; valid: {DERAND_KEYS}"),
        ({"experiment": ["kernel-decay"]}, "unknown experiment ['kernel-decay']; valid experiments: "),
        ({"corpus": {"kind": ["oscillation"]}}, "unknown corpus kind ['oscillation']; valid kinds: "),
        ({"corpus": {"kind": {"a": 1}}}, "unknown corpus kind {'a': 1}; valid kinds: "),
        ({"seeds": 5}, "seeds must be a list of whole numbers"),
        ({"seeds": "12"}, "seeds must be a list of whole numbers"),
        ({"solver": [1]}, "solver must be a JSON object"),
        ({"params": [1]}, "params must be a JSON object"),
    ],
    ids=["numeric output_dir", "formats string", "mc_check string", "mc_check null",
         "mc_check 0", "ell_max string", "row_tol string", "row_tol true", "experiment list",
         "corpus kind list", "corpus kind object", "seeds number", "seeds string",
         "solver list", "params list"],
)
def test_cli_run_values_of_the_wrong_type_exit_two(tmp_path, capsys, keys, message):
    # a numeric output_dir failed in os.makedirs with a TypeError and exit 1,
    # "csv" was split into letters and reported as unknown format 'c',
    # "false" ran the Monte-Carlo guard and null skipped it without a word;
    # a list or an object as a name failed as "unhashable type", naming no
    # valid name; a number of seeds failed as "'int' object is not iterable",
    # a string of seeds was read letter by letter, and a list as the solver
    # or params section failed as "cannot convert dictionary update sequence"
    out = keys.get("output_dir", str(tmp_path / "out"))
    cfg = _write_config(
        tmp_path / "bad.json", {"experiment": "derand-full", **keys, "output_dir": out}
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_run_missing_config_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_numerical_alarm_exit_one(tmp_path, capsys, monkeypatch):
    # a zero tolerance trips the averaging-identity alarm immediately
    monkeypatch.setattr(DerandConfig, "identity_tol", 0.0)
    cfg = _write_config(
        tmp_path / "alarm.json",
        {
            "experiment": "derand-full",
            "corpus": {"kind": "oscillation", "params": {"n_cycles": 2}, "m": 8},
            "params": {"n_max": 3, "compose_m": 9, "r_max": 32},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "numerical alarm in derand-full" in err
    assert "residual" in err


def test_cli_output_dir_flag_overrides_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "kd.json",
        {
            "experiment": "kernel-decay",
            "output_dir": str(tmp_path / "from_config"),
            "params": {"n_list": [4]},
            "formats": ["csv"],
        },
    )
    override = tmp_path / "from_flag"
    assert main(["run", cfg, "--output-dir", str(override)]) == 0
    capsys.readouterr()
    assert (override / "kernel_decay_summary.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_cli_plot_prints_svg_path(tmp_path, capsys):
    src = _table(tmp_path / "t.csv", "a,b\n1,2\n3,4\n")
    assert main(["plot", src]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "t.svg")

    assert main(["plot", str(tmp_path / "missing.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_errors_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def _pyproject_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib arrived in 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _run_cli(cmd, *args):
    # Put the package under test first on the child's path, as an absolute
    # directory, so the child runs this code whatever its working directory
    # and whether or not a copy is installed.
    package_root = str(Path(circlewarp.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return subprocess.run(
        [*cmd, *args], capture_output=True, text=True, timeout=60, env=env
    )


def _assert_cli_process(cmd, tmp_path):
    proc = _run_cli(cmd, "list")
    assert proc.returncode == 0, proc.stderr
    assert "kernel-decay" in proc.stdout.splitlines()

    # a nonzero code from main() must reach the process exit status
    proc = _run_cli(cmd, "run", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


def test_cli_process_reports_bad_corpus_params(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        {"experiment": "ac-diagnostics", "corpus": {"kind": "oscillation", "params": [1, 2]}},
    )
    proc = _run_cli([sys.executable, "-m", "circlewarp.cli"], "run", cfg)
    assert proc.returncode == 2
    assert "config error: corpus params must deserialize to a mapping" in proc.stderr


def test_cli_process_rejects_a_count_the_experiment_cannot_take(tmp_path):
    # the derand run would finish before the compose grid met r_max
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "experiment": "derand-full",
            "params": {"compose_m": 8},
            "output_dir": str(tmp_path / "out"),
        },
    )
    proc = _run_cli([sys.executable, "-m", "circlewarp.cli"], "run", cfg)
    assert proc.returncode == 2
    assert "config error: params of derand-full: partial sum of degree 512" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_process_rejects_derand_degrees_the_corpus_grid_cannot_resolve(tmp_path):
    # run would resolve the degrees only once it started
    cfg = _write_config(
        tmp_path / "c.json",
        {
            "experiment": "derand-full",
            "derand": {"degrees": [5000]},
            "output_dir": str(tmp_path / "out"),
        },
    )
    proc = _run_cli([sys.executable, "-m", "circlewarp.cli"], "run", cfg)
    assert proc.returncode == 2
    assert (
        "config error: params of derand-full: partial sum of degree 5000 "
        "needs a grid finer than 2**12"
    ) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_console_script_installed(tmp_path):
    # the console script generated from [project.scripts] calls
    # sys.exit(circlewarp.cli.main()), which is what `python -m circlewarp.cli`
    # does through the module's __main__ block
    assert _pyproject_scripts()["circlewarp"] == "circlewarp.cli:main"
    _assert_cli_process([sys.executable, "-m", "circlewarp.cli"], tmp_path)


def _distribution_installed():
    try:
        importlib.metadata.distribution("circlewarp")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _distribution_installed(), reason="circlewarp distribution not installed"
)
def test_console_script_on_path(tmp_path):
    scripts = importlib.metadata.distribution("circlewarp").entry_points.select(
        group="console_scripts", name="circlewarp"
    )
    assert [ep.value for ep in scripts] == ["circlewarp.cli:main"]
    _assert_cli_process(["circlewarp"], tmp_path)
