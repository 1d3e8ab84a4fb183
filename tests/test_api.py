"""The public surface: every exported name resolves, and so does every name
the benchmark scripts in bench/ import from the package. Every count, rank,
depth, degree and seed the package reads passes one whole-number check,
every real-valued budget, tolerance and corpus parameter one real-number
check, and every array of samples, breakpoints, budgets, signs or
coefficients one array check."""

import ast
import dataclasses
import hashlib
import importlib
import json
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import circlewarp
from circlewarp import (
    ConfinementMap,
    CorpusSpec,
    DerandConfig,
    DerandState,
    DFParams,
    ac_diagnostics,
    DyadicPoint,
    ExperimentConfig,
    SampledFunction,
    build_synthetic_matrix,
    confinement_map,
    compose,
    coeffs,
    dirichlet_kernel,
    fejer_blocks,
    haar_inverse,
    haar_transform,
    homeo_from_json,
    homeo_to_json,
    identity_homeo,
    kernel_block_matrix,
    ks_uniform_statistic,
    oscillation,
    partial_sum,
    perturbed_square_wave,
    PLHomeo,
    rademacher,
    resonant_packets,
    run,
    sample_df,
    sample_psi_q,
    SignMatrix,
    SignVector,
    solve_hierarchical,
    solve_iid,
    sup_partial_sums,
)
from circlewarp.fourier import FourierCoeffs, kernel_block_integral
from circlewarp.rng import rank_uniforms, tagged_generator

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ["circlewarp"] + [
    f"circlewarp.{info.name}" for info in pkgutil.iter_modules(circlewarp.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def bench_imports():
    """(file, module, name) for every import of the package in bench/*.py;
    name is None for a plain `import circlewarp...`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "circlewarp":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "circlewarp"
                ]
    return found


def test_bench_imports_resolve():
    imports = bench_imports()
    assert imports, "no import of circlewarp found under bench/"
    missing = []
    for fname, module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append((fname, module, name))
            continue
        if name is not None and not hasattr(mod, name):
            # `from circlewarp import fourier` names a submodule
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append((fname, module, name))
    assert not missing, f"bench/ imports that no longer resolve: {missing}"


def test_bench_config_reads_resolve():
    """bench/warp.py reads settings and constants off `cfg = DerandConfig()`;
    each name it reads must still be an attribute of a default config."""
    from circlewarp import DerandConfig

    path = BENCH / "warp.py"
    names = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
    }
    assert "q_floor_exponent" in names, "no cfg.<name> read found in bench/warp.py"
    cfg = DerandConfig()
    missing = sorted(name for name in names if not hasattr(cfg, name))
    assert not missing, f"bench/warp.py reads DerandConfig names that do not resolve: {missing}"


# __all__ names that no module under src/circlewarp or bench/ uses, each kept
# because tests compare against it
UNUSED_EXPORTS = {
    "coeffs_naive": "the O(N^2) DFT that tests check the FFT coefficients against",
    "kernel_block_integral": "the quadrature of one kernel entry that tests check the block matrix against",
    "solve_bruteforce": "the exact sign optimum that tests check the hierarchical solver against",
    "partial_sum": "one S_r f, the reference for sup_partial_sums and the packet tests",
    "dirichlet_kernel": "the closed-form kernel, checked against its defining sum and integral",
    "haar_inverse": "the inverse transform of the Haar round-trip tests",
    "homeo_from_json": "the reader of the homeo.json round-trip tests",
}


def test_every_unused_export_is_a_test_reference():
    """Module-level names only: a public member that nothing reads is a
    review matter. A name counts as used wherever it appears as a name, an
    attribute or an import in src/circlewarp (but for __init__.py) or bench/."""
    src = Path(circlewarp.__file__).resolve().parent
    files = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    exported, used = set(), set()
    for path in files + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    assert exported - used == set(UNUSED_EXPORTS)


def checks_outside_helper(helper, checks):
    """The nodes checks(tree) yields over src/circlewarp: how many lie inside
    grid.<helper>, and the file:line of every other."""
    src = Path(circlewarp.__file__).resolve().parent
    inside, outside = 0, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = set()
        if path.name == "grid.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == helper:
                    nodes = {id(n) for n in ast.walk(node)}
        for node in checks(tree):
            if id(node) in nodes:
                inside += 1
            else:
                outside.append(f"{path.name}:{node.lineno}")
    return inside, outside


def test_whole_number_checks_live_in_one_helper():
    """type(x) is int, isinstance(x, int) and numbers.Integral appear in
    src/circlewarp only inside grid._whole."""

    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def checks(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
                call = node.left
                if isinstance(call.func, ast.Name) and call.func.id == "type":
                    if any(isinstance(op, ast.Is) for op in node.ops) and any(
                        is_int(c) for c in node.comparators
                    ):
                        yield node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "isinstance" and len(node.args) == 2:
                    kinds = node.args[1]
                    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                    if any(is_int(k) for k in kinds):
                        yield node
            elif isinstance(node, ast.Attribute) and node.attr == "Integral":
                yield node

    inside, outside = checks_outside_helper("_whole", checks)
    assert not outside, f"whole-number checks outside grid._whole: {outside}"
    assert inside, "grid._whole holds no whole-number check"


def test_real_number_checks_live_in_one_helper():
    """numbers.Real, or a Real imported by name, appears in src/circlewarp
    only inside grid._real: every other real-valued input is read there."""

    def checks(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "Real":
                yield node
            elif isinstance(node, ast.Name) and node.id == "Real":
                yield node
            elif isinstance(node, ast.ImportFrom) and any(a.name == "Real" for a in node.names):
                yield node

    inside, outside = checks_outside_helper("_real", checks)
    assert not outside, f"real-number checks outside grid._real: {outside}"
    assert inside, "grid._real holds no real-number check"


def test_array_checks_live_in_one_helper():
    """setflags appears in src/circlewarp only inside grid._handed, which
    grid._array calls for every array input it reads: every read-only
    array is made there."""

    def checks(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "setflags":
                yield node

    inside, outside = checks_outside_helper("_handed", checks)
    assert not outside, f"read-only arrays made outside grid._handed: {outside}"
    assert inside, "grid._handed makes no array read-only"


ENGINES = ("_window", "_quadrature", "_sampler")
DERAND_ALL = [
    "NumericalAlarm",
    "DeviationRecord",
    "DerandConfig",
    "DerandState",
    "RunResult",
    "default_degrees",
    "assemble_v_matrix",
    "expected_composition",
    "mc_cross_check",
    "choose_halves",
    "advance",
    "run",
    "record_shape_check",
]


def test_derand_is_a_pipeline_over_three_engines():
    """The engine modules import neither each other nor derand, and none of
    them raises NumericalAlarm or reads a tolerance: derand alone gates. No
    engine, nor the tables they share, names a config: a profile depends on
    the state alone. derand's public names are the pipeline's 13."""
    src = Path(circlewarp.__file__).resolve().parent
    for engine in (*ENGINES, "_pltable"):
        tree = ast.parse((src / f"{engine}.py").read_text())
        imported, names = set(), set()
        for node in ast.walk(tree):
            # every part of a dotted module path, and every name imported
            # from one, so `from . import derand` counts as well
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(part for a in node.names for part in a.name.split("."))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        forbidden = {"derand", *ENGINES} - {engine}
        assert not imported & forbidden, f"{engine} imports {sorted(imported & forbidden)}"
        gates = {"NumericalAlarm", "identity_tol", "row_tol", "null_tol"}
        assert not names & gates, f"{engine} reads {sorted(names & gates)}"
        configs = {"DerandConfig", "value_plan", "cfg", "config"}
        assert not (names | imported) & configs, f"{engine} names {sorted((names | imported) & configs)}"
    assert importlib.import_module("circlewarp.derand").__all__ == DERAND_ALL


F6 = SampledFunction.from_callable(6, lambda t: np.sin(2 * np.pi * t) * np.cos(6 * np.pi * t))
V16 = build_synthetic_matrix(16, "random_signs_decay", seed=2)
HAAR2 = haar_transform(SampledFunction(2, np.arange(4.0)))
Q6 = confinement_map(F6).with_floor()


def rank_state(n_active, ell=0):
    """A rank-n_active state over four cells, valid at n_active = 3."""
    y = np.linspace(0.0, 1.0, 5)
    q = confinement_map(F6).with_floor()
    return DerandState(F6, q, n_active, ell, y, y[:-1] + 0.05, y[1:] - 0.05)


def params_row(experiment, key):
    return lambda x: ExperimentConfig(experiment, params={key: x})


# (public call, argument): the call on a value of the argument, and the
# message it raises for a value that is no whole number in range
WHOLE_ARGUMENTS = {
    ("DerandConfig", "ell_max"): (lambda x: DerandConfig(ell_max=x), "ell_max must be"),
    ("DerandConfig", "mc_samples"): (lambda x: DerandConfig(mc_samples=x), "mc_samples must be"),
    ("DerandConfig", "degrees"): (lambda x: DerandConfig(degrees=(1, x)), "degrees must be"),
    ("DerandState", "n_active"): (rank_state, "active rank out of range"),
    ("DerandState", "ell"): (lambda x: rank_state(3, x), "ell must be a nonnegative"),
    ("run", "n_max"): (
        lambda x: run(F6, x, DerandConfig(mc_check=False, ell_max=1)),
        "n_max must be a positive integer",
    ),
    ("solve_hierarchical", "block"): (lambda x: solve_hierarchical(V16, x), "block must be"),
    ("solve_hierarchical", "retries"): (
        lambda x: solve_hierarchical(V16, 16, x),
        "retries must be",
    ),
    ("solve_hierarchical", "seed"): (
        lambda x: solve_hierarchical(V16, 16, 4, x),
        "seed must be an integer",
    ),
    ("solve_iid", "seed"): (lambda x: solve_iid(V16, x), "seed must be an integer"),
    ("build_synthetic_matrix", "n"): (
        lambda x: build_synthetic_matrix(x, "random_signs_decay"),
        "n must be a nonnegative",
    ),
    ("build_synthetic_matrix", "seed"): (
        lambda x: build_synthetic_matrix(8, "random_signs_decay", x),
        "seed must be an integer",
    ),
    ("rank_uniforms", "seed"): (lambda x: rank_uniforms(x, 4), "seed must be an integer"),
    ("rank_uniforms", "n"): (lambda x: rank_uniforms(1, x), "rank must be >= 1"),
    ("rank_values", "n"): (Q6.rank_values, "rank must be >= 1"),
    ("tagged_generator", "seed"): (
        lambda x: tagged_generator(x, 7).random(4),
        "seed must be an integer",
    ),
    ("DFParams", "depth"): (DFParams, "depth must be a positive integer"),
    ("sample_df", "depth"): (lambda x: sample_df(x, 1), "depth must be a positive integer"),
    ("sample_df", "seed"): (lambda x: sample_df(3, x), "seed must be an integer"),
    ("dirichlet_kernel", "n"): (lambda x: dirichlet_kernel(x, 0.1), "degree must be >= 0"),
    ("kernel_block_matrix", "n"): (kernel_block_matrix, "need n >= 1"),
    ("kernel_block_integral", "n"): (lambda x: kernel_block_integral(x, 0, 1), "need n >= 1"),
    ("kernel_block_integral", "k"): (lambda x: kernel_block_integral(5, x, 1), "need n >= 1"),
    ("kernel_block_integral", "j"): (lambda x: kernel_block_integral(5, 1, x), "need n >= 1"),
    ("partial_sum", "n"): (lambda x: partial_sum(F6, x), "degrees must be"),
    ("sup_partial_sums", "degrees"): (lambda x: sup_partial_sums(F6, (1, x)), "degrees must be"),
    ("SampledFunction", "m"): (lambda x: SampledFunction(x, np.arange(8.0)), "grid exponent"),
    ("SampledFunction.from_callable", "m"): (
        lambda x: SampledFunction.from_callable(x, np.sin),
        "grid exponent",
    ),
    ("DyadicPoint", "k"): (lambda x: DyadicPoint(x, 2), "need 0 < k < 2"),
    ("DyadicPoint", "n"): (lambda x: DyadicPoint(1, x), "rank must be >= 1"),
    ("ConfinementMap.value", "k"): (lambda x: Q6.value(x, 2), "need 0 < k < 2"),
    ("ConfinementMap.value", "n"): (lambda x: Q6.value(1, x), "rank must be >= 1"),
    ("compose", "m_out"): (lambda x: compose(F6, identity_homeo(), x), "m_out must be"),
    ("haar_inverse", "m"): (lambda x: haar_inverse(HAAR2, x), "grid exponent"),
    ("confinement_map", "depth"): (lambda x: confinement_map(F6, x), "depth must be >= 1"),
    ("rademacher", "rank"): (lambda x: rademacher(x, 6), "rank must be >= 1"),
    ("perturbed_square_wave", "rank"): (
        lambda x: perturbed_square_wave(x, 0.5, 1, 6),
        "rank must be >= 1",
    ),
    ("perturbed_square_wave", "seed"): (
        lambda x: perturbed_square_wave(2, 0.5, x, 6),
        "seed must be an integer",
    ),
    ("oscillation", "n_cycles"): (lambda x: oscillation(x, m=6), "n_cycles must be"),
    ("oscillation", "m"): (lambda x: oscillation(4, m=x), "grid exponent"),
    ("CorpusSpec", "m"): (
        lambda x: CorpusSpec("oscillation", {"n_cycles": 4}, x).build(),
        "grid exponent",
    ),
    ("resonant_packets", "k_max"): (lambda x: resonant_packets(x, m=8), "k_max must be"),
    ("fejer_blocks", "block_count"): (lambda x: fejer_blocks(x, m=8), "block_count must be"),
    ("ExperimentConfig", "seeds"): (
        lambda x: ExperimentConfig("df-stats", seeds=(x,)),
        "seeds must be whole numbers",
    ),
    ("ExperimentConfig", "df-stats coupling_depth"): (
        params_row("df-stats", "coupling_depth"),
        "params coupling_depth must be",
    ),
    ("ExperimentConfig", "df-stats coupling_seeds"): (
        params_row("df-stats", "coupling_seeds"),
        "params coupling_seeds must be",
    ),
    ("ExperimentConfig", "psi-q-certificates depth"): (
        params_row("psi-q-certificates", "depth"),
        "params depth must be",
    ),
    # N_list [1, 2] is resolved from m = 3 on (4 N <= 2**m)
    ("ExperimentConfig", "anorm-growth m"): (
        lambda x: ExperimentConfig("anorm-growth", params={"m": x, "N_list": [1, 2]}),
        "params m must be",
    ),
    ("ExperimentConfig", "anorm-growth N_list"): (
        lambda x: ExperimentConfig("anorm-growth", params={"N_list": [16, x]}),
        "params N_list must be",
    ),
    ("ExperimentConfig", "kernel-decay n_list"): (
        lambda x: ExperimentConfig("kernel-decay", params={"n_list": [8, x]}),
        "params n_list must be",
    ),
    ("ExperimentConfig", "signs-trend blocks"): (
        lambda x: ExperimentConfig("signs-trend", params={"blocks": [8, x]}),
        "block must be an integer >= 2",
    ),
    ("ExperimentConfig", "derand-full n_max"): (
        params_row("derand-full", "n_max"),
        "params n_max must be",
    ),
    # r_max 3, because the default r_max of 512 needs a compose_m of 11
    ("ExperimentConfig", "derand-full compose_m"): (
        lambda x: ExperimentConfig("derand-full", params={"compose_m": x, "r_max": 3}),
        "params compose_m must be",
    ),
    ("ExperimentConfig", "derand-full r_max"): (
        params_row("derand-full", "r_max"),
        "params r_max must be",
    ),
    ("ExperimentConfig", "ac-diagnostics depth"): (
        params_row("ac-diagnostics", "depth"),
        "params depth must be",
    ),
}


@pytest.mark.parametrize("row", WHOLE_ARGUMENTS, ids=" ".join)
def test_every_count_takes_whole_numbers_only(row):
    # int() would read True as 1, 2.5 as 2 and "3" as 3 without a word; a
    # whole float is the int it equals
    call, message = WHOLE_ARGUMENTS[row]
    for bad in (True, 2.5, float("nan"), float("inf"), "3"):
        with pytest.raises(ValueError, match=message):
            call(bad)
    assert pickle.dumps(call(3.0)) == pickle.dumps(call(3))


def derand_row(name):
    """DerandConfig with one setting, as the JSON its config echo holds."""
    return lambda x: json.dumps(dataclasses.asdict(DerandConfig(**{name: x})))


H6 = sample_psi_q(DFParams(6, 0.5), 1)
RAW6 = confinement_map(F6)

# (public call, argument): the call on a value of the argument, made bytes or
# text; the message it raises for a value that is no finite real in range;
# one value out of range; one value in range; and the sha256 of the call on
# it, recorded before the real-number check was one helper
REAL_ARGUMENTS = {
    ("DerandConfig", "j_tol"): (
        derand_row("j_tol"),
        "j_tol must lie in",
        1.0,
        0.5,
        "578e24973c72e21be6e7b838e6c2f0a44568d46373ca965b33e7a283845c056a",
    ),
    ("DerandConfig", "row_tol"): (
        derand_row("row_tol"),
        "row_tol must be finite and nonnegative",
        -1e-9,
        0.5,
        "30c4c6050d85556a56a0eb9026be79e1d63a2bb6681587763c04c463f6e1c57b",
    ),
    ("DerandConfig", "null_tol"): (
        derand_row("null_tol"),
        "null_tol must be finite and nonnegative",
        -1e-9,
        0.5,
        "b4912ef3a935ef4965680fed6103fcd1da80936eabceb2f75923a9f30faea508",
    ),
    ("DerandConfig", "identity_tol"): (
        derand_row("identity_tol"),
        "identity_tol must be finite and nonnegative",
        -1e-9,
        0.5,
        "e48cb390d37e16cc6c918215d7a24ae0a519a083c30f9ceab7f93d1453fdbf52",
    ),
    ("DFParams", "q"): (
        lambda x: sample_psi_q(DFParams(6, x), 3).y.tobytes(),
        "constant budget must be a real number in",
        0.0,
        0.5,
        "a381ddde99603cf820168f51c6b7e9a8d5279d6a4ff3d6731f06eac37db7611b",
    ),
    # a weight has no range: every finite real is one
    ("solve_hierarchical", "lam"): (
        lambda x: solve_hierarchical(V16, lam=x).eps.tobytes(),
        "lam must be a finite real",
        None,
        0.5,
        "2c2bd7e7e3c405261a8a03d10cac49e44a94047872bbb8b427f986c6ab63ffa0",
    ),
    ("ExperimentConfig", "solver lam"): (
        lambda x: ExperimentConfig("signs-trend", solver={"lam": x}).to_json(),
        "lam must be a finite real",
        None,
        0.5,
        "a338ad6284ffc2ab311a8c4f0c64a10cdd9f92d9f98a210e763fb8b1885e08b0",
    ),
    ("ac_diagnostics", "p_list"): (
        lambda x: repr(ac_diagnostics(H6, (1.0, x)).norms),
        "p_list must be a nonempty list of finite reals >= 1",
        0.5,
        3.0,
        "898b0af7f1dff5d9ff4bddbca41ae76e1292df1b1cb444d5bf5c078dfc2a373b",
    ),
    ("oscillation", "gamma"): (
        lambda x: oscillation(4, x, m=6).values.tobytes(),
        "gamma must lie strictly inside",
        1.0,
        0.5,
        "912ecabb661cb8f67447258124d246234517c7b58cc1be13efac1de9b1f76c24",
    ),
    ("perturbed_square_wave", "jitter"): (
        lambda x: perturbed_square_wave(2, x, 1, 6).values.tobytes(),
        "jitter must lie in",
        1.5,
        0.5,
        "d8fc913003d878e92a5b664e3590e4437d241b31c20c0290b3cf8c30613d83e8",
    ),
    ("resonant_packets", "decay"): (
        lambda x: resonant_packets(3, m=8, decay=(x, 0.1, 0.01)).values.tobytes(),
        "packet scales must lie in",
        1.5,
        0.5,
        "6e3068d0e41ab604d27102895edbd7201a9308c8afadf81da786009e1c8d71c2",
    ),
    ("ConfinementMap", "floor_exponent"): (
        lambda x: RAW6.with_floor(x).rank_values(4).tobytes(),
        "floor_exponent must be a positive finite real",
        0.0,
        0.5,
        "d2ea885216dc17a8083447edea720c6a4b930a7aea91ab917c6fda0f5e320fa9",
    ),
}


@pytest.mark.parametrize("row", REAL_ARGUMENTS, ids=" ".join)
def test_every_real_takes_finite_reals_only(row):
    # True read as 1.0 and "0.5" as 0.5, or failed with a TypeError; a NaN
    # floor exponent lifted every budget to 1. A valid value gives what it
    # gave before, as a float and as a NumPy scalar
    call, message, out_of_range, valid, pin = REAL_ARGUMENTS[row]
    bad = [True, "0.5", float("nan"), float("inf"), -float("inf")]
    for x in bad if out_of_range is None else [*bad, out_of_range]:
        with pytest.raises(ValueError, match=message):
            call(x)
    for x in (valid, np.float64(valid)):
        out = call(x)
        assert hashlib.sha256(out if isinstance(out, bytes) else out.encode()).hexdigest() == pin


X3, Y3 = np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0])
T4 = np.array([-0.25, 0.1, 0.6, 1.0])
Y5 = np.linspace(0.0, 1.0, 5)
LO5, HI5 = Y5[:-1] + 0.05, Y5[1:] - 0.05
L3 = np.array([0.0, 0.1, 0.2, 1.0])


def state_row(which):
    """DerandState on the valid pinned images and windows of rank_state, but
    for the one named, which is x; its arrays as one byte string."""

    def call(x):
        arrays = {"fixed_y": Y5, "j_lo": LO5, "j_hi": HI5, which: x}
        s = DerandState(F6, Q6, 3, 0, **arrays)
        return np.concatenate([s.fixed_y, s.j_lo, s.j_hi]).tobytes()

    return call


# (public call, argument): the call on an array x of the argument, made bytes
# or text; the message it raises for an array that is no finite real array
# of the right number of axes; a valid array; whether its number of axes is
# fixed; bad arrays beyond the common ones; and the sha256 of the call on the
# valid array, recorded before the array check was one helper
ARRAY_ARGUMENTS = {
    ("SampledFunction", "values"): (
        lambda x: SampledFunction(3, x).values.tobytes(),
        "samples must be a 1-d array of finite reals",
        np.arange(8.0) / 8.0 - 0.5,
        True,
        [np.arange(8.0) + 1j],  # its imaginary parts were dropped with a warning
        "1f1b263d05f4b03d7f9d458cb482e598209af5f38ef598ce052cb716ee9f4419",
    ),
    ("SampledFunction.eval", "t"): (
        lambda x: F6.eval(x).tobytes(),
        "circle arguments must be finite reals",
        T4,
        False,
        [],
        "f05111eae72b7eacf1640c41c00e03235b0d2d9e71b7c623d94387cf48893fd2",
    ),
    ("PLHomeo", "x"): (
        lambda x: PLHomeo(x, Y3).eval(T4).tobytes(),
        "breakpoints must be two equal-length 1-d arrays of finite reals",
        X3,
        True,
        [],
        "2a5bb11c836efa01332ce936345bd10d2ca1682f6d3e70531b3687374f248cff",
    ),
    ("PLHomeo", "y"): (
        lambda x: PLHomeo(Y3, x).eval(T4).tobytes(),
        "breakpoints must be two equal-length 1-d arrays of finite reals",
        X3,
        True,
        [],
        "ea28420549cb6cb5f9b8706dbb52e9a3fca6f68c56697820aca9431a858ed0d9",
    ),
    ("PLHomeo.eval", "t"): (
        lambda x: H6.eval(x).tobytes(),
        "circle arguments must be finite reals",
        T4,
        False,
        [],
        "6265e2f092eab365a9581a01ade4a1597c6f2f2e380b11cdb939abf4f63cbc4a",
    ),
    ("homeo_from_json", "breakpoints"): (
        lambda x: homeo_to_json(homeo_from_json(json.dumps({"breakpoints": np.asarray(x).tolist()}))),
        "breakpoints must be a list of \\[x, y\\] pairs of finite reals",
        np.stack([X3, Y3], axis=1),
        True,
        [np.stack([X3, Y3, Y3], axis=1)],
        "deaa85aef694b6776afa990429fa66c6e058a140efe9531d86a1abf75664c301",
    ),
    ("DerandState", "fixed_y"): (
        state_row("fixed_y"),
        "pinned images must be a 1-d array of finite reals",
        Y5,
        True,
        [],
        "b728a7ae574044aa23c2d74bc167dcede8806e401bdbd20805acec45517ba03b",
    ),
    ("DerandState", "j_lo"): (
        state_row("j_lo"),
        "windows must be 1-d arrays of finite reals",
        LO5,
        True,
        [],
        "b728a7ae574044aa23c2d74bc167dcede8806e401bdbd20805acec45517ba03b",
    ),
    ("DerandState", "j_hi"): (
        state_row("j_hi"),
        "windows must be 1-d arrays of finite reals",
        HI5,
        True,
        [],
        "b728a7ae574044aa23c2d74bc167dcede8806e401bdbd20805acec45517ba03b",
    ),
    ("SignMatrix", "values"): (
        lambda x: solve_hierarchical(SignMatrix(x)).eps.tobytes(),
        "values must be a 2-d array of finite reals",
        np.array(V16.values[:6, :10]),
        True,
        [],
        "05b3c4215f12fdb121379cd0d2cdef54010ef4643f6efe80981c5b7b555eca62",
    ),
    # the int8 cast read 1.7 as 1 and raised OverflowError at 257
    ("SignVector", "eps"): (
        lambda x: SignVector(x).eps.tobytes(),
        "signs must be a 1-d array of \\+-1",
        np.array([1, -1, -1, 1]),
        True,
        [np.array([1.7, -1.2, 1.0, 1.0]), np.array([257, -1, 1, 1])],
        "257403a41e3c7827a76c21082cd0bb9e747bfcc07da5b12d90504283adf89a18",
    ),
    ("FourierCoeffs", "c"): (
        lambda x: FourierCoeffs(2, x).c.tobytes(),
        "coefficients must be a 1-d array of 2\\*\\*m finite complex numbers",
        np.array(coeffs(SampledFunction(2, [0.0, 1.0, 0.5, -1.0])).c),
        True,
        [],
        "9d76e21770885108719b62b2d25999924767d674a6ade1f610059886ef4803c0",
    ),
    # a NaN budget passed the range check and surfaced in the sampler
    ("ConfinementMap", "levels"): (
        lambda x: ConfinementMap(([0.75], x, L3)).with_floor().rank_values(2).tobytes(),
        "rank 2 must hold 2 finite budgets in \\[0, 1\\]",
        np.array([0.25, 0.5]),
        True,
        [np.array([0.25, 1.5]), np.array([0.25, 0.5, 0.75])],
        "a79009788da6562af5d0a823a8d4d5b76d051e4e53baf8b1c65649a4dc454f37",
    ),
    ("ks_uniform_statistic", "samples"): (
        lambda x: repr(ks_uniform_statistic(x)),
        "samples must be a 1-d array of finite reals",
        np.array([0.1, 0.5, 0.7]),
        True,
        [],
        "06bad31060c1212ae832de4c031f7b31e3b48aed57858294478cb19450cf34ca",
    ),
    ("dirichlet_kernel", "t"): (
        lambda x: dirichlet_kernel(3, x).tobytes(),
        "kernel arguments must be finite reals",
        np.array([0.0, 0.1, -0.75, 2.5]),
        False,
        [],
        "8e945aa61f9b2f841f5907a0e19fd933cf2bf8ab4f884edb10da0cf41a0d7ab7",
    ),
}


def bad_arrays(valid, fixed_ndim):
    """The valid array as bools and as text, with a NaN or an infinity in
    place of one entry, and with an axis more where the axes are fixed."""
    out = [valid.astype(bool), valid.astype(str)]
    for bad in (np.nan, np.inf, -np.inf):
        x = valid.astype(complex if valid.dtype.kind == "c" else float)
        x.flat[x.size // 2] = bad
        out.append(x)
    return out + [valid[None]] if fixed_ndim else out


@pytest.mark.parametrize("row", ARRAY_ARGUMENTS, ids=" ".join)
def test_every_array_takes_finite_arrays_only(row):
    # np.array(x, dtype=float) read True as 1.0 and "0.5" as 0.5, a NaN
    # passed or surfaced elsewhere, and an infinity on the circle became a
    # NaN. A valid array gives what it gave before, as an array and as a list
    call, message, valid, fixed_ndim, extra, pin = ARRAY_ARGUMENTS[row]
    for x in bad_arrays(valid, fixed_ndim) + extra:
        with pytest.raises(ValueError, match=message):
            call(x)
    for x in (valid, valid.tolist()):
        out = call(x)
        assert hashlib.sha256(out if isinstance(out, bytes) else out.encode()).hexdigest() == pin


def test_a_budget_level_is_copied():
    # the map held the caller's array, so a write after the check was read
    level = np.array([0.25, 0.5])
    q = ConfinementMap(([0.75], level))
    level[0] = 7.0
    assert q.rank_values(2).tolist() == [0.25, 0.5]
    assert not q.levels[1].flags.writeable


@pytest.mark.parametrize(
    "call", [lambda n: rank_uniforms(1, n), Q6.rank_values], ids=["rank_uniforms", "rank_values"]
)
def test_a_rank_is_read_before_shifting(call):
    # the rank is checked before 1 << (n - 1) values are allocated: at 40,
    # 4 TiB of draws, or of a floored map's budgets past its depth
    with pytest.raises(ValueError, match="grid exponent out of range: 40"):
        call(40)
