"""The benchmark's byte pins, read from bench/pins.py and checked here, so
that a change to the package that moves them fails in the test suite and
not only in the benchmark.

bench/pins.py is imported from its file and only read. Each output is
computed as the benchmark computes it at its default seed: the lab's two
experiment tables (df-stats over seeds 0 .. 9999), and warp-m12-open's one
halving of the m=12 perturbed_square opening state.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from circlewarp import (
    CorpusSpec,
    DerandConfig,
    DerandState,
    ExperimentConfig,
    choose_halves,
    confinement_map,
    default_degrees,
    run_experiment,
)

PINS_PATH = Path(__file__).resolve().parents[1] / "bench" / "pins.py"


def _pins():
    spec = importlib.util.spec_from_file_location("bench_pins", PINS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINS = _pins()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "experiment, seeds",
    [("kernel-decay", ()), ("df-stats", tuple(range(10_000)))],
    ids=["kernel-decay", "df-stats"],
)
def test_lab_tables_keep_their_pinned_bytes(tmp_path, experiment, seeds):
    cfg = ExperimentConfig(experiment, seeds=seeds, output_dir=str(tmp_path), formats=("csv",))
    report = run_experiment(cfg)
    tables = {
        Path(path).name: sha256(Path(path).read_bytes())
        for path in report.outputs
        if path.endswith(".csv")
    }
    assert tables == PINS.LAB[f"{experiment}.tables"]


def test_m12_opening_halving_keeps_its_pinned_records_and_windows():
    # the benchmark's corpus seed is its default seed, 1
    cfg = DerandConfig()
    f = CorpusSpec("perturbed_square", {"rank": 5, "jitter": 0.5, "seed": 1}, 12).build()
    q = confinement_map(f, depth=12).with_floor(cfg.q_floor_exponent)
    state, records, _ = choose_halves(DerandState.initial(f, q), cfg, default_degrees(7, 12))
    text = "".join(f"{r.n},{r.ell},{r.r},{r.sup_dev!r}\n" for r in records)
    windows = state.fixed_y.tobytes() + state.j_lo.tobytes() + state.j_hi.tobytes()
    pin = PINS.WARP["warp-m12-open"]
    assert sha256(text.encode()) == pin["records_sha256"]
    assert sha256(windows) == pin["window_sha256"]
