"""Frozen metrics digests.

The sha256 of each reference run's metrics CSV was taken before the
evaluation fast path (rollouts cut at the first repeated state) existed, so
any change to evaluation, rng use or bookkeeping that moves a single byte of
these files fails here. Seeds 1, 2 and 4 never break, so their two arms
share a digest.

The final checkpoints of four runs are pinned the same way: the XOR
reference run, an unsolved gridnav_comp run, an XOR run whose loose break
settings make it break and reverse, and XOR seed 13. Their configs keep
`output_dir: "runs"`, since the embedded config is part of the bytes; the
files go to a temporary directory through SOSAGE_OUTPUT_DIR instead. A new
checkpoint format re-pins them by a stated rule: the v10 pins are the v9
files passed through `support.v9_to_v10` (set the format to v10, write the
per_member, cooccur and reverse_counters objects as rows sorted by integer
id, and each break event as a row without its level) and re-encoded as the
writer encodes.

XOR seed 13 solves at generation 1 at order 1, so nothing compacts its
ledger after the second whole-roster tally: its final checkpoint holds all
552 cells of the 24-member cohort, 390 of them never paired, which is where
a wrong starting value for a new co-occurrence cell would show. Its metrics
CSV is pinned too.

Both shipped configs leave most settings at their defaults, so one more
pin covers the echo itself: the config digest of a document that sets
every setting to a value other than its default.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace
from pathlib import Path

import pytest

from sosage.config import (
    RunConfig,
    config_digest,
    config_from_dict,
    config_to_json_dict,
    load_config,
    with_seed,
)
from sosage.envs import EnvSpec
from sosage.harness import OUTPUT_DIR_ENV, run
from sosage.population import ProblemSpec
from sosage.symbio import EvolutionConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

XOR_SEED_7 = "bfbafdea895be3c769cdebc1fe47df112c49b2d73cbe606c680be22dc8b1c588"
XOR_SEED_13 = "2b7bc40016f2264fcd3d710501fb6fefa9561204e27701f25319ea343be8df6b"

# (seed, breaks_enabled) -> metrics CSV digest, configs/gridnav_comp.json
GRIDNAV_COMP = {
    (0, True): "7d4628ad812e4c40559507848a95369c72a868a86ca655e000178022dbd99574",
    (0, False): "45b4c6efb1bdcbdd79d548958cf009a9eafd6f05db18ff6da411dfc4ec4ae2df",
    (1, True): "897821d36429affefb21b4d3ed3d9cfbbd5b9aa92d1065bbfcf55e4137f219e0",
    (1, False): "897821d36429affefb21b4d3ed3d9cfbbd5b9aa92d1065bbfcf55e4137f219e0",
    (2, True): "848f18a1d5077726261b260c02d1f07bc167c5afd06d77f615ed08c9c4198a15",
    (2, False): "848f18a1d5077726261b260c02d1f07bc167c5afd06d77f615ed08c9c4198a15",
    (3, True): "e3fc91f9841f7c70a7bb48c84387fe16bc7e62e9adf09f8451d65157cc3961ed",
    (3, False): "d12f11fa30fca8402a5095cf18ab2ae7b9a1fcf81187aad3c42e119db8ecb90e",
    (4, True): "3dbcc2f861ced5bd91bc5bdaf283099f97aca18b00541a211c30cc16dd083cfe",
    (4, False): "3dbcc2f861ced5bd91bc5bdaf283099f97aca18b00541a211c30cc16dd083cfe",
}


# (config, seed, evolution changes) -> final checkpoint digest
REVERSING = {"dependency_delta": 0.05, "window_G": 2, "min_cooccur_samples": 2, "break_warmup": 0}
CHECKPOINTS = [
    ("xor.json", 7, {}, "72cd4a59a81afe333735c04cb48f7ae6defca29a1012a2722b87d4eef121e171"),
    ("gridnav_comp.json", 9, {"max_generations": 150},
     "5b8442e6b07464804505343e4d9facd12276c800c2ed8a8dd74a5fe7057a4ae4"),
    ("xor.json", 1, {**REVERSING, "max_generations": 120},
     "de3db01fb3cc45a976f1f4dd8d77a2b124934322bf99499a6a6fc82a52353744"),
    ("xor.json", 13, {}, "51ab4eb22744dc833475f7bf9034a7bf7f29cb314e9772240a5dd8f42f6560bf"),
]


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def metrics_digest(config) -> str:
    report = run(config)
    return hashlib.sha256(Path(report.metrics_path).read_bytes()).hexdigest()


def test_xor_reference_run(tmp_path):
    config = replace(load_config(CONFIG_DIR / "xor.json"), output_dir=str(tmp_path))
    assert config.seed == 7
    assert metrics_digest(config) == XOR_SEED_7


def test_xor_seed_13_run(tmp_path):
    config = replace(with_seed(load_config(CONFIG_DIR / "xor.json"), 13), output_dir=str(tmp_path))
    assert metrics_digest(config) == XOR_SEED_13


@pytest.mark.parametrize("seed,breaks", sorted(GRIDNAV_COMP), ids=lambda v: str(v).lower())
def test_gridnav_compositional_runs(tmp_path, seed, breaks):
    base = load_config(CONFIG_DIR / "gridnav_comp.json")
    config = replace(with_seed(base, seed), output_dir=str(tmp_path), breaks_enabled=breaks)
    assert metrics_digest(config) == GRIDNAV_COMP[(seed, breaks)]


@pytest.mark.parametrize(
    "name,seed,changes,digest", CHECKPOINTS, ids=["xor-7", "gridnav_comp-9", "xor-1-reversing", "xor-13"]
)
def test_final_checkpoints(tmp_path, monkeypatch, name, seed, changes, digest):
    base = with_seed(load_config(CONFIG_DIR / name), seed)
    config = replace(base, evolution=replace(base.evolution, **changes))
    assert config.output_dir == "runs"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    report = run(config)
    assert Path(report.checkpoint_path).parent == tmp_path
    assert hashlib.sha256(Path(report.checkpoint_path).read_bytes()).hexdigest() == digest


# every setting off its default; mutation_rate is a float field given as an int
EVERY_SETTING = {
    "seed": 11,
    "env": {"name": "gridnav-compositional", "params": {
        "size": 6, "goal_x": 5, "goal_y": 3, "subgoal_x": 1, "subgoal_y": 2, "max_steps": 60,
        "step_penalty": 0.02, "goal_reward": 2.0, "subgoal_reward": 0.25,
    }},
    "problem": {"problem_order_x": 3, "base_solver_order_r": 2},
    "evolution": {
        "network_size": 2, "assemblies_per_generation": 12, "elite_fraction": 0.3,
        "mutation_rate": 1, "mutation_sigma": 0.4, "crossover_rate": 0.6, "top_m": 4,
        "dependency_delta": 0.2, "min_cooccur_samples": 5, "window_G": 6, "min_improvement": 0.02,
        "break_warmup": 3, "max_generations": 40, "w_max": 4.5,
    },
    "roster_size": 8,
    "population_limit": 12,
    "max_order": 5,
    "breaks_enabled": False,
    "reverse_enabled": False,
    "output_dir": "elsewhere",
    "checkpoint_every": 4,
}
EVERY_SETTING_DIGEST = "5393eb41183f05d0cb5ffaaa52e11d23a8bf5f6d1d9e53c8b2308ebcb26196c1"


def names(cls) -> set:
    return {f.name for f in fields(cls)}


def test_every_setting_reaches_the_echo_and_digest():
    config = config_from_dict(EVERY_SETTING)
    assert config_digest(config) == EVERY_SETTING_DIGEST
    echo = config_to_json_dict(config)
    assert set(echo) == names(RunConfig) | {"seed"}
    assert set(echo["env"]) == names(EnvSpec)
    assert set(echo["problem"]) == names(ProblemSpec)
    assert set(echo["evolution"]) == names(EvolutionConfig) - {"seed"}
    assert repr(echo["evolution"]["mutation_rate"]) == "1.0"
    # the document really moves every setting: no echoed value is its default
    default = config_to_json_dict(config_from_dict({"env": {"name": EVERY_SETTING["env"]["name"]}}))
    for section in ("problem", "evolution"):
        assert all(echo[section][k] != v for k, v in default[section].items()), section
    assert set(echo["env"]["params"]) == set(default["env"]["params"])
    assert all(echo["env"]["params"][k] != v for k, v in default["env"]["params"].items())
    assert all(echo[k] != v for k, v in default.items() if k not in ("env", "problem", "evolution"))
