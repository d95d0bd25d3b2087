"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest bench/tests -q

The traced-versus-untraced test runs every job of every workload twice and
takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fixtures  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import fpaut  # noqa: E402
from fpaut import automorphisms, cli, graph_maps, words  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    indir = tmp_path_factory.mktemp("inputs")
    built = fixtures.build(run.DEFAULT_SEED)
    fixtures.write(built, indir)
    return built, indir


@pytest.fixture(autouse=True)
def no_env_cache(monkeypatch):
    monkeypatch.delenv("FPAUT_CACHE", raising=False)
    warnings.simplefilter("ignore")


def bindings() -> dict:
    """Every attribute of every fpaut module and of the two traced classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fpaut" or name.startswith("fpaut."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (words.CyclicWord, graph_maps.GraphMap):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def report_bytes(cfg) -> tuple:
    code, report = cli.run_with_cache(cfg)
    report.pop("timing")
    return code, cli.canonical_json(report)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_reports_equal_untraced(workload, inputs):
    built, indir = inputs
    configs = run.job_configs(run.workload_jobs(workload, built.elements), indir)
    plain = [report_bytes(cfg) for _, cfg in configs]
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert bindings() != before
        traced = [report_bytes(cfg) for _, cfg in configs]
    finally:
        tracer.uninstall()
    assert len(tracer.span_fid) > 0
    for (job, _), a, b in zip(configs, plain, traced):
        assert a == b, job.key
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_wraps_every_binding_site():
    originals = (words.power, words.CyclicWord.canonical_rotation,
                 graph_maps.GraphMap.apply_to_path, automorphisms.power)
    tracer = Tracer()
    tracer.install()
    try:
        assert automorphisms.word_power is not originals[0]
        assert words.power is not originals[0]
        assert words.CyclicWord.canonical_rotation is not originals[1]
        assert graph_maps.GraphMap.apply_to_path is not originals[2]
        assert fpaut.power is not originals[3]
        assert automorphisms.word_power.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert automorphisms.word_power is originals[0]
    assert words.power is originals[0]
    assert words.CyclicWord.canonical_rotation is originals[1]
    assert graph_maps.GraphMap.apply_to_path is originals[2]
    assert fpaut.power is originals[3]


def test_same_seed_same_inputs():
    a, b = fixtures.build(5), fixtures.build(5)
    assert a.files == b.files
    assert a.elements == b.elements


def test_other_seed_other_orbit_elements():
    a, b = fixtures.build(5), fixtures.build(6)
    assert a.elements != b.elements


def test_seed_picks_the_conjugacy_partners():
    partners = {fixtures.build(seed).files["intro_conj.json"]
                for seed in range(1, 6)}
    assert len(partners) > 1


def test_seeded_free_elements_keep_their_letter_content():
    for seed in range(20):
        for fixture, content in fixtures.FREE_CONTENT.items():
            element = fixtures.orbit_elements(seed)[fixture]
            counts = [0] * len(content)
            for tok in element.split():
                letter, _, exp = tok[1:].partition("^")
                counts[int(letter) - 1] += int(exp or 1)
            assert tuple(counts) == content, element


def test_speed_probe_does_not_use_fpaut():
    import ast
    import speed
    tree = ast.parse(Path(speed.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(name.startswith("fpaut") for name in imported)
    assert speed.kernel() == speed.kernel()
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m


def test_checker_flags_a_wrong_report(inputs):
    built, _ = inputs
    checker = run.Checker("search", built, run.load_reference())
    job = run.workload_jobs("search", built.elements)[1]
    ref = run.load_reference()["jobs"][job.key]
    good = (ref["exit"], ref["verdict"], ref["tested"], ref["sha256"])
    assert checker.ok(run.Send(job, "miss", 0.1, good))
    bad = run.Send(job, "hit", 0.1, good[:3] + ("0" * 64,))
    assert not checker.ok(bad)
    assert not checker.known(bad)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END),
                                         (1, run.PER_LAYER)])
def test_run_prints_every_metric(trace, names):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed",
         "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
