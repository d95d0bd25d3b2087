import dataclasses
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from fpaut import (Presentation, atoroidal_search, flare_certify, parse_word,
                   render_word, twin_search)
from fpaut import cli, errors, verify
from fpaut.cli import (COMMANDS, canonical_json, config_from_args, exit_code,
                       load_automorphism, main, run, run_with_cache)
from fpaut.errors import (FpAutError, IndexOutOfRange, ParseError,
                          SelfCheckFailed)

from conftest import in_process_claims, make_aut

FIB = {
    "group": {"abelian_factors": [], "free_rank": 2},
    "images": {"x1": "x1 x2", "x2": "x1"},
    "inverse_images": {"x1": "x2", "x2": "x2^-1 x1"},
}

TWIST = {
    "group": {"abelian_factors": [2, 2], "free_rank": 0},
    "images": {"a1.1": "a1.1", "a1.2": "a1.2",
               "a2.1": "a1.1 a2.1 a1.1^-1", "a2.2": "a1.1 a2.2 a1.1^-1"},
    "inverse_images": {"a1.1": "a1.1", "a1.2": "a1.2",
                       "a2.1": "a1.1^-1 a2.1 a1.1",
                       "a2.2": "a1.1^-1 a2.2 a1.1"},
}

INTRO = {
    "group": {"abelian_factors": [2, 3], "free_rank": 0},
    "images": {"a1.1": "a1.1^2 a1.2", "a1.2": "a1.1 a1.2",
               "a2.1": "a2.2", "a2.2": "a2.3", "a2.3": "a2.1 a2.2"},
    "inverse_images": {"a1.1": "a1.1 a1.2^-1", "a1.2": "a1.1^-1 a1.2^2",
                       "a2.1": "a2.1^-1 a2.3", "a2.2": "a2.1",
                       "a2.3": "a2.2"},
}

MIXED = {
    "group": {"abelian_factors": [2], "free_rank": 1},
    "images": {"a1.1": "a1.1", "a1.2": "a1.2", "x1": "a1.1 x1"},
    "inverse_images": {"a1.1": "a1.1", "a1.2": "a1.2", "x1": "a1.1^-1 x1"},
}

# fib conjugated by the letter swap: conjugate in Out, but the witness is
# outside the pipeline's candidate family, so the verdict is undecided
FIB_SWAPPED = {
    "group": {"abelian_factors": [], "free_rank": 2},
    "images": {"x1": "x2", "x2": "x2 x1"},
    "inverse_images": {"x1": "x1^-1 x2", "x2": "x1"},
}

# Z^2 * Z^2 * Z^2 with A_1 conjugated by (a2.1 a3.1)^-1: a train track map
# whose edge images at factor vertex 1 pass decorations, such as (1, 0) at
# A_2, that appear in no edge image at the base vertex
def _conjugated_first_factor():
    ident = {f"a{i}.{j}": f"a{i}.{j}" for i in (1, 2, 3) for j in (1, 2)}
    images, inverse = dict(ident), dict(ident)
    for j in (1, 2):
        images[f"a1.{j}"] = f"a3.1^-1 a2.1^-1 a1.{j} a2.1 a3.1"
        inverse[f"a1.{j}"] = f"a2.1 a3.1 a1.{j} a3.1^-1 a2.1^-1"
    return {"group": {"abelian_factors": [2, 2, 2], "free_rank": 0},
            "images": images, "inverse_images": inverse}


CONJUGATED = _conjugated_first_factor()


@pytest.fixture
def fib_file(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB))
    return str(path)


@pytest.fixture
def twist_file(tmp_path):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(TWIST))
    return str(path)


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.json"
    path.write_text(json.dumps(INTRO))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED))
    return str(path)


@pytest.fixture
def swapped_file(tmp_path):
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(FIB_SWAPPED))
    return str(path)


def test_parse_word_examples():
    pres = Presentation((2, 2), 1)
    assert not parse_word("a1.1 a1.1^-1", pres)
    w = parse_word("a1.1^2 x1^-1", pres)
    assert render_word(w) == "a1.1^2 x1^-1"
    with pytest.raises(IndexOutOfRange):
        parse_word("a1.3", pres)
    with pytest.raises(ParseError) as err:
        parse_word("a1.1 frog", pres)
    assert err.value.position == 5


def test_load_automorphism(fib_file):
    phi, digest = load_automorphism(fib_file)
    assert render_word(phi.images["x1"]) == "x1 x2"
    assert len(digest) == 64


def test_run_atoroidal_witness(fib_file):
    cfg = config_from_args(["atoroidal", "--aut", fib_file,
                            "--max-len", "6", "--max-exp", "4",
                            "--max-iter", "4"])
    code, report = run(cfg)
    assert code == 1  # witness found: not atoroidal
    assert report["result"]["verdict"] == "witness"
    assert report["result"]["witness"]["exponent"] == 2
    # witness renders to a replayable word
    parse_word(report["result"]["witness"]["element"], Presentation((), 2))


def test_run_torus_ab(fib_file):
    code, report = run(config_from_args(["torus-ab", "--aut", fib_file]))
    assert code == 0
    assert report["result"]["torsion"] == []
    assert report["result"]["free_rank"] == 1


def test_run_twins_intro(intro_file):
    code, report = run(config_from_args(
        ["twins", "--aut", intro_file, "--max-exp", "2", "--conj-len", "2"]))
    assert code == 1
    w = report["result"]["witness"]
    assert (w["factor_i"], w["factor_j"], w["power"]) == (1, 2, 1)
    assert w["element"] == ""


def test_run_flare_counterexamples(intro_file):
    code, report = run(config_from_args(
        ["flare", "--aut", intro_file, "--min-len", "2", "--max-len", "2",
         "--max-exp", "1", "--max-iter", "3", "--lambda-min", "1.1"]))
    assert code == 1
    assert report["result"]["counterexamples"]


def test_run_traintrack(fib_file, twist_file):
    code, report = run(config_from_args(
        ["traintrack", "--aut", fib_file, "--depth", "4"]))
    assert code == 0
    assert report["result"]["status"] == "holds"
    assert report["result"]["base_gate_count"] == 3
    code, report = run(config_from_args(["traintrack", "--aut", twist_file]))
    assert code == 1
    assert report["result"]["status"] == "violated"


def test_traintrack_exact_factor_gates(tmp_path, capsys):
    path = tmp_path / "conjugated.json"
    path.write_text(json.dumps(CONJUGATED))
    assert main(["traintrack", "--aut", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["status"] == "holds"
    assert report["result"]["stable"]


# F_3 automorphism whose base partition is still unstable at depth 1
HORIZON = {
    "group": {"abelian_factors": [], "free_rank": 3},
    "images": {"x1": "x3 x1 x3^-1", "x2": "x2 x1^-1 x3^-1", "x3": "x3 x1"},
    "inverse_images": {"x1": "x3^-1 x1 x3", "x2": "x2 x3", "x3": "x1^-1 x3"},
}


def test_traintrack_horizon_only_below_stable_depth(tmp_path, capsys):
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(HORIZON))
    argv = ["traintrack", "--aut", str(path)]
    assert main(argv + ["--depth", "1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "undecided" and not result["stable"]
    assert result["witness"] == [
        "horizon", ["base", ["x", 2, -1], ["x", 1, -1]]]
    assert main(argv + ["--depth", "1", "--strict"]) == 3
    capsys.readouterr()
    # the default depth 2(p + k) + 4 = 10 is past p + 2k - 1 = 5: stable
    assert main(argv) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["depth"] == 10 and result["stable"]
    assert result["status"] == "violated"
    assert result["witness"][0] == "illegal image turn"


def test_run_constants(fib_file):
    code, report = run(config_from_args(["constants", "--aut", fib_file]))
    assert code == 0
    golden = (1 + 5 ** 0.5) / 2
    assert abs(report["result"]["growth_rate"] - golden) < 1e-9
    assert report["result"]["cancellation"] == "1"
    assert report["result"]["irreducible"] is True


def test_run_classify(fib_file):
    code, report = run(config_from_args(
        ["classify", "--aut", fib_file, "--element", "x1",
         "--max-iter", "16"]))
    assert code == 0
    assert report["result"]["kind"] == "exponential"
    assert report["result"]["masses"][:6] == [1, 2, 3, 5, 8, 13]


def test_run_nielsen(twist_file):
    code, report = run(config_from_args(
        ["nielsen", "--aut", twist_file, "--max-len", "2", "--max-iter", "2"]))
    assert code == 0
    elements = {w["element"] for w in report["result"]["witnesses"]}
    assert "a1.1" in elements


def test_run_conjugacy(twist_file, tmp_path):
    # conjugate by the inner automorphism ad_{a2.1}
    from fpaut import compose
    from fpaut.automorphisms import ad
    from fpaut.cli import automorphism_to_dict
    phi, _ = load_automorphism(twist_file)
    pres = phi.presentation
    twisted = compose(ad(parse_word("a2.1", pres), pres), phi)
    other = tmp_path / "twist2.json"
    other.write_text(json.dumps(automorphism_to_dict(twisted)))
    code, report = run(config_from_args(
        ["conjugacy", "--aut", twist_file, "--aut2", str(other)]))
    assert code == 0
    assert report["result"]["status"] == "conjugate"


def test_successful_conjugacy_writes_nothing_to_stderr(intro_file, tmp_path):
    # intro is not toral: the report says so, and stderr stays empty
    from fpaut import compose, inverse
    from fpaut.cli import automorphism_to_dict
    phi, _ = load_automorphism(intro_file)
    names = phi.presentation.generator_names()
    t = make_aut(phi.presentation,
                 {**{n: n for n in names}, "a1.2": "a1.1 a1.2"},
                 {**{n: n for n in names}, "a1.2": "a1.1^-1 a1.2"})
    intro_sub = tmp_path / "intro_sub.json"
    intro_sub.write_text(json.dumps(automorphism_to_dict(
        compose(compose(t, phi), inverse(t)))))
    done = subprocess.run(
        [sys.executable, "-m", "fpaut.cli", "conjugacy", "--aut", intro_file,
         "--aut2", str(intro_sub)],
        env=_source_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    result = json.loads(done.stdout)["result"]
    assert result["status"] == "conjugate"
    assert result["diagnostics"]["both_toral"] is False


def test_report_determinism(fib_file):
    argv = ["atoroidal", "--aut", fib_file, "--max-len", "4",
            "--max-exp", "2", "--max-iter", "3"]
    _, rep1 = run(config_from_args(argv))
    _, rep2 = run(config_from_args(argv))
    rep1.pop("timing", None)
    rep2.pop("timing", None)
    assert canonical_json(rep1) == canonical_json(rep2)


def test_cache_round_trip(fib_file, tmp_path):
    cache = tmp_path / "cache"
    argv = ["atoroidal", "--aut", fib_file, "--max-len", "4", "--max-exp", "2",
            "--max-iter", "3", "--cache-dir", str(cache)]
    code1, rep1 = run_with_cache(config_from_args(argv))
    assert list(cache.glob("*.json"))
    code2, rep2 = run_with_cache(config_from_args(argv))
    assert code1 == code2
    assert rep1["result"] == rep2["result"]
    assert rep1["canonical_sha256"] == rep2["canonical_sha256"]


def test_timing_says_whether_the_cache_answered(fib_file, tmp_path):
    cache = tmp_path / "cache"
    argv = ["torus-ab", "--aut", fib_file]
    _, off = run_with_cache(config_from_args(argv))
    _, miss = run_with_cache(config_from_args(argv + ["--cache-dir", str(cache)]))
    _, hit = run_with_cache(config_from_args(argv + ["--cache-dir", str(cache)]))
    assert [r["timing"]["cache"] for r in (off, miss, hit)] == \
        ["off", "miss", "hit"]
    assert all(r["timing"]["seconds"] >= 0 for r in (off, miss, hit))
    # the block stays outside the hash and out of the entry
    assert {k: v for k, v in hit.items() if k != "timing"} == \
        {k: v for k, v in miss.items() if k != "timing"}
    assert hit["canonical_sha256"] == miss["canonical_sha256"] == \
        off["canonical_sha256"]
    [entry] = cache.iterdir()
    assert "timing" not in json.loads(entry.read_text())


def test_only_cache_dir_turns_the_cache_on(fib_file, tmp_path, monkeypatch):
    # the environment plays no part, and an empty --cache-dir is no cache
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FPAUT_CACHE", str(tmp_path / "cache"))
    for extra in ([], ["--cache-dir", ""]):
        _, report = run_with_cache(
            config_from_args(["torus-ab", "--aut", fib_file, *extra]))
        assert report["timing"]["cache"] == "off"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fib.json"]


def assert_jobs_match_serial(argv, forks, jobs=2):
    # ``forks``: the `fork_at_once` list, so the --jobs run forks after its
    # first root group; jobs is set past the parser, which lowers it to the
    # CPU count
    code, serial = run(config_from_args(argv))
    code_j, parallel = run(dataclasses.replace(config_from_args(argv),
                                               jobs=jobs))
    assert len(forks) == jobs - 1
    assert (code_j, parallel["result"]) == (code, serial["result"])
    assert parallel["canonical_sha256"] == serial["canonical_sha256"]
    assert_no_child_left()


def test_jobs_match_serial(intro_file, fork_at_once):
    assert_jobs_match_serial(
        ["twins", "--aut", intro_file, "--max-exp", "2", "--conj-len", "2"],
        fork_at_once)


def test_jobs_match_serial_flare(intro_file, fork_at_once):
    assert_jobs_match_serial(
        ["flare", "--aut", intro_file, "--min-len", "2", "--max-len", "2",
         "--max-exp", "1", "--max-iter", "3", "--lambda-min", "1.1"],
        fork_at_once, jobs=3)


def test_jobs_match_serial_flare_mixed(mixed_file, fork_at_once):
    # processes claim groups in no fixed order; the walk sorts their
    # records by ordinal, which restores the enumeration order of the
    # counterexamples
    assert_jobs_match_serial(
        ["flare", "--aut", mixed_file, "--min-len", "2", "--max-len", "3",
         "--max-exp", "2", "--max-iter", "6"], fork_at_once)


def test_jobs_match_serial_atoroidal(fib_file, fork_at_once):
    # the serial search stops at its first witness; `tested` counts up to it
    assert_jobs_match_serial(
        ["atoroidal", "--aut", fib_file, "--max-len", "5", "--max-exp", "3",
         "--max-iter", "4"], fork_at_once)


def test_short_search_forks_nothing(fib_file, fork_calls):
    # far shorter than `_FORK_AFTER_S`: the --jobs walk runs it alone
    cfg = config_from_args(["atoroidal", "--aut", fib_file, "--max-len", "2",
                            "--max-exp", "1", "--max-iter", "1"])
    assert run(dataclasses.replace(cfg, jobs=2)) == run(cfg)
    assert fork_calls == []


def _source_env():
    """The environment of a subprocess that imports this checkout's fpaut."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


FIB_ATOROIDAL = ["atoroidal", "--max-len", "5", "--max-exp", "3",
                 "--max-iter", "4"]


def _loaded(names):
    """Probe code that prints which of ``names`` the process has imported."""
    return f"print(sorted(m for m in sys.modules if m in {names!r}))"


POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

# probe code that sets jobs to 2 past the parser, so a run is sharded even
# on one CPU, and forks after the first root group, however short the search
JOBS_2 = ("import dataclasses, sys; from fpaut import cli; "
          "cli._FORK_AFTER_S = 0; parse = cli.config_from_args; "
          "cli.config_from_args = "
          "lambda argv: dataclasses.replace(parse(argv), jobs=2); ")


def test_serial_runs_do_not_load_the_process_pool(fib_file):
    probe = "import sys, fpaut.cli; " + _loaded((*POOL_MODULES, "pickle"))
    out = subprocess.run([sys.executable, "-c", probe], env=_source_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    # a sharded run forks its shards: it starts no pool either
    probe = (JOBS_2 + "code = cli.main(sys.argv[1:]); "
             + _loaded(POOL_MODULES) + "; sys.exit(code)")
    done = subprocess.run(
        [sys.executable, "-c", probe, *FIB_ATOROIDAL, "--aut", fib_file],
        env=_source_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines()[-1] == "[]"


def test_failed_self_check_exits_2(fib_file, capsys, monkeypatch):
    # a witness that fails its re-verification is a bug, not a verdict:
    # one JSON error line and exit 2, never a traceback with the witness
    # code 1
    monkeypatch.setattr(verify, "conjugate_test", lambda u, v: False)
    assert main([*FIB_ATOROIDAL, "--aut", fib_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"].startswith("SelfCheckFailed: ")


def test_self_check_runs_under_python_O(fib_file):
    probe = ("import sys; from fpaut import cli, verify; "
             "print(sys.flags.optimize); "
             "verify.conjugate_test = lambda u, v: False; "
             "sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-O", "-c", probe, *FIB_ATOROIDAL, "--aut", fib_file],
        env=_source_env(), capture_output=True, text=True)
    assert done.stdout == "1\n"
    assert done.returncode == 2
    assert json.loads(done.stderr)["error"].startswith("SelfCheckFailed: ")


SEARCHES = {"atoroidal": atoroidal_search, "twins": twin_search,
            "flare": flare_certify}


@pytest.fixture(scope="session")
def shear_mixed():
    # Z^2 * F_1, a shear on A_1 and x1 -> a1.1^-1 x1: at bounds 3/1/2 the
    # first witness lies in root group 7 of 18, and later groups hold more
    pres = Presentation((2,), 1)
    return make_aut(pres, {"a1.1": "a1.1", "a1.2": "a1.1 a1.2",
                           "x1": "a1.1^-1 x1"},
                    {"a1.1": "a1.1", "a1.2": "a1.1^-1 a1.2",
                     "x1": "a1.1 x1"})


def serial_records(search, phi, *args):
    """The serial report and the records its walk folded: those of root
    groups 0, 1, ... up to the end or the first witness."""
    kept = []

    def walk(records):
        kept.extend(records())
        return kept
    return search(phi, *args, walk=walk), kept


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_shear_mixed_witness_needs_the_index_rebuild(shear_mixed, shards):
    # the fold takes the first witness by ordinal, not the first one found:
    # for some claim orders the first witness lies in a group that claimant
    # 0 does not walk, other claimants walk groups before it, and another
    # claimant finds a later witness before claims stop
    serial, _ = serial_records(atoroidal_search, shear_mixed, 3, 1, 2)
    seen = 0
    for seed in range(20):
        parts = []
        report = atoroidal_search(shear_mixed, 3, 1, 2,
                                  walk=in_process_claims(shards, seed, parts))
        assert report == serial
        found = {c: p[-1][0] for c, p in enumerate(parts)
                 if p and p[-1][1][1] is not None}
        owner = min(found, key=found.get)
        seen += owner != 0 and len(found) > 1 and any(
            k < found[owner] and tested
            for c, p in enumerate(parts) if c != owner
            for k, (tested, _) in p)
    assert seen


@pytest.mark.parametrize("kind, fixture, args", [
    ("atoroidal", "intro_anosov", (4, 1, 2)),        # exhausted
    ("atoroidal", "fibonacci", (4, 1, 2)),           # witness
    ("twins", "intro_anosov", (2, 2)),               # witness
    ("twins", "fibonacci", (2, 2)),                  # exhausted
    ("flare", "intro_anosov", (2, 2, 1, 3, "1.1")),
    ("flare", "mixed", (2, 3, 2, 6, "1.1")),         # counterexamples not
                                                     # in Word.sort_key order
    ("atoroidal", "shear_mixed", (3, 1, 2)),         # see above
    ("twins", "intro_anosov", (2, 1)),               # 22 root groups
    ("flare", "tribonacci", (2, 3, 1, 6, "1.1")),    # certificate at N = 3
])
# 200 claimants: more than the root groups of every case but twins intro
# 2/2, so claimants that walk no group are covered for all three searches
@pytest.mark.parametrize("shards", [2, 3, 5, 200])
def test_merge_reports_equal_serial(request, kind, fixture, args, shards):
    # claimants in this process, so counts above the CPU count are covered
    phi = request.getfixturevalue(fixture)
    phi = phi[0] if isinstance(phi, tuple) else phi
    search = SEARCHES[kind]
    serial, kept = serial_records(search, phi, *args)
    assert search(phi, *args) == serial
    for seed in range(3):
        parts = []
        merged = search(phi, *args,
                        walk=in_process_claims(shards, seed, parts))
        assert len(parts) == shards
        # every group up to the end or the first witness is walked once,
        # and a group past the first witness at most once
        walked = sorted(k for part in parts for k, _ in part)
        assert walked[:len(kept)] == list(range(len(kept)))
        assert len(set(walked)) == len(walked)
        if shards == 200 and (kind, fixture, args) != \
                ("twins", "intro_anosov", (2, 2)):
            assert not all(parts)
        for attr in ("verdict", "witness", "counterexamples", "certificate",
                     "tested", "notes"):
            assert getattr(merged, attr) == getattr(serial, attr), attr
        # a report keeps no records: a twin search makes one per 64 pairs
        assert "records" not in vars(serial) and merged == serial


def test_fork_after_each_prefix_gives_the_serial_report(
        shear_mixed, intro_anosov, fork_calls, monkeypatch):
    # a clock that reads 0, 1, 2, ... seconds: with `_FORK_AFTER_S` = k the
    # walk forks after the caller's first k root groups, or never when the
    # search walks fewer; shear_mixed ends at the witness of its group 7,
    # flare walks all 10 groups of intro
    monkeypatch.setattr(cli, "time", SimpleNamespace(
        perf_counter=itertools.count().__next__))
    for kind, phi, bounds in (
            ("atoroidal", shear_mixed,
             {"max_len": 3, "max_exp": 1, "max_iter": 2}),
            ("flare", intro_anosov,
             {"min_len": 2, "max_len": 2, "max_exp": 1, "max_iter": 3,
              "lambda_min": "1.1"})):
        serial, kept = serial_records(
            lambda phi, **walk: COMMANDS[kind].search(phi, bounds, **walk),
            phi)
        for k in range(1, len(kept) + 2):
            monkeypatch.setattr(cli, "_FORK_AFTER_S", k)
            del fork_calls[:]
            assert cli._run_sharded(kind, phi, bounds, 2) == serial, k
            assert len(fork_calls) == (k <= len(kept)), k
            assert_no_child_left()


def claimed_stream(caller, ending):
    """A search's ``records`` over root groups 0, 1, ..., one record
    (ordinal, witness?) per group the walk takes.  ``ending`` "exhausted"
    stops after 400 groups; "caller witness" and "child witness" never end
    but at a witness, the first group that the caller (pid ``caller``)
    walks after the fork or the first any child walks.  The caller sleeps
    0.2 ms per group, so the children get their claims in."""
    def records(owned=None):
        groups = range(400) if ending == "exhausted" else itertools.count()
        for k in itertools.compress(groups, owned):
            in_caller = os.getpid() == caller
            if in_caller:
                time.sleep(0.0002)
            if (ending == "caller witness" and in_caller and k) or \
                    (ending == "child witness" and not in_caller):
                yield k, True
                return
            yield k, False
    return records


def _time_out(signum, frame):
    raise TimeoutError("the --jobs walk hangs")


@pytest.mark.parametrize("ending",
                         ["exhausted", "caller witness", "child witness"])
def test_claims_walk_each_group_once(fork_at_once, ending):
    # 5 processes on fewer cores claim groups until one stream ends: the
    # walk returns each record once, in ordinal order, without a gap up to
    # the end or the first witness, which a lost update of the shared
    # counter would break; it ends within a minute and leaves no child
    handler = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(60)
    try:
        records = cli._merge_reports(claimed_stream(os.getpid(), ending), 5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert len(fork_at_once) == 4
    assert_no_child_left()
    ordinals = [k for k, _ in records]
    assert ordinals == sorted(set(ordinals))
    witnesses = [k for k, witness in records if witness]
    end = witnesses[0] + 1 if witnesses else 400
    assert ordinals[:end] == list(range(end))
    assert bool(witnesses) == (ending != "exhausted")


def test_sharded_cli_run_exits_cleanly(fib_file):
    # a one-shot run that forks a shard: no hang, nothing on stderr
    probe = JOBS_2 + "sys.exit(cli.main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", probe, *FIB_ATOROIDAL, "--aut", fib_file],
        env=_source_env(), capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert done.returncode == 1
    assert json.loads(done.stdout)["result"]["verdict"] == "witness"


def _fail_in(monkeypatch, process, fail):
    """Make ``cli.atoroidal_search`` call ``fail()`` in ``process``,
    "caller" or "child", when its walk asks after the fork whether it takes
    a root group, before it claims one; with `_FORK_AFTER_S` = 0, set here,
    the caller forks after its first group.  Every other process searches
    as usual."""
    search, caller = cli.atoroidal_search, os.getpid()
    monkeypatch.setattr(cli, "_FORK_AFTER_S", 0)

    def failing(owned):
        for own in owned:
            yield own
            if (os.getpid() == caller) == (process == "caller"):
                fail()

    def patched(phi, *args, walk):
        return search(phi, *args, walk=lambda records: walk(
            lambda owned: records(failing(owned))))
    monkeypatch.setattr(cli, "atoroidal_search", patched)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_self_check():
    raise SelfCheckFailed("shard self-check")


def _jobs_past_the_parser(monkeypatch, jobs):
    parse = cli.config_from_args
    monkeypatch.setattr(cli, "config_from_args",
                        lambda argv: dataclasses.replace(parse(argv), jobs=jobs))


def assert_one_error_line(capsys, error):
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == error


def test_forked_shard_error_keeps_its_type(fib_file, capsys, monkeypatch):
    _fail_in(monkeypatch, "child", _raise_self_check)
    _jobs_past_the_parser(monkeypatch, 2)
    assert main([*FIB_ATOROIDAL, "--aut", fib_file]) == 2
    assert_one_error_line(capsys, "SelfCheckFailed: shard self-check")
    assert_no_child_left()


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, FpAutError)])
def test_errors_survive_pickling(cls):
    # a forked shard sends its search's exception through a pipe, pickled
    e = cls(3, "bad") if cls is ParseError else cls("bad")
    clone = pickle.loads(pickle.dumps(e))
    assert type(clone) is cls and str(clone) == str(e)
    if cls is ParseError:
        assert (clone.position, clone.message, str(clone)) == \
            (3, "bad", "at position 3: bad")


def _raise_parse_error():
    raise ParseError(3, "bad")


def test_forked_shard_parse_error_is_one_json_line(fib_file, capsys,
                                                   monkeypatch):
    _fail_in(monkeypatch, "child", _raise_parse_error)
    _jobs_past_the_parser(monkeypatch, 2)
    assert main([*FIB_ATOROIDAL, "--aut", fib_file]) == 2
    assert_one_error_line(capsys, "ParseError: at position 3: bad")
    assert_no_child_left()


def test_failed_fork_closes_the_pipe_and_kills_the_shards(fib_file, capsys,
                                                          monkeypatch):
    # the first fork starts child 1, the second fails: child 1 is killed and
    # reaped, and the pipes are closed, the failed child's and the claims'
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("no fork")
        return fork()
    _jobs_past_the_parser(monkeypatch, 3)
    monkeypatch.setattr(cli, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "fork", failing_fork)
    fd_dir = "/proc/self/fd"
    before = set(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    assert main([*FIB_ATOROIDAL, "--aut", fib_file]) == 2
    assert_one_error_line(capsys, "OSError: no fork")
    assert len(calls) == 2
    assert_no_child_left()
    if before is not None:
        assert set(os.listdir(fd_dir)) <= before


def _raise_memory_error():
    raise MemoryError("shard out of memory")


def test_forked_shard_memory_error_is_one_json_line(fib_file, capsys,
                                                    monkeypatch):
    # running out of memory is an error, never the witness exit code 1
    _fail_in(monkeypatch, "child", _raise_memory_error)
    _jobs_past_the_parser(monkeypatch, 2)
    assert main([*FIB_ATOROIDAL, "--aut", fib_file]) == 2
    assert_one_error_line(capsys, "MemoryError: atoroidal --max-len 5 "
                          "--max-exp 3 --max-iter 4: shard out of memory")
    assert_no_child_left()


def test_memory_error_exits_2(fib_file):
    # a serial classify run that outgrows a 150 MB address space: one JSON
    # error line and exit 2, not a traceback with the witness code 1; the
    # limit is lowered in the child only
    probe = ("import resource, sys; "
             "_, hard = resource.getrlimit(resource.RLIMIT_AS); "
             "limit = 150 * 2 ** 20; "
             "resource.setrlimit(resource.RLIMIT_AS, (limit if hard == "
             "resource.RLIM_INFINITY else min(limit, hard), hard)); "
             "from fpaut import cli; sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", probe, "classify", "--aut", fib_file,
         "--element", "x1", "--max-iter", "34"],
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1
    # str(MemoryError()) is empty, so the line names the job instead
    assert json.loads(done.stderr)["error"] == \
        "MemoryError: classify --max-iter 34"


def test_forked_shard_without_result_is_reported(fib_file, monkeypatch):
    _fail_in(monkeypatch, "child", lambda: os._exit(3))
    cfg = config_from_args([*FIB_ATOROIDAL, "--aut", fib_file])
    with pytest.raises(FpAutError) as info:
        run(dataclasses.replace(cfg, jobs=2))
    assert type(info.value) is FpAutError
    assert str(info.value) == \
        "shard 1 of 2 ended without a result (exit status 3)"
    assert_no_child_left()


def test_caller_shard_error_kills_the_forked_shards(fib_file, monkeypatch):
    # the child sleeps far past the test: only a kill ends it in time
    _fail_in(monkeypatch, "child", lambda: time.sleep(60))
    _fail_in(monkeypatch, "caller", _raise_self_check)
    cfg = config_from_args([*FIB_ATOROIDAL, "--aut", fib_file])
    t0 = time.monotonic()
    with pytest.raises(SelfCheckFailed, match="shard self-check"):
        run(dataclasses.replace(cfg, jobs=2))
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_strict_undecided_exit_3(fib_file, swapped_file):
    code, report = run(config_from_args(
        ["conjugacy", "--aut", fib_file, "--aut2", swapped_file, "--strict"]))
    assert report["result"]["status"] == "undecided"
    assert code == 3


def test_cache_exit_code_follows_strict(fib_file, swapped_file, tmp_path):
    argv = ["conjugacy", "--aut", fib_file, "--aut2", swapped_file,
            "--conj-len", "2", "--cache-dir", str(tmp_path / "cache")]
    strict_code, strict = run_with_cache(config_from_args(argv + ["--strict"]))
    plain_code, plain = run_with_cache(config_from_args(argv))
    assert plain["timing"]["cache"] == "hit"
    assert strict["timing"]["cache"] == "miss"
    assert (strict_code, plain_code) == (3, 0)
    assert plain["canonical_sha256"] == strict["canonical_sha256"]


def test_cache_entry_holds_report_only(fib_file, tmp_path):
    cache = tmp_path / "cache"
    _, report = run_with_cache(config_from_args(
        ["torus-ab", "--aut", fib_file, "--cache-dir", str(cache)]))
    entries = list(cache.iterdir())
    assert len(entries) == 1 and entries[0].suffix == ".json"
    doc = json.loads(entries[0].read_text())
    assert "exit_code" not in doc
    assert doc["canonical_sha256"] == report["canonical_sha256"]


def test_failed_cache_write_leaves_no_entry(fib_file, tmp_path, monkeypatch):
    # a write that fails before its rename must leave neither a temporary
    # file nor an entry, so no half-written report is ever replayed
    cache = tmp_path / "cache"

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        run_with_cache(config_from_args(
            ["torus-ab", "--aut", fib_file, "--cache-dir", str(cache)]))
    assert list(cache.iterdir()) == []


def test_cache_key_follows_source_digest(fib_file, monkeypatch):
    cfg = config_from_args(["torus-ab", "--aut", fib_file])
    inputs = {"aut": {"path": "fib.json", "sha256": "f" * 64}}
    key = cli._cache_key(cfg, inputs)
    assert cli._cache_key(cfg, inputs) == key
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cli._cache_key(cfg, inputs) != key


def test_cache_files_report_under_the_bytes_it_parsed(fib_file, swapped_file,
                                                      tmp_path, monkeypatch):
    # the input is replaced between the cache lookup's read and the run's
    # read: the report goes under the new bytes, and the old bytes still
    # get their own report
    argv = ["torus-ab", "--aut", fib_file, "--cache-dir", str(tmp_path / "c")]
    old, new = Path(fib_file).read_bytes(), Path(swapped_file).read_bytes()
    original = cli.load_automorphism

    def swapping(path):
        Path(path).write_bytes(new)
        return original(path)
    monkeypatch.setattr(cli, "load_automorphism", swapping)
    _, swapped = run_with_cache(config_from_args(argv))
    monkeypatch.undo()
    _, replay_new = run_with_cache(config_from_args(argv))
    assert replay_new["timing"]["cache"] == "hit"
    assert replay_new["canonical_sha256"] == swapped["canonical_sha256"]
    Path(fib_file).write_bytes(old)
    _, replay_old = run_with_cache(config_from_args(argv))
    _, fresh = run(config_from_args(argv))
    assert replay_old["canonical_sha256"] == fresh["canonical_sha256"]
    assert replay_old["canonical_sha256"] != swapped["canonical_sha256"]


def test_cache_replays_no_report_of_another_file_name(fib_file, tmp_path):
    # the report names its input file, so the same bytes under another
    # name are another entry
    cache = str(tmp_path / "cache")
    other = tmp_path / "other.json"
    other.write_bytes(Path(fib_file).read_bytes())
    run_with_cache(config_from_args(["torus-ab", "--aut", fib_file,
                                     "--cache-dir", cache]))
    _, replay = run_with_cache(config_from_args(
        ["torus-ab", "--aut", str(other), "--cache-dir", cache]))
    _, fresh = run(config_from_args(["torus-ab", "--aut", str(other)]))
    assert replay["canonical_sha256"] == fresh["canonical_sha256"]


@pytest.mark.parametrize("damage", [
    lambda text: text.replace('"verdict":"witness"', '"verdict":"exhausted"'),
    lambda text: text[:len(text) // 2],
], ids=["tampered", "truncated"])
def test_damaged_cache_entry_is_recomputed(fib_file, tmp_path, capsys, damage):
    # an entry whose text no longer hashes to its own canonical_sha256, or
    # no longer parses, is a miss: the job runs again and overwrites it
    cache = tmp_path / "cache"
    argv = ["atoroidal", "--aut", fib_file, "--max-len", "5", "--max-exp",
            "3", "--max-iter", "4", "--cache-dir", str(cache)]
    assert main(argv) == 1
    capsys.readouterr()
    [entry] = cache.iterdir()
    text = entry.read_text()
    entry.write_text(damage(text))
    assert entry.read_text() != text
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "witness"
    assert report["timing"]["cache"] == "miss"
    assert entry.read_text() == text
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["timing"]["cache"] == "hit"


def test_classify_cache_key_includes_element(fib_file, tmp_path):
    cache = tmp_path / "cache"
    for element in ("x1", "x2"):
        run_with_cache(config_from_args(["classify", "--aut", fib_file,
                                         "--element", element,
                                         "--cache-dir", str(cache)]))
    assert len(list(cache.glob("*.json"))) == 2


# bounds of every command when no bound flag is given
DEFAULT_BOUNDS = {
    "classify": {"max_iter": 16},
    "atoroidal": {"max_len": 4, "max_exp": 2, "max_iter": 4},
    "twins": {"max_exp": 2, "conj_len": 2},
    "flare": {"min_len": 2, "max_len": 3, "max_exp": 1, "max_iter": 6,
              "lambda_min": "1.1"},
    "traintrack": {"depth": 0},
    "constants": {"depth": 0},
    "nielsen": {"max_len": 2, "max_iter": 2},
    "torus-ab": {},
    "conjugacy": {"conj_len": 3},
}


def _required_argv(command):
    """The shortest argument list `command` parses."""
    argv = [command, "--aut", "a.json"]
    if command == "classify":
        argv += ["--element", "x1"]
    if command == "conjugacy":
        argv += ["--aut2", "b.json"]
    return argv


@pytest.mark.parametrize("command", sorted(DEFAULT_BOUNDS))
def test_default_bounds(command):
    cfg = config_from_args(_required_argv(command))
    assert cfg.bounds == DEFAULT_BOUNDS[command]
    assert (cfg.jobs, cfg.strict) == (1, False)


def test_command_table_is_the_cli():
    assert set(COMMANDS) == set(DEFAULT_BOUNDS) == set(ONE_JOB)
    assert {name for name, c in COMMANDS.items() if c.search} == \
        {"atoroidal", "twins", "flare"}
    # the commands that can return `undecided`
    assert {name for name, c in COMMANDS.items() if c.strict} == \
        {"traintrack", "conjugacy"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_jobs_and_strict_parse_only_where_declared(command):
    entry = COMMANDS[command]
    for flag, declared in ((["--jobs", "2"], entry.search is not None),
                           (["--strict"], entry.strict)):
        argv = _required_argv(command) + flag
        if declared:
            config_from_args(argv)
        else:
            with pytest.raises(ParseError, match=f"unrecognized .*{flag[0]}"):
                config_from_args(argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--jobs", "2", "--element", "x1"],
    ["atoroidal", "--strict"],
])
def test_undeclared_flag_exits_2(fib_file, argv, capsys):
    assert main(argv + ["--aut", fib_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert f"unrecognized arguments: {argv[1]}" in error


# every argument error leaves through main's JSON line, naming the
# subcommand whose parser found it
@pytest.mark.parametrize("argv, message", [
    (["atoroidal"], "fpaut atoroidal: the following arguments are required: --aut"),
    ([], "fpaut: the following arguments are required: command"),
    (["nope", "--aut", "x"], "fpaut: argument command: invalid choice: 'nope'"),
    (["atoroidal", "--aut", "x", "--max-len", "abc"],
     "fpaut atoroidal: argument --max-len: invalid int value: 'abc'"),
    (["atoroidal", "--aut", "x", "--bogus"],
     "fpaut: unrecognized arguments: --bogus"),
])
def test_argument_errors_exit_2_with_one_json_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert message in json.loads(captured.err)["error"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["atoroidal", "--help"])
    assert err.value.code == 0
    assert "--max-len" in capsys.readouterr().out


def test_bounds_deeper_than_the_recursion_limit_exit_2(fib_file, capsys):
    # 1,200 syllables: the enumerator recurses once per syllable
    assert main(["flare", "--aut", fib_file, "--min-len", "1200",
                 "--max-len", "1200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"].startswith("RecursionError")


# one job of every command, on inputs whose results hold words, fractions
# and floats
ONE_JOB = {
    "classify": ("fib", ["--element", "x1 x2^-1"]),
    "atoroidal": ("fib", ["--max-len", "6", "--max-exp", "4"]),
    "twins": ("intro", []),
    "flare": ("intro", ["--max-len", "2", "--max-iter", "3"]),
    "traintrack": ("twist", []),
    "constants": ("fib", []),
    "nielsen": ("twist", []),
    "torus-ab": ("intro", []),
    "conjugacy": ("fib", ["--aut2", "swapped"]),
}


@pytest.mark.parametrize("command", sorted(ONE_JOB))
def test_report_is_its_own_json(request, command):
    name, args = ONE_JOB[command]
    args = [request.getfixturevalue(f"{a}_file") if a == "swapped" else a
            for a in args]
    _, report = run(config_from_args(
        [command, "--aut", request.getfixturevalue(f"{name}_file"), *args]))
    assert json.loads(canonical_json(report)) == report


@pytest.mark.parametrize("result, plain, strict", [
    ({"verdict": "witness"}, 1, 1),
    ({"verdict": "exhausted"}, 0, 0),
    ({"verdict": "undecided"}, 0, 3),
    ({"status": "holds"}, 0, 0),
    ({"status": "violated"}, 1, 1),
    ({"status": "undecided"}, 0, 3),
    ({"status": "conjugate"}, 0, 0),
    ({"status": "distinguished"}, 1, 1),
    ({"kind": "exponential"}, 0, 0),   # classify: no verdict
    ({"count": 0, "witnesses": []}, 0, 0),   # nielsen
])
def test_exit_code_rule(result, plain, strict):
    assert exit_code(result, False) == plain
    assert exit_code(result, True) == strict


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(fib_file, jobs, capsys):
    argv = ["atoroidal", "--aut", fib_file, "--jobs", jobs]
    with pytest.raises(ParseError):
        config_from_args(argv)
    assert main(argv) == 2
    capsys.readouterr()


def test_jobs_clamped_to_cpu_count(fib_file):
    # only parsed: no shard is forked
    cpus = os.cpu_count() or 1
    cfg = config_from_args(["atoroidal", "--aut", fib_file,
                            "--jobs", str(cpus + 100)])
    assert cfg.jobs == cpus


def test_main_exit_codes(fib_file, capsys, tmp_path):
    assert main(["torus-ab", "--aut", fib_file]) == 0
    assert main(["atoroidal", "--aut", fib_file, "--max-len", "6",
                 "--max-exp", "4", "--max-iter", "4"]) == 1
    missing = str(tmp_path / "missing.json")
    assert main(["torus-ab", "--aut", missing]) == 2
    capsys.readouterr()


def test_zero_bound_rejected(fib_file, capsys):
    assert main(["atoroidal", "--aut", fib_file, "--max-len", "0"]) == 2
    assert "--max-len must be positive" in capsys.readouterr().err


def test_unknown_generator_rejected(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({**FIB, "images": {**FIB["images"], "x3": "x1"}}))
    assert main(["torus-ab", "--aut", str(path)]) == 2
    assert "unknown generators ['x3']" in capsys.readouterr().err


# malformed automorphism files are input errors (exit 2), not a traceback
# with the witness code 1 and not silently coerced
@pytest.mark.parametrize("doc, field", [
    ({**FIB, "images": {"x1": 5}}, "'x1'"),
    ({**FIB, "inverse_images": ["x2"]}, "image table"),
    ([1, 2], "JSON object"),
    ({**MIXED, "group": {"abelian_factors": [2.7], "free_rank": True}},
     "abelian_factors"),
    ({**MIXED, "group": {"abelian_factors": [2], "free_rank": True}},
     "free_rank"),
    ({**MIXED, "group": {"abelian_factors": [2], "free_rank": -1}},
     "free_rank"),
    ({**TWIST, "group": {"abelian_factors": "22", "free_rank": 0}},
     "abelian_factors"),
    ({**TWIST, "group": {"abelian_factors": [2, 0]}}, "abelian_factors"),
    ({**FIB, "group": [2]}, "group"),
])
def test_malformed_automorphism_file_exits_2(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["torus-ab", "--aut", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error.startswith("ParseError") and field in error


@pytest.mark.parametrize("value", ["0.9", "1/0", "abc"])
def test_main_rejects_bad_lambda(fib_file, capsys, value):
    assert main(["flare", "--aut", fib_file, "--lambda-min", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--lambda-min" in json.loads(captured.err)["error"]


def test_flare_min_len_above_max_len_rejected(mixed_file, capsys):
    # an empty length range would certify over no class at all
    argv = ["flare", "--aut", mixed_file, "--min-len", "5", "--max-len", "3"]
    with pytest.raises(ParseError):
        config_from_args(argv)
    assert main(argv) == 2
    assert "--min-len" in capsys.readouterr().err


def test_out_file(fib_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["torus-ab", "--aut", fib_file, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1


def test_unwritable_out_exits_2(fib_file, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["torus-ab", "--aut", fib_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "FileNotFoundError" in json.loads(captured.err)["error"]
