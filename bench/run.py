"""fpaut benchmark runner.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One process runs one workload: a fixed list of CLI jobs sent in-process
through ``fpaut.cli.run_with_cache`` by one client in a closed loop.  A pass
sends every job into a fresh cache directory, first as a miss (computes and
writes) and then three times as a hit (reads).  Passes repeat until ``--seconds`` have
gone by.  Every report is checked against the pinned references in
``reference.json`` (exit code, verdict or status, ``tested`` and
``canonical_sha256``), classify reports against an independent recomputation
(``oracle.py``), and every hit against its miss.

Every time is scaled to the reference speed of ``speed.py``, by probes
taken between passes.  With ``--trace 0`` the last line of output carries
the end-to-end metrics; with ``--trace 1`` half the time runs untraced and
half under the span tracer (``tracer.py``), and the last line carries the
per-layer metrics.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_RUNS = 9
HITS = 3

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "job_s_p50": "s", "job_s_p90": "s",
    "cache_hit_s_p50": "s", "jobs_per_s": "1/s", "work_per_s": "1/s",
    "ok_share": "ratio", "peak_rss_mb": "MB",
}

_COUNT_KEYS = (
    "words.calls", "words.reduce_syllables.calls", "words.power.calls",
    "words.cyclic_normal_form.calls", "words.conjugate_test.calls",
    "words.canonical_rotation.calls", "words.canonical_rotation.syllables",
    "automorphisms.calls", "automorphisms.apply.calls",
    "automorphisms.apply.syllables_out", "automorphisms.compose.calls",
    "automorphisms.validate.calls", "automorphisms.power.calls",
    "dynamics.calls", "dynamics.enumerate.yielded", "dynamics.tested",
    "dynamics.orbit_syllables", "mapping_torus.calls",
    "mapping_torus.candidates_tested", "matrices.calls",
    "matrices.smith_normal_form.calls", "graph_maps.calls",
    "graph_maps.apply_to_path.calls", "parsing.calls", "cli.calls",
    "cli.cache_hits", "cli.cache_misses",
)
_TIME_KEYS = (
    "words.self_s", "words.power.self_s", "words.cyclic_normal_form.self_s",
    "words.conjugate_test.self_s", "words.canonical_rotation.self_s",
    "automorphisms.self_s", "automorphisms.apply.self_s",
    "automorphisms.compose.self_s", "automorphisms.validate.self_s",
    "dynamics.self_s", "dynamics.enumerate.self_s", "mapping_torus.self_s",
    "matrices.self_s", "matrices.pf_growth_rate.self_s", "graph_maps.self_s",
    "graph_maps.apply_to_path.self_s", "parsing.self_s", "cli.self_s",
    "cli.load_s", "cli.render_s", "cli.cache_read_s", "cli.cache_write_s",
    "cli.shard_s",
)
_RATIO_KEYS = ("mapping_torus.useful_ratio", "cli.shard_useful_ratio",
               "trace.overhead_ratio")
PER_LAYER = {**{k: "count" for k in _COUNT_KEYS},
             **{k: "s" for k in _TIME_KEYS},
             **{k: "ratio" for k in _RATIO_KEYS},
             "speed.probe_s": "s"}

# ---------------------------------------------------------------------------
# workloads

# Every list is sized so that a pass takes about two seconds and a run holds
# ten or more passes: the medians over passes then absorb the slow stretches
# of a shared machine.
SEARCH = (
    "atoroidal --aut intro.json --max-len 3 --max-exp 3 --max-iter 1",
    "atoroidal --aut trib.json --max-len 5 --max-exp 2 --max-iter 1",
    "flare --aut mixed.json --min-len 2 --max-len 3 --max-exp 2 --max-iter 6",
    "atoroidal --aut fib.json --max-len 5 --max-exp 3 --max-iter 4",
    "twins --aut intro.json --max-exp 2 --conj-len 2",
)
# Six long orbits and six short ones.
ORBIT_FIXED = (
    ("fib", "x1", 15), ("fib", "x1 x2^-1", 16), ("trib", "x1 x2^-1", 24),
    ("trib", "x1", 26), ("intro", "a1.1 a2.1", 64), ("mixed", "a1.1 x1", 64),
    ("twist", "a1.2 a2.1", 64),
)
ORBIT_SEEDED_ITER = {"fib": 12, "trib": 21, "intro": 64, "twist": 64,
                     "mixed": 64}
FIXTURES = ("fib", "trib", "intro", "twist", "mixed")
ALGEBRA = (
    *(f"{cmd} --aut {f}.json" for f in FIXTURES
      for cmd in ("torus-ab", "traintrack", "constants", "nielsen")),
    "nielsen --aut intro.json --max-len 4 --max-iter 2",
    "nielsen --aut trib.json --max-len 6 --max-iter 4",
    "nielsen --aut twist.json --max-len 4 --max-iter 3",
    "twins --aut twist.json --max-exp 4 --conj-len 2",
    "twins --aut mixed.json --max-exp 6 --conj-len 3",
    # the --strict twin goes first: its cached exit 3 is replayed to the
    # plain job, a known defect of the cache key
    "conjugacy --aut fib.json --aut2 fibsw.json --conj-len 2 --strict",
    "conjugacy --aut fib.json --aut2 fibsw.json --conj-len 2",
    "conjugacy --aut intro.json --aut2 intro_sub.json",
    "conjugacy --aut fib.json --aut2 fib2.json",
)
ALGEBRA_SEEDED = ("conjugacy --aut intro.json --aut2 intro_conj.json",
                  "conjugacy --aut twist.json --aut2 twist_conj.json")
WORKLOADS = ("search", "search-jobs2", "orbit", "algebra")


@dataclasses.dataclass(frozen=True)
class Job:
    args: tuple          # CLI arguments; input files by name
    seeded: bool = False
    jobs: int = 1

    @property
    def key(self) -> str:
        """Reference key: the arguments without --jobs."""
        return shlex.join(self.args)

    @property
    def command(self) -> str:
        return self.args[0]

    def argv(self, indir: Path) -> list:
        out = [str(indir / a) if a.endswith(".json") else a for a in self.args]
        return out + (["--jobs", str(self.jobs)] if self.jobs != 1 else [])


def workload_jobs(name: str, elements: dict) -> list:
    if name in ("search", "search-jobs2"):
        jobs = 2 if name == "search-jobs2" else 1
        return [Job(tuple(s.split()), jobs=jobs) for s in SEARCH]
    if name == "orbit":
        out = [Job(("classify", "--aut", f"{f}.json", "--element", el,
                    "--max-iter", str(n))) for f, el, n in ORBIT_FIXED]
        out += [Job(("classify", "--aut", f"{f}.json", "--element",
                     elements[f], "--max-iter", str(n)), seeded=True)
                for f, n in ORBIT_SEEDED_ITER.items()]
        return out
    if name == "algebra":
        return ([Job(tuple(s.split())) for s in ALGEBRA]
                + [Job(tuple(s.split()), seeded=True) for s in ALGEBRA_SEEDED])
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running and checking


@dataclasses.dataclass
class Send:
    job: Job
    kind: str            # "miss" or "hit"
    seconds: float
    outcome: tuple       # (exit code, verdict or status, tested, sha256)
    lengths: list | None = None
    masses: list | None = None
    scale: float = 1.0   # speed scale of its pass (speed.py)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def outcome_of(code: int, report: dict) -> tuple:
    result = report.get("result", {})
    verdict = result.get("verdict", result.get("status"))
    return (code, verdict, result.get("tested"), report["canonical_sha256"])


def run_pass(cli, configs: list, cache_dir: Path, tracer=None) -> list:
    """Send every job as a miss and then HITS times as a hit; one client,
    closed loop."""
    sends = []
    for job_id, (job, cfg) in enumerate(configs):
        cfg = dataclasses.replace(cfg, cache_dir=str(cache_dir))
        for kind in ("miss",) + ("hit",) * HITS:
            if tracer is not None:
                tracer.job[0] = job_id
            t0 = time.perf_counter()
            try:
                code, report = cli.run_with_cache(cfg)
            except Exception as exc:  # a raising job is a failed job
                sends.append(Send(job, kind, time.perf_counter() - t0,
                                  ("raised", type(exc).__name__, str(exc), None)))
                continue
            seconds = time.perf_counter() - t0
            send = Send(job, kind, seconds, outcome_of(code, report))
            if job.command == "classify":
                send.lengths = report["result"]["lengths"]
                send.masses = report["result"]["masses"]
            sends.append(send)
    return sends


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


class Checker:
    """Decides whether each send is correct and whether a failure is a
    pinned known defect."""

    def __init__(self, workload: str, inputs, reference: dict):
        import oracle
        self.inputs = inputs
        self.reference = reference
        self.defects = reference["known_defects"].get(workload, {})
        self.oracle = oracle
        self._orbits = {}
        self._first = {}

    def expected(self, job: Job):
        if job.seeded and self.inputs.seed != self.reference["seed"]:
            return None
        ref = self.reference["jobs"][job.key]
        return (ref["exit"], ref["verdict"], ref["tested"], ref["sha256"])

    def _orbit(self, job: Job):
        if job.key not in self._orbits:
            args = dict(zip(job.args[1::2], job.args[2::2]))
            doc = json.loads(self.inputs.files[args["--aut"]])
            self._orbits[job.key] = self.oracle.orbit(
                doc, args["--element"], int(args["--max-iter"]))
        return self._orbits[job.key]

    def ok(self, send: Send) -> bool:
        out = send.outcome
        first = self._first.setdefault(send.job.key, out)
        if out != first:
            return False
        want = self.expected(send.job)
        if want is not None and out != want:
            return False
        if send.job.command == "classify":
            lengths, masses = self._orbit(send.job)
            if send.lengths != lengths or list(map(int, send.masses)) != masses:
                return False
        if want is None and send.job.command == "conjugacy":
            return out[0] == 0 and out[1] in ("conjugate", "undecided")
        return True

    def known(self, send: Send) -> bool:
        pin = self.defects.get(send.job.key)
        return pin is not None and list(send.outcome) == pin["outcome"]


def job_configs(jobs: list, indir: Path) -> list:
    from fpaut.cli import config_from_args
    return [(job, config_from_args(job.argv(indir))) for job in jobs]


def run_phase(cli, configs, seconds: float, workdir: Path, probes: list,
              tracer=None, on_pass=None):
    """Passes for about `seconds` (at least one); pass walls, their speed
    scales, sends.  The speed probe runs before the first pass and after
    every pass, and its times are appended to `probes`; a pass's scale comes
    from the two probes around it (speed.py), and each send carries it.

    Another pass starts while its expected end, judged by the last pass, is
    nearer to `seconds` than stopping now.
    """
    import speed
    walls, scales, sends = [], [], []
    before = speed.probe()
    probes.append(before)
    t_start = time.perf_counter()
    while not walls or \
            time.perf_counter() - t_start + walls[-1] / 2 < seconds:
        cache_dir = workdir / "cache" / str(len(walls))
        t0 = time.perf_counter()
        pass_sends = run_pass(cli, configs, cache_dir, tracer)
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(cache_dir, ignore_errors=True)
        if on_pass is not None:
            on_pass()
        after = speed.probe()
        probes.append(after)
        scales.append(speed.scale(before, after))
        before = after
        for send in pass_sends:
            send.scale = scales[-1]
        sends += pass_sends
    return walls, scales, sends


def measure_setup(seed: int, workdir: Path, probes: list) -> list:
    """Wall time of fresh interpreters that import fpaut and write every
    input, each scaled by the speed probes around it; the first run
    (bytecode compilation) is not counted."""
    import speed
    times = []
    before = None
    for k in range(SETUP_RUNS + 1):
        outdir = workdir / f"setup{k}"
        if k == 1:
            before = speed.probe()
            probes.append(before)
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(BENCH / "fixtures.py"), str(seed),
                        str(outdir)], check=True)
        seconds = time.perf_counter() - t0
        shutil.rmtree(outdir)
        if k:
            after = speed.probe()
            probes.append(after)
            times.append(seconds * speed.scale(before, after))
            before = after
    return times


def machine(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# metrics


def job_medians(sends, kind: str) -> list:
    """Each job's median time over the run's sends of one kind."""
    times = {}
    for s in sends:
        if s.kind == kind:
            times.setdefault(s.job.key, []).append(s.scaled)
    return [statistics.median(v) for v in times.values()]


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] \
        if len(values) > 1 else values[0]


def end_to_end(walls, scales, sends, works, setup, failed) -> tuple:
    """Times at the reference speed (speed.py), and medians throughout, so
    that a slow stretch moves a run's figures only when it covers most of
    the run: the median pass, and the job latencies over each job's median
    time."""
    miss = job_medians(sends, "miss")
    hit = job_medians(sends, "hit")
    pass_s = statistics.median(w * k for w, k in zip(walls, scales))
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_s,
        "job_s_p50": statistics.median(miss),
        "job_s_p90": p90(miss),
        "cache_hit_s_p50": statistics.median(hit),
        "jobs_per_s": len(sends) / len(walls) / pass_s,
        "work_per_s": works / len(walls) / pass_s,
        "ok_share": 1 - failed / len(sends),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_job = f"{len(miss)} jobs x {len(walls)} passes"
    samples = {"setup_s": len(setup), "pass_s": len(walls),
               "job_s_p50": per_job, "job_s_p90": per_job,
               "cache_hit_s_p50": f"{len(hit)} jobs x {HITS * len(walls)} hits",
               "jobs_per_s": len(walls), "work_per_s": len(walls)}
    return metrics, samples


def shard_useful_ratio(sends, reference) -> float:
    """Serial `tested` over reported `tested`, summed over search misses."""
    serial = reported = 0
    for s in sends:
        ref = reference["jobs"].get(s.job.key)
        if s.kind == "miss" and ref and ref["tested"] is not None \
                and isinstance(s.outcome[2], int):
            serial += ref["tested"]
            reported += s.outcome[2]
    return serial / reported if reported else 1.0


def per_layer(summaries, untraced, traced, sends, reference,
              probe_s) -> dict:
    """`untraced` and `traced` are pass walls already at reference speed;
    each summary is scaled by its traced pass's scale in `summaries`."""
    first = summaries[0][0]
    out = {}
    for key in _COUNT_KEYS:
        out[key] = first[key]
    for key in _TIME_KEYS:
        out[key] = statistics.median(s[key] * k for s, k in summaries)
    cand = first["mapping_torus.candidates_tested"]
    out["mapping_torus.useful_ratio"] = \
        first["mapping_torus.decided"] / cand if cand else 0.0
    out["cli.shard_useful_ratio"] = shard_useful_ratio(sends, reference)
    out["trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(untraced)
    out["speed.probe_s"] = probe_s
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fpaut" / "cli.py").is_file():
        print(f"fpaut sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    warnings.simplefilter("ignore")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: Path) -> int:
    probes = []
    setup = None if args.trace else measure_setup(args.seed, workdir, probes)
    import fixtures
    from fpaut import cli
    inputs = fixtures.build(args.seed)
    indir = workdir / "inputs"
    fixtures.write(inputs, indir)
    reference = load_reference()
    jobs = workload_jobs(args.workload, inputs.elements)
    configs = job_configs(jobs, indir)
    info = machine(args.seed)

    if args.trace:
        from tracer import Tracer
        walls, scales, sends = run_phase(cli, configs, args.seconds / 2,
                                         workdir, probes)
        tracer = Tracer()
        summaries = []

        def collect():
            summaries.append(tracer.summary())
            tracer.dump(OUT / f"spans-{args.workload}.bin")
            tracer.reset()

        tracer.install()
        try:
            traced_walls, traced_scales, traced_sends = run_phase(
                cli, configs, args.seconds / 2, workdir, probes, tracer,
                collect)
        finally:
            tracer.uninstall()
        all_sends = sends + traced_sends
        info.update(untraced_passes=len(walls), traced_passes=len(traced_walls),
                    spans_per_pass=summaries[0]["trace.spans"])
    else:
        walls, scales, sends = run_phase(cli, configs, args.seconds, workdir,
                                         probes)
        all_sends = sends
        info.update(passes=len(walls))

    checker = Checker(args.workload, inputs, reference)
    failures = [s for s in all_sends if not checker.ok(s)]
    correct = all(checker.known(s) for s in failures)
    probe_s = statistics.median(probes)
    info.update(sends=len(all_sends), jobs_per_pass=len(jobs),
                probe_s=round(probe_s, 6))

    if args.trace:
        metrics = per_layer(
            list(zip(summaries, traced_scales)),
            [w * k for w, k in zip(walls, scales)],
            [w * k for w, k in zip(traced_walls, traced_scales)],
            all_sends, reference, probe_s)
        units, samples = PER_LAYER, {}
    else:
        works = 0
        for s in sends:
            if s.kind != "miss" or s.outcome[0] == "raised":
                continue
            if s.job.command == "classify":
                works += sum(s.lengths)
            elif args.workload == "algebra":
                works += 1
            else:
                works += reference["jobs"][s.job.key]["tested"]
        metrics, samples = end_to_end(walls, scales, sends, works, setup,
                                      len(failures))
        units = END_TO_END

    print(f"# fpaut benchmark, workload {args.workload}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print("# machine " + json.dumps(info, sort_keys=True))
    print("# pass walls, s: " + " ".join(f"{w:.4f}" for w in walls))
    print("# pass scales: " + " ".join(f"{k:.4f}" for k in scales))
    for s in failures:
        tag = "known defect" if checker.known(s) else "WRONG"
        print(f"# failed ({tag}): {s.kind} {s.job.key} -> {list(s.outcome)}")
    for name, value in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:36s} {value:>16.6g} {units[name]}{n}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_sends),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
