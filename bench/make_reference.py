"""Regenerate reference.json: pinned outputs for the default seed.

    python3 bench/make_reference.py

Every job of every workload is run once, serially and without a cache; its
exit code, verdict or status, ``tested`` and ``canonical_sha256`` become the
reference.  Then one pass of each workload is run the way ``run.py`` runs it,
and every send that differs from its reference is pinned as a known defect,
with the observed outcome.  A difference without an explanation in
``DEFECTS`` stops the script: a new wrong answer is never pinned silently.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import run

DEFECTS = {
    ("search-jobs2", "atoroidal --aut fib.json --max-len 5 --max-exp 3 --max-iter 4"):
        "--jobs 2: shards are not cancelled at the first witness and their "
        "`tested` counts are summed (383 against 52 serially)",
    ("search-jobs2", "twins --aut intro.json --max-exp 2 --conj-len 2"):
        "--jobs 2: `tested` is summed over shards (314 against 313 serially)",
    ("search-jobs2", "flare --aut mixed.json --min-len 2 --max-len 3 "
                     "--max-exp 2 --max-iter 6"):
        "--jobs 2: the merge re-sorts the counterexamples, so the report "
        "differs from the serial one",
    ("algebra", "conjugacy --aut fib.json --aut2 fibsw.json --conj-len 2"):
        "the cache key ignores --strict: the plain job replays the exit 3 "
        "cached by its --strict twin",
}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    warnings.simplefilter("ignore")
    import fixtures
    from fpaut import cli

    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
    try:
        inputs = fixtures.build(run.DEFAULT_SEED)
        indir = workdir / "inputs"
        fixtures.write(inputs, indir)
        reference = {"seed": run.DEFAULT_SEED, "jobs": {}, "known_defects": {}}
        for workload in run.WORKLOADS:
            jobs = run.workload_jobs(workload, inputs.elements)
            for job, cfg in run.job_configs(jobs, indir):
                if job.key in reference["jobs"]:
                    continue
                code, report = cli.run(dataclasses.replace(cfg, jobs=1))
                exit_code, verdict, tested, sha = run.outcome_of(code, report)
                reference["jobs"][job.key] = {
                    "exit": exit_code, "verdict": verdict, "tested": tested,
                    "sha256": sha}
                print(f"{workload:12s} {exit_code} {verdict} {tested} {job.key}")
        for workload in run.WORKLOADS:
            jobs = run.workload_jobs(workload, inputs.elements)
            sends = run.run_pass(cli, run.job_configs(jobs, indir),
                                 workdir / "cache" / workload)
            checker = run.Checker(workload, inputs, reference)
            pins = {}
            for send in sends:
                if checker.ok(send):
                    continue
                why = DEFECTS.get((workload, send.job.key))
                if why is None:
                    print(f"unexplained failure: {workload} {send.kind} "
                          f"{send.job.key} -> {send.outcome}", file=sys.stderr)
                    return 1
                pins[send.job.key] = {"outcome": list(send.outcome), "why": why}
            if pins:
                reference["known_defects"][workload] = pins
        (run.BENCH / "reference.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
