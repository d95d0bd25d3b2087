"""Command-line front end: deterministic JSON reports over the library.

Reports are canonical: keys sorted, numbers rendered canonically, words
rendered in the text grammar so witnesses can be replayed as inputs.  The
timing block is excluded from the canonical hash, everything else is
byte-reproducible.  Expensive searches are cached by (input names and
hashes, command, bounds, element, digest of the package sources and so of
the tool version).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from pathlib import Path

from . import __version__
from .automorphisms import Automorphism, validate
from .dynamics import (SearchReport, atoroidal_search, classify_growth,
                       flare_certify, orbit_lengths, twin_search)
from .errors import FpAutError, ParseError
from .graph_maps import (build_standard_map, check_train_track,
                         constants_report, default_gate_depth, nielsen_search)
from .mapping_torus import conjugacy_pipeline, mapping_torus_abelianization
from .parsing import (parse_word, presentation_from_dict, render_word,
                      word_table_from_dict)
from .words import Word

SCHEMA = 1


@dataclass
class JobConfig:
    command: str
    aut_path: str | None = None
    aut2_path: str | None = None
    element: str | None = None
    bounds: dict = field(default_factory=dict)
    jobs: int = 1
    strict: bool = False
    out_path: str | None = None
    cache_dir: str | None = None


# ---------------------------------------------------------------------------
# serialization

def to_jsonable(x):
    if isinstance(x, Word):
        return render_word(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
            else str(x.numerator)
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, float):
        return x if x == x else None
    return x


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_automorphism(path: str):
    raw = Path(path).read_bytes()
    doc = json.loads(raw)
    if not isinstance(doc, dict):
        raise ParseError(0, "automorphism file must hold a JSON object, "
                            f"not {type(doc).__name__}")
    pres = presentation_from_dict(doc["group"])
    phi = validate(word_table_from_dict(doc["images"], pres),
                   word_table_from_dict(doc["inverse_images"], pres), pres)
    return phi, _sha256_bytes(raw)


def automorphism_to_dict(phi: Automorphism) -> dict:
    return {
        "group": {"abelian_factors": list(phi.presentation.abelian_ranks),
                  "free_rank": phi.presentation.free_rank},
        "images": {k: render_word(w) for k, w in sorted(phi.images.items())},
        "inverse_images": {k: render_word(w)
                           for k, w in sorted(phi.inverse_images.items())},
    }


# ---------------------------------------------------------------------------
# parallel sharding

def _run_sharded(kind: str, phi: Automorphism, bounds: dict,
                 jobs: int) -> SearchReport:
    """The search of ``kind`` in J shards: each shard (s, J) with s > 0 runs
    in a forked child that inherits φ (`_shard_child`), and the caller's
    walk runs shard (0, J) inside the search and hands its records and the
    children to `_merge_reports`, whose records the search folds.  No child
    outlives this call.  Without `os.fork` the search runs serially, which
    gives the same report."""
    search = COMMANDS[kind].search
    if jobs <= 1 or not hasattr(os, "fork"):
        return search(phi, bounds)
    # imported here, so a serial run does not load it
    import signal
    children = {}  # shard -> (pid, read end of its pipe), until reaped
    try:
        for s in range(1, jobs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _shard_child(w, search, phi, bounds, (s, jobs))
            os.close(w)
            children[s] = pid, os.fdopen(r, "rb")
        return search(phi, bounds, walk=lambda records: _merge_reports(
            [list(records((0, jobs)))], children))
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _shard_child(fd: int, search: Callable, phi: Automorphism, bounds: dict,
                 shard: tuple) -> None:
    """Body of a forked shard: run the search with a walk that keeps the
    shard's record list and hands the fold none, write the pickled list, or
    the exception the search raised, to ``fd`` and leave through
    `os._exit`, so the child never returns into the caller's frames or
    flushes its buffers.  The exit status is 0 only once the whole result
    is written."""
    import pickle
    code = 1
    try:
        out = []

        def walk(records):
            out.extend(records(shard))
            return ()  # the child's own fold reads nothing
        try:
            search(phi, bounds, walk=walk)
        except Exception as e:
            out = e
        data = pickle.dumps(out)
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _merge_reports(parts: list[list], children: dict):
    """The records of a search in J shards, in stream order, for its fold.
    ``parts`` holds the record lists of shards 0, 1, ...; each child of
    ``children`` (shard -> (pid, read end of its pipe)) adds the list it
    sends, and is reaped and dropped from ``children``.  A child's
    exception is re-raised with its own type; a child that ends without a
    result is an `FpAutError`.

    Shard s holds the records of the root groups s, s + J, ... up to where
    it stopped, so the lists interleave round-robin in ascending group
    order, ended lists padded with None, which is dropped (a record is a
    nonempty tuple).  Only groups after a witness go missing: a shard stops
    only at its own first witness, the fold at the first of all."""
    import pickle
    jobs = len(parts) + len(children)
    for s, (pid, pipe) in list(children.items()):
        with pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        del children[s]
        if status or not data:
            raise FpAutError(
                f"shard {s} of {jobs} ended without a result (exit "
                f"status {os.waitstatus_to_exitcode(status)})")
        value = pickle.loads(data)
        if isinstance(value, BaseException):
            raise value
        parts.append(value)
    return filter(None, chain.from_iterable(zip_longest(*parts)))


# ---------------------------------------------------------------------------
# commands

# Runners return the ``result`` block as library values (words, fractions,
# tuples, floats); `run` renders the whole report with one `to_jsonable`
# call.  They reach the library through this module's globals at call time,
# so a rebinding of those names takes effect.

def _search(cfg: JobConfig, phi: Automorphism) -> dict:
    rep = _run_sharded(cfg.command, phi, cfg.bounds, cfg.jobs)
    out = {"verdict": rep.verdict, "tested": rep.tested}
    if rep.witness is not None:
        out["witness"] = rep.witness
    if rep.counterexamples:
        out["counterexamples"] = rep.counterexamples
    if rep.certificate is not None:
        out["certificate"] = rep.certificate
    if rep.notes:
        out["notes"] = rep.notes
    return out


def _classify(cfg: JobConfig, phi: Automorphism) -> dict:
    w = parse_word(cfg.element, phi.presentation)
    data = orbit_lengths(phi, w, cfg.bounds["max_iter"])
    verdict = classify_growth(data.lengths, classes=data.classes)
    # the classes repeat for both sequences or for neither
    mass_verdict = verdict if verdict.kind == "bounded" \
        else classify_growth(data.masses)
    return {
        "lengths": data.lengths,
        "masses": data.masses,
        "kind": verdict.kind,
        "heuristic": verdict.heuristic,
        "rate": verdict.rate,
        "degree": verdict.degree,
        "period": verdict.period,
        "preperiod": verdict.preperiod,
        "mass_kind": mass_verdict.kind,
        "mass_degree": mass_verdict.degree,
        "diagnostics": verdict.diagnostics,
    }


def _traintrack(cfg: JobConfig, phi: Automorphism) -> dict:
    m = build_standard_map(phi)
    depth = cfg.bounds["depth"] or default_gate_depth(phi.presentation)
    verdict = check_train_track(m, depth)
    gates = verdict.gates
    return {
        "status": verdict.status,
        "witness": verdict.witness,
        "depth": depth,
        "base_gate_count": len(gates.base_gates),
        "base_gates": [sorted(g) for g in gates.base_gates],
        "stable": gates.stable,
    }


def _constants(cfg: JobConfig, phi: Automorphism) -> dict:
    m = build_standard_map(phi)
    depth = cfg.bounds["depth"] or default_gate_depth(phi.presentation)
    rep = constants_report(m, depth)
    return {
        "growth_rate": rep.growth.value,
        "growth_bounds": [rep.growth.lower, rep.growth.upper],
        "error_bound": rep.growth.error_bound,
        "cancellation": rep.cancellation,
        "transversality": "1",  # unit edge lengths
        "critical_constant": rep.critical_constant,
        "irreducible": rep.irreducible,
        "growth_eigenvector": rep.growth.eigenvector,
        "lipschitz": m.lipschitz,
        "metric": rep.metric,
        "depth": depth,
    }


def _nielsen(cfg: JobConfig, phi: Automorphism) -> dict:
    m = build_standard_map(phi)
    found = nielsen_search(m, cfg.bounds["max_len"], cfg.bounds["max_iter"])
    return {
        "witnesses": [{
            "start": w.path.start,
            "steps": w.path.steps,
            "exponent": w.exponent,
            "element": w.element,
        } for w in found],
        "count": len(found),
    }


def _torus_ab(cfg: JobConfig, phi: Automorphism) -> dict:
    rep = mapping_torus_abelianization(phi)
    return {
        "invariant_factors": [str(d) for d in rep.invariant_factors],
        "torsion": [str(d) for d in rep.torsion],
        "free_rank": rep.free_rank,
        "generator_images": rep.generator_images,
    }


def _conjugacy(cfg: JobConfig, phi: Automorphism,
               phi2: Automorphism) -> dict:
    verdict = conjugacy_pipeline(phi, phi2, conj_len=cfg.bounds["conj_len"])
    return {
        "status": verdict.status,
        "witness": verdict.witness,
        "invariant": verdict.invariant,
        "diagnostics": verdict.diagnostics,
    }


@dataclass(frozen=True)
class Command:
    """One CLI command, the whole of its surface: ``runner(cfg, phi[,
    phi2])`` returns the ``result`` block, ``bounds`` maps each bound flag
    (``max_len`` is ``--max-len``) to its default, ``inputs`` maps each
    input required besides ``--aut`` to its help.  Only the search commands
    take ``--jobs``; they share ``_search``, and ``search(phi, bounds)`` runs
    the whole search, ``search(phi, bounds, walk=walk)`` folds what ``walk``
    returns (`dynamics.SearchReport`).  ``strict`` marks a command that can
    return ``undecided``; only those take ``--strict``."""

    help: str
    runner: Callable
    bounds: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    search: Callable | None = None
    strict: bool = False


COMMANDS = {
    "classify": Command(
        "growth of one conjugacy class", _classify,
        {"max_iter": 16},
        inputs={"element": "word in the text grammar, e.g. 'a1.1^2 x1^-1'"}),
    "atoroidal": Command(
        "bounded search for periodic classes", _search,
        {"max_len": 4, "max_exp": 2, "max_iter": 4},
        search=lambda phi, b, **walk: atoroidal_search(
            phi, b["max_len"], b["max_exp"], b["max_iter"], **walk)),
    "twins": Command(
        "bounded search for twinned subgroups "
        "(--max-exp bounds the power of the automorphism)", _search,
        {"max_exp": 2, "conj_len": 2},
        search=lambda phi, b, **walk: twin_search(
            phi, b["max_exp"], b["conj_len"], **walk)),
    "flare": Command(
        "empirical flare certification", _search,
        {"min_len": 2, "max_len": 3, "max_exp": 1, "max_iter": 6,
         "lambda_min": "1.1"},
        search=lambda phi, b, **walk: flare_certify(
            phi, b["min_len"], b["max_len"], b["max_exp"], b["max_iter"],
            b["lambda_min"], **walk)),
    "traintrack": Command(
        "verify the train-track property", _traintrack, {"depth": 0},
        strict=True),
    "constants": Command(
        "growth rate, cancellation, critical constant", _constants,
        {"depth": 0}),
    "nielsen": Command(
        "bounded search for Nielsen paths", _nielsen,
        {"max_len": 2, "max_iter": 2}),
    "torus-ab": Command("mapping torus abelianization", _torus_ab),
    "conjugacy": Command(
        "conjugacy pipeline for two automorphisms", _conjugacy,
        {"conj_len": 3}, inputs={"aut2": "second automorphism JSON file"},
        strict=True),
}


def exit_code(result: dict, strict: bool) -> int:
    """1 for a failure-style verdict, 3 for undecided under --strict,
    else 0."""
    verdict = result.get("verdict", result.get("status"))
    if verdict in ("witness", "violated", "distinguished"):
        return 1
    return 3 if strict and verdict == "undecided" else 0


def run(cfg: JobConfig):
    """Execute one job; returns (exit_code, report dict)."""
    command = COMMANDS.get(cfg.command)
    if command is None:
        raise ValueError(f"unknown command {cfg.command}")
    inputs, auts = {}, []
    for label, path in (("aut", cfg.aut_path), ("aut2", cfg.aut2_path)):
        if path:
            phi, digest = load_automorphism(path)
            auts.append(phi)
            inputs[label] = {"path": os.path.basename(path), "sha256": digest}
    if cfg.element is not None:
        inputs["element"] = cfg.element
    report = to_jsonable({
        "schema": SCHEMA,
        "tool": {"name": "fpaut", "version": __version__},
        "command": cfg.command,
        "inputs": inputs,
        "bounds": cfg.bounds,
        "conventions": {"length": "cyclic syllable length",
                        "factor_norm": "L1 on exponent vectors"},
        "result": command.runner(cfg, *auts),
    })
    report["canonical_sha256"] = _sha256_bytes(
        canonical_json(report).encode())
    return exit_code(report["result"], cfg.strict), report


# ---------------------------------------------------------------------------
# cache

@lru_cache(maxsize=None)
def _source_digest() -> str:
    """Digest of the fpaut package sources, so that an entry written by other
    code is never replayed; computed once per process, on first use."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0")
        h.update(_sha256_bytes(path.read_bytes()).encode())
    return h.hexdigest()


def _cache_key(cfg: JobConfig, inputs: dict) -> str:
    """Entry name of this job on input files with these report ``inputs``."""
    ident = {"command": cfg.command, "bounds": cfg.bounds,
             "source": _source_digest(), "element": cfg.element, **inputs}
    return _sha256_bytes(canonical_json(ident).encode())


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file, so readers see no entry or a whole one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_entry(entry: Path) -> dict | None:
    """The report of a cache entry, or None when there is none, it does not
    parse, or its text without ``canonical_sha256`` does not hash to it."""
    try:
        text = entry.read_text()
        report = json.loads(text)
        digest = report["canonical_sha256"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None
    # entries are written as canonical JSON: hash the text as it stands
    body = text.replace(f',"canonical_sha256":"{digest}"', "", 1)
    return report if _sha256_bytes(body.encode()) == digest else None


def run_with_cache(cfg: JobConfig):
    """`run` through the cache.  An entry holds the report only; the exit
    code is derived from it and from this job's --strict; a damaged entry
    is a miss, and is overwritten.  A new entry is keyed by the report's
    ``inputs``, those of the bytes the job parsed, so an input replaced
    meanwhile cannot mislabel it.  Every report gets a ``timing`` block,
    the seconds of this call and ``cache`` "hit", "miss" or "off"; it is
    outside the hash and never stored in an entry."""
    t0 = time.perf_counter()
    cache = Path(cfg.cache_dir) if cfg.cache_dir else None
    if cache is not None:
        inputs = {label: {"path": os.path.basename(p),
                          "sha256": _sha256_bytes(Path(p).read_bytes())}
                  for label, p in (("aut", cfg.aut_path), ("aut2", cfg.aut2_path))
                  if p}
        report = _read_entry(cache / f"{_cache_key(cfg, inputs)}.json")
        if report is not None:
            report["timing"] = {"seconds": time.perf_counter() - t0,
                                "cache": "hit"}
            return exit_code(report["result"], cfg.strict), report
    code, report = run(cfg)
    elapsed = time.perf_counter() - t0
    if cache is not None:
        inputs = {label: report["inputs"][label] for label in inputs}
        cache.mkdir(parents=True, exist_ok=True)
        _write_atomic(cache / f"{_cache_key(cfg, inputs)}.json",
                      canonical_json(report))
    report["timing"] = {"seconds": elapsed,
                        "cache": "off" if cache is None else "miss"}
    return code, report


# ---------------------------------------------------------------------------
# argument parsing

_BOUND_HELP = {
    "depth": "gate iteration depth (0 = 2(p+k)+4)",
    "lambda_min": "decimal string, must be > 1",
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise `ParseError`, which `main` reports as JSON."""

    def error(self, message):
        raise ParseError(0, f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="fpaut",
        description="exact analysis of automorphisms of free products of "
                    "free-abelian groups and free groups")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--aut", required=True, help="automorphism JSON file")
        for label, text in command.inputs.items():
            p.add_argument(f"--{label}", required=True, help=text)
        if command.search:
            p.add_argument("--jobs", type=int, default=1,
                           help="shards, one process each (at most the CPU "
                                "count)")
        if command.strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 3 on undecided verdicts")
        p.add_argument("--out", help="also write the JSON report here")
        p.add_argument("--cache-dir", help="cache directory (default: no cache)")
        for key, default in command.bounds.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default),
                           default=default, help=_BOUND_HELP.get(key))
    return top


def config_from_args(argv) -> JobConfig:
    ns = _build_parser().parse_args(argv)
    bounds = {key: getattr(ns, key) for key in COMMANDS[ns.command].bounds}
    for key, val in bounds.items():
        if key == "lambda_min":
            try:
                above_one = Fraction(val) > 1
            except (ValueError, ZeroDivisionError):
                above_one = False
            if not above_one:
                raise ParseError(0, "--lambda-min must be a fraction > 1")
        elif key != "depth" and val < 1:
            raise ParseError(0, f"--{key.replace('_', '-')} must be positive")
    if "min_len" in bounds and bounds["min_len"] > bounds["max_len"]:
        raise ParseError(0, "--min-len must not exceed --max-len")
    jobs = getattr(ns, "jobs", 1)
    if jobs < 1:
        raise ParseError(0, "--jobs must be positive")
    return JobConfig(
        command=ns.command,
        aut_path=ns.aut,
        aut2_path=getattr(ns, "aut2", None),
        element=getattr(ns, "element", None),
        bounds=bounds,
        jobs=min(jobs, os.cpu_count() or 1),
        strict=getattr(ns, "strict", False),
        out_path=ns.out,
        cache_dir=ns.cache_dir,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cfg = None
    try:
        cfg = config_from_args(argv)
        code, report = run_with_cache(cfg)
        text = json.dumps(report, sort_keys=True, indent=2)
        if cfg.out_path:
            Path(cfg.out_path).write_text(text + "\n")
    except (FpAutError, OSError, KeyError, ValueError, RecursionError,
            MemoryError) as e:
        error = f"{type(e).__name__}: {e}"
        if isinstance(e, MemoryError) and cfg is not None:
            # str(MemoryError()) is empty: name the job whose bounds outgrew
            # memory, in the caller or in a forked shard
            job = " ".join([cfg.command] + [
                f"--{key.replace('_', '-')} {val}"
                for key, val in cfg.bounds.items()])
            error = f"MemoryError: {job}" + (f": {e}" if str(e) else "")
        print(json.dumps({"error": error}), file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
