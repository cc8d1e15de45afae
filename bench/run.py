"""armub benchmark: build a certified construction, then re-check it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is
imported from ``src/``.  One process runs operations one at a time (closed
loop, one client) for S seconds, and at least two.  An operation is one
construct step followed by ``armub verify`` on every artifact it wrote.
The last line of standard output is the JSON result; a readable summary
goes to standard error.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and the same on both sides of any comparison.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import EXACT_COUNTERS, LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_SAMPLES = 7
# in untraced operations a step is repeated until it has run this long
MIN_STEP_S = 2.5
MAX_STEP_REPS = 50
MIN_OPS = 2


class OpFailure(Exception):
    """A step of an operation exited non-zero."""


def _cli(argv: list[str]):
    from armub import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OpFailure(f"armub {argv[0]} exited {code}: {out.getvalue()[-500:]}")


class Pipeline:
    """``armub armub --k K --s S --t T``; the inputs are the parameters alone."""

    def __init__(self, k: int, s: int, t: int):
        self.k, self.s, self.t = k, s, t

    def prepare(self, seed: int):
        return None

    def construct(self, inputs, outdir: Path):
        _cli(["armub", "--k", str(self.k), "--s", str(self.s), "--t", str(self.t),
              "--out", str(outdir)])

    def has_reference(self, seed: int) -> bool:
        return True

    @staticmethod
    def exact_results(outdir: Path) -> dict:
        cert = json.loads((outdir / "certificate.json").read_text())
        rep = cert["report"]
        return {
            "classification": rep["classification"],
            "epsilon": rep["epsilon"]["ksq"],
            "max_ip": rep["beta"]["max_ip"],
            "delta": rep["delta"],
            "pairs_checked": rep["pairs_checked"],
            "ledger": [[line["check"], line["verdict"]] for line in cert["ledger"]],
        }


class Reduction:
    """``best_reduction`` of a Hadamard matrix, written as ``epsh.json``.

    Seed 0 reduces H exactly as ``find_hadamard`` builds it.  Any other seed
    first applies a seeded permutation to rows t..M-1 of H.  U, V and the
    columns stay in place, so the program sees a different matrix while the
    work per operation stays that of seed 0.  Column permutations and sign
    flips are left out on purpose: they change that work (see
    bench/README.md).
    """

    def __init__(self, order: int, t: int, scope: str):
        self.order, self.t, self.scope = order, t, scope

    def prepare(self, seed: int):
        """The Hadamard matrix the program reduces."""
        import numpy as np
        from armub import hadamard

        h = hadamard.find_hadamard(self.order)
        if seed:
            rng = np.random.default_rng(seed)
            m, t = self.order, self.t
            rows_at = np.concatenate([np.arange(t), t + rng.permutation(m - t)])
            rows = h.rows.astype(np.int64)[rows_at]
            if not np.array_equal(rows @ rows.T, m * np.eye(m, dtype=np.int64)):
                raise RuntimeError("the permuted matrix is not Hadamard")
            h = hadamard.SignMatrix(rows, verified=True,
                                    label=f"{h.label}+permutation({seed})")
        return h

    def construct(self, h, outdir: Path):
        from armub import epsh, jsonio

        y = epsh.best_reduction(h, self.t, search_scope=self.scope)
        jsonio.write_atomic(str(outdir / "epsh.json"),
                            jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y)))

    def has_reference(self, seed: int) -> bool:
        return seed == 0

    @staticmethod
    def exact_results(outdir: Path) -> dict:
        y = json.loads((outdir / "epsh.json").read_text())
        p = y["provenance"]
        return {
            "epsilon": y["epsilon"]["ksq"],
            "epsilon_upper": y["epsilon_upper"]["ksq"],
            "split": [p["row_select"], p["col_select"], p["row_negate"],
                      p["col_negate"], p["variant"]],
        }


WORKLOADS = {
    "pipeline-t1": Pipeline(k=123, s=125, t=1),
    "pipeline-t3": Pipeline(k=93, s=97, t=3),
    "epsh-k253": Reduction(order=256, t=3, scope="corner-only"),
    "search-h16-t2": Reduction(order=16, t=2, scope="row-col-permutations"),
}

# span(s) that should hold most of one step's time on a workload
HEAVY = {
    "pipeline-t3": (("verify.cross_stats",), "construct"),
    "epsh-k253": (("epsh.verify_orthogonal",), "verify"),
    "search-h16-t2": (("epsh.best_reduction", "epsh.eps_hadamard_init"), "construct"),
}

END_TO_END_UNITS = {"construct_s": "s", "verify_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "artifact_bytes": "bytes"}


def _timed(step, repeat: bool) -> list[float]:
    times = []
    while True:
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
        if not repeat or sum(times) >= MIN_STEP_S or len(times) >= MAX_STEP_REPS:
            return times


def run_op(wl, inputs, outdir: Path, tracer: Tracer | None = None) -> dict:
    """One construct step and one verify step, each timed once or, untraced,
    repeated; raises on failure."""
    outdir.mkdir(parents=True)
    gc.collect()
    repeat = tracer is None
    if tracer:
        tracer.step = "construct"
    construct = _timed(lambda: wl.construct(inputs, outdir), repeat)
    files = sorted(outdir.iterdir())
    if tracer:
        tracer.step = "verify"
    verify = _timed(lambda: _cli(["verify", *map(str, files)]), repeat)
    return {
        "construct": construct,
        "verify": verify,
        "artifact_bytes": sum(f.stat().st_size for f in files),
        "digests": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
        "exact": wl.exact_results(outdir),
    }


def measure_setup() -> float:
    """Median time for a fresh interpreter to import armub.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import armub.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)  # bytecode
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(args) -> dict:
    import numpy

    def git(*cmd):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *cmd], timeout=60,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    in_git = (ROOT / ".git").exists()
    commit = git("rev-parse", "HEAD") if in_git else None
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Session:
    """Operations of one invocation and the checks across them."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.inputs = self.wl.prepare(seed)
        self.reference = json.loads(REFERENCE.read_text())[name]
        self.check_reference = self.wl.has_reference(seed)
        self.ops: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.first_digests = None

    def fail(self, message: str):
        self.failed += 1
        print(f"[{self.name}] operation {self.attempted} FAILED: {message}",
              file=sys.stderr)

    def run(self, tracer: Tracer | None = None) -> dict | None:
        self.attempted += 1
        outdir = WORK / f"op{self.attempted}"
        try:
            op = run_op(self.wl, self.inputs, outdir, tracer)
        except Exception:  # every failure is counted, never retried
            self.fail(traceback.format_exc())
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        self.ops.append(op)
        if self.first_digests is None:
            self.first_digests = op["digests"]
        if op["digests"] != self.first_digests:
            self.fail("artifacts differ from the first operation's bytes")
        elif self.check_reference and op["exact"] != self.reference:
            wrong = [k for k in self.reference if op["exact"].get(k) != self.reference[k]]
            self.fail(f"exact results differ from the reference in {wrong}")
        return op


def run_untraced(session: Session, args) -> dict:
    setup_s = measure_setup()
    start = time.perf_counter()
    while session.attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        session.run()
    def median(key):  # over every timed run of the step, in all operations
        return statistics.median([x for op in session.ops for x in op[key]] or [0])

    metrics = {
        "construct_s": median("construct"),
        "verify_s": median("verify"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "artifact_bytes": statistics.median(
            [op["artifact_bytes"] for op in session.ops] or [0]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(session: Session, args) -> tuple[dict, set, list]:
    """Traced and untraced operations alternate, at least T, U, T.  The
    per-layer values are medians over traced operations; the overhead is
    the difference of the two kinds' median operation times."""
    tracer = Tracer()
    traced, plain, heavy = [], [], []
    idle = set(LAYER_METRICS)
    start = time.perf_counter()
    turn = 0
    while turn < 3 or time.perf_counter() - start < args.seconds:
        turn += 1
        if turn % 2 == 0:
            op = session.run()
            if op is not None:
                plain.append(statistics.median(op["construct"])
                             + statistics.median(op["verify"]))
            continue
        tracer.reset()
        tracer.install()
        try:
            op = session.run(tracer)
        finally:
            tracer.uninstall()
        if op is None:
            continue
        op_s = op["construct"][0] + op["verify"][0]
        values, idle = tracer.layer_values()
        covered = tracer.top_level_s()
        values["cli.self_s"] = op_s - covered
        values["trace.coverage"] = covered / op_s
        traced.append((values, op_s))
        if session.name in HEAVY:
            names, step = HEAVY[session.name]
            heavy.append(tracer.self_s(names, step) / op[step][0])

    for counter in EXACT_COUNTERS:
        seen = [values[counter] for values, _ in traced]
        if len(set(seen)) > 1:
            session.fail(f"counter {counter} differs between traced operations: {seen}")

    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units.update({"cli.self_s": "s", "trace.coverage": "ratio"})
    metrics = {
        name: {"value": statistics.median([v[name] for v, _ in traced] or [0]),
               "unit": unit}
        for name, unit in units.items()
    }
    overhead = 0.0
    if traced and plain:
        overhead = statistics.median(t for _, t in traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.missing"] = {"value": len(tracer.missing), "unit": "count"}

    notes = []
    if heavy:
        names, step = HEAVY[session.name]
        share = statistics.median(heavy)
        verdict = "pass" if share >= 0.5 else "FAIL"
        notes.append(f"heavy check [{verdict}]: {' + '.join(names)} self time is "
                     f"{share:.3f} of {step}_s (needs >= 0.5)")
    if tracer.missing:
        notes.append(f"missing entry points: {', '.join(tracer.missing)}")
    return metrics, idle, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if "ARMUB_SIZE_BUDGET" in os.environ:
        print("refusing to run: ARMUB_SIZE_BUDGET changes which inputs armub "
              "accepts; unset it", file=sys.stderr)
        return 2
    if not (SRC / "armub" / "cli.py").is_file():
        print(f"armub sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import armub.cli  # noqa: F401  (loads every layer before timing)

    print(json.dumps({"env": environment(args)}), file=sys.stderr)
    session = Session(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            metrics, idle, notes = run_traced(session, args)
        else:
            metrics, idle, notes = run_untraced(session, args), set(), []
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed = session.attempted, session.failed
    for name, m in metrics.items():
        tag = "  (computed)" if name in EXACT_COUNTERS else ""
        if name in idle:
            tag = "  (not applicable: never called)"
        print(f"{args.workload:14s} {name:34s} {m['value']:>16.6g} {m['unit']}{tag}",
              file=sys.stderr)
    print(f"{args.workload:14s} {'failed_frac':34s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)", file=sys.stderr)
    for note in notes:
        print(f"{args.workload:14s} {note}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
