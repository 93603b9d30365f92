"""The benchmark's workloads: set-up, the timed closed loop, and the checks.

Every workload is driven by one caller on one thread: the next operation
starts only after the previous one returned (a closed loop with one client).
Inputs come only from the workload seed.  Checks run after the timed loop,
with the clock stopped and tracing off.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# The package is called through module attributes, never through names
# imported here, so the functions the tracer rebinds are the ones called.
from cadorder import cli, generator, heuristics, probio
from cadorder._backend import BACKEND
from cadorder.generator import GenParams
from cadorder.heuristics import HeuristicId

from tracer import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

TYPES = ("00", "10", "20", "11", "12", "22")
# Set-up repeats until both limits are reached; setup_s is their median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
# Seeds whose outputs are pinned in expected.json: the default and one held out.
PINNED_SEEDS = (0, 7919)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"kernel.{f}.{m}": u for f in ("kmul", "kexact_div")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "polys.resultant.calls": "count",
    "polys.resultant.distinct": "count",
    "polys.resultant.self_s": "s",
    "polys.poly_gcd.calls": "count",
    "polys.poly_gcd.self_s": "s",
    "polys.squarefree_part.calls": "count",
    "polys.squarefree_part.distinct": "count",
    "polys.squarefree_part.self_s": "s",
    "polys.prem.calls": "count",
    "polys.prem.self_s": "s",
    "polys.discriminant.calls": "count",
    "projection.project_cascade.calls": "count",
    "projection.project_cascade.distinct": "count",
    "projection.mccallum_project.calls": "count",
    "projection.mccallum_project.distinct": "count",
    "projection.mccallum_project.self_s": "s",
    "projection.ttiprojection.calls": "count",
    "projection.ttiprojection.distinct": "count",
    "projection.newh_set.calls": "count",
    "realroots.count_real_roots.calls": "count",
    "realroots.count_real_roots.distinct": "count",
    "realroots.count_real_roots.self_s": "s",
    **{f"heuristics.{h.value}.busy_s": "s" for h in HeuristicId},
    "probio.parse_problem.calls": "count",
    "probio.parse_problem.self_s": "s",
    "generator.generate_corpus.self_s": "s",
    **{f"harness.{f}.self_s": "s" for f in (
        "run_sweep", "CostTable.load", "read_choices", "compute_savings",
        "write_choices", "write_savings")},
    "trace.overhead_pct": "%",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _quiet_cli(argv: list[str]) -> int:
    """Run the command line entry point with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_oracles():
    """The test-suite's independent recomputation routes (tests/oracles.py)."""
    spec = importlib.util.spec_from_file_location(
        "cadorder_test_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Workload:
    """One named workload.  Subclasses fill in set-up, one timed call, and the
    per-operation checks."""

    name = ""
    # In a traced run, the first calls are replayed untraced to price the
    # tracer, and calls and distinct are counted over them alone, so that the
    # counts cover the same inputs on every run of a seed.
    prefix_calls = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, dest: Path) -> None:
        raise NotImplementedError

    def call(self, i: int, out: Path):
        """The timed part of call i; returns what ``collect`` needs."""
        raise NotImplementedError

    def collect(self, i: int, handle, out: Path) -> tuple[int, list[float], object]:
        """Untimed: (operations completed, per-operation latencies, output)."""
        raise NotImplementedError

    def comparable(self, output):
        """The part of one call's output that must not depend on timing."""
        return output

    def check(self, outputs: list, expected: dict | None) -> tuple[int, list[str]]:
        """(failed operations, messages) over the outputs of every call."""
        raise NotImplementedError

    def distinct_calls(self) -> int:
        """Calls after which the inputs repeat; pinning covers this many."""
        return 1

    def pin(self, outputs: list):
        """The expectation stored in expected.json for these outputs."""
        raise NotImplementedError


# -- sweep-all12 ------------------------------------------------------------------


class SweepAll12(Workload):
    """The batch researcher: ``cadorder sweep --heuristics all`` over corpora
    written by ``cadorder gen``.  An operation is one problem swept through all
    twelve heuristics; one timed call sweeps one batch corpus."""

    name = "sweep-all12"
    prefix_calls = 2
    gen_args = ["--vars", "3", "--max-tdeg", "3", "--terms", "2", "--coeff-bound", "10"]
    oracle_problems = 12

    def __init__(self, seed: int, batches: int = 24, per_type: int = 2):
        super().__init__(seed)
        self.batches = batches
        self.per_type = per_type
        rng = random.Random(f"{self.name}:{seed}")
        self.batch_seeds = [rng.getrandbits(64) for _ in range(batches)]

    def setup(self, dest: Path) -> None:
        self.corpora = []
        for b, bseed in enumerate(self.batch_seeds):
            d = dest / f"batch-{b:03d}"
            rc = _quiet_cli(["gen", "--types", ",".join(TYPES), "--count", str(self.per_type),
                             "--seed", str(bseed), "--out", str(d), *self.gen_args])
            if rc != 0:
                raise RuntimeError(f"gen exited {rc}")
            self.corpora.append(d)

    def distinct_calls(self):
        return self.batches

    def call(self, i: int, out: Path):
        path = out / "choices.csv"
        rc = _quiet_cli(["sweep", "--corpus", str(self.corpora[i % self.batches]),
                         "--heuristics", "all", "--out", str(path)])
        return rc, path

    def collect(self, i, handle, out):
        rc, path = handle
        b = i % self.batches
        pids = [p.stem for p in sorted(self.corpora[b].glob("*.prob"))]
        rows: dict[str, list[dict]] = {pid: [] for pid in pids}
        if rc == 0:
            with open(path, newline="") as fh:
                for rec in csv.DictReader(fh):
                    rows.setdefault(rec["problem_id"], []).append(rec)
        latencies = [sum(float(r["heuristic_time_s"]) for r in rs) for rs in rows.values() if rs]
        return len(pids), latencies, (b, rc, rows)

    @staticmethod
    def problem_digest(recs: list[dict]) -> str:
        """Digest of a problem's choices, ignoring heuristic_time_s."""
        return _digest("\n".join(
            f"{r['heuristic']},{r['ordering']},{r['fallback_lex']},{r['status']}"
            for r in sorted(recs, key=lambda r: r["heuristic"])))

    def check(self, outputs, expected):
        failed, notes = 0, []
        oracle_todo = self.oracle_problems
        oracles = None
        ids = sorted(h.value for h in HeuristicId)
        for b, rc, rows in outputs:
            for pid, recs in rows.items():
                key = f"{b}/{pid}"
                why = None
                if rc != 0:
                    why = f"sweep exited {rc}"
                elif sorted(r["heuristic"] for r in recs) != ids:
                    why = "missing or extra heuristic rows"
                elif any(r["status"] != "ok" for r in recs):
                    why = "status " + ",".join(sorted({r["status"] for r in recs}))
                elif expected is not None and expected.get(key) != self.problem_digest(recs):
                    why = "choices differ from the pinned expectation"
                elif oracle_todo > 0:
                    oracle_todo -= 1
                    oracles = oracles or load_oracles()
                    why = self._oracle_mismatch(oracles, self.corpora[b] / f"{pid}.prob", recs)
                if why:
                    failed += 1
                    notes.append(f"{key}: {why}")
        return failed, notes

    @staticmethod
    def _oracle_mismatch(oracles, path: Path, recs: list[dict]) -> str | None:
        problem = probio.parse_problem(path.read_text())
        chosen = {r["heuristic"]: r["ordering"] for r in recs}
        for hid, measure, kind in (("sotd", "sotd", "full"), ("ndrr", "ndrr", "full"),
                                   ("s-tti", "sotd", "tti"), ("n-tti", "ndrr", "tti")):
            names, _ = oracles.naive_search(problem, measure, kind)
            if chosen[hid] != ">".join(names):
                return f"{hid} chose {chosen[hid]}, naive search gives {'>'.join(names)}"
        return None

    def comparable(self, output):
        b, rc, rows = output
        return b, rc, {pid: self.problem_digest(recs) for pid, recs in rows.items()}

    def pin(self, outputs) -> dict:
        return {f"{b}/{pid}": self.problem_digest(recs)
                for b, _, rows in outputs for pid, recs in rows.items()}


# -- suggest-wide -----------------------------------------------------------------


SUGGEST_HEURISTICS = tuple(HeuristicId(h) for h in
                           ("triangular", "brown", "newh", "newh-ext", "gs", "gs-tti"))


class SuggestWide(Workload):
    """The interactive library user: one request is ``parse_problem`` on a
    problem text followed by ``suggest`` for each of the six heuristics that
    do not enumerate orderings.  An operation is one request."""

    name = "suggest-wide"
    params = dict(n_vars=6, max_tdeg=2, terms=2, coeff_bound=10)
    prefix_calls = 100

    def __init__(self, seed: int, per_type: int = 200):
        super().__init__(seed)
        self.per_type = per_type

    def setup(self, dest: Path) -> None:
        corpus = generator.generate_corpus(list(TYPES), self.per_type,
                                           GenParams(seed=self.seed % 2 ** 64, **self.params))
        texts = [probio.print_problem(p) for _, p in corpus]
        random.Random(f"{self.name}:{self.seed}").shuffle(texts)
        self.texts = texts

    def distinct_calls(self):
        return len(self.texts)

    def call(self, i, out):
        try:
            problem = probio.parse_problem(self.texts[i % len(self.texts)])
            return [heuristics.suggest(problem, h) for h in SUGGEST_HEURISTICS]
        except Exception as exc:  # a failed request is counted, not fatal
            return exc

    def collect(self, i, handle, out):
        k = i % len(self.texts)
        if isinstance(handle, Exception):
            return 1, None, (k, f"error: {handle!r}")
        return 1, None, (k, [(str(r.choice), r.fallback_lex) for r in handle])

    @staticmethod
    def request_digest(choices) -> str:
        return _digest(";".join(f"{c},{f}" for c, f in choices))

    def check(self, outputs, expected):
        failed, notes = 0, []
        first: dict[int, list] = {}
        for k, choices in outputs:
            names = sorted(self.texts[k].split("\n", 1)[0].removeprefix("vars:").strip().split(","))
            why = None
            if isinstance(choices, str):
                why = choices
            elif any(sorted(c.split(">")) != names for c, _ in choices):
                why = "an ordering is not a permutation of the problem's variables"
            elif first.setdefault(k, choices) != choices:
                why = "a repeated request gave different choices"
            elif expected is not None and expected[k] != self.request_digest(choices):
                why = "choices differ from the pinned expectation"
            if why:
                failed += 1
                notes.append(f"request for pool item {k}: {why}")
        return failed, notes

    def pin(self, outputs) -> list:
        digests = {k: self.request_digest(c) for k, c in outputs}
        return [digests[k] for k in range(len(self.texts))]


# -- eval-study -------------------------------------------------------------------


def _fmt_pct(x: Fraction) -> str:
    """One decimal, ties to even, written independently of the harness."""
    scaled = x * 10
    n = scaled.numerator // scaled.denominator
    rest = scaled - n
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and n % 2):
        n += 1
    return ("-" if n < 0 else "") + f"{abs(n) // 10}.{abs(n) % 10}"


class EvalStudy(Workload):
    """``cadorder eval`` on study-sized synthetic cost tables (every ordering
    of every problem) and choices files with twelve heuristics per problem.
    An operation is one choice row scored; one timed call is one eval run.

    The calls cycle through studies of several sizes, each the first
    ``size`` problems of one seeded table, as a service evaluating studies
    of different sizes would.  Calls of one size do identical work, so with
    a single size the latency percentiles would jump between the machine's
    fast and slow spells instead of moving with the program.  The sizes are
    close enough that their latencies overlap, and ordered so that every
    prefix of the cycle averages about 2000 problems: a run that stops
    part-way through a cycle sees the same mix of sizes."""

    name = "eval-study"
    orderings = [">".join(p) for p in itertools.permutations(("x", "y", "z"))]

    def __init__(self, seed: int, sizes: tuple[int, ...] = (
            2000, 1000, 3000, 1500, 2500, 1250, 2750, 1750, 2250)):
        super().__init__(seed)
        self.sizes = sizes
        self.problems = max(sizes)

    def setup(self, dest: Path) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        dest.mkdir(parents=True, exist_ok=True)
        self.costs: dict[str, dict[str, tuple[int, str]]] = {}
        self.choices: list[tuple[str, str, str, str]] = []
        cost_rows, choice_rows = [], []
        heuristics = sorted(h.value for h in HeuristicId)
        for k in range(self.problems):
            pid = f"{TYPES[k % len(TYPES)]}-{k:05d}"
            per = {}
            for o in self.orderings:
                ms = rng.randint(1, 600_000)
                per[o] = (rng.randint(1, 20_000), f"{ms // 1000}.{ms % 1000:03d}")
                cost_rows.append([pid, o, *per[o]])
            self.costs[pid] = per
            for h in heuristics:
                row = (pid, h, rng.choice(self.orderings), f"0.{rng.randint(1, 999_999):06d}")
                choice_rows.append([*row, rng.choice(("true", "false")), "ok"])
                self.choices.append(row)
        # Rows are written in problem order, so a study of n problems is the
        # first rows of the full table.
        self.paths = {}
        for n in self.sizes:
            costs_path, choices_path = dest / f"costs-{n}.csv", dest / f"choices-{n}.csv"
            with open(costs_path, "w", newline="") as cf, \
                    open(choices_path, "w", newline="") as hf:
                costs, choices = csv.writer(cf), csv.writer(hf)
                costs.writerow(["problem_id", "ordering", "cells", "time_s"])
                costs.writerows(cost_rows[:n * len(self.orderings)])
                choices.writerow(["problem_id", "heuristic", "ordering", "heuristic_time_s",
                                  "fallback_lex", "status"])
                choices.writerows(choice_rows[:n * len(heuristics)])
            self.paths[n] = (costs_path, choices_path)

    def distinct_calls(self):
        return len(self.sizes)

    def call(self, i, out):
        costs_path, choices_path = self.paths[self.sizes[i % len(self.sizes)]]
        return _quiet_cli(["eval", "--costs", str(costs_path), "--choices", str(choices_path),
                           "--out", str(out / "savings.csv")])

    def collect(self, i, handle, out):
        texts = {n: (out / n).read_text() if handle == 0 else ""
                 for n in ("savings.csv", "aggregate.csv", "summary.csv")}
        rows = max(texts["savings.csv"].count("\n") - 1, 0)
        digests = {n: _digest(t) for n, t in texts.items()}
        # Only the first call of each size is recomputed; later calls of that
        # size must match it.
        first = i < len(self.sizes)
        return rows, None, (self.sizes[i % len(self.sizes)], handle, digests,
                            texts["savings.csv"] if first else None)

    def expected_savings(self) -> list[tuple[int, str]]:
        """(problem index, savings row) for every choice of the full table."""
        lines = []
        for pid, h, ordering, htime in sorted(self.choices, key=lambda r: (r[0], r[1])):
            per = self.costs[pid]
            avg_cells = Fraction(sum(c for c, _ in per.values()), len(per))
            avg_time = sum(Fraction(t) for _, t in per.values()) / len(per)
            cells, time_s = per[ordering]
            cell_pct = 100 * (avg_cells - cells) / avg_cells
            time_pct = 100 * (avg_time - Fraction(htime) - Fraction(time_s)) / avg_time
            lines.append((int(pid.rpartition("-")[2]),
                          f"{pid},{h},{ordering},{_fmt_pct(cell_pct)},{_fmt_pct(time_pct)}"))
        return lines

    def check(self, outputs, expected):
        failed, notes = 0, []
        want_all = self.expected_savings()
        firsts = {}
        for n, rc, digests, savings in outputs:
            rows = n * len(HeuristicId)
            if n not in firsts:
                firsts[n] = (rc, digests)
                want = [line for k, line in want_all if k < n]
                got = savings.splitlines()[1:] if rc == 0 else []
                bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
                if bad:
                    notes.append(f"first eval of {n} problems: {bad} of {len(want)} savings "
                                 "rows differ from recomputation")
                if expected is not None and expected.get(str(n)) != digests:
                    notes.append(f"first eval of {n} problems: outputs differ from the "
                                 "pinned digests")
                    bad = rows
                failed += bad
            elif rc != 0 or (rc, digests) != firsts[n]:
                failed += rows
                notes.append(f"an eval of {n} problems: exit {rc} or outputs differ from "
                             "the first eval of that size")
        return failed, notes

    def comparable(self, output):
        return output[:3]

    def pin(self, outputs) -> dict:
        return {str(n): digests for n, _, digests, savings in outputs if savings is not None}


WORKLOADS = {w.name: w for w in (SweepAll12, SuggestWide, EvalStudy)}


# -- running a workload -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(wl: Workload, seconds: float, out: Path, tracer: Tracer | None = None,
               min_calls: int = 1, before_call=None):
    """Closed loop: call after call until ``seconds`` of timed calls have
    passed (and at least ``min_calls`` were made), running
    ``before_call(i)`` untimed before call i.  Returns per-call durations,
    operation counts, latencies and outputs."""
    durations, ops, latencies, outputs = [], [], [], []
    i = 0
    while sum(durations) < seconds or i < min_calls:
        if before_call is not None:
            before_call(i)
        if tracer is not None:
            tracer.op = i
            with tracer.span(ROOT_SPAN):
                t0 = perf_counter()
                handle = wl.call(i, out)
                dt = perf_counter() - t0
        else:
            t0 = perf_counter()
            handle = wl.call(i, out)
            dt = perf_counter() - t0
        n, lats, output = wl.collect(i, handle, out)
        durations.append(dt)
        ops.append(n)
        latencies.extend(lats if lats is not None else [dt])
        outputs.append(output)
        i += 1
    return durations, ops, latencies, outputs


def layer_metrics(stats: dict, prefix_stats: dict, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics: times over the whole traced run, counts over the
    set-up and the prefix calls."""
    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric == "trace.overhead_pct":
            out[metric] = overhead_pct
            continue
        if span.startswith("heuristics."):
            span = "heuristics.suggest." + span.removeprefix("heuristics.")
        if field in ("calls", "distinct"):
            out[metric] = prefix_stats.get(span, {}).get(field, 0)
        else:
            out[metric] = stats.get(span, {}).get(field, 0.0)
    return out


def load_expected(name: str, seed: int):
    if not EXPECTED_PATH.is_file():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(name, {}).get(str(seed))


def run(wl: Workload, seconds: float, trace: bool, work: Path, expected,
        trace_out: Path | None = None) -> dict:
    """Set up, time, check against ``expected`` (the pinned outputs, or None).
    Returns a record with the metrics and outputs."""
    tracer = Tracer() if trace else None
    setup_times = []
    if tracer:
        tracer.install()
    try:
        # Every repeat writes into the same directory: the first creates the
        # files, later ones rewrite them.  Creating inodes cost 0.2-1.2 ms a
        # file on the VM the bounds were set on, drifting 4x over minutes,
        # which would drown the program's own set-up work.  A traced run sets
        # up once, so its counts do not depend on how fast set-up ran.
        while not setup_times or (not trace and (
                len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS)):
            t0 = perf_counter()
            wl.setup(work / "setup")
            setup_times.append(perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)

    overhead_pct = None
    replay = None
    if tracer:
        k = wl.prefix_calls
        replay = []
        prefix_stats = {}

        def before_call(i):
            # Each prefix call first runs untraced, just before its traced
            # twin, so both see the machine in the same state.
            if i < k:
                tracer.uninstall()
                try:
                    t0 = perf_counter()
                    handle = wl.call(i, out)
                    replay.append((perf_counter() - t0, wl.collect(i, handle, out)[2]))
                finally:
                    tracer.install()
            elif i == k:
                prefix_stats.update(tracer.stats())

        tracer.install()
        try:
            result = timed_loop(wl, seconds, out, tracer, min_calls=k, before_call=before_call)
        finally:
            tracer.uninstall()
        prefix_stats = prefix_stats or tracer.stats()
        overhead_pct = 100 * (sum(result[0][:k]) / sum(dt for dt, _ in replay) - 1)
    else:
        result = timed_loop(wl, seconds, out)
    rss = peak_rss_mb()
    durations, ops, latencies, outputs = result

    failed, notes = wl.check(outputs, expected)
    if replay is not None and ([wl.comparable(o) for _, o in replay]
                               != [wl.comparable(o) for o in outputs[:len(replay)]]):
        failed += sum(ops[:len(replay)])
        notes.append("untraced and traced runs of the prefix calls gave different outputs")
    attempted = sum(ops)
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "python": sys.version.split()[0],
        "backend": BACKEND,
        "trace": trace,
        "calls": len(durations),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "notes": notes[:20],
        "outputs": outputs,
        "metrics": {
            "ops_per_s": attempted / sum(durations),
            "op_p50_s": _quantile(latencies, 50),
            "op_p95_s": _quantile(latencies, 95),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
        },
        "latency_samples": len(latencies),
    }
    if tracer:
        record["layers"] = layer_metrics(tracer.stats(), prefix_stats, overhead_pct)
        record["tracer"] = {"spans_kept": len(tracer.span_name), "spans_dropped": tracer.dropped}
        if trace_out is not None:
            tracer.write(trace_out.with_suffix(".spans.csv.gz"), trace_out.with_suffix(".stats.json"))
    return record
