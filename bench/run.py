"""Benchmark qcdense end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
One run is one fresh process: it sets up the workload once (setup_s), then
repeats whole rounds of it for about S seconds, checks every record of
every round apart from the program (bench/checks.py), and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 nothing of the program is wrapped and the metrics are the
end-to-end ones.  With --trace 1 the rounds alternate between traced and
untraced, and the metrics are the per-layer ones (bench/tracing.py).  The
seed is accepted and recorded, but no input depends on it: every workload
is an exhaustive enumeration.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, peak_rss_mb  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def load_program():
    """Import qcdense from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    package = src / "qcdense"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no qcdense sources at {package}")
    sys.path.insert(0, str(src))
    import qcdense
    import qcdense.cli

    if Path(qcdense.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported qcdense from {qcdense.__file__}, not {package}")
    return qcdense


class Meter:
    """Wall and CPU time (user + system, all threads) over timed intervals.

    It also keeps the process's peak RSS as of the end of the last interval.
    """

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.peak_rss_mb = 0.0

    def __enter__(self):
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self.cpu += time.process_time() - self._cpu
        self.wall += time.perf_counter() - self._wall
        self.peak_rss_mb = peak_rss_mb()
        return False


class Round:
    """One pass over the whole workload: its timed interval, counts and checks."""

    def __init__(self, chars: int, failed: int, meter: Meter, methods: dict, error=None):
        self.chars = chars
        self.failed = failed
        self.wall = meter.wall
        self.cpu = meter.cpu
        self.peak_rss_mb = meter.peak_rss_mb
        self.methods = methods
        self.error = error  # the first failed check, which ends the run
        self.traced = False
        self.calls: dict = {}
        self.spans: list = []
        self.bytes_written = 0


def add_counts(total: dict, more: dict) -> None:
    for key, n in more.items():
        total[key] = total.get(key, 0) + n


def span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: its set-up, its rounds and its checks.

    setup() builds the program's inputs and is timed in setup_s; prepare()
    then builds the benchmark's own; run_round() runs and checks one round;
    finish() makes the checks that need every round.
    """

    def __init__(self, qc):
        self.qc = qc

    def prepare(self) -> None:
        pass

    def finish(self, rounds: list) -> None:
        pass


class SolenoidCli(Workload):
    """Criterion 10's command, through qcdense.cli.main in process."""

    PRIMES_BELOW, N_MAX, N, M_CAP, BOUND = 200, 45, 200, 60, 200
    ARGV = ["certify", "--group", "solenoid", "--primes", "below:200", "--n-max", "45",
            "--N", "200", "--m-cap", "60", "--bound", "200"]

    def __init__(self, qc):
        super().__init__(qc)
        self.path = OUT / "solenoid-cli.json"
        self.payload_sha = None

    def setup(self) -> list:
        P = tuple(self.qc.primes_below(self.PRIMES_BELOW))
        return [self.qc.sequences.solenoid_sequence(P, self.N_MAX, self.N, self.M_CAP)]

    def prepare(self) -> None:
        self.chars = checks.solenoid_count(self.BOUND)

    def run_round(self, tracer) -> Round:
        meter = Meter()
        with meter, span(tracer, "cli.main"):
            code = self.qc.cli.main(self.ARGV + ["--out", str(self.path)])
        if code != 0:
            return Round(self.chars, self.chars, meter, {})
        sha = payload_sha256(self.path)
        error = None
        if self.payload_sha is None:
            self.payload_sha = sha
        elif sha != self.payload_sha:
            error = "payload bytes differ between rounds of one run"
        rnd = Round(self.chars, 0, meter, {}, error)
        rnd.bytes_written = self.path.stat().st_size
        return rnd

    def finish(self, rounds: list) -> None:
        """Check the certificate every round wrote (all have one payload hash)."""
        if self.payload_sha is None:
            return
        check_against_other_runs(self.payload_sha)
        with open(self.path, encoding="utf-8") as fh:
            doc = json.load(fh)
        primes = checks.primes_below(self.PRIMES_BELOW)
        methods = checks.check_solenoid_document(
            doc, primes, self.N_MAX, self.N, self.M_CAP, self.BOUND)
        for rnd in rounds:
            if not rnd.failed:
                rnd.methods = dict(methods)


class ProfiniteSweep(Workload):
    """witness_profinite once per 100-smooth character a/b, b <= B_ROUND, batched by b."""

    PRIMES_BELOW, N_MAX, M_CAP, B_ROUND = 100, 24, 2600, 2000

    def setup(self) -> list:
        self.primes = tuple(self.qc.primes_below(self.PRIMES_BELOW))
        self.seq = self.qc.sequences.profinite_sequence(self.primes, self.N_MAX, self.M_CAP)
        return [self.seq]

    def prepare(self) -> None:
        primes = checks.primes_below(self.PRIMES_BELOW)
        self.checker = checks.ProfiniteChecker(primes, self.N_MAX, self.M_CAP)
        self.denominators = [b for b in range(2, self.B_ROUND + 1) if checks.is_smooth(b, primes)]
        self.chars = checks.smooth_profinite_count(self.B_ROUND, primes)

    def run_round(self, tracer) -> Round:
        witness = self.qc.certify.witness_profinite
        UnitRational = self.qc.circle.UnitRational
        QcdenseError = self.qc.errors.QcdenseError
        seq, primes = self.seq, self.primes
        meter = Meter()
        methods: dict = {}
        failed = listed = 0
        error = None
        for b in self.denominators:
            numerators = [a for a in range(1, b) if gcd(a, b) == 1]
            records = []
            with meter, span(tracer, "bench.batch"):
                for a in numerators:
                    try:
                        records.append(witness(UnitRational(a, b), seq, primes))
                    except QcdenseError:
                        records.append(None)
            failed += records.count(None)
            listed += len(numerators)
            if error is None:
                try:
                    add_counts(methods, self.checker.check_batch(b, numerators, records))
                except checks.CheckError as exc:
                    error = str(exc)
        if error is None and listed != self.chars:
            error = f"swept {listed} characters, the totient sum gives {self.chars}"
        return Round(self.chars, failed, meter, methods, error)


class ProductSweeps(Workload):
    """Fan certify_qc and check_generation at bound 100, then torus x A5 at 10000."""

    PRIMES_BELOW, N_MAX, CAP, FAN_BOUND, A5_BOUND = 100, 24, 8, 100, 10000

    def setup(self) -> list:
        S = self.qc.sequences
        P = tuple(self.qc.primes_below(self.PRIMES_BELOW))
        parts = [S.solenoid_sequence(P, self.N_MAX, self.FAN_BOUND, self.CAP),
                 S.profinite_sequence(P, self.N_MAX, self.CAP),
                 S.torus_sequence(self.FAN_BOUND)]
        self.fan = S.fan(parts)
        self.torus = S.torus_sequence(self.A5_BOUND)
        self.A5 = self.qc.nonabelian.builtin_group("A5")
        return parts + [self.fan, self.torus]

    def prepare(self) -> None:
        primes = checks.primes_below(self.PRIMES_BELOW)
        self.fan_checker = checks.FanChecker(primes, self.N_MAX, self.FAN_BOUND,
                                             self.FAN_BOUND, self.CAP)
        self.fan_chars = checks.fan_count(self.FAN_BOUND)
        self.chars = 2 * self.fan_chars + 2 * self.A5_BOUND

    def run_round(self, tracer) -> Round:
        certify, nonabelian = self.qc.certify, self.qc.nonabelian
        QcdenseError = self.qc.errors.QcdenseError
        fan, G = self.fan, self.fan.group
        meter = Meter()
        certs = {}
        with meter:
            for key, call in (
                ("qc", lambda: certify.certify_qc(fan, G, self.FAN_BOUND)),
                ("generation", lambda: certify.check_generation(fan, G, self.FAN_BOUND)),
                ("A5", lambda: nonabelian.certify_qc_with_finite_factor(
                    self.torus, self.A5, self.A5_BOUND)),
            ):
                try:
                    certs[key] = call()
                except QcdenseError:
                    certs[key] = None
        failed = 0
        methods: dict = {}
        error = None
        for key, expected in (("qc", self.fan_chars), ("generation", self.fan_chars),
                              ("A5", 2 * self.A5_BOUND)):
            cert = certs[key]
            if cert is None:
                failed += expected
                continue
            failed += max(0, expected - len(cert.records))
            try:
                if key == "A5":
                    add_counts(methods, checks.check_finite_factor(cert, self.A5_BOUND))
                else:
                    add_counts(methods, self.fan_checker.check(cert, key, self.FAN_BOUND))
            except checks.CheckError as exc:
                error = error or str(exc)
        return Round(self.chars, failed, meter, methods, error)


WORKLOADS = {"solenoid-cli": SolenoidCli, "profinite-sweep": ProfiniteSweep,
             "product-sweeps": ProductSweeps}


# ---------------------------------------------------------------------------
# byte reproducibility of the solenoid-cli payload


PAYLOAD_MARK = b'\n  "payload": '


def payload_sha256(path: Path) -> str:
    """sha256 of the payload's bytes: the top-level "payload" value to the end.

    Run metadata belongs in the header, which sorts before the payload, so
    the payload's bytes must not change from one run to the next.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        head = fh.read(1 << 16)
        at = head.find(PAYLOAD_MARK)
        if at < 0:
            raise checks.CheckError("no top-level payload in the first 64 KiB")
        digest.update(head[at:])
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_against_other_runs(payload_sha: str) -> None:
    """Compare with the payload hashes earlier runs of the same sources wrote.

    The log lives in bench/out/ of this checkout and is keyed by a hash of
    src/qcdense, so only runs of identical program code are compared.
    """
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcdense").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    key = source.hexdigest()
    log = OUT / "solenoid-cli.sha256"
    earlier = set()
    if log.exists():
        for line in log.read_text().splitlines():
            src_key, _, sha = line.partition(" ")
            if src_key == key:
                earlier.add(sha)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{key} {payload_sha}\n")
    if earlier - {payload_sha}:
        raise checks.CheckError("payload bytes differ from an earlier run of the same sources")


# ---------------------------------------------------------------------------
# tracing


PER_CALL = ("eval_char", "witness_torus", "witness_profinite", "witness_solenoid",
            "witness_fan", "brute_force_witness")
LAYERS = ("qcdense.sequences", "qcdense.certify", "qcdense.nonabelian", "qcdense.serialize")


def patch_program(tracer: Tracer, qc) -> None:
    """Wrap the public calls that cross a module boundary."""
    cli, certify, nonabelian, sequences = qc.cli, qc.certify, qc.nonabelian, qc.sequences
    for attr, value in sorted(vars(cli).items()):
        if isinstance(value, types.FunctionType) and value.__module__ in LAYERS:
            tracer.patch(cli, attr)
    for module in (certify, nonabelian):
        for attr in ("enumerate_chars",) + PER_CALL + ("abelianization",):
            if hasattr(module, attr):
                tracer.patch(module, attr, per_call=attr in PER_CALL,
                             count_items=attr == "enumerate_chars")
    # the entry points the benchmark itself calls through their modules
    for module, attr in ((certify, "certify_qc"), (certify, "check_generation"),
                         (nonabelian, "certify_qc_with_finite_factor"),
                         (sequences, "solenoid_sequence"), (sequences, "profinite_sequence"),
                         (sequences, "torus_sequence"), (sequences, "fan")):
        tracer.patch(module, attr)


WITNESS = tuple(f"certify.{n}" for n in PER_CALL if n.startswith("witness_"))
SWEEPS = ("certify.certify_qc", "certify.check_generation")
CONSTRUCTIVE = ("minimal_n", "solenoid_split", "torus_formula", "fan_component")


def round_layers(rnd: Round) -> dict:
    """Per-layer figures of one traced round."""
    calls = rnd.calls

    def total(names, field="total"):
        return sum(calls[n][field] for n in names if n in calls)

    witness_s, witness_calls = total(WITNESS), total(WITNESS, "count")
    return {
        "duality.enumerate_s": total(["duality.enumerate_chars"]),
        "duality.chars": total(["duality.enumerate_chars"], "items"),
        "duality.eval_s": total(["duality.eval_char"]),
        "duality.eval_calls": total(["duality.eval_char"], "count"),
        "certify.sweep_s": total(SWEEPS),
        "certify.sweep_self_s": total(SWEEPS, "self"),
        "certify.witness_s": witness_s,
        "certify.witness_self_s": total(WITNESS, "self"),
        "certify.witness_calls": witness_calls,
        "certify.witness_us": 1e6 * witness_s / witness_calls if witness_calls else 0.0,
        "certify.fallbacks": sum(calls[n]["raised"].get("TruncationTooSmall", 0)
                                 for n in WITNESS if n in calls),
        "certify.brute_force_s": total(["certify.brute_force_witness"]),
        "certify.brute_force_calls": total(["certify.brute_force_witness"], "count"),
        "certify.constructive_ratio":
            sum(rnd.methods.get(m, 0) for m in CONSTRUCTIVE) / rnd.chars,
        "certify.records.minimal_n": rnd.methods.get("minimal_n", 0),
        "certify.records.solenoid_split": rnd.methods.get("solenoid_split", 0),
        "certify.records.torus_formula": rnd.methods.get("torus_formula", 0),
        "certify.records.brute_force": rnd.methods.get("brute_force", 0),
        "nonabelian.certify_s": total(["nonabelian.certify_qc_with_finite_factor"]),
        "nonabelian.abelianization_s": total(["nonabelian.abelianization"]),
        "serialize.encode_s": total(["serialize.certificate_to_json"]),
        "cli.self_s": total(["cli.main"], "self"),
        "cli.bytes_written": rnd.bytes_written,
    }


def rss_rises(spans: list) -> dict:
    def rise(names):
        return sum(s["rss_rise_mb"] for s in spans if s["name"] in names)

    return {"certify.rss_rise_mb": rise(SWEEPS),
            "serialize.rss_rise_mb": rise(("serialize.certificate_to_json",)),
            "cli.rss_rise_mb": rise(("cli.main",))}


# ---------------------------------------------------------------------------
# the run


def median(values: list):
    """The median; for whole numbers (counts), the lower middle one, so it stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


END_TO_END_UNITS = {"setup_s": "s", "chars_per_s": "characters/s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    layer_units = per_layer_units() if args.trace else None
    qc = load_program()
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        patch_program(tracer, qc)
        tracer.install()
    workload = WORKLOADS[args.workload](qc)

    # set-up: import (above), sequences and their member indexes
    seqs = workload.setup()
    with span(tracer, "sequences.index"):
        for seq in seqs:
            seq.member_set
            seq.integer_members
    setup_s = time.perf_counter() - T_START
    members = sum(len(s.members) for s in seqs)
    del seqs
    setup_calls = tracer.take()[0] if tracer else {}
    workload.prepare()

    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        rnd = workload.run_round(tracer if traced else None)
        rnd.traced = traced
        if traced:
            rnd.calls, rnd.spans = tracer.take()
        rounds.append(rnd)
        error = rnd.error
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if error or enough and time.perf_counter() - started >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    if error is None:
        try:
            workload.finish(rounds)
        except checks.CheckError as exc:
            error = str(exc)
    if error is not None:
        print(f"bench: check failed: {error}", file=sys.stderr)

    measured = [r for r in rounds if not r.traced] or rounds
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "chars_per_s": statistics.median(r.chars / r.wall for r in measured),
            "cpu_s": statistics.median(r.cpu for r in measured),
            "peak_rss_mb": rounds[0].peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        traced_rounds = [r for r in rounds if r.traced]
        per_round = [round_layers(r) for r in traced_rounds]
        metrics = {name: median([layers[name] for layers in per_round]) for name in per_round[0]}
        metrics.update(rss_rises(traced_rounds[0].spans))
        metrics["sequences.build_s"] = sum(
            c["total"] for n, c in setup_calls.items() if n.startswith("sequences."))
        metrics["sequences.members"] = members
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced_rounds)
                                       - statistics.median(r.wall for r in measured))
        units = layer_units
        missing = set(units) ^ set(metrics)
        if missing:
            raise SystemExit(f"bench: per-layer metrics out of step with BENCHMARK.json: {missing}")

    result = {
        "correct": error is None,
        "attempted": sum(r.chars for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error": error, "result": result,
        "rounds": [{"traced": r.traced, "chars": r.chars, "failed": r.failed, "wall_s": r.wall,
                    "cpu_s": r.cpu, "peak_rss_mb": r.peak_rss_mb, "methods": r.methods,
                    "calls": r.calls, "spans": r.spans}
                   for r in rounds],
        "setup_calls": setup_calls,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload:16s} {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
