"""The wideblock benchmark.

    python3 bench/run.py --workload sector-4k --seed 1 --seconds 20 --trace 0

Runs one workload (or, with ``--workload all``, each of the four in a fresh
process) as a closed loop: one client, one process, the next op starts when
the previous one has finished.  Inputs come from ``--seed``.  Before timing,
the run checks the known-answer corpus (``kat.py``), draws its keys, times
its set-up and runs one warm-up round.  Then it runs whole rounds of ops
until ``--seconds`` would be exceeded, checks every op's output, and prints
every metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the rounds
once untraced (half of ``--seconds``), replays them under the layer tracer
(``layertrace.py``), requires both passes to give the same outputs, times
each layer on its own (``probes.py``) and reports the per-layer metrics.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import kat
import probes
import workloads
from common import BENCH, MIB, MODES, ROOT, SRC, import_wideblock, median
from layertrace import BITSTRING_PREFIX, LAYERS, Tracer

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: (name, unit, better) of the metrics in the JSON result; BENCHMARK.json
#: lists the same.  Each must be defined and nonzero on every workload, so
#: mib_per_s (no payload on two workloads), latency_tail_ms (too few samples
#: on two) and fail_frac (zero when all is well; the result carries
#: attempted/failed) are printed as lines only.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = tuple(
    [
        (f"{layer}.{what}", unit, "lower")
        for layer in LAYERS
        for what, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "ratio"))
    ]
    + [
        ("field.mul.calls_per_op", "count", "lower"),
        ("field.mul.us", "us", "lower"),
        ("field.inv.calls", "count", "lower"),
        ("field.inv.ms", "ms", "lower"),
        ("field.sqrt.calls", "count", "lower"),
        ("field.sqrt.ms", "ms", "lower"),
        ("field.pow.calls", "count", "lower"),
        ("polyhash.blocks_per_op", "count", "lower"),
        ("polyhash.hash_mib_s", "MiB/s", "higher"),
        ("polyhash.parse_n.self_s", "s", "lower"),
        ("polyhash.bitstring.calls", "count", "lower"),
        ("polyhash.bitstring.self_s", "s", "lower"),
        ("polyhash.xcb_hash.us_per_block", "us", "lower"),
        ("polyhash.bitstring.xor_256k.ms", "ms", "lower"),
        ("polyhash.parse_unaligned.scaling", "ratio", "lower"),
        ("ctr.blocks_per_op", "count", "lower"),
        ("ctr.mib_s", "MiB/s", "higher"),
        ("ctr.xor_ctr_4k.us", "us", "lower"),
        ("blockcipher.blocks_per_op", "count", "lower"),
        ("blockcipher.single_block_calls_per_op", "count", "lower"),
        ("blockcipher.key_setups", "count", "lower"),
        ("blockcipher.mib_s", "MiB/s", "higher"),
        ("blockcipher.ecb_floor_mib_s", "MiB/s", "higher"),
    ]
    + [(f"modes.{mode}.mib_s", "MiB/s", "higher") for mode in MODES]
    + [
        ("modes.derive.calls", "count", "lower"),
        ("modes.derive.us", "us", "lower"),
        ("modes.derive_keys_v1.us", "us", "lower"),
        ("modes.derive_keys_v2.us", "us", "lower"),
        ("modes.hctr_keys.us", "us", "lower"),
        ("attacks.oracle_queries", "count", "lower"),
        ("attacks.queries_per_success", "ratio", "lower"),
        ("attacks.recover.attempts_mean", "count", "lower"),
    ]
    + [(f"attacks.{demo}.ms", "ms", "lower") for demo in ("distinguish", "recover", "keydep", "cycle", "weakkey")]
    + [
        ("analysis.sample_w32.self_s", "s", "lower"),
        ("analysis.carry_class_offsets.self_s", "s", "lower"),
        ("analysis.offsets_enumerated", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def say(line: str) -> None:
    print(line, flush=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- provenance ---------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(wb) -> None:
    import cryptography
    from cryptography.hazmat.backends.openssl.backend import backend

    say(f"commit {_commit()} src_sha256 {_src_digest()}")
    say(
        f"python {platform.python_version()} cryptography {cryptography.__version__} "
        f"openssl {backend.openssl_version_text()!r} wideblock {wb.__version__}"
    )
    say(f"nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))}")


def loadavg(when: str) -> None:
    say(f"loadavg_{when} " + " ".join(f"{x:.2f}" for x in os.getloadavg()))


# -- measurement --------------------------------------------------------------


class Pass:
    """What one closed-loop pass over whole rounds did."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.errors: list[str] = []
        self.payload_bytes = 0
        self.wall = 0.0
        self.rounds = 0
        self.kept: list = []
        self.digest = hashlib.sha256()


def measure(workload, rounds, seconds: float, keep_rounds: bool = False) -> Pass:
    """Run rounds until starting another would likely pass ``seconds``
    (at least one round); time each op on its own.  ``keep_rounds`` keeps
    the ops for a replay (it holds every input, so peak memory grows)."""
    result = Pass()
    workload.reset()
    clock = time.perf_counter
    start = clock()
    for ops in rounds:
        round_start = clock()
        for op in ops:
            t0 = clock()
            try:
                ok, output = op.run()
                why = "wrong output"
            except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
                if not result.failed:
                    traceback.print_exc()
                ok, output, why = False, b"", repr(exc)
            result.latencies.append(clock() - t0)
            result.kinds.append(op.kind)
            result.payload_bytes += op.payload_bytes
            result.digest.update(len(output).to_bytes(8, "little") + output)
            if not ok:
                result.failed += 1
                result.errors.append(f"{op.kind}: {why}")
        result.rounds += 1
        if keep_rounds:
            result.kept.append(ops)
        now = clock()
        if now - start + (now - round_start) > seconds:
            break
    result.wall = clock() - start
    failed_ops, why = workload.finish()
    result.failed += failed_ops
    result.errors += why
    return result


def end_to_end(workload, run: Pass, setup_s: float) -> dict:
    n = len(run.latencies)
    lat = sorted(run.latencies)
    metrics = {
        "ops_per_s": (n / run.wall, "1/s"),
        "latency_p50_ms": (median(lat) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (workload.peak_rss_mib(), "MiB"),
    }
    say(f"samples {n} in {run.wall:.3f} s ({run.rounds} rounds)")
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(run.kinds, run.latencies):
        by_kind.setdefault(kind, []).append(t)
    for kind, times in sorted(by_kind.items()):
        say(f"op {kind} n={len(times)} p50_ms={median(times) * 1e3:.6g}")
    if workload.has_payload:
        say(f"metric mib_per_s {run.payload_bytes / MIB / run.wall:.6g} MiB/s")
    else:
        say("metric mib_per_s n/a (no payload is enciphered)")
    for name, (value, unit) in metrics.items():
        say(f"metric {name} {value:.6g} {unit}")
    # The highest percentile with at least ten samples beyond it; below 20
    # samples it would not even be above the median.
    if n >= 20:
        pct = math.floor(1000 * (n - 10) / n) / 10
        say(f"metric latency_tail_ms {lat[n - 11] * 1e3:.6g} ms (p{pct}, n={n})")
    else:
        say(f"metric latency_tail_ms n/a (n={n} < 20 samples)")
    say(f"metric fail_frac {run.failed / n:.6g} ({run.failed}/{n})")
    return metrics


def per_layer(tracer, traced: Pass, untraced: Pass, probe_values: dict) -> dict:
    ops = len(traced.latencies)
    wall = traced.wall
    calls, units, tag_s, self_s = tracer.calls, tracer.units, tracer.tag_s, tracer.self_s
    m = {}
    for layer in LAYERS:
        layer_self = tracer.prefix_self_s(f"{layer}.")
        m[f"{layer}.calls"] = (tracer.prefix_calls(f"{layer}."), "count")
        m[f"{layer}.self_s"] = (layer_self, "s")
        m[f"{layer}.self_share"] = (layer_self / wall, "ratio")
    m["field.mul.calls_per_op"] = (calls["field.mul"] / ops, "count")
    for name in ("inv", "sqrt", "pow"):
        m[f"field.{name}.calls"] = (calls[f"field.{name}"], "count")
    m["polyhash.blocks_per_op"] = (units["polyhash.blocks"] / ops, "count")
    m["polyhash.hash_mib_s"] = (_ratio(units["polyhash.blocks"] * 16 / MIB, tag_s["polyhash.hash"]), "MiB/s")
    m["polyhash.parse_n.self_s"] = (self_s["polyhash.parse_n"], "s")
    m["polyhash.bitstring.calls"] = (tracer.prefix_calls(BITSTRING_PREFIX), "count")
    m["polyhash.bitstring.self_s"] = (tracer.prefix_self_s(BITSTRING_PREFIX), "s")
    m["ctr.blocks_per_op"] = (units["ctr.blocks"] / ops, "count")
    m["ctr.mib_s"] = (_ratio(units["ctr.bits"] / 8 / MIB, tag_s["ctr.keystream"]), "MiB/s")
    m["blockcipher.blocks_per_op"] = (units["blockcipher.blocks"] / ops, "count")
    m["blockcipher.single_block_calls_per_op"] = (units["blockcipher.single_block_calls"] / ops, "count")
    m["blockcipher.key_setups"] = (units["blockcipher.key_setups"], "count")
    m["blockcipher.mib_s"] = (_ratio(units["blockcipher.blocks"] * 16 / MIB, tag_s["blockcipher.aes"]), "MiB/s")
    for mode in MODES:
        m[f"modes.{mode}.mib_s"] = (_ratio(units[f"modes.{mode}.bits"] / 8 / MIB, tag_s[f"modes.{mode}"]), "MiB/s")
    derives = sum(calls[f"modes.{name}"] for name in ("derive_keys_v1", "derive_keys_v2", "hctr_keys"))
    m["modes.derive.calls"] = (derives, "count")
    m["modes.derive.us"] = (_ratio(tag_s["modes.derive"] * 1e6, derives), "us")
    m["attacks.oracle_queries"] = (units["attacks.oracle_queries"], "count")
    m["attacks.queries_per_success"] = (_ratio(units["attacks.oracle_queries"], units["attacks.successes"]), "ratio")
    m["attacks.recover.attempts_mean"] = (
        _ratio(units["attacks.recover.attempts"], units["attacks.recover.runs"]),
        "count",
    )
    for demo in ("distinguish", "recover", "keydep", "cycle", "weakkey"):
        times = [t for t, kind in zip(untraced.latencies, untraced.kinds) if kind == demo]
        m[f"attacks.{demo}.ms"] = (_ratio(sum(times) * 1e3, len(times)), "ms")
    m["analysis.sample_w32.self_s"] = (self_s["analysis.sample_w32"], "s")
    m["analysis.carry_class_offsets.self_s"] = (self_s["analysis.carry_class_offsets"], "s")
    m["analysis.offsets_enumerated"] = (units["analysis.offsets_enumerated"], "count")
    m["trace.overhead_frac"] = (traced.wall / untraced.wall - 1, "ratio")
    m.update(probe_values)
    for name, (value, unit) in m.items():
        say(f"layer {name} {value:.6g} {unit}")
    return m


# -- one workload ---------------------------------------------------------------


def run_workload(args) -> int:
    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    loadavg("start")
    try:
        wb = import_wideblock()
    except ImportError as exc:
        print(f"error: cannot import wideblock from {SRC}: {exc}", file=sys.stderr)
        return 2
    provenance(wb)

    problems = kat.check(wb)
    if problems:
        for line in problems:
            print(f"error: known-answer gate: {line}", file=sys.stderr)
        return 1
    say("kat ok: corpus digests match for all six modes")

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        workload = workloads.WORKLOADS[args.workload](wb, args.seed, Path(workdir), say)
        workload.setup()
        setup_s = workload.setup_s()
        workload.warmup()
        if args.trace:
            metrics, runs = traced_run(workload, wb, args)
            declared = PER_LAYER
        else:
            run = measure(workload, workload.rounds(), args.seconds)
            metrics = end_to_end(workload, run, setup_s)
            runs = [run]
            declared = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if sorted(metrics) != sorted(name for name, _, _ in declared):
        raise RuntimeError("reported metrics differ from the declared list")
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    for line in errors[:10]:
        print(f"failure: {line}", file=sys.stderr)
    loadavg("end")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def traced_run(workload, wb, args):
    untraced = measure(workload, workload.rounds(), args.seconds / 2, keep_rounds=True)
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        traced = measure(workload, iter(untraced.kept), math.inf)
    finally:
        tracer.uninstall()
        workload.tracer = None
    say(f"output_sha256 untraced {untraced.digest.hexdigest()} traced {traced.digest.hexdigest()}")
    if traced.digest.digest() != untraced.digest.digest():
        traced.errors.append("traced pass gave other outputs than the untraced pass")
    say(f"samples {len(traced.latencies)} per pass, untraced {untraced.wall:.3f} s, traced {traced.wall:.3f} s")
    probe_values = probes.run(wb, random.Random(f"probes/{args.seed}"))
    return per_layer(tracer, traced, untraced, probe_values), [untraced, traced]


# -- all workloads --------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh process; the result merges theirs, with
    metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
