"""The four workloads.

Each workload turns the seed into a stream of rounds; a round is a list of
ops, and each op returns (correct, output bytes).  All randomness an op uses
is drawn when its round is made, so a round can be replayed (the traced
pass replays the untraced pass's rounds and must give the same outputs).
A round covers every case of the workload once, so a run of whole rounds
has the same mix whatever its length.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from common import BENCH, MODES, ROOT, SRC, crypt, derive, draw_masters, median

SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 170


class Op(NamedTuple):
    kind: str
    payload_bytes: int
    run: Callable[[], tuple[bool, bytes]]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


class Workload:
    name = ""
    #: Whether an op enciphers or deciphers a payload (mib_per_s is defined).
    has_payload = False

    def __init__(self, wb, seed: int, workdir: Path, log):
        self.wb = wb
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.log = log
        self.tracer = None

    def setup(self) -> None:
        """Draw keys and inputs that live for the whole run."""

    def setup_args(self) -> dict:
        """What the set-up probe derives besides importing the package."""
        return {}

    def setup_s(self) -> float:
        """Median over fresh processes of the package's first import plus
        the derivation of the run's key sets."""
        args = json.dumps(self.setup_args())
        times = []
        for _ in range(SETUP_REPEATS):
            proc = _run_child([str(BENCH / "child.py"), "setup", args])
            if proc.returncode:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.decode().strip()}")
            times.append(json.loads(proc.stdout)["setup_s"])
        return median(times)

    def warmup(self) -> None:
        for op in self.make_round():
            op.run()
        self.reset()

    def rounds(self):
        while True:
            yield self.make_round()

    def make_round(self) -> list[Op]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget the aggregate state of finished ops."""

    def finish(self) -> tuple[int, list[str]]:
        """Aggregate checks over the ops run since the last reset: the number
        of ops they fail, and why."""
        return 0, []

    def peak_rss_mib(self) -> float:
        """Peak resident set of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Sector4k(Workload):
    """Disk sectors through the library API: 4 KiB payloads, tweak = sector
    number as 16 little-endian bytes, one key set per mode for the run.
    A round writes (enciphers) and reads back (deciphers and compares) one
    sector under each of the six modes."""

    name = "sector-4k"
    has_payload = True
    SECTOR = 4096
    SECTORS = 1 << 30

    def setup(self):
        self.masters = draw_masters(self.wb, self.rng, self.log)
        self.keys = {m: derive(self.wb, m, k) for m, k in self.masters.items()}

    def setup_args(self):
        return {"masters": {m: k.hex() for m, k in self.masters.items()}}

    def make_round(self):
        ops = []
        for mode in MODES:
            sector = self.rng.randrange(self.SECTORS)
            plain = self.rng.randbytes(self.SECTOR)
            ops += self._pair(mode, sector, plain)
        return ops

    def _pair(self, mode, sector, plain):
        wb, keys = self.wb, self.keys[mode]
        tweak = sector.to_bytes(16, "little")
        stored = {}

        def write():
            BitString = wb.polyhash.BitString
            ct = crypt(wb, mode, keys, BitString(tweak), BitString(plain), True).to_bytes()
            stored["ct"] = ct
            return len(ct) == len(plain) and ct != plain, ct

        def read():
            BitString = wb.polyhash.BitString
            pt = crypt(wb, mode, keys, BitString(tweak), BitString(stored["ct"]), False).to_bytes()
            return pt == plain, pt

        return [Op(f"write.{mode}", self.SECTOR, write), Op(f"read.{mode}", self.SECTOR, read)]


class WideCli(Workload):
    """Whole 256 KiB files through ``python -m wideblock.cli``, one
    subprocess per op.  A round enciphers and deciphers one file under each
    of the six modes; each decipher must give the file back byte for byte."""

    name = "wide-cli"
    has_payload = True
    FILE = 256 * 1024

    def setup(self):
        self.masters = draw_masters(self.wb, self.rng, self.log)
        self.round_no = 0
        self.one_block = self.workdir / "one-block.pt"
        self.one_block.write_bytes(self.rng.randbytes(16))

    def _cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            return _run_child(["-m", "wideblock.cli", *argv])
        out = self.workdir / "child-trace.json"
        proc = _run_child([str(BENCH / "child.py"), "cli", str(out), *argv])
        self.tracer.merge(json.loads(out.read_text()))
        out.unlink()
        return proc

    def _crypt_argv(self, command, mode, tweak, src, dst):
        key = self.masters[mode].hex()
        return [command, "--mode", mode, "--key", key, "--tweak", tweak, "--in", str(src), "--out", str(dst)]

    def setup_s(self):
        """Median wall time of a CLI encrypt of a one-block file, twice per mode."""
        times = []
        for mode in MODES + MODES:
            argv = self._crypt_argv("encrypt", mode, "", self.one_block, self.workdir / "one-block.ct")
            start = time.perf_counter()
            proc = self._cli(argv)
            times.append(time.perf_counter() - start)
            if proc.returncode:
                raise RuntimeError(f"one-block encrypt failed: {proc.stderr.decode().strip()}")
        return median(times)

    def warmup(self):
        """The one-block set-up encrypts already ran the CLI under every mode."""

    def make_round(self):
        self.round_no += 1
        ops = []
        for mode in MODES:
            stem = self.workdir / f"r{self.round_no}-{mode}"
            plain = self.rng.randbytes(self.FILE)
            stem.with_suffix(".pt").write_bytes(plain)
            tweak = self.rng.randbytes(16).hex()
            ops += self._pair(mode, tweak, stem, plain)
        return ops

    def _pair(self, mode, tweak, stem, plain):
        pt, ct, back = stem.with_suffix(".pt"), stem.with_suffix(".ct"), stem.with_suffix(".back")

        def encrypt():
            proc = self._cli(self._crypt_argv("encrypt", mode, tweak, pt, ct))
            if proc.returncode:
                raise RuntimeError(f"encrypt exit {proc.returncode}: {proc.stderr.decode().strip()}")
            data = ct.read_bytes()
            return len(data) == len(plain) and data != plain, data

        def decrypt():
            proc = self._cli(self._crypt_argv("decrypt", mode, tweak, ct, back))
            if proc.returncode:
                raise RuntimeError(f"decrypt exit {proc.returncode}: {proc.stderr.decode().strip()}")
            data = back.read_bytes()
            return data == plain, data

        return [Op(f"encrypt.{mode}", self.FILE, encrypt), Op(f"decrypt.{mode}", self.FILE, decrypt)]

    def peak_rss_mib(self):
        """Largest peak resident set of any CLI child waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class AttackDemo(Workload):
    """The acceptance suite's attack demos with fresh keys on every op.

    A round runs each demo once, plus the two negative cases: hash-key
    recovery against the repaired hash must fail, and a cycling forgery
    under honest keys must be invalid.  Ops are sized to a cost of the same
    order (10-30 ms each with the bit-serial field code on a 2 GHz Xeon vCPU)."""

    name = "attack-demo"
    DISTINGUISH_PAIRS = 48
    ORDERS = (3, 5, 17)

    def setup(self):
        self.round_no = 0
        self.reset()

    def reset(self):
        self.dist_trials = 0
        self.dist_hits = 0
        self.dist_ops = 0

    def make_round(self):
        self.round_no += 1
        order = self.ORDERS[self.round_no % len(self.ORDERS)]
        v1 = self.round_no % 2 == 0
        seeds = [self.rng.getrandbits(64) for _ in range(7)]
        return [
            Op("distinguish", 0, lambda s=seeds[0]: self._distinguish(s)),
            Op("recover", 0, lambda s=seeds[1]: self._recover(s, fixed=False)),
            Op("keydep", 0, lambda s=seeds[2]: self._keydep(s)),
            Op("cycle", 0, lambda s=seeds[3]: self._cycle(s, order, v1)),
            Op("weakkey", 0, lambda s=seeds[4]: self._weakkey(s)),
            Op("recover-fix", 0, lambda s=seeds[5]: self._recover(s, fixed=True)),
            Op("cycle-honest", 0, lambda s=seeds[6]: self._cycle_honest(s)),
        ]

    def _distinguish(self, seed):
        wb = self.wb
        rng = random.Random(seed)
        keys = wb.modes.hctr_keys(rng.randbytes(32))
        report = wb.attacks.hctr_distinguish(
            wb.attacks.HctrOracle(keys), self.DISTINGUISH_PAIRS, rng.getrandbits(32)
        )
        self.dist_trials += report.trials
        self.dist_hits += report.successes
        self.dist_ops += 1
        return report.trials == self.DISTINGUISH_PAIRS, report.serialize().encode()

    def _recover(self, seed, fixed):
        wb = self.wb
        rng = random.Random(seed)
        keys = wb.modes.hctr_keys(rng.randbytes(32))
        oracle = wb.attacks.HctrOracle(keys, fixed_hash=fixed)
        report = wb.attacks.hctr_recover_h(oracle, max_iters=40, seed=rng.getrandbits(32))
        if fixed:
            ok = report.successes == 0 and report.recovered_material is None
        else:
            ok = report.recovered_material == keys.h
        return ok, report.serialize().encode()

    def _keydep(self, seed):
        wb = self.wb
        BitString = wb.polyhash.BitString
        rng = random.Random(seed)
        keys = wb.modes.hctr_keys(rng.randbytes(32))
        while True:
            x = BitString(rng.randbytes(16))
            c = wb.modes.hctr_encrypt(keys, BitString.empty(), x + x)
            try:
                h = wb.attacks.hctr_keydep_recover(keys.k, x, c)
                break
            except wb.attacks.DegenerateSample:
                continue
        return h == keys.h, h.to_bytes()

    def _cycle(self, seed, order, v1):
        """Forge under an injected hash key of order 3/5/17; the forgery
        must equal the true encryption, and the weak-key scan must find the
        order."""
        wb = self.wb
        BitString = wb.polyhash.BitString
        rng = random.Random(seed)
        weak = wb.field.element_of_order(order)
        if v1:
            variant, swap, nblocks = wb.modes.XCBV1, (2, 2 + order), 2 + order
            keys = wb.modes.inject_subkeys(wb.modes.derive_keys_v1(rng.randbytes(16)), h1=weak, h2=weak)
        else:
            variant, swap, nblocks = wb.modes.XCBV2, (1, 1 + order), 2 + order
            keys = wb.modes.inject_subkeys(wb.modes.derive_keys_v2(rng.randbytes(16)), h=weak)
        tweak = BitString(rng.randbytes(16))
        plain = BitString(rng.randbytes(16 * nblocks))
        ct = wb.modes.xcb_encrypt(variant, keys, tweak, plain)
        forged = wb.attacks.xcb_cycling_forge(variant, tweak, plain, ct, order, swap)
        truth = wb.modes.xcb_encrypt(variant, keys, tweak, wb.attacks.swap_blocks(plain, *swap))
        scan = wb.attacks.weak_key_scan(weak, 1 << 20)
        return forged == truth and scan.recovered_order == order, forged.data

    def _cycle_honest(self, seed):
        wb = self.wb
        BitString = wb.polyhash.BitString
        rng = random.Random(seed)
        keys = wb.modes.derive_keys_v2(rng.randbytes(16))
        tweak = BitString(rng.randbytes(16))
        plain = BitString(rng.randbytes(16 * 5))
        ct = wb.modes.xcb_encrypt(wb.modes.XCBV2, keys, tweak, plain)
        forged = wb.attacks.xcb_cycling_forge(wb.modes.XCBV2, tweak, plain, ct, 3, (1, 4))
        truth = wb.modes.xcb_encrypt(wb.modes.XCBV2, keys, tweak, wb.attacks.swap_blocks(plain, 1, 4))
        return forged != truth, forged.data

    def _weakkey(self, seed):
        """Scan an honest random hash key up to order 2^20: no order found."""
        wb = self.wb
        h = wb.field.FieldElement(random.Random(seed).getrandbits(128) | 1)
        report = wb.attacks.weak_key_scan(h, 1 << 20)
        return report.recovered_order is None, report.serialize().encode()

    def finish(self):
        """The distinguisher's collision rate over every pair run must lie
        within 4 sigma of 1/2."""
        if not self.dist_trials:
            return 0, []
        rate = self.dist_hits / self.dist_trials
        sigma = math.sqrt(0.25 / self.dist_trials)
        if abs(rate - 0.5) <= 4 * sigma:
            return 0, []
        why = f"distinguisher rate {rate:.4f} over {self.dist_trials} pairs is not within 4 sigma of 1/2"
        return self.dist_ops, [why]


class IncsetsW32(Workload):
    """``analysis.sample_w32(rmax=1024)`` per op, with the reported r drawn
    from the seed; the maximum and every reported W_r must equal the frozen
    table.  No crypto runs here."""

    name = "incsets-w32"
    RMAX = 1024
    SAMPLES = 16

    def setup(self):
        self.frozen = json.loads((BENCH / "w32_frozen.json").read_text())
        if self.frozen["rmax"] != self.RMAX:
            raise RuntimeError("frozen W_r table has another rmax")

    def warmup(self):
        self.wb.analysis.sample_w32(64)

    def make_round(self):
        seed = self.rng.getrandbits(32)
        return [Op("sample_w32", 0, lambda: self._sample(seed))]

    def _sample(self, seed):
        sample = self.wb.analysis.sample_w32(self.RMAX, samples=self.SAMPLES, seed=seed)
        frozen = self.frozen["w"]
        ok = (
            sample.w_max_observed == self.frozen["w_max_observed"]
            and len(sample.w_cardinalities) == self.SAMPLES
            and all(frozen[r] == w for r, w in sample.w_cardinalities.items())
        )
        return ok, json.dumps(sorted(sample.w_cardinalities.items())).encode()


WORKLOADS = {w.name: w for w in (Sector4k, WideCli, AttackDemo, IncsetsW32)}
