"""Command-line front end.

Subcommands: encrypt/decrypt files under any of the six modes, run the
attack demonstrations against harness-generated hidden keys, print the
security-bound comparison table, scan a hash key for small subgroup
membership, and compute counter-offset sets.  Each attack is its own
subcommand of ``attack`` and takes only the options it reads, after its
name; any other option is a usage error.

Only ``attack`` and ``weakkey`` load ``attacks``, and only ``bounds`` and
``incsets`` load ``analysis``; ``encrypt``/``decrypt`` import just the
cipher path (block cipher, field, hash, counter and modes).  The AES
backend, ``cryptography``, loads at the first key derivation, so only
``encrypt``, ``decrypt`` and ``attack`` load it; without it they exit 1
with a one-line error, and ``bounds``, ``incsets`` and ``weakkey`` run.

CLI payloads are whole files, so byte-aligned; bit-granular inputs exist
only inside the attack harness.  Identical (argv, seed, input) always
produces identical output.  Usage errors exit 2 and data errors exit 1
with a one-line diagnostic, as does running out of memory; output that
its reader closes early exits 1 with none.
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys

# encrypt/decrypt need only the cipher path; the subcommands that use
# ``analysis`` or ``attacks`` import them when they run, so a file
# operation never loads those layers.
from . import modes
from .field import FieldElement, element_of_order
from .polyhash import BitString


def _int_at_least(minimum: int, maximum: int | None = None):
    """An argparse type: an integer no smaller than ``minimum`` and, if
    ``maximum`` is given, no larger than it."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return count


#: Largest ``incsets --rmax``: one output line per r, 2^20 lines at most.
_MAX_INCSETS_RMAX = 1 << 20

#: Largest ``attack hctr-distinguish --trials``: a trial is two oracle
#: queries, so this bounds the run's time.
_MAX_TRIALS = 1 << 20


def _cmd_crypt(args: argparse.Namespace) -> int:
    mode = modes.MODES[args.mode]
    keys = mode.derive(bytes.fromhex(args.key))
    tweak = BitString(bytes.fromhex(args.tweak))
    path = getattr(args, "in")
    info = os.stat(path)
    # A device or FIFO reports size 0 and could be read without end, or
    # block in open, so only a regular file is read.
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path} is not a regular file")
    size = info.st_size
    if 8 * size > modes.MAX_BITS:
        raise ValueError(f"{path} is {size} bytes; the modes take at most 2^39 bits (64 GiB)")
    with open(path, "rb") as f:
        data = BitString(f.read())
    result = mode.crypt(keys, tweak, data, args.encrypt, args.allow_insecure_partial)
    with open(args.out, "wb") as f:
        f.write(result.to_bytes())
    return 0


#: Longest plaintext, in blocks, that ``attack xcb-cycle`` draws.
_MAX_CYCLE_BLOCKS = 1 << 16


def _swap_pair(text: str) -> tuple[int, int]:
    """The 1-based block indices i < j of ``--swap i,j``."""
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--swap takes two block indices i,j, got {text!r}") from None
    if not 1 <= i < j:
        raise ValueError(f"--swap needs block indices 1 <= i < j, got {i},{j}")
    return i, j


def _cmd_hctr_distinguish(args: argparse.Namespace) -> int:
    from . import attacks

    keys = modes.hctr_keys(random.Random(args.seed).randbytes(32))
    report = attacks.hctr_distinguish(attacks.HctrOracle(keys), args.trials, args.seed)
    print(report.serialize())
    return 0


def _matches_hidden_h(recovered: FieldElement | None, keys: modes.TesKeySet) -> int:
    """Print the hidden hash key and whether ``recovered`` equals it (exit 0 if so)."""
    print(f"hidden_h {keys.h.to_hex()}")
    match = recovered == keys.h
    print(f"recovered_matches_hidden {'yes' if match else 'no'}")
    return 0 if match else 1


def _cmd_hctr_recover(args: argparse.Namespace) -> int:
    from . import attacks

    keys = modes.hctr_keys(random.Random(args.seed).randbytes(32))
    report = attacks.hctr_recover_h(attacks.HctrOracle(keys), max_iters=40, seed=args.seed)
    print(report.serialize())
    return _matches_hidden_h(report.recovered_material, keys)


def _cmd_hctr_keydep(args: argparse.Namespace) -> int:
    from . import attacks

    rng = random.Random(args.seed)
    keys = modes.hctr_keys(rng.randbytes(32))
    while True:
        x = BitString(rng.randbytes(16))
        c = modes.hctr_encrypt(keys, BitString.empty(), x + x)
        try:
            recovered = attacks.hctr_keydep_recover(keys.k, x, c)
        except attacks.DegenerateSample:
            continue
        print(f"recovered_h {recovered.to_hex()}")
        return _matches_hidden_h(recovered, keys)


def _cmd_xcb_cycle(args: argparse.Namespace) -> int:
    from . import attacks

    mode = modes.MODES[args.mode]
    weak = element_of_order(args.order)
    if args.swap:
        i, j = _swap_pair(args.swap)
    else:
        # The first counter-covered block and the one args.order after it.
        span = mode.counter_span(args.order + 2)
        i, j = span[0], span[-1]
    nblocks = j + 1
    if nblocks > _MAX_CYCLE_BLOCKS:
        raise ValueError(
            f"swapping block {j} needs a {nblocks}-block message; at most 2^16 blocks are drawn"
        )
    rng = random.Random(args.seed)
    master = rng.randbytes(16)
    if mode.scheme == "hctr":  # the master's second half is the hash key: nothing is injected
        master += weak.to_bytes()
    keys = mode.derive(master)
    weak_keys = {n: weak for n in ("h1", "h2", "h") if getattr(keys, n) not in (None, weak)}
    keys = modes.inject_subkeys(keys, **weak_keys)
    tweak = BitString(rng.randbytes(16))
    plaintext = BitString(rng.randbytes(16 * nblocks))
    ciphertext = mode.crypt(keys, tweak, plaintext, True, False)
    forged = attacks.xcb_cycling_forge(mode, tweak, plaintext, ciphertext, args.order, (i, j))
    true_swapped = mode.crypt(keys, tweak, attacks.swap_blocks(plaintext, i, j), True, False)
    match = forged == true_swapped
    print(f"mode {mode.name}")
    print(f"weak_order {args.order}")
    print(f"swap {i},{j}")
    print(f"forgery_valid {'yes' if match else 'no'}")
    return 0 if match else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from . import analysis

    params = analysis.BoundParams(
        q=analysis.parse_magnitude(args.q),
        ell=args.len,
        sigma=analysis.parse_magnitude(args.sigma),
        n=args.n,
    )
    table = analysis.table1_report(params)
    print(table.as_structured() if args.format == "structured" else table.as_text())
    return 0


def _cmd_weakkey(args: argparse.Namespace) -> int:
    from . import attacks

    h = FieldElement.from_hex(args.h)
    report = attacks.weak_key_scan(h, args.max_order)
    print(report.serialize())
    return 0


def _cmd_incsets(args: argparse.Namespace) -> int:
    from . import analysis

    counts = analysis.inc_set_counts(args.width, args.rmax)
    print(f"width {args.width} rmax {args.rmax}")
    print(f"w_max {max(counts)}")
    sys.stdout.writelines(f"w[{r}] {w}\n" for r, w in enumerate(counts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wideblock",
        description="wide-block enciphering modes, attacks and bound analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("encrypt", "encrypt a file"), ("decrypt", "decrypt a file")):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(handler=_cmd_crypt, encrypt=name == "encrypt")
        p.add_argument("--mode", required=True, choices=modes.MODES)
        p.add_argument("--key", required=True, help="key as hex")
        p.add_argument("--tweak", default="", help="tweak as hex (default empty)")
        p.add_argument("--in", required=True, help="input file")
        p.add_argument("--out", required=True, help="output file")
        p.add_argument(
            "--allow-insecure-partial",
            action="store_true",
            help="permit non-multiple-of-16-byte payloads for the v2 variants "
            "despite the known distinguishing attack",
        )

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1, help="seeds the hidden keys and all draws")
    attack = sub.add_parser("attack", help="run an attack demonstration").add_subparsers(
        dest="attack", required=True
    )
    p = attack.add_parser("hctr-distinguish", parents=[seeded], help="HCTR distinguisher")
    p.set_defaults(handler=_cmd_hctr_distinguish)
    p.add_argument("--trials", type=_int_at_least(1, _MAX_TRIALS), default=10000)
    p = attack.add_parser("hctr-recover", parents=[seeded], help="HCTR hash-key recovery")
    p.set_defaults(handler=_cmd_hctr_recover)
    p = attack.add_parser("hctr-keydep", parents=[seeded], help="HCTR key dependency")
    p.set_defaults(handler=_cmd_hctr_keydep)
    p = attack.add_parser("xcb-cycle", parents=[seeded], help="weak-key forgery on any mode")
    p.set_defaults(handler=_cmd_xcb_cycle)
    p.add_argument("--mode", default="xcbv2", choices=modes.MODES, help="construction attacked")
    p.add_argument("--order", type=_int_at_least(2), default=3, help="weak-key order")
    p.add_argument("--swap", default=None, help="1-based block indices i,j")

    p = sub.add_parser("bounds", help="print the security-bound comparison table")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("--q", default="2^30", help="query count (int, 2^k or 2^a+2^b)")
    p.add_argument("--len", type=_int_at_least(1), default=(1 << 8) + 1, help="max blocks per query")
    p.add_argument("--sigma", default="2^38+2^30", help="query complexity in blocks")
    p.add_argument("--n", type=int, default=128, help="block bits")
    p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("weakkey", help="scan a hash key for small-order subgroups")
    p.set_defaults(handler=_cmd_weakkey)
    p.add_argument("--h", required=True, help="hash key as 32 hex chars")
    p.add_argument("--max-order", type=_int_at_least(0), default=1 << 20)

    p = sub.add_parser("incsets", help="counter-offset set analysis")
    p.set_defaults(handler=_cmd_incsets)
    p.add_argument("--width", type=_int_at_least(1, 128), default=8, help="counter bits, 1..128")
    p.add_argument(
        "--rmax", type=_int_at_least(0, _MAX_INCSETS_RMAX), default=255, help="largest r, 0..2^20"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # Given "--name=--", argparse (CPython 3.11 among others) drops the
        # "--" and stores an empty list, unconverted and unchecked.
        if value == []:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the output early (``wideblock bounds | head -2``).
        # Python's documented recipe: point stdout at the null device, so
        # the flush at exit cannot fail again, and exit 1 without a message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        # Its text is empty.  Whole files are held in memory, so a large
        # input can pass the size check and still not fit.
        print("error: out of memory", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, RuntimeError, ImportError) as exc:
        # ImportError: the first keyed cipher imports the AES backend, so a
        # missing ``cryptography`` shows here ("No module named 'cryptography'").
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
