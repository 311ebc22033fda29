import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfref
from wideblock import analysis, cli, field, modes
from wideblock.cli import main

rng = random.Random(0xC11)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("mode,key_bytes", [
    ("xcbv1", 16),
    ("xcbv2", 16),
    ("mxcbv1", 16),
    ("mxcbv2", 16),
    ("hctr", 32),
    ("hctr-fix", 32),
])
def test_file_round_trip(tmp_path, capsys, mode, key_bytes):
    plain = tmp_path / "plain.bin"
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.bin"
    data = rng.randbytes(4096)
    plain.write_bytes(data)
    key = rng.randbytes(key_bytes).hex()

    code, _, _ = run(
        capsys, "encrypt", "--mode", mode, "--key", key, "--tweak", "00aa",
        "--in", str(plain), "--out", str(enc),
    )
    assert code == 0
    assert enc.stat().st_size == 4096
    assert enc.read_bytes() != data

    code, _, _ = run(
        capsys, "decrypt", "--mode", mode, "--key", key, "--tweak", "00aa",
        "--in", str(enc), "--out", str(dec),
    )
    assert code == 0
    assert dec.read_bytes() == data


#: Modules that only the analysis and attack subcommands, or the test
#: cipher, need; none of them may load on the encrypt path.
_NOT_ON_THE_CIPHER_PATH = (
    "wideblock.analysis", "wideblock.attacks", "dataclasses", "inspect",
    "fractions", "decimal", "hashlib",
)


def _modules_loaded_by(code: str) -> set[str]:
    """The module names a fresh interpreter holds after running code
    against this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


def test_encrypt_loads_only_the_cipher_layers(tmp_path):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(bytes(16))
    argv = ["encrypt", "--mode", "xcbv2", "--key", "00" * 16,
            "--in", str(plain), "--out", str(tmp_path / "enc.bin")]
    loaded = _modules_loaded_by(
        f"from wideblock import cli\nassert cli.main({argv!r}) == 0"
    )
    # What site and the two third-party imports bring in anyway is not the
    # package's doing.
    baseline = _modules_loaded_by("import argparse, cryptography.hazmat.primitives.ciphers")
    assert "wideblock.modes" in loaded
    assert sorted(set(_NOT_ON_THE_CIPHER_PATH) & (loaded - baseline)) == []


def test_closed_output_pipe_exits_quietly():
    """A reader that closes stdout after one line: exit 1, nothing on
    stderr.  The output (2^20 lines) is far past any pipe buffer, so the
    command is still writing when the read end closes."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "wideblock.cli", "incsets", "--width", "32", "--rmax", str(1 << 20)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"width 32 rmax 1048576\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_attack_and_analysis_layers_load_no_dataclasses():
    # Their records are NamedTuples: importing every layer must not pull in
    # dataclasses, or inspect, which dataclasses imports.
    loaded = _modules_loaded_by("import wideblock.attacks, wideblock.analysis, wideblock.cli")
    baseline = _modules_loaded_by(
        "import argparse, random, fractions, cryptography.hazmat.primitives.ciphers"
    )
    assert {"wideblock.attacks", "wideblock.analysis"} <= loaded
    assert sorted({"dataclasses", "inspect"} & (loaded - baseline)) == []


def test_v2_partial_file_needs_flag(tmp_path, capsys):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(rng.randbytes(40))  # not a multiple of 16
    key = rng.randbytes(16).hex()
    out = tmp_path / "out.bin"

    code, _, err = run(
        capsys, "encrypt", "--mode", "xcbv2", "--key", key,
        "--in", str(plain), "--out", str(out),
    )
    assert code == 1
    assert "insecure" in err

    code, _, _ = run(
        capsys, "encrypt", "--mode", "xcbv2", "--key", key,
        "--in", str(plain), "--out", str(out), "--allow-insecure-partial",
    )
    assert code == 0
    assert out.stat().st_size == 40


def test_wrong_key_length_is_a_data_error(tmp_path, capsys):
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(16))
    code, _, err = run(
        capsys, "encrypt", "--mode", "hctr", "--key", "00" * 16,
        "--in", str(plain), "--out", str(plain) + ".enc",
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
@pytest.mark.parametrize("size,ok", [(1 << 36, True), ((1 << 36) + 1, False)])
def test_input_size_is_checked_before_reading(tmp_path, capsys, monkeypatch, command, size, ok):
    """The 2^39-bit bound is checked on the file's size, before any read:
    a file reported one byte over it is refused with one error line even
    though its contents are small."""
    plain = tmp_path / "p.bin"
    plain.write_bytes(rng.randbytes(64))
    out = tmp_path / "out.bin"
    monkeypatch.setattr(cli, "os", SimpleNamespace(stat=lambda path: SimpleNamespace(st_size=size)))
    code, _, err = run(
        capsys, command, "--mode", "xcbv1", "--key", "00" * 16,
        "--in", str(plain), "--out", str(out),
    )
    if ok:
        assert code == 0 and out.stat().st_size == 64
        return
    assert code == 1
    assert err.startswith("error:") and "2^39 bits" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("q =", "scheme", "note"))]
    assert len(lines) == 12
    assert any("mxcbv1" in l and "-51.99" in l for l in lines)
    assert any("tet" in l and "-50.40" in l for l in lines)


def test_bounds_structured_and_params(capsys):
    code, out, _ = run(
        capsys, "bounds", "--q", "2^30", "--sigma", "2^38+2^30", "--format", "structured"
    )
    assert code == 0
    assert len(out.splitlines()) == 12
    assert out.splitlines()[0].startswith("scheme tet")


def test_attack_recover(capsys):
    code, out, _ = run(capsys, "attack", "hctr-recover", "--seed", "7")
    assert code == 0
    assert "recovered_matches_hidden yes" in out
    recovered = next(l.split()[1] for l in out.splitlines() if l.startswith("recovered "))
    hidden = next(l.split()[1] for l in out.splitlines() if l.startswith("hidden_h "))
    assert recovered == hidden


def test_attack_distinguish(capsys):
    code, out, _ = run(capsys, "attack", "hctr-distinguish", "--trials", "400", "--seed", "3")
    assert code == 0
    rate = float(next(l.split()[1] for l in out.splitlines() if l.startswith("advantage_float")))
    assert 0.4 <= rate <= 0.6


def test_attack_keydep(capsys):
    code, out, _ = run(capsys, "attack", "hctr-keydep", "--seed", "5")
    assert code == 0
    assert "recovered_matches_hidden yes" in out


@pytest.mark.parametrize("mode", modes.MODES)
def test_attack_cycle(capsys, mode):
    code, out, _ = run(
        capsys, "attack", "xcb-cycle", "--mode", mode, "--order", "3", "--seed", "2"
    )
    assert code == 0
    assert "forgery_valid yes" in out


def test_attack_cycle_explicit_swap(capsys):
    code, out, _ = run(
        capsys, "attack", "xcb-cycle", "--order", "5", "--swap", "2,12", "--seed", "2"
    )
    assert code == 0
    assert "swap 2,12" in out
    assert "forgery_valid yes" in out


#: SHA-256 of the whole stdout, and the exit code, of README's four attack
#: commands and of the seeded attack commands in this file, as printed
#: before each attack had a subparser of its own; the HCTR cycling runs as
#: first printed when the demo reached HCTR.
_PINNED_ATTACKS = {
    "hctr-distinguish --trials 10000 --seed 1":
        (0, "1ee28310ec7234345f3d82c4a33f514049b923f1e68f58caa1369c80f8faa517"),
    "hctr-recover --seed 7": (0, "3d2f3924a44d52c226f1efa7e1b727055052f9ead8970d0b40bdae82f35d5712"),
    "hctr-keydep --seed 5": (0, "39cc3af7e4d2d7ca7620699007aac495325c97fdf4f5a4f5e92f7f13731d6697"),
    "xcb-cycle --mode xcbv2 --order 3 --swap 1,4":
        (0, "45ab439fbac8cfa44dbddf33ba17542a3a82d65a7355e7d92fe0aa53bc66c248"),
    "hctr-distinguish --trials 400 --seed 3":
        (0, "8fc65b3ca96e85a4aebeab69088e309e7ea1f3c19a5dc87cff1c636e220096ec"),
    "hctr-distinguish --trials 50 --seed 9":
        (0, "53503c6e61b5b0fc46a0a0c7b1c8455189ca48d497d3ab8aa416a5d2a39d58d9"),
    "xcb-cycle --mode xcbv1 --order 3 --seed 2":
        (0, "a03e093b7e02ba3f5e9204774f0509f836e879fb2d52a89a0328d4a00a7757b9"),
    "xcb-cycle --mode xcbv2 --order 3 --seed 2":
        (0, "45ab439fbac8cfa44dbddf33ba17542a3a82d65a7355e7d92fe0aa53bc66c248"),
    "xcb-cycle --mode mxcbv1 --order 3 --seed 2":
        (0, "9481a0cc56b9abc590c27a41cd65de4741f592c60bc6b154f26269ac5d073cfa"),
    "xcb-cycle --mode mxcbv2 --order 3 --seed 2":
        (0, "8b9f615d89a379fca6eb5a990b3cf86a0489618fd0c24530ebcc78cbd87f4526"),
    "xcb-cycle --order 5 --swap 2,12 --seed 2":
        (0, "48bf083d2d7340af85f9b58179fe2804e591df2cb5c56d7005c756ac0f0078fe"),
    "xcb-cycle --mode hctr --order 3 --seed 2":
        (0, "f5adeccbb24e676b21eb88e61363363b6ead66302fb26dc4a8f1b58e5b2558b7"),
    "xcb-cycle --mode hctr-fix --order 3 --seed 2":
        (0, "87ffcd9893aab47291050ed0fdd70fff711004b3b13fe4317b7fe4a642b7d78f"),
    "xcb-cycle --mode hctr-fix --order 5 --seed 2":
        (0, "ed36ff0336efec7814f03003348d44d8dfe9cfd3adc40af171b15ec00c95768f"),
}


@pytest.mark.parametrize("command", _PINNED_ATTACKS)
def test_attack_output_is_pinned(capsys, command):
    code, out, _ = run(capsys, "attack", *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _PINNED_ATTACKS[command]


#: The options each attack reads; every other attack option is foreign to it.
_ATTACK_OPTIONS = {
    "hctr-distinguish": ("--trials", "--seed"),
    "hctr-recover": ("--seed",),
    "hctr-keydep": ("--seed",),
    "xcb-cycle": ("--mode", "--order", "--swap", "--seed"),
}
_FOREIGN_VALUES = {"--trials": "5", "--mode": "mxcbv1", "--order": "5", "--swap": "1,4"}
_FOREIGN = [
    (attack, option)
    for attack, own in _ATTACK_OPTIONS.items()
    for option in _FOREIGN_VALUES
    if option not in own
]


@pytest.mark.parametrize("attack", _ATTACK_OPTIONS)
def test_each_attack_takes_exactly_the_options_it_reads(capsys, attack):
    with pytest.raises(SystemExit) as exc:
        main(["attack", attack, "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
    assert options == set(_ATTACK_OPTIONS[attack])


@pytest.mark.parametrize("attack,option", _FOREIGN)
def test_foreign_attack_option_is_a_usage_error(capsys, attack, option):
    with pytest.raises(SystemExit) as exc:
        main(["attack", attack, "--seed", "7", option, _FOREIGN_VALUES[option]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--seed", "3", "hctr-recover"),
    ("--seed=3", "hctr-keydep"),
    ("--trials=5", "hctr-distinguish"),
    ("--order", "3", "xcb-cycle"),
])
def test_attack_options_follow_the_attack_name(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["attack", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    *(("--order=3", f"--swap={swap}") for swap in (
        "1,100000000", "1,1000000", "1,65536", "0,3", "5,2", "4,4", "-1,3", "1", "1,2,3", "a,b", ",",
    )),
    (f"--order={(1 << 64) - 1}",),  # the default swap spans 2^64 blocks
    ("--order=2",),  # 2^128 - 1 is odd: no element has an even order
    ("--order=256",),
])
def test_attack_cycle_bad_swap_is_a_fast_data_error(capsys, argv):
    """The pair is checked before any plaintext is drawn: indices 1 <= i < j
    and a message (j + 1 blocks) of at most 2^16 blocks.  An order of at
    least 2 that does not divide 2^128 - 1 is a data error too."""
    start = time.perf_counter()
    code, out, err = run(capsys, "attack", "xcb-cycle", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("option", ["--q", "--sigma"])
@pytest.mark.parametrize("term", ["2^99999999999", "2^-1", "2^4097", "2^", "2^30+", ""])
def test_bounds_exponent_out_of_range(capsys, option, term):
    code, out, err = run(capsys, "bounds", option, term)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(term) in err
    assert "int()" not in err
    assert err.count("\n") == 1


def test_weakkey(capsys):
    h = field.element_of_order(17)
    code, out, _ = run(capsys, "weakkey", "--h", h.to_hex(), "--max-order", "100")
    assert code == 0
    assert "order 17" in out

    code, out, _ = run(capsys, "weakkey", "--h", "ff" * 16, "--max-order", "1000")
    assert code == 0
    assert "order none" in out


def test_incsets(capsys):
    code, out, _ = run(capsys, "incsets", "--width", "8", "--rmax", "255")
    assert code == 0
    assert "w_max 8" in out
    assert "w[0] 1" in out


@pytest.mark.parametrize("width", range(1, 11))
def test_incsets_lines_match_the_exhaustive_sets(capsys, width):
    for rmax in (0, (1 << width) - 1, (2 << width) + 3):
        table = gfref.compute_inc_sets(width, rmax)
        expect = [f"width {width} rmax {rmax}", f"w_max {table.w_max}"]
        expect += [f"w[{r}] {w}" for r, w in enumerate(table.w_cardinalities)]
        code, out, _ = run(capsys, "incsets", "--width", str(width), "--rmax", str(rmax))
        assert code == 0 and out.splitlines() == expect


def test_incsets_width32(capsys):
    frozen = json.loads((Path(__file__).parent / "vectors" / "w32.json").read_text())[0]
    code, out, _ = run(capsys, "incsets", "--width", "32", "--rmax", str(frozen["rmax"]))
    assert code == 0
    expect = [f"width 32 rmax {frozen['rmax']}", f"w_max {frozen['w_max_observed']}"]
    expect += [f"w[{r}] {w}" for r, w in enumerate(frozen["w"])]
    assert out.splitlines() == expect


def test_determinism(capsys):
    _, out1, _ = run(capsys, "attack", "hctr-distinguish", "--trials", "50", "--seed", "9")
    _, out2, _ = run(capsys, "attack", "hctr-distinguish", "--trials", "50", "--seed", "9")
    assert out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["encrypt"])  # missing required arguments
    assert exc.value.code == 2


def test_untabulated_bound_width_is_a_fast_data_error(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "bounds", "--n", "1024")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


_OUT_OF_RANGE_COUNTS = [
    (("attack", "hctr-distinguish", "--trials", "0"), "must be at least 1"),
    (("attack", "hctr-distinguish", "--trials", "-3"), "must be at least 1"),
    (("incsets", "--width", "32", "--rmax", "-1"), "must be at least 0"),
    (("incsets", "--width", "8", "--rmax", "-1"), "must be at least 0"),
    (("weakkey", "--h", "ff" * 16, "--max-order", "-1"), "must be at least 0"),
    (("attack", "hctr-distinguish", "--trials", str((1 << 20) + 1)), "must be at most 1048576"),
    (("bounds", "--len", "0"), "must be at least 1"),
    (("attack", "xcb-cycle", "--order", "1"), "must be at least 2"),
    (("attack", "xcb-cycle", "--order", "0"), "must be at least 2"),
    (("attack", "xcb-cycle", "--order", "-3"), "must be at least 2"),
]


@pytest.mark.parametrize(
    "argv,message", _OUT_OF_RANGE_COUNTS, ids=[f"argv{i}" for i in range(len(_OUT_OF_RANGE_COUNTS))]
)
def test_out_of_range_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("--width", "0"), "must be at least 1"),
    (("--width", "129"), "must be at most 128"),
    (("--width", "32", "--rmax", str((1 << 20) + 1)), "must be at most 1048576"),
])
def test_incsets_ranges_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["incsets", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--q=--"),
    ("attack", "hctr-distinguish", "--trials=--"),
    ("weakkey", "--h=--"),
    ("encrypt", "--mode=xcbv1", "--key=--", "--in=a", "--out=b"),
])
def test_double_dash_as_a_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected one argument" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# The CLI contract over generated argv: exit 0, 1 or 2, never a traceback,
# and an exit-1 diagnostic is one "error:" line.

def _ints(small, *large):
    """Integers near zero, sometimes one of the large values."""
    near = st.integers(min_value=-small, max_value=small)
    return near | st.sampled_from(large) if large else near


_text = st.text(alphabet="0123456789^+-,ab x", max_size=12)
_huge = (99999999999, 10**30)
_orders = st.sampled_from([3, 5, 15, 17, 51]) | _ints(20, 255, (1 << 64) - 1, 641 * 65537)


@st.composite
def _magnitudes(draw):
    terms = draw(st.lists(
        _ints(40, 4096, 4097, *_huge).map(lambda k: f"2^{k}") | _ints(5, 1 << 70).map(str),
        min_size=1, max_size=3,
    ))
    return draw(st.sampled_from(["+".join(terms)] * 3 + [draw(_text)]))


_attack_values = {
    "--trials": st.integers(min_value=-1, max_value=20) | st.just((1 << 20) + 1),
    "--seed": _ints(1000, 1 << 80),
    "--order": _orders,
    "--mode": st.sampled_from(sorted(modes.MODES)),
    "--swap": st.builds(
        "{},{}".format, _ints(40, 100000000, *_huge), _ints(60, 100000000, *_huge)
    ) | _text,
}


@st.composite
def _attack(draw):
    """An attack with some of its own options; in a quarter of the draws
    also a foreign option, and in a quarter some options before the
    attack's name.  Either one is a usage error."""
    name = draw(st.sampled_from(sorted(_ATTACK_OPTIONS)))
    own = _ATTACK_OPTIONS[name]
    options = draw(st.lists(st.sampled_from(own), unique=True))
    foreign = sorted(set(_attack_values) - set(own))
    options += draw(_mostly(st.just([]), st.lists(st.sampled_from(foreign), min_size=1, max_size=1)))
    args = draw(st.permutations([f"{option}={draw(_attack_values[option])}" for option in options]))
    before = draw(_mostly(st.just(0), st.integers(min_value=0, max_value=len(args))))
    return ["attack", *args[:before], name, *args[before:]]


def _misplaced_or_foreign(argv):
    """Whether an ``attack`` argv puts an option before the attack's name,
    or gives one that the attack does not read."""
    own = _ATTACK_OPTIONS.get(argv[1])
    return own is None or any(arg.split("=")[0] not in own for arg in argv[2:])


_bounds = st.builds(
    lambda q, sigma, ell, n: ["bounds", f"--q={q}", f"--sigma={sigma}", f"--len={ell}", f"--n={n}"],
    _magnitudes(),
    _magnitudes(),
    st.integers(min_value=-1, max_value=300) | st.just(1 << 90),
    st.sampled_from([64, 128]) | _ints(1, 256),
)

_weakkey = st.builds(
    lambda h, max_order: ["weakkey", f"--h={h}", f"--max-order={max_order}"],
    st.binary(min_size=15, max_size=17).map(bytes.hex) | _text,
    _ints(300, 1 << 20, 1 << 130),
)

_incsets = st.builds(
    lambda width, rmax: ["incsets", f"--width={width}", f"--rmax={rmax}"],
    st.sampled_from([-1, 0, 1, 2, 5, 8, 10, 17, 33, 64, 128, 129]), _ints(64, (1 << 20) + 1),
) | st.builds(
    lambda rmax: ["incsets", "--width=32", f"--rmax={rmax}"],
    st.integers(min_value=-2, max_value=1024) | st.just((1 << 20) + 1),
)


def _mostly(good, bad):
    """Draws from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from([good] * 3 + [bad]).flatmap(lambda strategy: strategy)


# Input and output paths are placeholders under "{dir}", a fresh temporary
# directory per example holding the drawn input as "in": a missing input, an
# output that is a directory, and the good case.  Keys, tweaks and paths are
# mostly well formed, so that the drawn payload and flag decide the outcome.
@st.composite
def _crypt(draw):
    mode = draw(st.sampled_from(sorted(modes.MODES)))
    good_key = "5a" * (32 if mode.startswith("hctr") else 16)
    key = draw(_mostly(st.just(good_key), st.binary(max_size=33).map(bytes.hex) | _text))
    tweak = draw(_mostly(st.binary(max_size=40).map(bytes.hex), _text))
    source = draw(_mostly(st.just("{dir}/in"), st.just("{dir}/missing")))
    target = draw(_mostly(st.just("{dir}/out"), st.just("{dir}")))
    partial = ["--allow-insecure-partial"] if draw(st.booleans()) else []
    return [
        draw(st.sampled_from(["encrypt", "decrypt"])), f"--mode={mode}", f"--key={key}",
        f"--tweak={tweak}", f"--in={source}", f"--out={target}", *partial,
    ]


_payloads = st.integers(min_value=0, max_value=40).flatmap(lambda n: st.binary(min_size=n, max_size=n))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_attack() | _bounds | _weakkey | _incsets | _crypt(), _payloads)
def test_cli_contract(argv, payload):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in").write_bytes(payload)
        code, err = _run_captured([arg.replace("{dir}", tmp) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if argv[0] == "attack" and _misplaced_or_foreign(argv):
        assert code == 2
    if code == 1 and err:
        assert err.startswith("error:") and err.count("\n") == 1
