import random
import time
from types import SimpleNamespace

import pytest

from wideblock import cli, field
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


@pytest.mark.parametrize("mode", ["xcbv1", "xcbv2"])
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


def test_incsets_width32(capsys):
    code, out, _ = run(capsys, "incsets", "--width", "32", "--rmax", "16")
    assert code == 0
    assert "w_max_observed" in out


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


@pytest.mark.parametrize("argv", [
    ("attack", "hctr-distinguish", "--trials", "0"),
    ("attack", "hctr-distinguish", "--trials", "-3"),
    ("incsets", "--width", "32", "--rmax", "-1"),
    ("incsets", "--width", "8", "--rmax", "-1"),
    ("weakkey", "--h", "ff" * 16, "--max-order", "-1"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err
    assert "Traceback" not in err
