"""Self-tests of the benchmark: the tracer, replay under tracing, the
known-answer gate and the declared metrics.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402

wb = common.import_wideblock()


def _bindings():
    """(namespace, attribute, original) for every binding of a public
    callable of a layer module: its definition, every module-level copy,
    and every public method or operator of its public classes."""
    functions = {}
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"wideblock.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[id(obj)] = obj
            elif inspect.isclass(obj):
                for attr, desc in vars(obj).items():
                    public = not attr.startswith("_") or attr in ("__init__", "__add__", "__xor__", "__mul__")
                    if public and (inspect.isfunction(desc) or isinstance(desc, (classmethod, staticmethod))):
                        out.append((obj, attr, desc))
    for name, module in list(sys.modules.items()):
        if name == "wideblock" or name.startswith("wideblock."):
            out += [(module, attr, v) for attr, v in vars(module).items() if id(v) in functions]
    return out


def _function(desc):
    return desc.__func__ if isinstance(desc, (classmethod, staticmethod)) else desc


def test_every_public_callable_is_wrapped_where_bound_and_restored():
    bindings = _bindings()
    assert {type(owner).__name__ for owner, _, _ in bindings} == {"module", "type"}
    copies = [(o, a) for o, a, v in bindings if inspect.ismodule(o) and o.__name__ != _function(v).__module__]
    assert (wb.modes, "xcb_hash") in copies and (wb, "derive_keys_v1") in copies

    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, original in bindings:
            current = vars(owner)[attr]
            assert current is not original, f"{owner.__name__}.{attr} is not wrapped"
            assert _function(current).__traced__ is _function(original)
        keys = wb.derive_keys_v1(bytes(range(16)))
        wb.modes.xcb_encrypt(wb.modes.XCBV1, keys, wb.BitString(b"t"), wb.BitString(bytes(64)))
    finally:
        tracer.uninstall()
    for owner, attr, original in bindings:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"

    assert tracer.calls["modes.derive_keys_v1"] == 1
    assert tracer.calls["modes.xcb_encrypt"] == 1
    assert tracer.calls["polyhash.xcb_hash"] == 2  # through modes' own copy
    assert tracer.units["polyhash.blocks"] == 2 * (3 + 1 + 1)
    assert tracer.calls["field.mul"] == 10
    assert tracer.prefix_self_s("polyhash.") > 0


@pytest.mark.parametrize("name", ["sector-4k", "attack-demo", "wide-cli", "incsets-w32"])
def test_traced_round_gives_the_untraced_outputs(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.WideCli, "FILE", 4096)
    monkeypatch.setattr(workloads.IncsetsW32, "RMAX", 64)
    workload = workloads.WORKLOADS[name](wb, 7, tmp_path, lambda line: None)
    if name == "incsets-w32":
        frozen = wb.analysis.sample_w32(64)
        workload.frozen = {"w_max_observed": frozen.w_max_observed, "w": [frozen.w_cardinalities[r] for r in range(65)]}
    else:
        workload.setup()
    untraced = run.measure(workload, iter([workload.make_round()]), 0, keep_rounds=True)
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        traced = run.measure(workload, iter(untraced.kept), 0)
    finally:
        tracer.uninstall()
    assert untraced.failed == traced.failed == 0, untraced.errors + traced.errors
    assert traced.digest.hexdigest() == untraced.digest.hexdigest()
    assert sum(tracer.calls.values()) > 0


def _checkout_copy(dest: Path, with_src: bool) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".work-*", "tests")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    shutil.copy(BENCH.parent / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(common.SRC, dest / "src", ignore=ignore)
    return dest


def _run(checkout: Path) -> subprocess.CompletedProcess:
    argv = ["bench/run.py", "--workload", "incsets-w32", "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True, timeout=170)


def test_corrupted_known_answer_digest_fails_the_run(tmp_path):
    checkout = _checkout_copy(tmp_path, with_src=True)
    digests = checkout / "bench" / "kat_digests.json"
    frozen = json.loads(digests.read_text())
    frozen["hctr"] = "0" * 64
    digests.write_text(json.dumps(frozen))
    proc = _run(checkout)
    assert proc.returncode == 1
    assert "known-answer gate: hctr" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_run_without_the_package_fails(tmp_path):
    proc = _run(_checkout_copy(tmp_path, with_src=False))
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_benchmark_json_declares_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
