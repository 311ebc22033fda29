"""Per-layer tracing of ``wideblock`` from outside its source.

``Tracer.install`` wraps every public function and method of the eight
layer modules and rebinds every copy of those functions that any
``wideblock`` module imported (``modes`` holds its own ``xcb_hash``, the
package re-exports the key derivations).  ``uninstall`` puts every original
back.  Classes are patched in place, so no copy of a class needs rebinding.
Properties and dunders other than construction and the operators are left
alone.

Two kinds of wrapper:

* a *span* times the call and keeps a stack, so each call's self time is
  its duration minus the time its child spans covered;
* a *leaf* only counts calls.  Leaves are the per-element calls (field
  arithmetic, per-block conversions, ``BitString`` construction): timing
  each would cost a large share of the call itself, so their time lands in
  the enclosing span (``field.mul`` inside ``xcb_hash`` is hash time).

Some spans also meter their arguments or result (blocks hashed, blocks
enciphered, oracle queries, offsets enumerated) and add their duration to a
tag, which gives the throughput of one boundary (``polyhash.hash``,
``modes.<mode>``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("field", "polyhash", "ctr", "blockcipher", "modes", "attacks", "analysis", "cli")

#: Dunder methods that are part of a class's public behaviour: construction
#: and the arithmetic/concatenation operators.
OPERATORS = ("__init__", "__add__", "__xor__", "__mul__")

LEAF_FUNCTIONS = frozenset(
    {
        "field.add",
        "field.mul",
        "field.square",
        "polyhash.pad",
        "polyhash.block_to_field",
        "polyhash.field_to_block",
        "polyhash.xcb_length_block",
        "polyhash.BitString.__init__",
    }
)
LEAF_CLASSES = frozenset({"field.FieldElement"})

BITSTRING_PREFIX = "polyhash.BitString."


def _blocks(bits: int) -> int:
    return -(-bits // 128)


def public_callables(module, layer: str):
    """(key, owner, attribute, descriptor) for every public function of the
    module and every public method, classmethod, staticmethod and operator
    of its public classes."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, desc in sorted(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                if isinstance(desc, (classmethod, staticmethod)) or inspect.isfunction(desc):
                    yield f"{layer}.{name}.{attr}", obj, attr, desc


class Tracer:
    """Call counts, self time, tagged time and unit counters of one traced
    region.  Not thread-safe: the benchmark runs one client thread."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.tag_s: defaultdict = defaultdict(float)
        self.units: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._meters = {
            "polyhash.xcb_hash": (self._meter_xcb_hash, None),
            "polyhash.hctr_hash": (self._meter_hctr_hash, None),
            "ctr.xcb_ctr": (self._meter_ctr, None),
            "ctr.xor_ctr": (self._meter_ctr, None),
            "blockcipher.AesCipher.encrypt_block": (self._meter_single_block, None),
            "blockcipher.AesCipher.decrypt_block": (self._meter_single_block, None),
            "blockcipher.AesCipher.encrypt_blocks": (self._meter_ecb, None),
            "blockcipher.AesCipher.__init__": (self._meter_key_setup, None),
            "blockcipher.FeistelCipher.__init__": (self._meter_key_setup, None),
            "modes.xcb_encrypt": (self._meter_xcb_mode, None),
            "modes.xcb_decrypt": (self._meter_xcb_mode, None),
            "modes.hctr_encrypt": (self._meter_hctr_mode, None),
            "modes.hctr_decrypt": (self._meter_hctr_mode, None),
            "modes.derive_keys_v1": (self._tag_derive, None),
            "modes.derive_keys_v2": (self._tag_derive, None),
            "modes.hctr_keys": (self._tag_derive, None),
            "attacks.HctrOracle.encrypt": (self._meter_query, None),
            "attacks.IdealPermutationOracle.encrypt": (self._meter_query, None),
            "attacks.hctr_distinguish": (None, self._after_report),
            "attacks.hctr_recover_h": (None, self._after_recover),
            "attacks.weak_key_scan": (None, self._after_report),
            "analysis.carry_class_offsets": (None, self._after_offsets),
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wideblock.{layer}")
            for key, owner, attr, desc in public_callables(module, layer):
                leaf = key in LEAF_FUNCTIONS or key.rsplit(".", 1)[0] in LEAF_CLASSES
                if isinstance(desc, (classmethod, staticmethod)):
                    wrapped = type(desc)(self._wrap(key, desc.__func__, leaf))
                    replaced[id(desc.__func__)] = wrapped.__func__
                else:
                    wrapped = self._wrap(key, desc, leaf)
                    replaced[id(desc)] = wrapped
                self._patch(owner, attr, wrapped)
        # Rebind the copies other modules imported (from .x import f).
        modules = [m for n, m in list(sys.modules.items()) if n == "wideblock" or n.startswith("wideblock.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and inspect.isfunction(value) and value is not wrapper:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn, leaf: bool):
        calls = self.calls
        if leaf:

            @functools.wraps(fn)
            def count(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            count.__traced__ = fn
            return count

        stack = self._stack
        self_s = self.self_s
        tag_s = self.tag_s
        clock = time.perf_counter
        before, after = self._meters.get(key, (None, None))
        signature = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tag = None
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = before(bound.arguments)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if tag is not None:
                    tag_s[tag] += duration
            if after is not None:
                after(result)
            return result

        span.__traced__ = fn
        return span

    # -- meters -----------------------------------------------------------

    def _meter_xcb_hash(self, a) -> str:
        self.units["polyhash.blocks"] += (
            _blocks(a["x"].bitlen) + _blocks(a["t"].bitlen) + bool(a["include_length"])
        )
        return "polyhash.hash"

    def _meter_hctr_hash(self, a) -> str:
        bits = a["p"].bitlen
        self.units["polyhash.blocks"] += _blocks(bits) + 1 if bits else 0
        return "polyhash.hash"

    def _meter_ctr(self, a) -> str:
        self.units["ctr.blocks"] += _blocks(a["data"].bitlen)
        self.units["ctr.bits"] += a["data"].bitlen
        return "ctr.keystream"

    def _meter_single_block(self, a) -> str:
        self.units["blockcipher.blocks"] += 1
        self.units["blockcipher.single_block_calls"] += 1
        return "blockcipher.aes"

    def _meter_ecb(self, a) -> str:
        self.units["blockcipher.blocks"] += len(a["data"]) // 16
        return "blockcipher.aes"

    def _meter_key_setup(self, a) -> None:
        self.units["blockcipher.key_setups"] += 1

    def _meter_xcb_mode(self, a) -> str:
        name = a["variant"].name
        self.units[f"modes.{name}.bits"] += a["payload"].bitlen
        return f"modes.{name}"

    def _meter_hctr_mode(self, a) -> str:
        name = "hctr-fix" if a["fixed_hash"] else "hctr"
        self.units[f"modes.{name}.bits"] += a["payload"].bitlen
        return f"modes.{name}"

    def _tag_derive(self, a) -> str:
        return "modes.derive"

    def _meter_query(self, a) -> None:
        self.units["attacks.oracle_queries"] += 1

    def _after_report(self, report) -> None:
        self.units["attacks.successes"] += report.successes

    def _after_recover(self, report) -> None:
        self._after_report(report)
        self.units["attacks.recover.attempts"] += report.trials
        self.units["attacks.recover.runs"] += 1

    def _after_offsets(self, offsets) -> None:
        self.units["analysis.offsets_enumerated"] += len(offsets)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "tag_s": dict(self.tag_s),
            "units": dict(self.units),
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process (a traced CLI child)."""
        self.calls.update(snap["calls"])
        self.units.update(snap["units"])
        for name, value in snap["self_s"].items():
            self.self_s[name] += value
        for name, value in snap["tag_s"].items():
            self.tag_s[name] += value

    def prefix_calls(self, prefix: str) -> int:
        return sum(n for k, n in self.calls.items() if k.startswith(prefix))

    def prefix_self_s(self, prefix: str) -> float:
        return sum(s for k, s in self.self_s.items() if k.startswith(prefix))
