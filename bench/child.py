"""One measured child process: set up, run one workload body, check it.

`run.py` starts a fresh one of these for every sample, one at a time,
so each sample pays its own import and set-up and has its own peak
RSS. The body is the workload's `mcusim run` invocations made through
`mcusim.cli.main(argv)` in this process. Modes:

    verify  full correctness checks; writes the expectations that later
            children compare against (stdout lines, output hashes,
            simulated cycles). It is also the warm-up child.
    timed   end-to-end sample: set-up seconds, body seconds, RSS, and
            the host-speed probe (`probe_s`) taken before and after.
    traced  the same body with the simulator's entry points wrapped, to
            time and count each layer (see `Tracer`).

The last stdout line is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

import checks
from workloads import check_loop_rom, invocations, sources

perf_counter = time.perf_counter

# Iterations of the host-speed probe: about 20 ms on an idle host.
PROBE_LOOPS = 150_000


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def probe_s() -> float:
    """Seconds for a fixed pure-Python loop: a reading of how fast the
    shared host runs this interpreter right now."""
    t0 = perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = (i, acc)
    return perf_counter() - t0


def setup(root: str, workload: str, work: str, after_import=None):
    """Import mcusim from the checkout, load the packaged config, and
    assemble, write and parse the workload's ROMs. Returns the package
    and the set-up seconds, counted from before the import."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import mcusim
    import mcusim.cli
    if not os.path.abspath(mcusim.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported mcusim from {mcusim.__file__}, "
                           f"not from {src}")
    if after_import is not None:
        after_import(mcusim)
    mcusim.default_config()
    roms = os.path.join(work, "roms")
    os.makedirs(roms, exist_ok=True)
    for name, path in sources(workload, work):
        if path:
            with open(path) as fh:
                text = fh.read()
        else:
            import importlib.resources
            text = (importlib.resources.files("mcusim")
                    .joinpath("data", "benchmark.asm").read_text())
        image, _ = mcusim.assemble(text)
        rom_text = mcusim.format_rom_file(image)
        with open(os.path.join(roms, name + ".rom"), "w") as fh:
            fh.write(rom_text)
        if mcusim.parse_rom_file(rom_text) != image:
            raise RuntimeError(f"{name}: ROM file does not round-trip")
    return mcusim, perf_counter() - t0


def run_body(cli, invs: list[dict]) -> tuple[float, list[tuple[int, str]]]:
    """Make each invocation; return the body seconds and, per invocation,
    the exit code and captured stdout plus stderr."""
    results = []
    t0 = perf_counter()
    for inv in invs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(inv["argv"])
            except SystemExit as exc:
                code = exc.code
        results.append((code, buf.getvalue()))
    return perf_counter() - t0, results


class Tracer:
    """Times and counts the simulator's layers from outside.

    Span layers are whole calls into a module's entry points; each gets
    its self time, that is its duration minus the spans and per-cycle
    calls nested inside it. Leaf layers are the per-cycle functions the
    core reaches; each gets a call count and its total time. The leaf
    functions do not call one another. A name the code no longer has,
    or no longer calls, reports zero.
    """

    # (module, attribute, layer); a dotted attribute is Class.method.
    SPANS = (
        ("mcusim.config", "default_config", "config.load"),
        ("mcusim.config", "SimConfig.power_config", "config.power_config"),
        ("mcusim.asm", "assemble", "asm.assemble"),
        ("mcusim.asm", "parse_rom_file", "asm.parse_rom"),
        ("mcusim.cli", "build_parser", "cli.build_parser"),
        ("mcusim.cli", "_parse_injections", "cli.parse_injections"),
        ("mcusim.machine", "Machine.__init__", "machine.init"),
        ("mcusim.machine", "Machine.reset", "machine.init"),
        ("mcusim.machine", "Machine.run", "machine.run"),
        ("mcusim.power", "ActivityTrace.from_records", "power.activity"),
        ("mcusim.power", "estimate", "power.estimate"),
        ("mcusim.cli", "_write_trace", "cli.write_trace"),
        ("mcusim.cli", "_write_io_log", "cli.write_io_log"),
        ("mcusim.cli", "_write_report", "cli.write_report"),
    )
    LEAVES = (
        ("mcusim.isa", "decode", "isa.decode"),
        ("mcusim.control", "next_state", "control.next_state"),
        ("mcusim.control", "GatingPolicy.enables", "control.enables"),
        ("mcusim.peripherals", "Uart.tick", "peripherals.uart_tick"),
    )
    WRITTEN_BYTES = ("cli.write_trace", "cli.write_io_log")

    def __init__(self):
        self.stack = [0.0]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.leaves = {layer: [0, 0.0] for _, _, layer in self.LEAVES}
        self.written = defaultdict(int)
        self.rss_delta = 0
        self.machines = []

    def reset(self) -> None:
        """Zero every figure in place; the installed wrappers keep theirs."""
        self.stack[:] = [0.0]
        self.self_s.clear()
        self.calls.clear()
        for stat in self.leaves.values():
            stat[:] = [0, 0.0]
        self.written.clear()
        self.rss_delta = 0
        self.machines.clear()

    def install(self, _package) -> None:
        for module, attr, layer in self.SPANS:
            self._patch(module, attr, lambda fn, layer=layer:
                        self._span(layer, fn))
        for module, attr, layer in self.LEAVES:
            self._patch(module, attr, lambda fn, layer=layer:
                        self._leaf(layer, fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = sys.modules.get(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(make(raw.__func__)))
            elif raw is not None:
                setattr(cls, method, make(raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "mcusim" or name.startswith("mcusim."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _span(self, layer: str, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            rss0 = peak_rss_bytes() if layer == "machine.run" else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[layer] += 1
                if layer == "machine.run":
                    self.machines.append(args[0])
                    self.rss_delta = max(self.rss_delta,
                                         peak_rss_bytes() - rss0)
                elif layer in self.WRITTEN_BYTES:
                    self.written[layer] += os.path.getsize(args[0])
        return wrapper

    def _leaf(self, layer: str, fn):
        stat, stack = self.leaves[layer], self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stat[0] += 1
            stat[1] += dt
            stack[-1] += dt
            return result
        return wrapper

    def layers(self) -> dict[str, float]:
        """Per-layer metrics, named `<module>.<what>`."""
        out = {f"{layer}_s": self.self_s[layer]
               for layer in {layer for _, _, layer in self.SPANS}}
        for layer, (count, secs) in self.leaves.items():
            out[f"{layer}_calls"] = count
            out[f"{layer}_s"] = secs
        for layer in self.WRITTEN_BYTES:
            out[f"{layer}_bytes"] = self.written[layer]
        out["power.estimate_calls"] = self.calls["power.estimate"]
        out["machine.rss_delta_bytes"] = self.rss_delta
        out["machine.cycles"] = sum(m.cycles for m in self.machines)
        out["machine.instructions"] = sum(
            _instructions(m) for m in self.machines)
        return out

    def layer_sum(self) -> float:
        return (sum(self.self_s.values())
                + sum(secs for _, secs in self.leaves.values()))


def _instructions(machine) -> int:
    """Instructions retired: execute-state cycles in the run's records."""
    return sum(r.fsm_state == "execute" for r in machine.records)


def heap_growth(cli, invs: list[dict]) -> tuple[int, list[tuple[int, str]]]:
    """Makes the invocations again with the Python heap traced. Returns
    the largest growth of the traced heap during one invocation, in
    bytes, and the results. Call it after a first pass, so that no
    invocation pays for one-time imports and caches."""
    tracemalloc.start()
    growth, results = 0, []
    try:
        for inv in invs:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results += run_body(cli, [inv])[1]
            growth = max(growth, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return growth, results


def verify(root, args, invs, results, work) -> tuple[list[str], dict]:
    """Full checks; returns problems and the per-invocation expectations."""
    problems, expect = [], {}
    key = checks.pins_key(args.workload, args.seed, args.budget)
    pins = {} if args.no_pins else checks.load_pins()
    if key is not None and not args.no_pins and key not in pins:
        problems.append(f"no pinned hashes for {key}")
    for inv, (code, text) in zip(invs, results):
        name = inv["name"]
        line = text.strip()
        if code != 0:
            problems.append(f"{name}: exit {code}: {line}")
            continue
        entry = {"line": line}
        if inv["outputs"]:
            problems += checks.check_outputs(root, inv, line, args.out)
            if args.workload == "reference":
                problems += checks.check_reference_figures(inv, line,
                                                           args.out)
            entry["hashes"] = checks.output_hashes(args.out, name)
            entry["cycles"] = checks.report_cycles(
                os.path.join(args.out, name + ".report.txt"))
            if key in pins:
                problems += [f"{fname}: sha256 differs from the pin"
                             for fname, digest in entry["hashes"].items()
                             if pins[key].get(fname) != digest]
        expect[name] = entry
    if args.workload != "reference":
        with open(os.path.join(work, "roms", "loop.rom")) as fh:
            problems += check_loop_rom([int(w, 16) for w in fh.read().split()])
        plain, traced = expect.pop("plain"), expect["loop"]
        if plain["line"] != traced["line"]:
            problems.append(f"long_loop prints {plain['line']!r} but "
                            f"long_loop_traced prints {traced['line']!r}")
        if traced["cycles"] != args.budget:
            problems.append(f"loop ran {traced['cycles']} cycles, "
                            f"not its {args.budget}-cycle budget")
        if args.workload == "long_loop":
            expect["loop"] = {"line": traced["line"],
                              "cycles": traced["cycles"]}
    return problems, expect


def compare(invs, results, expect, out) -> int:
    """Failed invocations against the verified expectations."""
    failed = 0
    for inv, (code, text) in zip(invs, results):
        want = expect[inv["name"]]
        ok = code == 0 and text.strip() == want["line"]
        if ok and inv["outputs"]:
            ok = checks.output_hashes(out, inv["name"]) == want["hashes"]
        failed += not ok
    return failed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("verify", "timed", "traced"))
    parser.add_argument("--no-pins", action="store_true",
                        help="skip the pinned-hash check (to write pins)")
    args = parser.parse_args()

    tracer = Tracer() if args.mode == "traced" else None
    probe_before = probe_s()
    mcusim, setup_s = setup(args.root, args.workload, args.work,
                            tracer.install if tracer else None)
    rss_setup = peak_rss_bytes()
    invs = invocations(args.workload, args.seed, args.budget, args.work,
                       args.out)
    if args.mode == "verify" and args.workload != "reference":
        plain = invocations("long_loop", args.seed, args.budget, args.work,
                            args.out)[0]
        invs = [dict(plain, name="plain")] + invocations(
            "long_loop_traced", args.seed, args.budget, args.work, args.out)
    assemble_s = 0.0
    if tracer:
        assemble_s = tracer.self_s["asm.assemble"]
        tracer.reset()
    wall_s, results = run_body(mcusim.cli, invs)
    peak_rss = peak_rss_bytes()

    result = {"ops": len(invs), "probe_s": (probe_before + probe_s()) / 2}
    if args.mode == "verify":
        problems, expect = verify(args.root, args, invs, results, args.work)
        with open(os.path.join(args.work, "expect.json"), "w") as fh:
            json.dump(expect, fh)
        result.update(failed=len(invs) if problems else 0, problems=problems,
                      hashes={k: v.get("hashes") for k, v in expect.items()})
        if args.workload == "reference" and not problems:
            # One reference run grows the RSS by less than one allocator
            # step, so its memory per cycle is taken from the traced heap.
            growth, again = heap_growth(mcusim.cli, invs)
            result["ops"] += len(invs)
            result["failed"] += compare(invs, again, expect, args.out)
            result["heap_bytes_per_cycle"] = growth / max(
                expect[inv["name"]]["cycles"] for inv in invs)
    else:
        with open(os.path.join(args.work, "expect.json")) as fh:
            expect = json.load(fh)
        cycles = [expect[inv["name"]]["cycles"] for inv in invs]
        result.update(failed=compare(invs, results, expect, args.out),
                      setup_s=setup_s, wall_s=wall_s, cycles=sum(cycles),
                      max_cycles=max(cycles), rss_setup=rss_setup,
                      peak_rss=peak_rss)
    if tracer:
        layers = tracer.layers()
        layers["asm.assemble_s"] = assemble_s
        result.update(layers=layers, layer_sum=tracer.layer_sum())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
