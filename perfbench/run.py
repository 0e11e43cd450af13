"""Benchmark of clipreg: repeated single decompositions, each checked by replay.

    python3 perfbench/run.py --workload fixed-n2 --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; clipreg is imported from ``src``.
One process drives ``clipreg.cli.main`` in a closed loop of rounds.  A round
is one ``decompose``, a few ``verify`` runs on its report and one
``verify`` of a tampered copy of that report.  Round i decomposes its own
config, whose quadrature and target seeds derive from (--seed, i).  Every
report is replayed by ``replay.py``, which does not use clipreg, and the
verdicts of the ``verify`` runs are compared with that replay.  Rounds start
until --seconds have passed, and at least MIN_ROUNDS run.

--trace 0 prints the end-to-end metrics.  --trace 1 decomposes each round's
config twice, untraced and traced in alternating order, traces the verify
runs, prints the per-layer metrics and the tracing overhead (the median of
the paired differences), and writes the spans to
.perfbench_out/<workload>/spans.jsonl.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  ``correct`` is false when an
output is wrong or an operation other than the tampered verify fails.
Outputs go to .perfbench_out/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import replay
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Every workload uses the (2|1) dictionary, q = 1 and 2^14 Sobol nodes.
# fixed-n2: several picks; each ascent and the audit run as two chunks on two
#   threads and the target costs nothing, so ascent-kernel, pool and loop
#   changes show here.
# grid-n8: the random-grid oracle's per-cell loop dominates, the first layer
#   is 8 wide and the first stage is rejected; oracle and first-layer changes
#   show here, loop changes should not.  It is not in BENCHMARK.json: the
#   per-cell loop runs up to 1.8x slower in the slow phases of a shared VM,
#   which spread its verify_s across runs by up to 0.41 of the median, beyond
#   any bound.  Run it by hand to measure oracle changes.
# growing-n2: stage k searches (2^k | k) nets, so ascents run through 2-3
#   hidden layers up to 8 wide; catches kernels tuned only for narrow layers.
# "verifies" is the number of untampered verify runs per round: a verify at
# n = 2 takes a few milliseconds, so its median needs more samples than the
# 0.7 s verify at n = 8 (whose random-grid target is evaluated again).
WORKLOADS = {
    "fixed-n2": {"n": 2, "target": "sign-product", "epsilon": 0.3, "restarts": 64,
                 "threads": 2, "stage_dict": "fixed", "verifies": 10},
    "grid-n8": {"n": 8, "target": "random-grid", "epsilon": 0.3, "restarts": 32,
                "threads": 1, "stage_dict": "fixed", "verifies": 2},
    "growing-n2": {"n": 2, "target": "sign-product", "epsilon": 0.5, "restarts": 16,
                   "threads": 1, "stage_dict": "growing", "verifies": 10},
}
NODES = 2 ** 14
ITERATIONS = 80
# The solver seed is pinned, not derived from --seed.  The restart starting
# points decide which optimum the search lands in: across solver seeds the
# residual of growing-n2 ranges over 0.13-0.39 and m' over 1-2, so no bound
# could tell a weaker search from another seed.  Across quadrature seeds at
# one solver seed it stays within a few percent.
SOLVER_SEED = 7
MIN_ROUNDS = 3
SETUP_PROBES = 3
TAMPER_FAULT = ("tampered-verify: clipreg verify accepted a report whose pick-1 gain and "
                "lambda were altered (certify_split does not replay gains or lambda)")


def make_config(workload: str, seed: int, round_index: int) -> dict:
    """The clipreg run config of one round; outputs use the default file names."""
    w = WORKLOADS[workload]
    quad_seed, target_seed = (
        int(s) for s in np.random.SeedSequence([seed, round_index]).generate_state(2) % 10**6)
    params = {"k": 2, "seed": target_seed} if w["target"] == "random-grid" else {}
    return {
        "domain": {"n": w["n"], "q": 1.0},
        "dict": {"d": 2, "r": 1},
        "epsilon": w["epsilon"],
        "quadrature": {"scheme": "low-discrepancy", "size": NODES, "seed": quad_seed},
        "solver": {"restarts": w["restarts"], "iterations": ITERATIONS, "step0": 0.5,
                   "decay": 0.97, "seed": SOLVER_SEED},
        "target": {"name": w["target"], "params": params},
        "stage_dict": w["stage_dict"],
    }


def target_values(cfg: dict, X: np.ndarray) -> tuple:
    """Target values at the replay nodes, and problems found with them."""
    if cfg["target"]["name"] == "sign-product":
        return replay.sign_product(X), []
    # random-grid values come from clipreg's hash; only their shape is checked
    from clipreg.netcore import DomainSpec
    from clipreg.zoo import zoo

    oracle = zoo("random-grid", cfg["target"]["params"], DomainSpec(n=X.shape[1], q=1.0))
    fvals = oracle.evaluate(X)
    return fvals, replay.grid_problems(X, fvals, cfg["target"]["params"]["k"])


def tamper(report: dict, cfg: dict) -> dict:
    """A copy whose pick-1 gain and lambda are wrong, with every gain still
    above eps^2 and the trace still monotone.  A report without picks gets a
    pick 1 built from its audit witness instead."""
    out = copy.deepcopy(report)
    eps_sq = cfg["epsilon"] ** 2
    picks = out["trace"]["picks"]
    if picks:
        picks[0]["gain"] += eps_sq
        picks[0]["lambda"] /= 2.0
    else:
        picks.append({"k": 1, "lambda": cfg["domain"]["q"] / 2.0, "gain": 2.0 * eps_sq,
                      "t_after": out["trace"]["t0"],
                      "element": out["audit"]["result"]["witness"]})
    return out


class Bench:
    def __init__(self, cli, workload: str, tracer: tracing.Tracer | None):
        self.cli = cli
        self.workload = workload
        self.verifies = WORKLOADS[workload]["verifies"]
        self.tracer = tracer
        self.attempted = 0
        self.failures = []   # one name per failed operation
        self.problems = []   # wrong outputs of operations that did not fail

    def _main(self, argv, traced: bool):
        """One timed call of clipreg.cli.main; its stdout is discarded.

        Returns the exit code, the wall time and, when traced, the op id of
        the call's spans.
        """
        self.attempted += 1
        root = None
        with contextlib.ExitStack() as ctx:
            if traced:
                ctx.enter_context(self.tracer.installed())
                root = ctx.enter_context(self.tracer.op("cli.main", command=argv[0]))
            ctx.enter_context(contextlib.redirect_stdout(io.StringIO()))
            t = time.perf_counter()
            rc = self.cli.main(argv)
            elapsed = time.perf_counter() - t
        return rc, elapsed, root.op if root else None

    def _skip(self, n: int) -> None:
        self.attempted += n
        self.failures += ["skipped after a failed decompose"] * n

    def round(self, cfg: dict, index: int) -> dict:
        with open("config.json", "w") as fh:
            json.dump(cfg, fh, indent=2)
        traced = self.tracer is not None
        argv = ["decompose", "--config", "config.json",
                "--threads", str(WORKLOADS[self.workload]["threads"])]
        # A traced run decomposes the config untraced and traced, in alternating
        # order, so that the tracing overhead is a paired difference.
        order = ((False, True) if index % 2 == 0 else (True, False)) if traced else (False,)
        dec_s, dec_op, digests = {}, None, set()
        for made, trace_this in enumerate(order, 1):
            rc, dec_s[trace_this], op = self._main(argv, trace_this)
            if rc != 0:
                self.failures.append(f"decompose exited {rc}")
                self._skip(len(order) - made + self.verifies + 1)
                return {}
            dec_op = op or dec_op
            with open("report.json", "rb") as fh:
                digests.add(hashlib.sha256(fh.read()).hexdigest())
        if len(digests) > 1:
            self.problems.append("the traced and the untraced decompose wrote different reports")

        with open("report.json") as fh:
            report = json.load(fh)
        with open("witness.json") as fh:
            witness = json.load(fh)
        with open("trace.csv") as fh:
            trace_text = fh.read()
        X = replay.sobol_nodes(cfg["domain"]["n"], cfg["quadrature"]["size"],
                               cfg["quadrature"]["seed"])
        fvals, problems = target_values(cfg, X)
        problems += replay.check_report(report, witness, cfg, X, fvals)
        problems += replay.check_trace_csv(trace_text, report)
        self.problems += problems

        ver_s, ver_ops = [], []
        for _ in range(self.verifies):
            rc, elapsed, op = self._main(
                ["verify", "--report", "report.json", "--config", "config.json"], traced)
            if rc != 0:
                self.failures.append(f"verify exited {rc} on an untampered report")
            ver_s.append(elapsed)
            ver_ops.append(op)

        bad = tamper(report, cfg)
        if not replay.check_report(bad, bad["audit"]["result"], cfg, X, fvals):
            self.problems.append("replay accepted the tampered report")
        with open("report_tampered.json", "w") as fh:
            json.dump(bad, fh, indent=2)
        rc, _, _ = self._main(
            ["verify", "--report", "report_tampered.json", "--config", "config.json"],
            False)
        if rc == 0:
            self.failures.append(TAMPER_FAULT)
        elif rc != 1:
            self.failures.append(f"tampered verify exited {rc}")

        return {"decompose_s": dec_s[False], "traced_decompose_s": dec_s.get(True),
                "verify_s": ver_s, "residual_l2_sq": report["residual_l2_sq"],
                "m_prime": report["m_prime"], "ops": (dec_op, ver_ops[0])}


def setup_probe(config_path: str) -> tuple:
    """Wall time of a fresh interpreter's set-up, and its phase times."""
    t = time.perf_counter()
    probe = Path(__file__).resolve().with_name("setup_probe.py")
    out = subprocess.run([sys.executable, str(probe), config_path],
                         check=True, capture_output=True, text=True)
    return time.perf_counter() - t, json.loads(out.stdout)


def layer_metrics(spans: list, rnd: dict) -> dict:
    """Per-layer figures of one round (its traced decompose and first verify)."""
    dec_op, ver_op = rnd["ops"]
    dec = [s for s in spans if s.op == dec_op]
    both = dec + [s for s in spans if s.op == ver_op]

    def total(name, among=dec):
        return sum(s.end - s.start for s in among if s.name == name)

    def calls(name, among=dec):
        return sum(1 for s in among if s.name == name)

    ascent = ("adversary.stage_ascend", "adversary.polish", "adversary.audit")
    entry_iters = sum(s.attrs["entry_iters"] for s in dec if s.name in ascent)
    root = next(s for s in dec if s.name == "cli.main")
    self_t = tracing.self_times(dec)
    return {
        "zoo.target_eval_s": total("zoo.target_eval", both),
        "adversary.stage_ascend_s": total("adversary.stage_ascend"),
        "adversary.stage_ascend_calls": calls("adversary.stage_ascend"),
        "adversary.polish_s": total("adversary.polish"),
        "adversary.polish_calls": calls("adversary.polish"),
        "adversary.audit_s": total("adversary.audit"),
        "adversary.entry_iters": entry_iters,
        "adversary.entry_iters_per_s": entry_iters / sum(total(n) for n in ascent),
        "decomposer.decompose_s": total("decomposer.decompose"),
        "decomposer.stage_solve_s": total("decomposer.stage_solve"),
        "decomposer.loop_self_s": self_t.get("decomposer.decompose", 0.0),
        "decomposer.stages_attempted": calls("decomposer.stage_solve"),
        "decomposer.stages_accepted": rnd["m_prime"],
        "decomposer.certify_s": total("decomposer.certify_split", both),
        "netcore.compose_parallel_s": total("netcore.compose_parallel"),
        "netcore.eval_batch_s": total("netcore.eval_batch", both),
        "netcore.eval_batch_calls": calls("netcore.eval_batch", both),
        "cli.io_s": (root.end - root.start) - total("decomposer.decompose"),
        "trace.decompose_s": rnd["traced_decompose_s"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "clipreg").is_dir():
        print(f"error: no clipreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from clipreg import cli

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)

    with open("setup_config.json", "w") as fh:
        json.dump(make_config(args.workload, args.seed, 0), fh)
    probes = [setup_probe("setup_config.json") for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(cli, args.workload, tracer)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        cfg = make_config(args.workload, args.seed, len(rounds))
        rounds.append(bench.round(cfg, len(rounds)))
    done = [r for r in rounds if r]

    if not done:
        values = {}
    elif args.trace:
        tracer.write("spans.jsonl")
        traced = [layer_metrics(tracer.spans, r) for r in done]
        values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        for name in ("setup.import_s", "config.load_config_s", "measure.build_quadrature_s"):
            values[name] = statistics.median(p[1][name] for p in probes)
        values["trace.overhead_s"] = statistics.median(
            r["traced_decompose_s"] - r["decompose_s"] for r in done)
        per_round = [tracing.self_times([s for s in tracer.spans if s.op == r["ops"][0]])
                     for r in done]
        print("self time per span in a traced decompose (median over rounds):",
              file=sys.stderr)
        for name in sorted(per_round[0]):
            v = statistics.median(t.get(name, 0.0) for t in per_round)
            print(f"  {name:28s} {v:9.4f} s", file=sys.stderr)
        # self times partition the root span unless a span escaped it (e.g. one
        # opened in a worker thread); then the layer figures double-count
        for r, t in zip(done, per_round):
            if abs(sum(t.values()) - r["traced_decompose_s"]) > 1e-3:
                print(f"warning: self times sum to {sum(t.values()):.4f} s, the traced "
                      f"decompose took {r['traced_decompose_s']:.4f} s", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(p[0] for p in probes),
            "decompose_s": statistics.median(r["decompose_s"] for r in done),
            "verify_s": statistics.median(t for r in done for t in r["verify_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "residual_l2_sq": statistics.fmean(r["residual_l2_sq"] for r in done),
        }
    # units come from BENCHMARK.json, which lists exactly the metrics of each mode
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if values and set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in sorted(values.items())}

    for fault in sorted(set(bench.failures)):
        print(f"failed {bench.failures.count(fault)} x {fault}", file=sys.stderr)
    for problem in bench.problems:
        print(f"wrong output: {problem}", file=sys.stderr)
    for i, r in enumerate(rounds):
        if r:
            traced_s = r["traced_decompose_s"]
            print(f"round {i}: m'={r['m_prime']} decompose {r['decompose_s']:.3f} s"
                  f"{f' (traced {traced_s:.3f} s)' if traced_s is not None else ''} "
                  f"verify {statistics.median(r['verify_s']):.4f} s "
                  f"residual {r['residual_l2_sq']:.4f}", file=sys.stderr)
    # the tampered verify is the one operation expected to fail
    correct = (bool(done) and not bench.problems
               and all(f == TAMPER_FAULT for f in bench.failures))
    print(json.dumps({"correct": correct,
                      "attempted": bench.attempted, "failed": len(bench.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
