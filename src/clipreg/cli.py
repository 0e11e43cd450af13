"""Batch front door: decompose / adversary / sweep / zoo / verify subcommands.

All randomness comes from config seeds, so two runs with the same config
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from clipreg.config import REPORT_SHAPE, ConfigError, RunConfig, load_config, owned
from clipreg.netcore import DomainSpec, NetError
from clipreg.measure import MeasureError, build_quadrature
from clipreg.adversary import _CHUNK, ascend
from clipreg.decomposer import DecomposeError, certify_split, decompose
from clipreg.zoo import ZOO, zoo

TRACE_HEADER = ["k", "t_after", "lambda", "gain"]
SWEEP_HEADER = ["n", "m_prime", "residual_l2_sq", "audit_value"]


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")


def _write_trace_csv(path, report) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for p in report.trace.picks:
            writer.writerow([p.k, _fmt(p.t_after), _fmt(p.lam), _fmt(p.gain)])


def _setup(cfg: RunConfig, domain: DomainSpec):
    quad = owned("quadrature.", build_quadrature, domain, cfg.quadrature.scheme,
                 cfg.quadrature.size, cfg.quadrature.seed)
    target = owned("target.", zoo, cfg.target.name, cfg.target.params, domain)
    return quad, target, replace(cfg.dict_spec, domain=domain)


def _print_verdict(verdict) -> int:
    """Print each check of a `certify_split` verdict, with the detail of a
    failed one on stderr; returns the exit code, 0 when all passed, else 1."""
    for item in verdict["details"]:
        print(f"{item['check']}: {'ok' if item['ok'] else 'FAILED'}")
        if not item["ok"]:
            print(f"  {item['detail']}", file=sys.stderr)
    return 0 if verdict["ok"] else 1


def run_decompose(cfg: RunConfig, threads: int = 1, domain: DomainSpec | None = None):
    domain = domain or cfg.domain
    quad, target, spec = _setup(cfg, domain)
    echo = cfg.echo()
    echo["domain"]["n"] = domain.n
    return quad, target, owned(
        "", decompose, quad, spec, target, cfg.epsilon, cfg.budget, cfg.solver_seed,
        stage_dict=cfg.stage_dict, threads=threads, config_echo=echo)


def cmd_decompose(args) -> int:
    cfg = load_config(args.config)
    quad, target, report = run_decompose(cfg, threads=args.threads)
    written = report.to_dict()
    _write_json(cfg.output.report, written)
    _write_trace_csv(cfg.output.trace, report)
    _write_json(cfg.output.witness, report.audit["result"].to_dict())
    print(f"wrote {cfg.output.report}, {cfg.output.trace}, {cfg.output.witness} "
          f"(m'={report.m_prime}/{report.m_budget}, "
          f"residual_l2_sq={report.residual_l2_sq:.6g})")
    if args.verify:
        return _print_verdict(certify_split(written, quad, target, cfg.epsilon, cfg.dict_spec))
    return 0


def cmd_adversary(args) -> int:
    cfg = load_config(args.config)
    quad, target, spec = _setup(cfg, cfg.domain)
    result = ascend(quad, spec, target, cfg.budget, cfg.solver_seed, threads=args.threads)
    _write_json(cfg.output.report, result.to_dict())
    print(f"wrote {cfg.output.report} (value={result.value:.6g}, lower bound)")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        domains = [DomainSpec(n=int(tok), q=cfg.domain.q) for tok in args.n.split(",") if tok]
    except NetError as e:  # before ValueError, which it extends
        print(f"error: --n: {e}", file=sys.stderr)
        return 2
    except ValueError:
        print(f"error: --n expects a comma-separated integer list, got {args.n!r}",
              file=sys.stderr)
        return 2
    rows = []
    for domain in domains:
        _, _, report = run_decompose(cfg, threads=args.threads, domain=domain)
        rows.append([domain.n, report.m_prime, _fmt(report.residual_l2_sq),
                     _fmt(report.audit["result"].value)])
        print(f"n={domain.n}: m'={report.m_prime}/{report.m_budget}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


def cmd_zoo(args) -> int:
    for name in sorted(ZOO):
        print(f"{name}: {ZOO[name][1]}")
    return 0


def _malformed_report(path, what) -> int:
    print(f"error: report {path}: {what}", file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    try:
        with open(args.report) as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            return _malformed_report(args.report, "not a JSON object")
        REPORT_SHAPE(report, "")
    except json.JSONDecodeError as e:
        return _malformed_report(args.report, f"invalid JSON: {e}")
    except ConfigError as e:  # from REPORT_SHAPE
        return _malformed_report(args.report, f"field {e.field_name!r}: {e.detail}")
    quad, target, _ = _setup(cfg, cfg.domain)
    try:
        verdict = certify_split(report, quad, target, cfg.epsilon, cfg.dict_spec)
    except DecomposeError as e:  # a well-typed field out of range
        return _malformed_report(args.report, f"field {e.param!r}: {e}")
    return _print_verdict(verdict)


def _threads(text: str) -> int:
    # a witness search runs its restarts in chunks of _CHUNK on a thread pool
    # of this many workers, so a search of at most _CHUNK restarts runs on one
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


_THREADS_HELP = (f"worker threads for each witness search; only searches of more than "
                 f"{_CHUNK} restarts are split across them")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clipreg",
        description="Decompose bounded functions on [-1,1]^n into a small "
                    "clipped network plus a near-invisible residual.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run the energy-increment decomposition")
    p.add_argument("--config", required=True)
    p.add_argument("--verify", action="store_true", help="re-verify the report after the run")
    p.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("adversary", help="witness search against the configured target")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("sweep", help="repeat the decomposition over input dimensions")
    p.add_argument("--config", required=True)
    p.add_argument("--n", required=True, help="comma-separated dimensions, e.g. 2,4,8,16")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("zoo", help="target zoo utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=cmd_zoo)

    p = sub.add_parser("verify", help="re-verify an emitted report")
    p.add_argument("--report", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeasureError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
