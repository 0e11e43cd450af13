"""Batch front door: decompose / adversary / sweep / zoo / verify subcommands.

All randomness comes from config seeds, so two runs with the same config
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace

from clipreg.config import REPORT_SHAPE, ConfigError, RunConfig, load_config, owned
from clipreg.netcore import DomainSpec
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


def _setup(cfg: RunConfig):
    quad = owned("quadrature.", build_quadrature, cfg.domain, cfg.quadrature.scheme,
                 cfg.quadrature.size, cfg.quadrature.seed)
    return quad, owned("target.", zoo, cfg.target.name, cfg.target.params, cfg.domain)


def run_decompose(cfg: RunConfig, threads: int = 1):
    quad, target = _setup(cfg)
    return quad, target, owned(
        "", decompose, quad, cfg.dict_spec, target, cfg.epsilon, cfg.budget, cfg.solver_seed,
        stage_dict=cfg.stage_dict, threads=threads)


def cmd_decompose(args) -> int:
    cfg = load_config(args.config)
    quad, target, report = run_decompose(cfg, threads=args.threads)
    _write_json(cfg.output.report, {**report.to_dict(), "config_echo": cfg.echo()})
    _write_trace_csv(cfg.output.trace, report)
    _write_json(cfg.output.witness, report.audit.to_dict())
    print(f"wrote {cfg.output.report}, {cfg.output.trace}, {cfg.output.witness} "
          f"(m'={report.m_prime}/{report.m_budget}, "
          f"residual_l2_sq={report.residual_l2_sq:.6g})")
    if args.verify:
        return _verify(cfg, cfg.output.report, quad, target)
    return 0


def cmd_adversary(args) -> int:
    cfg = load_config(args.config)
    quad, target = _setup(cfg)
    result = ascend(quad, cfg.dict_spec, target.values(quad), cfg.budget, cfg.solver_seed,
                    threads=args.threads)
    _write_json(cfg.output.report, result.to_dict())
    print(f"wrote {cfg.output.report} (value={result.value:.6g}, lower bound)")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    # each row is written as its dimension finishes, so a dimension that the
    # config rejects later keeps the rows before it
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for n in args.n:
            run = replace(cfg, dict_spec=replace(cfg.dict_spec,
                                                 domain=DomainSpec(n, cfg.domain.q)))
            _, _, report = run_decompose(run, threads=args.threads)
            writer.writerow([n, report.m_prime, _fmt(report.residual_l2_sq),
                             _fmt(report.audit.value)])
            fh.flush()
            print(f"n={n}: m'={report.m_prime}/{report.m_budget}")
    print(f"wrote {args.out}")
    return 0


def cmd_zoo(args) -> int:
    for name in sorted(ZOO):
        print(f"{name}: {ZOO[name][1]}")
    return 0


def _malformed_report(path, what) -> int:
    print(f"error: report {path}: {what}", file=sys.stderr)
    return 2


def _verify(cfg: RunConfig, path, quad, target) -> int:
    """Print each `certify_split` check of the report file at `path` against
    the run `cfg`, with a failed one's detail on stderr.  Returns 0 when all
    passed, 1 when one failed, 2 when the file or a field that it reads is bad."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        return _malformed_report(path, f"cannot read: {e}")
    except ValueError as e:  # JSONDecodeError, or an integer past int()'s digit limit
        return _malformed_report(path, f"invalid JSON: {e}")
    if not isinstance(report, dict):
        return _malformed_report(path, "not a JSON object")
    try:
        REPORT_SHAPE(report, "")
        verdict = certify_split(report, quad, target, cfg.epsilon, cfg.dict_spec)
    except ConfigError as e:  # from REPORT_SHAPE
        return _malformed_report(path, f"field {e.field_name!r}: {e.detail}")
    except DecomposeError as e:  # a well-typed field out of range
        return _malformed_report(path, f"field {e.param!r}: {e}")
    for item in verdict["details"]:
        print(f"{item['check']}: {'ok' if item['ok'] else 'FAILED'}")
        if not item["ok"]:
            print(f"  {item['detail']}", file=sys.stderr)
    return 0 if verdict["ok"] else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    return _verify(cfg, args.report, *_setup(cfg))


def _threads(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _dims(text: str) -> list:
    try:
        dims = [DomainSpec(int(tok)).n for tok in text.split(",") if tok]
    except ValueError as e:  # int()'s, or DomainSpec's NetError
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of dimensions, got {text!r}: {e}") from e
    if not dims:
        raise argparse.ArgumentTypeError(f"expected at least one dimension, got {text!r}")
    return dims


_THREADS_HELP = (f"threads for each correlation or gain search, the calling thread "
                 f"among them; only searches of more than {_CHUNK} restarts are split "
                 f"across them (in a decomposition stage, while more than {_CHUNK} "
                 f"survive its halvings)")


@functools.cache  # one parser serves every `main` call of a process
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
    p.add_argument("--n", type=_dims, required=True,
                   help="comma-separated dimensions, e.g. 2,4,8,16")
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
    except (ConfigError, MeasureError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
