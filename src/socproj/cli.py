"""Command-line front end: single solves, convergence sweeps, problem list."""

from __future__ import annotations

import argparse
import dataclasses

from . import bench


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any (N, component) solve fails hard or does not converge",
    )


def _cmd_list_problems(_args) -> int:
    for pid in bench.PROBLEM_IDS:
        print(pid)
    return 0


def _exit_code(strict: bool, reports) -> int:
    """1 under --strict if any row failed hard or did not converge, else 0."""
    bad = any(
        row.failure is not None or not row.converged
        for report in reports
        for row in report.rows
    )
    return 1 if (bad and strict) else 0


def _cmd_solve(args) -> int:
    N = args.cfg.N_list[0] if args.N is None else args.N
    reports = bench.run_sweep(dataclasses.replace(args.cfg, N_list=[N]), write=False)
    for report in reports:
        (row,) = report.rows
        head = f"{args.cfg.problem} component {report.component}:"
        if row.failure is not None:
            print(f"{head} FAILED: {row.failure}")
            continue
        res = report.results[N]
        status = "converged" if res.converged else "NOT converged"
        print(
            f"{head} {status} in {res.iterations} iterations ({res.wall_time:.3f}s, "
            f"of which set-up {res.setup_time:.3f}s)"
        )
        print(f"  multiplier     = {res.mu_final:.6g}")
        print(f"  state integral = {row.state_integral:.6g}")
        print(f"  feasibility    = {res.feasibility_residual:.3g}")
        if row.control_error is not None:
            print(f"  control error  = {row.control_error:.6g}")
        if row.multiplier_error is not None:
            print(f"  multiplier err = {row.multiplier_error:.6g}")
    return _exit_code(args.strict, reports)


def _cmd_sweep(args) -> int:
    reports = bench.run_sweep(args.cfg)
    for report in reports:
        print(f"# {args.cfg.problem} component {report.component} ({args.cfg.basis_kind})")
        for line in bench.report_csv_lines(report):
            print(line)
        for row in report.rows:
            if row.failure is not None:
                print(f"# N={row.N} FAILED: {row.failure}")
            elif not row.converged:
                print(f"# N={row.N} NOT converged in {row.iterations} iterations")
    return _exit_code(args.strict, reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="socproj",
        description="Constrained stochastic optimal control benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solve at a single grid size")
    _add_config_arg(p_solve)
    p_solve.add_argument("--N", type=int, default=None, help="grid size override")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the configured convergence sweep")
    _add_config_arg(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list-problems", help="print the built-in problem ids")
    p_list.set_defaults(func=_cmd_list_problems)

    args = parser.parse_args(argv)
    if args.command == "solve" and args.N is not None and args.N < 2:
        p_solve.error(f"--N must be >= 2, got {args.N}")
    if args.command in ("solve", "sweep"):
        try:
            args.cfg = bench.parse_config(args.config)
        except (OSError, ValueError) as exc:
            sub.choices[args.command].error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
