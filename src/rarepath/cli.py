"""Command-line interface.

Subcommands: ``preprocess`` (graph analysis report), ``estimate`` (run one
or more measures), ``compare`` (side-by-side table with work-normalized
variance ratios against plain MC), ``exact`` (linear-solve oracle).

Options may also come from a flat key=value config file (``--config``);
command-line flags win.  Exit codes: 0 success, 2 invalid configuration,
3 state budget exceeded during preprocessing, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from rarepath.errors import (
    ConfigError,
    ConvergenceError,
    GoalUnreachableError,
    ModelError,
    StateBudgetExceeded,
)
from rarepath.exact import DEFAULT_STATE_CAP, exact_hitting_probability
from rarepath.preproc import DEFAULT_STATE_BUDGET, preprocess
from rarepath.sampling import (
    MEASURES,
    VARIANTS,
    ZVA_MEASURES,
    ChangeOfMeasure,
    Estimate,
    run_estimator,
    wnvr,
)
from rarepath.zoo import MODEL_NAMES, build_model, parse_number

CSV_COLUMNS = (
    "model",
    "method",
    "variant",
    "epsilon",
    "N",
    "M",
    "estimate",
    "ci_half_width_pct",
    "p_delta",
    "q_delta",
    "runtime_ms",
    "wnvr",
)

MISSING = "---"


def _load_config(path: str) -> dict[str, str]:
    conf: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                conf[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return conf


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill argparse defaults from the config file; flags take precedence."""
    if not getattr(args, "config", None):
        return args
    conf = _load_config(args.config)
    lists = {"epsilon", "method", "param"}
    for key, value in conf.items():
        attr = key.replace("-", "_")
        # the namespace also holds the subcommand, its handler and the file's path
        if attr not in vars(args) or attr in ("command", "func", "config"):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            if attr in lists:
                setattr(args, attr, [v.strip() for v in value.split(",") if v.strip()])
            else:
                setattr(args, attr, value)
    return args


def _parse_params(pairs: list[str] | None) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key.strip()] = value.strip()
    return params


def _epsilons(args: argparse.Namespace) -> list[float]:
    if not args.epsilon:
        raise ConfigError("at least one --epsilon is required")
    epsilons = [parse_number("--epsilon", e, float) for e in args.epsilon]
    for eps in epsilons:
        if not 0.0 < eps < 1.0:  # nan fails too
            raise ConfigError(f"--epsilon must lie strictly between 0 and 1: {eps}")
    return epsilons


def _write(text: str, out: str | None, mode: str = "w") -> None:
    """Write ``text`` to the file ``out``, or to stdout if it is unset."""
    if out:
        try:
            with open(out, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _fmt(value: float | None, spec: str = "{:.6e}") -> str:
    return MISSING if value is None else spec.format(value)


def _row(
    model_name: str,
    epsilon: float,
    est: Estimate,
    wnvr_value: float | None,
) -> list[str]:
    rel = est.rel_half_width
    return [
        model_name,
        est.method,
        est.variant,
        f"{epsilon:g}",
        str(est.n_runs),
        str(est.n_nondominant),
        _fmt(est.mean),
        _fmt(None if rel is None else 100.0 * rel, "{:.4f}"),
        _fmt(est.p_delta),
        _fmt(est.q_delta),
        f"{est.wall_time_s * 1000.0:.1f}",
        _fmt(wnvr_value, "{:.3g}"),
    ]


def _emit_table(rows: list[list[str]], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "md":
        header = "| " + " | ".join(CSV_COLUMNS) + " |"
        sep = "|" + "|".join(["---"] * len(CSV_COLUMNS)) + "|"
        body = ["| " + " | ".join(r) + " |" for r in rows]
        text = "\n".join([header, sep, *body]) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    _write(text, out)


def _state_budget(args: argparse.Namespace, default: int) -> int:
    """``--budget``, or ``default``: a budget below 1 state is a ConfigError."""
    budget = parse_number("--budget", args.budget, int, default)
    if budget < 1:
        raise ConfigError(f"--budget must be at least 1: {budget}")
    return budget


def _run_rows(args: argparse.Namespace, with_mc_baseline: bool) -> list[list[str]]:
    params = _parse_params(args.param)
    methods = args.method or (["zva-delta"] if not with_mc_baseline else ["mc"])
    for m in methods:
        if m not in MEASURES:
            raise ConfigError(f"unknown method {m!r}")
    if with_mc_baseline:
        methods = ["mc", *(m for m in methods if m != "mc")]
    variant = args.variant or "plain"
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    n_runs = parse_number("--runs", args.runs, int)
    if n_runs is not None and n_runs < 1:
        raise ConfigError(f"--runs must be at least 1: {n_runs}")
    budget_ms = parse_number("--time-budget", args.time_budget, float)
    if n_runs is None and budget_ms is None:
        n_runs = 10_000
    seed = parse_number("--seed", args.seed, int, 0)
    workers = parse_number("--workers", args.workers, int, 1)
    state_budget = _state_budget(args, DEFAULT_STATE_BUDGET)
    rows: list[list[str]] = []
    for epsilon in _epsilons(args):
        model = build_model(args.model, epsilon, params)
        result = None  # one preprocessing per epsilon, shared by the ZVA measures
        mc_estimate: Estimate | None = None
        for method in methods:
            if method in ZVA_MEASURES:
                if result is None:
                    result = preprocess(model, state_budget=state_budget)
                com = ChangeOfMeasure(method, result=result, epsilon=epsilon)
            else:
                com = ChangeOfMeasure(method)
            mvariant = variant if com.is_zva else "plain"
            est = run_estimator(
                model,
                com,
                variant=mvariant,
                n_runs=n_runs,
                time_budget_ms=budget_ms,
                seed=seed,
                workers=workers,
            )
            ratio: float | None = None
            if with_mc_baseline:
                if method == "mc":
                    mc_estimate = est
                    ratio = 1.0
                elif mc_estimate is not None:
                    ratio = wnvr(mc_estimate, est)
            rows.append(_row(args.model, epsilon, est, ratio))
    return rows


def cmd_preprocess(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    state_budget = _state_budget(args, DEFAULT_STATE_BUDGET)
    reports = []
    for epsilon in _epsilons(args):
        model = build_model(args.model, epsilon, params)
        result = preprocess(model, state_budget=state_budget)
        reports.append({"model": args.model, "epsilon": epsilon, **result.report()})
    _write(json.dumps(reports, indent=2, default=str) + "\n", args.out)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    _emit_table(_run_rows(args, with_mc_baseline=False), args.format or "csv", args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _emit_table(_run_rows(args, with_mc_baseline=True), args.format or "csv", args.out)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    cap = _state_budget(args, DEFAULT_STATE_CAP)
    out = []
    for epsilon in _epsilons(args):
        model = build_model(args.model, epsilon, params)
        try:  # solve the reduced chain only if it lost an order-0 cycle (fewer sweeps)
            result = preprocess(model, state_budget=cap)
        except GoalUnreachableError:
            pi_s = 0.0
        else:
            reduced = result if result.hpc_count else None
            pi_s, _ = exact_hitting_probability(model, reduced, state_cap=cap)
        out.append({"model": args.model, "epsilon": epsilon, "probability": pi_s})
    _write(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarepath",
        description="Rare-event estimation for regenerative Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sampling: bool) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--model", choices=MODEL_NAMES)
        p.add_argument(
            "--param", action="append", metavar="KEY=VALUE",
            help="model parameter (repeatable)",
        )
        p.add_argument(
            "--epsilon", action="append", metavar="EPS",
            help="rarity parameter (repeatable)",
        )
        p.add_argument("--budget", help="state budget for exploration")
        p.add_argument("--out", help="write output to this file")
        if sampling:
            p.add_argument(
                "--method", action="append", choices=MEASURES,
                help="simulation measure (repeatable)",
            )
            p.add_argument("--variant", choices=VARIANTS)
            p.add_argument("--runs", help="number of replications")
            p.add_argument(
                "--time-budget", dest="time_budget", metavar="MS",
                help="wall-clock budget in milliseconds (instead of --runs)",
            )
            p.add_argument("--seed", help="master RNG seed")
            p.add_argument(
                "--workers", help="number of RNG streams/workers (1 with --time-budget)"
            )
            p.add_argument("--format", choices=("csv", "md"))

    p_pre = sub.add_parser("preprocess", help="graph preprocessing report")
    common(p_pre, sampling=False)
    p_pre.set_defaults(func=cmd_preprocess)

    p_est = sub.add_parser("estimate", help="run estimators")
    common(p_est, sampling=True)
    p_est.set_defaults(func=cmd_estimate)

    p_cmp = sub.add_parser("compare", help="compare measures against plain MC")
    common(p_cmp, sampling=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_ex = sub.add_parser("exact", help="exact hitting probability")
    common(p_ex, sampling=False)
    p_ex.set_defaults(func=cmd_exact)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        if not args.model:
            raise ConfigError("--model is required")
        if args.out:  # fail before the work, not after it; appending truncates nothing
            _write("", args.out, "a")
        return args.func(args)
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, GoalUnreachableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
