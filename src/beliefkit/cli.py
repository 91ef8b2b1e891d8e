"""Command-line surface: derive, combine, bayes, factors, williams, simulate, validate.

One subcommand per invocation.  Reports go to standard output, diagnostics
to standard error; exit status is 0 on success, 1 on model or domain
errors, 2 on usage errors.  Output is deterministic for identical argv and
files (simulation requires an explicit ``--seed``).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

from . import bayes as bayes_ops
from .combine import combine_masses, combine_models
from .errors import BeliefkitError, ModelSyntaxError
from .frames import Frame, SubsetMask
from .mass import MAX_INVERSION_FRAME, MassFunction, format_rational, parse_rational
from .evidence import EvidenceModel
from .model_io import (
    load_model,
    parse_belief_table,
    parse_prior_table,
    read_document,
    validate_model,
)
from .reports import Report, emit_report


class _UsageError(Exception):
    pass


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _subset_arg(text: str) -> str:
    if text == "T" or (len(text) >= 2 and text[0] == "{" and text[-1] == "}"):
        return text
    raise argparse.ArgumentTypeError(
        f'subsets are written "{{a,b}}" (or T for the full frame), got {text!r}'
    )


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefkit",
        description="Derive, combine, and Bayesian-check belief functions "
        "over coded-message evidence models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="report as plain text (default) or a JSON document",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    derive = sub.add_parser(
        "derive",
        parents=[common],
        help="derive the belief function induced by an observed message",
    )
    derive.add_argument("model", nargs="?", help="model document path")
    derive.add_argument(
        "--message", help="observed message (defaults to the model's observed field)"
    )
    derive.add_argument(
        "--from-belief",
        metavar="FILE",
        help="invert a dense belief table document instead of a model",
    )

    combine = sub.add_parser(
        "combine",
        parents=[common],
        help="combine the evidence of two models with Dempster's rule",
    )
    combine.add_argument("model1", help="first model document path")
    combine.add_argument("model2", help="second model document path")
    combine.add_argument("--message1", help="message observed from the first model")
    combine.add_argument("--message2", help="message observed from the second model")
    combine.add_argument(
        "--method",
        choices=("direct", "product"),
        default="direct",
        help="combine derived mass functions, or enumerate the joint relation",
    )

    bayes = sub.add_parser(
        "bayes",
        parents=[common],
        help="exact Bayesian posterior or posterior odds for a model",
    )
    bayes.add_argument("model", help="model document path")
    bayes.add_argument("--message", help="observed message")
    bayes.add_argument(
        "--prior", choices=("uniform",), help="named prior over the plaintext domain"
    )
    bayes.add_argument("--prior-file", metavar="FILE", help="explicit prior weights document")
    bayes.add_argument(
        "--odds", type=_rational_arg, metavar="A", help="prior odds A : 1 for --pair"
    )
    bayes.add_argument(
        "--pair",
        nargs=2,
        type=_subset_arg,
        metavar=("FIRST", "SECOND"),
        help="the two plaintexts whose odds are reported",
    )

    factors = sub.add_parser(
        "factors",
        parents=[common],
        help="prior-independent Bayes factor between two plaintexts",
    )
    factors.add_argument("model", help="model document path")
    factors.add_argument("--message", help="observed message")
    factors.add_argument(
        "--pair",
        nargs=2,
        type=_subset_arg,
        metavar=("FIRST", "SECOND"),
        required=True,
        help="the two plaintexts compared",
    )

    williams = sub.add_parser(
        "williams",
        parents=[common],
        help="check the derived mass against the uniform-prior posterior",
    )
    williams.add_argument("model", help="model document path")
    williams.add_argument("--message", help="observed message")

    simulate = sub.add_parser(
        "simulate",
        parents=[common],
        help="Monte Carlo frequencies for the generative story",
    )
    simulate.add_argument("model", help="model document path")
    simulate.add_argument("--message", help="observed message")
    simulate.add_argument(
        "--samples", type=_count_arg, required=True, help="number of trials"
    )
    simulate.add_argument("--seed", type=int, required=True, help="deterministic seed")
    simulate.add_argument(
        "--prior", choices=("uniform",), help="named prior over the plaintext domain"
    )
    simulate.add_argument("--prior-file", metavar="FILE", help="explicit prior weights document")

    validate = sub.add_parser(
        "validate",
        parents=[common],
        help="report warnings about a model document",
    )
    validate.add_argument("model", help="model document path")
    return parser


def _resolve_message(model: EvidenceModel, flag: str | None, option: str) -> str:
    if flag is not None:
        return flag
    if model.observed is not None:
        return model.observed
    raise _UsageError(
        f"the model declares no observed message; pass {option}"
    )


def _resolve_subset(frame: Frame, text: str) -> SubsetMask:
    if text == "T":
        return frame.full()
    return frame.parse_subset(text)


def _frame_text(frame: Frame) -> str:
    return str(frame.full())


def _mass_tables(mass: MassFunction) -> dict[str, dict[str, str]]:
    frame = mass.frame
    focal = mass.focal()
    if frame.size <= 4:
        rows = [m for m in frame.full().subsets() if len(m) > 0]
    else:
        row_bits = {mask.bits for mask, _ in focal}
        row_bits.add(frame.full().bits)
        rows = [SubsetMask(frame, bits) for bits in sorted(row_bits)]
    return {
        "mass": {str(m): format_rational(v) for m, v in focal},
        "belief": {str(m): format_rational(mass.belief(m)) for m in rows},
        "plausibility": {str(m): format_rational(mass.plausibility(m)) for m in rows},
    }


def _resolve_prior(model: EvidenceModel, args: argparse.Namespace) -> bayes_ops.PriorSpec:
    if args.prior is not None and args.prior_file is not None:
        raise _UsageError("--prior and --prior-file are mutually exclusive")
    if args.prior_file is not None:
        return parse_prior_table(read_document(args.prior_file), model.frame)
    return bayes_ops.PriorSpec.uniform(model.plaintexts)


def _cmd_derive(args: argparse.Namespace) -> Report:
    if args.from_belief is not None:
        if args.model is not None or args.message is not None:
            raise _UsageError("--from-belief replaces the model and --message arguments")
        frame, table = parse_belief_table(read_document(args.from_belief))
        if frame.size > MAX_INVERSION_FRAME:
            raise ModelSyntaxError(
                f"frame: belief inversion is limited to frames of size "
                f"{MAX_INVERSION_FRAME} or smaller, got {frame.size}"
            )
        mass = MassFunction.from_belief(frame, table)
        return Report("derive", {"frame": _frame_text(frame), **_mass_tables(mass)})
    if args.model is None:
        raise _UsageError("a model document path is required unless --from-belief is used")
    model = load_model(args.model)
    message = _resolve_message(model, args.message, "--message")
    mass = model.derive_mass(message)
    return Report(
        "derive",
        {"frame": _frame_text(model.frame), "message": message, **_mass_tables(mass)},
    )


def _cmd_combine(args: argparse.Namespace) -> Report:
    model1 = load_model(args.model1)
    model2 = load_model(args.model2)
    message1 = _resolve_message(model1, args.message1, "--message1")
    message2 = _resolve_message(model2, args.message2, "--message2")
    if args.method == "direct":
        result = combine_masses(
            model1.derive_mass(message1), model2.derive_mass(message2)
        )
    else:
        result = combine_models(model1, message1, model2, message2)
    return Report(
        "combine",
        {
            "method": args.method,
            "frame": _frame_text(model1.frame),
            "conflict": format_rational(result.conflict),
            **_mass_tables(result.combined),
        },
    )


def _cmd_bayes(args: argparse.Namespace) -> Report:
    model = load_model(args.model)
    message = _resolve_message(model, args.message, "--message")
    if args.odds is not None:
        if args.pair is None:
            raise _UsageError("--odds requires --pair FIRST SECOND")
        if args.prior is not None or args.prior_file is not None:
            raise _UsageError("--odds and prior options are mutually exclusive")
        first = _resolve_subset(model.frame, args.pair[0])
        second = _resolve_subset(model.frame, args.pair[1])
        factor = bayes_ops.bayes_factor(model, message, first, second)
        odds = bayes_ops.posterior_odds(model, message, first, second, args.odds)
        return Report(
            "bayes",
            {
                "frame": _frame_text(model.frame),
                "message": message,
                "pair": [str(first), str(second)],
                "prior_odds": format_rational(args.odds),
                "factor": format_rational(factor),
                "posterior_odds": format_rational(odds),
            },
        )
    if args.pair is not None:
        raise _UsageError("--pair requires --odds A")
    prior = _resolve_prior(model, args)
    report = bayes_ops.posterior(model, prior, message)
    return Report(
        "bayes",
        {
            "frame": _frame_text(model.frame),
            "message": message,
            "prior": {str(m): format_rational(prior.weight_of(m)) for m in model.plaintexts},
            "likelihood": {
                str(m): format_rational(report.likelihoods[m]) for m in model.plaintexts
            },
            "normalizer": format_rational(report.normalizer),
            "posterior": {
                str(m): format_rational(report.posterior[m]) for m in model.plaintexts
            },
        },
    )


def _cmd_factors(args: argparse.Namespace) -> Report:
    model = load_model(args.model)
    message = _resolve_message(model, args.message, "--message")
    first = _resolve_subset(model.frame, args.pair[0])
    second = _resolve_subset(model.frame, args.pair[1])
    factor = bayes_ops.bayes_factor(model, message, first, second)
    return Report(
        "factors",
        {
            "frame": _frame_text(model.frame),
            "message": message,
            "pair": [str(first), str(second)],
            "factor": format_rational(factor),
        },
    )


def _cmd_williams(args: argparse.Namespace) -> Report:
    model = load_model(args.model)
    message = _resolve_message(model, args.message, "--message")
    result = bayes_ops.williams_check(model, message)
    return Report(
        "williams",
        {
            "frame": _frame_text(model.frame),
            "message": message,
            "one_to_one": result.one_to_one,
            "equivalent": result.equivalent,
            "mass": {str(m): format_rational(v) for m, v in result.mass.focal()},
            "uniform_posterior": {
                str(m): format_rational(result.uniform_posterior[m])
                for m in model.plaintexts
            },
        },
    )


def _cmd_simulate(args: argparse.Namespace) -> Report:
    model = load_model(args.model)
    message = _resolve_message(model, args.message, "--message")
    prior = _resolve_prior(model, args)
    result = bayes_ops.simulate(model, prior, message, args.samples, args.seed)
    return Report(
        "simulate",
        {
            "frame": _frame_text(model.frame),
            "message": message,
            "samples": result.samples,
            "seed": result.seed,
            "algorithm": result.algorithm,
            "accepted": result.accepted,
            "frequency": {
                str(m): round(result.frequencies[m], 6) for m in model.plaintexts
            },
        },
    )


def _cmd_validate(args: argparse.Namespace) -> Report:
    model = load_model(args.model)
    return Report("validate", {"findings": validate_model(model)})


_COMMANDS = {
    "derive": _cmd_derive,
    "combine": _cmd_combine,
    "bayes": _cmd_bayes,
    "factors": _cmd_factors,
    "williams": _cmd_williams,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def run_command(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        report = _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except BeliefkitError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(emit_report(report, args.format))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
