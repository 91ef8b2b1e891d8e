"""Command-line surface: derive, combine, bayes, factors, williams, simulate, validate.

One subcommand per invocation, its options spelled in full.  Reports go to
standard output, diagnostics to standard error.  Every diagnostic is exactly
one line, with any line break in it escaped: ``usage error: ...`` with exit
status 2, or ``error: <Kind>: ...`` with exit status 1 for model and domain
errors (``error: [Errno ...] ...`` for a file that cannot be opened).  Output
is deterministic for identical argv and files (simulation requires an explicit
``--seed``).  One parser serves every ``run_command`` call in a process: it is
built on first use and keeps no per-call state.  A command's own subparser
parses an argv that starts with its name; the full parser reads any other.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Sequence

from . import bayes as bayes_ops
from .combine import combine_masses, combine_models
from .errors import BeliefkitError
from .frames import Frame, SubsetMask
from .mass import MassFunction, format_rational, parse_rational
from .evidence import EvidenceModel
from .model_io import (
    load_model,
    parse_belief_table,
    parse_prior_table,
    read_document,
    validate_model,
)
from .reports import emit_report


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argparse's own errors as usage errors instead of exiting."""

    def error(self, message: str):
        raise _UsageError(message)


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


def _integer_arg(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a {what}, got {value}")
    return value


def _count_arg(text: str) -> int:
    return _integer_arg(text, 1, "positive count")


def _seed_arg(text: str) -> int:
    return _integer_arg(text, 0, "non-negative seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="beliefkit",
        description="Derive, combine, and Bayesian-check belief functions "
        "over coded-message evidence models.",
        allow_abbrev=False,
    )
    common = _ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="report as plain text (default) or a JSON document",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, run, help):
        subparser = sub.add_parser(name, parents=[common], help=help, allow_abbrev=False)
        subparser.set_defaults(run=run)
        return subparser

    def add_observed(subparser):
        subparser.add_argument("model", help="model document path")
        subparser.add_argument("--message", help="observed message")

    def add_prior(subparser):
        subparser.add_argument(
            "--prior", choices=("uniform",), help="named prior over the plaintext domain"
        )
        subparser.add_argument(
            "--prior-file", metavar="FILE", help="explicit prior weights document"
        )

    def add_pair(subparser, help, required=False):
        subparser.add_argument(
            "--pair",
            nargs=2,
            type=_subset_arg,
            metavar=("FIRST", "SECOND"),
            required=required,
            help=help,
        )

    derive = command(
        "derive", _cmd_derive, "derive the belief function induced by an observed message"
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

    combine = command(
        "combine", _cmd_combine, "combine the evidence of two models with Dempster's rule"
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

    bayes = command("bayes", _cmd_bayes, "exact Bayesian posterior or posterior odds for a model")
    add_observed(bayes)
    add_prior(bayes)
    bayes.add_argument(
        "--odds", type=_rational_arg, metavar="A", help="prior odds A : 1 for --pair"
    )
    add_pair(bayes, "the two plaintexts whose odds are reported")

    factors = command(
        "factors", _cmd_factors, "prior-independent Bayes factor between two plaintexts"
    )
    add_observed(factors)
    add_pair(factors, "the two plaintexts compared", required=True)

    williams = command(
        "williams", _cmd_williams, "check the derived mass against the uniform-prior posterior"
    )
    add_observed(williams)

    simulate = command(
        "simulate", _cmd_simulate, "Monte Carlo frequencies for the generative story"
    )
    add_observed(simulate)
    simulate.add_argument("--samples", type=_count_arg, required=True, help="number of trials")
    simulate.add_argument("--seed", type=_seed_arg, required=True, help="deterministic seed")
    add_prior(simulate)

    validate = command("validate", _cmd_validate, "report warnings about a model document")
    validate.add_argument("model", help="model document path")
    parser._commands = sub.choices  # command name -> its subparser
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace the full parser gives `argv`, skipping its pass over a
    leading command name."""
    parser = build_parser()
    subparser = parser._commands.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args = subparser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _resolve_message(model: EvidenceModel, flag: str | None, option: str) -> str:
    if flag is not None:
        return flag
    if model.observed is not None:
        return model.observed
    raise _UsageError(f"the model declares no observed message; pass {option}")


def _observed(args: argparse.Namespace) -> tuple[EvidenceModel, str, dict]:
    """The model, its observed message and the report header naming both."""
    model = load_model(args.model)
    message = _resolve_message(model, args.message, "--message")
    return model, message, {"frame": str(model.frame.full()), "message": message}


def _pair(frame: Frame, pair: Sequence[str]) -> list[SubsetMask]:
    return [frame.full() if text == "T" else frame.parse_subset(text) for text in pair]


def _mass_tables(mass: MassFunction) -> dict[str, dict[str, str]]:
    frame = mass.frame
    focal = mass.focal()
    if frame.size <= 4:
        row_bits = range(1, 1 << frame.size)
    else:
        row_bits = sorted({mask.bits for mask, _ in focal} | {frame.full().bits})
    rows = [SubsetMask(frame, bits) for bits in row_bits]
    texts = [str(m) for m in rows]  # every focal element is a row
    text_of = dict(zip(row_bits, texts))
    return {
        "mass": {text_of[m.bits]: format_rational(v) for m, v in focal},
        "belief": {t: format_rational(mass.belief(m)) for m, t in zip(rows, texts)},
        "plausibility": {t: format_rational(mass.plausibility(m)) for m, t in zip(rows, texts)},
    }


def _resolve_prior(model: EvidenceModel, args: argparse.Namespace) -> bayes_ops.PriorSpec:
    if args.prior is not None and args.prior_file is not None:
        raise _UsageError("--prior and --prior-file are mutually exclusive")
    if args.prior_file is not None:
        return parse_prior_table(read_document(args.prior_file), model.frame)
    return bayes_ops.PriorSpec.uniform(model.plaintexts)


def _cmd_derive(args: argparse.Namespace) -> dict:
    if args.from_belief is not None:
        if args.model is not None or args.message is not None:
            raise _UsageError("--from-belief replaces the model and --message arguments")
        frame, table = parse_belief_table(read_document(args.from_belief))
        mass = MassFunction.from_belief(frame, table)
        return {"frame": str(frame.full()), **_mass_tables(mass)}
    if args.model is None:
        raise _UsageError("a model document path is required unless --from-belief is used")
    model, message, header = _observed(args)
    return {**header, **_mass_tables(model.derive_mass(message))}


def _cmd_combine(args: argparse.Namespace) -> dict:
    model1 = load_model(args.model1)
    model2 = load_model(args.model2)
    message1 = _resolve_message(model1, args.message1, "--message1")
    message2 = _resolve_message(model2, args.message2, "--message2")
    if args.method == "direct":
        result = combine_masses(model1.derive_mass(message1), model2.derive_mass(message2))
    else:
        result = combine_models(model1, message1, model2, message2)
    return {
        "method": args.method,
        "frame": str(model1.frame.full()),
        "conflict": format_rational(result.conflict),
        **_mass_tables(result.combined),
    }


def _cmd_bayes(args: argparse.Namespace) -> dict:
    model, message, header = _observed(args)
    if args.odds is not None:
        if args.pair is None:
            raise _UsageError("--odds requires --pair FIRST SECOND")
        if args.prior is not None or args.prior_file is not None:
            raise _UsageError("--odds and prior options are mutually exclusive")
        first, second = _pair(model.frame, args.pair)
        prior_odds = bayes_ops._positive_odds(args.odds)  # checked first, as posterior_odds does
        factor = bayes_ops.bayes_factor(model, message, first, second)
        return {
            **header,
            "pair": [str(first), str(second)],
            "prior_odds": format_rational(args.odds),
            "factor": format_rational(factor),
            "posterior_odds": format_rational(prior_odds * factor),
        }
    if args.pair is not None:
        raise _UsageError("--pair requires --odds A")
    prior = _resolve_prior(model, args)
    report = bayes_ops.posterior(model, prior, message)
    plaintexts = list(zip(model.plaintexts, map(str, model.plaintexts)))
    return {
        **header,
        "prior": {t: format_rational(prior.weight_of(m)) for m, t in plaintexts},
        "likelihood": {t: format_rational(report.likelihoods[m]) for m, t in plaintexts},
        "normalizer": format_rational(report.normalizer),
        "posterior": {t: format_rational(report.posterior[m]) for m, t in plaintexts},
    }


def _cmd_factors(args: argparse.Namespace) -> dict:
    model, message, header = _observed(args)
    first, second = _pair(model.frame, args.pair)
    factor = bayes_ops.bayes_factor(model, message, first, second)
    return {**header, "pair": [str(first), str(second)], "factor": format_rational(factor)}


def _cmd_williams(args: argparse.Namespace) -> dict:
    model, message, header = _observed(args)
    result = bayes_ops.williams_check(model, message)
    return {
        **header,
        "one_to_one": result.one_to_one,
        "equivalent": result.equivalent,
        "mass": {str(m): format_rational(v) for m, v in result.mass.focal()},
        "uniform_posterior": {
            str(m): format_rational(v) for m, v in result.uniform_posterior.items()
        },
    }


def _cmd_simulate(args: argparse.Namespace) -> dict:
    model, message, header = _observed(args)
    prior = _resolve_prior(model, args)
    result = bayes_ops.simulate(model, prior, message, args.samples, args.seed)
    return {
        **header,
        "samples": result.samples,
        "seed": result.seed,
        "algorithm": result.algorithm,
        "accepted": result.accepted,
        "frequency": {str(m): round(result.frequencies[m], 6) for m in model.plaintexts},
    }


def _cmd_validate(args: argparse.Namespace) -> dict:
    return {"findings": validate_model(load_model(args.model))}


_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # every line boundary of str.splitlines()
_ESCAPES = str.maketrans({c: c.encode("unicode_escape").decode() for c in _BREAKS})


def _diagnose(text: str) -> None:
    """Write one diagnostic to stderr as exactly one line."""
    print(text.translate(_ESCAPES), file=sys.stderr)


def run_command(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the process exit status."""
    try:
        try:
            args = _parse_args(list(argv))
        except SystemExit:  # --help, the only way argparse still exits
            return 0
        payload = args.run(args)
    except _UsageError as err:
        _diagnose(f"usage error: {err}")
        return 2
    except BeliefkitError as err:
        _diagnose(f"error: {type(err).__name__}: {err}")
        return 1
    except OSError as err:
        _diagnose(f"error: {err}")
        return 1
    sys.stdout.write(emit_report(args.command, payload, args.format))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
