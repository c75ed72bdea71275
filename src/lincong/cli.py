"""Command-line front end: solve, enumerate, check, verify.

Exit codes: 0 success (also when the reader of stdout closes it early),
2 usage/parse/sizing error or a closed or failing stdin or stdout,
3 unsolvable instance, 4 oracle disagreement.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from itertools import chain, islice, product, repeat
from operator import add
from types import SimpleNamespace

from .core import (
    LinearCongruence,
    _blocks,
    iter_basis,
    normalize,
    satisfies,
    summarize,
)
from .parser import ParsedCongruence, ParseError, format_congruence, parse, parse_integer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSOLVABLE = 3
EXIT_MISMATCH = 4

BATCH_SIZE = 200  # instances checked by `verify --seed`


# Every integer given as a flag or a vector is read as the expression grammar
# reads one, so '٥' or '1_0' is no integer here either; a flag not given is None.
def _flag_int(text: str | None, flag: str, nonnegative: bool = False) -> int | None:
    if text is None:
        return None
    try:
        value = parse_integer(text)
    except ParseError:
        raise ValueError(f"{flag}: expected an integer, got {text!r}") from None
    if nonnegative and value < 0:
        raise ValueError(f"{flag} must be nonnegative")
    return value


def _comma_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(parse_integer, text.split(",")))
    except ParseError:
        raise ValueError(f"{what}: expected comma-separated integers, got {text!r}") from None


def _load_instance(args) -> tuple[LinearCongruence, ParsedCongruence]:
    if args.coeffs is not None:
        if args.expr is not None:
            raise ValueError("give either an expression or --coeffs/--rhs/--mod, not both")
        if args.rhs is None or args.mod is None:
            raise ValueError("--coeffs requires --rhs and --mod")
        coeffs = _comma_ints(args.coeffs, "--coeffs")
        names = tuple(f"x{i}" for i in range(1, len(coeffs) + 1))
        parsed = ParsedCongruence(names, coeffs, _flag_int(args.rhs, "--rhs"),
                                  _flag_int(args.mod, "--mod"))
    else:
        if args.rhs is not None or args.mod is not None:
            raise ValueError("--rhs and --mod go with --coeffs")
        if args.expr is None:
            raise ValueError("an expression (or --coeffs/--rhs/--mod) is required")
        if args.expr == "-" and sys.stdin is None:
            raise ValueError("'-' reads the expression from stdin, which is closed")
        try:
            text = sys.stdin.read() if args.expr == "-" else args.expr
        except OSError as exc:  # an unreadable stdin, e.g. EIO from a lost terminal
            raise ValueError(f"stdin: {exc}") from None
        parsed = parse(text.strip())
    return normalize(parsed.raw_coeffs, parsed.rhs, parsed.modulus), parsed


def _counts(c: LinearCongruence) -> tuple[str, str, str, str]:
    # The one renderer of the four counts, d, p1, p2 and s, as decimal
    # strings.  Before Python 3.12 int -> str is quadratic, so once p1 has at
    # least 3,322 bits (1,000 digits) it is written as d * m**(n - 1) computed
    # in decimal, whose products are subquadratic; below that str is faster.
    # (Decimal(m) is itself quadratic, so at n = 2 with a short d the power
    # costs about what str(p1) would.)  Then the longer of p2 and s = p1 / p2
    # is read off p1 by one exact division when it has at least 3,322 bits
    # and its cofactor at most a quarter of them; with a longer cofactor,
    # int -> str is faster.  The precision bounds p1's digits,
    # floor(bits * log10(2)) + 1, so every result is exact and an inexact one
    # is a bug and raises; Emax lifts the default bound of a million digits.
    # Both sides of each cutover write the same digits.
    s = c.summary
    d = f"{s.gcd_all}"
    if c.arity == 1:  # p1 = p2 = gcd(a1, m) = d, so s = 1
        return d, d, d, "1"
    bits = s.solution_count.bit_length()
    if bits < 3322:
        return d, f"{s.solution_count}", f"{s.expansion_count}", f"{s.basis_size}"
    import decimal  # only long counts need it

    context = decimal.Context(prec=bits * 30103 // 100000 + 1,
                              Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    p1 = context.multiply(context.power(decimal.Decimal(c.modulus), c.arity - 1),
                          decimal.Decimal(d))

    def quotient(count: int, cofactor: int) -> str:  # count = p1 / cofactor
        if count.bit_length() >= 3322 and 4 * cofactor.bit_length() <= count.bit_length():
            return f"{context.divide(p1, cofactor):f}"
        return f"{count}"

    return (d, f"{p1:f}", quotient(s.expansion_count, s.basis_size),
            quotient(s.basis_size, s.expansion_count))


def _print_rows(args, expand: bool) -> int:
    # The body of solve (expand False) and of enumerate (expand True): the one
    # writer of all either prints to stdout.  Errors come in a fixed order:
    # the instance's, then --limit's (both raised, for main to report), then,
    # for enumerate alone, an unsolvable instance, which writes one stderr
    # line and no stdout.  The head is the JSON document's opening for both
    # commands, and the counting summary for a text solve; a text enumerate
    # has none.  Both heads take the counts from one _counts call, and an
    # unsolvable solve writes its head with no rows and exits 3.  Then come
    # the rows and the cut mark: the basis rows, or their expansions when
    # expand is True, at most `limit` of them.  Every basis row expands into
    # p2 >= 1 rows, so the first `limit` basis rows carry every row written
    # and no later one is pulled (islice takes no stop above sys.maxsize);
    # --limit 0 pulls none, so counts alone start no walk.
    # _blocks' (prefixes, block) pairs are written as they come and never
    # held whole, each prefix with the whole block in turn; the last pair is
    # cut to the rows left, and none after it is pulled.  Every prefix of a
    # stream has the length k of the first, so a row is its head, lead % its k
    # leading values, the rendering of the rest, and close, and rows are
    # joined by joiner, as json.dumps writes them for JSON ("%d" renders an
    # int as str() does).  A block is a range of lone values at depth 1, which
    # str renders faster than "%d"; deeper, a list of cycles, each value
    # rendered once and joined in their product's order; or whole rows, as
    # wide as the first block's first.  All the prefixes of a seed take the
    # same block, so it is rendered once and reused while the next one
    # compares equal (O(1) for ranges).  A group of prefixes is one C-level
    # join.  The whole JSON document is written by hand, as json.dumps would
    # write it: counts are _counts' decimal strings, as they can exceed any
    # fixed integer width, and an unsolvable solve has no rows key
    c, parsed = _load_instance(args)
    limit = _flag_int(args.limit, "--limit", nonnegative=True)
    s = summarize(c)
    if expand and not s.solvable:
        print(f"error: unsolvable: d = {s.gcd_all} does not divide b = {c.rhs}",
              file=sys.stderr)
        return EXIT_UNSOLVABLE
    out = sys.stdout
    as_json = args.format == "json"
    if as_json or not expand:
        d, p1, p2, basis_size = _counts(c)
        solvable = "true" if s.solvable else "false"
        if as_json:
            out.write(f'{{"d": "{d}", "solvable": {solvable}, "p1": "{p1}", "p2": "{p2}", '
                      f'"s": "{basis_size}"'
                      + (f', "{"solutions" if expand else "basis"}": [' if s.solvable else ""))
        else:
            out.write(f"congruence: {format_congruence(parsed)}\nd = {d}\n"
                      f"solvable = {solvable}\nsolutions (p1) = {p1}\nper-seed (p2) = {p2}\n"
                      f"basis size (s) = {basis_size}\n" + ("basis:\n" if s.solvable else ""))
    total = (s.solution_count if expand else s.basis_size) if s.solvable else 0
    left = total if limit is None else min(limit, total)  # rows still to write
    truncated = left < total
    # the seeds are constructed solutions, so they skip expand()'s seed check
    seeds = islice(iter_basis(c), None if limit is None else min(limit, sys.maxsize))
    opening, sep, close, joiner = ("[", ", ", "]", ", ") if as_json else ("", " ", "\n", "")
    glue = close + joiner
    before = ""
    lead, shown = None, ()
    for prefixes, block in _blocks(seeds, c, expand):
        if lead is None:
            lead = opening + ("%d" + sep) * len(prefixes[0])
            render = sep.join(["%d"] * len(block[0])).__mod__ if type(block) is tuple else str
        if block != shown:
            if type(block) is list:  # a deep block's cycles: each value rendered once
                tail = list(map(sep.join, product(*[list(map(str, cycle)) for cycle in block])))
            else:
                tail = list(map(render, block))
            shown, size = block, len(tail)
        if len(prefixes) == 1:
            head = lead % prefixes[0]
            left -= size
            text = head + (glue + head).join(tail if left >= 0 else tail[:left])
        else:  # a group in one join: each head that holds rows still to write, with the tail
            heads = list(map(lead.__mod__, prefixes[:-(-left // size)]))
            left -= size * len(heads)
            tails = chain(repeat(tail, len(heads) - 1), (tail if left >= 0 else tail[:left],))
            text = glue.join(map(add, heads, map(str.join, map(glue.__add__, heads), tails)))
        out.write(before + text + close)
        if left <= 0:
            break
        before = joiner
    if as_json:
        truncation = "true" if truncated else "false"
        out.write(f'{"]" if s.solvable else ""}, "truncated": {truncation}}}\n')
    elif truncated:
        out.write("# truncated\n")
    return EXIT_OK if s.solvable else EXIT_UNSOLVABLE


def cmd_solve(args) -> int:
    return _print_rows(args, expand=False)


def cmd_enumerate(args) -> int:
    return _print_rows(args, expand=True)


def cmd_check(args) -> int:
    c, parsed = _load_instance(args)
    vec_a = _comma_ints(args.solution_a, "solution_a")
    vec_b = _comma_ints(args.solution_b, "solution_b")
    if len(vec_a) != c.arity or len(vec_b) != c.arity:
        raise ValueError(f"arity mismatch: the congruence has {c.arity} unknowns, "
                         f"got vectors of length {len(vec_a)} and {len(vec_b)}")
    vec_a = tuple(x % c.modulus for x in vec_a)
    vec_b = tuple(x % c.modulus for x in vec_b)
    for label, vec in (("a", vec_a), ("b", vec_b)):
        if not satisfies(vec, c):
            print(f"warning: {label} = ({', '.join(map(str, vec))}) does not satisfy "
                  f"the congruence", file=sys.stderr)
    print(f"congruence: {format_congruence(parsed)}")
    print(f"a = {' '.join(map(str, vec_a))}")
    print(f"b = {' '.join(map(str, vec_b))}")
    # a and b are dependent iff a - b lies in the stride lattice: every
    # remainder printed is 0
    dependent = True
    for i, (xi, yi, g) in enumerate(zip(vec_a, vec_b, summarize(c).strides), start=1):
        diff = (xi - yi) % g
        dependent = dependent and diff == 0
        print(f"coordinate {i}: (a - b) ≡ {diff} (mod {g}) -> "
              f"{'divisible' if diff == 0 else 'not divisible'}")
    print("dependent" if dependent else "independent")
    return EXIT_OK


def _random_instance(rng) -> LinearCongruence:
    # rng is a random.Random; cmd_verify imports random only when it needs one
    n = rng.choice((1, 2, 3))
    coeffs = [rng.randint(-20, 20) for _ in range(n)]
    return normalize(coeffs, rng.randint(-20, 20), rng.randint(1, 20))


def cmd_verify(args) -> int:
    cap = _flag_int(args.cap, "--cap", nonnegative=True)
    from .oracle import DEFAULT_CAP, verify  # only this subcommand needs the oracle

    cap = DEFAULT_CAP if cap is None else cap
    if args.seed is not None:
        if any(v is not None for v in (args.expr, args.coeffs, args.rhs, args.mod)):
            raise ValueError("--seed runs a random batch; do not pass an instance too")
        seed = _flag_int(args.seed, "--seed")
        import random  # only the random batch needs it

        rng = random.Random(seed)
        disagreements = 0
        for _ in range(BATCH_SIZE):
            c = _random_instance(rng)
            report = verify(c, cap=cap)
            failed = []
            if not report.agrees_with_summary:
                failed.append("count")
            if not report.agrees_with_basis:
                failed.append("set")
            if failed:
                disagreements += 1
                print(f"disagreement on {' and '.join(failed)}: "
                      f"coeffs={c.coeffs} rhs={c.rhs} mod={c.modulus}")
                print(f"  reproduce: lincong verify --coeffs={','.join(map(str, c.coeffs))} "
                      f"--rhs={c.rhs} --mod={c.modulus}")
        print(f"verified {BATCH_SIZE} random instances (seed {seed}): "
              f"{BATCH_SIZE - disagreements} agree, {disagreements} disagree")
        return EXIT_OK if disagreements == 0 else EXIT_MISMATCH

    c, parsed = _load_instance(args)
    report = verify(c, cap=cap)
    s = summarize(c)
    expected = s.solution_count if s.solvable else 0
    print(f"congruence: {format_congruence(parsed)}")
    print(f"oracle count = {report.solution_count}")
    print(f"expected count = {expected}")
    print(f"count agreement: {'yes' if report.agrees_with_summary else 'no'}")
    print(f"set agreement: {'yes' if report.agrees_with_basis else 'no'}")
    ok = report.agrees_with_summary and report.agrees_with_basis
    return EXIT_OK if ok else EXIT_MISMATCH


# Each subcommand once: its help, its function and its arguments in help
# order.  An argument is (name, help); a name that starts with "--" is a flag
# taking one value, any other a positional, of which "expr" alone may be
# left out.  --format takes one of FORMATS and is "text" when not given.
_INSTANCE = (("expr", "congruence such as '2x - 6y ≡ 2 (mod 12)'; '-' reads stdin"),
             ("--coeffs", "comma-separated coefficients, e.g. 2,-6"),
             ("--rhs", "right-hand side, with --coeffs"),
             ("--mod", "modulus, with --coeffs"))
FORMATS = ("text", "json")
COMMANDS = {
    "solve": ("print the counting summary and a basis", cmd_solve,
              (*_INSTANCE, ("--format", None), ("--limit", "cap the number of basis elements"))),
    "enumerate": ("print every distinct solution", cmd_enumerate,
                  (*_INSTANCE, ("--format", None), ("--limit", "stop after this many solutions"))),
    "check": ("dependence verdict for two solutions", cmd_check,
              (*_INSTANCE, ("solution_a", "residue vector, e.g. 7,4"),
               ("solution_b", "residue vector, e.g. 1,0"))),
    "verify": ("cross-check against the brute-force oracle", cmd_verify,
               (*_INSTANCE, ("--cap", "largest m**n the oracle will scan (default 10**7)"),
                ("--seed", f"verify a batch of {BATCH_SIZE} random instances instead"))),
}


def build_arg_parser():
    """A new argparse parser for the four subcommands, built from COMMANDS, on every call.

    main() builds its own one only for an argv its scan passes on, and reuses
    it, so changing a parser returned here never changes what main() does.
    """
    import argparse  # a valid argv never needs it: only help and usage errors do

    class Parser(argparse.ArgumentParser):  # the subparsers are of this class too
        def print_help(self, file=None):
            # argparse's own print_help swallows an OSError, so help to a full
            # disk would exit 0; this one lets it reach main's handler
            file = file or sys.stdout or sys.stderr  # argparse's choice of stream
            if file is not None:
                file.write(self.format_help())

    ap = Parser(
        prog="lincong",
        description="Solve linear congruences a1*x1 + ... + an*xn ≡ b (mod m).")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (about, _, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name, text in arguments:
            if name == "expr":
                p.add_argument(name, nargs="?", help=text)
            elif name == "--format":
                p.add_argument(name, choices=FORMATS, default="text")
            else:
                p.add_argument(name, help=text)
    return ap


@cache
def _main_parser():
    # main's own parser, built for the first argv the scan passes on and
    # reused by every later one: building it costs about 1 ms.  argparse
    # keeps no state between parse_args calls, and callers of
    # build_arg_parser() get a fresh parser, so nothing can alter this one.
    return build_arg_parser()


def _scan_spec(command, arguments):
    # what _scan needs of one command: its flags, {flag: dest}; the
    # positionals it requires; and the namespace argparse starts from, every
    # dest None but --format's "text", with the command
    names = [name for name, _ in arguments]
    defaults = dict.fromkeys([name.lstrip("-") for name in names], None)
    defaults["command"] = command
    if "format" in defaults:
        defaults["format"] = "text"
    return ({name: name[2:] for name in names if name[:2] == "--"},
            tuple(name for name in names if name[:1] != "-" and name != "expr"), defaults)


_SCAN = {command: _scan_spec(command, arguments)
         for command, (_, _, arguments) in COMMANDS.items()}


def _scan(argv: list[str]) -> SimpleNamespace | None:
    # The namespace argparse builds for argv, read in one pass over it, or
    # None wherever argparse could read it otherwise or must write something:
    # an unknown command; any token starting with "-" that is not one of the
    # command's flags, alone or as --flag=value (so -h, --help, an
    # abbreviation, "--" and "-"); a separate value starting with "-", but
    # for a negative integer; an empty or "--" value after "="; a flag given
    # twice; a --format outside FORMATS; positionals on both sides of a flag,
    # or too few or too many of them.
    spec = _SCAN.get(argv[0]) if argv else None
    if spec is None:
        return None
    flags, required, defaults = spec
    values = {}
    positionals = []
    closed = False  # a flag has followed a positional
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            flag, eq, value = token.partition("=")
            dest = flags.get(flag)
            if dest is None or dest in values:
                return None
            if not eq:  # the value is the next token; none at the end reads as "-"
                value = next(tokens, "-")
                # argparse takes "-" and decimal digits for a negative number,
                # a value, as no flag here looks like one; any other "-" word
                # it may take for an option
                if value[:1] == "-" and not value[1:].isdecimal():
                    return None
            elif value == "" or value == "--":
                return None
            if dest == "format" and value not in FORMATS:
                return None
            values[dest] = value
            closed = bool(positionals)
        elif closed:
            return None
        else:
            positionals.append(token)
    extra = len(positionals) - len(required)
    if extra == 1:
        values["expr"] = positionals.pop(0)
    elif extra:
        return None
    values.update(zip(required, positionals))
    return SimpleNamespace(**{**defaults, **values})


def _discard_stdout():
    # after a broken pipe or a failed write, point the stdout descriptor at the
    # null device so the interpreter's final flush of what is still buffered
    # cannot fail too
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, e.g. StringIO
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    # counts and moduli may have any number of digits: lift the int/str digit limit for the call
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # A valid argv is read by the scan alone; argparse parses only the
        # ones the scan passes on, and writes every help text and usage
        # message.  No argv means sys.argv[1:], as it does to argparse.
        argv = sys.argv[1:] if argv is None else list(argv)
        try:
            args = _scan(argv) or _main_parser().parse_args(argv)
        except SystemExit:  # help or a usage error: a buffered help text must reach stdout
            if sys.stdout is not None:
                sys.stdout.flush()
            raise
        if sys.stdout is None:  # started with stdout closed
            raise ValueError("stdout is closed")
        code = COMMANDS[args.command][1](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout early, e.g. `| head`
        _discard_stdout()
        return EXIT_OK
    except OSError as exc:  # stdout failed, e.g. on a full disk
        _discard_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # includes ParseError and CapExceededError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(digit_limit)
