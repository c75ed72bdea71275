"""Command-line front end: solve, enumerate, check, verify.

Exit codes: 0 success (also when the reader of stdout closes it early),
2 usage/parse/sizing error, a closed or failing stdin or stdout, or memory
running out, 3 unsolvable instance, 4 oracle disagreement.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from itertools import islice, product, repeat
from types import SimpleNamespace

from .core import (LinearCongruence, SolveSummary, _blocks, iter_basis, normalize, satisfies,
                   summarize)
from .parser import ParsedCongruence, ParseError, format_congruence, parse, parse_integer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSOLVABLE = 3
EXIT_MISMATCH = 4

BATCH_SIZE = 200  # instances checked by `verify --seed`
_LONG_BITS = 3322  # bits of 10**1000: from this bound on p1's bits, _counts writes p1 in decimal


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


def _counts(c: LinearCongruence, modulus: str | None = None) -> tuple[str, str, str, str]:
    # The one renderer of the four counts, d, p1, p2 and s, as decimal
    # strings; modulus is m's digits as parse kept them, or None for an
    # instance read from flags or built from ints.  Before Python 3.12
    # int -> str is quadratic, so once the bound on p1's bits,
    # bits(d) + (n - 1) * bits(m), reaches 3,322 (1,000 digits) p1 is written
    # as d * m**(n - 1) computed in decimal, whose products are subquadratic;
    # below that str is faster.  The decimal m is built from the kept digits,
    # a linear conversion where Decimal(m) of the int is quadratic.  So when
    # p2 has at most a quarter of the bits of the bound less bits(p2), at
    # least bits(s) - 1, s is read off p1 by one exact division by p2, and
    # neither int is built.
    # Otherwise s is read from the summary, and p2 is read off p1 by one exact
    # division by s when it has at least 3,322 bits and s at most a quarter
    # of them; with a longer cofactor, int -> str is faster.  The precision
    # bounds p1's digits, floor(bound * log10(2)) + 1, so every result is
    # exact and an inexact one is a bug and raises; Emax lifts the default
    # bound of a million digits.  Both sides of each cutover write the same
    # digits.
    s = c.summary
    d = f"{s.gcd_all}"
    if c.arity == 1:  # p1 = p2 = gcd(a1, m) = d, so s = 1
        return d, d, d, "1"
    bits = s.gcd_all.bit_length() + (c.arity - 1) * c.modulus.bit_length()
    if bits < _LONG_BITS:
        return d, f"{s.solution_count}", f"{s.expansion_count}", f"{s.basis_size}"
    import decimal  # only long counts need it

    context = decimal.Context(prec=bits * 30103 // 100000 + 1,
                              Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    p1 = context.multiply(context.power(decimal.Decimal(modulus or c.modulus), c.arity - 1),
                          decimal.Decimal(d))
    p2 = s.expansion_count
    s_bits = bits - p2.bit_length()  # at least bits(s) - 1
    if 4 * p2.bit_length() <= s_bits:
        return d, f"{p1:f}", f"{p2}", f"{context.divide(p1, p2):f}"
    basis_size = s.basis_size
    if p2.bit_length() >= _LONG_BITS and 4 * basis_size.bit_length() <= p2.bit_length():
        return d, f"{p1:f}", f"{context.divide(p1, basis_size):f}", f"{basis_size}"
    return d, f"{p1:f}", f"{p2}", f"{basis_size}"


def _write(out, c: LinearCongruence, parsed: ParsedCongruence, limit: int | None,
           as_json: bool, expand: bool) -> int:
    # The one writer of all that solve (expand False) and enumerate (expand
    # True) write to out, and to no other stream; an unsolvable enumerate
    # writes nothing and exits 3.  The head is the JSON document's
    # opening for both commands, and the counting summary for a text solve, the
    # one reader of parsed; a text enumerate has none.  Both heads take the
    # counts from one _counts call, and an unsolvable solve writes its head
    # with no rows and exits 3.  Then come the rows, at most `limit` of them
    # (None: all), and the cut mark.  The test of `left` below is the one rule
    # for a call that writes no row: _write_rows writes at least one row and
    # its close, so it is called only when a row is due, and a limit of 0 and
    # an unsolvable solve build no stream: no walk, no blocks and no row format.
    # A limit of 0, and any limit below the bound on the rows there are,
    # reads neither p1 nor s: a solvable instance has at least one row of
    # each, so the cut mark is written.  The whole JSON document is written by
    # hand, as json.dumps would write it: counts are _counts' decimal strings,
    # as they can exceed any fixed integer width, and an unsolvable solve has
    # no rows key
    s = summarize(c)
    if expand and not s.solvable:
        return EXIT_UNSOLVABLE
    if as_json or not expand:
        d, p1, p2, basis_size = _counts(c, parsed.digits and parsed.digits[-1])
        solvable = "true" if s.solvable else "false"
        if as_json:
            out.write(f'{{"d": "{d}", "solvable": {solvable}, "p1": "{p1}", "p2": "{p2}", '
                      f'"s": "{basis_size}"'
                      + (f', "{"solutions" if expand else "basis"}": [' if s.solvable else ""))
        else:
            out.write(f"congruence: {format_congruence(parsed)}\nd = {d}\n"
                      f"solvable = {solvable}\nsolutions (p1) = {p1}\nper-seed (p2) = {p2}\n"
                      f"basis size (s) = {basis_size}\n" + ("basis:\n" if s.solvable else ""))
    # a solvable instance has at least one row, p1 >= 2**E rows with
    # E = bits(d) - 1 + (n - 1) * (bits(m) - 1), and s > 2**(E - bits(p2)) basis
    # rows: a limit of 0, or of no more bits than that exponent, is cut there
    # and reads neither count
    if s.solvable and limit is not None and (limit == 0 or limit.bit_length() <= (
            s.gcd_all.bit_length() - 1 + (c.arity - 1) * (c.modulus.bit_length() - 1)
            - (0 if expand else s.expansion_count.bit_length()))):
        left, truncated = limit, True
    else:
        total = (s.solution_count if expand else s.basis_size) if s.solvable else 0
        left = total if limit is None else min(limit, total)  # rows still to write
        truncated = left < total
    if left:
        _write_rows(out, c, s, left, as_json, expand)
    if as_json:
        truncation = "true" if truncated else "false"
        out.write(f'{"]" if s.solvable else ""}, "truncated": {truncation}}}\n')
    elif truncated:
        out.write("# truncated\n")
    return EXIT_OK if s.solvable else EXIT_UNSOLVABLE


def _write_rows(out, c: LinearCongruence, s: SolveSummary, left: int, as_json: bool,
                expand: bool) -> None:
    # The first `left` >= 1 rows of _write's stream, to out, and the close of
    # the last: the basis rows, or their expansions when expand is True.
    # Every basis row expands into p2 >= 1 rows, so the first ceil(left / p2)
    # carry every row written and no later one is pulled (islice takes no
    # stop above sys.maxsize): a stream that batches its seeds, as a
    # seed-major one does, builds fewer than p2 rows past the last.
    # _blocks' (prefixes, block) pairs, whose paths its comment describes,
    # are written as they come and never held whole, each prefix with the
    # whole block in turn; the last pair is cut to the rows left, and none
    # after it is pulled.  A row leads with its glue, close + joiner, which
    # ends the row before it: lead is the glue, opening and a "%d" and sep
    # for each leading value, so the n - depth values of a prefix format it
    # once, and tail, the rendering of the rest after a leading "", is joined
    # by it into all the prefix's rows as one string, as json.dumps writes
    # them for JSON ("%d" renders an int as str() does).  The stream's first
    # glue is dropped, and close is written after the last row.  Lone values
    # (depth 1) are rendered by str, faster than "%d", and a deeper block's
    # cycles a value at a time; a block is rendered once and reused while the
    # next compares equal (O(1) for ranges), as all the prefixes of a seed
    # take the same one.  A group's fixed lead is formatted once, and its
    # heads come from one join of its slice, split at "\0", which no row
    # text holds.
    # the seeds are constructed solutions, so they skip expand()'s seed check
    seeds = islice(iter_basis(c), min(-(-left // s.expansion_count) if expand else left,
                                      sys.maxsize))
    opening, sep, close, joiner = ("[", ", ", "]", ", ") if as_json else ("", " ", "\n", "")
    glue = close + joiner
    skip = len(glue)  # the stream's first row follows no other
    (path, depth), pairs = _blocks(seeds, c, expand)
    group, whole = path == "groups", path in ("seeds", "seed-major")
    lead = glue + opening + ("%d" + sep) * (c.arity - depth - group)
    render = sep.join(["%d"] * depth).__mod__ if whole else str
    shown = ()
    for prefixes, block in pairs:
        if block != shown:  # a deep block's cycles: each value rendered once
            tail = ["", *(map(render, block) if whole or depth == 1 else
                          map(sep.join, product(*[list(map(str, cycle)) for cycle in block])))]
            shown, size = block, len(tail) - 1
        if group:  # the fixed lead once, then each head that holds rows still to write
            fixed, part = prefixes
            part = part[:-(-left // size)]
            pre = lead % fixed
            heads = (pre + (sep + "\0" + pre).join(map(str, part)) + sep).split("\0")
            left -= size * len(heads)
            last = heads.pop().join(tail if left >= 0 else tail[:left])
            text = "".join([*map(str.join, heads, repeat(tail)), last])
        else:
            left -= size
            text = (lead % prefixes[0]).join(tail if left >= 0 else tail[:left])
        out.write(text[skip:])
        if left <= 0:
            break
        skip = 0
    out.write(close)


def cmd_solve(args, expand: bool = False) -> int:
    # solve's body, and enumerate's with expand True.  Errors come in a fixed
    # order: the instance's, then --limit's, both raised for main to report,
    # then an unsolvable enumerate's stderr line, written here, not by _write
    c, parsed = _load_instance(args)
    limit = _flag_int(args.limit, "--limit", nonnegative=True)
    if expand and not (s := summarize(c)).solvable:
        print(f"error: unsolvable: d = {s.gcd_all} does not divide b = {c.rhs}",
              file=sys.stderr)
        return EXIT_UNSOLVABLE
    return _write(sys.stdout, c, parsed, limit, args.format == "json", expand)


def cmd_enumerate(args) -> int:
    return cmd_solve(args, expand=True)


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

    class Value(argparse.Action):  # every flag's action: it stores one value
        def __call__(self, parser, namespace, values, option_string=None):
            # argparse strips "--" from a flag's values, so --limit=-- reaches
            # here as an empty list, which no command could read
            if not isinstance(values, str):
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

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
                p.add_argument(name, action=Value, choices=FORMATS, default="text")
            elif name[:2] == "--":
                p.add_argument(name, action=Value, help=text)
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
    except MemoryError:  # e.g. verify's scan of a set too large for memory, past a raised --cap
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(digit_limit)
