"""Command-line surface: quasifixed, density, iq, fold, certify, verify.

Every subcommand prints the same content as JSON or as indented text, takes
all randomness from an explicit seed, and uses stable exit codes:
0 success/verified, 1 not-found or failed verification, 2 usage or parse
errors (including cap breaches, except that `density` reports the degrees it
scanned below a cap as not found). A canonical argv (a subcommand, then each
option spelled out in full with its value; see `_reader`) is read straight
from the subcommand's `SUBCOMMANDS` entry without a parser. Every other argv
(help, errors, abbreviations, `=` forms, values starting with `-`, and all of
`fold`) goes to the one argparse tree, `build_parser`, built on first use.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Iterable, Iterator

from .certify import (MAX_CERTIFICATE_BYTES, MAX_VERIFY_WORK, CertifyConfig, CertifyError,
                      search_certificate, verify_bytes, verify_work)
from .dynamics import (
    EnumerationCapExceeded,
    VarietySpec,
    check_degree_caps,
    scan_quasi_fixed,
    witness_coeffs,
)
from .freegroup import FreeEndo, Word, WordError, stallings_fold, subgroup_rank
from .gf import DEFAULT_ORDER_CAP, _digits
from .poly import IqSystem, PolyError, PolyMap, TermBudgetExceeded, parse_poly

# ValueError covers the parse, word, field and certificate errors
USAGE_ERRORS = (ValueError, OSError, EnumerationCapExceeded, TermBudgetExceeded)
# certify's byte cap on its endomorphism file: json.dumps writes an image in at
# most 4 + 2 * indent bytes more than its letters, and `verify_work` counts each
# image as a letter at least, so every file it writes, at an indent of up to 4,
# of images within the work cap is below 13 * MAX_VERIFY_WORK + 64 bytes
MAX_ENDO_BYTES = 16 * MAX_VERIFY_WORK


def _int(text: str) -> int:
    """An integer option: ASCII digits after an optional minus sign (`int` takes `1_009`, `٣`)."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past Python's digit limit
            pass
    raise ValueError(f"invalid int value: {text!r}")


def _render_text(value: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(item)}")
        return lines
    for item in value:
        if isinstance(item, (dict, list)):
            lines.append(f"{pad}-")
            lines.extend(_render_text(item, indent + 1))
        else:
            lines.append(f"{pad}- {json.dumps(item)}")
    return lines


# type -> the writer of a JSON leaf of that type, as `json.dumps` writes it
_leaf_writer = {int: repr, str: encode_basestring_ascii,
                bool: {False: "false", True: "true"}.__getitem__}.get


def _render_json(value: Any, pad: str = "") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for payloads with str keys.

    `json.dumps` with an indent runs the pure-Python encoder; this writes the
    same text with a call per container, each writing the leaves of the
    `_leaf_writer` types in place (strings by the C encoder that `json.dumps`
    uses).
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{\n" + inner + (",\n" + inner).join([
            encode_basestring_ascii(key) + ": "
            + (put(item) if (put := _leaf_writer(type(item))) else _render_json(item, inner))
            for key, item in sorted(value.items())]) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[\n" + inner + (",\n" + inner).join([
            put(item) if (put := _leaf_writer(type(item))) else _render_json(item, inner)
            for item in value]) + "\n" + pad + "]"
    return json.dumps(value)


# the payload value that `emit` replaces by the pieces it is given; both
# writers render it after its key as `: "\u0000"`
_PIECES = "\0"


def emit(data: dict, fmt: str, out_path: str | None, pieces: Iterable[str] | None = None) -> None:
    """Write data as JSON or text; with pieces, its one `_PIECES` value is
    written as those, from its key's colon on."""
    if fmt == "json":
        text = _render_json(data) + "\n"
    else:
        text = "\n".join(_render_text(data)) + "\n"
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as handle:
        if pieces is None:
            handle.write(text)
        else:
            head, tail = text.split(': "\\u0000"')
            handle.write(head)
            handle.writelines(pieces)
            handle.write(tail)


class _Texts(dict):
    """A dict that makes a missing key's value with `make`, and keeps the
    first 1,024 values it makes."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if len(self) < 1024:
            self[key] = value
        return value


# per format, how `_render_json` (at the payload's top level) and `_render_text`
# lay out a witness list: (its head, between witnesses, its tail, the empty list,
# between a witness's coordinates) ...
_LIST_LAYOUT = {"json": (": [\n    ", ",\n    ", "\n  ]", ": []", ",\n        "),
                "text": (":\n", "\n", "", ":", "\n")}
# ... and a witness: (its head with m and p, its tail with s, a coordinate's
# head, between its coefficients, its tail)
_WITNESS_LAYOUT = {
    "json": ('{\n      "m": %d,\n      "p": %d,\n      "point": [\n        ',
             '\n      ],\n      "s": %d\n    }', "[\n          ", ",\n          ", "\n        ]"),
    "text": ("  -\n    m: %d\n    p: %d\n    point:\n", "\n    s: %d",
             "      -\n        - ", "\n        - ", ""),
}
# witnesses written per piece
_PIECE = 1024


@functools.lru_cache(maxsize=32)
def _witness_texts(fmt: str, p: int, s: int) -> tuple[_Texts, _Texts, _Texts, str]:
    """(first, last, heads, tail): the texts of `_witness_pieces` for witnesses
    over F_{p^s}, made as they occur and kept for the next call.

    A coordinate of digit-reversed index r is first[r // p^(s - s // 2)]
    + last[r % p^(s - s // 2)]: the text of its coefficients c_0 ... c_(s//2 - 1)
    and that of the rest, so each table has at most p^(s - s // 2) keys (1,024
    for p = 2 within the order cap).  A witness with least m starts with
    heads[m] and ends with tail.
    """
    head, tail, coord_head, sep, coord_tail = _WITNESS_LAYOUT[fmt]
    return (_Texts(lambda a: coord_head + "".join(
                f"{c}{sep}" for c in reversed(_digits(a, p, s // 2)))),
            _Texts(lambda b: sep.join(map(str, reversed(_digits(b, p, s - s // 2))))
                   + coord_tail),
            _Texts(lambda m: head % (m, p)), tail % s)


def _witness_pieces(degrees: list, nvars: int, fmt: str) -> Iterator[str]:
    """The witness list of `scan_quasi_fixed`'s (field, keys) degrees as
    `emit` writes a `_PIECES` value, _PIECE witnesses a piece."""
    lead, between, close, empty, inner = _LIST_LAYOUT[fmt]
    if not any(keys for _, keys in degrees):
        yield empty
        return
    for field, keys in degrees:
        p, s = field.p, field.m
        q, split = p**s, p**(s - s // 2)
        first, last, heads, end = _witness_texts(fmt, p, s)
        for start in range(0, len(keys), _PIECE):
            rest, cols = keys[start:start + _PIECE], []
            for _ in range(nvars):
                cols.append([first[r // split] + last[r % split] for r in [k % q for k in rest]])
                rest = [k // q for k in rest]
            points = cols[0] if nvars == 1 else map(inner.join, zip(*reversed(cols)))
            yield lead + between.join([heads[m] + point + end for m, point in zip(rest, points)])
            lead = between
    yield close


def _split_polys(raw: str) -> list[str]:
    return [chunk.strip() for chunk in raw.split(",")]


def cmd_quasifixed(args) -> int:
    pmap = PolyMap.parse(_split_polys(args.map), args.n, args.p)
    for s in range(1, args.smax + 1):  # refuse before enumerating anything
        check_degree_caps(pmap, s)
    degrees = list(scan_quasi_fixed(pmap, args.smax))
    emit({"command": "quasifixed", "p": args.p, "nvars": args.n,
          "map": [f.to_text() for f in pmap.coords], "smax": args.smax,
          "count": sum(len(keys) for _, keys in degrees), "witnesses": _PIECES},
         args.format, args.out, _witness_pieces(degrees, args.n, args.format))
    return 0


def cmd_density(args) -> int:
    pmap = PolyMap.parse(_split_polys(args.map), args.n, args.p)
    v_texts = _split_polys(args.v) if args.v else []
    v = VarietySpec.parse(v_texts, args.n, args.p)
    w_spec = parse_poly(args.w, args.n, args.p)
    # the caps grow with the degree, so the scan stops at the first degree past one
    scanned, stopped_by = args.smax, None
    for s in range(1, args.smax + 1):
        try:
            check_degree_caps(pmap, s)
        except EnumerationCapExceeded as exc:
            scanned, stopped_by = s - 1, str(exc)
            break
    witness = None
    if scanned or stopped_by is None:  # --smax below 1 is refused by the search
        for field, keys in scan_quasi_fixed(pmap, scanned, v, w_spec):
            if keys:
                m, coeffs = witness_coeffs(keys[0], args.p, field.m, args.n)
                witness = {"p": args.p, "s": field.m, "m": m, "point": list(map(list, coeffs))}
                break
    payload = {"command": "density", "p": args.p, "nvars": args.n,
               "map": [f.to_text() for f in pmap.coords],
               "variety": [f.to_text() for f in v.polys],
               "avoid": w_spec.to_text(), "smax": args.smax,
               "found": witness is not None}
    if witness is None:
        payload["frontier"] = {"smax_scanned": scanned, "order_cap": DEFAULT_ORDER_CAP}
        if stopped_by is not None:
            payload["frontier"]["stopped_by"] = stopped_by
        emit(payload, args.format, args.out)
        return 1
    payload["witness"] = witness
    emit(payload, args.format, args.out)
    return 0


def cmd_iq(args) -> int:
    if args.j < 1:
        raise PolyError(f"--j must be >= 1, got {args.j}")
    pmap = PolyMap.parse(_split_polys(args.map), args.n, args.p)
    system = IqSystem(pmap, args.q)
    # the payload prints the dimension Q^n, in [2^(n(b - 1)), 2^(nb)) for b the bit length
    # of Q: refuse one past the interpreter's digit limit (0, or absent before Python 3.10.7,
    # for none) now, forming powers only between 2^(3 limit) < 10^limit < 2^(4 limit)
    if limit := getattr(sys, "get_int_max_str_digits", int)():
        b, n = args.q.bit_length(), args.n
        if n * b > 3 * limit and (n * (b - 1) >= 4 * limit or args.q**n >= 10**limit):
            raise PolyError(f"the dimension Q^n has more than {limit} digits, the interpreter's "
                            "limit for printing an integer (sys.get_int_max_str_digits())")
    congruence = {str(j): system.iterate_congruence_check(j)
                  for j in range(1, args.j + 1)}
    emit({"command": "iq", "p": args.p, "nvars": args.n,
          "map": [f.to_text() for f in pmap.coords], "Q": args.q,
          "dimension": system.quotient_dimension(), "congruence": congruence},
         args.format, args.out)
    return 0


def cmd_fold(args) -> int:
    size = sum(map(len, args.words))
    if size > MAX_VERIFY_WORK:  # the cap certify's injectivity fold runs under
        raise WordError(f"words total {size} characters, past the work cap "
                        f"MAX_VERIFY_WORK = {MAX_VERIFY_WORK}")
    words = [Word.parse(text, args.k) for text in args.words]
    graph = stallings_fold(words, args.k)
    emit({"command": "fold", "k": args.k,
          "words": [w.to_text() for w in words],
          "vertices": len(graph.vertices), "edges": len(graph.edges),
          "rank": subgroup_rank(graph)},
         args.format, args.out)
    return 0


def cmd_certify(args) -> int:
    text = _read_capped(args.endo, MAX_ENDO_BYTES, "endomorphism file").decode("utf-8")
    try:
        endo_data = json.loads(text)
    except RecursionError as exc:
        raise WordError(f"{args.endo}: JSON nested too deeply") from exc
    # refuse by the raw text, before any word is parsed, what the search refuses by the words
    images = endo_data.get("images") if isinstance(endo_data, dict) else None
    if (isinstance(images, list) and all(isinstance(t, str) for t in images)
            and verify_work(1, images, args.word) > MAX_VERIFY_WORK):
        raise CertifyError(f"images and word exceed the verifier's work cap {MAX_VERIFY_WORK}")
    phi = FreeEndo.from_dict(endo_data)
    w = Word.parse(args.word, phi.rank)
    config = CertifyConfig(s_max=args.smax, seeds_per_field=args.seeds,
                           orbit_budget=args.budget, seed=args.seed,
                           allow_noninjective=args.allow_noninjective)
    outcome = search_certificate(phi, w, config)
    if not outcome.found:
        emit({"command": "certify", "found": False, "reason": outcome.reason,
              "frontier": [{"p": p, "s": s, "seeds": n}
                           for (p, s, n) in outcome.frontier]},
             args.format, None)
        return 1
    cert = outcome.certificate
    with open(args.out, "wb") as handle:
        handle.write(cert.to_bytes())
    # the search verified the certificate before returning it (and raises otherwise)
    emit({"command": "certify", "found": True, "certificate_path": args.out,
          "p": cert.p, "s": cert.s, "period": cert.period,
          "verdict": outcome.verdict.to_dict()},
         args.format, None)
    return 0


def _read_capped(path: str, limit: int, what: str) -> bytes:
    """The bytes of the file at path; past limit bytes, a ValueError that
    calls it `what`.  A file is measured before a byte of it is read, and a
    pipe or a device, which has no size, is read one byte past the cap at most."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size <= limit:
            raw = handle.read() if size else handle.read(limit + 1)
    if size > limit or len(raw) > limit:
        raise ValueError(f"{what} exceeds the byte cap of {limit} bytes")
    return raw


def cmd_verify(args) -> int:
    raw = _read_capped(args.certificate, MAX_CERTIFICATE_BYTES, "certificate file")
    verdict = verify_bytes(raw)
    emit({"command": "verify", "certificate_path": args.certificate,
          "verdict": verdict.to_dict()},
         args.format, args.out)
    return 0 if verdict.passed else 1


_int.__name__ = "int"  # argparse words a type's ValueError `invalid <__name__> value: ...`
_FORMAT = ("--format", dict(choices=("json", "text"), default="text"))
_OUT = ("--out", dict(default=None, help="write output to a file"))
_CERTIFY = CertifyConfig._field_defaults

# name -> (help, handler, arguments): the one definition of each subcommand
SUBCOMMANDS = {
    "quasifixed": ("enumerate quasi-fixed witnesses", cmd_quasifixed, (
        ("--p", dict(type=_int, required=True, help="characteristic")),
        ("--n", dict(type=_int, required=True, help="number of variables")),
        ("--map", dict(required=True,
                       help="comma-separated coordinate polynomials, e.g. 'x1^2,x1*x2'")),
        ("--smax", dict(type=_int, default=3, help="largest field degree")), _FORMAT, _OUT)),
    "density": ("find a quasi-fixed witness avoiding W", cmd_density, (
        ("--p", dict(type=_int, required=True)), ("--n", dict(type=_int, required=True)),
        ("--map", dict(required=True)),
        ("--v", dict(default="", help="variety polynomials (empty = all of A^n)")),
        ("--w", dict(required=True, help="polynomial cutting out the set to avoid")),
        ("--smax", dict(type=_int, default=4)), _FORMAT, _OUT)),
    "iq": ("quotient dimension and iterate congruences", cmd_iq, (
        ("--p", dict(type=_int, required=True)), ("--n", dict(type=_int, required=True)),
        ("--map", dict(required=True)),
        ("--q", dict(type=_int, required=True, help="the power Q of p")),
        ("--j", dict(type=_int, default=2, help="check iterates 1..j")), _FORMAT, _OUT)),
    "fold": ("fold words and report the subgroup rank", cmd_fold, (
        ("--k", dict(type=_int, required=True, help="ambient free-group rank")),
        ("words", dict(nargs="+", help="words generating the subgroup")), _FORMAT, _OUT)),
    "certify": ("search a finite-quotient certificate", cmd_certify, (
        ("--endo", dict(required=True, help="JSON file {\"rank\": k, \"images\": [...]}")),
        ("--word", dict(required=True, help="word to separate from 1")),
        ("--seed", dict(type=_int, default=_CERTIFY["seed"])),
        ("--smax", dict(type=_int, default=_CERTIFY["s_max"])),
        ("--seeds", dict(type=_int, default=_CERTIFY["seeds_per_field"],
                         help="seeds per field degree")),
        ("--budget", dict(type=_int, default=_CERTIFY["orbit_budget"],
                          help="orbit step budget")),
        ("--allow-noninjective", dict(action="store_true")), _FORMAT,
        ("--out", dict(default="certificate.json", help="certificate file path")))),
    "verify": ("independently verify a certificate file", cmd_verify, (
        ("certificate", dict(help="certificate JSON file")), _FORMAT, _OUT)),
}


# the option keys `_reader` reads; an argument with any other key (`nargs`, say)
# leaves its subcommand to argparse alone
_READABLE = {"type", "required", "default", "choices", "help", "action"}


@functools.cache
def _reader(name: str):
    """The reader of canonical argv for subcommand `name`, derived from its
    `SUBCOMMANDS` entry; it reads no argv at all when an argument of the
    subcommand has a key outside `_READABLE` or an action but `store_true`.

    Canonical argv spells every option out in full; a `store_true` option
    stands alone, any other takes the next token as its value, which does not
    start with `-`, converts with the option's type and lies in its choices;
    a token that does not start with `-` fills the next positional; and every
    required argument is there. For such argv the reader returns the namespace
    that `build_parser` gives; for any other it returns None, so that
    argparse writes every help text and error and reads abbreviations and
    `=` forms.
    """
    _, handler, arguments = SUBCOMMANDS[name]
    flags, positionals, required = {}, [], set()
    defaults = {"subcommand": name, "func": handler}
    for flag, options in arguments:
        alone = options.get("action") == "store_true"
        default = options.get("default", False if alone else None)
        if not options.keys() <= _READABLE or "action" in options and not alone:
            return lambda tokens: None
        if flag.startswith("-"):
            dest = flag.lstrip("-").replace("-", "_")
            flags[flag] = (dest, alone, options.get("type"), options.get("choices"))
            if options.get("required"):
                required.add(dest)
        else:
            dest = flag
            positionals.append(dest)
            required.add(dest)
        defaults[dest] = default

    def read(tokens: list[str]) -> SimpleNamespace | None:
        values, seen, slots = dict(defaults), set(), iter(positionals)
        tokens = iter(tokens)
        for token in tokens:
            if not token.startswith("-"):
                dest = next(slots, None)
                if dest is None:
                    return None
            elif token in flags:
                dest, alone, convert, choices = flags[token]
                if alone:
                    token = True
                else:
                    token = next(tokens, "-")
                    if token.startswith("-"):
                        return None
                    if convert is not None:
                        try:
                            token = convert(token)
                        except (TypeError, ValueError):
                            return None
                    if choices is not None and token not in choices:
                        return None
            else:
                return None
            values[dest] = token
            seen.add(dest)
        return SimpleNamespace(**values) if required <= seen else None

    return read


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `quasifix` parser tree, one subparser per `SUBCOMMANDS` entry; it reads
    every argv that `_reader` declines."""
    import argparse  # only here: a canonical argv never loads it
    parser = argparse.ArgumentParser(
        prog="quasifix",
        description="Quasi-fixed points of polynomial maps over finite fields "
                    "and finite-quotient certificates for free-group mapping tori.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
        subparser.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _reader(argv[0])(argv[1:]) if argv and argv[0] in SUBCOMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv, SimpleNamespace())
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # unwinding freed what its frames held, so printing works
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
