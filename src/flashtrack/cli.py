"""Command-line surface: code-book tooling, decoding, and the simulator.

Subcommands are thin wrappers over library calls: codebook gen/report,
encode, decode, sync-interval, lockon, and simulate. stdout carries machine
readable output (JSON, or CSV where a command offers --csv); everything
meant for humans goes to stderr. Exit status is 0 on success, 1 on a
usage error, 2 on a domain error (bad config, unknown identifier, ...).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import channel, codec, scenario, signal
from .codebook import (
    MIN_BITS_ROBUST,
    MODES,
    codebook_from_json,
    codebook_to_json,
    generate_codebook,
    generate_initial_codebook,
    generate_robust_codebook,
    necklace_count,
)

USAGE_ERROR = 1
DOMAIN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_book(path: str):
    with open(path) as fh:
        return codebook_from_json(json.load(fh))


def _emit_table(args, names: list[str], rows: list[dict], payload) -> None:
    """payload as JSON; with --csv, the rows: the named columns, then one
    lock-on column per table frame rate."""
    if not args.csv:
        _emit(json.dumps(payload, sort_keys=True), args.out)
        return
    buf = io.StringIO()
    fps = [str(f) for f in codec.LOCKON_TABLE_FPS]
    writer = csv.DictWriter(buf, names + fps, extrasaction="ignore")
    writer.writeheader()
    writer.writerows({**row, **row.get("lockon_s", {})} for row in rows)
    _emit(buf.getvalue().rstrip("\n"), args.out)


def _parse_bits_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        bits = range(int(lo), int(hi) + 1)
    else:
        bits = range(int(text), int(text) + 1)
    if not bits:
        raise ValueError(f"--bits {text} is an empty range")
    return bits


def cmd_codebook_gen(args) -> int:
    book, lut = generate_codebook(args.bits, args.mode)
    _emit(json.dumps(codebook_to_json(book, lut), sort_keys=True), args.out)
    return 0


def cmd_codebook_report(args) -> int:
    bits = _parse_bits_range(args.bits)
    rows = []
    for n in bits:
        initial, _ = generate_initial_codebook(n)
        entry = {
            "bits": n,
            "necklace_classes": necklace_count(n),
            "initial_size": len(initial),
        }
        if n >= MIN_BITS_ROBUST:
            robust, _ = generate_robust_codebook(n)
            entry["robust_size"] = len(robust)
            entry["lockon_s"] = {
                str(fps): codec.lock_on_display(n, fps)
                for fps in codec.LOCKON_TABLE_FPS
            }
        rows.append(entry)
    _emit_table(args, ["bits", "necklace_classes", "initial_size", "robust_size"], rows, rows)
    return 0


def cmd_encode(args) -> int:
    book, _ = _load_book(args.book)
    word = book.word(args.id)
    _emit(json.dumps({"identifier": args.id, "word": str(word)}), args.out)
    return 0


def _decode(lut, bits) -> tuple[list[int], int]:
    """Push bits through one fresh decoder: every step's vote, and the lock."""
    decoder = codec.StreamDecoder(lut)
    votes = [decoder.push(bit).vote for bit in bits]
    return votes, decoder.identifier


def cmd_decode(args) -> int:
    _, lut = _load_book(args.book)
    if args.stream is not None:
        if args.scheme is not None:
            raise ValueError("--scheme applies to --trace only, not to --stream")
        if any(c not in "01" for c in args.stream):
            raise ValueError("stream must be a string of 0s and 1s")
        votes, identifier = _decode(lut, map(int, args.stream))
        result = {"votes": votes, "locked_identifier": identifier, "bits": len(args.stream)}
        _emit(json.dumps(result), args.out)
        return 0
    scheme = args.scheme or "hue"
    bitizer = signal.BITIZERS[scheme]
    result = {}
    for trace in signal.read_trace_csv(args.trace):
        (emitted,) = bitizer.bitize([bitizer(lut.n)], [[getattr(s, scheme) for s in trace.samples]])
        votes, identifier = _decode(lut, (bit for bits in emitted for bit in bits))
        result[str(trace.track_id)] = {"votes": votes, "locked_identifier": identifier}
    _emit(json.dumps(result, sort_keys=True), args.out)
    return 0


def cmd_sync_interval(args) -> int:
    print(f"{channel.sync_interval(args.delta_max, args.rho_ppm):g}")
    return 0


def cmd_lockon(args) -> int:
    if (args.bits is None) != (args.fps is None):
        raise ValueError("--bits and --fps must be given together")
    if args.fps is not None:
        if args.csv:
            raise ValueError("--csv applies to the table only, not to one --bits/--fps value")
        _emit(codec.lock_on_display(args.bits, args.fps), args.out)
        return 0
    table = {
        str(n): {"size": row["size"], "lockon_s": {str(f): v for f, v in row["lockon_s"].items()}}
        for n, row in codec.render_lockon_table().items()
    }
    _emit_table(args, ["bits", "size"], [dict(row, bits=n) for n, row in table.items()], table)
    return 0


def cmd_simulate(args) -> int:
    with open(args.scenario) as fh:
        raw = json.load(fh)
    config = scenario.ScenarioConfig.from_dict(raw)
    report = scenario.run(config, debug_truth=args.debug_truth)
    _emit(report.to_json(), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="flashtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_book = sub.add_parser("codebook", help="generate or summarize code-books")
    book_sub = p_book.add_subparsers(dest="book_command", required=True, parser_class=_Parser)

    p_gen = book_sub.add_parser("gen", help="generate one code-book as JSON")
    p_gen.add_argument("--bits", type=int, required=True)
    p_gen.add_argument("--mode", choices=MODES, required=True)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_codebook_gen)

    p_rep = book_sub.add_parser("report", help="sizes and lock-on grid over a range of n")
    p_rep.add_argument("--bits", required=True, metavar="LO..HI")
    p_rep.add_argument("--csv", action="store_true")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_codebook_report)

    p_enc = sub.add_parser("encode", help="look up the word for an identifier")
    p_enc.add_argument("--book", required=True)
    p_enc.add_argument("--id", type=int, required=True)
    p_enc.add_argument("--out")
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a bit string or a trace CSV")
    p_dec.add_argument("--book", required=True)
    src = p_dec.add_mutually_exclusive_group(required=True)
    src.add_argument("--stream", help="bit string, oldest bit first")
    src.add_argument("--trace", help="trace CSV as written by the signal module")
    p_dec.add_argument(
        "--scheme", choices=tuple(signal.BITIZERS), help="sample field of a --trace (default hue)"
    )
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decode)

    p_sync = sub.add_parser("sync-interval", help="heartbeat period for a desync budget")
    p_sync.add_argument("--delta-max", type=float, required=True, metavar="SECONDS")
    p_sync.add_argument("--rho-ppm", type=float, required=True)
    p_sync.set_defaults(func=cmd_sync_interval)

    p_lock = sub.add_parser("lockon", help="lock-on time (single value or full table)")
    p_lock.add_argument("--bits", type=int)
    p_lock.add_argument("--fps", type=float)
    p_lock.add_argument("--csv", action="store_true")
    p_lock.add_argument("--out")
    p_lock.set_defaults(func=cmd_lockon)

    p_sim = sub.add_parser("simulate", help="run a scenario file end to end")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out")
    p_sim.add_argument("--debug-truth", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"flashtrack: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
