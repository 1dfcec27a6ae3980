"""Command-line front end.

Subcommands mirror the library one to one: encode, decode, capacity,
tempo, evaluate, make-carrier, split. Channel flags default to the
StegoParams defaults. On failure the process exits nonzero and
prints "error: <ErrorName>: detail" on stderr so scripts can match on
the error name.

Each subcommand imports the modules it uses when it runs, so the parser,
`--help`, an argument error and `capacity` (a WAV header and the slice
plan) never load numpy.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .bits import BitString, parse_bitstring, text_to_bits
from .errors import StegoError, UnsupportedFormat
from .plan import (CARRIER_RATE, CARRIER_SEED, SPLIT_MIN_SILENCE_S, SPLIT_THRESHOLD_DBFS,
                   BoundaryMode, StegoParams, plan_slices)
from .wavheader import MAX_WRITE_RATE, wav_frames


# Channel flags by StegoParams field: (flag, type, help). A subcommand
# takes only those that change its result: --phi and --delta shape the
# stego file, the rest tune the decoder alone.
_PARAM_FLAGS = {
    "phi_s": ("--phi", float, "slice length in seconds"),
    "delta": ("--delta", float, "tempo offset fraction (0.01 = 1%%)"),
    "trim_frac": ("--trim", float, "fraction trimmed per slice edge"),
    "discard_pct": ("--discard", float, "attribute discard gate in percent"),
    "boundary_mode": ("--mode", BoundaryMode, "decoder slice boundary mode: tracked or static"),
}


def _add_param_flags(p: argparse.ArgumentParser, *fields: str) -> None:
    """Add the flags of these StegoParams fields, with their defaults."""
    d = StegoParams()
    for field in fields:
        flag, kind, text = _PARAM_FLAGS[field]
        p.add_argument(flag, dest=field, metavar=flag[2:].upper(), type=kind,
                       default=getattr(d, field), help=text)


def _params_from(args: argparse.Namespace) -> StegoParams:
    return StegoParams(**{f: getattr(args, f) for f in _PARAM_FLAGS if hasattr(args, f)})


def _add_payload_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="payload as 8-bit text")
    group.add_argument("--bits", help='payload as a bit string, e.g. "1 1 0 1" or "1101"')
    group.add_argument("--hex", help="payload as hex bytes, e.g. deadbeef")


def _payload_from(args: argparse.Namespace) -> BitString:
    if args.text is not None:
        return text_to_bits(args.text)
    if args.bits is not None:
        return parse_bitstring(args.bits)
    return text_to_bits(bytes.fromhex(args.hex).decode("latin-1"))


# --perturb NAME:VALUE by NAME: the perturbation class in harness, and
# the type VALUE is read as
_PERTURBATIONS = {"noise": ("Noise", float), "gain": ("Gain", float),
                  "resample": ("ResampleRoundTrip", int)}


def _parse_perturb(spec: str):
    from . import harness

    name, _, value = spec.partition(":")
    if name not in _PERTURBATIONS:
        raise ValueError(f"unknown perturbation {spec!r}; use noise:SNR, gain:F, or resample:RATE")
    kind, value_type = _PERTURBATIONS[name]
    return getattr(harness, kind)(value_type(value))


def _parse_generate(spec: str) -> list[tuple[float, float]]:
    items = []
    for part in spec.split(","):
        bpm_s, _, dur_s = part.partition("@")
        if not dur_s:
            raise ValueError(f"bad --generate item {part!r}; use BPM@SECONDS")
        items.append((float(bpm_s), float(dur_s)))
    return items


def _cmd_encode(args) -> int:
    from .audio import read_wav, write_wav
    from .codec import encode

    params = _params_from(args)
    message = _payload_from(args)
    carrier = read_wav(getattr(args, "in"))
    cap = plan_slices(len(carrier), carrier.sample_rate, params).capacity
    stego = encode(carrier, message, params)
    write_wav(stego, args.out)
    print(f"embedded {len(message)} bits (capacity {cap}) -> {args.out}")
    return 0


def _cmd_decode(args) -> int:
    from .audio import read_wav
    from .codec import decode

    params = _params_from(args)
    stego = read_wav(getattr(args, "in"))
    report = decode(
        stego, params, max_bits=args.max_bits, force_decide=args.force_decide
    )
    print(str(report.bits))
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if args.report:
        import json

        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.report}", file=sys.stderr)
    return 0


def _cmd_capacity(args) -> int:
    # the header alone gives the length and rate; no sample is read
    params = _params_from(args)
    n, sample_rate = wav_frames(getattr(args, "in"))
    print(plan_slices(n, sample_rate, params).capacity)
    return 0


def _cmd_tempo(args) -> int:
    from .audio import read_wav, slice_buffer
    from .tempo import estimate_tempo

    buf = read_wav(getattr(args, "in"))
    if args.from_s is not None or args.to_s is not None:
        start = args.from_s if args.from_s is not None else 0.0
        end = args.to_s if args.to_s is not None else buf.duration_s
        buf = slice_buffer(buf, start, end)
    cands = estimate_tempo(buf)
    for bpm, strength in cands.entries:
        print(f"{bpm:.2f} {strength:.3f}")
    return 0


def _cmd_evaluate(args) -> int:
    from .audio import read_wav
    from .harness import evaluate, generate_click_track

    params = _params_from(args)
    message = _payload_from(args)
    if args.carriers:
        paths = sorted(
            os.path.join(args.carriers, f)
            for f in os.listdir(args.carriers)
            if f.lower().endswith(".wav")
        )
        if not paths:
            raise ValueError(f"no .wav files in {args.carriers}")
        # one carrier in memory at a time
        carriers = (read_wav(p) for p in paths)
        names = [os.path.basename(p) for p in paths]
    else:
        items = _parse_generate(args.generate)
        carriers = (
            generate_click_track(bpm, dur, seed=i) for i, (bpm, dur) in enumerate(items)
        )
        names = [f"click-{bpm:g}bpm-{dur:g}s" for bpm, dur in items]
    perturbation = _parse_perturb(args.perturb) if args.perturb else None
    result = evaluate(carriers, message, params, perturbation=perturbation, names=names)
    print(result.format_table())
    return 0


def _cmd_make_carrier(args) -> int:
    from .audio import write_wav
    from .harness import generate_click_track

    buf = generate_click_track(
        args.bpm,
        args.duration,
        sample_rate=args.sr,
        seed=args.seed,
        subdivision=args.subdivision,
    )
    write_wav(buf, args.out)
    print(f"wrote {args.out} ({buf.duration_s:.1f} s at {args.bpm:g} BPM)")
    return 0


def _cmd_split(args) -> int:
    import shutil

    from .audio import read_wav, write_wav
    from .harness import split_on_silence

    stream = read_wav(getattr(args, "in"))
    if stream.sample_rate > MAX_WRITE_RATE:
        # refused before any directory or file is made
        raise UnsupportedFormat(f"{getattr(args, 'in')}: segments at {stream.sample_rate} Hz "
                                f"cannot be written; WAV output stops at {MAX_WRITE_RATE} Hz")
    segments = split_on_silence(
        stream, min_silence_s=args.min_silence, threshold_dbfs=args.threshold
    )
    if segments:
        top, d = None, os.path.abspath(args.out_dir)
        while not os.path.exists(d):  # the outermost directory makedirs makes
            top, d = d, os.path.dirname(d)
        os.makedirs(args.out_dir, exist_ok=True)
    else:
        print("no non-silent segments found", file=sys.stderr)
    for i, seg in enumerate(segments, start=1):
        path = os.path.join(args.out_dir, f"segment-{i:02d}.wav")
        try:
            write_wav(seg, path)
        except Exception:
            if i == 1 and top:  # nothing written: remove what this call made
                shutil.rmtree(top, ignore_errors=True)
            raise
        print(f"wrote {path} ({seg.duration_s:.1f} s)")
    # segments a longer earlier split left behind; with no segments the
    # directory is neither made nor required
    if os.path.isdir(args.out_dir):
        for name in sorted(os.listdir(args.out_dir)):
            number = re.fullmatch(r"segment-(\d+)\.wav", name)
            if number and int(number[1]) > len(segments):
                path = os.path.join(args.out_dir, name)
                os.remove(path)
                print(f"removed stale {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempostego",
        description="Hide and recover bit strings in constant-tempo audio "
        "by slice-wise tempo modulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="embed a payload into a WAV carrier")
    p.add_argument("--in", required=True, help="carrier WAV")
    p.add_argument("--out", required=True, help="output WAV")
    _add_payload_flags(p)
    _add_param_flags(p, "phi_s", "delta")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover a payload from a WAV file")
    p.add_argument("--in", required=True, help="encoded WAV")
    p.add_argument("--max-bits", type=int, default=None, help="stop after this many bits")
    p.add_argument("--report", default=None, help="write a JSON decode report here")
    p.add_argument(
        "--force-decide",
        action="store_true",
        help="break undecidable slices toward Down instead of emitting x",
    )
    _add_param_flags(p, *_PARAM_FLAGS)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("capacity", help="payload bits a carrier can hold")
    p.add_argument("--in", required=True, help="carrier WAV")
    _add_param_flags(p, "phi_s")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("tempo", help="print tempo candidates as 'bpm strength' lines")
    p.add_argument("--in", required=True, help="input WAV")
    p.add_argument("--from", dest="from_s", type=float, default=None, help="window start, seconds")
    p.add_argument("--to", dest="to_s", type=float, default=None, help="window end, seconds")
    p.set_defaults(func=_cmd_tempo)

    p = sub.add_parser("evaluate", help="bit-error evaluation over a set of carriers")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--carriers", help="directory of carrier WAVs")
    src.add_argument("--generate", help='generate click tracks, e.g. "120@194,128@222"')
    _add_payload_flags(p)
    p.add_argument("--perturb", default=None, help="noise:SNR_DB | gain:FACTOR | resample:RATE")
    _add_param_flags(p, *_PARAM_FLAGS)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("make-carrier", help="generate a click-track WAV")
    p.add_argument("--bpm", type=float, required=True)
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--sr", type=int, default=CARRIER_RATE, help="sample rate")
    p.add_argument("--seed", type=int, default=CARRIER_SEED)
    p.add_argument("--subdivision", action="store_true", help="add quieter half-beat clicks")
    p.set_defaults(func=_cmd_make_carrier)

    p = sub.add_parser("split", help="cut a stream at silent gaps into segment WAVs")
    p.add_argument("--in", required=True, help="input WAV stream")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-silence", type=float, default=SPLIT_MIN_SILENCE_S, help="seconds")
    p.add_argument("--threshold", type=float, default=SPLIT_THRESHOLD_DBFS, help="dBFS")
    p.set_defaults(func=_cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StegoError, ValueError, OSError, MemoryError) as exc:
        # OSError: the CLI's own file calls; the library raises IoError.
        # MemoryError: an allocation numpy could not make, which it raises
        # as a private subclass
        name = ("IoError" if isinstance(exc, OSError)
                else "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__)
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
