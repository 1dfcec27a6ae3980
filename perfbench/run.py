"""Seeded end-to-end and per-layer benchmark for tempostego.

Run from the repository root:

    python3 perfbench/run.py --workload clicks-roundtrip --seed 1 --seconds 20 --trace 0

Workloads (see inputs.py for how each is generated from the seed):

    clicks-roundtrip       click tracks, 80-180 BPM, 194/240/300 s, half
                           with subdivision; per carrier read_wav ->
                           encode -> write_wav, then read_wav -> decode
    dense-playlist-encode  one message through encode_playlist over three
                           240 s click tracks under a 10 dB noise bed;
                           each carrier's encode is one operation
    stream-split           a ~10 min WAV of encoded carriers joined by 3 s
                           gaps; read_wav -> split_on_silence -> write_wav
                           of every segment

One process, one thread, closed loop: each operation starts when the
previous one has ended. BLAS and FFT threads are pinned to 1. Inputs
are generated here; the operations run in a child process (worker.py)
so its peak RSS is the workload's own. The number of operations depends
on --seconds only, so every commit does the same work.

--trace 0 prints the end-to-end metrics, measured with no wrappers:

    setup_s      median wall time of a fresh interpreter running
                 `tempostego capacity` on a 30 s WAV (import + one call),
                 sampled ten times, spread among the operations
    op_ms.p50    median latency of one operation: a round trip, one
                 carrier's encode, one split
    op_ms.tail   the highest percentile with at least ten samples beyond
                 it; which percentile and the sample count are printed
    audio_x      seconds of input audio per wall-clock second of operations
    peak_rss_mb  ru_maxrss of the worker process
    bits_ok_frac decoded bits equal to embedded bits, over embedded bits;
                 a wrong bit and an erasure both count against it

--trace 1 runs every unit twice, plain and with the layer bindings
wrapped (spans.py), and prints per-layer totals over the traced
executions plus trace.overhead_frac. Spans are written to
.perfbench/spans/.

Before the final line the run prints the same figures under the names
of each phase of an operation (encode_ms, decode_ms, split_ms, their
audio_x), ber, erasure_frac, failed_ops_frac and the machine facts. The
last line of stdout is {"correct", "attempted", "failed", "metrics"} as
JSON. Set-up calls count as operations in "attempted" and "failed".
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_WAV_S = 30.0
# What the `tempostego` console script runs, with the checkout's sources.
CLI = f"import sys; sys.path.insert(0, {SRC!r}); from tempostego.cli import main; sys.exit(main())"
DEADLINE_S = 170.0


def metric_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json lists, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def setup_command(work_dir: str) -> list[str]:
    """The fresh-interpreter `tempostego capacity` call whose wall time is
    setup_s. It runs once here, untimed, so bytecode is compiled before
    the worker samples it."""
    from tempostego import audio
    from tempostego.harness import generate_click_track

    wav = os.path.join(work_dir, "setup.wav")
    audio.write_wav(generate_click_track(120.0, SETUP_WAV_S), wav)
    cmd = [sys.executable, "-c", CLI, "capacity", "--in", wav]
    subprocess.run(cmd, capture_output=True, timeout=60)
    return cmd


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """The guarded metrics, and the per-operation detail lines."""
    ops = [r for r in result["ops"] if not r["traced"]]
    bits = result["bits"]
    setup = result["setup_s"]
    ms = [r["ms"] for r in ops]
    audio_s = sum(r["audio_s"] for r in ops)
    p50 = statistics.median(ms)
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms.p50": p50,
        "op_ms.tail": tail_ms,
        "audio_x": audio_s / (sum(ms) / 1e3),
        "peak_rss_mb": result["peak_rss_mb"],
        "bits_ok_frac": (bits["embedded"] - bits["errors"] - bits["erasures"])
        / max(1, bits["embedded"]),
    }
    lines = [f"op samples {len(ms)}; tail is p{tail_pct:.1f}"]
    phases = sorted({p for r in ops for p in r["phases"]}) or ["encode"]
    for phase in phases:
        xs = [r["phases"].get(phase, r["ms"]) for r in ops]
        value, pct = tail(xs)
        lines += [
            f"{phase}_ms.p50 {statistics.median(xs):.3f} ms",
            f"{phase}_ms.tail {value:.3f} ms (p{pct:.1f} of {len(xs)})",
            f"{phase}_audio_x {audio_s / (sum(xs) / 1e3):.3f} s/s",
        ]
    compared = bits["embedded"] - bits["erasures"]
    failed = sum(not r["ok"] for r in result["ops"])
    lines += [
        f"peak_rss_mb {result['peak_rss_mb']:.1f} MB",
        f"ber {bits['errors'] / compared if compared else 0.0:.6f} frac "
        f"({bits['errors']} of {compared} bits)",
        f"erasure_frac {bits['erasures'] / max(1, bits['embedded']):.6f} frac",
        f"failed_ops_frac {failed / len(result['ops']):.6f} frac "
        f"({failed} of {len(result['ops'])})",
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)})",
    ]
    return metrics, lines


def layer_lines(layers: dict) -> list[str]:
    def share(part: float, whole: float) -> str:
        return f"{100.0 * part / whole:.1f}%" if whole else "n/a"

    return [
        "tempo.estimate_tempo share of codec.decode: "
        + share(layers["tempo.estimate_tempo.ms"], layers["codec.decode.ms"]),
        "stretch.stretch_tempo share of codec.encode: "
        + share(layers["stretch.stretch_tempo.ms"], layers["codec.encode.ms"]),
        "split_on_silence + read/write share of traced ops: "
        + share(
            layers["harness.split_on_silence.ms"] + layers["audio.read_wav.ms"]
            + layers["audio.write_wav.ms"],
            layers["trace.op_ms"],
        ),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description="tempostego benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "tempostego", "__init__.py")):
        return fail(f"no tempostego sources under {SRC}")
    sys.path.insert(0, SRC)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(inputs.WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    work_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    spans_dir = os.path.join(ROOT, ".perfbench", "spans")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    try:
        units = inputs.n_units(args.workload, args.seconds, bool(args.trace))
        manifest = inputs.build(args.workload, args.seed, units, work_dir)
        if not args.trace:
            manifest["setup_cmd"] = setup_command(work_dir)
        manifest_path = os.path.join(work_dir, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
        budget = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return fail("the workload did not finish in time")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return fail(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = len(result["ops"]) + len(result["setup_s"])
    failed = sum(not r["ok"] for r in result["ops"]) + result["setup_bad"]
    for r in result["ops"]:
        if r["error"]:
            print(f"failed op: {r['error']}", file=sys.stderr)
    if args.trace:
        values, lines = result["layers"], layer_lines(result["layers"])
    else:
        values, lines = end_to_end(result)
    table = metric_units("per_layer" if args.trace else "end_to_end")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(result["facts"]))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
