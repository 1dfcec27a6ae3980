"""Self-test of the benchmark, at a tiny input size.

    python3 perfbench/selftest.py

For every workload it checks that a clean run passes every operation
and yields every metric BENCHMARK.json names, that a deliberately
corrupted program output is counted as a failed operation, and that two
traced runs of one seed report identical work counts. It also checks
that run.py fails without printing a result when the tempostego sources
are missing. Exits nonzero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tempostego.codec  # noqa: E402
import tempostego.harness  # noqa: E402
from tempostego.audio import PcmBuffer  # noqa: E402
from tempostego.bits import BitString  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# Work counts that must repeat exactly between runs of one seed.
COUNTS = [name for name, unit in run.metric_units("per_layer") if unit in ("count", "MB")]


def flip_first_bit(decode):
    def corrupted(*args, **kwargs):
        report = decode(*args, **kwargs)
        symbols = (1 - report.bits.symbols[0],) + report.bits.symbols[1:]
        return dataclasses.replace(report, bits=BitString(symbols))

    return corrupted


def drop_last_sample(stretch_tempo):
    def corrupted(*args, **kwargs):
        out = stretch_tempo(*args, **kwargs)
        return PcmBuffer(samples=out.samples[:-1], sample_rate=out.sample_rate)

    return corrupted


def drop_last_segment(split_on_silence):
    def corrupted(*args, **kwargs):
        return split_on_silence(*args, **kwargs)[:-1]

    return corrupted


# workload -> (units, module, attribute, corruption, counts that must be nonzero)
CASES = {
    "clicks-roundtrip": (
        6, tempostego.codec, "decode", flip_first_bit,
        ["tempo.estimate_tempo.calls", "tempo.onset_envelope.frames", "stretch.frames",
         "codec.decode.slices", "audio.rms_dbfs.calls", "audio.read_wav.mb"],
    ),
    "dense-playlist-encode": (
        2, tempostego.codec, "stretch_tempo", drop_last_sample,
        ["stretch.stretch_tempo.calls", "stretch.frames", "audio.rms_dbfs.calls"],
    ),
    "stream-split": (
        2, tempostego.harness, "split_on_silence", drop_last_segment,
        ["harness.split_on_silence.frames", "harness.split_on_silence.segments",
         "audio.read_wav.mb", "audio.write_wav.mb"],
    ),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_case(workload: str, work_dir: str) -> None:
    units, module, attr, corrupt, nonzero = CASES[workload]
    manifest = inputs.build(workload, 0, units, work_dir, tiny=True)
    manifest["setup_cmd"] = run.setup_command(work_dir)

    clean = worker.run_workload(manifest, trace=False)
    check(all(op["ok"] for op in clean["ops"]) and clean["setup_bad"] == 0,
          f"{workload}: a clean operation failed")
    check(clean["bits"]["embedded"] > 0 and clean["bits"]["errors"] == 0
          and clean["bits"]["erasures"] == 0, f"{workload}: clean bits wrong")
    metrics, _ = run.end_to_end(clean)
    check(set(metrics) == {name for name, _ in run.metric_units("end_to_end")},
          f"{workload}: end-to-end metrics differ from BENCHMARK.json")

    original = getattr(module, attr)
    setattr(module, attr, corrupt(original))
    try:
        bad = worker.run_workload(manifest, trace=False)
    finally:
        setattr(module, attr, original)
    failed = sum(not op["ok"] for op in bad["ops"])
    check(failed > 0, f"{workload}: corrupted {attr} output went unnoticed")

    del manifest["setup_cmd"]
    traced = [worker.run_workload(manifest, trace=True)["layers"] for _ in range(2)]
    check(set(traced[0]) == {name for name, _ in run.metric_units("per_layer")},
          f"{workload}: per-layer metrics differ from BENCHMARK.json")
    for name in nonzero:
        check(traced[0][name] > 0, f"{workload}: {name} is 0 in a traced run")
    for name in COUNTS:
        check(traced[0][name] == traced[1][name], f"{workload}: {name} does not repeat")
    print(f"ok {workload}: {len(clean['ops'])} clean ops pass, "
          f"{failed} of {len(bad['ops'])} corrupted ops fail, counts repeat")


def check_workload_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    check(names == list(inputs.WORKLOADS), "BENCHMARK.json workloads differ from inputs.WORKLOADS")


def check_fails_without_sources(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", inputs.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "run.py without sources must fail without a result")
    print("ok run.py fails without tempostego sources")


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        check_workload_names()
        for workload in inputs.WORKLOADS:
            work_dir = os.path.join(scratch, workload)
            os.makedirs(work_dir)
            run_case(workload, work_dir)
        check_fails_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
