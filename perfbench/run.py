"""Benchmark of the tagrec pipeline, end to end and per layer.

    python3 perfbench/run.py --workload so-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run generates a seeded ``Posts.xml``,
then runs ``tagrec ingest``, ``build-vocab``, ``tokenizer-train``, ``train``
and ``evaluate``, and the benchmark's own encode pass and prediction stage
(``serve.py``), each in its own process. Every artifact is checked
(``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it runs the pipeline twice, untraced and then traced, with a single
prediction round each; it reports the per-layer metrics of the traced run
and ``trace.overhead_s``, the difference of the two runs' stage times, and
checks that the two runs wrote byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_PREDICT_CALLS = 100
# One BLAS thread: steadier than two on a shared 2-core machine, and within nproc.
BLAS_THREADS = 1
RUN_BUDGET_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "ingest_posts_per_s": "posts/s",
    "ingest_peak_rss_mb": "MB",
    "bpe_merges_per_s": "merges/s",
    "encode_posts_per_s": "posts/s",
    "train_posts_per_s": "posts/s",
    "train_peak_rss_mb": "MB",
    "eval_posts_per_s": "posts/s",
    "predict_p50_ms": "ms",
    "predict_p90_ms": "ms",
}
# Artifacts a traced run must reproduce byte for byte.
DETERMINISTIC_ARTIFACTS = (
    "ingest/corpus.jsonl",
    "tok/tokenizer.json",
    "model/loss_trace.csv",
    "model/model.ckpt",
    "eval/metrics.json",
)


class StageFailed(Exception):
    """A pipeline process exited non-zero or ran out of time."""


@dataclass
class Stage:
    wall_s: float
    peak_rss_mb: float


class Pipeline:
    """Runs stages one process at a time, recording wall time and peak RSS."""

    def __init__(self, out: Path, traced: bool, deadline: float) -> None:
        self.out = out
        self.traced = traced
        self.deadline = deadline
        self.samples: dict[str, list[Stage]] = {}
        self.traces: list[dict] = []
        self.attempted = 0  # processes started
        self.env = dict(os.environ, **{v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        out.mkdir(parents=True)

    def run(self, name: str, *argv: object) -> None:
        self.samples.setdefault(name, []).append(self._run_once(name, argv))

    def stage(self, name: str) -> Stage:
        """Median wall time and highest peak RSS over every run of the stage.

        The highest, because training's peak varies from one process to the
        next; graphs left to the cyclic garbage collector are the likely
        cause.
        """
        runs = self.samples[name]
        return Stage(
            wall_s=statistics.median(r.wall_s for r in runs),
            peak_rss_mb=max(r.peak_rss_mb for r in runs),
        )

    def _run_once(self, name: str, argv: tuple) -> Stage:
        spans = self.out / f"{name}.spans.json"
        rss = self.out / f"{name}.rss"
        cmd = [sys.executable, str(BENCH / "stage.py"), "--rss", str(rss)]
        cmd += ["--spans", str(spans)] if self.traced else []
        cmd += [str(a) for a in argv]
        self.attempted += 1
        with open(self.out / f"{name}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                proc.wait()
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise StageFailed(f"stage {name} exited with {proc.returncode}; see {self.out / (name + '.log')}")
        stage = Stage(wall_s=wall, peak_rss_mb=float(rss.read_text(encoding="utf-8")))
        print(f"stage {name}: {wall:.3f} s, peak RSS {stage.peak_rss_mb:.1f} MB", file=sys.stderr)
        if self.traced:
            self.traces.append(json.loads(spans.read_text(encoding="utf-8")))
        return stage

    @property
    def total_s(self) -> float:
        return sum(r.wall_s for runs in self.samples.values() for r in runs)


@dataclass
class Expected:
    """What every artifact must hold, derived from the generator's truth."""

    corpus: list[dict]
    stats: dict
    filtered: list[dict]
    tags: list[str]
    test: list[dict]


def setup(wl: Workload, seed: int, dump: Path) -> tuple[float, list[gen.Post]]:
    """Generate the dump SETUP_REPEATS times; returns the median time and the rows."""
    times = []
    text = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        posts = gen.sample_posts(wl.dump, seed)
        again = gen.render_dump(posts)
        dump.write_text(again, encoding="utf-8")
        times.append(time.perf_counter() - start)
        if text is not None and again != text:
            raise checks.CheckError("the generator wrote two different dumps from one seed")
        text = again
    return statistics.median(times), posts


def expectations(wl: Workload, posts: list[gen.Post]) -> Expected:
    corpus = [p.corpus_record() for p in posts if p.kind == gen.QUESTION]
    tags = [t for t, _ in checks.tag_counts(corpus, wl.theta)]
    filtered = checks.filter_records(corpus, tags)
    # Ids and dates rise together, so the held-out newest posts of the
    # training slice are its tail.
    test = filtered[wl.train_posts : wl.train_posts + wl.test_posts]
    return Expected(corpus, gen.expected_stats(posts), filtered, tags, test)


def run_pipeline(p: Pipeline, wl: Workload, dump: Path, seconds: float | None) -> dict:
    """The whole pipeline; prediction loops for at least `seconds`, or one round if None.

    With `seconds`, ingest, train and the encode pass each run twice more,
    after evaluate and after serve, and the median of the three counts: the
    speed of a shared host swings over tens of seconds, and these stages are
    short enough to repeat. A rerun rewrites the same files byte for byte.
    Returns the serve stage's result plus the encode figures.
    """
    out = p.out
    filtered = out / "vocab/corpus_filtered.jsonl"
    artifacts = ["--vocab", out / "vocab/tag_vocab.json", "--tokenizer", out / "tok/tokenizer.json"]
    ingest = ("cli", "ingest", "--dump", dump, "--out-dir", out / "ingest")
    train = ("cli", "train", "--corpus", out / "train_slice.jsonl", *artifacts, "--out-dir", out / "model", *wl.train_flags())
    config = out / "stage_config.json"
    encodes = []

    def repeated_stages() -> None:
        p.run("ingest", *ingest)
        p.run("train", *train)
        encode()

    def encode() -> None:
        p.run("encode", "encode", config, out / "encode.json")
        encodes.append(json.loads((out / "encode.json").read_text(encoding="utf-8")))

    p.run("ingest", *ingest)
    p.run("build_vocab", "cli", "build-vocab", "--corpus", out / "ingest/corpus.jsonl", "--theta", wl.theta, "--out-dir", out / "vocab")
    p.run("tokenizer_train", "cli", "tokenizer-train", "--corpus", filtered, "--vocab-size", wl.vocab_size, "--out-dir", out / "tok")
    with open(filtered, encoding="utf-8") as fh:
        head = [line for _, line in zip(range(wl.train_posts + wl.test_posts), fh)]
    (out / "train_slice.jsonl").write_text("".join(head), encoding="utf-8")
    p.run("train", *train)
    config.write_text(json.dumps({
        "checkpoint": str(out / "model/model.ckpt"),
        "vocab": str(out / "vocab/tag_vocab.json"),
        "tokenizer": str(out / "tok/tokenizer.json"),
        "corpus": str(filtered),
        "test_corpus": str(out / "model/test.jsonl"),
        "min_calls": MIN_PREDICT_CALLS,
        "min_seconds": seconds,
    }), encoding="utf-8")
    encode()
    p.run("evaluate", "cli", "evaluate", "--corpus", out / "model/test.jsonl", "--checkpoint", out / "model/model.ckpt", *artifacts, "--out-dir", out / "eval")
    if seconds:
        repeated_stages()
    p.run("serve", "serve", config, out / "serve.json")
    if seconds:
        repeated_stages()
    served = json.loads((out / "serve.json").read_text(encoding="utf-8"))
    served["encode_posts"] = sum(e["posts"] for e in encodes)
    served["encode_posts_per_s"] = statistics.median(e["posts"] / e["seconds"] for e in encodes)
    return served


def check_outputs(wl: Workload, want: Expected, out: Path, served: dict) -> int:
    """Every output check; returns the merge count."""
    checks.check_records(out / "ingest/corpus.jsonl", want.corpus)
    checks.check_json(out / "ingest/ingest_stats.json", want.stats)
    checks.check_vocab(out / "vocab/tag_vocab.json", want.corpus, wl.theta)
    checks.check_records(out / "vocab/corpus_filtered.jsonl", want.filtered)
    merges = checks.check_tokenizer(out / "tok/tokenizer.json", wl.vocab_size)
    checks.check_roundtrip(served["roundtrip_failures"])
    checks.check_records(out / "model/test.jsonl", want.test)
    checks.check_loss_trace(out / "model/loss_trace.csv", len(want.tags))
    checks.check_rankings(served["rankings"], [r["id"] for r in want.test])
    truths = [set(r["tags"]) for r in want.test]
    checks.check_metrics(out / "eval/per_instance.csv", out / "eval/metrics.json", truths, served["rankings"])
    checks.check_padding(served["padding_max_diff"])
    return merges


def end_to_end(wl: Workload, want: Expected, p: Pipeline, served: dict, setup_s: float, merges: int) -> dict[str, float]:
    lat = served["latencies_ms"]
    st = {name: p.stage(name) for name in p.samples}
    return {
        "setup_s": setup_s,
        "ingest_posts_per_s": len(want.corpus) / st["ingest"].wall_s,
        "ingest_peak_rss_mb": st["ingest"].peak_rss_mb,
        "bpe_merges_per_s": merges / st["tokenizer_train"].wall_s,
        "encode_posts_per_s": served["encode_posts_per_s"],
        "train_posts_per_s": wl.train_posts / st["train"].wall_s,
        "train_peak_rss_mb": st["train"].peak_rss_mb,
        "eval_posts_per_s": wl.test_posts / st["evaluate"].wall_s,
        "predict_p50_ms": statistics.median(lat),
        "predict_p90_ms": statistics.quantiles(lat, n=10)[8],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of the timed predict loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tagrec" / "__init__.py").is_file():
        print(f"error: no tagrec sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    dump = work / "Posts.xml"

    correct, failed, metrics = True, 0, {}
    pipelines: list[Pipeline] = []
    served = []
    try:
        setup_s, posts = setup(wl, args.seed, dump)
        want = expectations(wl, posts)
        runs = (("plain", False), ("traced", True)) if args.trace else (("run", False),)
        for name, traced in runs:
            pipelines.append(Pipeline(work / name, traced, deadline))
            served.append(run_pipeline(pipelines[-1], wl, dump, None if args.trace else args.seconds))
            merges = check_outputs(wl, want, work / name, served[-1])
        if args.trace:
            for artifact in DETERMINISTIC_ARTIFACTS:
                checks.check_identical(work / "plain" / artifact, work / "traced" / artifact)
            plain, traced = pipelines
            layers = tracing.layer_metrics(traced.traces, traced.total_s - plain.total_s)
            metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in tracing.METRICS.items()}
        else:
            values = end_to_end(wl, want, pipelines[0], served[0], setup_s, merges)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct, failed = False, 1
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    # Operations: every process started, every post packed, every predict call.
    attempted = sum(p.attempted for p in pipelines)
    attempted += sum(s["encode_posts"] + len(s["latencies_ms"]) for s in served)

    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
