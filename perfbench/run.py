#!/usr/bin/env python3
"""perfbench: the varbench end-to-end benchmark.

Run from the root of a varbench checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call builds the varbench CLI (and, for traced runs, the
per-layer probe) under .bench_build/perfbench. Every workload's inputs come
from --seed. The last line of standard output is one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
perfbench/README.md explains the workloads, the metrics and the oracle.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
PAPER = os.path.join(ROOT, "examples", "paper_figures.json")
REFERENCES = os.path.join(HERE, "references.json")

THREADS = min(4, os.cpu_count() or 1)
SHARDS = 4
MASKED = "pascalvoc_fcn"   # rows carrying unseeded numerical noise by design
AA_ROWS = 500_000          # artifact_analysis table size
AA_SHARDS = 8
# The artifact_analysis report, pinned; the CLI and the probe read one file.
REPORT_SPEC = {"group_by": "algo", "resamples": 200, "permutations": 1000,
               "format": "json"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s", "ok_frac": "frac", "report_s": "s"}


class Failure(Exception):
    """The benchmark cannot produce a result (missing sources, failed build)."""


# ---------------------------------------------------------------- processes

class Ledger:
    """Counts attempted and failed operations (commands and output checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


def spawn(argv, ledger, log):
    """Runs one child to completion and returns (ok, wall_s, cpu_s, rss_mb).

    wait4 gives this child's own rusage (including the grandchildren it
    reaped, e.g. campaign workers), unlike RUSAGE_CHILDREN, which keeps a
    maximum over every child this process ever reaped.
    """
    with open(log, "ab") as out:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 2)]
        start = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.monotonic() - start
    ok = ledger.check(os.waitstatus_to_exitcode(status) == 0,
                      f"{' '.join(argv[:3])} exited with status {status}")
    return ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Sample:
    """Accounting of the timed commands of one workload iteration."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rss = 0.0
        self.report = 0.0

    def add(self, result, report=False):
        _, wall, cpu, rss = result
        self.wall += wall
        self.cpu += cpu
        self.rss = max(self.rss, rss)
        if report:
            self.report += wall


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------------- oracle

def masked_digest(text):
    """Digest of one artifact's canonical text with the noisy rows masked.

    Rows whose task (or dataset) is pascalvoc_fcn differ from run to run by
    design, so only their count and the range of their float cells are
    checked: each must be finite and in [0, 1]. Returns (digest, in_range).
    """
    doc = json.loads(text)
    keys = [doc["columns"].index(c) for c in ("task", "dataset")
            if c in doc["columns"]]
    masked = 0
    in_range = True
    for row in doc["rows"]:
        if any(row[k] == MASKED for k in keys):
            masked += 1
            for i, v in enumerate(row):
                if isinstance(v, float):
                    in_range = in_range and math.isfinite(v) and 0.0 <= v <= 1.0
                    row[i] = None
    body = json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
    digest = hashlib.sha256(body.encode()).hexdigest()[:20]
    return f"{digest}:{len(doc['rows'])}:{masked}", in_range


def specs_digest():
    """Digest of examples/paper_figures.json, which the references are for."""
    with open(PAPER, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Oracle:
    """Expected masked digests per kind for one seed.

    They come from references.json when it holds the seed and was recorded
    from the current examples/paper_figures.json. Otherwise `expected`
    stays None until the workload fills it from the other paper mode.
    """

    def __init__(self, varbench, seed, ledger):
        self.varbench = varbench
        self.ledger = ledger
        with open(REFERENCES) as f:
            refs = json.load(f)
        self.expected = None
        if refs.get("specs_sha256") == specs_digest():
            self.expected = refs["seeds"].get(str(seed))

    def digests(self, artifacts, scratch, log):
        """{kind: digest} of {kind: path}; failed conversions count."""
        out = {}
        for kind, path in sorted(artifacts.items()):
            canonical = os.path.join(scratch, kind + ".canonical.json")
            ok = spawn([self.varbench, "convert", path, canonical,
                        "--canonical"], self.ledger, log)[0]
            if not ok:
                continue
            with open(canonical, encoding="utf-8") as f:
                digest, in_range = masked_digest(f.read())
            self.ledger.check(in_range, f"{kind}: masked value outside [0, 1]")
            out[kind] = digest
        return out

    def check(self, artifacts, scratch, log):
        got = self.digests(artifacts, scratch, log)
        self.ledger.check(sorted(got) == sorted(self.expected),
                          f"artifact kinds {sorted(got)} differ from reference")
        for kind, digest in sorted(got.items()):
            self.ledger.check(digest == self.expected.get(kind),
                              f"{kind}: artifact differs from reference")


# ----------------------------------------------------------------- tracing

def read_trace(path):
    """One varbench.trace.v1 file: (spans, {ident: label})."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "varbench.trace.v1":
        raise ValueError(f"{path}: not a varbench.trace.v1 file")
    labels = {e["ident"]: e["label"] for e in doc["labels"]}
    return doc["spans"], labels


def study_spans(paths):
    """Summed study.run seconds per study kind across trace files."""
    per_kind = {}
    for path in paths:
        spans, labels = read_trace(path)
        for s in spans:
            if s["span"] == "study.run":
                kind = labels.get(s["ident"], "?").split(":")[0]
                per_kind[kind] = per_kind.get(kind, 0.0) + s["dur_ns"] * 1e-9
    return per_kind


def campaign_metrics(state_dir, wall_s, workers):
    """Per-layer campaign figures from a `campaign --trace` state dir.

    A task's overhead is its task_running span minus the study.run span of
    the worker that ran it; claim-to-start is task_claimed to task_running.
    """
    spans, labels = read_trace(os.path.join(state_dir, "traces",
                                            "coordinator.trace.json"))
    running, claimed, merge_s = {}, {}, 0.0
    for s in spans:
        task = labels.get(s["ident"])
        if s["span"] == "campaign.task_running":
            running[task] = s
        elif s["span"] == "campaign.task_claimed":
            claimed[task] = s["start_ns"]
        elif s["span"] == "campaign.study_merged":
            merge_s += s["dur_ns"] * 1e-9
    overhead_ms, claim_ms = [], []
    for task, s in running.items():
        worker = os.path.join(state_dir, "traces", f"worker-{task}.trace.json")
        study_s = sum(study_spans([worker]).values())
        overhead_ms.append(s["dur_ns"] * 1e-6 - study_s * 1e3)
        if task in claimed:
            claim_ms.append((s["start_ns"] - claimed[task]) * 1e-6)
    busy = sum(s["dur_ns"] for s in running.values()) * 1e-9
    return {
        "campaign.tasks": (len(running), "count"),
        "campaign.task_busy_s": (busy, "s"),
        "campaign.critical_task_s":
            (max(s["dur_ns"] for s in running.values()) * 1e-9, "s"),
        "campaign.worker_idle_s": (workers * wall_s - busy, "s"),
        "campaign.task_overhead_ms.p50": (statistics.median(overhead_ms), "ms"),
        "campaign.claim_to_start_ms.p50": (statistics.median(claim_ms), "ms"),
        "campaign.merge_s": (merge_s, "s"),
    }


# --------------------------------------------------------------- workloads

class Workload:
    """One named workload: set-up, a timed iteration, and its checks."""

    def __init__(self, varbench, seed, ledger):
        self.varbench = varbench
        self.seed = seed
        self.ledger = ledger
        self.log = os.path.join(WORK, "commands.log")

    def run(self, argv, sample=None, report=False):
        result = spawn([self.varbench] + argv, self.ledger, self.log)
        if sample is not None:
            sample.add(result, report)
        return result

    def report(self, artifact, out, sample, extra=()):
        """`varbench report` of `artifact` into `out`, run report_repeats
        times: `sample` gets the run of median wall time, and every run must
        write the same bytes. Returns those bytes."""
        argv = ["report", artifact, "--threads", str(THREADS), "--out", out]
        results, outputs = [], set()
        for _ in range(self.report_repeats):
            results.append(self.run(argv + list(extra)))
            with open(out, "rb") as f:
                outputs.add(f.read())
        self.ledger.check(len(outputs) == 1,
                          f"report of {artifact} changed between repeats")
        results.sort(key=lambda r: r[1])
        sample.add(results[len(results) // 2], report=True)
        return outputs.pop()

    def prepare(self):
        """Untimed work between set-up and the first iteration."""


def write_paper_specs(seed):
    """Writes the paper's specs at `seed`, each at the scale the file gives
    it: one file per kind plus the list that the campaign and the probe read.

    Returns (kinds, list path).
    """
    d = fresh_dir(os.path.join(WORK, "specs"))
    with open(PAPER) as f:
        specs = [dict(s, seed=seed) for s in json.load(f)]
    for spec in specs:
        with open(os.path.join(d, spec["kind"] + ".json"), "w") as f:
            json.dump(spec, f)
    spec_list = os.path.join(d, "paper.json")
    with open(spec_list, "w") as f:
        json.dump(specs, f)
    return [s["kind"] for s in specs], spec_list


class PaperWorkload(Workload):
    """Shared set-up of the two paper workloads: the 17 specs of
    examples/paper_figures.json at this seed, validated by --plan-only.
    One set-up takes milliseconds, so its median is taken over many, and
    so does a report of the paper, which takes a fraction of a second."""

    setup_repeats = 21
    report_repeats = 5

    def setup(self):
        self.kinds, self.spec_list = write_paper_specs(self.seed)
        self.run(["campaign", self.spec_list, "--plan-only",
                  "--shards", str(SHARDS)])
        self.oracle = Oracle(self.varbench, self.seed, self.ledger)

    def run_direct(self, out, sample=None, trace_dir=None):
        """One `varbench run` per kind into `out`; returns {kind: artifact}."""
        artifacts = {}
        for kind in self.kinds:
            artifacts[kind] = os.path.join(out, kind + ".vbt")
            argv = ["run", os.path.join(WORK, "specs", kind + ".json"),
                    "--threads", str(THREADS), "--format", "binary",
                    "--out", artifacts[kind]]
            if trace_dir:
                argv += ["--trace-out",
                         os.path.join(trace_dir, kind + ".trace.json")]
            self.run(argv, sample)
        return artifacts

    def run_campaign(self, state, sample=None, trace=False):
        """The paper as one campaign in `state`; returns ({kind: merged
        artifact}, campaign wall seconds)."""
        shutil.rmtree(state, ignore_errors=True)
        argv = ["campaign", self.spec_list, "--shards", str(SHARDS),
                "--workers", str(THREADS), "--format", "binary",
                "--dir", state]
        wall = self.run(argv + (["--trace"] if trace else []), sample)[1]
        merged = {os.path.basename(p).split("-")[1]: p for p in
                  glob.glob(os.path.join(state, "merged", "*.vbt"))}
        return merged, wall

    def prepare(self):
        """Without a committed reference for the seed, the other paper mode
        supplies it: every timed iteration must then reproduce, masked, what
        that mode produced in this invocation."""
        if self.oracle.expected is not None:
            return
        canon = fresh_dir(os.path.join(WORK, "canon"))
        self.oracle.expected = self.oracle.digests(self.cross_run(), canon,
                                                   self.log)
        self.ledger.check(sorted(self.oracle.expected) == sorted(self.kinds),
                          "the cross-check run lacks some paper kinds")


class PaperDirect(PaperWorkload):
    """Each paper spec as its own `varbench run`, then a report of them all."""

    def cross_run(self):
        return self.run_campaign(os.path.join(WORK, "cross"))[0]

    def iterate(self, i, trace_dir=None):
        out = fresh_dir(os.path.join(WORK, "direct", str(i)))
        sample = Sample()
        artifacts = self.run_direct(out, sample, trace_dir)
        self.report(out, os.path.join(WORK, "direct", f"report-{i}.txt"),
                    sample)
        self.oracle.check(artifacts, fresh_dir(os.path.join(WORK, "canon")),
                          self.log)
        return sample

    def traced(self, i):
        trace_dir = fresh_dir(os.path.join(WORK, "traces"))
        sample = self.iterate(i, trace_dir)
        paths = sorted(glob.glob(os.path.join(trace_dir, "*.trace.json")))
        per_kind = study_spans(paths)
        self.ledger.check(sorted(per_kind) == sorted(self.kinds),
                          "a run's trace lacks its study.run span")
        return sample, per_kind, None


class PaperCampaign(PaperWorkload):
    """The paper as one 4-shard campaign, then a report of its state dir."""

    def cross_run(self):
        return self.run_direct(fresh_dir(os.path.join(WORK, "cross")))

    def iterate(self, i, trace=False):
        state = os.path.join(WORK, "campaign", str(i))
        sample = Sample()
        merged, wall = self.run_campaign(state, sample, trace)
        self.report(state, os.path.join(WORK, "campaign", f"report-{i}.txt"),
                    sample)
        self.oracle.check(merged, fresh_dir(os.path.join(WORK, "canon")),
                          self.log)
        self.state, self.campaign_wall = state, wall
        return sample

    def traced(self, i):
        sample = self.iterate(i, trace=True)
        paths = glob.glob(os.path.join(self.state, "traces", "worker-*.json"))
        camp = campaign_metrics(self.state, self.campaign_wall, THREADS)
        return sample, study_spans(paths), camp


class ArtifactAnalysis(Workload):
    """Merge, convert and report a generated two-algorithm comparison."""

    setup_repeats = 3
    report_repeats = 1

    def setup(self):
        """Writes the seed's table as JSON shards, converts them to VBT and
        writes the pinned report spec.

        Row q compares "baseline" (even q) with "candidate" (odd q) at rep
        q // 2, so the report pairs the two groups by rep.
        """
        d = fresh_dir(os.path.join(WORK, "analysis"))
        rng = random.Random(self.seed)
        draws = [rng.random() for _ in range(2 * AA_ROWS)]
        acc, loss = draws[0::2], draws[1::2]
        algos = ("baseline", "candidate")
        # Each line is what json.dumps gives for the row, so the merged
        # artifact's rows, dumped the same way, must reproduce it.
        rows = [f'[{q}, "{algos[q & 1]}", {q >> 1}, {acc[q]!r}, {loss[q]!r}]'
                for q in range(AA_ROWS)]
        self.rows_digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        self.means = {(algo, col): math.fsum(v[i::2]) / len(v[i::2])
                      for i, algo in enumerate(algos)
                      for col, v in (("accuracy", acc), ("loss", loss))}
        per = -(-AA_ROWS // AA_SHARDS)
        self.shards = []
        for s in range(AA_SHARDS):
            lines = rows[s * per:(s + 1) * per]
            doc = ('{"schema": "varbench.result_table.v1", '
                   '"name": "perfbench:artifact_analysis", '
                   f'"meta": {{"seed": {self.seed}, '
                   f'"shard": {{"index": {s}, "count": {AA_SHARDS}}}}}, '
                   '"columns": ["seq", "algo", "rep", "accuracy", "loss"], '
                   '"rows": [\n' + ",\n".join(lines) + "\n]}\n")
            src = os.path.join(d, f"shard{s}.json")
            with open(src, "w") as f:
                f.write(doc)
            self.shards.append(os.path.join(d, f"shard{s}.vbt"))
            self.run(["convert", src, self.shards[-1]])
            os.remove(src)
        self.report_spec = os.path.join(d, "report_spec.json")
        with open(self.report_spec, "w") as f:
            json.dump(REPORT_SPEC, f)
        self.merged_digest = None

    def iterate(self, i):
        out = fresh_dir(os.path.join(WORK, "analysis-out"))
        merged = os.path.join(out, "merged.vbt")
        merged_json = os.path.join(out, "merged.json")
        sample = Sample()
        self.run(["merge"] + self.shards + ["--out", merged], sample)
        self.run(["convert", merged, merged_json], sample)
        report_bytes = self.report(merged, os.path.join(out, "report.json"),
                                   sample, ["--spec", self.report_spec])
        self.check(merged_json, report_bytes, out)
        return sample

    def check(self, merged_json, report_bytes, out):
        """The first iteration checks the merged rows and the report against
        the generated table and the JSON-side report; later iterations must
        reproduce the first one's bytes."""
        with open(merged_json, "rb") as f:
            merged_digest = hashlib.sha256(f.read()).hexdigest()
        if self.merged_digest is not None:
            self.ledger.check(merged_digest == self.merged_digest,
                              "merged artifact changed between iterations")
            self.ledger.check(report_bytes == self.report_bytes,
                              "report changed between iterations")
            return
        self.merged_digest, self.report_bytes = merged_digest, report_bytes
        with open(merged_json) as f:
            rows = json.load(f)["rows"]
        rows_digest = hashlib.sha256(
            "\n".join(map(json.dumps, rows)).encode()).hexdigest()
        self.ledger.check(rows_digest == self.rows_digest,
                          "merged rows differ from the generated table")
        del rows
        from_json = self.report(merged_json, os.path.join(out, "report-json.json"),
                                Sample(), ["--spec", self.report_spec])
        self.ledger.check(from_json == report_bytes,
                          "report over JSON differs from report over VBT")
        summaries = json.loads(report_bytes)["summaries"]
        means_ok = len(summaries) == len(self.means)
        for s in summaries:
            want = self.means.get((s["group"], s["column"]))
            means_ok = means_ok and want is not None and math.isclose(
                s["mean"], want, rel_tol=1e-9)
        self.ledger.check(means_ok, "report means differ from the table's")

    def traced(self, i):
        # merge/convert/report have no tracing flags: the traced iteration
        # is the plain one, and trace.overhead_frac reads the noise floor.
        return self.iterate(i), {}, None


WORKLOADS = {"paper_direct": PaperDirect, "paper_campaign": PaperCampaign,
             "artifact_analysis": ArtifactAnalysis}


# ---------------------------------------------------------------- measuring

def timed_setup(workload, repeats):
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        workload.setup()
        times.append(time.monotonic() - start)
    return statistics.median(times)


def end_to_end(workload, seconds, ledger):
    setup_s = timed_setup(workload, workload.setup_repeats)
    # The cross-check run of a seed without a reference is not timed: every
    # seed measures the same number of iterations.
    workload.prepare()
    deadline = time.monotonic() + seconds
    samples = []
    while True:
        start = time.monotonic()
        samples.append(workload.iterate(len(samples)))
        if time.monotonic() + (time.monotonic() - start) > deadline:
            break
    med = statistics.median
    values = {
        "wall_s": med([s.wall for s in samples]),
        "cpu_s": med([s.cpu for s in samples]),
        "peak_rss_mb": med([s.rss for s in samples]),
        "setup_s": setup_s,
        "ok_frac": 1.0 - ledger.failed / max(1, ledger.attempted),
        "report_s": med([s.report for s in samples]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def probe_campaign(varbench, seed, ledger):
    """A 4-task traced campaign (fig06) for workloads that run none."""
    spec = os.path.join(fresh_dir(os.path.join(WORK, "probe-campaign")),
                        "fig06.json")
    with open(spec, "w") as f:
        json.dump([{"kind": "fig06_detection_rates", "seed": seed}], f)
    state = os.path.join(WORK, "probe-campaign", "state")
    wall = spawn([varbench, "campaign", spec, "--shards", str(SHARDS),
                  "--workers", str(THREADS), "--format", "binary",
                  "--trace", "--dir", state], ledger,
                 os.path.join(WORK, "commands.log"))[1]
    return campaign_metrics(state, wall, THREADS)


def per_layer(workload, varbench, probe, seed, ledger):
    workload.setup()
    workload.prepare()
    plain = workload.iterate(0)
    sample, study_s, camp = workload.traced(1)
    metrics = {"trace.overhead_frac": (sample.wall / plain.wall - 1.0, "ratio")}
    # The io, stats and report layers are probed on the artifact_analysis
    # table itself, whichever workload runs.
    table = workload
    if not isinstance(table, ArtifactAnalysis):
        table = ArtifactAnalysis(varbench, seed, ledger)
        table.setup()
    probe_dir = fresh_dir(os.path.join(WORK, "probe"))
    spec_list = write_paper_specs(seed)[1]
    out = subprocess.run([probe, spec_list, probe_dir, str(seed),
                          str(THREADS), table.report_spec] + table.shards,
                         capture_output=True, text=True)
    ledger.check(out.returncode == 0, f"probe failed: {out.stderr.strip()}")
    if out.returncode != 0:
        raise Failure("the per-layer probe failed")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    ledger.attempted += result["attempted"]
    ledger.failed += result["failed"]
    for err in result["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        metrics[name] = (m["value"], m["unit"])
    # The paper workloads time each kind from their own study.run spans.
    for kind, s in study_s.items():
        metrics[f"study.run_s.{kind}"] = (s, "s")
    metrics.update(camp or probe_campaign(varbench, seed, ledger))
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}


# -------------------------------------------------------------------- build

def build(trace):
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.exists(PAPER):
        raise Failure(f"{ROOT} is not a varbench source tree")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    targets = ["varbench_cli"] + (["perfbench_probe"] if trace else [])
    steps.append(["cmake", "--build", BUILD, "-j", str(THREADS),
                  "--target"] + targets)
    for step in steps:
        with open(log, "ab") as f:
            if subprocess.run(step, stdout=f, stderr=f).returncode != 0:
                raise Failure(f"build step failed: {' '.join(step)} "
                              f"(see {log})")
    return (os.path.join(BUILD, "varbench", "varbench"),
            os.path.join(BUILD, "perfbench_probe"))


def record_references(seeds):
    """Rewrites references.json with the paper digests of `seeds`, recorded
    from direct runs of the current examples/paper_figures.json."""
    varbench, _ = build(trace=False)
    os.makedirs(WORK, exist_ok=True)
    refs = {"specs_sha256": specs_digest(), "seeds": {}}
    for seed in seeds:
        ledger = Ledger()
        w = PaperDirect(varbench, seed, ledger)
        w.setup()
        artifacts = w.run_direct(fresh_dir(os.path.join(WORK, "direct",
                                                        "record")))
        got = w.oracle.digests(artifacts, fresh_dir(os.path.join(WORK, "canon")),
                               w.log)
        if ledger.failed or sorted(got) != sorted(w.kinds):
            raise Failure(f"seed {seed}: a run failed, nothing recorded")
        refs["seeds"][str(seed)] = got
        print(f"seed {seed}: recorded {len(got)} digests", file=sys.stderr)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", metavar="FIRST-LAST",
                   help="re-record the oracle digests for a seed range")
    args = p.parse_args()
    try:
        if args.record_references:
            first, last = map(int, args.record_references.split("-"))
            record_references(range(first, last + 1))
            return 0
        if args.workload is None:
            p.error("--workload is required")
        varbench, probe = build(args.trace == 1)
        os.makedirs(WORK, exist_ok=True)
        open(os.path.join(WORK, "commands.log"), "wb").close()
        ledger = Ledger()
        workload = WORKLOADS[args.workload](varbench, args.seed, ledger)
        if args.trace:
            metrics = per_layer(workload, varbench, probe, args.seed, ledger)
        else:
            metrics = end_to_end(workload, args.seconds, ledger)
    except (Failure, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
