"""cellsim benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage (from any directory):

    python3 perfbench/run.py --workload collect_medium_expert --seed 0 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures untraced passes, then traced passes at one worker,
and reports per-layer metrics from the traced spans.  Every pass is checked
for correctness; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spans import Tracer

cs, np = wl.cs, wl.np

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 5
clock = time.perf_counter

# Reference kernels: fixed numpy work that no change to cellsim can alter.
# Pass times are divided by a reference time, measured right before and after
# each pass, because this host's speed drifts by up to 2x within seconds and
# the ratio cancels most of it.  The drift hits per-call overhead and memory
# bandwidth differently, and each core drifts on its own, so each workload
# uses the kernel that matches its own work (many calls on 3x5 arrays, or a
# few sweeps over (N, 3, 5) arrays), run the way its work runs (in this
# process, or in parallel worker processes).
SMALL = np.linspace(0.0, 1.0, 15).reshape(3, 5)


def small_reference_s() -> float:
    t0 = clock()
    acc = 0.0
    for _ in range(4000):
        acc += float(np.log2(1.0 + np.clip(SMALL * 1.5, 0.0, 1.0)).sum())
    return clock() - t0


def bulk_reference_s() -> float:
    t0 = clock()
    gains = -np.log(1.0 - np.random.default_rng(0).random((wl.N_JENSEN_SAMPLES, 3, 5)))
    np.log2(1.0 + np.clip(gains * 0.5, 0.0, 1.0)).sum(axis=-1)
    return clock() - t0


def parallel_reference_s() -> float:
    """Wall time of the small kernel run at once in as many forked processes
    as the workload has workers: a pass spread over worker processes finishes
    with the slowest of them.  Fork mirrors how ``harness.evaluate`` starts
    its pool on Linux."""
    ctx = multiprocessing.get_context("fork")
    t0 = clock()
    procs = [ctx.Process(target=small_reference_s) for _ in range(wl.EVAL_WORKERS)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    return clock() - t0


def machine() -> dict:
    """Where and on what code the numbers were taken."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "git_commit": None, "git_dirty": None}
    if (wl.ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(wl.ROOT)]
            info["git_commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=60, check=True).stdout.strip()
            info["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True,
                timeout=60, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def setup_probe(workload: str, seed: int) -> float:
    """Cold set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                           str(seed)], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# -- passes --------------------------------------------------------------------


class Workload:
    """Binds a workload's pass, check and warm-up to one (config, seed)."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.cfg = wl.config(name)
        self.workers = wl.EVAL_WORKERS if name == "evaluate_random_faded" else 1
        if name == "verify_jensen_mc":
            self.reference_s = bulk_reference_s
        elif self.workers > 1:
            self.reference_s = parallel_reference_s
        else:
            self.reference_s = small_reference_s
        self.workdir = OUT / f"{name}-seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def warm_up(self) -> None:
        """One operation before the first timed pass, so lazy imports and
        allocator growth land outside the timed region."""
        if self.name == "verify_jensen_mc":
            snr, tau = wl.jensen_inputs(self.seed)
            cs.verify_jensen(snr, tau, cs.parse_fading(wl.JENSEN_MODELS[0]),
                             self.cfg.utility, n_samples=10_000, rng=self.seed)
            return
        policy = "random" if self.name == "evaluate_random_faded" else "expert"
        cs.collect_trajectory(self.cfg, cs.make_policy(policy), wl.seed_base(self.seed))

    def run_pass(self, workers: int) -> dict:
        if self.name == "collect_medium_expert":
            return wl.collect_pass(self.cfg, self.seed, self.workdir, clock)
        if self.name == "evaluate_random_faded":
            return wl.evaluate_pass(self.cfg, self.seed, workers, clock)
        return wl.jensen_pass(self.cfg, self.seed, clock)

    def check(self, out: dict, checks: wl.Checks) -> None:
        if self.name == "collect_medium_expert":
            wl.check_collect(out, checks)
        elif self.name == "evaluate_random_faded":
            wl.check_evaluate(out, checks, self.cfg.horizon)
        else:
            wl.check_jensen(out, checks)

    def timed_pass(self, workers: int, targets=None) -> tuple:
        """One pass between two timings of the reference kernel.  With
        ``targets`` the pass runs traced, and the wrappers are removed right
        after it, before any check runs.  Returns (pass output, tracer or None)."""
        ref0 = self.reference_s()
        tracer = None
        if targets is None:
            out = self.run_pass(workers)
        else:
            tracer = Tracer()
            tracer.install(*targets)
            try:
                out = self.run_pass(workers)
            finally:
                restored = tracer.uninstall()
            out["restored"] = restored
            out["trace"] = tracer.summary()
        ref1 = self.reference_s()
        out["refs_s"] = (ref0, ref1)
        out["ref_s"] = (ref0 + ref1) / 2.0
        return out, tracer

    def phase(self, seconds: float, workers: int, checks: wl.Checks,
              between=None) -> list:
        """Repeat checked, untraced passes for ``seconds`` (at least one),
        calling ``between()`` after each."""
        outs = []
        deadline = clock() + seconds
        while not outs or clock() < deadline:
            out, _ = self.timed_pass(workers)
            self.check(out, checks)
            outs.append(slim(out))
            if between is not None:
                between()
        return outs

    def traced_phase(self, seconds: float, checks: wl.Checks):
        """Alternate an untraced and a traced pass at one worker for
        ``seconds`` (at least one pair), so drift in machine speed hits both
        sides of the tracing-overhead ratio alike.  Traced passes are not
        checked, so the checks' own calls never appear in the spans.
        Returns (untraced, traced, last tracer)."""
        targets = trace_targets()
        serial, traced = [], []
        deadline = clock() + seconds
        while not traced or clock() < deadline:
            out, _ = self.timed_pass(1)
            self.check(out, checks)
            serial.append(slim(out))
            out, tracer = self.timed_pass(1, targets)
            traced.append(slim(out))
        return serial, traced, tracer


def slim(out: dict) -> dict:
    """Drop a pass's bulky outputs once they have been checked."""
    return {k: v for k, v in out.items() if k not in ("loaded", "result", "reports")}


def check_keys(outs: list, checks: wl.Checks, what: str):
    """Every pass produced the same output key (digest, returns, mean_R)."""
    keys = sorted({o["key"] for o in outs})
    checks.check(len(keys) == 1, what, f"got {keys}")


def check_golden(workload: str, seed: int, key: str, checks: wl.Checks, golden: dict):
    if seed == golden["seed"]:
        checks.check(key == golden[workload], "golden." + workload,
                     f"got {key} expected {golden[workload]}")


def median(outs: list, field: str) -> float:
    return statistics.median(o[field] for o in outs)


def cost(outs: list) -> float:
    """Total pass time over total reference time.  Single reference timings
    are short snapshots of a drifting machine; their sum over the run tracks
    its average speed, and in trials this ratio spread less from run to run
    than the median of per-pass ratios."""
    return sum(o["pass_s"] for o in outs) / sum(o["ref_s"] for o in outs)


# -- tracing -------------------------------------------------------------------


def _reward_terms_bucket(args, kwargs) -> str:
    """Bucket reward_terms by its batch: many SNR matrices at once, else the
    number of threshold vectors (leading axis of tau)."""
    reward_snr = kwargs.get("reward_snr", args[3] if len(args) > 3 else None)
    if np.ndim(args[0]) > 2 or (reward_snr is not None and np.ndim(reward_snr) > 2):
        return "mac.reward_terms.batched"
    tau = args[1]
    return f"mac.reward_terms.b{np.shape(tau)[0] if np.ndim(tau) > 1 else 1}"


def trace_targets():
    """The functions, methods and alias-holding modules the tracer wraps."""
    functions = [
        (cs.mobility.step_motion, "mobility.step_motion"),
        (cs.radio.snr_matrix, "radio.snr_matrix"),
        (cs.radio.sample_fading, "radio.sample_fading"),
        (cs.mac.reward, "mac.reward"),
        (cs.mac.reward_terms, _reward_terms_bucket),
        (cs.mac.verify_jensen, "mac.verify_jensen"),
        (cs.data.collect_trajectory, "data.collect_trajectory"),
        (cs.data.collect_medium_expert, "data.collect_medium_expert"),
        (cs.data.write_dataset, "data.write_dataset"),
        (cs.data.load_dataset, "data.load_dataset"),
        (cs.harness.evaluate, "harness.evaluate"),
    ]
    methods = [
        (cs.CellularNetworkEnv, "reset", "env.reset"),
        (cs.CellularNetworkEnv, "step", "env.step"),
        (cs.CellularNetworkEnv, "preview_step_rewards", "env.preview_step_rewards"),
        (cs.GreedyExpertPolicy, "__call__", "policies.expert"),
        (cs.MediumPolicy, "__call__", "policies.medium"),
        (cs.RandomPolicy, "__call__", "policies.random"),
    ]
    modules = [cs, cs.mobility, cs.radio, cs.mac, cs.env, cs.policies, cs.data,
               cs.harness]
    return functions, methods, modules


def layer_metrics(traced: list, n_ues: int, overhead: float, efficiency: float,
                  checks: wl.Checks) -> dict:
    """Per-layer (value, unit) pairs from the span summaries of the traced passes.

    A layer the workload never calls reads 0.
    """
    names = sorted({n for o in traced for n in o["trace"]})
    per_pass = {n: [o["trace"].get(n, {}).get("calls", 0) for o in traced] for n in names}
    checks.check(all(len(set(c)) == 1 for c in per_pass.values()),
                 "trace.calls_repeat", json.dumps(per_pass))
    calls = {n: sum(c) for n, c in per_pass.items()}
    total = {n: sum(o["trace"][n]["total_ns"] for o in traced if n in o["trace"])
             for n in names}
    own = {n: sum(o["trace"][n]["self_ns"] for o in traced if n in o["trace"])
           for n in names}

    def us(name, table=total):
        return table.get(name, 0) / calls[name] / 1e3 if calls.get(name) else 0.0

    def pct(name, q):
        durs = [d for o in traced if name in o["trace"] for d in o["trace"][name]["durations_ns"]]
        return float(np.percentile(durs, q)) / 1e3 if durs else 0.0

    steps = calls.get("env.step", 0)
    return {
        "mobility.step_motion.us": (us("mobility.step_motion"), "us"),
        "mobility.step_motion.calls_per_ue_step": (
            calls.get("mobility.step_motion", 0) / (n_ues * steps) if steps else 0.0,
            "calls/ue-step"),
        "radio.snr_matrix.us": (us("radio.snr_matrix"), "us"),
        "radio.snr_matrix.calls": (per_pass.get("radio.snr_matrix", [0])[0], "count"),
        "radio.sample_fading.us": (us("radio.sample_fading"), "us"),
        "mac.reward.us": (us("mac.reward"), "us"),
        "mac.reward_terms.b1.us": (us("mac.reward_terms.b1"), "us"),
        "mac.reward_terms.b27.us": (us("mac.reward_terms.b27"), "us"),
        "mac.reward_terms.batched_s": (us("mac.reward_terms.batched") / 1e6, "s"),
        "env.reset.us": (us("env.reset"), "us"),
        "env.step.us": (us("env.step"), "us"),
        "env.step.self_us": (us("env.step", own), "us"),
        "env.preview_step_rewards.us": (us("env.preview_step_rewards"), "us"),
        "env.preview_step_rewards.self_us": (us("env.preview_step_rewards", own), "us"),
        "policies.expert.us": (us("policies.expert"), "us"),
        "policies.medium.us": (us("policies.medium"), "us"),
        "policies.random.us": (us("policies.random"), "us"),
        "data.collect_trajectory.p50_us": (pct("data.collect_trajectory", 50), "us"),
        "data.collect_trajectory.p90_us": (pct("data.collect_trajectory", 90), "us"),
        "data.write_dataset.s": (us("data.write_dataset") / 1e6, "s"),
        "data.load_dataset.s": (us("data.load_dataset") / 1e6, "s"),
        "data.bytes": (traced[0].get("bytes", 0), "bytes"),
        "harness.parallel_efficiency": (efficiency, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


# -- entry points ------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict = GOLDEN):
    """Run one workload; returns (result line, full report, exit code)."""
    checks = wl.Checks()
    job = Workload(workload, seed)
    report: dict = {"workload": workload, "seed": seed, "trace": int(trace),
                    "sizes": wl.sizes(workload), "machine": machine()}
    job.warm_up()

    if not trace:
        # One set-up probe after each pass spreads them over the run, so they
        # sample the same machine states as the passes.
        setups: list = []
        outs = job.phase(seconds, job.workers, checks,
                         between=lambda: setups.append(setup_probe(workload, seed)))
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(workload, seed))
        check_keys(outs, checks, "deterministic_repeat")
        check_golden(workload, seed, outs[0]["key"], checks, golden)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_over_ref": (cost(outs), "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        extra = {"pass_s": (median(outs, "pass_s"), "s"),
                 "reference_s": (median(outs, "ref_s"), "s")}
        if "collect_s" in outs[0]:
            extra["episodes_per_s"] = (outs[0]["episodes"] / median(outs, "collect_s"), "1/s")
            extra["write_mb_per_s"] = (outs[0]["bytes"] / 1e6 / median(outs, "write_s"), "MB/s")
            extra["load_mb_per_s"] = (outs[0]["bytes"] / 1e6 / median(outs, "load_s"), "MB/s")
        elif "episodes" in outs[0]:
            extra["episodes_per_s"] = (outs[0]["episodes"] / median(outs, "pass_s"), "1/s")
        else:
            extra["jensen_msamples_per_s"] = (outs[0]["samples"] / 1e6
                                              / median(outs, "pass_s"), "Msamples/s")
        report["passes"] = len(outs)
        report["pass_times_s"] = [[o["pass_s"], *o["refs_s"]] for o in outs]
    else:
        parallel = job.workers > 1
        share = seconds / 3 if parallel else 0.0
        outs = job.phase(share, job.workers, checks) if parallel else []
        serial, traced, tracer = job.traced_phase(seconds - share, checks)
        checks.check(all(o["restored"] for o in traced), "trace.wrappers_restored")
        tracer.write_spans(job.workdir / "spans.csv")
        check_keys(outs + serial + traced, checks, "trace.same_output_as_untraced")
        check_golden(workload, seed, serial[0]["key"], checks, golden)
        efficiency = cost(serial) / (job.workers * cost(outs)) if parallel else 1.0
        overhead = cost(traced) / cost(serial) - 1.0
        metrics = layer_metrics(traced, job.cfg.n_ues, overhead, efficiency, checks)
        extra = {}
        report["passes"] = {"parallel": len(outs), "serial": len(serial),
                            "traced": len(traced)}

    failed = len(checks.failures)
    extra["failed_frac"] = (failed / checks.attempted, "ratio")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["report_only"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    report["failures"] = checks.failures
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": report["metrics"]}
    (job.workdir / f"result-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return result, report, 0 if failed == 0 else 1


def print_report(result: dict, report: dict) -> None:
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    print(f"workload: {report['workload']} seed={report['seed']} trace={report['trace']}"
          f" sizes={json.dumps(report['sizes'])} passes={json.dumps(report['passes'])}")
    for table in ("metrics", "report_only"):
        for name, m in report[table].items():
            print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for failure in report["failures"]:
        print("FAILED " + failure)
    print(json.dumps(result))


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"],
                        help="one workload, or all of them with and without tracing")
    parser.add_argument("--seed", type=int, default=GOLDEN["seed"])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        runs = [(name, trace) for name in names for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    code = 0
    for name, trace in runs:
        result, report, rc = run(name, args.seed, args.seconds, trace)
        print_report(result, report)
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
