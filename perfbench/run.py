"""Benchmark of innerproj: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  The run times a set-up (import, fixtures, the text round
trip of every document, the seeded centers and coordinate changes), then
runs whole rounds of jobs until the jobs have taken S seconds, checks every
job's output outside the timed region, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 untraced and traced rounds alternate on the same inputs, the
metrics are the per-layer ones from the traced rounds plus the tracing
overhead, and the spans are written to perfbench/traces/.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the process start, see main()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def process_age():
    """Seconds since this process started, from /proc, so that set-up time
    counts interpreter start-up too; where /proc is missing, since _T0."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])  # field 22, starttime, in clock ticks since boot
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("project-generic", "mapping-cone", "groebner-generic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Loop:
    """Runs jobs one after another and keeps the tally.

    Job times are kept rescaled by the reference kernel (reference.py) run
    just before and just after each job: seconds on a machine where the
    kernel takes reference.REF_SECONDS."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.job_times = []  # (job, rescaled seconds)

    def run_job(self, job, inputs, tracer=None):
        """Run one job; returns its wall seconds, not rescaled."""
        self.attempted += 1
        run = job.run if tracer is None else tracer.span("job", job.run)
        ref = reference.measure()
        t0 = time.perf_counter()
        try:
            out = run(inputs)
        except Exception:  # a job that raises is a failed operation
            self.failed += 1
            sys.stderr.write("%s raised:\n%s" % (job.label, traceback.format_exc()))
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        ref = (ref + reference.measure()) / 2
        rescaled = elapsed * reference.REF_SECONDS / ref
        self.job_times.append((job, rescaled))
        if tracer is not None:
            tracer.job_scale[tracer.job] = rescaled / elapsed
            tracer.uninstall()
        try:
            probs = job.check(job.summarize(out, inputs))
            # Ideals and their Groebner bases refer to each other, so a job's
            # garbage waits for the cycle collector; collect it here, outside
            # the timed region, so that no job runs on another's leftovers.
            del out
            gc.collect()
        finally:
            if tracer is not None:
                tracer.install()
        self.problems += ["%s: %s" % (job.label, p) for p in probs]
        return elapsed

    def run_round(self, jobs, tracer=None):
        """Run a round; returns (wall seconds, rescaled seconds) of its jobs."""
        first = len(self.job_times)
        total = 0.0
        for job, inputs in jobs:
            if tracer is not None:
                tracer.job += 1
            total += self.run_job(job, inputs, tracer)
        return total, sum(t for _, t in self.job_times[first:])

    def jobs_per_s(self, round_jobs):
        """Jobs in a round over the sum of the median time of each of its
        jobs across the run: the rate of a round when every job takes its
        median time, which a burst of load moves less than the mean does."""
        times = {}
        for job, t in self.job_times:
            times.setdefault(job, []).append(t)
        done = [job for job, _ in round_jobs if job in times]
        return len(done) / sum(statistics.median(times[job]) for job in done)


def main(argv):
    # The reference kernel runs right before and right after the set-up;
    # its own run is taken out of the set-up time, and the mean of the two
    # rescales it.
    ref0 = reference.measure()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "innerproj", "__init__.py")):
        sys.stderr.write("innerproj sources not found under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.build(args.workload, args.seed)
    setup_s = process_age() - ref0
    setup_s *= reference.REF_SECONDS / ((ref0 + reference.measure()) / 2)
    loop = Loop()
    if not args.trace:
        measured = 0.0
        k = 0
        while k == 0 or measured < args.seconds:
            measured += loop.run_round(workload.rounds[k % len(workload.rounds)])[0]
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": loop.jobs_per_s(workload.rounds[0]), "unit": "jobs/s"},
            "job_p50_s": {"value": statistics.median(t for _, t in loop.job_times),
                          "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        import tracing

        tracer = tracing.Tracer()
        wall = plain = traced = 0.0
        traced_jobs = 0
        k = 0
        while k == 0 or wall < args.seconds:
            jobs = workload.rounds[k % len(workload.rounds)]
            w, t = loop.run_round(jobs)
            wall += w
            plain += t
            tracer.install()
            try:
                w, t = loop.run_round(jobs, tracer)
            finally:
                tracer.uninstall()
            wall += w
            traced += t
            traced_jobs += len(jobs)
            k += 1
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracing.layer_metrics(tracer, traced_jobs).items()}
        metrics["trace.overhead_ratio"] = {"value": traced / plain - 1.0, "unit": "ratio"}
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "%s-seed%d.tsv.gz" % (args.workload, args.seed)))

    loop.problems += ["post-run: %s" % p for p in workload.finish()]
    for p in loop.problems:
        sys.stderr.write("CHECK FAILED %s\n" % p)
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
