"""Run one benchmark workload; the last line of stdout is the result.

    python3 perfbench/run.py --workload code-hot --seed 1 --seconds 6 --trace 0

Run it from anywhere inside a checkout of the repository: the engine is
imported from the directory above ``perfbench/`` and everything the run
writes (Ray's session files, indexes, traces) goes under ``.bench_build/``
there.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The line before the result
holds the run's host and input facts; the traced run also writes its spans
to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
#: about this many bytes below its temp dir
RAY_SOCKET_SUFFIX = 64


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["code-hot", "code-longtail", "ingest-mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input-size multiplier (tests use small values)")
    return p.parse_args(argv)


def _children() -> dict:
    """pid -> parent pid for every process visible in /proc."""
    out = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    out[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def _descendants(pid: int) -> set:
    ppid = _children()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {c for c, p in ppid.items() if p in frontier} - found
        found |= frontier
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _stop_all(pids: set, timeout: float = 30.0) -> None:
    """Wait for ``pids`` to end, killing what is left after ``timeout``;
    reap our own exited children."""
    deadline = time.time() + timeout
    while any(_alive(p) for p in pids) and time.time() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    while any(_alive(p) for p in pids):
        time.sleep(0.05)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break


def _host_facts(args) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "seed": args.seed,
        # what `nproc` prints: OMP_NUM_THREADS when set, else the CPUs
        # this process may run on
        "nproc": int(os.environ.get("OMP_NUM_THREADS")
                     or len(os.sched_getaffinity(0))),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "numpy": numpy.__version__,
                     "python": sys.version.split()[0]},
        "scale": args.scale,
        "seconds": args.seconds,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "solr_indexer_ray",
                                       "__init__.py")):
        print(f"perfbench: no solr_indexer_ray package in {ROOT}",
              file=sys.stderr)
        return 2
    # import from the checkout root, not from this script's directory
    sys.path[0] = ROOT
    # Ray workers import the engine (and this package) from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    import ray
    from ray.data import DataContext

    import solr_indexer_ray
    from perfbench import metrics, workloads
    from perfbench.spans import Tracer

    if not os.path.abspath(solr_indexer_ray.__file__).startswith(ROOT + os.sep):
        print("perfbench: solr_indexer_ray imported from outside "
              f"{ROOT}: {solr_indexer_ray.__file__}", file=sys.stderr)
        return 2

    facts = _host_facts(args)
    work_dir = os.path.join(BUILD, "work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    ray_tmp = os.path.join(BUILD, "ray")
    if len(ray_tmp) + RAY_SOCKET_SUFFIX > 107:
        ray_tmp = None  # path too long for Ray's sockets: Ray's default
    tracer = Tracer(args.trace == 1)
    run = workloads.Run(args.seed, args.seconds, args.scale, tracer,
                        work_dir)
    # a terminated run still stops Ray and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t = time.perf_counter()
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20, _temp_dir=ray_tmp)
    DataContext.get_current().enable_progress_bars = False
    run.setup["ray_start_s"] = time.perf_counter() - t
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    try:
        workloads.WORKLOADS[args.workload](run)
        workloads.finish_e2e(run)
        if run.traced:
            workloads.finish_layers(run)
    finally:
        procs = _descendants(os.getpid())
        ray.shutdown()
        _stop_all(procs)
        shutil.rmtree(session_dir, ignore_errors=True)
        shutil.rmtree(work_dir, ignore_errors=True)

    facts["loadavg_end"] = os.getloadavg()
    facts["workload"] = args.workload
    facts["trace"] = args.trace
    facts.update(run.facts)
    facts["checks"] = {"by_layer": run.check.by_layer,
                       "examples": run.check.examples,
                       "post_commit_probe": run.probe.by_layer,
                       "post_commit_examples": run.probe.examples}
    if run.traced:
        facts["layer_moves"] = {k: v[1] for k, v in metrics.LAYERS.items()}
        tracer.dump(os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-spans.json"))
    names = ({k: u for k, (u, _) in metrics.LAYERS.items()} if run.traced
             else metrics.E2E)
    values = run.layer if run.traced else run.e2e
    result = {
        "correct": run.check.failed == 0 and run.check.attempted > 0,
        "attempted": run.check.attempted,
        "failed": run.check.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in names.items()},
    }
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"facts": facts, "result": result}, f, default=str)
    print(json.dumps({"facts": facts}, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
