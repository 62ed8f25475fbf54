#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; it needs ``src/repro`` and
``examples/data`` there and builds nothing (the package is pure Python).
Every workload is a closed loop with one client that sends the next
request only after the previous result arrived (see ``NOTES.md`` for
why each workload exists).  Requests are grouped into *rounds* of a
fixed composition; rounds repeat, with fresh seeded inputs, until the
next one would overrun ``--seconds``.

``--trace 0`` times the workload end to end and prints the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
separate traced run of ``layers.py`` and prints the ``per_layer``
metrics.  Every output is checked against ``expected.json``; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(ROOT, "examples", "data")
sys.path.insert(0, HERE)

import circuits  # noqa: E402

WORKLOADS = ("sweep-wide", "cold-mixed", "serve-closed")
SMALL_EXAMPLES = ("adder4", "fig34", "fig37", "fig62")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A request that takes longer than this is killed and counted failed.
REQUEST_TIMEOUT_S = 60.0
#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


class RunError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def become_subreaper() -> None:
    """Adopt the orphans of this process's children.

    A cold CLI that fans out starts a multiprocessing resource tracker
    which outlives it; as this process's adopted child it can be waited
    for by ``stop_children`` instead of being left behind."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl: orphans go to init as before


def child_pids() -> List[int]:
    """Every live or unreaped child of this process."""
    me, pids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children(grace: float = 3.0) -> None:
    """Stop and wait for every process this one still has.

    This process's own resource tracker (started by the traced run's
    in-process fan-out) is stopped through its pipe, so it exits
    cleanly.  Adopted orphans get ``grace`` seconds to end by themselves,
    then SIGTERM, then SIGKILL; each is reaped."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    started = time.monotonic()
    while True:
        pids = child_pids()
        waited = time.monotonic() - started
        if not pids or waited > 4 * grace:
            return
        for pid in pids:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if done or waited < grace:
                continue
            try:
                os.kill(pid, signal.SIGTERM if waited < 2 * grace
                        else signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# request plans
# ----------------------------------------------------------------------
class Picker:
    """Seeded draws without replacement from the pinned input pools."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.orders: Dict[object, List] = {}

    def _next(self, key, population) -> object:
        order = self.orders.get(key)
        if order is None:
            order = list(population)
            self.rng.shuffle(order)
            self.orders[key] = order
        if not order:
            raise IndexError(f"input pool {key!r} exhausted")
        return order.pop()

    def ila(self, stages: int) -> str:
        index = self._next(stages, range(circuits.POOLS[stages]))
        return circuits.ila_name(stages, index)

    def example(self) -> str:
        # Cycles: the examples are fixed circuits, not a pool.
        order = self.orders.setdefault("examples", [])
        if not order:
            order.extend(SMALL_EXAMPLES)
            self.rng.shuffle(order)
        return order.pop()

    def synth(self) -> str:
        spec, seed = self._next(
            "synth",
            [(s, k) for s in circuits.SYNTH_SPECS for k in circuits.SYNTH_SEEDS],
        )
        return f"{spec}:{seed}"


def campaign(name: str, processes: int = 1) -> dict:
    return {"kind": "campaign", "name": name, "processes": processes}


def atpg(name: str) -> dict:
    return {"kind": "atpg", "name": name}


def synth(key: str) -> dict:
    return {"kind": "synth", "name": key}


def plan_round(workload: str, index: int, pick: Picker) -> List[dict]:
    """The requests of round ``index``: same composition every round,
    fresh seeded inputs each time."""
    if workload == "sweep-wide":
        return [campaign("array10"), campaign(pick.ila(9)), campaign(pick.ila(9))]
    if workload == "cold-mixed":
        requests = [
            campaign(pick.example()),
            campaign(pick.example(), processes=2),
            campaign(pick.ila(5)),
            campaign(pick.ila(6)),
            campaign(pick.ila(7)),
            campaign(pick.ila(8)),
            campaign(pick.ila(7), processes=2),
            atpg("array10" if index % 2 == 0 else "array11"),
            atpg(pick.ila(6)),
            atpg(pick.ila(6)),
            synth(pick.synth()),
            synth(pick.synth()),
        ]
        pick.rng.shuffle(requests)
        return requests
    if workload == "serve-closed":
        # Mostly 17-input circuits: a 50/50 mix with 15-input ones (0.1 s
        # against 0.26 s warm) put the median between the two clusters.
        fresh = [campaign(pick.ila(7))] + [campaign(pick.ila(8)) for _ in range(5)]
        again = list(fresh)
        pick.rng.shuffle(again)
        return fresh + [synth(pick.synth()), synth(pick.synth())] + again
    raise ValueError(f"unknown workload {workload!r}")


def bench_text(name: str) -> str:
    if name.startswith("ila"):
        stages, index = name[3:].split("_")
        return circuits.ila_text(int(stages), int(index))
    with open(os.path.join(EXAMPLES, f"{name}.bench")) as handle:
        return handle.read()


def bench_path(name: str, workdir: str) -> str:
    """Where a cold CLI reads circuit ``name`` (seeded ones are written
    into the run's temporary directory)."""
    if not name.startswith("ila"):
        return os.path.join(EXAMPLES, f"{name}.bench")
    path = os.path.join(workdir, f"{name}.bench")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write(bench_text(name))
    return path


def synth_fields(key: str) -> dict:
    spec, seed = key.split(":")
    return dict(spec=spec, seed=int(seed), **circuits.SYNTH_ARGS)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check(request: dict, result: Optional[dict], expected: dict) -> Optional[str]:
    """``None`` when ``result`` matches the pinned expectation, else why not."""
    if result is None:
        return "no result"
    want = expected[request["kind"]].get(request["name"])
    if want is None:
        return f"no pinned expectation for {request['name']}"
    if request["kind"] == "campaign":
        faults = int(result.get("faults", -1))
        got = {"faults": faults}
        for status in ("detected", "silent", "dangerous"):
            got[status] = round(float(result.get(status, -1)) * faults)
    elif request["kind"] == "atpg":
        got = {k: result.get(k) for k in ("requested", "detected", "redundant")}
    else:
        got = {k: result.get(k) for k in want}
    if got != want:
        return f"{request['kind']} {request['name']}: got {got}, want {want}"
    return None


def expected_exit(request: dict, result: dict) -> int:
    """The CLI exit code a correct result implies (1 is a result, not a
    failure: dangerous faults, aborted targets, no perfect winner)."""
    if request["kind"] == "campaign":
        return 0 if result["dangerous"] == 0 else 1
    if request["kind"] == "atpg":
        return 0 if result["aborted"] == 0 else 1
    return 0 if result["best_perfect"] else 1


# ----------------------------------------------------------------------
# cold CLI processes
# ----------------------------------------------------------------------
def run_process(argv: List[str], cwd: str, timeout: float = REQUEST_TIMEOUT_S):
    """Run one child; ``(seconds, first-line seconds, exit code, stdout,
    max RSS in MiB)``.

    Waits with ``wait4`` so the child's own peak RSS is known; a child
    that overruns ``timeout`` is killed with its whole process group
    (and reaped) and reported with exit code ``None``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines: List[bytes] = []
    first: List[float] = []

    def drain() -> None:
        for line in proc.stdout:
            if not first:
                first.append(time.perf_counter() - started)
            lines.append(line)

    reader = threading.Thread(target=drain)
    reader.start()
    timer = threading.Timer(timeout, kill_group)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    text = b"".join(lines).decode(errors="replace")
    code = proc.returncode if proc.returncode >= 0 else None
    return (seconds, first[0] if first else seconds, code, text,
            usage.ru_maxrss / 1024.0)


def cli_argv(request: dict, workdir: str) -> List[str]:
    base = [sys.executable, "-m", "repro"]
    if request["kind"] == "synth":
        fields = synth_fields(request["name"])
        return base + [
            "synth", "--spec", fields["spec"], "--seed", str(fields["seed"]),
            "--population", str(fields["population"]),
            "--generations", str(fields["generations"]),
            "--max-gates", str(fields["max_gates"]), "--json",
        ]
    argv = base + [request["kind"], bench_path(request["name"], workdir), "--json"]
    if request.get("processes", 1) > 1:
        argv += ["--processes", str(request["processes"])]
    return argv


def cold_request(request: dict, workdir: str, expected: dict) -> dict:
    seconds, first, code, text, rss = run_process(
        cli_argv(request, workdir), workdir
    )
    lines = text.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    problem = check(request, result, expected)
    if problem is None and code != expected_exit(request, result):
        problem = f"{request['name']}: exit code {code}"
    return {"seconds": seconds, "first_line": first, "rss": rss,
            "problem": problem}


def cold_setup(workload: str, seed: int, workdir: str) -> float:
    """One set-up: write a round of seeded inputs, then the untimed
    warm-up (a cold CLI on the smallest example, so the interpreter,
    the bytecode cache and the page cache are warm)."""
    started = time.perf_counter()
    pick = Picker(random.Random(f"perfbench:{workload}:{seed}"))
    for request in plan_round(workload, 0, pick):
        if request["kind"] != "synth":
            bench_path(request["name"], workdir)
    _s, _f, code, _t, _r = run_process(
        [sys.executable, "-m", "repro", "campaign",
         os.path.join(EXAMPLES, "fig62.bench"), "--json"],
        workdir,
    )
    if code not in (0, 1):
        raise RunError(f"warm-up campaign failed with exit code {code}")
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# the warm server
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --workers 1`` subprocess with a journal."""

    def __init__(self, workdir: str, tag: str) -> None:
        state = os.path.join(workdir, f"state-{tag}")
        self.log = open(os.path.join(workdir, f"serve-{tag}.log"), "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--state-dir", state],
            cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log, stdin=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._port()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _port(self) -> int:
        line = self.proc.stdout.readline()
        marker = "listening on http://"
        if marker not in line:
            raise RunError(f"server did not start: {line.strip()!r}")
        return int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RunError("server never became ready")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def post(self, body: dict):
        """Submit one request; ``(seconds, first-line seconds, result)``."""
        payload = json.dumps(body).encode()
        started = time.perf_counter()
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        result, first = None, None
        try:
            conn.request("POST", "/campaign", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status != 200:
                response.read()
                return time.perf_counter() - started, None, None
            for raw in response:
                if first is None:
                    first = time.perf_counter() - started
                line = json.loads(raw)
                if line.get("event") == "result":
                    result = line
        finally:
            conn.close()
        return time.perf_counter() - started, first, result

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RunError("VmHWM not reported")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def serve_body(request: dict) -> dict:
    if request["kind"] == "synth":
        return dict(kind="synth", **synth_fields(request["name"]))
    return {"netlist": bench_text(request["name"])}


def serve_request(server: Server, request: dict, expected: dict) -> dict:
    seconds, first, result = server.post(serve_body(request))
    problem = check(request, result, expected)
    return {
        "seconds": seconds,
        "first_line": seconds if first is None else first,
        "problem": problem,
        "replayed": bool(result and result.get("replayed")),
    }


# ----------------------------------------------------------------------
# the timed loop
# ----------------------------------------------------------------------
def timed_rounds(workload, seed, seconds, send):
    """Run rounds until the next would overrun ``seconds``.

    ``send(request)`` performs one request and returns its record.
    Returns ``(records, round walls)``.  Rounds also stop when an input
    pool runs out, so no input is ever sent twice as a fresh request."""
    pick = Picker(random.Random(f"perfbench:{workload}:{seed}"))
    records: List[dict] = []
    walls: List[float] = []
    started = time.perf_counter()
    index = 0
    while not walls or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        try:
            plan = plan_round(workload, index, pick)
        except IndexError:
            break
        round_started = time.perf_counter()
        for request in plan:
            record = send(request)
            record["request"] = request
            records.append(record)
        walls.append(time.perf_counter() - round_started)
        index += 1
    return records, walls


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def summarize(records, walls, setups, peak_rss) -> dict:
    latencies = [r["seconds"] for r in records]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "request_p90_s": (percentile(latencies, 90), "s"),
        "first_line_p50_s": (
            statistics.median(r["first_line"] for r in records), "s"
        ),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_cold(workload, seed, seconds, workdir, expected):
    setups = []
    for i in range(SETUP_REPEATS):
        sub = os.path.join(workdir, f"setup{i}")
        os.mkdir(sub)
        setups.append(cold_setup(workload, seed, sub))
    records, walls = timed_rounds(
        workload, seed, seconds,
        lambda request: cold_request(request, workdir, expected),
    )
    peak = max(r["rss"] for r in records)
    return records, summarize(records, walls, setups, peak)


def run_serve(workload, seed, seconds, workdir, expected):
    setups, server = [], None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server(workdir, str(i))
        setups.append(server.ready_s)
    try:
        records, walls = timed_rounds(
            workload, seed, seconds,
            lambda request: serve_request(server, request, expected),
        )
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    return records, summarize(records, walls, setups, peak)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    expected = load_expected()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.trace:
            import layers

            attempted, problems, metrics = layers.run_trace(
                args.workload, args.seed, args.seconds, workdir, expected
            )
        else:
            runner = run_serve if args.workload == "serve-closed" else run_cold
            records, metrics = runner(
                args.workload, args.seed, args.seconds, workdir, expected
            )
            attempted = len(records)
            problems = [r["problem"] for r in records if r["problem"]]
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
