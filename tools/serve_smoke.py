#!/usr/bin/env python3
"""Smoke client for `epoc serve` (JSONL over a Unix socket).

Modes:
  serve_smoke.py SOCKET           concurrent-job smoke: three jobs with
                                  distinct priorities plus a metrics
                                  scrape, per-job status codes mirroring
                                  the CLI 0/3/1 exit contract, then a
                                  warm resubmission that the persistent
                                  store must answer whole (hits, no
                                  misses, no GRAPE work); finally a
                                  Prometheus scrape whose request
                                  counters must match the jobs
                                  submitted, and a flight-recorder
                                  sweep that downloads every captured
                                  slow trace.
  serve_smoke.py SOCKET degraded  one GRAPE job against a daemon started
                                  with a fault spec: expects status
                                  "degraded", code 3, in the response
                                  and in its flight-recorder entry.

Every compile response's latency_ns must equal its schedule's, and its
flight-recorder entry must carry the job's flow and the response's value
for every result-summary key.

Options:
  --traces DIR   write captured Chrome traces (one JSON file per
                 request id) into DIR for artifact upload.
"""
import json
import os
import socket
import sys
import time


def connect(path, retries=150):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    for _ in range(retries):
        try:
            s.connect(path)
            return s
        except (FileNotFoundError, ConnectionRefusedError):
            time.sleep(0.1)
    raise SystemExit(f"daemon socket {path} never came up")


def rpc(f, requests):
    """Send all request lines, read one response per request, return
    them keyed by jid (jids are assigned in request order per
    connection)."""
    for r in requests:
        f.write(json.dumps(r) + "\n")
    f.flush()
    responses = {}
    for _ in requests:
        line = f.readline()
        if not line:
            raise SystemExit("daemon closed the connection early")
        d = json.loads(line)
        responses[d["jid"]] = d
    return responses


# The result summary every reader of a compile shares (Pipeline.summary).
SUMMARY_KEYS = [
    "request_id", "flow", "device", "mode", "status", "code",
    "latency_ns", "esp", "compile_s", "pulses", "degraded_blocks",
    "retries", "cache_hits", "cache_near_hits", "cache_misses",
    "synth_cache_hits", "synth_cache_misses",
]


def check(cond, msg):
    if not cond:
        raise SystemExit(f"FAIL: {msg}")
    print(f"ok: {msg}")


def parse_prometheus(text):
    """Map `series{labels} value` lines to floats, skipping comments."""
    series = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


def check_numbers_agree(f, responses, flow):
    """Each response's latency is its schedule's, and its flight entry
    (keyed by request id) carries the job's flow and the response's
    value for every summary key."""
    (recent_r,) = rpc(f, [{"cmd": "recent"}]).values()
    entries = {e["id"]: e["summary"] for e in recent_r["recent"]}
    for name, r in responses:
        check(r.get("latency_ns") == r["schedule"]["latency_ns"],
              f"{name} latency_ns equals its schedule's "
              f"({r.get('latency_ns')})")
        entry = entries.get(r["request_id"])
        check(entry is not None,
              f"{name} has a flight entry under {r['request_id']}")
        check(entry.get("flow") == flow,
              f"{name} flight entry names flow {flow} ({entry.get('flow')})")
        differ = [k for k in SUMMARY_KEYS
                  if k not in r or entry.get(k) != r[k]]
        check(not differ,
              f"{name} flight entry agrees with the response on every "
              f"summary key (differ: {differ})")


def smoke(path, traces_dir=None):
    s = connect(path)
    f = s.makefile("rw")

    jobs = [
        {"circuit": "bench:bb84", "mode": "grape", "priority": 1},
        {"circuit": "bench:qaoa", "priority": 5},
        {"circuit": "bench:no-such-benchmark"},
        {"cmd": "metrics"},
    ]
    rs = rpc(f, jobs)
    # jids are per-connection sequential: job i -> jid i+1
    bb84, qaoa, bad, metrics = rs[1], rs[2], rs[3], rs[4]

    check(bb84["status"] == "ok" and bb84["code"] == 0,
          "clean GRAPE job: status ok, code 0 (mirrors CLI exit 0)")
    check(qaoa["status"] == "ok" and qaoa["code"] == 0,
          "clean estimate job: status ok, code 0")
    check(bad["status"] == "error" and bad["code"] == 1,
          "unknown benchmark: status error, code 1 (mirrors CLI exit 1)")
    check(bb84["schedule"]["instructions"] and
          bb84["schedule"]["latency_ns"] > 0,
          "schedule payload present")
    check("engine" in metrics and "runs" in metrics,
          "metrics scrape returns both registries")
    check(metrics["engine"]["counters"].get("pool.maps", 0) +
          metrics["engine"]["counters"].get("pool.sequential_maps", 0) >= 0,
          "engine registry carries pool traffic counters")

    cold_hits = bb84["metrics"]["counters"].get("cache.hits", 0)
    check(cold_hits == 0, "cold job resolved nothing from the store")

    # identical resubmission: the engine store must serve every pulse
    # (hits, no misses), so no GRAPE solve runs.  Wall times are not
    # compared: the cold job takes milliseconds, and scheduling noise
    # decided that comparison.
    warm = rpc(f, [{"circuit": "bench:bb84", "mode": "grape"}])
    (warm_r,) = warm.values()
    check(warm_r["status"] == "ok", "warm resubmission ok")
    warm_hits = warm_r["metrics"]["counters"].get("cache.hits", 0)
    check(warm_hits > 0, f"warm job hit the engine store ({warm_hits} hits)")
    check(warm_r["cache_misses"] == 0,
          f"warm job missed nothing ({warm_r['cache_misses']} misses)")
    grape_keys = [k for kind in ("counters", "histograms")
                  for k in warm_r["metrics"].get(kind, {})
                  if k.startswith("grape.")]
    check(not grape_keys, f"warm job ran no GRAPE (grape.* keys: {grape_keys})")
    check(warm_r["schedule"] == bb84["schedule"],
          "warm schedule identical to cold")

    final = rpc(f, [{"cmd": "metrics"}])
    (final_m,) = final.values()
    served = final_m["engine"]["counters"].get("serve.jobs", 0)
    check(served == 4, f"engine counted all compile jobs ({served})")

    # request attribution rides on every compile response
    rids = set()
    for name, r in [("bb84", bb84), ("qaoa", qaoa), ("warm", warm_r)]:
        check(isinstance(r.get("request_id"), str) and r["request_id"],
              f"{name} response carries a request id ({r.get('request_id')})")
        rids.add(r["request_id"])
        check(r.get("queue_wait_s", -1.0) >= 0.0,
              f"{name} reports queue wait ({r.get('queue_wait_s')})")
        check(r.get("worker", -1) >= 0,
              f"{name} reports its worker ({r.get('worker')})")
        check(r.get("stages"), f"{name} carries a per-stage breakdown")
        check(r.get("flow") == "epoc",
              f"{name} reports the flow it asked for ({r.get('flow')})")
        check("drained" not in r, f"{name} not marked drained in steady state")
    check(bad.get("request_id"),
          "failed job is still attributable by request id")
    rids.add(bad["request_id"])
    check(len(rids) == 4, "request ids are distinct across the batch")

    # Prometheus exposition: counters must match the jobs we submitted
    prom = rpc(f, [{"cmd": "prometheus"}])
    (prom_r,) = prom.values()
    series = parse_prometheus(prom_r["prometheus"])
    for name, want in [
        ("epoc_serve_jobs_total", 4),
        ('epoc_serve_requests_total{status="ok"}', 3),
        ('epoc_serve_requests_total{status="error"}', 1),
        ("epoc_serve_admitted_total", 4),
        ("epoc_serve_queue_wait_seconds_count", 4),
        ("epoc_serve_e2e_seconds_count", 4),
    ]:
        got = series.get(name)
        check(got == want, f"{name} == {want} (got {got})")
    check(series.get("epoc_run_pipeline_runs_total", 0) >= 1,
          "per-run aggregate exposed under epoc_run_")
    # exposition order is ascending le, and dicts preserve it
    buckets = [v for k, v in series.items()
               if k.startswith("epoc_serve_e2e_seconds_bucket{")]
    check(buckets and all(a <= b for a, b in zip(buckets, buckets[1:])),
          "latency buckets are cumulative")
    check(buckets[-1] == 4, "le=+Inf bucket equals the job count")

    # flight recorder: one entry per job that reached the pipeline (the
    # unknown-benchmark job fails before compilation and leaves none)
    recent = rpc(f, [{"cmd": "recent"}])
    (recent_r,) = recent.values()
    entries = recent_r["recent"]
    check(len(entries) == 3,
          f"flight recorder holds the 3 compiled jobs ({len(entries)})")
    flight_ids = {e["id"] for e in entries}
    check(flight_ids == rids - {bad["request_id"]},
          "flight entries keyed by the compile request ids")
    check_numbers_agree(f, [("bb84", bb84), ("qaoa", qaoa), ("warm", warm_r)],
                        "epoc")

    captured = [e for e in entries if e.get("trace_captured")]
    if traces_dir:
        check(captured, "slow threshold captured traces for download")
        os.makedirs(traces_dir, exist_ok=True)
        for e in captured:
            tr = rpc(f, [{"cmd": "trace", "id": e["id"]}])
            (tr_r,) = tr.values()
            check(tr_r["status"] == "ok" and
                  "traceEvents" in tr_r["trace"],
                  f"trace for {e['id']} is a Chrome event document")
            out = os.path.join(traces_dir, f"{e['id']}.json")
            with open(out, "w") as fh:
                json.dump(tr_r["trace"], fh)
            print(f"ok: wrote {out}")
    s.close()
    print("serve smoke passed")


def degraded(path):
    s = connect(path)
    f = s.makefile("rw")
    rs = rpc(f, [{"circuit": "bench:bb84", "mode": "grape"}])
    (r,) = rs.values()
    check(r["status"] == "degraded" and r["code"] == 3,
          "faulted GRAPE job: status degraded, code 3 (mirrors CLI exit 3)")
    check(r.get("flow") == "epoc",
          f"degraded job reports the flow it asked for ({r.get('flow')})")
    check(r["schedule"]["instructions"],
          "degraded job still returns a valid fallback schedule")
    check_numbers_agree(f, [("degraded", r)], "epoc")
    s.close()
    print("degraded smoke passed")


if __name__ == "__main__":
    argv = sys.argv[1:]
    traces = None
    if "--traces" in argv:
        i = argv.index("--traces")
        traces = argv[i + 1]
        del argv[i:i + 2]
    if not argv:
        raise SystemExit(__doc__)
    if len(argv) > 1 and argv[1] == "degraded":
        degraded(argv[0])
    else:
        smoke(argv[0], traces_dir=traces)
