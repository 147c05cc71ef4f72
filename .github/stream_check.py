"""CI helper: exercise GET /batch/{id}/stream end to end.

Usage: stream_check.py BASE_URL LOOPS.DDG cold|warm

Submits every loop of the ddg file as one batch (paper strategy,
replication on) and consumes the NDJSON stream twice — plain, as a
foreign reader does, and with ?loop=0, as this repository's clients do
(a ticket's stream replays from the start for every reader) — asserting
each time:

  - every frame is exactly one newline-terminated line holding one JSON
    value (clients frame by line);
  - the hello frame announces stream schema 3 and the right batch size;
  - exactly one outcome frame arrives per job and none of them errors;
  - plain, every result carries its loop text (result.loop); with
    ?loop=0 none does — an absent loop means "the job's";
  - the done frame closes the stream with state "done";
  - in warm mode every outcome is a cache hit (after a server restart
    that proves the persistent store, not just the in-memory LRU);
    in cold mode none is.

Keep the batch smaller than the disk cache's 256-entry write-behind
queue, so the warm assertions cannot be failed by designed-in overflow
drops.

This checks the endpoint's e2e plumbing. It deliberately does NOT make a
wall-clock claim about incremental delivery: the engine compiles ~10k
loops/s, so any "the ticket was still running when frame N arrived"
probe is a race against batch completion. The deterministic proof that
outcomes are pushed as they finish — over this same HTTP endpoint, with
a gated job holding the batch open — is TestBackendConformanceStreaming-
Incremental in backend_conformance_test.go, which CI runs under -race.
"""

import json
import sys
import urllib.request


def main():
    base, ddg_path, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    assert mode in ("cold", "warm"), mode

    with open(ddg_path) as f:
        text = f.read()
    loops = [part + "end\n" for part in text.split("end\n") if part.strip()]
    assert len(loops) >= 2, f"want a real batch, got {len(loops)} loops"
    assert len(loops) <= 250, f"{len(loops)} loops would overflow the disk cache's write queue"
    jobs = [
        {
            "schema": 2,
            "loop": loop,
            "machine": {"config": "4c2b2l64r"},
            "options": {"replicate": True},
        }
        for loop in loops
    ]

    req = urllib.request.Request(
        base + "/batch",
        data=json.dumps({"jobs": jobs}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        ticket = json.load(resp)["id"]

    for query, want_loops in (("", len(jobs)), ("?loop=0", 0)):
        seen, hits, echoed, done_state = consume(base, ticket, query, len(jobs))
        assert done_state == "done", done_state
        assert len(seen) == len(jobs), (len(seen), len(jobs))
        assert echoed == want_loops, f"stream{query}: {echoed} results carry their loop, want {want_loops}"
        if mode == "warm":
            assert hits == len(jobs), f"warm stream: only {hits}/{len(jobs)} cache hits"
        else:
            assert hits == 0, f"cold stream: {hits} unexpected cache hits"
        print(f"stream{query} {mode}: {len(jobs)} outcomes, state {done_state}, {hits} cache hits, {echoed} loops echoed")


def frame_of(line):
    """One stream line -> one frame: newline-terminated, one JSON value."""
    assert line.endswith(b"\n"), f"frame without its newline: {line[-40:]!r}"
    assert line.count(b"\n") == 1, "frame spans lines"
    return json.loads(line)  # raises on anything after the value


def consume(base, ticket, query, total):
    seen = set()
    hits = echoed = 0
    done_state = None
    with urllib.request.urlopen(base + f"/batch/{ticket}/stream{query}") as stream:
        first = frame_of(stream.readline())
        assert first["type"] == "hello", first
        assert first["schema"] == 3, first
        assert first["total"] == total, first
        for line in stream:
            frame = frame_of(line)
            if frame["type"] == "outcome":
                idx = frame.get("index", 0)
                assert idx not in seen, f"job {idx} streamed twice"
                seen.add(idx)
                out = frame["outcome"]
                assert "result" in out and not out.get("error"), out
                if out["result"].get("loop"):
                    echoed += 1
                if out.get("cache_hit"):
                    hits += 1
            elif frame["type"] == "done":
                done_state = frame.get("state")
                break
            else:
                raise AssertionError(f"unexpected frame {frame}")
    return seen, hits, echoed, done_state


if __name__ == "__main__":
    main()
