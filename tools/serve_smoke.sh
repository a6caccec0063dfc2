#!/usr/bin/env bash
# Service smoke: boot offchip-serve on an ephemeral port, drive it with
# offchip-storm --verify (every served response re-checked against a direct
# in-process run), then SIGTERM the daemon and require a graceful drain —
# exit 0 and the "drained" summary line. Usage:
#   serve_smoke.sh <offchip-serve> <offchip-storm> <workdir>
set -u

# Resolve the binaries before cd'ing into the work dir so relative paths
# keep working.
SERVE=$(realpath "$1")
STORM=$(realpath "$2")
WORK=$3

mkdir -p "$WORK"
cd "$WORK"
rm -f port.txt serve.log BENCH_serve.json

# --jobs 2: single-flight merging needs a second worker to observe the
# leader in flight (a 1-worker pool serialises duplicates into cache hits),
# so don't let a 1-core host default the pool down to one thread.
"$SERVE" --port 0 --port-file port.txt --cache-entries 64 --jobs 2 \
  >serve.log 2>&1 &
SERVE_PID=$!
trap 'kill -9 $SERVE_PID 2>/dev/null' EXIT

for _ in $(seq 1 100); do
  [ -s port.txt ] && break
  sleep 0.1
done
if [ ! -s port.txt ]; then
  echo "FAIL: daemon never published its port" >&2
  cat serve.log >&2
  exit 1
fi
PORT=$(cat port.txt)

if ! "$STORM" --port "$PORT" --levels 1,2 --requests 6 \
      --duplicate-ratio 0.75 --verify --out BENCH_serve.json; then
  echo "FAIL: storm reported errors or verify failures" >&2
  exit 1
fi

# Single-flight merging, made certain by construction rather than left to
# the storm's timing: two identical heavy simulate requests (hundreds of ms
# of simulation each) leave two connections at the same instant. The
# second worker dequeues its copy while the first is still simulating, so
# it must attach to that in-flight leader: the daemon's singleflight_hits
# must rise by at least one across the pair, and one reply must say so.
# No merge means single-flight is broken (or the daemon ran single-worker,
# which the --jobs 2 above rules out).
if ! python3 - "$PORT" <<'EOF'
import json, socket, sys, threading
port = int(sys.argv[1])
def stats():
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(b'{"method": "stats"}\n')
        return json.loads(s.makefile().readline())["singleflight_hits"]
line = json.dumps({"id": "sf", "method": "simulate", "app": "swim",
                   "scale": 0.5}) + "\n"
before = stats()
conns = [socket.create_connection(("127.0.0.1", port)) for _ in range(2)]
start = threading.Barrier(2)
replies = [None, None]
def pair(i):
    start.wait()
    conns[i].sendall(line.encode())
    replies[i] = json.loads(conns[i].makefile().readline())
threads = [threading.Thread(target=pair, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
for r in replies:
    if r is None or r.get("status") != "ok":
        sys.exit("heavy simulate failed: %r" % (r,))
merged = sum(1 for r in replies if r.get("singleflight"))
after = stats()
print(f"singleflight_hits {before} -> {after}, merged replies {merged}")
sys.exit(0 if after - before >= 1 and merged == 1 else 1)
EOF
then
  echo "FAIL: two simultaneous identical requests were not merged" >&2
  exit 1
fi

kill -TERM $SERVE_PID
RC=0
wait $SERVE_PID || RC=$?
trap - EXIT
if [ $RC -ne 0 ]; then
  echo "FAIL: daemon exited $RC after SIGTERM (want 0)" >&2
  cat serve.log >&2
  exit 1
fi
if ! grep -q "drained" serve.log; then
  echo "FAIL: no drain summary in daemon output" >&2
  cat serve.log >&2
  exit 1
fi
if [ ! -s BENCH_serve.json ]; then
  echo "FAIL: storm wrote no BENCH_serve.json" >&2
  exit 1
fi
echo "serve smoke OK (port $PORT)"
