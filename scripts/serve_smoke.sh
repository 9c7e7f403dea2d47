#!/usr/bin/env bash
# Serve smoke: the dhlserve binary end to end over loopback TCP. It starts
# dhlserve on an ephemeral port, reads the bound address from its first
# stdout line, drives it with `dhlload -live` (two cpclient loops for two
# wall seconds), requires failed=0, transport_errors=0 and
# deadline_denied=0 (the requests the run's own deadline cuts count as
# cut=, not as client errors), then pipelines status, status and metrics
# in one write over bash's /dev/tcp and requires their three replies in
# order (two with "stats":, then one with "text":), then sends one metrics
# request and requires dhl_telemetry_dropped_records_total > 0 (the load
# records far more spans than the server's span window keeps), then sends
# SIGTERM and requires the server to log "drained cleanly". The exit trap
# stops the server on every path, so no process outlives the script.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== building dhlserve and dhlload"
go build -o "$tmp/" ./cmd/dhlserve ./cmd/dhlload

"$tmp/dhlserve" -addr 127.0.0.1:0 >"$tmp/serve.out" 2>"$tmp/serve.err" &
pid=$!

# The first stdout line is "DHL control plane on ADDR (...)".
addr=""
for _ in $(seq 100); do
    addr="$(sed -n '1s/^DHL control plane on \([^ ]*\) .*/\1/p' "$tmp/serve.out")"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: dhlserve printed no address" >&2
    cat "$tmp/serve.out" "$tmp/serve.err" >&2
    exit 1
fi

echo "== dhlload -live $addr -clients 2 -duration 2"
"$tmp/dhlload" -live "$addr" -clients 2 -duration 2 | tee "$tmp/load.out"
for want in ' failed=0 ' ' transport_errors=0 ' ' deadline_denied=0$'; do
    if ! grep -q -- "$want" "$tmp/load.out"; then
        echo "FAIL: live load report lacks '${want}'" >&2
        exit 1
    fi
done

echo "== pipelined frames: three requests in one write, three replies in order"
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf '{"op":"status"}\n{"op":"status"}\n{"op":"metrics"}\n' >&3
for want in '"stats":' '"stats":' '"text":'; do
    reply=""
    IFS= read -r -t 10 reply <&3 || true
    if ! grep -qF -- "$want" <<<"$reply"; then
        echo "FAIL: pipelined reply lacks ${want}: ${reply:0:200}" >&2
        exit 1
    fi
done
exec 3<&-
echo "three replies, in order"

echo "== metrics: the span window has dropped records"
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf '{"op":"metrics"}\n' >&3
reply=""
IFS= read -r -t 10 reply <&3 || true
exec 3<&-
dropped="$(grep -o 'dhl_telemetry_dropped_records_total [0-9][0-9.e+]*' <<<"$reply" | cut -d' ' -f2 || true)"
echo "dhl_telemetry_dropped_records_total ${dropped:-missing}"
if ! awk -v d="$dropped" 'BEGIN { exit !(d + 0 > 0) }'; then
    echo "FAIL: metrics reply has no positive dhl_telemetry_dropped_records_total" >&2
    echo "$reply" >&2
    exit 1
fi

echo "== SIGTERM: graceful drain"
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
cat "$tmp/serve.err"
if [ "$status" -ne 0 ] || ! grep -q 'drained cleanly' "$tmp/serve.err"; then
    echo "FAIL: dhlserve exited $status without draining cleanly" >&2
    exit 1
fi
echo "serve smoke: ok"
