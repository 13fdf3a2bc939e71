#!/bin/sh
# `mcps serve` as a daemon: start it on a Unix socket with a snapshot
# path, drive it with `mcps load`, stop it with SIGTERM. The server must
# drain (exit 0, print its `drained:` line) and leave a snapshot that
# the artifact cache of `mcps pipeline --cache` loads.
#
#   daemon_roundtrip.sh <path-to-mcps> <work-dir>
set -u
mcps="$1"
work="$2"
rm -rf "$work" && mkdir -p "$work" || exit 1
sock="$work/serve.sock"
snap="$work/serve.cache"
log="$work/serve.log"

fail() { echo "FAIL: $*" >&2; cat "$log" >&2; exit 1; }

"$mcps" serve --unix "$sock" --cache-save "$snap" >"$log" 2>&1 &
pid=$!
tries=0
until grep -q '^listening on ' "$log"; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { kill "$pid"; fail "server never listened"; }
    sleep 0.1
done

"$mcps" load --unix "$sock" --quick >"$work/load.log" 2>&1 \
    || { kill "$pid"; cat "$work/load.log" >&2; fail "mcps load failed"; }

kill -TERM "$pid"
wait "$pid"
rc=$?
[ "$rc" -eq 0 ] || fail "server exited $rc after SIGTERM"
grep -q '^drained: requests=16 completed=16 ' "$log" \
    || fail "no drained: line for 16 completed requests"

loaded=$("$mcps" pipeline --preset xray --cache "$snap" | sed -n \
    's/^cache: .* (\([0-9]*\) entries loaded)$/\1/p')
[ -n "$loaded" ] && [ "$loaded" -gt 0 ] \
    || fail "snapshot loaded '${loaded}' entries into the artifact cache"
echo "OK: drained on SIGTERM; snapshot loaded $loaded entries"
