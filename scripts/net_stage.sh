#!/usr/bin/env bash
#===- scripts/net_stage.sh - One kv_server + kv_loadgen run -------------===#
#
# Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
#
# Starts BIN_DIR/kv_server in the background (ephemeral port published
# through PORT_FILE), runs BIN_DIR/kv_loadgen --stop-server against it,
# and waits the server out. The SHUTDOWN frame ends the server, so a clean
# exit of both also certifies the drain-ordered teardown. Exits non-zero
# if either process fails.
#
# Usage: scripts/net_stage.sh BIN_DIR PORT_FILE [server-args...] \
#          -- [loadgen-args...]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

BIN_DIR="$1"
PORT_FILE="$2"
shift 2
SERVER_ARGS=()
while [ "$1" != "--" ]; do SERVER_ARGS+=("$1"); shift; done
shift

rm -f "$PORT_FILE"
"$BIN_DIR/kv_server" --port-file="$PORT_FILE" "${SERVER_ARGS[@]}" &
SERVER_PID=$!
if ! "$BIN_DIR/kv_loadgen" --port-file="$PORT_FILE" --stop-server "$@"; then
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  exit 1
fi
wait "$SERVER_PID"
