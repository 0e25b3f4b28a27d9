#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Everything the build writes stays under .bench_build/
# at the checkout root; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# The Go command's caches, temporary build files and its config and
# telemetry directory (under XDG_CONFIG_HOME) all stay in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=mod -buildvcs=false"
go -C perfbench build -o "$out/perfbench" .
commit=unknown
if [ -e "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
