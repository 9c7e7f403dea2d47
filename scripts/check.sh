#!/usr/bin/env bash
# Tier-2 quality gate: vet over both modules, formatting, dhllint, the
# full test suite under the race detector (the control-plane server, the
# campus study's replica pool and dhllint's per-package pass run
# concurrently, so a data race is a real failure mode), the bench module's
# tests with its golden digests (bench/ is its own module, so the root vet
# and test runs skip it), and the
# zero-allocation budgets, which are built !race and so need a race-free
# run. These are the CI check job's build, lint and test steps; its smoke
# steps run only there. Tier-1 remains `go build ./... && go test ./...`.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== (cd bench && go vet ./...)"
(cd bench && go vet ./...)

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== dhllint ./..."
go run ./cmd/dhllint ./...

echo "== go test -race ./..."
go test -race ./...

echo "== (cd bench && go test ./...)"
(cd bench && go test ./...)

echo "== go test -run '^TestHotPathAllocs' ./..."
go test -run '^TestHotPathAllocs' ./...

echo "OK: vet (bench module too), gofmt, build, dhllint, race-clean tests, bench module tests, alloc budgets"
