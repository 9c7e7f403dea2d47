#!/usr/bin/env bash
# Tier-2 quality gate: vet, formatting, and the full test suite under the
# race detector (the sweep worker pool makes data races a first-class
# failure mode). Tier-1 remains `go build ./... && go test ./...`.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

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

echo "OK: vet, gofmt, build, dhllint, race-clean tests"
