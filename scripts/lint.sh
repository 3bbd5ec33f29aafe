#!/usr/bin/env sh
# Fast pre-commit lint: build trajlint once and run it over the module.
# This is the standalone version of the trajlint stage in ci.sh — a few
# seconds instead of the full race-detector test run. The binary lands
# in ./bin (gitignored).
#
# Flags pass straight through to trajlint, so
#   ./scripts/lint.sh -stats           # per-rule time and findings
#   ./scripts/lint.sh -rules errcheck  # one rule only
#   ./scripts/lint.sh ./internal/engine
# all work; when no package pattern is given, ./... is appended.
# Usage: ./scripts/lint.sh [trajlint flags] [packages]
set -eu

cd "$(dirname "$0")/.."

mkdir -p bin
go build -o bin/trajlint ./cmd/trajlint

# Append the default ./... pattern unless the caller named packages
# (a non-flag argument). Flag values never start with "./" here, so a
# leading "-" or a flag-only invocation means "whole module".
have_pattern=0
for arg in "$@"; do
	case "$arg" in
	-*) ;;
	*) have_pattern=1 ;;
	esac
done
if [ "$have_pattern" -eq 1 ]; then
	./bin/trajlint "$@"
else
	./bin/trajlint "$@" ./...
fi
echo "lint OK"
