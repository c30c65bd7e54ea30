#!/usr/bin/env bash
# Size of the code and of the public surface, counted the same way
# every time so the numbers quoted in CHANGES.md can be reproduced (and
# diffed between two commits) instead of recounted by hand. benchmark/
# is excluded: it is the instrument, not the system. CI prints this.
set -euo pipefail

cd "$(dirname "$0")/.."

# Tracked files plus new ones not yet added, minus anything ignored.
gofiles() {
  git ls-files --cached --others --exclude-standard -- '*.go' | grep -v '^benchmark/' | grep "$@" '_test\.go$'
}
lines() { xargs cat | wc -l; }
# Exported funcs, methods and types of a package, as go doc lists them.
exported() { go doc -all "$1" | grep -c '^func \|^type '; }
# Exported names (fields included) whose doc says "Deprecated:": the
# shims kept only because benchmark/ still calls them.
deprecated() { go doc -all "$1" | grep -c 'Deprecated:' || true; }

echo "non-test Go lines (outside benchmark/):  $(gofiles -v | lines)"
echo "test Go lines (outside benchmark/):      $(gofiles -e | lines)"
for pkg in . ./internal/engine ./server; do
  printf 'exported funcs+types %-19s %s\n' "$pkg:" "$(exported "$pkg")"
done
for pkg in . ./internal/engine ./server; do
  printf 'deprecated exported %-20s %s\n' "$pkg:" "$(deprecated "$pkg")"
done
# Route tables of the three routers (GET /metrics is mounted beside them).
echo "registered API routes:                   $(grep -ho 'Pattern: *"[^"]*"' $(gofiles -v | grep '^server/') | wc -l)"
echo "cinctd flags:                            $(go run ./cmd/cinctd -h 2>&1 | grep -c '^  -')"
echo "cinct subcommands:                       $(grep -c '^	case "' cmd/cinct/main.go)"
