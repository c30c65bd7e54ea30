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
# Non-test lines of one layer: the package's own files, not its
# subpackages'.
for pkg in . internal/engine server cmd/cinct; do
  dir=${pkg#.}
  printf 'non-test Go lines %-22s %s\n' "$pkg:" "$(gofiles -v | grep -E "^${dir:+$dir/}[^/]*\.go$" | lines)"
done
for pkg in . ./internal/engine ./server; do
  printf 'exported funcs+types %-19s %s\n' "$pkg:" "$(exported "$pkg")"
done
for pkg in . ./internal/engine ./server; do
  printf 'deprecated exported %-20s %s\n' "$pkg:" "$(deprecated "$pkg")"
done
# Exported error sentinels: package-level Err… variables, each one
# failure a caller tests with errors.Is (grouped var blocks list them
# indented).
sentinels() { go doc -all "$1" | grep -cE '^(var |[[:space:]])Err[A-Z][A-Za-z]* += ' || true; }
for pkg in . ./internal/engine ./server; do
  printf 'error sentinels %-24s %s\n' "$pkg:" "$(sentinels "$pkg")"
done
# Settable option fields of a struct type: its exported fields, where a
# field whose type is itself a struct counts as that struct's fields
# (engine.Options.WAL is three options, not one).
optfields() {
  local pkg=$1 typ=$2 n=0 name ftype fpkg
  while read -r name ftype; do
    case "$ftype" in
      [A-Z]*) fpkg=$pkg ;;                                     # same package
      [a-z]*.[A-Z]*) fpkg=${ftype%%.*} ftype=${ftype#*.} ;;    # pkg.Type
      *) fpkg= ;;                                              # builtin, pointer, func
    esac
    if [ -n "$fpkg" ] && go doc "$fpkg" "$ftype" 2>/dev/null | grep -q "^type $ftype struct {"; then
      n=$((n + $(optfields "$fpkg" "$ftype")))
    else
      n=$((n + 1))
    fi
  done < <(go doc "$pkg" "$typ" | sed -n "/^type $typ struct {/,/^}/p" | grep $'^\t[A-Z]')
  echo "$n"
}
echo "option fields engine.Options:            $(optfields ./internal/engine Options)"
echo "option fields server.Config:             $(optfields ./server Config)"
# The server's one route table (GET /metrics is mounted beside it).
echo "registered API routes:                   $(grep -ho 'Pattern: *"[^"]*"' $(gofiles -v | grep '^server/') | wc -l)"
echo "cinctd flags:                            $(go run ./cmd/cinctd -h 2>&1 | grep -c '^  -')"
echo "cinct subcommands:                       $(grep -c '^	case "' cmd/cinct/main.go)"
# go statements in a package's own non-test files: the goroutines it
# starts (the library's Writer starts none; the engine owns background
# seals and compaction).
gostmts() { ls "$1"/*.go | grep -v '_test\.go$' | xargs cat | grep -cE '^[[:space:]]*go ([[:alnum:]_.]+\(|func)' || true; }
for pkg in . ./internal/engine ./server; do
  printf 'go statements %-26s %s\n' "$pkg:" "$(gostmts "$pkg")"
done
