#!/usr/bin/env bash
# End-to-end smoke test of the serving stack: generate a corpus, build
# spatial + temporal indexes, start cinctd, hit every endpoint with
# curl (checking status and response schema with jq), round-trip the
# CLI's -remote mode, and shut the daemon down gracefully. CI runs
# this; it also works locally from the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
bindir="$workdir/bin"
datadir="$workdir/data"
mkdir -p "$bindir" "$datadir"
daemon_pid=""

cleanup() {
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$bindir" ./cmd/trajgen ./cmd/cinct ./cmd/cinctd

echo "== generating corpus + timestamps"
"$bindir/trajgen" -dataset singapore2 -trajs 400 -meanlen 20 \
  -out "$workdir/corpus.txt" -times "$workdir/times.txt"

echo "== building indexes"
"$bindir/cinct" build -in "$workdir/corpus.txt" -index "$datadir/smoke.cinct" -shards 4
"$bindir/cinct" build -in "$workdir/corpus.txt" -times "$workdir/times.txt" \
  -index "$datadir/tsmoke.tcinct" -shards 2
# v3 is the only format any build writes: the file cinctd maps.
for f in "$datadir/smoke.cinct" "$datadir/tsmoke.tcinct"; do
  [ "$(head -c 8 "$f")" = CNCTidx3 ] || { echo "smoke: $f is not a v3 container" >&2; exit 1; }
done
echo "ok cinct build / build -times write v3 containers"
# Files older builds wrote (pre-v3 stream formats, committed fixtures)
# are not served: every reader refuses one and names the converter.
cp testdata/legacy/spatial-4.cinct "$workdir/legacy.cinct"
cp testdata/legacy/temporal-4.tcinct "$workdir/tlegacy.tcinct"
if out=$("$bindir/cinct" count -index "$workdir/legacy.cinct" -path "1 2" 2>&1); then
  echo "smoke: cinct count served a pre-v3 file: $out" >&2; exit 1
fi
grep -q 'cinct convert' <<<"$out" || { echo "smoke: pre-v3 refusal does not name cinct convert: $out" >&2; exit 1; }
echo "ok pre-v3 file refused, naming cinct convert"

addr="127.0.0.1:18132"
base="http://$addr"
echo "== starting cinctd on $addr (no -mmap: every engine maps)"
"$bindir/cinctd" -data "$datadir" -addr "$addr" &
daemon_pid=$!

for i in $(seq 1 50); do
  if curl -sf "$base/v1/indexes" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: cinctd exited before becoming ready" >&2; exit 1
  fi
  sleep 0.2
done

# check METHOD PATH JQ_ASSERTION — fails on non-200 or schema drift.
check() {
  local path=$1 assertion=$2 body
  body=$(curl -sf "$base$path") || { echo "smoke: GET $path failed" >&2; exit 1; }
  echo "$body" | jq -e "$assertion" >/dev/null \
    || { echo "smoke: GET $path: schema drift: $body" >&2; exit 1; }
  echo "ok GET $path"
}

# qpost INDEX JSON-BODY — POST to the NDJSON query endpoint, the one
# retrieval route.
qpost() {
  curl -sf -X POST -H 'Content-Type: application/json' -d "$2" "$base/v1/$1/query"
}
# qcount INDEX PATH [FIELDS] — occurrence count of the comma-separated
# PATH, with optional extra request fields (e.g. '"from":0').
qcount() {
  qpost "$1" "{\"path\":[$2],\"kind\":\"count\"${3:+,$3}}" | jq -r 'select(.done == true).count'
}
# qcheck INDEX JSON-BODY JQ_ASSERTION — assertion over the slurped stream.
qcheck() {
  local body
  body=$(qpost "$1" "$2") || { echo "smoke: POST /v1/$1/query $2 failed" >&2; exit 1; }
  jq -e -s "$3" <<<"$body" >/dev/null \
    || { echo "smoke: POST /v1/$1/query $2: schema drift: $body" >&2; exit 1; }
  echo "ok POST /v1/$1/query $2"
}

# A query path guaranteed to exist: the first two edges of trajectory 0.
path=$("$bindir/cinct" show -remote "$base" -name smoke -traj 0 | awk '{print $1","$2}')

echo "== curling endpoints"
check "/v1/indexes" \
  '(.indexes | length) == 2 and [.indexes[] | .mapped] == [true, true] and (.indexes[] | select(.name=="smoke") | .stats.trajectories) == 400 and (.indexes[] | select(.name=="tsmoke") | .temporal) == true'
qcheck smoke "{\"path\":[$path],\"kind\":\"count\"}" \
  'length == 1 and .[0].done == true and (.[0].count | type) == "number" and .[0].count >= 1'
qcheck smoke "{\"path\":[$path],\"limit\":5}" \
  '.[-1].done == true and .[-1].count == length - 1 and length >= 2 and length <= 6 and (.[0] | has("trajectory") and has("offset") and (has("enteredAt") | not))'
check "/v1/smoke/trajectory/0" \
  '.id == 0 and (.edges | length) >= 2'
check "/v1/smoke/subpath?traj=0&from=0&to=2" \
  '.from == 0 and .to == 2 and (.edges | length) == 2'
qcheck tsmoke "{\"path\":[$path],\"from\":0,\"limit\":5}" \
  '.[-1].done == true and length >= 2 and (.[0] | has("trajectory") and has("offset") and has("enteredAt"))'

# The all-time interval count must agree with the spatial count of the
# same path on the same corpus.
tcount=$(qcount tsmoke "$path" '"from":0')
scount=$(qcount tsmoke "$path")
[ "$tcount" = "$scount" ] || {
  echo "smoke: interval count ($tcount) != spatial count ($scount)" >&2; exit 1
}
echo "ok all-time interval count == spatial count"

# The per-operation routes POST /query replaced are gone, not aliased.
for gone in count find temporal/find temporal/count; do
  status=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/smoke/$gone?path=$path")
  case "$status" in
    404|405) ;;
    *) echo "smoke: removed route GET /v1/smoke/$gone returned $status, want 404/405" >&2; exit 1 ;;
  esac
done
echo "ok removed GET count/find/temporal routes answer 404/405"

echo "== metrics endpoint"
# Prometheus text format with the core series present.
ctype=$(curl -sf -o /dev/null -w '%{content_type}' "$base/metrics")
case "$ctype" in
  text/plain*) ;;
  *) echo "smoke: /metrics content type $ctype, want text/plain" >&2; exit 1 ;;
esac
scrape=$(curl -sf "$base/metrics")
for series in cinct_queries_total cinct_query_seconds cinct_http_requests_total \
  cinct_pool_capacity cinct_cache_entries; do
  grep -q "^$series" <<<"$scrape" \
    || { echo "smoke: /metrics missing $series" >&2; exit 1; }
done
# metric_value NAME — current value of a counter line in the last scrape.
metric_value() {
  echo "$scrape" | awk -v m="$1" '$1 == m {print $2}'
}
before=$(metric_value 'cinct_queries_total{kind="count"}')
qcount smoke "$path" >/dev/null
scrape=$(curl -sf "$base/metrics")
after=$(metric_value 'cinct_queries_total{kind="count"}')
[ "${after:-0}" -gt "${before:-0}" ] || {
  echo "smoke: cinct_queries_total{kind=\"count\"} did not advance ($before -> $after)" >&2; exit 1
}
echo "ok GET /metrics (count queries: $before -> $after)"

echo "== streaming query endpoint"
jpath="[${path//,/, }]"

# Count kind must agree with the number of streamed occurrences.
nocc=$(qpost smoke "{\"path\":$jpath}" | jq -s '[.[] | select(has("done") | not)] | length')
[ "$(qcount smoke "$path")" = "$nocc" ] || {
  echo "smoke: query kind=count ($(qcount smoke "$path")) != streamed occurrences ($nocc)" >&2; exit 1
}
echo "ok query kind=count == streamed occurrences ($nocc)"

# Trajectories kind: every record is a distinct id with offset -1, and
# there is at least one.
traj_stream=$(qpost smoke "{\"path\":$jpath,\"kind\":\"trajectories\"}")
ntraj=$(echo "$traj_stream" | jq -s '[.[] | select(has("done") | not)] | length')
[ "$ntraj" -ge 1 ] || { echo "smoke: query kind=trajectories returned no hits" >&2; exit 1; }
echo "$traj_stream" | jq -e -s '[.[] | select(has("done") | not) | .offset] | all(. == -1)' >/dev/null \
  || { echo "smoke: trajectories stream has non -1 offsets" >&2; exit 1; }
echo "ok query kind=trajectories ($ntraj ids)"

# Cursor pagination: pages of 2 followed via the summary cursor must
# concatenate to exactly the unpaged stream.
unpaged_file="$workdir/unpaged.ndjson"
paged_file="$workdir/paged.ndjson"
qpost smoke "{\"path\":$jpath}" | jq -c 'select(has("done") | not)' > "$unpaged_file"
: > "$paged_file"
cursor=""
pages=0
while :; do
  if [ -n "$cursor" ]; then
    body="{\"path\":$jpath,\"limit\":2,\"cursor\":\"$cursor\"}"
  else
    body="{\"path\":$jpath,\"limit\":2}"
  fi
  page=$(qpost smoke "$body")
  echo "$page" | jq -c 'select(has("done") | not)' >> "$paged_file"
  echo "$page" | jq -e 'select(.done == true)' >/dev/null \
    || { echo "smoke: query page missing summary record" >&2; exit 1; }
  cursor=$(echo "$page" | jq -r 'select(.done == true).cursor // empty')
  pages=$((pages + 1))
  [ -z "$cursor" ] && break
  [ "$pages" -gt 200 ] && { echo "smoke: cursor chain does not terminate" >&2; exit 1; }
done
cmp -s "$unpaged_file" "$paged_file" || {
  echo "smoke: concatenated cursor pages differ from unpaged stream" >&2
  diff "$unpaged_file" "$paged_file" >&2 || true
  exit 1
}
[ "$pages" -ge 2 ] || { echo "smoke: pagination made only $pages page(s); cursor untested" >&2; exit 1; }
echo "ok query cursor pagination ($pages pages == unpaged)"

# Limit rule: a negative limit is a 400 at the HTTP layer.
status=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "{\"path\":$jpath,\"limit\":-1}" "$base/v1/smoke/query")
[ "$status" = 400 ] || { echo "smoke: negative limit returned $status, want 400" >&2; exit 1; }
echo "ok 400 on negative limit"

# A misspelt field is a 400, not an unbounded default.
status=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "{\"path\":$jpath,\"limt\":10}" "$base/v1/smoke/query")
[ "$status" = 400 ] || { echo "smoke: unknown body field returned $status, want 400" >&2; exit 1; }
echo "ok 400 on unknown body field"

status=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"path":[1]}' "$base/v1/nosuch/query")
[ "$status" = 404 ] || { echo "smoke: unknown index returned $status, want 404" >&2; exit 1; }
echo "ok 404 on unknown index"

gen=$(curl -sf -X POST "$base/v1/smoke/reload" | jq -e .generation)
[ "$gen" = 2 ] || { echo "smoke: reload generation $gen, want 2" >&2; exit 1; }
echo "ok POST /v1/smoke/reload"

echo "== CLI -remote round-trip"
# grep without -q consumes the whole stream: with pipefail, a -q grep
# that exits at the first match SIGPIPEs the CLI's later lines (e.g.
# find's trailing "next: -cursor ..." hint) and fails the pipeline.
"$bindir/cinct" count -remote "$base" -name smoke -path "${path//,/ }" | grep 'occurrences' >/dev/null \
  || { echo "smoke: remote count failed" >&2; exit 1; }
"$bindir/cinct" find -remote "$base" -name smoke -path "${path//,/ }" -limit 3 | grep 'match(es)' >/dev/null \
  || { echo "smoke: remote find failed" >&2; exit 1; }
"$bindir/cinct" find-traj -remote "$base" -name smoke -path "${path//,/ }" -limit 3 | grep 'trajectorie(s)' >/dev/null \
  || { echo "smoke: remote find-traj failed" >&2; exit 1; }
"$bindir/cinct" find -remote "$base" -name tsmoke -path "${path//,/ }" -from 0 -limit 3 | grep 'entered t=' >/dev/null \
  || { echo "smoke: remote find -from failed" >&2; exit 1; }
"$bindir/cinct" count -remote "$base" -name tsmoke -path "${path//,/ }" -from 0 | grep 'occurrences in' >/dev/null \
  || { echo "smoke: remote count -from failed" >&2; exit 1; }
if "$bindir/cinct" find-interval -remote "$base" -name tsmoke -path "${path//,/ }" >/dev/null 2>&1; then
  echo "smoke: removed subcommand find-interval still runs" >&2; exit 1
fi
"$bindir/cinct" verify -remote "$base" -name smoke -in "$workdir/corpus.txt" -samples 40 \
  || { echo "smoke: remote verify failed" >&2; exit 1; }

echo "== live ingestion"
# A marker path that cannot pre-exist (trajgen edge IDs are small).
mpath="900001,900002"
pre=$(qcount smoke "$mpath")
[ "$pre" = 0 ] || { echo "smoke: marker path pre-exists ($pre)" >&2; exit 1; }

# Ingest two trajectories carrying the marker into the spatial index.
ingest=$(printf '{"edges":[7,900001,900002]}\n{"edges":[900001,900002]}\n' \
  | curl -sf -X POST -H 'Content-Type: application/x-ndjson' --data-binary @- "$base/v1/smoke/ingest")
echo "$ingest" | jq -e '.appended == 2 and .firstId == 400 and .deltaTrajectories == 2' >/dev/null \
  || { echo "smoke: ingest response drift: $ingest" >&2; exit 1; }
echo "ok POST /v1/smoke/ingest (2 rows into the delta)"

# The delta is immediately queryable.
post=$(qcount smoke "$mpath")
[ "$post" = 2 ] || { echo "smoke: delta not queryable: count $post, want 2" >&2; exit 1; }
curl -sf "$base/v1/smoke/trajectory/401" | jq -e '.edges == [900001, 900002]' >/dev/null \
  || { echo "smoke: delta trajectory not reconstructible" >&2; exit 1; }
echo "ok delta queryable (count=2, reconstruction OK)"

# Seal: counts unchanged, delta drained, sealed shards persisted.
sealed=$(curl -sf -X POST "$base/v1/smoke/seal")
echo "$sealed" | jq -e '.sealed == 2 and .deltaTrajectories == 0' >/dev/null \
  || { echo "smoke: seal response drift: $sealed" >&2; exit 1; }
post=$(qcount smoke "$mpath")
[ "$post" = 2 ] || { echo "smoke: seal changed count to $post" >&2; exit 1; }
echo "ok POST /v1/smoke/seal (counts stable across compaction)"

# Reload re-reads the persisted file: the ingested rows must survive.
curl -sf -X POST "$base/v1/smoke/reload" >/dev/null
post=$(qcount smoke "$mpath")
[ "$post" = 2 ] || { echo "smoke: sealed rows lost after reload ($post)" >&2; exit 1; }
curl -sf "$base/v1/indexes" | jq -e '(.indexes[] | select(.name=="smoke") | .stats.trajectories) == 402' >/dev/null \
  || { echo "smoke: reloaded index lost ingested trajectories" >&2; exit 1; }
echo "ok sealed shards persisted (402 trajectories after reload)"

# Temporal ingest with inline seal + interval check over the new row.
tingest=$(printf '{"edges":[900001,900002],"times":[5000000,5000010]}\n' \
  | curl -sf -X POST --data-binary @- "$base/v1/tsmoke/ingest?seal=true")
echo "$tingest" | jq -e '.appended == 1 and .sealed == 1' >/dev/null \
  || { echo "smoke: temporal ingest drift: $tingest" >&2; exit 1; }
tcount=$(qcount tsmoke "$mpath" '"from":4999999,"to":5000001')
[ "$tcount" = 1 ] || { echo "smoke: temporal interval misses ingested row ($tcount)" >&2; exit 1; }
echo "ok temporal ingest + interval query over ingested timestamps"

# CLI ingest round trip against the daemon.
printf '7 900001 900002\n' > "$workdir/more.txt"
"$bindir/cinct" ingest -remote "$base" -name smoke -in "$workdir/more.txt" -seal | grep 'sealed' >/dev/null \
  || { echo "smoke: cinct ingest -remote failed" >&2; exit 1; }
post=$(qcount smoke "$mpath")
[ "$post" = 3 ] || { echo "smoke: CLI ingest not visible (count $post, want 3)" >&2; exit 1; }
echo "ok cinct ingest -remote (count now 3)"

# Bad batches are 400s.
status=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary '{"edges":[]}' "$base/v1/smoke/ingest")
[ "$status" = 400 ] || { echo "smoke: empty-edges ingest returned $status, want 400" >&2; exit 1; }
status=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary '{"edges":[1]}' "$base/v1/tsmoke/ingest")
[ "$status" = 400 ] || { echo "smoke: missing-times ingest returned $status, want 400" >&2; exit 1; }
echo "ok 400 on malformed ingest batches"

echo "== graceful shutdown"
kill -TERM "$daemon_pid"
for i in $(seq 1 50); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke: cinctd did not exit on SIGTERM" >&2; exit 1
fi
wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
[ "$rc" = 0 ] || { echo "smoke: cinctd exited with $rc" >&2; exit 1; }
daemon_pid=""

echo "== converting the pre-v3 files to v3 (page-aligned, mmap-ready)"
# In-place conversion is safe: convert reads the whole file before
# writing, and writes via a temp file + rename.
for f in "$workdir/legacy.cinct" "$workdir/tlegacy.tcinct"; do
  "$bindir/cinct" convert -in "$f" -out "$f"
  [ "$(head -c 8 "$f")" = CNCTidx3 ] || { echo "smoke: convert left $f not a v3 container" >&2; exit 1; }
  mv "$f" "$datadir/"
done

addr="127.0.0.1:18133"
base="http://$addr"
echo "== restarting cinctd -mmap on $addr (the flag is accepted and has no effect)"
"$bindir/cinctd" -data "$datadir" -addr "$addr" -mmap &
daemon_pid=$!
for i in $(seq 1 50); do
  if curl -sf "$base/v1/indexes" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: cinctd -mmap exited before becoming ready" >&2; exit 1
  fi
  sleep 0.2
done

# Every index must serve mapped — the built and sealed ones as written,
# the pre-v3 ones as converted — with every ingested row still present,
# and answers must match the previous run's.
check "/v1/indexes" \
  '[.indexes[] | .mapped] == [true, true, true, true] and (.indexes[] | select(.name=="smoke") | .stats.trajectories) == 403 and (.indexes[] | select(.name=="legacy") | .stats.trajectories) == 120 and (.indexes[] | select(.name=="tlegacy") | .stats.trajectories) == 120 and (.indexes[] | select(.name=="tlegacy") | .temporal) == true'
post=$(qcount smoke "$mpath")
[ "$post" = 3 ] || { echo "smoke: mmap count of marker path is $post, want 3" >&2; exit 1; }
scount2=$(qcount smoke "$path")
[ "$scount2" = "$scount" ] || {
  echo "smoke: count after restart ($scount2) != before ($scount)" >&2; exit 1
}
tcount=$(qcount tsmoke "$mpath" '"from":4999999,"to":5000001')
[ "$tcount" = 1 ] || { echo "smoke: temporal interval count after restart $tcount, want 1" >&2; exit 1; }
echo "ok answers unchanged across restart"
# The converted files answer for their own data: the path of
# trajectory 0 finds trajectory 0 at offset 0, and the same corpus's
# timestamps (all after 0) keep every occurrence in the interval.
lpath=$("$bindir/cinct" show -remote "$base" -name legacy -traj 0 | awk '{print $1","$2}')
qcheck legacy "{\"path\":[$lpath]}" 'any(.[]; .trajectory == 0 and .offset == 0)'
lcount=$(qcount legacy "$lpath")
tlcount=$(qcount tlegacy "$lpath" '"from":0')
[ "$tlcount" = "$lcount" ] && [ "$lcount" -ge 1 ] || {
  echo "smoke: converted tlegacy interval count $tlcount, legacy count $lcount" >&2; exit 1
}
echo "ok converted pre-v3 files serve mapped (interval count $tlcount == spatial count)"

echo "== graceful shutdown (mmap daemon)"
kill -TERM "$daemon_pid"
for i in $(seq 1 50); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke: cinctd -mmap did not exit on SIGTERM" >&2; exit 1
fi
wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
[ "$rc" = 0 ] || { echo "smoke: cinctd -mmap exited with $rc" >&2; exit 1; }
daemon_pid=""

waldir="$workdir/wal"
addr="127.0.0.1:18134"
base="http://$addr"
echo "== restarting cinctd with -wal on $addr (crash-recovery leg)"
"$bindir/cinctd" -data "$datadir" -addr "$addr" -wal "$waldir" &
daemon_pid=$!
for i in $(seq 1 50); do
  if curl -sf "$base/v1/indexes" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: cinctd -wal exited before becoming ready" >&2; exit 1
  fi
  sleep 0.2
done

# Ingest two acknowledged rows and deliberately do NOT seal: without
# the WAL these would die with the process.
mpath2="900003,900004"
ingest=$(printf '{"edges":[900003,900004]}\n{"edges":[7,900003,900004]}\n' \
  | curl -sf -X POST --data-binary @- "$base/v1/smoke/ingest")
echo "$ingest" | jq -e '.appended == 2' >/dev/null \
  || { echo "smoke: WAL-leg ingest drift: $ingest" >&2; exit 1; }
post=$(qcount smoke "$mpath2")
[ "$post" = 2 ] || { echo "smoke: pre-kill count $post, want 2" >&2; exit 1; }

echo "== SIGKILL (no shutdown, no seal)"
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

addr="127.0.0.1:18135"
base="http://$addr"
echo "== restarting cinctd after the kill (WAL replay)"
"$bindir/cinctd" -data "$datadir" -addr "$addr" -wal "$waldir" &
daemon_pid=$!
for i in $(seq 1 50); do
  if curl -sf "$base/v1/indexes" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: cinctd exited before becoming ready after kill" >&2; exit 1
  fi
  sleep 0.2
done
post=$(qcount smoke "$mpath2")
[ "$post" = 2 ] || { echo "smoke: WAL replay lost acknowledged rows (count $post, want 2)" >&2; exit 1; }
curl -sf "$base/v1/smoke/trajectory/404" | jq -e '.edges == [7, 900003, 900004]' >/dev/null \
  || { echo "smoke: replayed trajectory not reconstructible" >&2; exit 1; }
echo "ok acknowledged rows survive SIGKILL via WAL replay"

echo "== compaction over HTTP"
# Seal the replayed delta, then merge every sealed shard into one.
curl -sf -X POST "$base/v1/smoke/seal" >/dev/null
shards_before=$(curl -sf "$base/v1/indexes" | jq '.indexes[] | select(.name=="smoke").stats.shards')
compacted=$(curl -sf -X POST "$base/v1/smoke/compact?full=true")
echo "$compacted" | jq -e '.shardsAfter == 1 and .merged >= 2' >/dev/null \
  || { echo "smoke: compact response drift ($shards_before shards before): $compacted" >&2; exit 1; }
post=$(qcount smoke "$mpath2")
[ "$post" = 2 ] || { echo "smoke: compaction changed marker count to $post" >&2; exit 1; }
post=$(qcount smoke "$mpath")
[ "$post" = 3 ] || { echo "smoke: compaction changed older marker count to $post" >&2; exit 1; }
# The compacted single-shard state must be what the file now holds.
curl -sf -X POST "$base/v1/smoke/reload" >/dev/null
curl -sf "$base/v1/indexes" | jq -e '(.indexes[] | select(.name=="smoke") | .stats.shards) == 1' >/dev/null \
  || { echo "smoke: compacted shard set not persisted" >&2; exit 1; }
echo "ok POST /v1/smoke/compact?full=true (merged $shards_before shards into 1, counts stable)"

echo "== graceful shutdown (WAL daemon)"
kill -TERM "$daemon_pid"
for i in $(seq 1 50); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke: cinctd -wal did not exit on SIGTERM" >&2; exit 1
fi
wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
[ "$rc" = 0 ] || { echo "smoke: cinctd -wal exited with $rc" >&2; exit 1; }
daemon_pid=""

addr="127.0.0.1:18136"
base="http://$addr"
echo "== restarting cinctd with -rate-limit on $addr (traffic-management leg)"
"$bindir/cinctd" -data "$datadir" -addr "$addr" -rate-limit 5 -rate-burst 5 &
daemon_pid=$!
for i in $(seq 1 50); do
  if curl -sf -H 'X-Client-ID: probe' "$base/v1/indexes" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: cinctd -rate-limit exited before becoming ready" >&2; exit 1
  fi
  sleep 0.2
done

# A client flooding past its 5-token bucket must see 429 with an
# integral Retry-After; a different client id keeps its own budget.
# count_as CLIENT-ID [CURL-FLAGS] — one count query under that identity.
count_as() {
  local id=$1; shift
  curl -s -o /dev/null "$@" -H "X-Client-ID: $id" -X POST \
    -d "{\"path\":[$path],\"kind\":\"count\"}" "$base/v1/smoke/query"
}
got429=0
retry_after=""
for i in $(seq 1 20); do
  code=$(count_as flood -w '%{http_code}')
  if [ "$code" = 429 ]; then
    got429=1
    retry_after=$(count_as flood -D - \
      | awk 'tolower($1) == "retry-after:" {gsub(/\r/, ""); print $2}')
    break
  fi
done
[ "$got429" = 1 ] || { echo "smoke: flood of 20 requests never got a 429" >&2; exit 1; }
case "$retry_after" in
  ''|*[!0-9]*) echo "smoke: 429 Retry-After not an integer: '$retry_after'" >&2; exit 1 ;;
esac
[ "$retry_after" -ge 1 ] || { echo "smoke: 429 Retry-After $retry_after, want >= 1" >&2; exit 1; }
code=$(count_as calm -w '%{http_code}')
[ "$code" = 200 ] || { echo "smoke: fresh client id got $code, want 200" >&2; exit 1; }
scrape=$(curl -sf -H 'X-Client-ID: probe' "$base/metrics")
grep -q '^cinct_http_requests_total{code="429"}' <<<"$scrape" \
  || { echo "smoke: 429s not visible in /metrics" >&2; exit 1; }
echo "ok 429 + Retry-After $retry_after for flooding client, fresh client unaffected"

echo "== graceful shutdown (rate-limit daemon)"
kill -TERM "$daemon_pid"
for i in $(seq 1 50); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke: cinctd -rate-limit did not exit on SIGTERM" >&2; exit 1
fi
wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
[ "$rc" = 0 ] || { echo "smoke: cinctd -rate-limit exited with $rc" >&2; exit 1; }
daemon_pid=""

echo "== raw-GPS ingestion + standing queries"
# A synthetic road network, a temporal index whose corpus lives on it,
# and a daemon with the network attached for map-matched ingest.
gpsdir="$workdir/gpsdata"
mkdir -p "$gpsdir"
"$bindir/cinct" roadnet-gen -out "$workdir/net.road" -w 8 -h 8 -seed 7
"$bindir/cinct" gps-simulate -roadnet "$workdir/net.road" -out "$workdir/traces.ndjson" \
  -truth "$workdir/truth.txt" -n 4 -len 10 -noise 0.03 -start 50000 -dt 10 -seed 5
# The ground-truth walks double as the base corpus (with synthetic
# non-decreasing timestamps), so ingested IDs start at 4.
awk '{ line=""; for (i=1;i<=NF;i++) line = line (i>1?" ":"") (NR*1000 + i*10); print line }' \
  "$workdir/truth.txt" > "$workdir/truth-times.txt"
"$bindir/cinct" build -in "$workdir/truth.txt" -times "$workdir/truth-times.txt" \
  -index "$gpsdir/groads.tcinct"

addr="127.0.0.1:18137"
base="http://$addr"
echo "== starting cinctd -roadnet on $addr (gps leg)"
"$bindir/cinctd" -data "$gpsdir" -addr "$addr" -roadnet "groads=$workdir/net.road" &
daemon_pid=$!
for i in $(seq 1 50); do
  if curl -sf "$base/v1/indexes" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: cinctd -roadnet exited before becoming ready" >&2; exit 1
  fi
  sleep 0.2
done

# A standing query on the first walk's opening bigram, registered and
# consuming over SSE before anything is ingested.
subpath=$(awk 'NR==1{print $1" "$2}' "$workdir/truth.txt")
"$bindir/cinct" subscribe -remote "$base" -name groads -path "$subpath" \
  > "$workdir/notify.ndjson" 2> "$workdir/subscribe.log" &
sub_pid=$!
for i in $(seq 1 50); do
  if grep -q 'subscribed:' "$workdir/subscribe.log" 2>/dev/null; then break; fi
  if ! kill -0 "$sub_pid" 2>/dev/null; then
    echo "smoke: cinct subscribe exited early: $(cat "$workdir/subscribe.log")" >&2; exit 1
  fi
  sleep 0.2
done

# Ingest the noisy traces: every one must map-match and append.
"$bindir/cinct" gps-ingest -remote "$base" -name groads -in "$workdir/traces.ndjson" \
  | grep 'ingested 4/4' >/dev/null \
  || { echo "smoke: gps-ingest did not accept all 4 traces" >&2; exit 1; }

# The matched trajectory is immediately queryable and reconstructs to
# exactly the ground-truth walk the trace was simulated along.
"$bindir/cinct" show -remote "$base" -name groads -traj 4 > "$workdir/matched.txt"
diff <(head -1 "$workdir/truth.txt") "$workdir/matched.txt" \
  || { echo "smoke: matched trajectory differs from ground truth" >&2; exit 1; }
gcount=$(qcount groads "${subpath// /,}")
[ "$gcount" -ge 2 ] || { echo "smoke: ingested row not queryable (count $gcount)" >&2; exit 1; }
echo "ok gps-ingest (matched path == ground truth, queryable)"

# The standing query saw the append: at least one SSE push naming the
# index, a trajectory in the ingested range, and its entry timestamp.
for i in $(seq 1 50); do
  if [ -s "$workdir/notify.ndjson" ]; then break; fi
  sleep 0.2
done
[ -s "$workdir/notify.ndjson" ] || { echo "smoke: no SSE notification arrived" >&2; exit 1; }
head -1 "$workdir/notify.ndjson" | jq -e \
  '.index == "groads" and .trajectory >= 4 and (.enteredAt | type) == "number"' >/dev/null \
  || { echo "smoke: SSE notification drift: $(head -1 "$workdir/notify.ndjson")" >&2; exit 1; }
kill -INT "$sub_pid" 2>/dev/null || true
wait "$sub_pid" 2>/dev/null || true
echo "ok standing query received SSE push: $(head -1 "$workdir/notify.ndjson")"

# The SSE stream is the one way to listen: cancelling a subscription
# while a stream is attached ends that stream with an "end" event, and
# the stream is gone afterwards.
subjson=$(curl -sf -X POST -H 'Content-Type: application/json' \
  -d "{\"path\":[${subpath// /, }]}" "$base/v1/groads/subscribe")
echo "$subjson" | jq -e '.index == "groads" and (.subscription | length) > 0 and (has("poll") | not)' >/dev/null \
  || { echo "smoke: subscribe response drift: $subjson" >&2; exit 1; }
subid=$(echo "$subjson" | jq -r .subscription)
curl -sN -D "$workdir/events.hdr" "$base/v1/groads/subscriptions/$subid/events" > "$workdir/events.txt" &
curl_pid=$!
for i in $(seq 1 50); do
  if grep -q '^HTTP/1.1 200' "$workdir/events.hdr" 2>/dev/null; then break; fi
  sleep 0.1
done
grep -q '^HTTP/1.1 200' "$workdir/events.hdr" || { echo "smoke: SSE stream did not attach" >&2; exit 1; }
curl -sf -X DELETE "$base/v1/groads/subscriptions/$subid" \
  | jq -e '.cancelled == true' >/dev/null \
  || { echo "smoke: cancel drift" >&2; exit 1; }
for i in $(seq 1 50); do
  if ! kill -0 "$curl_pid" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$curl_pid" 2>/dev/null; then
  kill "$curl_pid"; echo "smoke: SSE stream still open after cancel" >&2; exit 1
fi
wait "$curl_pid" 2>/dev/null || true
grep -q '^event: end' "$workdir/events.txt" \
  || { echo "smoke: SSE stream ended without an end event: $(cat "$workdir/events.txt")" >&2; exit 1; }
status=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/groads/subscriptions/$subid/events")
[ "$status" = 404 ] || { echo "smoke: events after cancel returned $status, want 404" >&2; exit 1; }
echo "ok subscribe/events/cancel lifecycle over HTTP (end event, then 404)"

echo "== graceful shutdown (gps daemon)"
kill -TERM "$daemon_pid"
for i in $(seq 1 50); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke: cinctd -roadnet did not exit on SIGTERM" >&2; exit 1
fi
wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
[ "$rc" = 0 ] || { echo "smoke: cinctd -roadnet exited with $rc" >&2; exit 1; }
daemon_pid=""

echo "== CLI compaction of a local file"
"$bindir/cinct" compact -index "$datadir/tsmoke.tcinct" | grep 'down to 1' >/dev/null \
  || { echo "smoke: cinct compact -index failed" >&2; exit 1; }
"$bindir/cinct" count -index "$datadir/tsmoke.tcinct" -path "${mpath//,/ }" -from 0 \
  | grep '1 occurrences in' >/dev/null \
  || { echo "smoke: compacted local file lost the ingested row" >&2; exit 1; }
echo "ok cinct compact -index (merged to one shard, answers intact)"

echo "smoke: all checks passed"
