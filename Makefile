# Convenience targets; CI runs `make ci` on every PR.

.PHONY: all build test test-time all-smoke inline-smoke strategy-smoke fuzz-smoke validate-smoke obs-smoke lint-smoke absint-smoke par-smoke stream-smoke serve-smoke trace-smoke soak-smoke ci loc clean

all: build

build:
	dune build

test:
	dune runtest

# Code lines (non-blank, non-comment .ml/.mli lines) per library, with
# the product and test-only totals.
loc:
	@python3 test/loc.py

# Suite wall time: the whole test suite rerun from scratch (built
# artefacts reused), timed end to end.
test-time:
	@start=$$(date +%s.%N); dune runtest --force; status=$$?; \
	end=$$(date +%s.%N); \
	awk -v s=$$start -v e=$$end 'BEGIN { printf "test wall seconds: %.1f\n", e - s }'; \
	exit $$status

# Every table plus Figures A-C on one benchmark end to end: the
# impact.table-run/v1 report must re-parse, stdout must carry the three
# figure titles, and stdout must byte-compare against the committed
# golden tables (so any replay change that moves a number fails here).
all-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- all -b wc -j 1 --json _obs/all.json > _obs/all.txt
	dune exec bin/checkjson.exe -- _obs/all.json
	grep -q "^Figure A:" _obs/all.txt
	grep -q "^Figure B:" _obs/all.txt
	grep -q "^Figure C:" _obs/all.txt
	cmp _obs/all.txt test/vectors/tables/all-wc.txt

# Every inlining decision end to end: Table 3 (sites inlined, code
# growth, call decrease per benchmark) on all ten programs must
# byte-compare against the committed golden table.
inline-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- table 3 > _obs/t3.txt
	cmp _obs/t3.txt test/vectors/tables/t3.txt

# Smoke the layout-strategy registry: the listing must enumerate it and
# the comparison experiment must run every registered strategy end to end.
strategy-smoke:
	dune exec bin/main.exe -- list
	dune exec bin/main.exe -- table strategy-comparison -b cmp

# Differential layout fuzzer: 200 seeded random programs through the
# whole pipeline and every registered strategy, violation-free.  Seeds
# are printed so a failure is reproducible with `fuzz --seed N`.
fuzz-smoke:
	dune exec bin/fuzz.exe -- --seed 1 --count 200

# One table under exhaustive invariant verification (flow conservation
# and the simulation cross-check included); nonzero exit on violation.
validate-smoke:
	dune exec bin/main.exe -- table strategy-comparison -b cmp --validate=full

# Telemetry end to end: one table run emitting all three machine-readable
# outputs (Chrome trace, metrics dump, row JSON), each of which must
# exist and parse.
obs-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- table comparison -b cmp \
	  --trace-out=_obs/trace.json --metrics-out=_obs/metrics.txt \
	  --json=_obs/rows.json
	test -s _obs/metrics.txt
	dune exec bin/checkjson.exe -- _obs/trace.json _obs/rows.json

# Static layout linter end to end: two benchmarks across every
# registered strategy, JSON report written, re-parsed and byte-compared
# against the committed golden report, lint metrics dumped.  No
# simulation happens anywhere in this target.
lint-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- lint -b cmp,wc --strategy all --format json \
	  --metrics-out=_obs/lint-metrics.txt > _obs/lint.json
	test -s _obs/lint-metrics.txt
	dune exec bin/checkjson.exe -- _obs/lint.json
	cmp _obs/lint.json test/vectors/lint/cmp-wc.json

# Abstract-interpretation cache bounds end to end: certify two
# benchmarks across every registered strategy (no simulation), re-parse
# the impact.absint/v1 report and byte-compare it against the committed
# golden report, then fuzz 200 seeded programs with the
# differential soundness oracle live (always-hit accesses never miss,
# first-miss lines miss at most once per loop entry, simulated misses
# inside every certified interval).
absint-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- absint -b cmp,yacc --strategy all \
	  --format json > _obs/absint.json
	dune exec bin/checkjson.exe -- _obs/absint.json
	cmp _obs/absint.json test/vectors/absint/cmp-yacc.json
	dune exec bin/fuzz.exe -- --seed 1 --count 200

# Parallel bit-identity: the same table and the same fuzz campaigns,
# quiet and with progress, at -j 1 and -j 2 must produce byte-identical
# output (rows, failures, log lines, everything on stdout).
par-smoke:
	rm -rf _par && mkdir -p _par
	dune exec bin/main.exe -- table strategy-comparison -b cmp,wc -j 1 \
	  > _par/table-j1.txt
	dune exec bin/main.exe -- table strategy-comparison -b cmp,wc -j 2 \
	  > _par/table-j2.txt
	cmp _par/table-j1.txt _par/table-j2.txt
	dune exec bin/fuzz.exe -- --seed 1 --count 200 --quiet -j 1 \
	  > _par/fuzz-j1.txt
	dune exec bin/fuzz.exe -- --seed 1 --count 200 --quiet -j 2 \
	  > _par/fuzz-j2.txt
	cmp _par/fuzz-j1.txt _par/fuzz-j2.txt
	dune exec bin/fuzz.exe -- --seed 1 --count 60 -j 1 > _par/fuzz-log-j1.txt
	dune exec bin/fuzz.exe -- --seed 1 --count 60 -j 2 > _par/fuzz-log-j2.txt
	cmp _par/fuzz-log-j1.txt _par/fuzz-log-j2.txt

# Trace store on scaled workloads end to end: each table that reads
# the recording (6: cache replay, 4: the recorded run's transfers, 13:
# paging replay) must be byte-identical between -j 1 and -j 2, and to
# its golden in test/vectors/tables/scale2-t*.txt.
stream-smoke:
	rm -rf _stream && mkdir -p _stream
	for t in 6 4 13; do \
	  for j in 1 2; do \
	    dune exec bin/main.exe -- table $$t -b cmp,wc --scale 2 -j $$j \
	      > _stream/t$$t-scale-j$$j.txt || exit 1; \
	  done; \
	  cmp _stream/t$$t-scale-j1.txt _stream/t$$t-scale-j2.txt || exit 1; \
	  cmp _stream/t$$t-scale-j1.txt test/vectors/tables/scale2-t$$t.txt \
	    || exit 1; \
	done

# Layout service end to end: the committed golden request stream must
# replay byte-identically to the committed responses at `-j 1` and at
# `-j 2` (serve answers each request as it is read, so `-j` must change
# nothing), `--sample` must still print that request stream, a
# 200-request seeded chaos campaign must finish with zero contract
# violations (one well-formed response per request, at least one
# staleness notification, each pushed once), its report must match the
# committed golden byte for byte (pinning the total ok/error/timeout
# counts and the requests per category, not only the allowed statuses)
# at both `-j` settings, and the chaos report plus the replayed
# responses must re-parse with checkjson.
serve-smoke:
	rm -rf _serve && mkdir -p _serve
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  --expect test/vectors/serve/responses.ndjson -b cmp -q -j 1
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  -b cmp -q -j 2 > _serve/replay-j2.ndjson
	cmp _serve/replay-j2.ndjson test/vectors/serve/responses.ndjson
	dune exec bin/serve.exe -- --sample -b cmp > _serve/sample.ndjson
	cmp _serve/sample.ndjson test/vectors/serve/requests.ndjson
	dune exec bin/serve.exe -- --chaos \
	  --chaos-out _serve/chaos.json -q
	cmp _serve/chaos.json test/vectors/serve/chaos-200.json
	dune exec bin/serve.exe -- --chaos -j 2 \
	  --chaos-out _serve/chaos-j2.json -q
	cmp _serve/chaos-j2.json test/vectors/serve/chaos-200.json
	dune exec bin/checkjson.exe -- _serve/chaos.json
	dune exec bin/checkjson.exe -- --ndjson _serve/replay-j2.ndjson \
	  test/vectors/serve/responses.ndjson

# Request tracing end to end: replaying the golden stream with span
# recording on must stay byte-identical to the committed responses
# (instrumentation never changes results), and the emitted Chrome trace
# and metrics dump must exist and parse back.
trace-smoke:
	rm -rf _trace && mkdir -p _trace
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  --expect test/vectors/serve/responses.ndjson -b cmp -q \
	  --trace-out _trace/serve-trace.json
	test -s _trace/serve-trace.json
	dune exec bin/checkjson.exe -- _trace/serve-trace.json
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  -b cmp -q --metrics-out _trace/serve-metrics.txt > /dev/null
	grep -q "serve.latency.all.seconds" _trace/serve-metrics.txt

# Sustained-load soak: 30 seconds of the seeded chaos-weighted workload
# with telemetry live.  The harness itself asserts the contract — the
# chaos campaign's checker over every round (one well-formed response
# per request, statuses and tiers, well-formed staleness notifications
# pushed exactly once), nonzero latency quantiles, live heap under the
# ceiling — and exits 1 on any violation; the impact.soak/v1 report must
# re-parse with its required fields present, and without --seed the soak
# runs on its own default seed (0x50ac), not the chaos campaign's.
soak-smoke:
	rm -rf _soak && mkdir -p _soak
	dune exec bin/serve.exe -- --soak 30 \
	  --soak-out _soak/soak.json -q > _soak/summary.txt
	cat _soak/summary.txt
	grep -q "^soak: seed 0x50ac," _soak/summary.txt
	dune exec bin/checkjson.exe -- _soak/soak.json

ci: build test all-smoke inline-smoke strategy-smoke fuzz-smoke validate-smoke obs-smoke lint-smoke absint-smoke par-smoke stream-smoke serve-smoke trace-smoke soak-smoke

clean:
	dune clean
