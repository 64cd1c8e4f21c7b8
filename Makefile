.PHONY: all build test bench verify clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Full gate: build, run the test suite, then smoke-test the CLI with
# tracing on and assert the span tree actually covers the pipeline.
verify: build test
	dune exec bin/beatbgp_cli.exe -- fig1 --small --trace > /tmp/beatbgp_verify.out
	grep -q "=== trace (wall clock) ===" /tmp/beatbgp_verify.out
	grep -q "scenario.facebook" /tmp/beatbgp_verify.out
	grep -q "bgp.propagate" /tmp/beatbgp_verify.out
	grep -q "latency.rtt.ms" /tmp/beatbgp_verify.out
	dune exec bin/beatbgp_cli.exe -- fig1 --small --metrics-out /tmp/beatbgp_verify.json > /dev/null
	grep -q '"counters"' /tmp/beatbgp_verify.json
	dune exec bin/beatbgp_cli.exe -- dynamics --small > /tmp/beatbgp_dynamics.out
	diff -u test/golden/dynamics_small.txt /tmp/beatbgp_dynamics.out
	NETSIM_DOMAINS=1 dune exec bin/beatbgp_cli.exe -- robustness --small > /tmp/beatbgp_robustness_d1.out
	diff -u test/golden/robustness_small.txt /tmp/beatbgp_robustness_d1.out
	NETSIM_DOMAINS=4 dune exec bin/beatbgp_cli.exe -- robustness --small > /tmp/beatbgp_robustness_d4.out
	diff -u test/golden/robustness_small.txt /tmp/beatbgp_robustness_d4.out
	dune exec bench/micro_dynamics.exe -- --check
	# RIB cache transparency: the whole pipeline must match its golden
	# and be byte-identical with the cache enabled vs disabled, serially
	# and with a 4-domain pool.
	NETSIM_DOMAINS=1 dune exec bin/beatbgp_cli.exe -- all --small > /tmp/beatbgp_all_d1.out
	diff -u test/golden/all_small.txt /tmp/beatbgp_all_d1.out
	NETSIM_DOMAINS=1 dune exec bin/beatbgp_cli.exe -- all --small --no-rib-cache > /tmp/beatbgp_all_d1_nocache.out
	diff -u /tmp/beatbgp_all_d1.out /tmp/beatbgp_all_d1_nocache.out
	NETSIM_DOMAINS=4 dune exec bin/beatbgp_cli.exe -- all --small > /tmp/beatbgp_all_d4.out
	diff -u /tmp/beatbgp_all_d1.out /tmp/beatbgp_all_d4.out
	NETSIM_DOMAINS=4 dune exec bin/beatbgp_cli.exe -- all --small --no-rib-cache > /tmp/beatbgp_all_d4_nocache.out
	diff -u /tmp/beatbgp_all_d1.out /tmp/beatbgp_all_d4_nocache.out
	# Flight-recorder determinism: the event log must be byte-identical
	# run-to-run and across domain counts.
	NETSIM_DOMAINS=1 dune exec bin/beatbgp_cli.exe -- dynamics --small --event-log /tmp/beatbgp_events_a.jsonl > /dev/null
	NETSIM_DOMAINS=1 dune exec bin/beatbgp_cli.exe -- dynamics --small --event-log /tmp/beatbgp_events_b.jsonl > /dev/null
	diff -q /tmp/beatbgp_events_a.jsonl /tmp/beatbgp_events_b.jsonl
	NETSIM_DOMAINS=4 dune exec bin/beatbgp_cli.exe -- dynamics --small --event-log /tmp/beatbgp_events_d4.jsonl > /dev/null
	diff -q /tmp/beatbgp_events_a.jsonl /tmp/beatbgp_events_d4.jsonl
	head -1 /tmp/beatbgp_events_a.jsonl | grep -q '"schema":"beatbgp.events/1"'
	# Exporter smoke: Prometheus text format and a parseable Perfetto trace.
	dune exec bin/beatbgp_cli.exe -- fig1 --small --metrics-prom /tmp/beatbgp_verify.prom --trace-perfetto /tmp/beatbgp_verify_trace.json > /dev/null
	grep -q '# TYPE netsim_bgp_announcements_exported_total counter' /tmp/beatbgp_verify.prom
	grep -q 'netsim_latency_rtt_ms_bucket{le="+Inf"}' /tmp/beatbgp_verify.prom
	grep -q '"traceEvents"' /tmp/beatbgp_verify_trace.json
	grep -q '"name":"bgp.propagate"' /tmp/beatbgp_verify_trace.json
	# obs.overhead self-check: disabled-telemetry core ns/run within 2% of
	# its history median (skipped until BENCH_history.jsonl has 3 records).
	dune exec bench/micro_propagate.exe -- --gate-overhead 200
	# Serve smoke: one query of each type against the golden transcript,
	# a Prometheus scrape through the wire protocol, and the two load
	# paths — snapshot writing must be deterministic across processes,
	# and a snapshot-loaded daemon must answer the churned query stream
	# byte-identically to the seed-built daemon it was saved from.
	dune exec bin/beatbgp_cli.exe -- serve --small --churn < test/golden/serve_smoke_queries.txt > /tmp/beatbgp_serve_smoke.out
	diff -u test/golden/serve_smoke.txt /tmp/beatbgp_serve_smoke.out
	printf 'PROM\nQUIT\n' | dune exec bin/beatbgp_cli.exe -- serve --small > /tmp/beatbgp_serve_prom.out
	grep -q '# TYPE netsim_serve_requests_total counter' /tmp/beatbgp_serve_prom.out
	dune exec bin/beatbgp_cli.exe -- serve --small --churn --save-snapshot /tmp/beatbgp_serve_a.snap < /dev/null > /dev/null
	dune exec bin/beatbgp_cli.exe -- serve --small --churn --save-snapshot /tmp/beatbgp_serve_b.snap < /dev/null > /dev/null
	cmp /tmp/beatbgp_serve_a.snap /tmp/beatbgp_serve_b.snap
	dune exec bin/beatbgp_cli.exe -- serve --small --churn --snapshot /tmp/beatbgp_serve_a.snap < test/golden/serve_smoke_queries.txt > /tmp/beatbgp_serve_loaded.out
	diff -u /tmp/beatbgp_serve_smoke.out /tmp/beatbgp_serve_loaded.out
	# Concurrent serving: three interleaved client streams must receive
	# byte-identical responses at 1 vs 4 domains, and each client's
	# responses must equal the stream served alone on a fresh daemon.
	NETSIM_DOMAINS=1 dune exec bin/beatbgp_cli.exe -- serve --small --streams test/golden/serve_stream_a.txt,test/golden/serve_stream_b.txt,test/golden/serve_stream_c.txt > /tmp/beatbgp_streams_d1.out
	NETSIM_DOMAINS=4 dune exec bin/beatbgp_cli.exe -- serve --small --streams test/golden/serve_stream_a.txt,test/golden/serve_stream_b.txt,test/golden/serve_stream_c.txt > /tmp/beatbgp_streams_d4.out
	diff -u /tmp/beatbgp_streams_d1.out /tmp/beatbgp_streams_d4.out
	dune exec bin/beatbgp_cli.exe -- serve --small --streams test/golden/serve_stream_a.txt > /tmp/beatbgp_streams_alone.out
	dune exec bin/beatbgp_cli.exe -- serve --small --streams test/golden/serve_stream_b.txt >> /tmp/beatbgp_streams_alone.out
	dune exec bin/beatbgp_cli.exe -- serve --small --streams test/golden/serve_stream_c.txt >> /tmp/beatbgp_streams_alone.out
	awk 'BEGIN{n=-1} /^=== client 0 ===$$/{n++; print "=== client " n " ==="; next} {print}' /tmp/beatbgp_streams_alone.out > /tmp/beatbgp_streams_alone_renum.out
	diff -u /tmp/beatbgp_streams_d1.out /tmp/beatbgp_streams_alone_renum.out
	# Provenance smoke: `beatbgp explain` prints the golden decision
	# chain, the JSONL dump is schema-tagged, and an EXPLAIN bumps the
	# provenance counters visible in a wire-protocol PROM scrape.
	dune exec bin/beatbgp_cli.exe -- explain --small --prefix anycast --as 39 --provenance-out /tmp/beatbgp_prov.jsonl > /tmp/beatbgp_explain.out
	diff -u test/golden/explain_small.txt /tmp/beatbgp_explain.out
	head -1 /tmp/beatbgp_prov.jsonl | grep -q '"schema":"beatbgp.provenance/1"'
	printf 'EXPLAIN anycast 39\nPROM\nQUIT\n' | dune exec bin/beatbgp_cli.exe -- serve --small > /tmp/beatbgp_serve_explain_prom.out
	grep -q '# TYPE netsim_provenance_decisions_peer_total counter' /tmp/beatbgp_serve_explain_prom.out
	grep -q 'netsim_provenance_tiebreak_stable_id_total' /tmp/beatbgp_serve_explain_prom.out
	dune exec bin/beatbgp_cli.exe -- --version | grep -q 'snapshot BBGPSNAP/2'
	dune exec bin/beatbgp_cli.exe -- --version | grep -q 'beatbgp.provenance/1'
	@echo "verify: OK"

clean:
	dune clean
