.PHONY: all build test bench verify clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Full gate: build, run the test suite, then the serve, snapshot,
# stream and explain checks that do not run in `dune runtest` yet.
verify: build test
	# The golden and cross-config diffs of `all`, `robustness`, `dynamics`
	# and its event log (domains 1/4, RIB cache on/off), the
	# `micro_dynamics --check` equivalence suite, and the trace, metrics,
	# Prometheus, Perfetto and serve PROM probes run in `dune runtest`;
	# see test/dune.
	# obs.overhead self-check: disabled-telemetry core ns/run within 2% of
	# its history median (skipped until BENCH_history.jsonl has 3 records).
	dune exec bench/micro_propagate.exe -- --gate-overhead 200
	# Serve smoke: one query of each type against the golden transcript,
	# and the two load paths — snapshot writing must be deterministic
	# across processes, and a snapshot-loaded daemon must answer the
	# churned query stream byte-identically to the seed-built daemon it
	# was saved from.
	dune exec bin/beatbgp_cli.exe -- serve --small --churn < test/golden/serve_smoke_queries.txt > /tmp/beatbgp_serve_smoke.out
	diff -u test/golden/serve_smoke.txt /tmp/beatbgp_serve_smoke.out
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
	# chain and the JSONL dump is schema-tagged.
	dune exec bin/beatbgp_cli.exe -- explain --small --prefix anycast --as 39 --provenance-out /tmp/beatbgp_prov.jsonl > /tmp/beatbgp_explain.out
	diff -u test/golden/explain_small.txt /tmp/beatbgp_explain.out
	head -1 /tmp/beatbgp_prov.jsonl | grep -q '"schema":"beatbgp.provenance/1"'
	dune exec bin/beatbgp_cli.exe -- --version | grep -q 'snapshot BBGPSNAP/2'
	dune exec bin/beatbgp_cli.exe -- --version | grep -q 'beatbgp.provenance/1'
	@echo "verify: OK"

clean:
	dune clean
