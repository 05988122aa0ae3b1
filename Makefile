# Convenience targets; everything below is plain dune.

XQUEC := dune exec bin/xquec.exe --
SMOKE_DIR := _smoke
GATE_DIR := _gate

# The fast, deterministic experiments the quick bench gate reruns on
# every `make check` (counts, sizes and digests only — quick mode skips
# timing metrics, and experiments not on this list are skipped).
GATE_QUICK_EXPERIMENTS := table1 storage_occupancy ablations homomorphic_scan join heat serve watch compact

.PHONY: all build check test bench bench-gate smoke serve-smoke docs clean

all: build

build:
	dune build

# tier-1 gate: everything compiles and the full test suite passes,
# including the v1-, v2- and v3-format backward-compatibility reads of
# the committed images in test/fixtures/ (only v4 is written): the
# storage suite that reads them runs once, under `dune runtest`, whose
# `(deps (glob_files fixtures/*))` in test/dune gives it the images.
# `make docs` then checks the interface doc comments and cross-checks
# the operator and format references against the sources, so a flag,
# metric or format constant the code no longer has fails the check.
# Finally the quick bench gate reruns the fast experiments and diffs
# their counts and digests against the committed baseline, and a tiny
# generate -> compress -> query -> profile round-trip asserts the
# workload profiler resolves at least one container from the query log.
# The workload-tuning example (parse, search, build) runs and must print
# the compression factor of its tuned build.
# Along the way the image is compressed a second time under
# OCAMLRUNPARAM=R (randomized hash tables) and must be byte-identical,
# as must a workload-tuned pair (the partitioner's search and re-encode
# under -w examples/xmark_workload.xq, plain and under OCAMLRUNPARAM=R)
# and a re-blocked pair (the same with --adaptive-blocks, which runs the
# declared queries at compress time and sizes blocks from what they
# observed); the three images must decompress to byte-identical XML
# (the result writer's output depends on neither the codecs nor the
# block sizes),
# a workload file with a malformed query must make compress exit 2
# naming that query, a truncated query must exit 2 with a positioned
# syntax error, an unbound variable must exit 2 as an evaluation
# error, an XML
# document given as an image must exit 1 as not a valid image,
# EXPLAIN of a Q2-shaped query must show the batched-path operator (so
# set-at-a-time paths cannot silently stop firing), EXPLAIN of the
# person0 lookup written as a path predicate must list, in its strategy
# section, the pushdown into the @id container that the executor ran,
# and its negation [@id != "person0"] must compare on codes only.
check:
	dune build
	dune runtest
	$(MAKE) docs
	mkdir -p $(GATE_DIR)
	dune exec examples/workload_tuning.exe > $(GATE_DIR)/workload-tuning.txt
	grep -q '^compression factor: .* -> .* (tuned)$$' $(GATE_DIR)/workload-tuning.txt
	dune exec bench/main.exe -- --json $(GATE_DIR)/quick.json $(GATE_QUICK_EXPERIMENTS) \
	  > $(GATE_DIR)/quick.log
	dune exec tools/bench_gate.exe -- --quick --candidate $(GATE_DIR)/quick.json
	$(XQUEC) generate -d xmark -s 0.05 -o $(GATE_DIR)/auction.xml
	$(XQUEC) compress $(GATE_DIR)/auction.xml -o $(GATE_DIR)/auction.xqc
	OCAMLRUNPARAM=R $(XQUEC) compress $(GATE_DIR)/auction.xml \
	  -o $(GATE_DIR)/auction-randomized.xqc > /dev/null
	cmp $(GATE_DIR)/auction.xqc $(GATE_DIR)/auction-randomized.xqc
	$(XQUEC) compress $(GATE_DIR)/auction.xml -w examples/xmark_workload.xq \
	  -o $(GATE_DIR)/auction-tuned.xqc > /dev/null
	OCAMLRUNPARAM=R $(XQUEC) compress $(GATE_DIR)/auction.xml -w examples/xmark_workload.xq \
	  -o $(GATE_DIR)/auction-tuned-randomized.xqc > /dev/null
	cmp $(GATE_DIR)/auction-tuned.xqc $(GATE_DIR)/auction-tuned-randomized.xqc
	$(XQUEC) compress $(GATE_DIR)/auction.xml -w examples/xmark_workload.xq --adaptive-blocks \
	  -o $(GATE_DIR)/auction-adaptive.xqc > /dev/null
	OCAMLRUNPARAM=R $(XQUEC) compress $(GATE_DIR)/auction.xml -w examples/xmark_workload.xq \
	  --adaptive-blocks -o $(GATE_DIR)/auction-adaptive-randomized.xqc > /dev/null
	cmp $(GATE_DIR)/auction-adaptive.xqc $(GATE_DIR)/auction-adaptive-randomized.xqc
	$(XQUEC) decompress $(GATE_DIR)/auction.xqc -o $(GATE_DIR)/auction-rt.xml > /dev/null
	$(XQUEC) decompress $(GATE_DIR)/auction-tuned.xqc -o $(GATE_DIR)/auction-tuned-rt.xml > /dev/null
	$(XQUEC) decompress $(GATE_DIR)/auction-adaptive.xqc \
	  -o $(GATE_DIR)/auction-adaptive-rt.xml > /dev/null
	cmp $(GATE_DIR)/auction-rt.xml $(GATE_DIR)/auction-tuned-rt.xml
	cmp $(GATE_DIR)/auction-rt.xml $(GATE_DIR)/auction-adaptive-rt.xml
	printf 'for $$p in document("auction.xml")/site/people/person where $$p/@id = return $$p\n' \
	  > $(GATE_DIR)/bad-workload.xq
	$(XQUEC) compress $(GATE_DIR)/auction.xml -w $(GATE_DIR)/bad-workload.xq \
	  -o $(GATE_DIR)/bad-workload.xqc 2> $(GATE_DIR)/bad-workload.txt; test $$? -eq 2
	grep -q '^xquec: $(GATE_DIR)/bad-workload.xq: query 1 of 1: syntax error at byte [0-9]*: ' \
	  $(GATE_DIR)/bad-workload.txt
	$(XQUEC) query $(GATE_DIR)/auction.xqc \
	  'for $$p in document("auction.xml")/site/people/person where $$p/@id = "person0" return $$p/name' \
	  --query-log $(GATE_DIR)/query-log.jsonl > /dev/null
	$(XQUEC) query $(GATE_DIR)/auction.xqc \
	  'for $$p in document("auction.xml")/site/people/person where' \
	  2> $(GATE_DIR)/syntax-error.txt; test $$? -eq 2
	grep -q '^xquec: syntax error at byte 58: unexpected end of input$$' $(GATE_DIR)/syntax-error.txt
	$(XQUEC) query $(GATE_DIR)/auction.xqc '$$x' 2> $(GATE_DIR)/eval-error.txt; test $$? -eq 2
	grep -q '^xquec: evaluation error: unbound variable $$x$$' $(GATE_DIR)/eval-error.txt
	$(XQUEC) stats $(GATE_DIR)/auction.xml 2> $(GATE_DIR)/not-an-image.txt; test $$? -eq 1
	grep -q '^xquec: $(GATE_DIR)/auction.xml: not a valid XQueC image: ' $(GATE_DIR)/not-an-image.txt
	$(XQUEC) explain $(GATE_DIR)/auction.xqc \
	  'for $$b in document("auction.xml")/site/open_auctions/open_auction return <increase>{$$b/bidder[1]/increase/text()}</increase>' \
	  | grep -q 'batched path $$b/bidder\[1\]/increase/text()'
	$(XQUEC) explain $(GATE_DIR)/auction.xqc \
	  'document("auction.xml")/site/people/person[@id = "person0"]/name' \
	  | sed -n '/^strategy:$$/,/^$$/p' | grep -q '^  pushdown .*containers=/site/people/person/@id'
	$(XQUEC) explain $(GATE_DIR)/auction.xqc \
	  'document("auction.xml")/site/people/person[@id = "person0"]/name' \
	  | grep -q 'predicate cmps: 1 compressed-domain, 0 decompressed$$'
	$(XQUEC) explain $(GATE_DIR)/auction.xqc \
	  'document("auction.xml")/site/people/person[@id = "7"]/name' \
	  | grep -q 'predicate cmps: 0 compressed-domain, [1-9][0-9]* decompressed$$'
	$(XQUEC) explain $(GATE_DIR)/auction.xqc \
	  'document("auction.xml")/site/people/person[@id != "person0"]/name' \
	  | grep -q 'predicate cmps: [1-9][0-9]* compressed-domain, 0 decompressed$$'
	$(XQUEC) profile $(GATE_DIR)/query-log.jsonl --json | grep -q '"container"'
	$(MAKE) serve-smoke

# full bench regression gate: rerun the whole suite (~3 min at the
# default scale) and diff every metric — timings included, with 2x
# slack — against the committed BENCH_results.json. The verdict also
# lands in $(GATE_DIR)/verdict.json for machines.
bench-gate: build
	mkdir -p $(GATE_DIR)
	dune exec bench/main.exe -- --json $(GATE_DIR)/results.json > $(GATE_DIR)/bench.log
	dune exec tools/bench_gate.exe -- --candidate $(GATE_DIR)/results.json \
	  --json $(GATE_DIR)/verdict.json

test: check

# serving smoke: boot the real `xquec serve` process on a small
# repository, fire concurrent requests at it (queries interleaved with
# /metrics scrapes, results checked against a sequential reference),
# replay a shifted query mix until the drift watchdog raises
# drift_sustained on /alerts and in the alert log, and assert it shuts
# down cleanly on SIGTERM. See docs/SERVING.md.
serve-smoke: build
	mkdir -p $(GATE_DIR)
	test -f $(GATE_DIR)/auction.xml || $(XQUEC) generate -d xmark -s 0.05 -o $(GATE_DIR)/auction.xml
	test -f $(GATE_DIR)/auction.xqc || $(XQUEC) compress $(GATE_DIR)/auction.xml -o $(GATE_DIR)/auction.xqc
	dune exec tools/serve_smoke.exe -- _build/default/bin/xquec.exe $(GATE_DIR)/auction.xqc

# documentation gate: every exported item in the storage, compress,
# core, obs, xquery and xmark interfaces must carry an odoc comment (no
# odoc install needed), every value a lib/ interface exports must have a
# caller under lib/, bin/, bench/ or tools/ or a reason in
# tools/export_allow.txt (--exports), and the documents' flags, metric
# names, format magics/flag constants and `Module.name` references must
# all resolve against the sources (--xref; see tools/doc_lint.ml)
docs: build
	ocaml tools/doc_lint.ml lib/storage lib/compress lib/core lib/obs \
	  lib/xquery lib/xmark --exports tools/export_allow.txt \
	  --xref README.md --xref DESIGN.md --xref docs/ARCHITECTURE.md \
	  --xref docs/CONCURRENCY.md --xref docs/SERVING.md --xref docs/FORMATS.md \
	  --xref docs/OBSERVABILITY.md

bench:
	dune exec bench/main.exe

# end-to-end smoke: generate an XMark document, compress it with a small
# workload, then EXPLAIN ANALYZE a query against the repository with
# tracing + metrics on.
smoke: build
	mkdir -p $(SMOKE_DIR)
	$(XQUEC) generate -d xmark -s 0.05 -o $(SMOKE_DIR)/auction.xml
	printf 'for $$p in document("auction.xml")/site/people/person where $$p/@id = "person0" return $$p/name\n' \
	  > $(SMOKE_DIR)/workload.xq
	$(XQUEC) compress $(SMOKE_DIR)/auction.xml -w $(SMOKE_DIR)/workload.xq \
	  -o $(SMOKE_DIR)/auction.xqc --trace-out $(SMOKE_DIR)/compress-trace.json
	$(XQUEC) explain $(SMOKE_DIR)/auction.xqc \
	  'for $$p in document("auction.xml")/site/people/person where $$p/@id = "person0" return $$p/name/text()' \
	  --stats --trace-out $(SMOKE_DIR)/query-trace.json \
	  --query-log $(SMOKE_DIR)/query-log.jsonl
	$(XQUEC) profile $(SMOKE_DIR)/query-log.jsonl
	$(XQUEC) query $(SMOKE_DIR)/auction.xqc \
	  'document("auction.xml")/site/people/person[@id = "person0"]/name' \
	  > $(SMOKE_DIR)/answer-before.txt
	$(XQUEC) compact $(SMOKE_DIR)/auction.xqc --block-size 4096 \
	  -o $(SMOKE_DIR)/auction-compact.xqc
	$(XQUEC) query $(SMOKE_DIR)/auction-compact.xqc \
	  'document("auction.xml")/site/people/person[@id = "person0"]/name' \
	  > $(SMOKE_DIR)/answer-after.txt
	cmp $(SMOKE_DIR)/answer-before.txt $(SMOKE_DIR)/answer-after.txt
	dune exec bench/main.exe -- --scale 0.1 \
	  --json $(SMOKE_DIR)/join.json join
	@echo "smoke artifacts in $(SMOKE_DIR)/"

clean:
	dune clean
	rm -rf $(SMOKE_DIR) $(GATE_DIR)
