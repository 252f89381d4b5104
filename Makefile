# Build/verify entry points. `make check` is the CI tier that keeps the
# concurrent metrics/runner code race-clean, smokes the fuzz targets,
# proves the artifact cache round-trips byte-identically on every change,
# drills the supervised sweep engine (chaos injection, crash-resume), and
# smokes the boomd HTTP job service end to end.

GO ?= go

.PHONY: build test vet race cpu-matrix smoke fuzz-smoke cache-roundtrip chaos resume-roundtrip serve-smoke dse-smoke fabric-smoke fabric-chaos bench bench-smoke bench-measure fidelity loc check

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so tests that
# secretly depend on a predecessor (easy to introduce around the measure
# worker pool's package-level state) fail loudly instead of by luck.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Race tier: the packages with new concurrent code (metrics registry,
# Runner worker pool, artifact cache, fault injector, HTTP job service,
# sweep fabric) must stay race-clean. The fabric package runs -short:
# its full 11×3 conformance matrices are covered race-free by `make
# test`, while the journal, lease, resume, and store-economy tests all
# still run under the race detector.
race:
	$(GO) test -race ./internal/metrics ./internal/core ./internal/artifact ./internal/faultinject ./internal/serve
	$(GO) test -race -short ./internal/fabric

# Core-count matrix: the sweep engine and the metrics package (whose span
# attribution must sum to wall clock at any parallelism) pass at 1, 2 and
# 4 CPUs, and the fabric at 1 and 4, so a test that depends on the host's
# core count fails here rather than only on a differently shaped machine.
cpu-matrix:
	$(GO) test -cpu 1,2,4 ./internal/core ./internal/metrics
	$(GO) test -short -cpu 1,4 ./internal/fabric

# Smoke: every example and cmd/validate run to exit 0, and boomflow's
# profile mode writes its SimPoint files and one checkpoint per point.
smoke:
	rm -rf .smoke-check && mkdir -p .smoke-check
	for e in quickstart hotspots energy speedup; do \
		$(GO) run ./examples/$$e > .smoke-check/$$e.txt \
			|| { echo "smoke: examples/$$e failed"; exit 1; }; \
	done
	$(GO) run ./cmd/validate > .smoke-check/validate.txt
	$(GO) run ./cmd/boomflow -bench fft -mode profile -scale tiny -out .smoke-check/fft > /dev/null
	for f in fft.bb fft.simpoints fft.weights fft-sp01.ckpt; do \
		test -s .smoke-check/fft/$$f \
			|| { echo "smoke: boomflow -mode profile did not write $$f"; exit 1; }; \
	done
	rm -rf .smoke-check
	@echo "smoke: OK"

# Fuzz smoke: a few seconds per target on top of the committed seed
# corpora (go accepts one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseBBV -fuzztime 5s ./internal/bbv
	$(GO) test -run '^$$' -fuzz FuzzParseSimPoints -fuzztime 5s ./internal/simpoint
	$(GO) test -run '^$$' -fuzz FuzzArtifactKey -fuzztime 5s ./internal/artifact

# Cache round-trip: cold run populates the cache, warm run must reproduce
# the report byte for byte (cmp) straight from the artifacts.
cache-roundtrip:
	rm -rf .cache-check
	mkdir -p .cache-check
	$(GO) run ./cmd/tables -scale tiny -q -cache .cache-check > .cache-check/cold.txt
	$(GO) run ./cmd/tables -scale tiny -q -cache .cache-check > .cache-check/warm.txt
	cmp .cache-check/cold.txt .cache-check/warm.txt
	rm -rf .cache-check

# Chaos drill: a keep-going sweep with a seeded fault plan (a panic, a
# transient error, artifact corruption) must render tables with FAILED
# cells and exit non-zero — never crash. The in-tree acceptance test
# (TestChaosSweepAcceptance) additionally proves non-faulted pairs stay
# bit-identical; this target proves the CLI wiring end to end.
chaos:
	rm -rf .chaos-check && mkdir -p .chaos-check
	$(GO) run ./cmd/tables -scale tiny -q -keep-going -retries 2 \
		-chaos '42:core.measure/sha/MediumBOOM=panic,core.measure/qsort/*=error' \
		> .chaos-check/out.txt 2> .chaos-check/err.txt; \
		test $$? -ne 0 || { echo "chaos: expected non-zero exit"; exit 1; }
	grep -q FAILED .chaos-check/out.txt
	grep -q 'task(s) failed' .chaos-check/err.txt
	rm -rf .chaos-check

# Resume round-trip: kill a cached sweep after 5 tasks (exit 3), resume
# it — rerunning only the unfinished tasks — and require the resumed
# report to be byte-identical to a warm rerun of the completed campaign
# (wall-clock figures travel with the artifacts, so the compare is exact).
resume-roundtrip:
	rm -rf .resume-check && mkdir -p .resume-check
	$(GO) build -o .resume-check/tables ./cmd/tables
	./.resume-check/tables -scale tiny -q -cache .resume-check/cache \
		-die-after 5 > /dev/null 2>&1; \
		test $$? -eq 3 || { echo "resume: expected die-after exit 3"; exit 1; }
	./.resume-check/tables -scale tiny -q -cache .resume-check/cache -resume \
		> .resume-check/resumed.txt
	./.resume-check/tables -scale tiny -q -cache .resume-check/cache \
		> .resume-check/warm.txt
	cmp .resume-check/resumed.txt .resume-check/warm.txt
	rm -rf .resume-check

# Serve smoke: boot boomd on an ephemeral port, run a tiny campaign
# through boomctl (submit → long-poll result), scrape /metrics, then
# SIGTERM and require a clean drain (exit 0).
serve-smoke:
	rm -rf .serve-check && mkdir -p .serve-check
	$(GO) build -o .serve-check/boomd ./cmd/boomd
	$(GO) build -o .serve-check/boomctl ./cmd/boomctl
	set -e; \
	./.serve-check/boomd -addr 127.0.0.1:0 -q -cache .serve-check/cache \
		> .serve-check/out.txt 2> .serve-check/log.txt & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q 'listening on' .serve-check/out.txt 2>/dev/null && break; sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^boomd: listening on //p' .serve-check/out.txt | head -1); \
	test -n "$$addr" || { echo "serve-smoke: boomd never bound"; kill $$pid; exit 1; }; \
	./.serve-check/boomctl -addr $$addr submit -workloads sha -configs medium \
		-scale tiny -wait > .serve-check/result.json; \
	grep -q '"rows":' .serve-check/result.json; \
	./.serve-check/boomctl -addr $$addr metrics | grep -q 'serve_sweeps_done 1'; \
	kill -TERM $$pid; wait $$pid
	rm -rf .serve-check
	@echo "serve-smoke: OK"

# DSE smoke: boot boomd, drive a 2-axis parametric campaign (4 design
# points) through cmd/dse, and require the shared-stage economy on the
# cold run: one bbv/select/checkpoint chain for the workload next to 4
# detailed measurements. Then restart boomd over the same cache and
# require the warm rerun to be all measurement cache hits with a
# byte-identical frontier (cmp).
dse-smoke:
	rm -rf .dse-check && mkdir -p .dse-check
	$(GO) build -o .dse-check/boomd ./cmd/boomd
	$(GO) build -o .dse-check/boomctl ./cmd/boomctl
	$(GO) build -o .dse-check/dse ./cmd/dse
	set -e; \
	./.dse-check/boomd -addr 127.0.0.1:0 -q -cache .dse-check/cache \
		> .dse-check/out.txt 2> .dse-check/log.txt & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q 'listening on' .dse-check/out.txt 2>/dev/null && break; sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^boomd: listening on //p' .dse-check/out.txt | head -1); \
	test -n "$$addr" || { echo "dse-smoke: boomd never bound"; kill $$pid; exit 1; }; \
	./.dse-check/dse -addr $$addr -workloads sha -base medium \
		-axes 'rob=48,64;predictor=tage,gshare' -scale tiny -json \
		> .dse-check/cold.json; \
	./.dse-check/boomctl -addr $$addr metrics > .dse-check/cold.metrics; \
	grep -q '^artifact_bbv_miss 1$$' .dse-check/cold.metrics; \
	grep -q '^artifact_select_miss 1$$' .dse-check/cold.metrics; \
	grep -q '^artifact_checkpoint_miss 1$$' .dse-check/cold.metrics; \
	grep -q '^artifact_measure_miss 4$$' .dse-check/cold.metrics; \
	kill -TERM $$pid; wait $$pid; \
	./.dse-check/boomd -addr 127.0.0.1:0 -q -cache .dse-check/cache \
		> .dse-check/out2.txt 2> .dse-check/log2.txt & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q 'listening on' .dse-check/out2.txt 2>/dev/null && break; sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^boomd: listening on //p' .dse-check/out2.txt | head -1); \
	test -n "$$addr" || { echo "dse-smoke: second boomd never bound"; kill $$pid; exit 1; }; \
	./.dse-check/dse -addr $$addr -workloads sha -base medium \
		-axes 'rob=48,64;predictor=tage,gshare' -scale tiny -json \
		> .dse-check/warm.json; \
	./.dse-check/boomctl -addr $$addr metrics > .dse-check/warm.metrics; \
	grep -q '^artifact_measure_hit 4$$' .dse-check/warm.metrics; \
	! grep -q '^artifact_measure_miss [1-9]' .dse-check/warm.metrics; \
	kill -TERM $$pid; wait $$pid
	cmp .dse-check/cold.json .dse-check/warm.json
	rm -rf .dse-check
	@echo "dse-smoke: OK"

# Fabric smoke: boot a coordinator boomd and a worker boomd on ephemeral
# ports, run a campaign through the fabric (worker registered, cells
# leased and reported — no local fallback), then rerun the same campaign
# on a standalone boomd and require the two result bodies to be
# byte-identical (cmp). This is the CLI-level proof of the in-tree
# cross-node conformance suite.
fabric-smoke:
	rm -rf .fabric-check && mkdir -p .fabric-check
	$(GO) build -o .fabric-check/boomd ./cmd/boomd
	$(GO) build -o .fabric-check/boomctl ./cmd/boomctl
	set -e; \
	./.fabric-check/boomd -addr 127.0.0.1:0 -q -cache .fabric-check/store \
		> .fabric-check/coord.txt 2> .fabric-check/coord.log & cpid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q 'listening on' .fabric-check/coord.txt 2>/dev/null && break; sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^boomd: listening on //p' .fabric-check/coord.txt | head -1); \
	test -n "$$addr" || { echo "fabric-smoke: coordinator never bound"; kill $$cpid; exit 1; }; \
	./.fabric-check/boomd -worker -coordinator http://$$addr -worker-id smoke-w1 \
		-cache .fabric-check/wcache \
		> .fabric-check/worker.txt 2> .fabric-check/worker.log & wpid=$$!; \
	for i in $$(seq 1 50); do \
		./.fabric-check/boomctl -addr $$addr metrics 2>/dev/null \
			| grep -q '^fabric_workers 1$$' && break; sleep 0.1; \
	done; \
	./.fabric-check/boomctl -addr $$addr metrics | grep -q '^fabric_workers 1$$' \
		|| { echo "fabric-smoke: worker never registered"; kill $$cpid $$wpid; exit 1; }; \
	./.fabric-check/boomctl -addr $$addr submit -workloads sha,qsort -configs medium \
		-scale tiny -wait > .fabric-check/fabric.json; \
	./.fabric-check/boomctl -addr $$addr status > .fabric-check/status.json; \
	grep -q 'smoke-w1' .fabric-check/status.json; \
	./.fabric-check/boomctl -addr $$addr metrics > .fabric-check/metrics.txt; \
	grep -q '^fabric_cells_done 4$$' .fabric-check/metrics.txt; \
	! grep -q '^fabric_local_fallback [1-9]' .fabric-check/metrics.txt; \
	kill -TERM $$wpid; wait $$wpid; \
	kill -TERM $$cpid; wait $$cpid
	set -e; \
	./.fabric-check/boomd -addr 127.0.0.1:0 -q \
		> .fabric-check/solo.txt 2> .fabric-check/solo.log & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q 'listening on' .fabric-check/solo.txt 2>/dev/null && break; sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^boomd: listening on //p' .fabric-check/solo.txt | head -1); \
	test -n "$$addr" || { echo "fabric-smoke: solo boomd never bound"; kill $$pid; exit 1; }; \
	./.fabric-check/boomctl -addr $$addr submit -workloads sha,qsort -configs medium \
		-scale tiny -wait > .fabric-check/solo.json; \
	kill -TERM $$pid; wait $$pid
	cmp .fabric-check/fabric.json .fabric-check/solo.json
	rm -rf .fabric-check
	@echo "fabric-smoke: OK"

# Fabric chaos drill: the full 11×3 conformance matrix on a 3-worker
# in-process cluster where worker-0 corrupts every measure payload it
# reports and every worker's network layer injects stalled polls, 5xx
# report/heartbeat failures, and corrupted/truncated store bodies. The
# final report must stay golden-digest-identical, worker-0 must end the
# run quarantined by the result audit, and no cell may fail.
fabric-chaos:
	$(GO) test -run TestConformanceNetworkChaos -count=1 ./internal/fabric

# Kernel benchmarks: measure the hot-path kernels (BOOM tick, decode,
# stats/power accumulate, functional step) and record cycles/sec, ns/op,
# and allocs/op per BOOM config in BENCH_kernel.json. See README
# "Performance" for the methodology.
bench:
	$(GO) run ./cmd/kernelbench -benchtime 2s -count 3

# Bench smoke: every kernel benchmark runs once (-benchtime 1x) and the
# JSON emitter must see all five kernels — catches perf-harness rot
# without paying for real measurements.
bench-smoke:
	rm -rf .bench-check && mkdir -p .bench-check
	$(GO) run ./cmd/kernelbench -benchtime 1x -out .bench-check/BENCH_kernel.json 2> /dev/null
	for k in tick decode stats_accumulate power_accumulate func_step measure_j1 measure_j4; do \
		grep -q "\"kernel\": \"$$k\"" .bench-check/BENCH_kernel.json \
			|| { echo "bench-smoke: kernel $$k missing"; exit 1; }; \
	done
	rm -rf .bench-check
	@echo "bench-smoke: OK"

# Measure-stage gate (DESIGN §17): one MegaBOOM cell at -j1 vs -j4 must
# produce byte-identical canonical bytes, and -j4 must win the wall clock
# wherever the machine has >= 4 CPUs (single-core CI boxes verify the
# digest half and skip the timing half).
bench-measure:
	BOOM_MEASURE_SPEEDUP=1 $(GO) test -run TestMeasurePointSpeedup -count=1 -v ./internal/core

# Sampling-fidelity gate (DESIGN §18): per-workload sampled-vs-full CPI
# error at MediumBOOM under the BBV-only baseline spec and the recommended
# bbv+mav spec. The recommended spec's mean error must not regress, and
# dijkstra — the memory-bound workload BBV-only sampling mis-clusters —
# must strictly improve. Prints the per-workload delta table.
fidelity:
	BOOM_FIDELITY=1 $(GO) test -run TestFidelityGate -count=1 -v ./internal/core

# Non-test Go LOC outside perfbench/: the size figure tracked per change
# (falling LOC with unchanged digests is progress). Not part of check.
loc:
	find . -name '*.go' -not -path './perfbench/*' -not -name '*_test.go' | xargs wc -l | tail -n 1

check: vet race cpu-matrix smoke fuzz-smoke bench-smoke bench-measure fidelity cache-roundtrip chaos resume-roundtrip serve-smoke dse-smoke fabric-smoke fabric-chaos
